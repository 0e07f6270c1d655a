"""Machine-readable benchmark results: ``BENCH_corpus.json``.

Every throughput benchmark (local corpus and distributed fabric)
records its headline numbers here so perf regressions are diffable in
review instead of buried in CI logs.  The file is one JSON object,
one section per benchmark entry point; :func:`record` merges a section
atomically (write-temp-then-rename) so concurrent benches cannot tear
the file.

The filename is deliberately not ``bench_*.py`` so pytest's benchmark
glob never collects this module.
"""

import json
import os
import platform
import tempfile
import time

#: repo root / BENCH_corpus.json — next to ROADMAP.md, committed.
DEFAULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_corpus.json")


def host_fingerprint():
    """Enough context to compare two recorded runs honestly."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


class CorruptResultsError(ValueError):
    """The results file exists but is not a JSON object.  Recording
    over it would drop every other bench's section, so :func:`record`
    leaves it untouched and raises this instead."""


def record(section, payload, path=None):
    """Merge ``{section: payload}`` into the results file atomically.

    ``payload`` gets ``recorded_at`` (epoch seconds) and the host
    fingerprint stamped in; existing sections written by other benches
    are preserved.  A missing file starts empty; an unreadable one
    raises :class:`CorruptResultsError`.
    """
    path = path or DEFAULT_PATH
    try:
        with open(path) as handle:
            results = json.load(handle)
    except FileNotFoundError:
        results = {}
    except ValueError as exc:
        raise CorruptResultsError(
            "%s is not valid JSON (%s); fix or remove it" % (path, exc)) \
            from exc
    if not isinstance(results, dict):
        raise CorruptResultsError(
            "%s holds a JSON %s, not an object; fix or remove it"
            % (path, type(results).__name__))
    entry = dict(payload)
    entry["recorded_at"] = round(time.time(), 3)
    entry["host"] = host_fingerprint()
    results[section] = entry

    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bench-",
                               suffix=".json.tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
