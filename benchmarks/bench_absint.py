"""Abstract-interpretation analyzer overhead: proofs must stay cheap.

The absint engine (ABI dataflow, pointer escape, hunk equivalence,
sleep paths, data-image witnesses) runs inside every ``analyze``
stage.  This bench times the warm analyzer — kernels generated, run
builds memoized, compile caches hot — with the proof engine on versus
the heuristic-only baseline (``absint=False``), and fails if proofs
cost more than **1.5x** the baseline.  The warm pass runs both
flavours once, so it also warms the analyzer's code facts: each run
build's code index (the call graph and call-site argument counts the
heuristics and the ABI proof read) and the per-section memos of the
absint walks (function summaries, equivalence streams), which are
keyed by content and would otherwise make only the first timed pass
of each side pay for them.  It also checks the proofs are
actually there: every absint report must come back proven.

Run directly:

* ``--smoke`` — the CI check: 8 CVEs, ratio gate + proof check.
* ``--full`` — all 64 corpus CVEs.

Both record into ``BENCH_corpus.json``.  Under pytest the smoke-sized
measurement runs as a benchmark.
"""

import time

import perfjson

from repro.evaluation import clear_caches
from repro.evaluation.analyze import analyze_corpus_cve
from repro.evaluation.corpus import CORPUS

#: the acceptance ceiling: absint analyze time / heuristic analyze time
MAX_RATIO = 1.5


def _specs(count):
    return sorted(CORPUS, key=lambda s: s.cve_id)[:count]


def _timed_pass(specs, absint, repeats=3):
    """Analyze every spec uncached; returns (wall seconds, reports).

    Best-of-``repeats`` so the ratio gate measures the analyzer, not
    scheduler noise on a loaded CI box.
    """
    best = float("inf")
    reports = []
    for _ in range(repeats):
        current = []
        start = time.perf_counter()
        for spec in specs:
            current.append(analyze_corpus_cve(spec, use_cache=False,
                                              absint=absint))
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, reports = elapsed, current
    return best, reports


def measure(cve_count):
    """Warm-analyzer timing over ``cve_count`` CVEs.

    Returns ``(payload, failures)``.
    """
    clear_caches()
    specs = _specs(cve_count)
    failures = []

    # Warm the kernel/run-build/compile memos and the analyzer's code
    # facts so both passes time the analyzer itself, not one-time
    # generation and code-walking costs.
    _timed_pass(specs, absint=False, repeats=1)
    _timed_pass(specs, absint=True, repeats=1)

    baseline_s, _ = _timed_pass(specs, absint=False)
    absint_s, reports = _timed_pass(specs, absint=True)
    ratio = absint_s / baseline_s if baseline_s else float("inf")

    unproven = [spec.cve_id for spec, report in zip(specs, reports)
                if not report.is_proven()]
    if unproven:
        failures.append("unproven absint reports: %s"
                        % ", ".join(unproven))
    if ratio > MAX_RATIO:
        failures.append("absint analyze is %.2fx the heuristic "
                        "baseline (ceiling %.1fx)" % (ratio, MAX_RATIO))

    payload = {
        "cves": len(specs),
        "heuristic_wall_s": round(baseline_s, 3),
        "absint_wall_s": round(absint_s, 3),
        "absint_per_cve_ms": round(1000.0 * absint_s / len(specs), 2),
        "ratio": round(ratio, 3),
        "max_ratio": MAX_RATIO,
        "evidence_records": sum(len(r.evidence) for r in reports),
        "proven": len(specs) - len(unproven),
    }
    return payload, failures


def _report(label, payload):
    print("%s: %d CVEs analyzed; heuristics %.2fs, absint %.2fs "
          "(%.2fx, ceiling %.1fx); %d evidence records, %d/%d proven"
          % (label, payload["cves"], payload["heuristic_wall_s"],
             payload["absint_wall_s"], payload["ratio"],
             payload["max_ratio"], payload["evidence_records"],
             payload["proven"], payload["cves"]))


def test_absint_overhead(benchmark):
    payload, failures = benchmark.pedantic(
        lambda: measure(8), rounds=1, iterations=1)
    _report("absint", payload)
    perfjson.record("absint_smoke", payload)
    assert not failures, failures


def run_smoke():
    payload, failures = measure(8)
    _report("smoke", payload)
    perfjson.record("absint_smoke", payload)
    for failure in failures:
        print("SMOKE FAIL: %s" % failure)
    if not failures:
        print("smoke: OK")
    return 1 if failures else 0


def run_full():
    payload, failures = measure(len(CORPUS))
    _report("full", payload)
    perfjson.record("absint_full", payload)
    for failure in failures:
        print("FULL FAIL: %s" % failure)
    if not failures:
        print("full: OK (recorded in %s)" % perfjson.DEFAULT_PATH)
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv[1:]:
        sys.exit(run_smoke())
    sys.exit(run_full())
