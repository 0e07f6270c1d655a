"""End-to-end benchmark of the Ksplice path: one command, one report.

    python3 e2ebench/run.py --workload {proof-sweep,fleet-rollout,publish}
        --seed N --seconds S --trace {0,1}
    python3 e2ebench/run.py --workload all --seed N --seconds S

Run it from the repository root.  The workloads are defined in
``workloads.py``:

* ``proof-sweep`` is the static half.  Factory scenarios go through the
  pre/post builds, the object diff, the analyzer and the absint proof.
  No machine boots, so a ``kernel/`` or ``fleet/`` change should not
  move it.
* ``fleet-rollout`` is the dynamic half.  Seed-corpus CVEs roll out in
  canary waves over live, stress-loaded fleets.  Every third rollout
  gets an injected oops, which forces a LIFO undo.  It bypasses
  ``controlplane/`` and ``distributed/``.
* ``publish`` is the operator's path through the control-plane daemon
  and a ``repro worker``, with one daemon restart.  It is the only
  workload that puts control-plane store writes and the wire on the
  clock.

Every pass runs in a fresh interpreter (``one_pass.py``).  The pass has
``PYTHONHASHSEED=0``, the JIT at its default and no on-disk cache tier.
Its scratch files and bytecode cache live under ``.bench_run/``.  So
each run starts from the same stated state.

``--trace 0`` measures the end-to-end metrics with tracing off.
Set-up covers interpreter start, imports, input generation, the
running kernels' builds, and the daemon and worker start.  It is timed
in several fresh processes and reported as the median.  The ops then
run in a closed loop.  A run does ``--seconds`` times the workload's
nominal rate of ops (``NOMINAL_OPS_PER_S``), which takes about
``--seconds`` on the host the rates were measured on.  A failed op
ranks slower than every successful op in the latency percentiles.

``--trace 1`` runs half that many ops twice from the same seed: first
untraced, then with ``layers.LayerTracer`` wrapping each layer's public
entry points.  It reports the per-layer table and the tracing overhead
(traced minus untraced loop time).

Each run prints the host fingerprint and the time of a fixed
pure-Python calibration loop.  These are context for judging host
noise, not metrics.  The run appends a record to
``.bench_run/history.jsonl`` and ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false when any op, or a check outside the ops, fails in a way that no
documented known defect explains.  ``failed`` counts every failed op,
known defects included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("proof-sweep", "fleet-rollout", "publish")
#: ops per second of each workload on the 2-CPU host the benchmark was
#: tuned on.  A run does round(seconds * rate) ops, so it takes about
#: ``--seconds`` there; a fixed count keeps a fast host from running
#: more (and, as caches warm, cheaper) ops than a slow one.  From 24 s
#: up, fleet-rollout and publish cover all 64 seed-corpus CVEs.
NOMINAL_OPS_PER_S = {"proof-sweep": 5.0, "fleet-rollout": 3.2,
                     "publish": 2.7}
#: set-up is timed in this many fresh processes (the last one also
#: runs the ops) and reported as the median
SETUP_SAMPLES = 3
#: every pass of a run must end this long after the run started
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: every per-layer metric, in report order.  ``s/op`` times are a
#: layer's inclusive time summed over the pass, divided by its ops.
PER_LAYER_UNITS = {
    "scenarios.generate_s": "s",
    "evaluation.kernel_gen_s": "s",
    "kbuild.prebuild_s": "s",
    "kbuild.run_build_s": "s/op",
    "kbuild.build_pre_s": "s/op",
    "kbuild.build_post_s": "s/op",
    "kbuild.post_over_pre": "ratio",
    "compiler.cache_lookups": "count",
    "compiler.cache_hit_rate": "ratio",
    "core.create_s": "s/op",
    "core.create_ms": "ms",
    "core.objdiff_s": "s/op",
    "analysis.analyze_s": "s/op",
    "analysis.absint_s": "s/op",
    "analysis.heuristic_s": "s/op",
    "analysis.evidence": "count",
    "analysis.proven_ratio": "ratio",
    "core.apply_s": "s/op",
    "core.runpre_s": "s/op",
    "core.stop_machine_ms": "ms",
    "core.stack_check_attempts": "count",
    "core.applies_per_attempt": "ratio",
    "core.undo_s": "s/op",
    "pause_ms.p50": "ms",
    "pause_ms.tail": "ms",
    "kernel.boot_s": "s/op",
    "fleet.boot_s": "s/op",
    "kernel.insns": "count",
    "kernel.ns_per_insn": "ns",
    "kernel.trace_hit_rate": "ratio",
    "kernel.traces_compiled": "count",
    "kernel.traces_evicted": "count",
    "fleet.waves": "count",
    "first_wave_s": "s",
    "fleet.health_s": "s/op",
    "fleet.health_share": "ratio",
    "fleet.check_machine_s": "s/op",
    "fleet.rollback_ms": "ms",
    "controlplane.register_ms": "ms",
    "controlplane.publish_call_ms": "ms",
    "controlplane.poll_ms": "ms",
    "controlplane.recover_s": "s",
    "controlplane.store_bytes": "bytes",
    "distributed.worker_spawn_s": "s",
    "distributed.worker_peak_rss_mb": "MB",
    "distributed.remote_rollout_s": "s/op",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.wrapper_s": "s",
}


#: per-layer metrics a workload measures around its ops rather than
#: through the tracer; 0 on workloads that have no such step
SETUP_AND_STORE_METRICS = (
    "scenarios.generate_s", "evaluation.kernel_gen_s", "kbuild.prebuild_s",
    "distributed.worker_spawn_s", "distributed.worker_peak_rss_mb",
    "controlplane.recover_s", "controlplane.store_bytes")


class BenchError(Exception):
    """The benchmark could not run (a pass crashed or timed out)."""


# -- host record --------------------------------------------------------------


def host_fingerprint() -> Dict[str, object]:
    info: Dict[str, object] = {
        "system": platform.system(), "release": platform.release(),
        "machine": platform.machine(), "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "mem_mb": (os.sysconf("SC_PAGE_SIZE")
                   * os.sysconf("SC_PHYS_PAGES")) // (1 << 20),
    }
    digest = hashlib.sha256(json.dumps(info, sort_keys=True).encode())
    info["id"] = digest.hexdigest()[:12]
    return info


def calibration_s() -> float:
    """A fixed pure-Python loop: host speed at the time of the run."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


# -- passes -------------------------------------------------------------------


def pass_env(seed: int, workdir: str) -> Dict[str, str]:
    env = dict(os.environ)
    for name in ("REPRO_JIT", "REPRO_CONTROLPLANE_URL",
                 "REPRO_CONTROLPLANE_DIR", "REPRO_TRACE_FILE",
                 "REPRO_ROLLOUT_FILE", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    # cold for the first pass in a checkout, warm for every pass after
    env["PYTHONPYCACHEPREFIX"] = os.path.join(workdir, "pycache")
    env["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    env["KSPLICE_WORKER_SECRET"] = "e2ebench-%d" % seed
    return env


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the pass ended just before the deadline


def ops_for(args: argparse.Namespace) -> int:
    """The op count of a run of ``args.seconds``."""
    return max(1, round(args.seconds * NOMINAL_OPS_PER_S[args.workload]))


def run_pass(args: argparse.Namespace, workdir: str, ops: int, *,
             trace: bool = False, setup_only: bool = False,
             ) -> Tuple[float, dict]:
    """One fresh-process pass; returns ``(setup_s, result)``."""
    fd, out_path = tempfile.mkstemp(prefix="pass-", suffix=".json",
                                    dir=workdir)
    os.close(fd)
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--ops", str(ops), "--workdir", workdir, "--out", out_path]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    setup_s: Optional[float] = None
    # its own process group, so a pass that overruns the deadline is
    # killed together with the worker it started
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True,
                            env=pass_env(args.seed, workdir),
                            start_new_session=True)
    watchdog = threading.Timer(max(0.0, args.deadline - time.monotonic()),
                               kill_group, (proc.pid,))
    watchdog.start()
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - start
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    try:
        if code != 0 or setup_s is None:
            raise BenchError("%s pass exited %d%s" % (
                args.workload, code,
                " (killed at the run deadline)"
                if code == -signal.SIGKILL else ""))
        with open(out_path, encoding="utf-8") as handle:
            return setup_s, json.load(handle)
    finally:
        os.unlink(out_path)


# -- statistics ---------------------------------------------------------------


def nearest_rank(n: int, q: float) -> int:
    """Index of quantile ``q`` among ``n`` ascending samples."""
    return max(0, min(n - 1, math.ceil(q * n) - 1))


def tail_rank(n: int) -> int:
    """The highest index with at least ten samples beyond it, but never
    below the median (the last index when there are too few samples)."""
    return max(n - 11, nearest_rank(n, 0.5)) if n > 10 else n - 1


def quantiles(samples: List[Optional[float]], missed: float,
              ) -> Dict[str, Any]:
    """Median and tail of ``samples``.  ``None`` is a failed op: it
    ranks after every success, and a quantile that lands on one reads
    ``missed`` (the op missed any latency limit)."""
    order = sorted(s for s in samples if s is not None)
    successes = len(order)
    order += [missed] * (len(samples) - successes)
    n = len(order)
    if not n:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_pct": 0.0,
                "missed": []}
    ranks = {"p50": nearest_rank(n, 0.5), "tail": tail_rank(n)}
    result = {name: order[rank] for name, rank in ranks.items()}
    result.update(n=n, tail_pct=100.0 * (ranks["tail"] + 1) / n,
                  missed=[name for name, rank in ranks.items()
                          if rank >= successes])
    return result


def first_wave_s(ops: List[dict]) -> float:
    values = [op["first_wave_s"] for op in ops
              if op["first_wave_s"] is not None]
    return statistics.median(values) if values else 0.0


# -- the two kinds of run -----------------------------------------------------


def end_to_end(args, workdir) -> Tuple[dict, dict, List[str]]:
    setups = [run_pass(args, workdir, 0, setup_only=True)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup_s, result = run_pass(args, workdir, ops_for(args))
    setups.append(setup_s)
    ops, loop_s = result["ops"], result["loop_s"]
    if not ops:
        raise BenchError("no op completed")
    lat = quantiles([op["seconds"] if op["ok"] else None for op in ops],
                    missed=loop_s)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s.p50": lat["p50"],
        "op_s.tail": lat["tail"],
        "ops_per_s": len(ops) / loop_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    samples = {"setup_s": len(setups), "peak_rss_mb": 1}
    failed = sum(1 for op in ops if not op["ok"])
    lines = ["end-to-end: %s, seed %d, untraced, %d ops in %.2f s"
             % (args.workload, args.seed, len(ops), loop_s)]
    for name, value in metrics.items():
        note = " (p%.0f)" % lat["tail_pct"] if name == "op_s.tail" else ""
        if name[len("op_s."):] in lat["missed"]:
            note += " [lands on a failed op: reads the loop time]"
        lines.append("  %-16s %12.4f %-4s n=%d%s" % (
            name, value, END_TO_END_UNITS[name],
            samples.get(name, len(ops)), note))
    lines.append("  %-16s %12.4f      n=%d (%d failed)"
                 % ("failed_ratio", failed / len(ops), len(ops), failed))
    pauses = quantiles([p for op in ops for p in op["pauses_ms"]], 0.0)
    if pauses["n"]:
        lines.append("  %-16s %12.4f ms   n=%d" % (
            "pause_ms.p50", pauses["p50"], pauses["n"]))
        lines.append("  %-16s %12.4f ms   n=%d (p%.0f)" % (
            "pause_ms.tail", pauses["tail"], pauses["n"],
            pauses["tail_pct"]))
    waved = [op for op in ops if op["first_wave_s"] is not None]
    if waved:
        lines.append("  %-16s %12.4f s    n=%d" % (
            "first_wave_s", first_wave_s(ops), len(waved)))
    return metrics, result, lines


def per_layer(args, workdir) -> Tuple[dict, dict, List[str]]:
    ops = max(1, ops_for(args) // 2)
    _, plain = run_pass(args, workdir, ops)
    _, traced = run_pass(args, workdir, ops, trace=True)
    layers = dict(traced["layers"])
    for name in SETUP_AND_STORE_METRICS:
        layers[name] = traced["layer_extras"].get(name, 0.0)
    pauses = quantiles(traced["pauses_ms"], 0.0)
    layers["pause_ms.p50"] = pauses["p50"]
    layers["pause_ms.tail"] = pauses["tail"]
    layers["first_wave_s"] = first_wave_s(traced["ops"])
    layers["fleet.waves"] = sum(op["waves"] for op in traced["ops"])
    overhead = traced["loop_s"] - plain["loop_s"]
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_ratio"] = overhead / plain["loop_s"]
    layers["trace.wrapper_s"] = traced["wrapper_s"]
    metrics = {name: layers[name] for name in PER_LAYER_UNITS}
    lines = ["per-layer: %s, seed %d, traced, %d ops" % (
        args.workload, args.seed, len(traced["ops"]))]
    for name, value in metrics.items():
        lines.append("  %-30s %14.6g %s" % (name, value,
                                            PER_LAYER_UNITS[name]))
    lines += [
        "outliers:",
        "  kbuild.post_over_pre: the post build takes %.2fx the pre build"
        % metrics["kbuild.post_over_pre"],
        "  fleet.health_share: %.1f%% of op time is in the health gate"
        % (100 * metrics["fleet.health_share"]),
        "  controlplane.publish_call_ms %.1f ms per POST, next to "
        "core.create_ms %.1f ms per ksplice_create (a publish creates "
        "twice: once for the gate, once for the pack)"
        % (metrics["controlplane.publish_call_ms"],
           metrics["core.create_ms"]),
        "tracing overhead: %+.3f s (%+.1f%%): traced %.2f s - untraced "
        "%.2f s for the same %d ops" % (
            overhead, 100 * metrics["trace.overhead_ratio"],
            traced["loop_s"], plain["loop_s"], ops),
        "  of which the wrappers' own bookkeeping: %.3f s (%.1f%% of the "
        "traced loop); the rest is the difference between two separate "
        "passes"
        % (metrics["trace.wrapper_s"],
           100 * metrics["trace.wrapper_s"] / traced["loop_s"]),
    ]
    if [op["ok"] for op in plain["ops"]] != \
            [op["ok"] for op in traced["ops"]]:
        traced["problems"].append("the traced and untraced passes "
                                  "disagree on which ops fail")
    return metrics, traced, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the Ksplice path.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="'all' runs every workload, untraced and "
                             "traced, into one report")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    program = os.path.join(ROOT, "src", "repro", "__init__.py")
    if not os.path.isfile(program):
        print("error: no program to measure: %s is missing" % program,
              file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_run")
    os.makedirs(workdir, exist_ok=True)
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)]
            if args.workload == "all" else [(args.workload, args.trace)])

    host = host_fingerprint()
    calibration = calibration_s()
    print("host %s (%s %s, %s cpus, python %s); calibration loop %.3f s"
          % (host["id"], host["system"], host["machine"], host["cpus"],
             host["python"], calibration))
    summary = {"correct": True, "attempted": 0, "failed": 0,
               "metrics": {}}
    for workload, trace in runs:
        one = argparse.Namespace(
            workload=workload, seed=args.seed, seconds=args.seconds,
            deadline=time.monotonic() + RUN_DEADLINE_S)
        try:
            metrics, result, lines = (per_layer if trace
                                      else end_to_end)(one, workdir)
        except BenchError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        failures = ["%s: %s" % (op["name"], op["cause"])
                    for op in result["ops"] if not op["ok"]]
        unexpected = result["problems"] + [
            "%s: %s" % (op["name"], op["cause"]) for op in result["ops"]
            if not op["ok"] and not op["known_defect"]]
        for line in lines:
            print(line)
        print("failures (%d of %d ops):"
              % (len(failures), len(result["ops"])))
        for line in failures or ["none"]:
            print("  " + line)
        for line in unexpected:
            print("UNEXPECTED: " + line)
        with open(os.path.join(workdir, "history.jsonl"), "a",
                  encoding="utf-8") as handle:
            handle.write(json.dumps({
                "time": time.time(), "host": host,
                "calibration_s": calibration, "workload": workload,
                "seed": args.seed, "seconds": args.seconds,
                "trace": trace, "metrics": metrics,
                "failures": failures}) + "\n")
        units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
        prefix = workload + "/" if len(runs) > 1 else ""
        summary["correct"] = summary["correct"] and not unexpected
        summary["attempted"] += len(result["ops"])
        summary["failed"] += len(failures)
        summary["metrics"].update(
            {prefix + name: {"value": value, "unit": units[name]}
             for name, value in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
