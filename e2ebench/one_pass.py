"""One pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass so every pass begins from
the same state: a new process with empty in-memory caches and no
on-disk cache tier.  The pass sets its workload up, prints ``READY``
(the parent times set-up from process start to that line), runs
exactly ``--ops`` ops in a closed loop with a full garbage collection
between ops (not timed as part of any op), tears down, and writes a
JSON result to ``--out``.

    python3 e2ebench/one_pass.py --workload W --seed N --ops K
        --workdir DIR --out FILE [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from dataclasses import asdict


def run_pass(args: argparse.Namespace) -> dict:
    from layers import LayerTracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = LayerTracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    ops = []
    loop_s = 0.0
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return {}
        if tracer is not None:
            tracer.start_ops()
        start = time.perf_counter()
        for index in range(min(args.ops, workload.max_ops)):
            if index == args.ops // 2:
                workload.midpoint()
            op_start = time.perf_counter()
            result = workload.run_op(index)
            result.seconds = time.perf_counter() - op_start
            ops.append(result)
            if tracer is not None:
                tracer.end_op()
            # Collect the op's cyclic garbage (whole fleets of machines)
            # before the next op, so the peak RSS is live memory rather
            # than an artefact of when the collector last ran.
            gc.collect()
        loop_s = time.perf_counter() - start
    finally:
        workload.teardown()
    out = {
        "ops": [asdict(op) for op in ops],
        "loop_s": loop_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "problems": workload.problems,
        "layer_extras": workload.layer_extras,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics(
            len(ops), sum(op.seconds for op in ops))
        out["pauses_ms"] = tracer.pauses_ms
        out["wrapper_s"] = tracer.wrapper_s
        tracer.dump(os.path.join(
            args.workdir, "spans-%s-%d.json" % (args.workload, args.seed)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run_pass(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
