"""The benchmark's own checks.

    python3 -m pytest e2ebench -q

These are not part of the repository's tier-1 suite: the determinism
check runs the traced workloads twice each and takes a minute or two.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

ROOT = run.ROOT
#: layer counts that must not depend on timing: two traced runs of the
#: same seed must report them identically
DETERMINISTIC = ("kernel.insns", "core.stack_check_attempts",
                 "analysis.evidence", "compiler.cache_lookups",
                 "fleet.waves")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py")] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    args = ["--workload", workload, "--seed", "7", "--seconds", "4",
            "--trace", "1"]
    first, second = last_json(bench(*args)), last_json(bench(*args))
    for result in (first, second):
        assert result["correct"]
        assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    counts = [{name: result["metrics"][name]["value"]
               for name in DETERMINISTIC} for result in (first, second)]
    assert counts[0] == counts[1]
    if workload != "proof-sweep":
        assert counts[0]["kernel.insns"] > 0
        assert counts[0]["fleet.waves"] > 0


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS


def test_failed_ops_rank_slowest():
    # three successes and two failures: the median is the slowest
    # success, and the tail lands on a failure, which reads "missed"
    q = run.quantiles([0.3, None, 0.1, 0.2, None], missed=9.0)
    assert q["p50"] == 0.3
    assert q["tail"] == 9.0
    assert q["missed"] == ["tail"]


def test_tail_keeps_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    q = run.quantiles(samples, missed=0.0)
    assert q["tail"] == 90.0
    assert q["tail_pct"] == 90.0
    assert sum(1 for s in samples if s > q["tail"]) == 10


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "e2ebench"),
                    os.path.join(tmp_path, "e2ebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "publish", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
