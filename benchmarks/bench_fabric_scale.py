"""Fleet-rollout fabric scale: update waves to 10k members, one loop.

The asyncio dispatcher pushes update waves to a 10k-member fleet on
**one event loop**.  The thread-per-member dispatcher it replaced is
gone; its last measurement at 1k members is kept below as a frozen,
dated record (:data:`THREADED_BASELINE_1K`) and is never compared
against a live run, because a live number on one host cannot be gated
against another host's record.

``updates_per_s`` counts acknowledged member-updates over the
*dispatch* wall only (join/handshake time is reported separately):
with W waves and M members, a perfect run acks W*M updates.

Run directly:

* ``--smoke`` — the CI check: 100 and 1000 members, a floor on
  members-updated/s, every ack accounted for, encrypted end to end.
* ``--full`` — the acceptance run: 100/1k/10k members; asserts every
  ack arrives over encrypted sessions, the 10k run included, and
  records the runs with the frozen baseline in ``BENCH_corpus.json``.

Under pytest the same measurements run as benchmarks.
"""

import os
import time

import perfjson

from repro.distributed.fabric import (
    DispatchReport,
    RolloutDispatcher,
    make_payload,
    spawn_member_shards,
)

SECRET = b"bench-fabric-secret"
PAYLOAD_BYTES = 252  # 4-byte CRC header makes a 256-byte payload

#: CI floor for the asyncio fabric at 100 and 1000 members.  The
#: observed single-core rate is ~40-50k upd/s at 1k; the floor is set
#: far below that so only a real regression (or a pathological CI
#: host) trips it.
SMOKE_FLOOR_UPDATES_PER_S = 2000.0

#: The thread-per-member dispatcher's last live run (1k members, 20
#: waves of 256-byte payloads), frozen when that dispatcher was
#: deleted.  Provenance: loopback TCP, member simulators in forked
#: shards, one x86_64 CPU, Python 3.11.7, recorded at epoch
#: 1786223010.531.  Historical context only; no gate reads it.
THREADED_BASELINE_1K = {
    "backend": "threaded",
    "members": 1000,
    "waves": 20,
    "member_updates": 20000,
    "failures": 0,
    "join_wall_s": 1.124,
    "dispatch_wall_s": 2.656,
    "updates_per_s": 7530.0,
    "encrypted": True,
    "frozen": True,
    "recorded_at": 1786223010.531,
    "host": {"cpus": 1, "machine": "x86_64", "python": "3.11.7"},
}


def _updates(waves):
    payload = make_payload(os.urandom(PAYLOAD_BYTES))
    return [("CVE-2026-%04d" % i, payload) for i in range(waves)]


def _rollout(members, waves, shard_size,
             join_timeout=300.0) -> DispatchReport:
    """One measured rollout; members simulated in forked shards."""
    shards = []

    def on_listen(host, port):
        shards.append(spawn_member_shards(host, port, members, SECRET,
                                          shard_size=shard_size))

    dispatcher = RolloutDispatcher(expected=members, secret=SECRET,
                                   join_timeout=join_timeout,
                                   on_listen=on_listen)
    try:
        report = dispatcher.run(_updates(waves))
    finally:
        for shard in shards:
            shard.stop()
    return report


def _payload_for(report, waves):
    return {
        "members": report.members,
        "waves": waves,
        "member_updates": report.acks,
        "failures": report.failures,
        "join_wall_s": round(report.join_wall_s, 3),
        "dispatch_wall_s": round(report.dispatch_wall_s, 3),
        "updates_per_s": round(report.updates_per_s, 1),
        "encrypted": report.encrypted,
    }


def measure_full():
    """The acceptance matrix.  Returns ``(payload, failures)``."""
    failures = []
    scales = []
    # (members, waves, shard_size) — waves shrink as the fleet grows
    # so the full matrix stays a few minutes on one core.
    for members, waves, shard in ((100, 20, 100), (1000, 20, 250),
                                  (10000, 5, 1000)):
        report = _rollout(members, waves, shard)
        scales.append(_payload_for(report, waves))
        if report.acks != members * waves:
            failures.append(
                "asyncio @%d members: %d of %d acks"
                % (members, report.acks, members * waves))
        if not report.encrypted:
            failures.append("asyncio @%d members: session not "
                            "encrypted" % members)

    payload = {
        "asyncio": scales,
        "threaded_baseline_1k": THREADED_BASELINE_1K,
        "payload_bytes": PAYLOAD_BYTES + 4,
        "states": "loopback TCP; members simulated in forked shard "
                  "processes; dispatch wall excludes join/handshake; "
                  "the dispatcher shares the host's CPUs with the "
                  "member simulators; threaded_baseline_1k is a "
                  "frozen record, not a live run",
    }
    return payload, failures


def test_fabric_scale(benchmark):
    payload, failures = benchmark.pedantic(measure_full, rounds=1,
                                           iterations=1)
    print("\nfabric: asyncio %s upd/s at 1k; 10k members on one "
          "loop: %s acks"
          % (payload["asyncio"][1]["updates_per_s"],
             payload["asyncio"][2]["member_updates"]))
    perfjson.record("fabric_scale", payload)
    assert not failures, failures


def run_smoke():
    """CI-sized check (returns an exit status)."""
    failures = []
    results = []
    for members, waves, shard in ((100, 10, 100), (1000, 10, 250)):
        start = time.perf_counter()
        report = _rollout(members, waves, shard, join_timeout=120.0)
        wall = time.perf_counter() - start
        results.append(_payload_for(report, waves))
        print("smoke @%d members: %.0f upd/s, %d/%d acks, join "
              "%.1fs, dispatch %.2fs, %.1fs total"
              % (members, report.updates_per_s, report.acks,
                 members * waves, report.join_wall_s,
                 report.dispatch_wall_s, wall))
        if report.acks != members * waves:
            failures.append("@%d members: %d of %d acks"
                            % (members, report.acks, members * waves))
        if report.updates_per_s < SMOKE_FLOOR_UPDATES_PER_S:
            failures.append(
                "@%d members: %.0f upd/s below the %.0f floor"
                % (members, report.updates_per_s,
                   SMOKE_FLOOR_UPDATES_PER_S))
        if not report.encrypted:
            failures.append("@%d members: session not encrypted"
                            % members)

    perfjson.record("fabric_scale_smoke", {
        "runs": results,
        "floor_updates_per_s": SMOKE_FLOOR_UPDATES_PER_S,
        "ok": not failures,
    })
    for failure in failures:
        print("SMOKE FAIL: %s" % failure)
    if not failures:
        print("smoke: OK")
    return 1 if failures else 0


def run_full():
    payload, failures = measure_full()
    perfjson.record("fabric_scale", payload)
    for scale in payload["asyncio"]:
        print("full @%d members: %s upd/s, %d acks, join %.1fs, "
              "dispatch %.2fs"
              % (scale["members"], scale["updates_per_s"],
                 scale["member_updates"], scale["join_wall_s"],
                 scale["dispatch_wall_s"]))
    print("full: threaded baseline at 1k, frozen record: %s upd/s"
          % THREADED_BASELINE_1K["updates_per_s"])
    for failure in failures:
        print("FULL FAIL: %s" % failure)
    if not failures:
        print("full: OK (recorded in %s)" % perfjson.DEFAULT_PATH)
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv[1:]:
        sys.exit(run_smoke())
    if "--full" in sys.argv[1:]:
        sys.exit(run_full())
    print("usage: python benchmarks/bench_fabric_scale.py "
          "--smoke | --full\n"
          "(the benchmarks also run under pytest-benchmark)")
    sys.exit(2)
