"""The distributed evaluation fabric: protocol, scheduling, failures.

End-to-end tests spawn real worker processes on ephemeral localhost
ports and drive them through ``evaluate_corpus(workers=...)`` — the
same code path ``repro evaluate --workers`` uses — asserting the
fabric's three contracts: results byte-identical (after
``normalize_result``) to a sequential run, per-CVE streamed progress,
and survival of worker crashes via bounded retry and local rescue.
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.compiler.cache import CacheStats, merge_stats_into
from repro.distributed import (
    AsyncChannel,
    Coordinator,
    ProtocolError,
    aio,
    open_session,
    parse_address,
    protocol,
    spawn_local_workers,
)
from repro.evaluation import (
    CORPUS,
    clear_caches,
    evaluate_corpus,
    normalize_result,
)
from repro.evaluation.engine import EngineStats, _group_by_version


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _slice(count=6, versions=2):
    """The first ``count`` CVEs spanning at most ``versions`` versions."""
    seen, chosen = [], []
    for spec in CORPUS:
        if spec.kernel_version not in seen:
            if len(seen) == versions:
                continue
            seen.append(spec.kernel_version)
        chosen.append(spec)
        if len(chosen) == count:
            break
    return chosen


@pytest.fixture(scope="module")
def sequential_results():
    clear_caches()
    report = evaluate_corpus(_slice(), run_stress=False)
    return [normalize_result(r) for r in report.results]


# -- protocol framing -------------------------------------------------------


def _plaintext_channel(sock):
    """An AsyncChannel without session crypto over one end of a
    socketpair (must run on the event loop)."""

    async def wrap():
        reader, writer = await asyncio.open_connection(sock=sock)
        return AsyncChannel(reader, writer, None)

    return wrap()


def test_message_roundtrip_over_socketpair():
    left, right = socket.socketpair()

    async def scenario():
        sender = await _plaintext_channel(left)
        receiver = await _plaintext_channel(right)
        message = {"type": "item", "specs": [1, 2, 3],
                   "blob": b"x" * 1000}
        await sender.send(message)
        assert await receiver.recv() == message
        await sender.close()
        assert await receiver.recv() is None  # clean EOF
        await receiver.close()

    asyncio.run(scenario())


def test_oversized_frame_is_rejected_before_allocation():
    """A forged record header over the cap fails the channel on the
    header alone — no payload is read, allocated or decoded."""
    left, right = socket.socketpair()

    async def scenario():
        channel = await _plaintext_channel(right)
        left.sendall((protocol.MAX_FRAME + 4096).to_bytes(4, "big"))
        with pytest.raises(ProtocolError, match="dropping the peer"):
            await asyncio.wait_for(channel.recv(), 10.0)
        await channel.close()

    try:
        asyncio.run(scenario())
    finally:
        left.close()


def test_channel_partial_record_survives_timeout():
    """A heartbeat ``wait_for`` timeout mid-record must not
    desynchronize the wire: the reader task keeps the partial record
    and the next recv() decodes it once the rest arrives."""
    from repro.distributed import wire
    from repro.distributed.protocol import pack_batch

    left, right = socket.socketpair()
    frame = wire.encode_frame({"type": "item", "item_id": 7,
                               "blob": b"y" * 4096})
    record = pack_batch([frame])
    buf = len(record).to_bytes(4, "big") + record

    async def scenario():
        channel = await _plaintext_channel(right)
        left.sendall(buf[:100])  # first fragment only
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(channel.recv(), 0.05)
        left.sendall(buf[100:])  # the rest arrives later
        received = await asyncio.wait_for(channel.recv(), 10.0)
        await channel.close()
        return received

    try:
        assert asyncio.run(scenario()) == wire.decode_frame(frame)
    finally:
        left.close()


def test_parse_address_validation():
    assert parse_address("10.0.0.1:5000") == ("10.0.0.1", 5000)
    assert parse_address("[::1]:80") == ("::1", 80)
    assert parse_address("::1:80") == ("::1", 80)
    for bad in ("nocolon", ":5000", "[]:80", "host:", "host:abc",
                "host:70000"):
        with pytest.raises(ProtocolError):
            parse_address(bad)
    with pytest.raises(ProtocolError):
        parse_address("host:0")
    assert parse_address("host:0", allow_zero=True) == ("host", 0)


def _fake_worker(session):
    """Accept one coordinator on a thread with its own event loop, run
    the v3 handshake, then hand the channel to ``session``."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def run():
        sock, _ = listener.accept()

        async def serve():
            reader, writer = await asyncio.open_connection(sock=sock)
            channel = await aio.accept_channel(reader, writer, None)
            try:
                await session(channel)
            finally:
                await channel.close()

        asyncio.run(serve())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return listener, thread


def test_version_mismatch_rejected_at_handshake():
    done = {}

    async def session(channel):
        hello = await channel.recv()
        done["version"] = hello["version"]
        await channel.send({"type": protocol.ERROR,
                            "item_id": None,
                            "error": "protocol version mismatch"})

    listener, thread = _fake_worker(session)
    port = listener.getsockname()[1]
    stats = EngineStats()
    coordinator = Coordinator(["127.0.0.1:%d" % port],
                              connect_timeout=5.0)
    assert coordinator.run(_slice(2), run_stress=False,
                           stats=stats) is None
    assert "no workers reachable" in stats.fallback_reason
    thread.join(timeout=10.0)
    listener.close()
    assert done["version"] == protocol.PROTOCOL_VERSION


def test_stale_error_frame_does_not_fail_inflight_item():
    """An ERROR stamped with a *retired* item_id — a zombie thread from
    a previously abandoned item reporting late — must be discarded like
    stale results, not fail the item currently in flight."""
    fake_result = {"ok": True}

    async def session(channel):
        assert (await channel.recv())["type"] == protocol.HELLO
        await channel.send({"type": protocol.READY,
                            "version": protocol.PROTOCOL_VERSION})
        item = await channel.recv()
        assert item["type"] == protocol.ITEM
        # Zombie noise first: an error for an item this coordinator
        # never dispatched to us (retired id).
        await channel.send({"type": protocol.ERROR, "item_id": "i999",
                            "error": "late failure from an abandoned "
                                     "item"})
        await channel.send({"type": protocol.RESULT,
                            "item_id": item["item_id"], "offset": 0,
                            "result": fake_result})
        await channel.send({"type": protocol.ITEM_DONE,
                            "item_id": item["item_id"]})
        while True:
            message = await channel.recv()
            if message is None or message["type"] == protocol.SHUTDOWN:
                break

    listener, thread = _fake_worker(session)
    port = listener.getsockname()[1]
    stats = EngineStats()
    coordinator = Coordinator(["127.0.0.1:%d" % port],
                              connect_timeout=5.0)
    results = coordinator.run(_slice(1), run_stress=False, stats=stats)
    thread.join(timeout=10.0)
    listener.close()
    assert results == [fake_result]
    assert stats.retries == 0  # the stale error cost nothing
    assert stats.local_rescues == 0


@pytest.mark.parametrize("answer_ready", [False, True],
                         ids=["silent-before-ready", "silent-after-ready"])
def test_silent_worker_raises_builtin_timeout_error(answer_ready):
    """A remote rollout against a worker that falls silent — before
    READY or after taking the item — raises the builtin TimeoutError,
    which is an OSError, so the CLI maps it to exit 2 like any other
    unreachable worker (asyncio.TimeoutError is not an OSError before
    Python 3.11)."""
    from repro.fleet import RolloutPlan, run_remote_rollout

    async def session(channel):
        assert (await channel.recv())["type"] == protocol.HELLO
        if answer_ready:
            await channel.send({"type": protocol.READY,
                                "version": protocol.PROTOCOL_VERSION})
            assert (await channel.recv())["type"] == protocol.ITEM
        # Say nothing more; wait for the client to give up.
        while await channel.recv() is not None:
            pass

    listener, thread = _fake_worker(session)
    port = listener.getsockname()[1]
    try:
        with pytest.raises(TimeoutError) as caught:
            run_remote_rollout(
                "127.0.0.1:%d" % port,
                RolloutPlan(cve_id="CVE-2006-2451", fleet_size=2),
                timeout=0.5)
    finally:
        thread.join(timeout=10.0)
        listener.close()
    assert isinstance(caught.value, OSError)
    assert not thread.is_alive()


# -- end-to-end over spawned localhost workers ------------------------------


def test_distributed_matches_sequential(sequential_results):
    specs = _slice()
    workers = spawn_local_workers(2)
    stats = EngineStats()
    seen = []
    try:
        report = evaluate_corpus(
            specs, run_stress=False, stats=stats,
            workers=[w.address for w in workers],
            progress=lambda r: seen.append(r.cve_id))
    finally:
        for worker in workers:
            worker.stop()
    assert [normalize_result(r) for r in report.results] == \
        sequential_results
    assert not stats.fell_back
    assert stats.workers == 2
    # Streaming granularity: progress fired exactly once per CVE.
    assert sorted(seen) == sorted(s.cve_id for s in specs)
    # Work-stealing granularity: after each version's lead, the tail is
    # dispatched as single-CVE items — one work item per CVE overall.
    assert stats.work_items == len(specs)
    assert stats.groups == len(_group_by_version(specs))
    # Cache deltas rode back per item and were merged per worker.
    assert stats.combined_cache_stats().lookups > 0


def test_worker_killed_mid_run_is_retried(sequential_results):
    """A worker that dies with an item in flight must not lose it."""
    faulty = spawn_local_workers(1, fail_after_items=2)
    healthy = spawn_local_workers(1)
    stats = EngineStats()
    try:
        report = evaluate_corpus(
            _slice(), run_stress=False, stats=stats,
            workers=[faulty[0].address, healthy[0].address])
    finally:
        for worker in faulty + healthy:
            worker.stop()
    assert [normalize_result(r) for r in report.results] == \
        sequential_results
    assert not stats.fell_back
    assert stats.retries >= 1


def test_whole_fleet_dead_degrades_to_local_rescue(sequential_results):
    """Connected-then-crashed workers leave the coordinator to finish
    the corpus in-process — complete, identical results regardless."""
    doomed = spawn_local_workers(1, fail_after_items=1)
    stats = EngineStats()
    try:
        report = evaluate_corpus(_slice(), run_stress=False, stats=stats,
                                 workers=[doomed[0].address])
    finally:
        doomed[0].stop()
    assert [normalize_result(r) for r in report.results] == \
        sequential_results
    assert not stats.fell_back  # the distributed run *completed*
    assert stats.local_rescues == len(_slice())


def test_no_workers_reachable_falls_back(sequential_results):
    stats = EngineStats()
    report = evaluate_corpus(_slice(), run_stress=False, stats=stats,
                             workers=["127.0.0.1:9", "127.0.0.1:10"])
    assert stats.fell_back
    assert "no workers reachable" in stats.fallback_reason
    assert [normalize_result(r) for r in report.results] == \
        sequential_results


def test_unserializable_specs_fall_back_with_reason():
    """A class outside the wire's closed registry cannot cross: the
    coordinator refuses before connecting rather than failing mid-run."""
    from dataclasses import fields

    from repro.evaluation.specs import CveSpec

    class LocalSpec(CveSpec):
        pass

    local = LocalSpec(**{f.name: getattr(CORPUS[0], f.name)
                         for f in fields(CveSpec)})
    stats = EngineStats()
    coordinator = Coordinator(["127.0.0.1:9"])
    assert coordinator.run([local], run_stress=False, stats=stats) is None
    assert stats.fallback_reason == "unserializable specs"


def test_bad_worker_address_falls_back():
    stats = EngineStats()
    report = evaluate_corpus(_slice(2), run_stress=False, stats=stats,
                             workers=["not-an-address"])
    assert stats.fell_back
    assert "not-an-address" in stats.fallback_reason
    assert len(report.results) == 2


def _has_ipv6_loopback():
    if not socket.has_ipv6:
        return False
    try:
        with socket.socket(socket.AF_INET6) as probe:
            probe.bind(("::1", 0))
    except OSError:
        return False
    return True


@pytest.mark.skipif(not _has_ipv6_loopback(),
                    reason="host has no IPv6 loopback")
def test_worker_reached_at_bracketed_ipv6_address():
    """``repro worker --listen [::1]:0`` binds, and ``[::1]:PORT`` as
    a worker address reaches it instead of falling back locally."""
    import os
    import re
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker",
         "--listen", "[::1]:0", "--once"],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    try:
        banner = worker.stdout.readline()
        match = re.search(r":(\d+) \(pid", banner)
        assert match, banner
        stats = EngineStats()
        report = evaluate_corpus(
            _slice(1), run_stress=False, stats=stats,
            workers=["[::1]:%s" % match.group(1)])
    finally:
        worker.kill()
        worker.wait(timeout=10.0)
        worker.stdout.close()
    assert not stats.fell_back, stats.fallback_reason
    assert stats.workers == 1
    assert report.results[0].success


# -- per-worker cache accounting ---------------------------------------------


async def _run_item_on(worker, version, specs):
    """One evaluation item on ``worker``; returns its cache delta."""
    channel = await open_session(worker.host, worker.port, None,
                                 hello={"disk_cache": None})
    try:
        await channel.send({"type": protocol.ITEM, "item_id": "i0",
                            "version": version, "specs": specs,
                            "run_stress": False, "verify_undo": False})
        while True:
            message = await asyncio.wait_for(channel.recv(), 120.0)
            assert message is not None, "worker closed mid-item"
            assert message["type"] != protocol.ERROR, message["error"]
            if message["type"] == protocol.ITEM_DONE:
                return message["cache_delta"]
    finally:
        await channel.close()


def test_cache_delta_merge_across_two_workers_overlapping_keys():
    """Two workers that evaluate the *same* kernel version each pay for
    the same content keys; the merged stats must sum their deltas, not
    collapse them (satellite: overlapping-key delta merging)."""
    version = CORPUS[0].kernel_version
    same_version = [s for s in CORPUS if s.kernel_version == version][:2]
    assert len(same_version) == 2
    workers = spawn_local_workers(2)

    async def one_per_worker():
        return await asyncio.gather(*(
            _run_item_on(worker, version, [spec])
            for worker, spec in zip(workers, same_version)))

    try:
        deltas = asyncio.run(one_per_worker())
    finally:
        for worker in workers:
            worker.stop()
    merged = {}
    for delta in deltas:
        merge_stats_into(merged, delta)
    # Both workers were cold and saw no shared disk tier, so each one
    # missed the run-build key for this version once: the merged counter
    # must show both misses even though the content key is identical.
    assert deltas[0]["run-build"].misses == 1
    assert deltas[1]["run-build"].misses == 1
    assert merged["run-build"].misses == 2
    for name in merged:
        assert merged[name].hits == sum(d[name].hits for d in deltas)
        assert merged[name].misses == sum(d[name].misses for d in deltas)


def test_merge_stats_into_overlapping_names_pure():
    target = {}
    merge_stats_into(target, {"parse": CacheStats(hits=2, misses=1),
                              "compile": CacheStats(hits=1)})
    merge_stats_into(target, {"parse": CacheStats(hits=3, misses=4,
                                                  disk_hits=2)})
    assert target["parse"].hits == 5
    assert target["parse"].misses == 5
    assert target["parse"].disk_hits == 2
    assert target["compile"].hits == 1


# -- streaming progress -----------------------------------------------------


def test_distributed_progress_streams_per_cve():
    """Progress must fire per CVE as results stream in, not in one
    burst at the end: with a single worker evaluating sequentially,
    successive callbacks are separated by real evaluation time."""
    specs = _slice(4, versions=1)
    workers = spawn_local_workers(1)
    stamps = []
    try:
        evaluate_corpus(specs, run_stress=False,
                        workers=[workers[0].address],
                        progress=lambda r: stamps.append(
                            (time.perf_counter(), r.cve_id)))
    finally:
        workers[0].stop()
    assert len(stamps) == len(specs)
    assert len({cve for _, cve in stamps}) == len(specs)
    spread = stamps[-1][0] - stamps[0][0]
    # A per-group burst would deliver all callbacks within microseconds;
    # streamed delivery spreads them across the whole evaluation.
    assert spread > 0.01, "progress callbacks arrived in one burst"
