"""The fleet-rollout fabric: the asyncio dispatcher, small fleets.

The scale numbers live in ``benchmarks/bench_fabric_scale.py``; these
tests pin the *behavioral* contract at CI-friendly sizes: every ack
collected, encrypted sessions, and honest failure accounting when
members misbehave.
"""

import asyncio
import threading

import pytest

from repro.distributed.fabric import (
    ACK_CORRUPT,
    ACK_OK,
    DispatchReport,
    RolloutDispatcher,
    make_payload,
    run_members,
    verify_payload,
)
from repro.distributed.protocol import ProtocolError

SECRET = b"scale-test-secret"


def _updates(waves, payload=b"patch-bytes"):
    return [("CVE-2026-%04d" % i, make_payload(payload))
            for i in range(waves)]


def _member_thread(members):
    holder = {}

    def on_listen(host, port):
        thread = threading.Thread(
            target=run_members, args=(host, port, members, SECRET),
            daemon=True)
        thread.start()
        holder["thread"] = thread

    return holder, on_listen


def test_rollout_collects_every_ack():
    members, waves = 12, 3
    holder, on_listen = _member_thread(members)
    dispatcher = RolloutDispatcher(expected=members, secret=SECRET,
                                   join_timeout=60.0, on_listen=on_listen)
    report = dispatcher.run(_updates(waves))
    holder["thread"].join(timeout=30.0)
    assert isinstance(report, DispatchReport)
    assert report.members == members
    assert report.acks == members * waves
    assert report.failures == 0
    assert report.encrypted
    assert report.updates_per_s > 0


def test_corrupt_payload_is_not_acked_ok():
    """A payload whose CRC does not verify must be counted as a
    failure, not an ack."""
    members, waves = 4, 2
    bad = b"\x00\x00\x00\x00corrupt"  # CRC of b"corrupt" is not 0
    assert not verify_payload(bad)
    updates = [("CVE-2026-0000", make_payload(b"fine")),
               ("CVE-2026-0001", bad)]
    assert len(updates) == waves
    holder, on_listen = _member_thread(members)
    dispatcher = RolloutDispatcher(expected=members, secret=SECRET,
                                   join_timeout=60.0, member_timeout=15.0,
                                   on_listen=on_listen)
    report = dispatcher.run(updates)
    holder["thread"].join(timeout=30.0)
    assert report.acks == members  # only the intact wave
    assert report.failures == members


def test_join_timeout_is_a_protocol_error():
    dispatcher = RolloutDispatcher(expected=3, secret=SECRET,
                                   join_timeout=0.5)
    with pytest.raises(ProtocolError, match="joined within"):
        dispatcher.run(_updates(1))


def test_payload_crc_helpers():
    payload = make_payload(b"some patch")
    assert verify_payload(payload)
    assert not verify_payload(payload[:-1] + b"\x00")
    assert not verify_payload(b"abc")
    assert ACK_OK != ACK_CORRUPT


def test_async_channel_backpressure_bounds_queue():
    """A producer outrunning a stalled peer parks on the bounded send
    queue instead of buffering unboundedly."""
    from repro.distributed import aio

    async def scenario():
        server_ready = asyncio.Event()
        port_holder = {}
        parked = {"count": 0}

        async def handle(reader, writer):
            channel = await aio.accept_channel(reader, writer, SECRET,
                                               send_queue=2)
            port_holder["server_channel"] = channel
            server_ready.set()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        client = await aio.connect_channel(host, port, SECRET,
                                           send_queue=2)
        await server_ready.wait()
        # The client never reads; the server's writer drains into the
        # socket until TCP buffers fill, then its queue (bound 2)
        # fills, then send() parks.  Pushing a big payload many times
        # must eventually time out rather than buffer forever.
        big = {"type": "item", "blob": b"x" * 1_000_000}
        sender = port_holder["server_channel"]

        async def flood():
            while True:
                await sender.send(big)
                parked["count"] += 1

        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(flood(), 2.0)
        assert parked["count"] < 200  # bounded, not unbounded buffering
        await client.close()
        await sender.close()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())
