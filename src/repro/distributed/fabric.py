"""Fleet-scale update dispatch: one event loop, thousands of members.

The paper's endgame is fleet-wide rebootless updates; this module is
the dispatch layer that pushes a prepared update (the serialized k86
patch object, by CVE) to every *member* of a fleet and collects
acknowledgements, wave by wave.  :class:`RolloutDispatcher` is an
asyncio server multiplexing every member session on **one event
loop**, encrypted v3 frames, bounded per-member send queues (a slow
member parks its wave task instead of ballooning dispatcher memory).

A *member* here is the simulator in :func:`run_members_async`: it
handshakes, announces itself (``hello`` with a member id), then
acknowledges each ``update`` frame after CRC-checking the payload —
the cheapest honest stand-in for "apply the patch".  At 10k members a
single process would exhaust its fd table on the client side, so
:func:`spawn_member_shards` forks the simulated fleet into child
processes (the dispatcher process holds one fd per member; the
members' fds are spread across shards).
"""

from __future__ import annotations

import asyncio
import socket
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.distributed import aio, protocol, wire
from repro.distributed.aio import AsyncChannel
from repro.distributed.protocol import MAX_FRAME, ProtocolError

#: status byte a member puts in its ``ack`` when the payload verified
ACK_OK = 0
ACK_CORRUPT = 1


@dataclass
class DispatchReport:
    """What one dispatch run did, with the numbers that matter."""

    members: int
    waves: int
    join_wall_s: float
    dispatch_wall_s: float
    acks: int = 0
    failures: int = 0
    encrypted: bool = True

    @property
    def member_updates(self) -> int:
        return self.acks

    @property
    def updates_per_s(self) -> float:
        if self.dispatch_wall_s <= 0:
            return 0.0
        return self.acks / self.dispatch_wall_s


def make_payload(data: bytes) -> bytes:
    """An update payload: 4-byte CRC header + the patch bytes.

    Members recompute the CRC on receipt — the cheapest honest
    stand-in for "verify, then apply the patch"."""
    return (zlib.crc32(data) & 0xFFFFFFFF).to_bytes(4, "big") + data


def verify_payload(payload: bytes) -> bool:
    if len(payload) < 4:
        return False
    claimed = int.from_bytes(payload[:4], "big")
    return claimed == (zlib.crc32(payload[4:]) & 0xFFFFFFFF)


# --------------------------------------------------------------------------
# The dispatcher
# --------------------------------------------------------------------------


class RolloutDispatcher:
    """Dispatches update waves to a fleet over one asyncio event loop.

    Usage::

        dispatcher = RolloutDispatcher(expected=1000, secret=b"...")
        report = dispatcher.run(updates)   # blocks; owns asyncio.run

    ``run`` listens, waits for ``expected`` members to join, pushes
    every update to every member, and returns once all acks are in
    (or ``member_timeout`` passed without one).
    """

    def __init__(self, expected: int, secret: Optional[bytes],
                 host: str = "127.0.0.1", port: int = 0,
                 join_timeout: float = 120.0,
                 member_timeout: float = 60.0,
                 max_frame: int = MAX_FRAME,
                 send_queue: int = 16,
                 on_listen=None):
        self.expected = expected
        self.secret = secret
        self.host = host
        self.port = port
        self.join_timeout = join_timeout
        self.member_timeout = member_timeout
        self.max_frame = max_frame
        self.send_queue = send_queue
        self.on_listen = on_listen
        self._members: Dict[str, AsyncChannel] = {}
        self._joined: Optional[asyncio.Event] = None

    def run(self, updates: Sequence[Tuple[str, bytes]]) -> DispatchReport:
        return asyncio.run(self.run_async(updates))

    async def run_async(self,
                        updates: Sequence[Tuple[str, bytes]],
                        ) -> DispatchReport:
        self._joined = asyncio.Event()
        server = await asyncio.start_server(
            self._handle, self.host, self.port, backlog=4096)
        bound = server.sockets[0].getsockname()[:2]
        if self.on_listen is not None:
            self.on_listen(bound[0], bound[1])
        join_start = time.perf_counter()
        try:
            try:
                await asyncio.wait_for(self._joined.wait(),
                                       timeout=self.join_timeout)
            except asyncio.TimeoutError:
                raise ProtocolError(
                    "only %d of %d members joined within %.0fs"
                    % (len(self._members), self.expected,
                       self.join_timeout))
            join_wall = time.perf_counter() - join_start
            # Stop accepting: the fleet is complete, and a late dialer
            # must not skew the wave accounting.
            server.close()
            await server.wait_closed()

            dispatch_start = time.perf_counter()
            # Broadcast: every member gets the same update frames, so
            # encode each wave once and fan the bytes out (each
            # session still seals them under its own keys).
            frames = [wire.encode_frame(
                {"type": protocol.UPDATE, "seq": seq, "cve_id": cve_id,
                 "payload": payload})
                for seq, (cve_id, payload) in enumerate(updates,
                                                        start=1)]
            results = await asyncio.gather(
                *(self._push(member_id, channel, frames, len(updates))
                  for member_id, channel in self._members.items()))
            dispatch_wall = time.perf_counter() - dispatch_start
            acks = sum(r for r in results)
            expected_acks = len(self._members) * len(updates)
            return DispatchReport(
                members=len(self._members),
                waves=len(updates), join_wall_s=join_wall,
                dispatch_wall_s=dispatch_wall, acks=acks,
                failures=expected_acks - acks,
                encrypted=all(c.encrypted
                              for c in self._members.values()))
        finally:
            server.close()
            await asyncio.gather(
                *(self._farewell(c) for c in self._members.values()),
                return_exceptions=True)
            self._members.clear()

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Register one member; wave traffic happens in `_push`."""
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            channel = await aio.accept_channel(
                reader, writer, self.secret, max_frame=self.max_frame,
                send_queue=self.send_queue)
            hello = await asyncio.wait_for(channel.recv(), timeout=30.0)
        except (ProtocolError, ConnectionError, OSError,
                asyncio.TimeoutError):
            try:
                writer.close()
            except OSError:
                pass
            return
        if hello is None or hello.get("type") != protocol.HELLO \
                or hello.get("version") != protocol.PROTOCOL_VERSION:
            await channel.close()
            return
        member_id = str(hello.get("member_id", ""))
        if not member_id or member_id in self._members \
                or len(self._members) >= self.expected:
            await channel.close()
            return
        self._members[member_id] = channel
        try:
            await channel.send({"type": protocol.READY,
                                "version": protocol.PROTOCOL_VERSION})
        except (ConnectionError, ProtocolError, OSError):
            self._members.pop(member_id, None)
            await channel.close()
            return
        if len(self._members) >= self.expected:
            assert self._joined is not None
            self._joined.set()

    async def _push(self, member_id: str, channel: AsyncChannel,
                    frames: List[bytes], waves: int) -> int:
        """Stream every wave to one member, then collect the acks.

        The waves are *pipelined*: all updates go into the member's
        bounded send queue up front (parking if the member reads
        slowly — that is the backpressure).  Acks are counted by a
        reader-side hook rather than a recv loop: at 10k members the
        per-ack queue hop and consumer wakeup are the dispatcher's
        hottest non-crypto cost, and the hook removes both.  One
        timeout budget covers the whole conversation.
        """
        acks = [0]
        want = set(range(1, waves + 1))
        done = asyncio.get_running_loop().create_future()

        async def on_acks(messages: List[Dict[str, Any]]) -> None:
            for message in messages:
                if message.get("type") == protocol.ACK \
                        and message.get("seq") in want:
                    want.discard(message.get("seq"))
                    if message.get("status") == ACK_OK:
                        acks[0] += 1
            if not want and not done.done():
                done.set_result(None)

        def on_end(_error) -> None:
            if not done.done():
                done.set_result(None)

        await channel.install_hook(on_acks, on_end)

        async def converse() -> None:
            await channel.send_frames(frames)
            await done

        # wait_for, not 3.11+'s asyncio.timeout(): requires-python is
        # 3.9 and this is the one timeout on the rollout hot path.
        try:
            await asyncio.wait_for(converse(), self.member_timeout)
        except (ConnectionError, ProtocolError, OSError,
                asyncio.TimeoutError):
            pass
        return acks[0]

    async def _farewell(self, channel: AsyncChannel) -> None:
        try:
            await channel.send({"type": protocol.SHUTDOWN})
        except (ConnectionError, ProtocolError, OSError):
            pass
        await channel.close()


# --------------------------------------------------------------------------
# The member simulator
# --------------------------------------------------------------------------


async def _run_member(host: str, port: int, member_id: str,
                      secret: Optional[bytes],
                      connect_timeout: float = 60.0) -> int:
    """One fleet member: join, ack every update, leave on shutdown.

    Returns the number of updates applied.  Connection attempts retry
    briefly — at fleet scale the dispatcher's accept queue can lag the
    thundering herd of joiners.
    """
    deadline = time.monotonic() + connect_timeout
    attempt = 0
    while True:
        try:
            channel = await aio.open_session(
                host, port, secret, hello={"member_id": member_id},
                connect_timeout=10.0, ready_timeout=120.0)
            break
        except ProtocolError:
            return 0  # turned away: a duplicate id or a full fleet
        except (ConnectionError, OSError, asyncio.TimeoutError):
            attempt += 1
            if time.monotonic() > deadline:
                raise
            await asyncio.sleep(min(0.05 * attempt, 0.5))
    applied = [0]
    done = asyncio.get_running_loop().create_future()

    async def on_messages(messages: List[Dict[str, Any]]) -> None:
        acks = []
        for message in messages:
            kind = message.get("type")
            if kind == protocol.UPDATE:
                payload = message.get("payload") or b""
                status = ACK_OK if verify_payload(payload) \
                    else ACK_CORRUPT
                acks.append({"type": protocol.ACK,
                             "seq": message.get("seq"),
                             "status": status,
                             "member_id": member_id})
                applied[0] += 1
            elif kind == protocol.SHUTDOWN:
                if not done.done():
                    done.set_result(None)
        if acks:
            # Awaiting the send here parks the reader when the ack
            # queue is full — backpressure all the way to TCP.
            await channel.send_batch(acks)

    def on_end(_error) -> None:
        if not done.done():
            done.set_result(None)

    try:
        await channel.install_hook(on_messages, on_end)
        await done
        return applied[0]
    except (ConnectionError, ProtocolError, OSError,
            asyncio.TimeoutError):
        return applied[0]
    finally:
        await channel.close()


async def run_members_async(host: str, port: int, count: int,
                            secret: Optional[bytes],
                            prefix: str = "m") -> int:
    """Run ``count`` member simulators on the current event loop."""
    results = await asyncio.gather(
        *(_run_member(host, port, "%s%d" % (prefix, index), secret)
          for index in range(count)),
        return_exceptions=True)
    return sum(r for r in results if isinstance(r, int))


def run_members(host: str, port: int, count: int,
                secret: Optional[bytes], prefix: str = "m") -> int:
    return asyncio.run(run_members_async(host, port, count, secret,
                                         prefix=prefix))


def _member_shard_child(host: str, port: int, count: int,
                        secret: Optional[bytes], prefix: str) -> None:
    # The simulators churn short-lived dicts/bytes at wire rate and
    # hold no cycles; generational GC passes are pure overhead here.
    import gc
    gc.disable()
    run_members(host, port, count, secret, prefix=prefix)


@dataclass
class MemberShards:
    """Handle on the forked member fleet."""

    processes: List[Any] = field(default_factory=list)

    def join(self, timeout: float = 300.0) -> None:
        deadline = time.monotonic() + timeout
        for process in self.processes:
            process.join(timeout=max(0.1, deadline - time.monotonic()))

    def stop(self) -> None:
        for process in self.processes:
            if process.is_alive():
                process.terminate()
            process.join(timeout=10.0)


def spawn_member_shards(host: str, port: int, total: int,
                        secret: Optional[bytes],
                        shard_size: int = 1000) -> MemberShards:
    """Fork the simulated fleet into child processes.

    The dispatcher process spends one fd per member; the member side
    spends another — sharding the members across children keeps each
    process comfortably under the fd rlimit at 10k-member scale.
    """
    import multiprocessing

    shards = MemberShards()
    start = 0
    index = 0
    while start < total:
        count = min(shard_size, total - start)
        process = multiprocessing.Process(
            target=_member_shard_child,
            args=(host, port, count, secret, "s%d-" % index),
            daemon=True)
        process.start()
        shards.processes.append(process)
        start += count
        index += 1
    return shards
