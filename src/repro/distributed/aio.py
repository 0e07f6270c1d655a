"""The asyncio transport: one event loop, thousands of peers.

v2 spent one OS thread per connection on both ends of the fabric —
fine for four workers, a wall at fleet scale (10k members × ~8 MiB of
stack + scheduler thrash).  v3 multiplexes every peer on one event
loop through :class:`AsyncChannel`, which pairs a **reader task**
(decodes records into a bounded receive queue) with a **writer task**
(drains a bounded send queue through ``drain()``):

* the reader-task design makes ``recv()`` *cancellation-safe* — a
  heartbeat ``wait_for`` timeout never strands half a record, because
  the reader task itself is never cancelled mid-read;
* the bounded send queue is the fabric's **backpressure**: a slow
  consumer parks its producers (``await send(...)`` blocks when the
  queue is full) instead of ballooning coordinator memory with queued
  frames.  Blocking worker threads push into the same queue through
  :meth:`AsyncChannel.send_threadsafe`, so an evaluation thread
  streaming results feels the same backpressure the loop does.

This is the fabric's only transport.  :func:`accept_channel` and
:func:`connect_channel` run the v3 handshake; :func:`open_session`
adds the session's HELLO/READY exchange on top, and is how every
client — the evaluation coordinator, a remote fleet rollout, a
simulated fleet member — opens a session.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Dict, Optional

from repro.distributed import protocol, wire
from repro.distributed.crypto import (
    MAX_HANDSHAKE_FRAME,
    CipherPair,
    ClientHandshake,
    FrameAuthError,
    HandshakeError,
    ServerHandshake,
)
from repro.distributed.protocol import (
    _RECORD_HEADER,
    _RECORD_SLACK,
    BATCH_FRAMES,
    MAX_FRAME,
    AuthError,
    ProtocolError,
    pack_batch,
    split_batch,
)
from repro.distributed.wire import WireError

#: default bound for both per-peer queues (records, not bytes)
SEND_QUEUE_SIZE = 64
RECV_QUEUE_SIZE = 256


async def _send_raw(writer: asyncio.StreamWriter, payload: bytes) -> None:
    writer.write(_RECORD_HEADER.pack(len(payload)) + payload)
    await writer.drain()


async def _recv_raw(reader: asyncio.StreamReader) -> bytes:
    header = await reader.readexactly(_RECORD_HEADER.size)
    (length,) = _RECORD_HEADER.unpack(header)
    if length > MAX_HANDSHAKE_FRAME:
        raise AuthError("pre-auth frame claims %d bytes (max %d)"
                        % (length, MAX_HANDSHAKE_FRAME))
    if length == 0:
        return b""
    return await reader.readexactly(length)


class AsyncChannel:
    """One established v3 session on the event loop."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 ciphers: Optional[CipherPair],
                 max_frame: int = MAX_FRAME,
                 send_queue: int = SEND_QUEUE_SIZE):
        self._reader = reader
        self._writer = writer
        self._ciphers = ciphers
        self.max_frame = max_frame
        self._loop = asyncio.get_running_loop()
        self._rx: "asyncio.Queue[Optional[Dict[str, Any]]]" = \
            asyncio.Queue(RECV_QUEUE_SIZE)
        self._tx: "asyncio.Queue[Optional[bytes]]" = \
            asyncio.Queue(send_queue)
        self._rx_error: Optional[BaseException] = None
        self._tx_error: Optional[BaseException] = None
        self._hook = None
        self._hook_end = None
        self._closed = False
        self._reader_task = self._loop.create_task(self._read_loop())
        self._writer_task = self._loop.create_task(self._write_loop())

    @property
    def encrypted(self) -> bool:
        return self._ciphers is not None

    @property
    def authenticated(self) -> bool:
        return self._ciphers is not None and self._ciphers.authenticated

    # -- reading ------------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                try:
                    header = await self._reader.readexactly(
                        _RECORD_HEADER.size)
                except asyncio.IncompleteReadError as exc:
                    if exc.partial:
                        raise ConnectionError("peer closed mid-frame")
                    break  # clean EOF
                (length,) = _RECORD_HEADER.unpack(header)
                if length > self.max_frame + _RECORD_SLACK:
                    raise ProtocolError(
                        "incoming record claims %d bytes (session "
                        "max_frame is %d); dropping the peer"
                        % (length, self.max_frame))
                try:
                    record = await self._reader.readexactly(length) \
                        if length else b""
                except asyncio.IncompleteReadError:
                    raise ConnectionError("peer closed mid-frame")
                try:
                    blob = record if self._ciphers is None \
                        else self._ciphers.rx.open(record)
                except FrameAuthError as exc:
                    raise ProtocolError(str(exc))
                frames = split_batch(blob, self.max_frame)
                try:
                    messages = [wire.decode_frame(f) for f in frames]
                except WireError as exc:
                    raise ProtocolError(str(exc))
                if self._hook is not None:
                    await self._hook(messages)
                else:
                    for message in messages:
                        await self._rx.put(message)
        except asyncio.CancelledError:
            raise
        except (ConnectionError, ProtocolError, OSError) as exc:
            self._rx_error = exc
        if self._hook_end is not None:
            self._hook_end(self._rx_error)
        else:
            await self._rx.put(None)

    async def recv(self) -> Optional[Dict[str, Any]]:
        """One message; ``None`` on clean EOF; raises the connection's
        terminal error once the queue has drained."""
        message = await self._rx.get()
        if message is None:
            if self._rx_error is not None:
                raise self._rx_error  # noqa: raise-from — original error
            return None
        return message

    async def install_hook(self, on_messages, on_end) -> None:
        """Divert incoming messages to an async callback (hot path).

        ``on_messages(batch)`` is awaited by the reader task with the
        full list of messages decoded from each record — no
        receive-queue hop, no consumer-task wakeup, and an
        ``await channel.send(...)`` inside the callback backpressures
        the *peer* naturally (the reader stops reading while parked).
        ``on_end(error_or_none)`` fires once at EOF or failure.  After
        installation :meth:`recv` must not be used.  Install only while
        the peer is quiescent (e.g. right after a request/response
        exchange); anything already queued is replayed into the
        callback first.
        """
        self._hook = on_messages
        self._hook_end = on_end
        replay = []
        while True:
            try:
                queued = self._rx.get_nowait()
            except asyncio.QueueEmpty:
                break
            if queued is None:
                if replay:
                    await on_messages(replay)
                on_end(self._rx_error)
                return
            replay.append(queued)
        if replay:
            await on_messages(replay)

    # -- writing ------------------------------------------------------------

    async def _write_loop(self) -> None:
        try:
            while True:
                item = await self._tx.get()
                if item is None:
                    return
                # Coalesce everything already queued into sealed
                # records — a pipelined burst of frames costs one
                # keystream + MAC and one syscall per record, not one
                # per frame.  A queue item is one frame (bytes) or a
                # pre-encoded burst (list of frames).
                pending = list(item) if isinstance(item, list) \
                    else [item]
                done = False
                while not done:
                    try:
                        item = self._tx.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if item is None:
                        done = True
                    elif isinstance(item, list):
                        pending.extend(item)
                    else:
                        pending.append(item)
                frames, total = [], 0
                for frame in pending:
                    if frames and (total + len(frame) > self.max_frame
                                   or len(frames) >= BATCH_FRAMES):
                        self._write_record(frames)
                        frames, total = [], 0
                    frames.append(frame)
                    total += len(frame)
                if frames:
                    self._write_record(frames)
                await self._writer.drain()
                if done:
                    return
        except (ConnectionError, OSError) as exc:
            self._tx_error = exc
            # drain producers so senders see the error, not a hang
            while True:
                if await self._tx.get() is None:
                    return
        except asyncio.CancelledError:
            raise

    def _write_record(self, frames) -> None:
        plain = pack_batch(frames)
        record = plain if self._ciphers is None \
            else self._ciphers.tx.seal(plain)
        self._writer.write(_RECORD_HEADER.pack(len(record)) + record)

    def _encode(self, message: Dict[str, Any]) -> bytes:
        try:
            frame = wire.encode_frame(message)
        except WireError as exc:
            raise ProtocolError(str(exc))
        if len(frame) > self.max_frame:
            raise ProtocolError("frame of %d bytes exceeds the session "
                                "max_frame (%d)"
                                % (len(frame), self.max_frame))
        return frame

    async def send(self, message: Dict[str, Any]) -> None:
        """Queue one message; parks when the peer's queue is full."""
        if self._tx_error is not None:
            raise ConnectionError("send on a dead channel: %s"
                                  % self._tx_error)
        await self._tx.put(self._encode(message))

    async def send_batch(self, messages) -> None:
        """Queue a pipelined burst as one item (one writer wakeup).

        The burst occupies a single send-queue slot, so callers should
        keep bursts modest (a rollout's wave list, a result stream) —
        backpressure granularity is the burst, not the frame.
        """
        if self._tx_error is not None:
            raise ConnectionError("send on a dead channel: %s"
                                  % self._tx_error)
        frames = [self._encode(m) for m in messages]
        if frames:
            await self._tx.put(frames)

    async def send_frames(self, frames) -> None:
        """Queue already-encoded frames (broadcast hot path).

        A dispatcher pushing the same update to 10k members encodes it
        once with :func:`~repro.distributed.wire.encode_frame` and
        fans the bytes out; each channel still seals them under its
        own session keys.  Frames must individually fit ``max_frame``.
        """
        if self._tx_error is not None:
            raise ConnectionError("send on a dead channel: %s"
                                  % self._tx_error)
        for frame in frames:
            if len(frame) > self.max_frame:
                raise ProtocolError(
                    "frame of %d bytes exceeds the session max_frame "
                    "(%d)" % (len(frame), self.max_frame))
        if frames:
            await self._tx.put(list(frames))

    def send_threadsafe(self, message: Dict[str, Any],
                        timeout: float = 60.0) -> None:
        """Send from a worker thread (blocking, backpressured)."""
        future = asyncio.run_coroutine_threadsafe(self.send(message),
                                                  self._loop)
        future.result(timeout)

    # -- lifecycle ----------------------------------------------------------

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            await asyncio.wait_for(self._tx.put(None), timeout=5.0)
            await asyncio.wait_for(self._writer_task, timeout=5.0)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def accept_channel(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter,
                         secret: Optional[bytes],
                         max_frame: int = MAX_FRAME,
                         send_queue: int = SEND_QUEUE_SIZE,
                         ) -> AsyncChannel:
    """Server side of the v3 handshake on the event loop.

    Anonymous-mode DH runs in the default executor so a burst of
    connecting peers cannot stall the loop on modexp; secret-mode
    handshakes are a few HMACs and run inline.
    """
    loop = asyncio.get_running_loop()
    sock = writer.get_extra_info("socket")
    if sock is not None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        if secret:
            handshake = ServerHandshake(secret)
            await _send_raw(writer, handshake.banner())
            confirm = handshake.verify(await _recv_raw(reader))
        else:
            handshake = await loop.run_in_executor(None, ServerHandshake,
                                                   secret)
            await _send_raw(writer, handshake.banner())
            response = await _recv_raw(reader)
            confirm = await loop.run_in_executor(None, handshake.verify,
                                                 response)
        await _send_raw(writer, confirm)
    except HandshakeError as exc:
        raise AuthError(str(exc))
    except asyncio.IncompleteReadError:
        raise AuthError("peer closed during the handshake")
    return AsyncChannel(reader, writer, handshake.ciphers(),
                        max_frame=max_frame, send_queue=send_queue)


async def connect_channel(host: str, port: int,
                          secret: Optional[bytes],
                          max_frame: int = MAX_FRAME,
                          connect_timeout: float = 5.0,
                          send_queue: int = SEND_QUEUE_SIZE,
                          ) -> AsyncChannel:
    """Connect + client side of the v3 handshake on the event loop."""
    loop = asyncio.get_running_loop()
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout=connect_timeout)
    sock = writer.get_extra_info("socket")
    if sock is not None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        handshake = ClientHandshake(secret)
        banner = await asyncio.wait_for(_recv_raw(reader),
                                        timeout=connect_timeout)
        if secret:
            response = handshake.respond(banner)
        else:
            response = await loop.run_in_executor(None,
                                                  handshake.respond,
                                                  banner)
        await _send_raw(writer, response)
        try:
            confirm = await asyncio.wait_for(_recv_raw(reader),
                                             timeout=connect_timeout)
        except asyncio.IncompleteReadError:
            raise AuthError("worker rejected the handshake "
                            "(connection closed)")
        handshake.verify(confirm)
    except (HandshakeError, asyncio.TimeoutError) as exc:
        writer.close()
        if isinstance(exc, asyncio.TimeoutError):
            raise ConnectionError("handshake timed out")
        raise AuthError(str(exc))
    except (AuthError, ConnectionError, OSError,
            asyncio.IncompleteReadError) as exc:
        writer.close()
        if isinstance(exc, asyncio.IncompleteReadError):
            raise AuthError("worker closed during the handshake")
        raise
    ciphers = handshake.ciphers()
    if secret is not None and not ciphers.authenticated:
        # Unreachable while ClientHandshake refuses downgrades, but a
        # secret-configured client must never ship work over an
        # unauthenticated session regardless of handshake internals.
        writer.close()
        raise AuthError("handshake completed without authentication "
                        "despite a configured secret")
    return AsyncChannel(reader, writer, ciphers,
                        max_frame=max_frame, send_queue=send_queue)


async def open_session(host: str, port: int, secret: Optional[bytes],
                       hello: Optional[Dict[str, Any]] = None,
                       max_frame: int = MAX_FRAME,
                       connect_timeout: float = 5.0,
                       ready_timeout: Optional[float] = None,
                       ) -> AsyncChannel:
    """Connect, handshake, then open the session: HELLO, await READY.

    ``hello`` adds fields to the HELLO frame (a coordinator's disk-cache
    config, a fleet member's id).  ``ready_timeout`` bounds the wait
    for the peer's answer (``None`` waits for it or for EOF).  A peer
    that answers with anything but READY — a worker refusing our
    protocol version, a dispatcher turning away a duplicate member —
    raises :class:`ProtocolError` carrying the peer's reason.
    """
    channel = await connect_channel(host, port, secret,
                                    max_frame=max_frame,
                                    connect_timeout=connect_timeout)
    try:
        await channel.send(dict(hello or {}, type=protocol.HELLO,
                                version=protocol.PROTOCOL_VERSION))
        ready = await asyncio.wait_for(channel.recv(), ready_timeout)
    except BaseException:
        await channel.close()
        raise
    if ready is None or ready.get("type") != protocol.READY:
        await channel.close()
        raise ProtocolError(
            "peer %s:%d rejected the session: %r"
            % (host, port,
               (ready or {}).get("error", "connection closed")))
    return channel
