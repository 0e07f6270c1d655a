"""Protocol v3 vocabulary: frame types, errors, record batching.

The transport lives in :mod:`.aio` (:class:`~.aio.AsyncChannel`, the
handshake and the session opener); this module holds what both ends
of a session agree on, whoever drives them.

Wire stack, bottom up:

1. **Handshake** (cleartext, tightly bounded raw frames): the worker
   banners ``KSP3`` + mode; both sides run the
   :mod:`~repro.distributed.crypto` state machine — mutual HMAC proof
   + secret-derived keys when a shared secret is configured, anonymous
   DH otherwise.  A peer that fails is dropped before one data frame
   is parsed.  v2 peers (pickle fabric) are rejected with an explicit
   version-mismatch message on both sides.
2. **Records**: ``!I`` length prefix + ciphertext + 16-byte tag.  A
   record's plaintext is a *batch*: one or more ``!I``-length-prefixed
   frames sealed together (:func:`pack_batch`/:func:`split_batch`), so
   a pipelined burst pays one keystream and one MAC instead of one per
   frame (the same trick TLS records play).  Every record — all frame
   types, both directions — is encrypted and authenticated with the
   session keys; per-record sequence numbers prevent replay and
   reordering.  ``max_frame`` bounds **every** frame: a peer claiming
   an oversized record or smuggling an oversized frame inside one
   raises :class:`ProtocolError` and is dropped before the payload is
   interpreted.
3. **Frames**: the compact binary encoding in
   :mod:`~repro.distributed.wire` — struct-packed headers, kpack
   bodies, a closed class registry.  No network byte ever reaches
   ``pickle.loads``.
"""

from __future__ import annotations

import os
import struct
from typing import Any, Optional, Tuple

from repro.distributed import wire
from repro.distributed.wire import WireError
from repro.errors import ReproError

#: bump when the message vocabulary changes incompatibly
#: (3: binary kpack frames, encrypted sessions; 2: authenticated
#: handshake before pickled frames)
PROTOCOL_VERSION = 3

#: default per-record byte bound (64 MiB); every frame on a session is
#: checked against the session's limit, not just handshake frames
MAX_FRAME = 64 * 1024 * 1024

#: record length prefix; also the per-frame prefix inside a batch
_RECORD_HEADER = struct.Struct("!I")

#: most frames a writer coalesces into one sealed record
BATCH_FRAMES = 256

#: slack the record-length check allows beyond ``max_frame``: batch
#: frame prefixes (4 * BATCH_FRAMES) plus the auth tag, rounded up
_RECORD_SLACK = 2048


def pack_batch(frames) -> bytes:
    """Concatenate frames into one record plaintext (length-prefixed)."""
    return b"".join(_RECORD_HEADER.pack(len(frame)) + frame
                    for frame in frames)


def split_batch(blob: bytes, max_frame: int) -> list:
    """Record plaintext -> frames, validating every length."""
    frames = []
    pos = 0
    end = len(blob)
    if end == 0:
        raise ProtocolError("empty record")
    while pos < end:
        if end - pos < _RECORD_HEADER.size:
            raise ProtocolError("truncated frame prefix in record")
        (length,) = _RECORD_HEADER.unpack_from(blob, pos)
        pos += _RECORD_HEADER.size
        if length > max_frame:
            raise ProtocolError(
                "frame of %d bytes inside a record exceeds the "
                "session max_frame (%d); dropping the peer"
                % (length, max_frame))
        if end - pos < length:
            raise ProtocolError("truncated frame in record")
        frames.append(blob[pos:pos + length])
        pos += length
    return frames

# re-exported frame-type names (the wire vocabulary)
HELLO = wire.HELLO
READY = wire.READY
ITEM = wire.ITEM
RESULT = wire.RESULT
ITEM_DONE = wire.ITEM_DONE
ERROR = wire.ERROR
PING = wire.PING
PONG = wire.PONG
SHUTDOWN = wire.SHUTDOWN
UPDATE = wire.UPDATE
ACK = wire.ACK


class ProtocolError(ReproError):
    """A malformed, oversized, or version-incompatible frame."""


class AuthError(ProtocolError):
    """The peer failed (or refused) the v3 handshake."""


#: environment variable holding the fabric's shared secret
SECRET_ENV = "KSPLICE_WORKER_SECRET"


def default_secret() -> Optional[bytes]:
    """The fabric secret from ``KSPLICE_WORKER_SECRET``, if set."""
    value = os.environ.get(SECRET_ENV)
    if not value:
        return None
    return value.encode("utf-8")


def parse_address(address: str, allow_zero: bool = False) -> tuple:
    """``"host:port"`` or ``"[v6addr]:port"`` -> ``(host, port)``.

    ``allow_zero`` admits port 0 — valid for a *listening* worker
    (bind an ephemeral port), never for a coordinator connecting out.
    """
    host, sep, port_text = address.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]  # bracketed IPv6 literal: "[::1]:80"
    if not sep or not host:
        raise ProtocolError("worker address %r is not host:port" % address)
    try:
        port = int(port_text)
    except ValueError:
        raise ProtocolError("worker address %r has a non-numeric port"
                            % address)
    if not (0 if allow_zero else 1) <= port < 65536:
        raise ProtocolError("worker address %r port out of range" % address)
    return host, port


def encodable(value: Any) -> Tuple[bool, str]:
    """Can ``value`` cross the v3 wire?  ``(ok, reason)``."""
    try:
        wire.kpack(value)
        return True, ""
    except WireError as exc:
        return False, str(exc)
