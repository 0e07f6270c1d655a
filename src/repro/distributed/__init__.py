"""Distributed evaluation fabric: the §6 corpus run beyond one host.

The local evaluation engine (:mod:`repro.evaluation.engine`) already
fans kernel-version groups over a ``ProcessPoolExecutor``; this package
extends the same design over TCP so throughput scales with *workers*,
not with one machine's cores:

* :mod:`~repro.distributed.wire` — protocol v3's compact binary
  codec: struct-packed, length-prefixed, versioned frames over a
  closed class registry (``pickle`` is gone from the data plane);
* :mod:`~repro.distributed.crypto` — the mutual handshake (HMAC
  challenge/response with a shared secret, anonymous DH without one),
  per-session key derivation, and the frame cipher that encrypts
  every post-handshake record;
* :mod:`~repro.distributed.protocol` — the wire vocabulary, its
  errors, record batching and address parsing;
* :mod:`~repro.distributed.aio` — the one transport: an asyncio event
  loop multiplexing a process's peers, bounded per-peer send queues
  for backpressure, batch-sealed records, and :func:`open_session`,
  the HELLO/READY opener every client session goes through
  (the coordinator and remote fleet rollouts);
* :mod:`~repro.distributed.worker` — the ``repro worker`` serve loop:
  evaluates items in executor threads (heartbeats are answered while
  an item runs), streams each ``CveResult`` as it finishes, and can
  be spawned on localhost for tests;
* :mod:`~repro.distributed.coordinator` — the scheduler: per-version
  lead items that warm the run-build cache, then per-CVE work-stealing
  for the tails, heartbeats, bounded retry, reconnects with
  exponential backoff and jitter, and local rescue of anything the
  fleet cannot finish.

Entry points: ``evaluate_corpus(workers=[...])`` /
``repro evaluate --workers`` on the coordinator side and
``repro worker --listen`` on the worker side.  Workers started with a
shared secret (``--secret`` / ``KSPLICE_WORKER_SECRET``) authenticate
peers with an HMAC challenge/response before deserializing anything;
without one the session still key-exchanges (unauthenticated DH) so
every data frame is encrypted either way.  ``--item-timeout`` bounds
each item's wall clock so one wedged CVE cannot hang a session, and
``--max-frame-mb`` bounds frame sizes (an oversize frame drops the
peer).
"""

from repro.distributed.aio import (
    AsyncChannel,
    accept_channel,
    connect_channel,
    open_session,
)
from repro.distributed.coordinator import Coordinator, WorkItem
from repro.distributed.protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    SECRET_ENV,
    AuthError,
    ProtocolError,
    default_secret,
    parse_address,
)
from repro.distributed.worker import (
    LocalWorker,
    serve,
    spawn_local_workers,
)

__all__ = [
    "AsyncChannel",
    "AuthError",
    "Coordinator",
    "LocalWorker",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SECRET_ENV",
    "WorkItem",
    "accept_channel",
    "connect_channel",
    "default_secret",
    "open_session",
    "parse_address",
    "serve",
    "spawn_local_workers",
]
