"""Property tests for the protocol v3 binary codec and session crypto.

Hypothesis drives three invariants the fabric depends on:

* **round-trip identity** — any encodable message comes back equal
  through ``encode_frame``/``decode_frame`` (and any kpack-able value
  through ``kpack``/``kunpack``);
* **no raw decode errors** — truncated, corrupted, or hostile bytes
  raise :class:`WireError` / :class:`ProtocolError`, never a raw
  ``struct.error`` / ``UnicodeDecodeError`` / ``IndexError`` that
  would leak codec internals into the fabric's error handling;
* **version fencing** — a peer speaking protocol v2 (or any other
  version) is rejected with an explicit upgrade message, at the frame
  layer and at the handshake banner.
"""

import struct

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis ships in the image
    pytest.skip("hypothesis unavailable", allow_module_level=True)

from repro.distributed import protocol, wire
from repro.distributed.crypto import (
    FrameAuthError,
    SessionKeys,
)
from repro.distributed.protocol import ProtocolError
from repro.distributed.wire import WireError

# -- strategies --------------------------------------------------------------

# Text that survives a round trip must be valid UTF-8 (no lone
# surrogates) — exactly what the fabric ships.
_text = st.text(alphabet=st.characters(codec="utf-8"), max_size=40)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=False),
    _text,
    st.binary(max_size=200),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_text, children, max_size=4),
        st.sets(st.integers(min_value=-1000, max_value=1000),
                max_size=4),
    ),
    max_leaves=20,
)

_messages = st.fixed_dictionaries(
    {"type": st.sampled_from(["hello", "ready", "item", "error",
                              "shutdown"])},
    optional={
        "item_id": st.integers(min_value=0, max_value=2 ** 31),
        "blob": st.binary(max_size=200),
        "nested": _values,
    },
)


# -- round-trip identity -----------------------------------------------------


@given(_values)
@settings(max_examples=200)
def test_kpack_roundtrip_identity(value):
    assert wire.kunpack(wire.kpack(value)) == value


@given(_messages)
@settings(max_examples=200)
def test_frame_roundtrip_identity(message):
    assert wire.decode_frame(wire.encode_frame(message)) == message


# Bodies that type codes 10 and 11 ("update"/"ack") carried before
# they were retired: well-formed under the old codecs, so only the
# retired code itself can be what rejects them.
_RETIRED = (
    (10, "update", struct.pack("!Q", 7) + b"\x0dCVE-2006-2451\x03abc"),
    (11, "ack", struct.pack("!QB", 7, 0) + b"\x02m1"),
)


def test_retired_frame_types_are_rejected():
    """Type codes 10 and 11 are retired: no side encodes them, decoding
    one is a WireError, and a session peer sending one is dropped."""
    import asyncio

    from repro.distributed import aio

    async def scenario(frame):
        accepted = asyncio.get_running_loop().create_future()

        async def handle(reader, writer):
            accepted.set_result(
                await aio.accept_channel(reader, writer, b"retired"))

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        sender = await aio.connect_channel(host, port, b"retired")
        receiver = await asyncio.wait_for(accepted, 10.0)
        try:
            # seal the raw frame as a well-authenticated record: the
            # receiver must reject it on the type code alone
            sender._write_record([frame])
            with pytest.raises(ProtocolError,
                               match="unknown frame type code"):
                await asyncio.wait_for(receiver.recv(), 10.0)
        finally:
            await sender.close()
            await receiver.close()
            server.close()
            await server.wait_closed()

    for code, name, body in _RETIRED:
        frame = wire.FRAME_HEADER.pack(wire.WIRE_VERSION, code, 0,
                                       len(body)) + body
        with pytest.raises(WireError,
                           match="unknown frame type code %d" % code):
            wire.decode_frame(frame)
        with pytest.raises(WireError, match="unknown frame type"):
            wire.encode_frame({"type": name, "seq": 7})
        asyncio.run(scenario(frame))


def test_registered_object_roundtrip():
    from repro.evaluation import CORPUS

    spec = CORPUS[0]
    back = wire.kunpack(wire.kpack(spec))
    assert type(back) is type(spec)
    assert back == spec


# -- hostile bytes never leak raw errors -------------------------------------

_RAW_ERRORS = (struct.error, UnicodeDecodeError, IndexError, KeyError,
               ValueError, MemoryError, OverflowError)


@given(_messages, st.integers(min_value=0, max_value=400))
@settings(max_examples=200)
def test_truncated_frame_is_wire_error(message, cut):
    frame = wire.encode_frame(message)
    truncated = frame[:min(cut, max(0, len(frame) - 1))]
    try:
        wire.decode_frame(truncated)
    except WireError:
        pass
    except _RAW_ERRORS as exc:  # pragma: no cover - the regression
        pytest.fail("raw %s leaked: %s" % (type(exc).__name__, exc))


@given(_messages, st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=255))
@settings(max_examples=200)
def test_corrupted_frame_never_leaks_raw_errors(message, index, byte):
    frame = bytearray(wire.encode_frame(message))
    frame[index % len(frame)] = byte
    try:
        decoded = wire.decode_frame(bytes(frame))
    except WireError:
        return
    except _RAW_ERRORS as exc:  # pragma: no cover - the regression
        pytest.fail("raw %s leaked: %s" % (type(exc).__name__, exc))
    assert isinstance(decoded, dict)  # lucky corruption must still parse


@given(st.binary(max_size=400))
@settings(max_examples=200)
def test_random_bytes_are_wire_error(blob):
    try:
        decoded = wire.decode_frame(blob)
    except WireError:
        return
    except _RAW_ERRORS as exc:  # pragma: no cover - the regression
        pytest.fail("raw %s leaked: %s" % (type(exc).__name__, exc))
    assert isinstance(decoded, dict)


@given(st.binary(max_size=200))
@settings(max_examples=200)
def test_random_batch_split_is_protocol_error(blob):
    try:
        frames = protocol.split_batch(blob, protocol.MAX_FRAME)
    except ProtocolError:
        return
    except _RAW_ERRORS as exc:  # pragma: no cover - the regression
        pytest.fail("raw %s leaked: %s" % (type(exc).__name__, exc))
    assert all(isinstance(f, bytes) for f in frames)


@given(st.lists(st.binary(min_size=1, max_size=100), min_size=1,
                max_size=8))
def test_batch_roundtrip(frames):
    blob = protocol.pack_batch(frames)
    assert protocol.split_batch(blob, protocol.MAX_FRAME) == frames


# -- session crypto ----------------------------------------------------------


def _pair():
    keys = SessionKeys.from_master(b"m" * 32, authenticated=True)
    from repro.distributed.crypto import _pair_for

    return _pair_for(keys, "client"), _pair_for(keys, "worker")


@given(st.binary(min_size=1, max_size=500))
@settings(max_examples=100)
def test_seal_open_roundtrip(plaintext):
    client, worker = _pair()
    assert worker.rx.open(client.tx.seal(plaintext)) == plaintext


@given(st.binary(min_size=1, max_size=200),
       st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=255))
@settings(max_examples=100)
def test_tampered_record_is_rejected(plaintext, index, byte):
    client, worker = _pair()
    record = bytearray(client.tx.seal(plaintext))
    position = index % len(record)
    if record[position] == byte:
        byte = (byte + 1) % 256
    record[position] = byte
    with pytest.raises(FrameAuthError):
        worker.rx.open(bytes(record))


def test_replayed_record_is_rejected():
    client, worker = _pair()
    record = client.tx.seal(b"only once")
    assert worker.rx.open(record) == b"only once"
    with pytest.raises(FrameAuthError):
        worker.rx.open(record)


# -- version fencing ---------------------------------------------------------


@given(st.integers(min_value=0, max_value=255)
       .filter(lambda v: v != wire.WIRE_VERSION))
def test_other_frame_versions_rejected_with_upgrade_message(version):
    frame = bytearray(wire.encode_frame({"type": "shutdown"}))
    frame[0] = version
    with pytest.raises(WireError, match="upgrade both ends"):
        wire.decode_frame(bytes(frame))


def test_v2_pickle_banner_rejected_at_handshake():
    """A v2 worker opened the session with a raw pickled HELLO (or the
    HMAC AUTH banner) — no KSP3 magic either way.  The v3 client must
    name the version mismatch, not crash parsing garbage."""
    import pickle

    from repro.distributed.crypto import ClientHandshake

    for v2_banner in (
            pickle.dumps({"type": "hello", "version": 2}),
            b"AUTH?" + b"\x00" * 16):
        handshake = ClientHandshake(None)
        with pytest.raises(Exception, match="v2 or older|v3 required"):
            handshake.respond(v2_banner)


def test_v2_style_client_rejected_by_worker():
    """A coordinator that skips the crypto handshake and speaks
    length-prefixed pickle at a v3 worker is dropped cleanly by the
    worker's side of the handshake."""
    import asyncio
    import pickle

    from repro.distributed import aio

    async def scenario():
        outcome = asyncio.get_running_loop().create_future()

        async def handle(reader, writer):
            try:
                await aio.accept_channel(reader, writer, None)
            except Exception as exc:
                outcome.set_result(exc)
            else:
                outcome.set_result(None)
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port)
        payload = pickle.dumps({"type": "hello", "version": 2})
        writer.write(len(payload).to_bytes(8, "big") + payload)
        try:
            return await asyncio.wait_for(outcome, 10.0)
        finally:
            writer.close()
            server.close()
            await server.wait_closed()

    assert isinstance(asyncio.run(scenario()),
                      (ProtocolError, ConnectionError))
