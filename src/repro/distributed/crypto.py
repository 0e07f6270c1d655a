"""Session crypto for the v3 fabric: handshake and encrypted frames.

The v2 handshake authenticated peers (HMAC challenge/response over a
shared secret) but every frame after it crossed the wire in cleartext.
v3 closes that gap: the handshake additionally agrees on per-session
keys, and **every post-handshake frame is encrypted and authenticated**
(encrypt-then-MAC) in both directions.

Two key-agreement modes, chosen by whether a secret is configured:

* **secret mode** — both sides prove the shared secret with the same
  domain-separated HMAC challenge/response as v2 (mutual: a client
  never sends work to an impostor worker), then derive session keys
  from ``HMAC(secret, nonces)``.  Two HMACs per connection, so a
  secret-mode handshake costs far less than the DH exchange below.
* **anonymous mode** (no secret on either side) — a classic
  finite-field Diffie-Hellman exchange over the RFC 3526 2048-bit MODP
  group.  Unauthenticated (the v2 trust model for open workers is
  unchanged: run them only where you would run the evaluation), but a
  passive observer on the wire now sees ciphertext, not pickled
  ``CveResult`` objects.  ~3 ms of ``pow()`` per side, paid once per
  connection.

The mode cannot be downgraded: a client configured with a secret
refuses any banner that is not secret mode (rather than silently
falling back to unauthenticated DH), and the banner's mode byte is
bound into every HMAC proof and into master-key derivation, so a MITM
rewriting it desynchronizes the two sides' keys and the key
confirmation fails.

Frame protection (:class:`FrameCipher`, one per direction):

* keystream — SHAKE-128 as an XOF in counter mode:
  ``shake_128(enc_key || seq).digest(len(frame))``; one C call per
  frame, several hundred MB/s;
* tag — ``HMAC-SHA256(mac_key, seq || ciphertext)`` truncated to 16
  bytes, checked with ``compare_digest`` before a single ciphertext
  byte is interpreted;
* ``seq`` — a per-direction 64-bit counter bound into both keystream
  and tag, so frames cannot be replayed, reordered, or reflected.

The handshake itself is a pure state machine over byte blobs
(:class:`ServerHandshake` / :class:`ClientHandshake`), kept apart from
any socket so the transport (:mod:`.aio`) and tests that impersonate a
peer drive the identical logic.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ReproError

#: raw handshake frames are small; anything bigger is an attack
MAX_HANDSHAKE_FRAME = 2048

NONCE_SIZE = 16
TAG_SIZE = 16
_DIGEST_SIZE = 32

MAGIC = b"KSP3"
MODE_ANON = 0
MODE_SECRET = 1

_SEQ = struct.Struct("!Q")

#: RFC 3526 group 14 (2048-bit MODP), generator 2
_DH_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16)
_DH_GENERATOR = 2
_DH_BYTES = 256

#: domain separation labels (v2's client/worker split, carried forward)
_CLIENT_DOMAIN = b"ksplice3-client:"
_WORKER_DOMAIN = b"ksplice3-worker:"
_MASTER_DOMAIN = b"ksplice3-master:"


class HandshakeError(ReproError):
    """The peer failed, refused, or mangled the v3 handshake."""


class FrameAuthError(ReproError):
    """A frame failed decryption/authentication mid-session."""


def _proof(secret: bytes, domain: bytes, mode: int,
           nonce: bytes) -> bytes:
    # The handshake mode byte is bound into every proof so a MITM
    # rewriting the banner's mode cannot splice two half-handshakes
    # into one session: mismatched modes produce mismatched proofs.
    return hmac.new(secret, domain + bytes([mode]) + nonce,
                    "sha256").digest()


def _derive(master: bytes, label: bytes) -> bytes:
    return hmac.new(master, label, "sha256").digest()


@dataclass
class SessionKeys:
    """Directional keys for one session (client/worker perspective
    agnostic: ``c2w`` always means client-to-worker)."""

    c2w_enc: bytes
    c2w_mac: bytes
    w2c_enc: bytes
    w2c_mac: bytes
    #: True when the peer proved knowledge of the shared secret
    authenticated: bool = False

    @classmethod
    def from_master(cls, master: bytes,
                    authenticated: bool) -> "SessionKeys":
        return cls(
            c2w_enc=_derive(master, b"c2w-enc"),
            c2w_mac=_derive(master, b"c2w-mac"),
            w2c_enc=_derive(master, b"w2c-enc"),
            w2c_mac=_derive(master, b"w2c-mac"),
            authenticated=authenticated,
        )


def _master_from_secret(secret: bytes, mode: int, worker_nonce: bytes,
                        client_nonce: bytes) -> bytes:
    return hmac.new(secret,
                    _MASTER_DOMAIN + bytes([mode]) + worker_nonce
                    + client_nonce,
                    "sha256").digest()


def _master_from_dh(shared: int, mode: int, worker_nonce: bytes,
                    client_nonce: bytes) -> bytes:
    shared_bytes = shared.to_bytes(_DH_BYTES, "big")
    return hmac.new(shared_bytes,
                    _MASTER_DOMAIN + bytes([mode]) + worker_nonce
                    + client_nonce,
                    "sha256").digest()


def _dh_keypair() -> Tuple[int, bytes]:
    exponent = int.from_bytes(os.urandom(32), "big")
    public = pow(_DH_GENERATOR, exponent, _DH_PRIME)
    return exponent, public.to_bytes(_DH_BYTES, "big")


def _dh_shared(exponent: int, peer_public: bytes) -> int:
    peer = int.from_bytes(peer_public, "big")
    if not 2 <= peer <= _DH_PRIME - 2:
        raise HandshakeError("degenerate DH public value from peer")
    return pow(peer, exponent, _DH_PRIME)


class FrameCipher:
    """Encrypt-then-MAC for one direction of one session."""

    def __init__(self, enc_key: bytes, mac_key: bytes):
        self._enc_key = enc_key
        self._seq = 0
        # hmac.new() re-hashes the key every call; keying once and
        # .copy()-ing per frame keeps the per-frame MAC cost to the
        # two compression blocks that actually cover the data; every
        # record in both directions pays one seal and one open.
        self._mac = hmac.new(mac_key, digestmod="sha256")
        self._shake = hashlib.shake_128(enc_key)

    def _keystream(self, seq: bytes, length: int) -> bytes:
        xof = self._shake.copy()
        xof.update(seq)
        return xof.digest(length)

    def _tag(self, seq: bytes, ciphertext: bytes) -> bytes:
        mac = self._mac.copy()
        mac.update(seq)
        mac.update(ciphertext)
        return mac.digest()[:TAG_SIZE]

    def seal(self, plaintext: bytes) -> bytes:
        seq = _SEQ.pack(self._seq)
        self._seq += 1
        keystream = self._keystream(seq, len(plaintext))
        ciphertext = (int.from_bytes(plaintext, "little")
                      ^ int.from_bytes(keystream, "little")
                      ).to_bytes(len(plaintext), "little")
        return ciphertext + self._tag(seq, ciphertext)

    def open(self, record: bytes) -> bytes:
        if len(record) < TAG_SIZE:
            raise FrameAuthError("sealed frame shorter than its tag")
        seq = _SEQ.pack(self._seq)
        ciphertext, tag = record[:-TAG_SIZE], record[-TAG_SIZE:]
        if not hmac.compare_digest(tag, self._tag(seq, ciphertext)):
            raise FrameAuthError(
                "frame %d failed authentication (tampered, replayed, "
                "or out of order)" % self._seq)
        self._seq += 1
        keystream = self._keystream(seq, len(ciphertext))
        return (int.from_bytes(ciphertext, "little")
                ^ int.from_bytes(keystream, "little")
                ).to_bytes(len(ciphertext), "little")


@dataclass
class CipherPair:
    """What a finished handshake hands the session layer."""

    tx: FrameCipher
    rx: FrameCipher
    authenticated: bool


def _pair_for(keys: SessionKeys, side: str) -> CipherPair:
    if side == "client":
        return CipherPair(
            tx=FrameCipher(keys.c2w_enc, keys.c2w_mac),
            rx=FrameCipher(keys.w2c_enc, keys.w2c_mac),
            authenticated=keys.authenticated)
    return CipherPair(
        tx=FrameCipher(keys.w2c_enc, keys.w2c_mac),
        rx=FrameCipher(keys.c2w_enc, keys.c2w_mac),
        authenticated=keys.authenticated)


class ServerHandshake:
    """Worker side: emit the banner, verify the response, confirm.

    Drive it::

        hs = ServerHandshake(secret)
        send_raw(hs.banner())
        confirm = hs.verify(recv_raw())   # raises HandshakeError
        send_raw(confirm)
        pair = hs.ciphers()
    """

    def __init__(self, secret: Optional[bytes]):
        self._secret = secret
        self._worker_nonce = os.urandom(NONCE_SIZE)
        self._mode = MODE_SECRET if secret else MODE_ANON
        self._dh_exponent: Optional[int] = None
        self._dh_public = b""
        if self._mode == MODE_ANON:
            self._dh_exponent, self._dh_public = _dh_keypair()
        self._keys: Optional[SessionKeys] = None

    def banner(self) -> bytes:
        return (MAGIC + bytes([self._mode]) + self._worker_nonce
                + self._dh_public)

    def verify(self, response: bytes) -> bytes:
        """Check the client response; returns the confirm frame."""
        if response[:4] != MAGIC:
            raise HandshakeError(
                "peer did not answer a v3 handshake (got %r...); a v2 "
                "coordinator must be upgraded to v3" % response[:8])
        if len(response) < 5 or response[4] != self._mode:
            raise HandshakeError("peer answered handshake mode %r, "
                                 "expected %d"
                                 % (response[4:5], self._mode))
        rest = response[5:]
        if len(rest) < NONCE_SIZE:
            raise HandshakeError("malformed handshake response (%d "
                                 "bytes)" % len(response))
        client_nonce, rest = rest[:NONCE_SIZE], rest[NONCE_SIZE:]
        if self._mode == MODE_SECRET:
            assert self._secret is not None
            if len(rest) != _DIGEST_SIZE:
                raise HandshakeError("malformed auth response (%d "
                                     "bytes)" % len(response))
            expected = _proof(self._secret, _CLIENT_DOMAIN, self._mode,
                              self._worker_nonce + client_nonce)
            if not hmac.compare_digest(rest, expected):
                raise HandshakeError(
                    "client failed the shared-secret challenge")
            master = _master_from_secret(self._secret, self._mode,
                                         self._worker_nonce,
                                         client_nonce)
            self._keys = SessionKeys.from_master(master,
                                                 authenticated=True)
            return _proof(self._secret, _WORKER_DOMAIN, self._mode,
                          client_nonce + self._worker_nonce)
        if len(rest) != _DH_BYTES:
            raise HandshakeError("malformed DH response (%d bytes)"
                                 % len(response))
        assert self._dh_exponent is not None
        shared = _dh_shared(self._dh_exponent, rest)
        master = _master_from_dh(shared, self._mode, self._worker_nonce,
                                 client_nonce)
        self._keys = SessionKeys.from_master(master, authenticated=False)
        # prove we computed the same keys before any frame flows
        return _derive(master, b"worker-confirm")

    def ciphers(self) -> CipherPair:
        assert self._keys is not None, "verify() must succeed first"
        return _pair_for(self._keys, "worker")


class ClientHandshake:
    """Coordinator side: answer the banner, verify the confirm.

    Drive it::

        hs = ClientHandshake(secret)
        send_raw(hs.respond(recv_raw()))  # raises HandshakeError
        hs.verify(recv_raw())             # raises HandshakeError
        pair = hs.ciphers()
    """

    def __init__(self, secret: Optional[bytes]):
        self._secret = secret
        self._client_nonce = os.urandom(NONCE_SIZE)
        self._keys: Optional[SessionKeys] = None
        self._expected_confirm = b""
        self._mode = MODE_ANON

    def respond(self, banner: bytes) -> bytes:
        if banner[:4] != MAGIC:
            raise HandshakeError(
                "worker speaks fabric protocol v2 or older (banner "
                "%r...); v3 required — upgrade the worker" % banner[:8])
        if len(banner) < 5 + NONCE_SIZE:
            raise HandshakeError("malformed v3 banner (%d bytes)"
                                 % len(banner))
        self._mode = banner[4]
        worker_nonce = banner[5:5 + NONCE_SIZE]
        rest = banner[5 + NONCE_SIZE:]
        if self._secret is not None and self._mode != MODE_SECRET:
            # Downgrade refusal: when this side is configured with a
            # secret, an unauthenticated banner means either a
            # misconfigured worker or an impostor/MITM stripping the
            # mode byte to dodge the challenge.  Never fall back to
            # anonymous DH — that would send work to a peer that never
            # proved anything.
            raise HandshakeError(
                "authentication downgrade refused: a shared secret is "
                "configured but the worker offered an unauthenticated "
                "(mode %d) handshake; start the worker with the same "
                "--secret / KSPLICE_WORKER_SECRET" % self._mode)
        if self._mode == MODE_SECRET:
            if self._secret is None:
                raise HandshakeError(
                    "worker requires a shared secret; pass --secret or "
                    "set KSPLICE_WORKER_SECRET")
            proof = _proof(self._secret, _CLIENT_DOMAIN, self._mode,
                           worker_nonce + self._client_nonce)
            master = _master_from_secret(self._secret, self._mode,
                                         worker_nonce,
                                         self._client_nonce)
            self._keys = SessionKeys.from_master(master,
                                                 authenticated=True)
            self._expected_confirm = _proof(
                self._secret, _WORKER_DOMAIN, self._mode,
                self._client_nonce + worker_nonce)
            return (MAGIC + bytes([MODE_SECRET]) + self._client_nonce
                    + proof)
        if self._mode != MODE_ANON:
            raise HandshakeError("unknown handshake mode %d"
                                 % self._mode)
        if len(rest) != _DH_BYTES:
            raise HandshakeError("malformed DH banner (%d bytes)"
                                 % len(banner))
        exponent, public = _dh_keypair()
        shared = _dh_shared(exponent, rest)
        master = _master_from_dh(shared, self._mode, worker_nonce,
                                 self._client_nonce)
        self._keys = SessionKeys.from_master(master, authenticated=False)
        self._expected_confirm = _derive(master, b"worker-confirm")
        return MAGIC + bytes([MODE_ANON]) + self._client_nonce + public

    def verify(self, confirm: bytes) -> None:
        if not hmac.compare_digest(confirm, self._expected_confirm):
            if self._mode == MODE_SECRET:
                raise HandshakeError(
                    "worker failed to prove the shared secret")
            raise HandshakeError("worker failed the key confirmation")

    def ciphers(self) -> CipherPair:
        assert self._keys is not None, "verify() must succeed first"
        return _pair_for(self._keys, "client")
