"""Authenticated symmetric encryption for Switchboard payloads.

Encrypt-then-MAC over a SHAKE-256 keystream; a frame of any length is
sealed or opened in a constant number of C calls:

* keystream = SHAKE-256(enc_key || nonce) squeezed to the plaintext length
* ciphertext = plaintext XOR keystream (one big-integer XOR)
* tag = HMAC-SHA256(mac_key, len(ad) as 8 bytes || ad || nonce || ciphertext)
* frame = nonce(16) || ciphertext || tag(32)

The length prefix fixes the boundary between associated data and
ciphertext, so bytes cannot be moved from one to the other under a tag.

Key separation: the 32-byte session key from the DH exchange is split into
independent encryption and MAC keys via domain-separated hashing.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass

from ..errors import CipherError

_NONCE_LEN = 16
_TAG_LEN = 32


def _derive_keys(session_key: bytes) -> tuple[bytes, bytes]:
    if len(session_key) < 16:
        raise CipherError("session key must be at least 16 bytes")
    enc = hashlib.sha256(b"repro-enc|" + session_key).digest()
    mac = hashlib.sha256(b"repro-mac|" + session_key).digest()
    return enc, mac


def _xor_stream(enc_key: bytes, nonce: bytes, data: bytes) -> bytes:
    stream = hashlib.shake_256(enc_key + nonce).digest(len(data))
    # to_bytes with the explicit length keeps leading zero bytes.
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(
        len(data), "big"
    )


def _tag(mac_key: bytes, ad: bytes, nonce_and_ciphertext: bytes | memoryview) -> bytes:
    mac = hmac.new(mac_key, len(ad).to_bytes(8, "big"), hashlib.sha256)
    mac.update(ad)
    mac.update(nonce_and_ciphertext)
    return mac.digest()


def _seal(enc_key: bytes, mac_key: bytes, nonce: bytes, plaintext: bytes, ad: bytes) -> bytes:
    """Pure: ``nonce || ciphertext || tag`` for the given nonce."""
    body = nonce + _xor_stream(enc_key, nonce, plaintext)
    return body + _tag(mac_key, ad, body)


def _open(enc_key: bytes, mac_key: bytes, frame: bytes, ad: bytes) -> bytes:
    """Pure inverse of :func:`_seal`; checks the tag before any keystream."""
    if len(frame) < _NONCE_LEN + _TAG_LEN:
        raise CipherError("frame too short")
    view = memoryview(frame)
    if not hmac.compare_digest(view[-_TAG_LEN:], _tag(mac_key, ad, view[:-_TAG_LEN])):
        raise CipherError("authentication tag mismatch")
    return _xor_stream(enc_key, frame[:_NONCE_LEN], frame[_NONCE_LEN:-_TAG_LEN])


@dataclass(slots=True)
class AuthenticatedCipher:
    """Symmetric authenticated encryption bound to one session key."""

    _enc_key: bytes
    _mac_key: bytes

    def __init__(self, session_key: bytes) -> None:
        self._enc_key, self._mac_key = _derive_keys(session_key)

    def encrypt(self, plaintext: bytes, associated_data: bytes = b"") -> bytes:
        """Return ``nonce || ciphertext || tag``.

        ``associated_data`` is authenticated but not encrypted (used for
        sequence numbers so replayed frames fail the tag check).
        """
        nonce = secrets.token_bytes(_NONCE_LEN)
        return _seal(self._enc_key, self._mac_key, nonce, plaintext, associated_data)

    def decrypt(self, frame: bytes, associated_data: bytes = b"") -> bytes:
        """Verify and decrypt a frame produced by :meth:`encrypt`.

        Raises:
            CipherError: on truncation, tampering, or wrong associated data.
        """
        return _open(self._enc_key, self._mac_key, frame, associated_data)
