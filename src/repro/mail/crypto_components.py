"""Encryptor / Decryptor components (§2.2).

"Security-aware applications can deploy an encryptor/decryptor pair to
protect sensitive data crossing insecure links."

The pair translates between ``MailI`` (plaintext) and ``SecMailI``
(ciphertext blobs), both declared in the application document
(:mod:`repro.mail.app_xml`).  The Encryptor sits near the mail server (reaching it
over secure LAN links) and exposes ``SecMailI``, whose payloads may cross
insecure WAN links; the Decryptor sits near the client and turns the
blobs back into ``MailI``.  Both ends derive their pairwise key from a
secret the application Guard provisions at deployment time.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from ..crypto.cipher import AuthenticatedCipher


def derive_pair_key(secret: str) -> bytes:
    """Both halves of a deployed pair derive the same session key."""
    return hashlib.sha256(b"mail-pair|" + secret.encode()).digest()


def _seal(cipher: AuthenticatedCipher, value: Any) -> str:
    """JSON value -> sealed frame as hex (the ``SecMailI`` blob format)."""
    plaintext = json.dumps(value, separators=(",", ":")).encode()
    return cipher.encrypt(plaintext).hex()


def _open(cipher: AuthenticatedCipher, blob: str) -> Any:
    return json.loads(cipher.decrypt(bytes.fromhex(blob)).decode())


class Encryptor:
    """Server-side half: wraps a MailI provider behind SecMailI."""

    def __init__(self, upstream: Any, pair_secret: str = "default") -> None:
        self._upstream = upstream
        self._cipher = AuthenticatedCipher(derive_pair_key(pair_secret))

    # -- SecMailI ----------------------------------------------------------

    def fetchMailEnc(self, user: str) -> str:
        messages = self._upstream.fetchMail(user)
        return _seal(self._cipher, messages)

    def sendMailEnc(self, blob: str) -> bool:
        mes = _open(self._cipher, blob)
        return bool(self._upstream.sendMail(mes))

    def listAccountsEnc(self) -> str:
        return _seal(self._cipher, self._upstream.listAccounts())


class Decryptor:
    """Client-side half: re-exposes MailI from a SecMailI provider."""

    def __init__(self, upstream: Any, pair_secret: str = "default") -> None:
        self._upstream = upstream
        self._cipher = AuthenticatedCipher(derive_pair_key(pair_secret))

    # -- MailI -------------------------------------------------------------

    def fetchMail(self, user: str) -> list[dict]:
        return _open(self._cipher, self._upstream.fetchMailEnc(user))

    def sendMail(self, mes: dict) -> bool:
        return bool(self._upstream.sendMailEnc(_seal(self._cipher, mes)))

    def listAccounts(self) -> list[str]:
        return _open(self._cipher, self._upstream.listAccountsEnc())
