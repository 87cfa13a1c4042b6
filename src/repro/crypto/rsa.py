"""From-scratch RSA signatures for dRBAC credentials.

dRBAC only needs *unforgeable, verifiable issuer signatures* over credential
bytes; this module implements hash-then-sign RSA with a deterministic
full-domain-style padding (a simplified PKCS#1 v1.5 layout).  It is
simulation-grade crypto as documented in DESIGN.md — not hardened against
side channels — but the algebra is real: signatures cannot be forged or
transplanted without the private key.

Signing uses the Chinese Remainder Theorem: two half-size exponentiations,
``m^dP mod p`` and ``m^dQ mod q``, joined by Garner's recombination, about
3x cheaper than one ``m^d mod n``.  Every signature is checked with the
public exponent before it leaves :meth:`RsaPrivateKey.sign`, so a corrupted
CRT parameter raises instead of emitting a wrong signature (the
Boneh-DeMillo-Lipton fault, which would reveal a factor of ``n``).  The
padding is deterministic, so a CRT signature is byte-identical to the
textbook ``m^d mod n`` one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..errors import CryptoError, SignatureError
from .numtheory import bytes_to_int, generate_distinct_primes, int_to_bytes, modinv

# SHA-256 DigestInfo prefix from PKCS#1 v1.5 (DER header for the hash OID).
_SHA256_PREFIX = bytes.fromhex("3031300d060960864801650304020105000420")

DEFAULT_KEY_BITS = 1024  # simulation-grade; keygen stays fast in tests
_PUBLIC_EXPONENT = 65537


@dataclass(frozen=True, slots=True)
class RsaPublicKey:
    """RSA public key ``(n, e)``.

    Hashable and comparable so it can serve as an entity's public identity
    in dRBAC maps and repositories.
    """

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def fingerprint(self) -> str:
        """Short stable hex identifier for display and dict keys."""
        material = int_to_bytes(self.n) + b"|" + int_to_bytes(self.e)
        return hashlib.sha256(material).hexdigest()[:16]

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Return True iff ``signature`` is a valid signature on ``message``."""
        if len(signature) != self.byte_length:
            return False
        s = bytes_to_int(signature)
        if s >= self.n:
            return False
        em = pow(s, self.e, self.n).to_bytes(self.byte_length, "big")
        return em == _encode_digest(message, self.byte_length)

    def require_valid(self, message: bytes, signature: bytes) -> None:
        """Like :meth:`verify` but raises :class:`SignatureError` on failure."""
        if not self.verify(message, signature):
            raise SignatureError(
                f"signature verification failed for key {self.fingerprint()}"
            )


@dataclass(frozen=True, slots=True)
class RsaPrivateKey:
    """RSA private key in CRT form; carries its public half for convenience.

    ``dp = d mod (p-1)``, ``dq = d mod (q-1)`` and ``qinv = q^-1 mod p``.
    The secret fields stay out of ``repr`` so a logged key or identity does
    not print its factors.
    """

    n: int
    e: int
    p: int = field(repr=False)
    q: int = field(repr=False)
    dp: int = field(repr=False)
    dq: int = field(repr=False)
    qinv: int = field(repr=False)
    public_key: RsaPublicKey = field(init=False, compare=False, repr=False)
    """The public half, built once: every signature check in a search reads it."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "public_key", RsaPublicKey(n=self.n, e=self.e))

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def sign(self, message: bytes) -> bytes:
        """Produce a deterministic hash-then-sign RSA signature.

        Raises :class:`CryptoError` if the CRT result fails the
        public-exponent check, i.e. a key parameter is corrupt.
        """
        em = _encode_digest(message, self.byte_length)
        m = bytes_to_int(em)
        if m >= self.n:  # pragma: no cover - padding guarantees m < n
            raise CryptoError("encoded message does not fit the modulus")
        s_p = pow(m % self.p, self.dp, self.p)
        s_q = pow(m % self.q, self.dq, self.q)
        s = s_q + self.q * (self.qinv * (s_p - s_q) % self.p)
        if pow(s, self.e, self.n) != m:
            raise CryptoError("RSA-CRT signature failed the public-exponent check")
        return s.to_bytes(self.byte_length, "big")


def _encode_digest(message: bytes, em_len: int) -> bytes:
    """PKCS#1 v1.5-style encoding: 00 01 FF..FF 00 || DigestInfo || hash."""
    digest = hashlib.sha256(message).digest()
    t = _SHA256_PREFIX + digest
    ps_len = em_len - len(t) - 3
    if ps_len < 8:
        raise CryptoError(f"modulus too small for SHA-256 signing ({em_len} bytes)")
    return b"\x00\x01" + b"\xff" * ps_len + b"\x00" + t


def _private_key(p: int, q: int) -> RsaPrivateKey:
    """The CRT private key over distinct primes ``p`` and ``q``.

    Raises:
        ValueError: if the public exponent is not invertible mod phi(n).
    """
    d = modinv(_PUBLIC_EXPONENT, (p - 1) * (q - 1))
    return RsaPrivateKey(
        n=p * q,
        e=_PUBLIC_EXPONENT,
        p=p,
        q=q,
        dp=d % (p - 1),
        dq=d % (q - 1),
        qinv=modinv(q, p),
    )


def generate_keypair(bits: int = DEFAULT_KEY_BITS) -> RsaPrivateKey:
    """Generate a fresh RSA keypair with an n of roughly ``bits`` bits."""
    if bits < 512:
        raise ValueError("RSA modulus must be at least 512 bits")
    half = bits // 2
    while True:
        p, q = generate_distinct_primes(half)
        try:
            return _private_key(p, q)
        except ValueError:
            continue  # gcd(e, phi) != 1 — regenerate
