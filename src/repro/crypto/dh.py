"""Diffie-Hellman key agreement for Switchboard channel establishment.

The paper: "When Switchboard connections span multiple hosts, a cipher is
established using a key-exchange protocol."  We implement classic
finite-field Diffie-Hellman over the 2048-bit MODP group 14 from RFC 3526,
with subgroup-confinement checks on the received public value.

The generator is a fixed base, so a party's public value ``g^x mod p`` is
read off a table of ``g^(j * 16^i) mod p`` (j = 0..15): one multiply-mod
per non-zero hex digit of ``x``, about 64 for a 256-bit exponent against
about 310 for a square-and-multiply ``pow``.  The table is built once per
``(generator, prime)`` and grown on demand to the longest exponent seen
(64 rows of 16 entries, about 0.3 MiB, for group 14).  The shared secret
raises the peer's value, a variable base, and stays a plain ``pow``.
"""

from __future__ import annotations

import functools
import hashlib
import secrets
import threading
from dataclasses import dataclass, field

from ..errors import KeyExchangeError
from .numtheory import int_to_bytes

# RFC 3526, group 14: 2048-bit MODP prime, generator 2.
MODP_2048_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
MODP_2048_GENERATOR = 2

_DIGIT_BITS = 4
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1
_table_growth = threading.Lock()


def _table_row(base: int, prime: int) -> list[int]:
    """``[base^j mod prime for j in 0..15]``."""
    row = [1]
    for _ in range(_DIGIT_MASK):
        row.append(row[-1] * base % prime)
    return row


@functools.lru_cache(maxsize=None)
def _generator_table(generator: int, prime: int) -> list[list[int]]:
    """Row ``i`` holds ``generator^(j * 16^i) mod prime``; starts with row 0
    and is grown in place by :func:`_fixed_base_pow`."""
    return [_table_row(generator % prime, prime)]


def _fixed_base_pow(generator: int, exponent: int, prime: int) -> int:
    """``pow(generator, exponent, prime)`` for a non-negative exponent, from
    the cached table: one multiply-mod per non-zero hex digit."""
    table = _generator_table(generator, prime)
    digits = -(-exponent.bit_length() // _DIGIT_BITS)
    if len(table) < digits:
        with _table_growth:
            while len(table) < digits:
                # generator^(16^(i+1)) = generator^(15 * 16^i) * generator^(16^i)
                last = table[-1]
                table.append(_table_row(last[_DIGIT_MASK] * last[1] % prime, prime))
    result = 1
    for i in range(digits):
        digit = (exponent >> (i * _DIGIT_BITS)) & _DIGIT_MASK
        if digit:
            result = result * table[i][digit] % prime
    return result


@dataclass(slots=True)
class DiffieHellman:
    """One party's state in a DH exchange.

    Usage::

        alice, bob = DiffieHellman(), DiffieHellman()
        ka = alice.compute_shared(bob.public_value)
        kb = bob.compute_shared(alice.public_value)
        assert ka == kb
    """

    prime: int = MODP_2048_PRIME
    generator: int = MODP_2048_GENERATOR
    _private: int = field(default=0, repr=False)
    public_value: int = field(default=0)

    def __post_init__(self) -> None:
        if self._private == 0:
            # 256-bit exponent: ample for a 2048-bit group at simulation grade.
            self._private = secrets.randbits(256) | (1 << 255)
        self.public_value = _fixed_base_pow(self.generator, self._private, self.prime)

    def compute_shared(self, peer_public: int) -> bytes:
        """Derive the 32-byte shared key from the peer's public value.

        Rejects degenerate values (0, 1, p-1, out of range) that would pin
        the shared secret to a known constant.
        """
        if not 1 < peer_public < self.prime - 1:
            raise KeyExchangeError("peer DH public value out of range")
        shared = pow(peer_public, self._private, self.prime)
        if shared in (0, 1, self.prime - 1):  # pragma: no cover - defensive
            raise KeyExchangeError("degenerate DH shared secret")
        return hashlib.sha256(b"repro-dh-v1|" + int_to_bytes(shared)).digest()
