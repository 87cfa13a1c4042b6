"""Number-theoretic primitives for the from-scratch PKI substrate.

The paper's dRBAC credentials are "cryptographically signed by [their]
issuer"; the offline reproduction implements its own RSA over these
primitives instead of depending on an external crypto library.

Only deterministic, well-tested building blocks live here: modular
exponentiation (via the builtin ``pow``), extended GCD / modular inverse,
Miller-Rabin probabilistic primality testing, and prime generation.

Two error bounds apply.  :func:`is_probable_prime` on arbitrary input runs
40 random bases, so a composite passes with probability at most 4**-40 =
2**-80 whatever its structure (the worst case).  :func:`generate_prime`
tests uniformly random candidates, for which Damgard, Landrock and
Pomerance (1993) bound the chance that a number passing ``t`` rounds is
composite far lower; it runs the fewest rounds that bring that
average-case bound to at most 2**-100 (the basis of FIPS 186-4 App. C.3's
round tables), e.g. 8 for a 512-bit prime.
"""

from __future__ import annotations

import math
import random

_rng: random.Random = random.SystemRandom()
"""Every random bit this module draws; a test may swap in a seeded
:class:`random.Random`."""

_SIEVE_LIMIT = 10_000


def _sieve(limit: int) -> bytes:
    """Eratosthenes: ``sieve[n]`` is 1 exactly when ``n < limit`` is prime."""
    prime = bytearray([1]) * limit
    prime[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return bytes(prime)


_SIEVE = _sieve(_SIEVE_LIMIT)
_SIEVE_PRODUCT = math.prod(n for n, flag in enumerate(_SIEVE) if flag)
"""The primes below 10**4 and their product: one ``math.gcd`` rejects about
88 % of odd candidates before any exponentiation."""

WORST_CASE_ROUNDS = 40
"""Miller-Rabin rounds for arbitrary input: error at most 4**-40."""

GENERATED_ERROR_LOG2 = -100
"""The average-case error a generated prime's rounds must reach."""


def dlp_error_log2(k: int, t: int) -> float:
    """log2 of the Damgard-Landrock-Pomerance bound on the chance that a
    uniformly random odd ``k``-bit number passing ``t`` random-base
    Miller-Rabin rounds is composite:
    p_{k,t} <= k**1.5 * 2**t * t**-0.5 * 4**(2 - sqrt(t*k)),
    valid for k >= 21 and 3 <= t <= k/9."""
    return 1.5 * math.log2(k) + t - 0.5 * math.log2(t) + 2 * (2 - math.sqrt(t * k))


def generated_prime_rounds(bits: int) -> int:
    """The fewest rounds whose DLP bound reaches 2**-100 for a random
    ``bits``-bit candidate, or :data:`WORST_CASE_ROUNDS` at a size where
    the bound cannot (below 207 bits)."""
    if bits >= 21:
        # The bound falls as t grows inside its range, so the first t
        # that reaches the target is the fewest.
        for t in range(3, bits // 9 + 1):
            if dlp_error_log2(bits, t) <= GENERATED_ERROR_LOG2:
                return t
    return WORST_CASE_ROUNDS


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclidean algorithm.

    Returns ``(g, x, y)`` with ``g = gcd(a, b)`` and ``a*x + b*y == g``.
    Iterative to avoid recursion limits on large inputs.
    """
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def modinv(a: int, m: int) -> int:
    """Modular inverse of ``a`` modulo ``m``.

    Raises:
        ValueError: if ``a`` is not invertible mod ``m``.
    """
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} has no inverse modulo {m} (gcd={g})")
    return x % m


def is_probable_prime(n: int, rounds: int = WORST_CASE_ROUNDS) -> bool:
    """Miller-Rabin probabilistic primality test, after one gcd sieve.

    With the default 40 random bases a composite passes with probability
    at most 4**-40 = 2**-80 (the worst case, for any input).  Fewer
    ``rounds`` are for :func:`generate_prime`, whose random candidates
    meet the far lower average-case bound (DLP 1993); do not pass them for
    a number you did not draw uniformly at random.
    """
    if n < _SIEVE_LIMIT:
        return n >= 2 and _SIEVE[n] == 1
    if math.gcd(n, _SIEVE_PRODUCT) != 1:
        return False
    # Write n - 1 = d * 2**r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = _rng.randrange(2, n - 1)  # uniform in [2, n-2]
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int) -> int:
    """Generate a random probable prime with exactly ``bits`` bits.

    Candidates are uniformly random odd ``bits``-bit numbers with the top
    two bits set, so a composite output has probability at most 2**-100
    by the DLP 1993 average-case bound (:func:`generated_prime_rounds`
    rounds: 8 at 512 bits), or 4**-40 at sizes where that bound cannot
    reach 2**-100.
    """
    if bits < 8:
        raise ValueError("prime size must be at least 8 bits")
    rounds = generated_prime_rounds(bits)
    while True:
        # Force the top two bits so p*q has full size, and the low bit (odd).
        candidate = _rng.getrandbits(bits) | (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(candidate, rounds=rounds):
            return candidate


def generate_distinct_primes(bits: int) -> tuple[int, int]:
    """Generate two distinct primes of ``bits`` bits each (for RSA)."""
    p = generate_prime(bits)
    while True:
        q = generate_prime(bits)
        if q != p:
            return p, q


def int_to_bytes(n: int) -> bytes:
    """Minimal big-endian byte encoding of a non-negative integer."""
    if n < 0:
        raise ValueError("cannot encode negative integers")
    length = max(1, (n.bit_length() + 7) // 8)
    return n.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Big-endian byte decoding (inverse of :func:`int_to_bytes`)."""
    return int.from_bytes(data, "big")
