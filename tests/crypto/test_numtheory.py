"""Unit and property tests for the number-theory primitives."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import numtheory
from repro.crypto.numtheory import (
    bytes_to_int,
    egcd,
    generate_distinct_primes,
    generate_prime,
    generated_prime_rounds,
    int_to_bytes,
    is_probable_prime,
    modinv,
)

KNOWN_PRIMES = [2, 3, 5, 7, 11, 13, 101, 104729, 2**31 - 1, 2**61 - 1]
KNOWN_COMPOSITES = [1, 0, -7, 4, 9, 15, 561, 41041, 2**31 + 1, 104729 * 104729]
# 561 and 41041 are Carmichael numbers — Fermat pseudoprimes that
# Miller-Rabin must still reject.


class TestEgcd:
    def test_basic(self):
        g, x, y = egcd(240, 46)
        assert g == 2
        assert 240 * x + 46 * y == 2

    def test_coprime(self):
        g, x, y = egcd(17, 31)
        assert g == 1
        assert 17 * x + 31 * y == 1

    def test_zero(self):
        g, x, _ = egcd(5, 0)
        assert g == 5
        assert x == 1

    @given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=1, max_value=10**12))
    def test_bezout_identity(self, a, b):
        g, x, y = egcd(a, b)
        assert a * x + b * y == g
        assert a % g == 0 and b % g == 0


class TestModinv:
    def test_known(self):
        assert modinv(3, 11) == 4  # 3*4 = 12 = 1 mod 11

    def test_not_invertible(self):
        with pytest.raises(ValueError):
            modinv(6, 9)

    @given(st.integers(min_value=2, max_value=10**9))
    def test_inverse_mod_prime(self, a):
        p = 2**61 - 1
        inv = modinv(a, p)
        assert (a * inv) % p == 1

    def test_negative_input_normalized(self):
        inv = modinv(-3 % 11, 11)
        assert (8 * inv) % 11 == 1


class TestMillerRabin:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_accepts_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("n", KNOWN_COMPOSITES)
    def test_rejects_composites(self, n):
        assert not is_probable_prime(n)

    def test_rejects_product_of_generated_primes(self):
        p, q = generate_distinct_primes(64)
        assert not is_probable_prime(p * q)


class TestPrimeGeneration:
    @pytest.mark.parametrize("bits", [16, 32, 64, 128])
    def test_bit_length_exact(self, bits):
        p = generate_prime(bits)
        assert p.bit_length() == bits
        assert is_probable_prime(p)

    def test_distinct(self):
        p, q = generate_distinct_primes(32)
        assert p != q
        assert is_probable_prime(p) and is_probable_prime(q)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_prime(4)

    def test_generated_primes_are_odd(self):
        assert generate_prime(24) % 2 == 1


class CountingRandom(random.Random):
    """A seeded generator that counts Miller-Rabin rounds (one base drawn
    per round) and refuses to draw more than ``max_candidates`` candidates."""

    def __init__(self, seed: int, max_candidates: int = 100_000) -> None:
        super().__init__(seed)
        self.rounds = 0
        self.candidates = 0
        self.max_candidates = max_candidates

    def randrange(self, *args, **kwargs):
        self.rounds += 1
        return super().randrange(*args, **kwargs)

    def getrandbits(self, k: int) -> int:
        self.candidates += 1
        assert self.candidates <= self.max_candidates, "generation does not terminate"
        return super().getrandbits(k)


@pytest.fixture()
def seeded(monkeypatch):
    def install(seed: int, **kwargs) -> CountingRandom:
        rng = CountingRandom(seed, **kwargs)
        monkeypatch.setattr(numtheory, "_rng", rng)
        return rng

    return install


def _dlp_bound(k: int, t: int) -> float:
    """Damgard-Landrock-Pomerance (1993): p_{k,t} for k >= 21, 3 <= t <= k/9."""
    return k**1.5 * 2.0**t * t**-0.5 * 4.0 ** (2 - math.sqrt(t * k))


def _is_prime_by_trial(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestGeneratedPrimeRounds:
    """Generated primes take their rounds from the average-case bound;
    everything else keeps the worst-case 40."""

    @pytest.mark.parametrize("bits, rounds", [(256, 17), (512, 8), (1024, 4)])
    def test_rounds_are_the_fewest_reaching_2_to_the_minus_100(self, bits, rounds):
        t = generated_prime_rounds(bits)
        assert t == rounds
        assert 3 <= t <= bits / 9  # inside the bound's range of validity
        assert _dlp_bound(bits, t) <= 2.0**-100
        assert _dlp_bound(bits, t - 1) > 2.0**-100

    @pytest.mark.parametrize("bits", [8, 20, 21, 64, 128, 206])
    def test_sizes_the_bound_cannot_cover_keep_40(self, bits):
        assert generated_prime_rounds(bits) == 40

    def test_arbitrary_input_keeps_40_rounds(self, seeded):
        rng = seeded(7)
        assert is_probable_prime(2**61 - 1)
        assert rng.rounds == 40

    @pytest.mark.parametrize("bits", range(8, 21))
    def test_small_sizes_terminate_with_exact_primes(self, seeded, bits):
        # Below 14 bits every candidate is itself under the sieve limit, so
        # a sieve that rejected its own primes would never return.
        for seed in range(8):
            seeded(seed, max_candidates=10_000)
            p = generate_prime(bits)
            assert p.bit_length() == bits
            assert _is_prime_by_trial(p)

    def test_every_sieve_prime_is_prime(self):
        assert all(is_probable_prime(p) for p in range(2, 10_000) if _is_prime_by_trial(p))
        assert not any(
            is_probable_prime(n) for n in range(10_000) if not _is_prime_by_trial(n)
        )

    def test_seeded_rounds_per_512_bit_prime(self, seeded):
        # 8 rounds confirm the prime; each composite the sieve passes costs ~1.
        rng = seeded(2003)
        primes = [generate_prime(512) for _ in range(64)]
        assert all(p.bit_length() == 512 for p in primes)
        assert rng.rounds / len(primes) <= 35


class TestByteCodec:
    @given(st.integers(min_value=0, max_value=2**512))
    def test_roundtrip(self, n):
        assert bytes_to_int(int_to_bytes(n)) == n

    def test_zero(self):
        assert int_to_bytes(0) == b"\x00"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            int_to_bytes(-1)

    def test_big_endian(self):
        assert int_to_bytes(0x0102) == b"\x01\x02"


class TestKnownAnswers:
    """Fixed vectors pinning the implementations, not just their laws.

    A property suite can pass with a subtly different algorithm (e.g. an
    inverse normalized into the wrong range); these vectors cannot.
    """

    def test_modinv_textbook_vector(self):
        # RSA-textbook staple: 17^-1 mod 3120 (phi of 3233).
        assert modinv(17, 3120) == 2753
        assert (17 * 2753) % 3120 == 1

    def test_egcd_textbook_vector(self):
        # gcd(240, 46) = 2 = 240*(-9) + 46*47.
        assert egcd(240, 46) == (2, -9, 47)

    def test_modp_2048_is_a_safe_prime_group(self):
        # RFC 3526 group 14: p and (p-1)/2 both prime, generator 2.
        from repro.crypto.dh import MODP_2048_GENERATOR, MODP_2048_PRIME

        assert MODP_2048_PRIME.bit_length() == 2048
        assert MODP_2048_GENERATOR == 2
        assert is_probable_prime(MODP_2048_PRIME, rounds=8)
        assert is_probable_prime((MODP_2048_PRIME - 1) // 2, rounds=8)

    def test_int_to_bytes_vectors(self):
        assert int_to_bytes(0) == b"\x00"
        assert int_to_bytes(255) == b"\xff"
        assert int_to_bytes(256) == b"\x01\x00"
        assert int_to_bytes(65536) == b"\x01\x00\x00"

    @given(st.integers(min_value=2, max_value=10**9))
    def test_modinv_of_inverse_is_identity(self, a):
        p = 2**31 - 1  # Mersenne prime
        inv = modinv(a % p or 1, p)
        assert modinv(inv, p) == (a % p or 1)
