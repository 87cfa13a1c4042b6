"""Diffie-Hellman key agreement tests."""

from __future__ import annotations

import secrets

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.dh import (
    MODP_2048_GENERATOR,
    MODP_2048_PRIME,
    DiffieHellman,
    _fixed_base_pow,
)
from repro.errors import KeyExchangeError

from .timing import best_of

GROUPS = [(MODP_2048_GENERATOR, MODP_2048_PRIME), (5, 23)]


class TestAgreement:
    def test_shared_secret_matches(self):
        alice, bob = DiffieHellman(), DiffieHellman()
        assert alice.compute_shared(bob.public_value) == bob.compute_shared(
            alice.public_value
        )

    def test_shared_secret_is_32_bytes(self):
        alice, bob = DiffieHellman(), DiffieHellman()
        assert len(alice.compute_shared(bob.public_value)) == 32

    def test_different_sessions_different_keys(self):
        a1, b1 = DiffieHellman(), DiffieHellman()
        a2, b2 = DiffieHellman(), DiffieHellman()
        assert a1.compute_shared(b1.public_value) != a2.compute_shared(b2.public_value)

    def test_public_values_differ(self):
        assert DiffieHellman().public_value != DiffieHellman().public_value


class TestValidation:
    @pytest.mark.parametrize("bad", [0, 1, MODP_2048_PRIME - 1, MODP_2048_PRIME, -5])
    def test_degenerate_peer_values_rejected(self, bad):
        with pytest.raises(KeyExchangeError):
            DiffieHellman().compute_shared(bad)

    def test_public_value_in_range(self):
        dh = DiffieHellman()
        assert 1 < dh.public_value < MODP_2048_PRIME - 1


class TestKnownAnswers:
    """Fixed exponents pin the full derivation, domain tag included.

    The 32-byte key is ``sha256(b"repro-dh-v1|" + int_to_bytes(shared))``;
    any drift in the tag, the byte codec, or the modular arithmetic moves
    these digests — and silently breaks recorded Switchboard transcripts.
    """

    def test_textbook_small_group(self):
        # p=23, g=5, a=6, b=15: the classic worked example.
        alice = DiffieHellman(prime=23, generator=5, _private=6)
        bob = DiffieHellman(prime=23, generator=5, _private=15)
        assert alice.public_value == 8
        assert bob.public_value == 19
        shared = alice.compute_shared(bob.public_value)
        assert shared == bob.compute_shared(alice.public_value)
        assert shared.hex() == (
            "9c17522de13300cf1a4fc296f55cfb7268c2de3a0877110a108ccdd12e68c50e"
        )

    def test_modp_2048_fixed_exponents(self):
        alice = DiffieHellman(_private=0xA5A5A5A5)
        bob = DiffieHellman(_private=0x5A5A5A5A)
        shared = alice.compute_shared(bob.public_value)
        assert shared == bob.compute_shared(alice.public_value)
        assert shared.hex() == (
            "d8834271de4640674d11c22110014dab09299054f240124425c0591a2783de65"
        )

    def test_shared_key_commutes_for_random_parties(self):
        for _ in range(3):
            alice, bob = DiffieHellman(), DiffieHellman()
            assert alice.compute_shared(bob.public_value) == bob.compute_shared(
                alice.public_value
            )


class TestFixedBase:
    @pytest.mark.parametrize("generator, prime", GROUPS, ids=["modp-2048", "p23-g5"])
    def test_equals_pow_at_every_bit_length(self, generator, prime):
        exponents = [0, 1] + [(1 << bits) - 1 for bits in range(1, 301)]
        exponents += [1 << (bits - 1) for bits in range(1, 301)]
        for x in exponents:
            assert _fixed_base_pow(generator, x, prime) == pow(generator, x, prime), x

    @given(st.integers(min_value=0, max_value=(1 << 300) - 1))
    def test_equals_pow_for_any_exponent(self, x):
        for generator, prime in GROUPS:
            assert _fixed_base_pow(generator, x, prime) == pow(generator, x, prime)

    def test_public_value_is_generator_power(self):
        dh = DiffieHellman()
        assert dh.public_value == pow(MODP_2048_GENERATOR, dh._private, MODP_2048_PRIME)


def test_key_pair_beats_square_and_multiply():
    # Relative guard, no absolute times: the table lookup costs about 0.3x
    # one pow over a 256-bit exponent, the table itself built beforehand.
    x = secrets.randbits(256) | (1 << 255)
    DiffieHellman()
    table = best_of(5, DiffieHellman, calls=20)
    plain = best_of(5, lambda: pow(MODP_2048_GENERATOR, x, MODP_2048_PRIME), calls=20)
    assert table <= 0.6 * plain
