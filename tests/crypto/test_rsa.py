"""RSA signature tests: the unforgeability dRBAC depends on."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import Identity
from repro.crypto.numtheory import bytes_to_int, modinv
from repro.crypto.rsa import RsaPublicKey, _encode_digest, _private_key, generate_keypair
from repro.errors import CryptoError, SignatureError

from .timing import best_of

# A pinned 512-bit key: CRT signing is checked against the textbook formula.
P = 0xF44FD03A0D643E4A4E5DA561394EFB70FCEAB6F66A94A86A5CB463FA49BE3ED1
Q = 0xCF1E11648A39F6A270D4FE974779E9ADC45BDA5314E694F2980C2F9B18444011
PINNED = _private_key(P, Q)
PINNED_D = modinv(PINNED.e, (P - 1) * (Q - 1))
# pow(m, d, n) for m = the padded digest of b"dRBAC credential".
PINNED_SIGNATURE = (
    "8323f45366a9b8e99662cd984b9b63c8386c5c29b9764cd159fa969f1a3c7cf2"
    "21389fb796c88af77ba2761f81bfe48759a60e4f0034a567ea477e30702937c0"
)


def _textbook_sign(key, d, message):
    m = bytes_to_int(_encode_digest(message, key.byte_length))
    return pow(m, d, key.n).to_bytes(key.byte_length, "big")


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(512)


@pytest.fixture(scope="module")
def other_keypair():
    return generate_keypair(512)


class TestSignVerify:
    def test_roundtrip(self, keypair):
        sig = keypair.sign(b"hello world")
        assert keypair.public_key.verify(b"hello world", sig)

    def test_wrong_message_rejected(self, keypair):
        sig = keypair.sign(b"hello world")
        assert not keypair.public_key.verify(b"hello worlD", sig)

    def test_wrong_key_rejected(self, keypair, other_keypair):
        sig = keypair.sign(b"msg")
        assert not other_keypair.public_key.verify(b"msg", sig)

    def test_tampered_signature_rejected(self, keypair):
        sig = bytearray(keypair.sign(b"msg"))
        sig[0] ^= 0xFF
        assert not keypair.public_key.verify(b"msg", bytes(sig))

    def test_truncated_signature_rejected(self, keypair):
        sig = keypair.sign(b"msg")
        assert not keypair.public_key.verify(b"msg", sig[:-1])

    def test_oversized_signature_rejected(self, keypair):
        big = (keypair.n + 1).to_bytes(keypair.byte_length, "big", signed=False)
        assert not keypair.public_key.verify(b"msg", big)

    def test_deterministic(self, keypair):
        assert keypair.sign(b"abc") == keypair.sign(b"abc")

    def test_empty_message(self, keypair):
        sig = keypair.sign(b"")
        assert keypair.public_key.verify(b"", sig)

    @given(st.binary(max_size=512))
    def test_any_message_roundtrips(self, message):
        # Module fixture unavailable in @given; use a cached pair.
        kp = _cached_pair()
        assert kp.public_key.verify(message, kp.sign(message))

    def test_require_valid_raises(self, keypair):
        with pytest.raises(SignatureError):
            keypair.public_key.require_valid(b"msg", b"\x00" * keypair.byte_length)

    def test_require_valid_passes(self, keypair):
        keypair.public_key.require_valid(b"msg", keypair.sign(b"msg"))


class TestCrt:
    def test_pinned_signature(self):
        assert PINNED.sign(b"dRBAC credential").hex() == PINNED_SIGNATURE
        assert _textbook_sign(PINNED, PINNED_D, b"dRBAC credential").hex() == PINNED_SIGNATURE

    @given(st.binary(max_size=512))
    def test_crt_equals_textbook_formula(self, message):
        assert PINNED.sign(message) == _textbook_sign(PINNED, PINNED_D, message)

    def test_crt_parameters(self):
        assert PINNED.n == P * Q
        assert PINNED.dp == PINNED_D % (P - 1)
        assert PINNED.dq == PINNED_D % (Q - 1)
        assert PINNED.qinv * Q % P == 1

    @pytest.mark.parametrize("field", ["p", "q", "dp", "dq", "qinv"])
    def test_corrupt_parameter_raises_instead_of_signing(self, field):
        corrupt = dataclasses.replace(PINNED, **{field: getattr(PINNED, field) ^ 1})
        with pytest.raises(CryptoError, match="public-exponent check"):
            corrupt.sign(b"msg")

    def test_secret_fields_stay_out_of_repr(self, keypair):
        text = repr(Identity(name="Holder", private_key=keypair))
        assert str(keypair.n) in text
        for secret in (keypair.p, keypair.q, keypair.dp, keypair.dq, keypair.qinv):
            assert hex(secret) not in text and str(secret) not in text

    def test_crt_sign_beats_the_full_modulus_pow(self):
        # Relative guard, no absolute times: two half-size exponentiations
        # plus the e = 65537 check measure 0.3-0.4x one m^d mod n.
        message = b"m" * 256
        m = bytes_to_int(_encode_digest(message, PINNED.byte_length))
        crt = best_of(5, lambda: PINNED.sign(message), calls=20)
        full = best_of(5, lambda: pow(m, PINNED_D, PINNED.n), calls=20)
        assert crt <= 0.6 * full


class TestKeys:
    def test_public_key_hashable(self, keypair):
        assert {keypair.public_key: 1}[RsaPublicKey(keypair.n, keypair.e)] == 1

    def test_fingerprint_stable_and_short(self, keypair):
        fp = keypair.public_key.fingerprint()
        assert fp == keypair.public_key.fingerprint()
        assert len(fp) == 16

    def test_fingerprints_differ(self, keypair, other_keypair):
        assert keypair.public_key.fingerprint() != other_keypair.public_key.fingerprint()

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            generate_keypair(256)

    def test_modulus_size(self, keypair):
        assert keypair.n.bit_length() >= 510  # two 256-bit primes


_PAIR = None


def _cached_pair():
    global _PAIR
    if _PAIR is None:
        _PAIR = generate_keypair(512)
    return _PAIR
