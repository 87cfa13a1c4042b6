"""Authenticated cipher tests: confidentiality + integrity + AD binding."""

from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.cipher import AuthenticatedCipher, _derive_keys, _open, _seal
from repro.errors import CipherError

from .timing import best_of

KEY = b"k" * 32
ENC_KEY, MAC_KEY = _derive_keys(KEY)
NONCE = bytes(range(16))
AD = b"conn-1|i2r|" + (7).to_bytes(8, "big")

# length -> frame hex (short) or SHA-256 of the frame (long) for
# _seal(ENC_KEY, MAC_KEY, NONCE, _pattern(length), AD).
KNOWN_ANSWERS = {
    0: "000102030405060708090a0b0c0d0e0f54ffb746f56bdff690592e27eb963721"
       "dfa30f117424bbc40525bee0e3445d1e",
    1: "000102030405060708090a0b0c0d0e0fcbab04e18dcf3a23c6e8f82970792dc1"
       "d846fe075d5f12deee38c937c4d84a0355",
    31: "000102030405060708090a0b0c0d0e0fcb4d38b6d4a3881d73b35a13f5006e22"
        "15fe5957b8b4fd3c4b3fcdbd5e0efbb097e3bc7f9e05239069bdd3c242077149"
        "a997bf2895fdf22e857cdafd6fbd38",
    32: "000102030405060708090a0b0c0d0e0fcb4d38b6d4a3881d73b35a13f5006e22"
        "15fe5957b8b4fd3c4b3fcdbd5e0efb95e6e9711e82025a3ec388fc547033c4ed"
        "57bae19548ad711ef592314c4cde4152",
    33: "000102030405060708090a0b0c0d0e0fcb4d38b6d4a3881d73b35a13f5006e22"
        "15fe5957b8b4fd3c4b3fcdbd5e0efb95c0c6d54fd711d75fcbc31859fcd57873"
        "7771e8c60caa5c82115f032592dd16a98b",
    1024: "sha256:6edbe8762cb793f42cb5f60ce0c61f30f119a3d39e9b2bcc44f059573342f151",
    16384: "sha256:137dd281ac349bd47f2cbb94e14351e185abfe9d4fb327427dcf792cc0f8f87d",
}


def _pattern(length: int) -> bytes:
    return bytes(i % 251 for i in range(length))


def _reference_seal(nonce: bytes, plaintext: bytes, ad: bytes) -> bytes:
    """The construction spelled byte by byte, as the module docstring reads."""
    stream = hashlib.shake_256(ENC_KEY + nonce).digest(len(plaintext))
    ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
    mac_input = len(ad).to_bytes(8, "big") + ad + nonce + ciphertext
    return nonce + ciphertext + hmac.new(MAC_KEY, mac_input, hashlib.sha256).digest()


@pytest.fixture()
def cipher():
    return AuthenticatedCipher(KEY)


class TestRoundtrip:
    def test_basic(self, cipher):
        frame = cipher.encrypt(b"attack at dawn")
        assert cipher.decrypt(frame) == b"attack at dawn"

    def test_empty_plaintext(self, cipher):
        assert cipher.decrypt(cipher.encrypt(b"")) == b""

    def test_large_plaintext(self, cipher):
        data = bytes(range(256)) * 512
        assert cipher.decrypt(cipher.encrypt(data)) == data

    def test_with_associated_data(self, cipher):
        frame = cipher.encrypt(b"payload", b"seq-7")
        assert cipher.decrypt(frame, b"seq-7") == b"payload"

    @given(st.binary(max_size=20_000), st.binary(max_size=64))
    def test_property_roundtrip(self, plaintext, ad):
        c = AuthenticatedCipher(KEY)
        assert c.decrypt(c.encrypt(plaintext, ad), ad) == plaintext

    @given(st.binary(max_size=64 * 1024), st.binary(max_size=64))
    def test_property_frame_length(self, plaintext, ad):
        assert len(AuthenticatedCipher(KEY).encrypt(plaintext, ad)) == 16 + len(plaintext) + 32

    @pytest.mark.parametrize(
        "plaintext",
        [b"\x00", b"\x00\x00\x01", b"\x00" * 7 + b"tail", b"\x00" * 32, b"\x00" * 4097],
        ids=["one-zero", "zeros-then-one", "zeros-then-text", "zero-block", "zero-4097"],
    )
    def test_leading_zero_bytes_keep_their_length(self, cipher, plaintext):
        # int.from_bytes drops leading zeros; to_bytes must restore them.
        assert cipher.decrypt(cipher.encrypt(plaintext)) == plaintext

    def test_nonce_randomization(self, cipher):
        assert cipher.encrypt(b"x") != cipher.encrypt(b"x")


class TestKnownAnswers:
    @pytest.mark.parametrize("length", sorted(KNOWN_ANSWERS))
    def test_seal_vector_and_open_inverts(self, length):
        plaintext = _pattern(length)
        frame = _seal(ENC_KEY, MAC_KEY, NONCE, plaintext, AD)
        expected = KNOWN_ANSWERS[length]
        if expected.startswith("sha256:"):
            assert "sha256:" + hashlib.sha256(frame).hexdigest() == expected
        else:
            assert frame.hex() == expected
        assert frame[:16] == NONCE and len(frame) == 16 + length + 32
        assert _open(ENC_KEY, MAC_KEY, frame, AD) == plaintext

    @given(st.binary(max_size=4096), st.binary(max_size=64), st.binary(min_size=16, max_size=16))
    def test_matches_bytewise_reference(self, plaintext, ad, nonce):
        assert _seal(ENC_KEY, MAC_KEY, nonce, plaintext, ad) == _reference_seal(nonce, plaintext, ad)


class TestRejection:
    def test_tampered_ciphertext(self, cipher):
        frame = bytearray(cipher.encrypt(b"secret data"))
        frame[20] ^= 0x01
        with pytest.raises(CipherError):
            cipher.decrypt(bytes(frame))

    def test_tampered_nonce(self, cipher):
        frame = bytearray(cipher.encrypt(b"secret data"))
        frame[0] ^= 0x01
        with pytest.raises(CipherError):
            cipher.decrypt(bytes(frame))

    def test_tampered_tag(self, cipher):
        frame = bytearray(cipher.encrypt(b"secret data"))
        frame[-1] ^= 0x01
        with pytest.raises(CipherError):
            cipher.decrypt(bytes(frame))

    def test_wrong_associated_data(self, cipher):
        frame = cipher.encrypt(b"payload", b"seq-7")
        with pytest.raises(CipherError):
            cipher.decrypt(frame, b"seq-8")

    def test_ad_ciphertext_boundary_shift_rejected(self, cipher):
        ad = b"seq-7"
        frame = cipher.encrypt(b"payload", ad)
        nonce, ct, tag = frame[:16], frame[16:-32], frame[-32:]
        with pytest.raises(CipherError):
            cipher.decrypt(nonce + ct[1:] + tag, ad + ct[:1])
        with pytest.raises(CipherError):
            cipher.decrypt(nonce + ad[-1:] + ct + tag, ad[:-1])

    def test_tag_checked_before_any_keystream(self, cipher, monkeypatch):
        frame = bytearray(cipher.encrypt(b"secret data"))
        frame[-1] ^= 0x01

        def no_keystream(*args):
            raise AssertionError("keystream generated for an unauthenticated frame")

        monkeypatch.setattr("repro.crypto.cipher.hashlib.shake_256", no_keystream)
        with pytest.raises(CipherError):
            cipher.decrypt(bytes(frame))

    def test_truncated_frame(self, cipher):
        with pytest.raises(CipherError):
            cipher.decrypt(b"short")

    def test_wrong_key(self):
        frame = AuthenticatedCipher(KEY).encrypt(b"x")
        with pytest.raises(CipherError):
            AuthenticatedCipher(b"j" * 32).decrypt(frame)

    def test_short_session_key_rejected(self):
        with pytest.raises(CipherError):
            AuthenticatedCipher(b"short")


class TestConfidentiality:
    def test_plaintext_not_visible(self, cipher):
        frame = cipher.encrypt(b"TOPSECRET-MARKER" * 4)
        assert b"TOPSECRET-MARKER" not in frame

    def test_key_separation(self):
        # Same session key, different derived enc/mac keys per domain.
        c1 = AuthenticatedCipher(KEY)
        c2 = AuthenticatedCipher(KEY)
        assert c1.decrypt(c2.encrypt(b"cross")) == b"cross"


def test_bulk_cost_stays_within_a_small_multiple_of_one_hmac(cipher):
    # Relative guard, no absolute times: a per-byte Python loop is 60-150x one
    # HMAC pass over the same 16 KiB; the constant-C-call construction 6-14x
    # (the high end where SHA-256 has hardware support and Keccak does not).
    data = _pattern(16 * 1024)
    one_hmac = best_of(5, lambda: hmac.new(KEY, data, hashlib.sha256).digest())
    round_trip = best_of(5, lambda: cipher.decrypt(cipher.encrypt(data)))
    assert round_trip <= 40 * one_hmac
