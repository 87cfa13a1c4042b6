"""Identity and KeyStore tests."""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto import Identity, KeyStore


class TestIdentity:
    def test_sign_verify_through_public(self, key_store):
        ident = key_store.identity("Tester")
        sig = ident.sign(b"statement")
        assert ident.public.verify(b"statement", sig)

    def test_public_carries_name(self, key_store):
        assert key_store.public("Tester2").name == "Tester2"

    def test_generate_standalone(self):
        ident = Identity.generate("Solo", bits=512)
        assert ident.public.verify(b"m", ident.sign(b"m"))

    def test_public_halves_are_built_once(self, key_store):
        ident = key_store.identity("Once")
        assert ident.public is ident.public
        assert ident.public.public_key is ident.private_key.public_key
        assert key_store.get("Once") is key_store.get("Once")

    def test_public_halves_stay_out_of_equality_repr_and_replace(self, key_store):
        ident = key_store.identity("Once")
        twin = Identity(name="Once", private_key=dataclasses.replace(ident.private_key))
        assert twin == ident and hash(twin) == hash(ident)
        assert twin.public == ident.public and twin.public is not ident.public
        assert repr(twin) == repr(ident) and "public" not in repr(ident)
        assert dataclasses.replace(ident, name="Twice").public.name == "Twice"
        with pytest.raises(ValueError):
            dataclasses.replace(ident, public=ident.public)


class TestKeyStore:
    def test_caches_identities(self, key_store):
        assert key_store.identity("CacheMe") is key_store.identity("CacheMe")

    def test_distinct_names_distinct_keys(self, key_store):
        a = key_store.identity("A-ent")
        b = key_store.identity("B-ent")
        assert a.private_key.n != b.private_key.n

    def test_contains_and_len(self):
        store = KeyStore(key_bits=512)
        assert "X" not in store
        store.identity("X")
        assert "X" in store
        assert len(store) == 1

    def test_get_never_creates(self):
        store = KeyStore(key_bits=512)
        assert store.get("X") is None
        assert "X" not in store
        store.identity("X")
        assert store.get("X") == store.public("X")

    def test_known_names_sorted(self):
        store = KeyStore(key_bits=512)
        store.identity("b")
        store.identity("a")
        assert store.known_names() == ["a", "b"]
