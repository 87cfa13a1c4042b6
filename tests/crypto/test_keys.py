"""Identity and KeyStore tests."""

from __future__ import annotations

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
