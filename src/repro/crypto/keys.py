"""Key and identity abstractions shared by dRBAC and Switchboard.

An :class:`Identity` bundles an entity name with an RSA keypair; its public
half (:class:`PublicIdentity`) is what circulates inside credentials and
channel handshakes.  A :class:`KeyStore` caches keypairs per entity so
scenario builders and tests do not pay RSA keygen repeatedly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..errors import KeyBindingError
from .rsa import DEFAULT_KEY_BITS, RsaPrivateKey, RsaPublicKey, generate_keypair


@dataclass(frozen=True, slots=True)
class PublicIdentity:
    """The public, shareable half of an entity's identity."""

    name: str
    public_key: RsaPublicKey

    def fingerprint(self) -> str:
        return self.public_key.fingerprint()

    def verify(self, message: bytes, signature: bytes) -> bool:
        return self.public_key.verify(message, signature)


@dataclass(frozen=True, slots=True)
class Identity:
    """An entity name bound to a full RSA keypair."""

    name: str
    private_key: RsaPrivateKey
    public: PublicIdentity = field(init=False, compare=False, repr=False)
    """The public half, built once: :meth:`KeyStore.get` hands it to every
    signature check."""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "public", PublicIdentity(self.name, self.private_key.public_key)
        )

    def sign(self, message: bytes) -> bytes:
        return self.private_key.sign(message)

    @staticmethod
    def generate(name: str, bits: int = DEFAULT_KEY_BITS) -> "Identity":
        return Identity(name=name, private_key=generate_keypair(bits))


@dataclass
class KeyStore:
    """Thread-safe cache of identities keyed by entity name.

    Scenario builders create dozens of entities; generating each RSA keypair
    once and caching it keeps construction costs linear in distinct names.
    A name is bound once: a signature verdict taken under a name's key then
    holds for as long as the store does.
    """

    key_bits: int = DEFAULT_KEY_BITS
    _identities: dict[str, Identity] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def identity(self, name: str) -> Identity:
        """Return (creating on first use) the identity for ``name``."""
        with self._lock:
            ident = self._identities.get(name)
            if ident is None:
                ident = Identity.generate(name, bits=self.key_bits)
                self._identities[name] = ident
            return ident

    def bind(self, identity: Identity) -> None:
        """Bind an identity made elsewhere; a name bound to another one raises."""
        with self._lock:
            if self._identities.setdefault(identity.name, identity) != identity:
                raise KeyBindingError(f"{identity.name!r} is already bound to another key")

    def public(self, name: str) -> PublicIdentity:
        return self.identity(name).public

    def get(self, name: str) -> PublicIdentity | None:
        """The public identity of a known entity; never creates one.

        The dict-shaped lookup signature verifiers need, so a store can
        stand in for an identity directory.  Spelled with ``in`` and
        :meth:`public` so a store that overrides where identities live
        inherits a correct ``get``.
        """
        return self.public(name) if name in self else None

    def known_names(self) -> list[str]:
        with self._lock:
            return sorted(self._identities)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._identities

    def __len__(self) -> int:
        with self._lock:
            return len(self._identities)
