"""Mail application data model.

Plain JSON-compatible records: messages and accounts cross simulated
network links inside RPC frames, so everything here (de)serializes to
dicts without loss.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass(slots=True)
class Message:
    """One mail message."""

    sender: str
    recipient: str
    subject: str
    body: str

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "Message":
        return Message(
            sender=data["sender"],
            recipient=data["recipient"],
            subject=data["subject"],
            body=data["body"],
        )


@dataclass(slots=True)
class Account:
    """A directory entry: the AddressI data (Table 3a's Account)."""

    name: str
    phone: str = ""
    email: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "Account":
        return Account(name=data["name"], phone=data["phone"], email=data["email"])


def make_directory(accounts: list[Account]) -> dict[str, dict]:
    """Directory keyed by account name, in wire form."""
    return {account.name: account.to_dict() for account in accounts}
