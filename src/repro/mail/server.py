"""The MailServer component (§2.2).

"The main components of this application are: mail clients ..., a *mail
server* that manages the mail accounts for all users, *view mail server*
components that can be replicated as a cache close to the client, and
encryption/decryption components."

``MailServer`` implements ``MailI``.  Its cache, ``ViewMailServer``, is a
genuine *view* of the server declared in the application document
(:mod:`repro.mail.app_xml`): the ``mailboxes`` and ``directory`` state is
replicated into the view, and the coherence machinery keeps it
synchronized with the origin.
"""

from __future__ import annotations


class MailServer:
    """Central store of every user's mailbox and the shared directory."""

    def __init__(self, directory: dict[str, dict] | None = None) -> None:
        self.mailboxes: dict[str, list[dict]] = {}
        self.directory: dict[str, dict] = dict(directory or {})
        self.delivered = 0

    # -- MailI -----------------------------------------------------------

    def fetchMail(self, user: str) -> list[dict]:
        """Return (without draining) the user's mailbox."""
        return list(self.mailboxes.get(user, ()))

    def sendMail(self, mes: dict) -> bool:
        """Deliver a message into the recipient's mailbox."""
        recipient = mes.get("recipient", "")
        if not recipient:
            return False
        self.mailboxes.setdefault(recipient, []).append(dict(mes))
        self.delivered += 1
        return True

    def listAccounts(self) -> list[str]:
        return sorted(self.directory)

    # -- administration ------------------------------------------------------

    def create_account(self, name: str, phone: str = "", email: str = "") -> None:
        self.mailboxes.setdefault(name, [])
        self.directory[name] = {"name": name, "phone": phone, "email": email}

