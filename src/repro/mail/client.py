"""The MailClient component: the paper's running example (Table 3a).

Three interfaces:

* ``MessageI`` — send and receive messages;
* ``AddressI`` — query the phone / e-mail directory;
* ``NotesI``   — personal notes and meeting scheduling.

``findAccount`` is the private helper of Table 3a; views that copy
``getPhone``/``getEmail`` locally pull it in automatically (VIG's helper
copying), exactly as the Java original must copy it into view bytecode.
The interfaces themselves are declared in the application document
(:data:`repro.mail.app_xml.MAIL_APP_XML`).
"""

from __future__ import annotations


class MailClient:
    """The original (represented) object of Table 3a."""

    def __init__(self, owner: str = "", accounts: dict[str, dict] | None = None) -> None:
        self.owner = owner
        self.accounts: dict[str, dict] = dict(accounts or {})
        self.inbox: list[dict] = []
        self.outbox: list[dict] = []
        self.notes: list[str] = []
        self.meetings: list[str] = []

    # -- MessageI ----------------------------------------------------------

    def sendMessage(self, mes: dict) -> bool:
        """Queue a message for delivery."""
        self.outbox.append(dict(mes))
        return True

    def receiveMessages(self) -> list[dict]:
        """Drain and return the inbox (the paper's ``Set`` return)."""
        messages = list(self.inbox)
        self.inbox = []
        return messages

    # -- AddressI ------------------------------------------------------------

    def getPhone(self, name: str) -> str:
        return self.findAccount(name)["phone"]

    def getEmail(self, name: str) -> str:
        return self.findAccount(name)["email"]

    # -- NotesI ----------------------------------------------------------------

    def addNote(self, note: str) -> None:
        self.notes.append(note)

    def addMeeting(self, name: str) -> bool:
        """Full members may schedule meetings directly."""
        self.meetings.append(name)
        return True

    # -- private helper (Table 3a's findAccount) ----------------------------------

    def findAccount(self, name: str) -> dict:
        try:
            return self.accounts[name]
        except KeyError:
            raise KeyError(f"no account named {name!r}") from None
