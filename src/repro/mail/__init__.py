"""The component-based mail application (§2.2) and its three-site scenario.

The application is defined once, by the document
:data:`~repro.mail.app_xml.MAIL_APP_XML`; :func:`register_components`
loads it into a registrar.
"""

from .app_xml import (
    MAIL_APP_XML,
    VIEW_MAIL_CLIENT_MEMBER,
    VIEW_MAIL_SERVER_SPEC,
    register_components,
)
from .client import MailClient
from .crypto_components import Decryptor, Encryptor, derive_pair_key
from .messages import Account, Message, make_directory
from .scenario import (
    GATEWAYS,
    LAN_BANDWIDTH,
    LAN_LATENCY,
    MailScenario,
    NY_NODES,
    SD_NODES,
    SE_NODES,
    WAN_BANDWIDTH,
    WAN_LATENCY,
    build_network,
    build_scenario,
    issue_table2_credentials,
)
from .server import MailServer

__all__ = [
    "Account",
    "Decryptor",
    "Encryptor",
    "GATEWAYS",
    "LAN_BANDWIDTH",
    "LAN_LATENCY",
    "MAIL_APP_XML",
    "MailClient",
    "MailScenario",
    "MailServer",
    "Message",
    "NY_NODES",
    "SD_NODES",
    "SE_NODES",
    "VIEW_MAIL_CLIENT_MEMBER",
    "VIEW_MAIL_SERVER_SPEC",
    "WAN_BANDWIDTH",
    "WAN_LATENCY",
    "build_network",
    "build_scenario",
    "derive_pair_key",
    "issue_table2_credentials",
    "make_directory",
    "register_components",
]
