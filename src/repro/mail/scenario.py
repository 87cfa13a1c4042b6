"""The three-site mail scenario (§2.2, §3.3, Table 2).

"The mail service is used by a company (*Comp*) to provide e-mail
facilities to its members, across three sites: the main office in New
York, a branch office in San Diego, and a partner organization (*Inc*) in
Seattle.  The three sites compare to LANs, with fast and reliable links,
connected to each other by high latency and insecure WAN links."

:func:`build_scenario` constructs the whole world: network topology,
Guards, the seventeen Table 2 credentials (numbered identically),
node/client leaf credentials, the application its document declares
(components, views and the Table 4 policy, :mod:`repro.mail.app_xml`),
and the running central MailServer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..drbac.delegation import Delegation
from ..drbac.model import AttrRange, AttrScalar, AttrSet, EntityRef, Role
from ..drbac.wallet import Wallet
from ..psf.framework import PSF
from ..psf.guard import Guard
from .app_xml import register_components
from .server import MailServer

# Site topology constants.
LAN_LATENCY = 0.001
LAN_BANDWIDTH = 1e9
WAN_LATENCY = 0.050
WAN_BANDWIDTH = 10e6

NY_NODES = ("ny-server", "ny-pc1", "ny-pc2")
SD_NODES = ("sd-pc1", "sd-pc2")
SE_NODES = ("se-pc1",)
GATEWAYS = ("ny-gw", "sd-gw", "se-gw")


@dataclass
class MailScenario:
    """Everything the examples, tests, and benchmarks need."""

    psf: PSF
    ny_guard: Guard
    sd_guard: Guard
    se_guard: Guard
    mail_guard: Guard
    credentials: dict[int, Delegation] = field(default_factory=dict)
    wallets: dict[str, Wallet] = field(default_factory=dict)
    server: MailServer | None = None

    @property
    def engine(self):
        return self.psf.engine

    def client_wallet(self, name: str) -> Wallet:
        return self.wallets[name]


def build_network(psf: PSF) -> None:
    """Three LAN sites joined by insecure, slow WAN links via gateways."""
    for name in NY_NODES:
        psf.network.add_node(name, domain="NY", properties={"vendor": "Dell", "os": "Linux"})
    for name in SD_NODES:
        psf.network.add_node(name, domain="SD", properties={"vendor": "Dell", "os": "SuSe"})
    for name in SE_NODES:
        psf.network.add_node(name, domain="SE", properties={"vendor": "IBM", "os": "Windows"})
    psf.network.add_node("ny-gw", domain="NY", properties={"role": "gateway"})
    psf.network.add_node("sd-gw", domain="SD", properties={"role": "gateway"})
    psf.network.add_node("se-gw", domain="SE", properties={"role": "gateway"})

    for site_nodes, gateway in ((NY_NODES, "ny-gw"), (SD_NODES, "sd-gw"), (SE_NODES, "se-gw")):
        for name in site_nodes:
            psf.network.add_link(
                name, gateway, latency_s=LAN_LATENCY, bandwidth_bps=LAN_BANDWIDTH, secure=True
            )
    # Full LAN mesh inside each site keeps intra-site paths one hop.
    for site_nodes in (NY_NODES, SD_NODES):
        for i, a in enumerate(site_nodes):
            for b in site_nodes[i + 1 :]:
                psf.network.add_link(
                    a, b, latency_s=LAN_LATENCY, bandwidth_bps=LAN_BANDWIDTH, secure=True
                )
    # Insecure WAN links between sites.
    psf.network.add_link(
        "ny-gw", "sd-gw", latency_s=WAN_LATENCY, bandwidth_bps=WAN_BANDWIDTH, secure=False
    )
    psf.network.add_link(
        "ny-gw", "se-gw", latency_s=WAN_LATENCY, bandwidth_bps=WAN_BANDWIDTH, secure=False
    )
    psf.network.add_link(
        "sd-gw", "se-gw", latency_s=2 * WAN_LATENCY, bandwidth_bps=WAN_BANDWIDTH, secure=False
    )


def issue_table2_credentials(scenario: MailScenario) -> None:
    """The seventeen credentials of Table 2, numbered as in the paper."""
    engine = scenario.engine
    creds = scenario.credentials
    # Vendor signing identities exist a priori.
    engine.identity("Dell")
    engine.identity("IBM")

    ny, sd, se, mail = (
        scenario.ny_guard,
        scenario.sd_guard,
        scenario.se_guard,
        scenario.mail_guard,
    )

    # --- New York -----------------------------------------------------------
    creds[1] = ny.certify_member("Alice")
    creds[2] = ny.map_role(Role("Comp.SD", "Member"), "Member")
    creds[3] = ny.grant_assignment(EntityRef("Comp.SD"), "Partner")
    creds[4] = mail.certify(
        Role("Dell", "Linux"),
        mail.role("Node"),
        attributes={"Secure": AttrSet([True, False]), "Trust": AttrRange(0, 10)},
    )
    creds[5] = mail.certify(
        Role("Dell", "SuSe"),
        mail.role("Node"),
        attributes={"Secure": AttrSet([True, False]), "Trust": AttrRange(0, 7)},
    )
    creds[6] = mail.certify(
        Role("IBM", "Windows"),
        mail.role("Node"),
        attributes={"Secure": AttrSet([False]), "Trust": AttrRange(0, 1)},
    )
    creds[7] = engine.delegate("Dell", Role("Comp.NY", "PC"), Role("Dell", "Linux"))
    creds[8] = ny.certify(
        Role("Mail", "MailClient"), ny.executable_role, attributes={"CPU": AttrScalar(100)}
    )
    creds[9] = ny.certify(
        Role("Mail", "Encryptor"), ny.executable_role, attributes={"CPU": AttrScalar(100)}
    )
    creds[10] = ny.certify(
        Role("Mail", "Decryptor"), ny.executable_role, attributes={"CPU": AttrScalar(100)}
    )

    # --- San Diego -------------------------------------------------------------
    creds[11] = sd.certify_member("Bob")
    creds[12] = sd.certify(Role("Inc.SE", "Member"), Role("Comp.NY", "Partner"))
    creds[13] = engine.delegate("Dell", Role("Comp.SD", "PC"), Role("Dell", "SuSe"))
    creds[14] = sd.accept_executables(Role("Comp.NY", "Executable"), cpu=80)

    # --- Seattle -------------------------------------------------------------------
    creds[15] = se.certify_member("Charlie")
    creds[16] = engine.delegate("IBM", Role("Inc.SE", "PC"), Role("IBM", "Windows"))
    creds[17] = se.accept_executables(Role("Comp.NY", "Executable"), cpu=40)

    # --- scenario extensions (not in Table 2, needed to run the app) -----------
    # Server-side component roles so caches deploy under the same regime.
    ny.certify(
        Role("Mail", "MailServer"), ny.executable_role, attributes={"CPU": AttrScalar(100)}
    )
    ny.certify(
        Role("Mail", "ViewMailServer"),
        ny.executable_role,
        attributes={"CPU": AttrScalar(100)},
    )
    # NY accepts its own executables trivially via role ownership (creds
    # 8-10 already target Comp.NY.Executable).

    # Node leaf credentials: each PC proves its site's PC role.
    for node in NY_NODES:
        ny.certify(EntityRef(node), ny.role("PC"))
    for node in SD_NODES:
        sd.certify(EntityRef(node), sd.role("PC"))
    for node in SE_NODES:
        se.certify(EntityRef(node), se.role("PC"))


def build_scenario(
    *,
    key_bits: int | None = None,
    key_store=None,
    with_server: bool = True,
) -> MailScenario:
    """Construct the complete three-site world of §2.2."""
    psf = PSF(key_bits=key_bits, key_store=key_store)
    build_network(psf)

    ny = psf.add_guard("NY", "Comp.NY")
    sd = psf.add_guard("SD", "Comp.SD")
    se = psf.add_guard("SE", "Inc.SE")
    mail = Guard(psf.engine, "Mail")
    psf.set_app_guard(mail)

    scenario = MailScenario(
        psf=psf, ny_guard=ny, sd_guard=sd, se_guard=se, mail_guard=mail
    )
    issue_table2_credentials(scenario)
    register_components(psf.registrar)

    # Client wallets hold only the leaf credentials their own Guard issued
    # (cross-domain mapping credentials live in the repository).
    for client, number in (("Alice", 1), ("Bob", 11), ("Charlie", 15)):
        wallet = Wallet(owner=client)
        wallet.grant(scenario.credentials[number])
        scenario.wallets[client] = wallet
        psf.engine.identity(client)  # materialize the client's keypair

    if with_server:
        server = MailServer()
        for user, phone in (("Alice", "212-555-0001"), ("Bob", "619-555-0002"), ("Charlie", "206-555-0003")):
            server.create_account(user, phone=phone, email=f"{user.lower()}@comp.example")
        psf.host_existing("MailServer", "ny-server", server, "MailServer")
        scenario.server = server

    return scenario
