"""Handshakes per mail-deployment run: an open channel serves the next
session of the same principal.

The run has the shape of the ``mail_deploy`` benchmark workload: four
requests (Bob privately from ``sd-pc1``, Bob at ``sd-pc2`` behind a
``ViewMailServer`` cache, Charlie privately from ``se-pc1``, Alice on the
LAN) served in two rotations, each session also taking its Table 4 client
view of a MailClient in New York and releasing it afterwards.  Each
rotation dials Bob's and Charlie's channels to ``MailServer``, the new
cache instance's channel, and Charlie's channel to the MailClient, which
makes 8 handshakes when every session dials afresh.  The second rotation
finds Bob's and Charlie's ``MailServer`` channels still open; the cache
instance is a new principal and Charlie's view channel was released.
"""

from __future__ import annotations

from repro.mail.client import MailClient
from repro.psf import EdgeRequirement, ServiceRequest
from repro.switchboard import AuthorizationSuite, RoleAuthorizer, ServiceAddress
from repro.views import IMAGE_BINDING_PREFIX, ViewRuntime
from repro.views.coherence import ImageService

REQUESTS = (
    ("Bob", "sd-pc1", EdgeRequirement(privacy=True)),
    ("Bob", "sd-pc2", EdgeRequirement(min_bandwidth_bps=50e6)),
    ("Charlie", "se-pc1", EdgeRequirement(privacy=True)),
    ("Alice", "ny-pc1", EdgeRequirement()),
)
CLIENT_HOST = "ny-pc1"


def _host_mail_client(scenario) -> MailClient:
    original = MailClient(owner="shared")
    runtime = scenario.psf.deployer.node_runtime(CLIENT_HOST)
    image = ImageService(original)
    for exporter in (runtime.rpc.exporter, runtime.switchboard.exporter):
        exporter.export("mailclient", original)
        exporter.export("mailclient#image", image)
    runtime.switchboard.listen(
        "mailclient",
        AuthorizationSuite(
            identity=scenario.engine.identity("MailClientSvc"),
            authorizer=RoleAuthorizer(scenario.engine, "Comp.NY.Partner"),
        ),
    )
    return original


def _view_runtime(scenario, node: str, suite: AuthorizationSuite) -> ViewRuntime:
    endpoints = scenario.psf.deployer.node_runtime(node)
    runtime = ViewRuntime(rpc=endpoints.rpc, switchboard=endpoints.switchboard, suite=suite)
    address = ServiceAddress(node=CLIENT_HOST, service="mailclient", target="mailclient")
    runtime.naming.bind("NotesI", address)
    runtime.naming.bind("AddressI", address)
    runtime.naming.bind(
        IMAGE_BINDING_PREFIX + "MailClient",
        ServiceAddress(node=CLIENT_HOST, service="mailclient", target="mailclient#image"),
    )
    return runtime


def _handshake_counts(scenario) -> tuple[int, int]:
    runtimes = scenario.psf.deployer._node_runtimes.values()
    return (
        sum(runtime.switchboard.stats.dialled for runtime in runtimes),
        sum(runtime.switchboard.stats.reused for runtime in runtimes),
    )


def test_two_rotations_dial_six_channels(scenario_factory):
    scenario = scenario_factory()
    original = _host_mail_client(scenario)
    psf = scenario.psf
    for rotation in range(2):
        for client, node, qos in REQUESTS:
            credentials = scenario.client_wallet(client).credentials()
            suite = AuthorizationSuite(
                identity=scenario.engine.identity(client), credentials=credentials
            )
            session = psf.request_service(
                ServiceRequest(client=client, client_node=node, interface="MailI", qos=qos),
                client_suite=suite,
            )
            subject = f"{client}-{node}-{rotation}"
            assert session.access.sendMail(
                {"sender": client, "recipient": client, "subject": subject, "body": "b"}
            )
            assert session.access.fetchMail(client)[-1]["subject"] == subject
            runtime = _view_runtime(scenario, node, suite)
            psf.serve_client_view(
                "MailClient", client, original=original,
                credentials=credentials, runtime=runtime,
            )
            runtime.close()
    assert _handshake_counts(scenario) == (6, 2)
