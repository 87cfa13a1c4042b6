"""The endpoint's connection table: an open channel serves the next dial
of the same principal, and nothing else.

Each safety test names the safeguard it guards: dropping that safeguard
from ``SwitchboardEndpoint`` makes it fail.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.drbac import DrbacEngine
from repro.errors import HandshakeError, NetworkError
from repro.net import EventScheduler, Network, Transport
from repro.switchboard import (
    AcceptAllAuthorizer,
    AuthorizationSuite,
    ChannelState,
    RoleAuthorizer,
    SwitchboardEndpoint,
)
from repro.switchboard.authorizer import Authorizer
from repro.switchboard.channel import ChannelSupervisor


class Echo:
    def ping(self, value):
        return value


@pytest.fixture()
def world(engine):
    net = Network()
    net.add_node("c")
    net.add_node("s")
    net.add_link("c", "s", latency_s=0.005, secure=False)
    transport = Transport(net, EventScheduler())
    client_ep = SwitchboardEndpoint(transport, "c")
    server_ep = SwitchboardEndpoint(transport, "s")
    server_ep.export("echo", Echo())
    server_ep.listen("open", AuthorizationSuite(identity=engine.identity("EchoSvc")))
    server_ep.listen(
        "members",
        AuthorizationSuite(
            identity=engine.identity("EchoSvc"),
            authorizer=RoleAuthorizer(engine, "Comp.NY.Member"),
        ),
    )
    return transport, client_ep, server_ep


def _suite(engine, name, credentials=(), authorizer=None):
    return AuthorizationSuite(
        identity=engine.identity(name),
        credentials=list(credentials),
        authorizer=authorizer or AcceptAllAuthorizer(),
    )


def _dial(client_ep, service, suite):
    return client_ep.connect("s", service, suite).wait()


class TestReuse:
    def test_same_suite_rides_the_open_connection(self, engine, world):
        _, client_ep, server_ep = world
        suite = _suite(engine, "Alice")
        first = _dial(client_ep, "open", suite)
        second = _dial(client_ep, "open", _suite(engine, "Alice"))
        assert second is first
        assert (client_ep.stats.dialled, client_ep.stats.reused) == (1, 1)
        assert len(server_ep.connections()) == 1
        assert second.call_sync("echo", "ping", [7]) == 7

    def test_closed_connection_is_not_handed_out(self, engine, world):
        transport, client_ep, _ = world
        suite = _suite(engine, "Alice")
        first = _dial(client_ep, "open", suite)
        first.close()
        transport.scheduler.run()
        second = _dial(client_ep, "open", suite)
        assert second is not first and second.state is ChannelState.OPEN
        assert (client_ep.stats.dialled, client_ep.stats.reused) == (2, 0)


class TestReuseSafety:
    def test_revoked_connection_is_never_returned(self, engine, world):
        """Safeguard: a move out of OPEN takes the connection out of the
        table."""
        transport, client_ep, _ = world
        cred = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        suite = _suite(engine, "Alice", [cred])
        first = _dial(client_ep, "members", suite)
        engine.revoke(cred)
        transport.scheduler.run()  # the server's revocation notice lands
        assert first.state is ChannelState.REVOKED
        pending = client_ep.connect("s", "members", suite)
        with pytest.raises(HandshakeError, match="failed to prove"):
            pending.wait()
        assert (client_ep.stats.dialled, client_ep.stats.reused) == (2, 0)

    def test_release_closes_only_with_the_last_lease(self, engine, world):
        """Safeguard: every lease is counted, and ``release`` closes at
        zero."""
        transport, client_ep, server_ep = world
        suite = _suite(engine, "Alice")
        first = _dial(client_ep, "open", suite)
        second = _dial(client_ep, "open", suite)
        first.release()
        transport.scheduler.run()
        assert second.state is ChannelState.OPEN
        assert second.call_sync("echo", "ping", [1]) == 1
        second.release()
        transport.scheduler.run()
        assert second.state is ChannelState.CLOSED
        assert server_ep.connections() == []

    @pytest.mark.parametrize("change", ["principal", "credential set", "signature"])
    def test_different_presenters_get_different_connections(
        self, engine, world, change
    ):
        """Safeguard: the key holds the local identity and every presented
        credential's id and signature bytes."""
        _, client_ep, _ = world
        cred = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        other = engine.delegate("Comp.NY", "Alice", "Comp.NY.Employee")
        base = _suite(engine, "Alice", [cred])
        variant = {
            "principal": _suite(engine, "Bob", [cred]),
            "credential set": _suite(engine, "Alice", [cred, other]),
            "signature": _suite(
                engine,
                "Alice",
                [dataclasses.replace(cred, signature=bytes(len(cred.signature)))],
            ),
        }[change]
        first = _dial(client_ep, "open", base)
        second = _dial(client_ep, "open", variant)
        assert second is not first
        assert (client_ep.stats.dialled, client_ep.stats.reused) == (2, 0)

    def test_stricter_policy_never_rides_an_accept_all_connection(
        self, engine, world
    ):
        """Safeguard: the key holds the client authorizer's policy.  The
        server proves no role, so a fresh dial demanding one is refused."""
        _, client_ep, _ = world
        _dial(client_ep, "open", _suite(engine, "Alice"))
        strict = _suite(
            engine, "Alice", authorizer=RoleAuthorizer(engine, "Comp.NY.Server")
        )
        with pytest.raises(HandshakeError, match="failed to prove"):
            client_ep.connect("s", "open", strict).wait()
        assert client_ep.stats.reused == 0

    def test_stopping_a_supervisor_keeps_a_shared_connection(self, engine, world):
        """Safeguard: a supervisor's stop releases its lease, and the
        heartbeats stop with the last supervisor, not with the channel."""
        transport, client_ep, _ = world
        scheduler = transport.scheduler
        suite = _suite(engine, "Alice")
        held = _dial(client_ep, "open", suite)
        first = ChannelSupervisor(client_ep, "s", "open", suite).start()
        second = ChannelSupervisor(client_ep, "s", "open", suite).start()
        scheduler.run_until(1.0)
        assert first.connection is held and second.connection is held
        first.stop()
        beats = held.stats.heartbeats_sent
        scheduler.run_until(3.0)
        assert held.stats.heartbeats_sent > beats  # the second still watches
        second.stop()
        scheduler.run()  # nothing left ticking: the queue drains
        assert held.state is ChannelState.OPEN
        assert held.call_sync("echo", "ping", [3]) == 3


@pytest.fixture()
def timed(key_store):
    """A world whose engine reads the transport's virtual clock, so
    credentials expire as the simulation runs."""
    net = Network()
    net.add_node("c")
    net.add_node("s")
    net.add_link("c", "s", latency_s=0.005, secure=False)
    scheduler = EventScheduler()
    transport = Transport(net, scheduler)
    engine = DrbacEngine(key_store=key_store, clock=scheduler)
    client_ep = SwitchboardEndpoint(transport, "c")
    server_ep = SwitchboardEndpoint(transport, "s")
    server_ep.export("echo", Echo())
    return engine, scheduler, client_ep, server_ep


class TestReuseAfterExpiry:
    """Safeguard: a listed connection is re-checked against the clock, as
    a fresh handshake's authorizers would check it, before it serves
    another dial."""

    def test_lapsed_presented_credential_is_not_reused(self, timed):
        engine, scheduler, client_ep, server_ep = timed
        server_ep.listen(
            "members",
            AuthorizationSuite(
                identity=engine.identity("EchoSvc"),
                authorizer=RoleAuthorizer(engine, "Comp.NY.Member"),
            ),
        )
        cred = engine.delegate(
            "Comp.NY", "Alice", "Comp.NY.Member", expires_at=5.0
        )
        suite = _suite(engine, "Alice", [cred])
        first = _dial(client_ep, "members", suite)
        scheduler.run_until(6.0)
        with pytest.raises(HandshakeError, match="failed to prove"):
            client_ep.connect("s", "members", suite).wait()
        assert (client_ep.stats.dialled, client_ep.stats.reused) == (2, 0)
        assert client_ep._table == {}
        first.release()

    def test_lapse_in_the_servers_proof_is_not_reused(self, timed):
        engine, scheduler, client_ep, server_ep = timed
        server_cred = engine.delegate(
            "Comp.NY", "EchoSvc", "Comp.NY.Server", expires_at=5.0
        )
        server_ep.listen(
            "open",
            AuthorizationSuite(
                identity=engine.identity("EchoSvc"), credentials=[server_cred]
            ),
        )
        suite = _suite(
            engine, "Alice", authorizer=RoleAuthorizer(engine, "Comp.NY.Server")
        )
        first = _dial(client_ep, "open", suite)
        scheduler.run_until(6.0)
        with pytest.raises(HandshakeError, match="failed to prove"):
            client_ep.connect("s", "open", suite).wait()
        assert first.state is ChannelState.REVOKED
        assert (client_ep.stats.dialled, client_ep.stats.reused) == (2, 0)

    def test_unexpired_credentials_still_ride(self, timed):
        engine, scheduler, client_ep, server_ep = timed
        server_ep.listen(
            "members",
            AuthorizationSuite(
                identity=engine.identity("EchoSvc"),
                authorizer=RoleAuthorizer(engine, "Comp.NY.Member"),
            ),
        )
        cred = engine.delegate(
            "Comp.NY", "Alice", "Comp.NY.Member", expires_at=50.0
        )
        suite = _suite(engine, "Alice", [cred])
        first = _dial(client_ep, "members", suite)
        scheduler.run_until(6.0)
        assert _dial(client_ep, "members", suite) is first
        assert (client_ep.stats.dialled, client_ep.stats.reused) == (1, 1)


class TestAuthorizerEquality:
    def test_accept_all_compares_by_value(self, engine):
        assert AcceptAllAuthorizer() == AcceptAllAuthorizer()
        assert hash(AcceptAllAuthorizer()) == hash(AcceptAllAuthorizer())
        assert RoleAuthorizer(engine, "Comp.NY.Member") != AcceptAllAuthorizer()

    def test_other_authorizers_compare_by_identity(self, engine):
        class Custom(Authorizer):
            pass

        policy = Custom()
        assert policy == policy
        assert Custom() != Custom()
        assert RoleAuthorizer(engine, "Comp.NY.Member") != RoleAuthorizer(
            engine, "Comp.NY.Member"
        )


class TestDialStateLeak:
    def test_unroutable_connect_leaves_no_dial(self, engine, world):
        transport, client_ep, _ = world
        transport.network.link("c", "s").up = False
        for _ in range(3):
            with pytest.raises(NetworkError):
                client_ep.connect("s", "open", _suite(engine, "Alice"))
        assert client_ep._dials == {}
        assert client_ep._conn_suites == {}

    def test_supervisor_redials_across_a_partition(self, engine, world):
        """Redials that hit the partition leave nothing behind, and the
        supervisor adopts a fresh connection after the heal."""
        transport, client_ep, _ = world
        scheduler = transport.scheduler
        supervisor = ChannelSupervisor(
            client_ep, "s", "open", _suite(engine, "Alice"), heartbeat_interval=0.5
        ).start()
        scheduler.run_until(1.0)
        before = supervisor.connection
        assert supervisor.healthy
        link = transport.network.link("c", "s")
        link.up = False
        scheduler.run_until(4.0)  # heartbeats declare it DEAD; redials fail
        assert before.state is ChannelState.DEAD and not supervisor.healthy
        link.up = True
        scheduler.run_until(12.0)
        assert supervisor.healthy and supervisor.reconnects == 1
        assert supervisor.connection.conn_id != before.conn_id
        assert client_ep._dials == {}
        assert set(client_ep._conn_suites) <= set(client_ep._connections)
        supervisor.stop()

    def test_abandoned_dial_cannot_open_a_connection(self, engine, world):
        """A handshake slower than the supervisor's patience is given up;
        its late WELCOME must not open a connection nobody holds."""
        transport, client_ep, _ = world
        scheduler = transport.scheduler
        link = transport.network.link("c", "s")
        link.latency_s = 2.0
        supervisor = ChannelSupervisor(
            client_ep, "s", "open", _suite(engine, "Alice"), heartbeat_interval=0.5
        ).start()
        scheduler.run_until(0.6)  # the first attempt is abandoned at 0.5
        link.latency_s = 0.005
        scheduler.run_until(6.0)
        assert supervisor.healthy
        assert client_ep.connections() == [supervisor.connection]
        assert client_ep._dials == {}
        supervisor.stop()
