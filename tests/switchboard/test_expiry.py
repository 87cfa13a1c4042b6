"""Channel expiry tests: time-limited credentials on live channels.

A credential's ``expires_at`` is a deadline on the channel's proof
monitor: the channel lapses at the first instant past it, with no
opt-in call, exactly as it would on a revocation."""

from __future__ import annotations

import math

import pytest

from repro import obs
from repro.drbac import DrbacEngine
from repro.errors import ChannelClosedError, RevocationError
from repro.net import EventScheduler, Network, Transport
from repro.obs import names as metric_names
from repro.switchboard import (
    AuthorizationSuite,
    ChannelState,
    RoleAuthorizer,
    SwitchboardEndpoint,
)


class Clockwork:
    def tick(self):
        return "tock"


@pytest.fixture()
def world(key_store):
    net = Network()
    net.add_node("c")
    net.add_node("s")
    net.add_link("c", "s", latency_s=0.001)
    scheduler = EventScheduler()
    transport = Transport(net, scheduler)
    # The engine shares the scheduler as its clock so expiry follows
    # virtual time.
    engine = DrbacEngine(key_store=key_store, clock=scheduler)
    client_ep = SwitchboardEndpoint(transport, "c")
    server_ep = SwitchboardEndpoint(transport, "s")
    server_ep.export("clock", Clockwork())
    return engine, scheduler, transport, client_ep, server_ep


def _connect(engine, client_ep, server_ep, *, expires_at, publish=True):
    cred = engine.delegate(
        "Comp.NY", "Short", "Comp.NY.Member", expires_at=expires_at,
        publish=publish,
    )
    server_ep.listen(
        "clock",
        AuthorizationSuite(
            identity=engine.identity("ClockSvc"),
            authorizer=RoleAuthorizer(engine, "Comp.NY.Member"),
        ),
    )
    pending = client_ep.connect(
        "s", "clock",
        AuthorizationSuite(identity=engine.identity("Short"), credentials=[cred]),
    )
    return pending.wait()


class TestExpiryWatch:
    def test_channel_revokes_when_credential_lapses(self, world):
        engine, scheduler, transport, client_ep, server_ep = world
        connection = _connect(engine, client_ep, server_ep, expires_at=10.0)
        server_conn = server_ep.connections()[0]
        assert connection.call_sync("clock", "tick") == "tock"
        scheduler.run_until(15.0)
        assert server_conn.state is ChannelState.REVOKED
        assert connection.state is ChannelState.REVOKED

    def test_channel_survives_until_expiry(self, world):
        engine, scheduler, transport, client_ep, server_ep = world
        connection = _connect(engine, client_ep, server_ep, expires_at=100.0)
        server_conn = server_ep.connections()[0]
        scheduler.run_until(50.0)
        assert server_conn.state is ChannelState.OPEN
        assert connection.call_sync("clock", "tick") == "tock"

    def test_calls_blocked_after_lapse(self, world):
        engine, scheduler, transport, client_ep, server_ep = world
        connection = _connect(engine, client_ep, server_ep, expires_at=5.0)
        scheduler.run_until(10.0)
        with pytest.raises(ChannelClosedError):
            connection.call("clock", "tick")

    def test_revalidation_after_lapse(self, world):
        engine, scheduler, transport, client_ep, server_ep = world
        connection = _connect(engine, client_ep, server_ep, expires_at=5.0)
        scheduler.run_until(10.0)
        fresh = engine.delegate("Comp.NY", "Short", "Comp.NY.Member")
        assert connection.revalidate([fresh]).wait() is True
        assert connection.call_sync("clock", "tick") == "tock"

    def test_watch_self_cancels_after_revocation(self, world):
        engine, scheduler, transport, client_ep, server_ep = world
        connection = _connect(engine, client_ep, server_ep, expires_at=5.0)
        server_conn = server_ep.connections()[0]
        scheduler.run_until(10.0)
        # After the flip nothing is left to tick: the event queue drains.
        scheduler.run()
        assert server_conn.state is ChannelState.REVOKED

    def test_channel_closed_before_deadline_stays_closed(self, world):
        engine, scheduler, transport, client_ep, server_ep = world
        connection = _connect(engine, client_ep, server_ep, expires_at=5.0)
        server_conn = server_ep.connections()[0]
        connection.close()
        scheduler.run_until(1.0)
        assert server_conn.state is ChannelState.CLOSED
        # The cancelled deadline timer never reaches the closed monitor.
        scheduler.run_until(10.0)
        assert scheduler.pending == 0
        assert server_conn.state is ChannelState.CLOSED
        assert connection.state is ChannelState.CLOSED
        assert server_conn.monitor.valid


class TestExpiryIsAnEvent:
    """A held channel lapses on its own: no poll, no redial."""

    def test_held_channel_lapses_without_opt_in(self, world):
        engine, scheduler, transport, client_ep, server_ep = world
        connection = _connect(engine, client_ep, server_ep, expires_at=5.0)
        server_conn = server_ep.connections()[0]
        connection.start_heartbeats(1.0)
        scheduler.run_until(50.0)
        assert engine.prove("Short", "Comp.NY.Member") is None
        assert server_conn.state is ChannelState.REVOKED
        assert connection.state is ChannelState.REVOKED
        with pytest.raises(ChannelClosedError):
            connection.call("clock", "tick")

    def test_channel_lapses_when_the_proof_does(self, world):
        engine, scheduler, transport, client_ep, server_ep = world
        connection = _connect(engine, client_ep, server_ep, expires_at=5.0)
        server_conn = server_ep.connections()[0]
        scheduler.run_until(5.0)
        assert engine.prove("Short", "Comp.NY.Member") is not None
        assert server_conn.state is ChannelState.OPEN
        assert connection.state is ChannelState.OPEN
        scheduler.run_until(math.nextafter(5.0, math.inf))
        assert engine.prove("Short", "Comp.NY.Member") is None
        assert server_conn.state is ChannelState.REVOKED
        assert server_conn.monitor.invalidated_by is not None
        # The initiator learns from the ``revoked`` frame one link
        # latency later.
        scheduler.run_until(5.0 + 0.0011)
        assert connection.state is ChannelState.REVOKED

    def test_revalidation_moves_the_deadline(self, world):
        # Presented, unpublished credentials: the revalidated proof can
        # only use the fresh one, and the timer at 5 must not fire.
        engine, scheduler, transport, client_ep, server_ep = world
        connection = _connect(
            engine, client_ep, server_ep, expires_at=5.0, publish=False
        )
        server_conn = server_ep.connections()[0]
        scheduler.run_until(2.0)
        fresh = engine.delegate(
            "Comp.NY", "Short", "Comp.NY.Member", expires_at=20.0, publish=False
        )
        assert connection.revalidate([fresh]).wait() is True
        scheduler.run_until(15.0)
        assert server_conn.state is ChannelState.OPEN
        assert connection.call_sync("clock", "tick") == "tock"
        scheduler.run_until(20.0)
        assert server_conn.state is ChannelState.OPEN
        scheduler.run_until(math.nextafter(20.0, math.inf))
        assert server_conn.state is ChannelState.REVOKED
        assert server_conn.monitor.invalidated_by == fresh.credential_id
        scheduler.run_until(20.0011)
        assert connection.state is ChannelState.REVOKED

    def test_deadline_already_past_on_the_channel_clock(self, world, key_store):
        # An authorizer on its own clock can grant a proof whose deadline
        # the transport's clock has passed: the channel lapses at once.
        _, scheduler, transport, client_ep, server_ep = world
        engine = DrbacEngine(key_store=key_store)  # clock stays at 0
        scheduler.run_until(10.0)
        connection = _connect(engine, client_ep, server_ep, expires_at=5.0)
        scheduler.run_until(10.1)
        assert server_ep.connections()[0].state is ChannelState.REVOKED
        assert connection.state is ChannelState.REVOKED


def _connect_authorizing_the_server(engine, client_ep, server_ep, *, expires_at):
    """A channel whose *client* end watches the server's proof: the server
    presents ``ClockSvc → Comp.NY.Server`` (expiring at ``expires_at``)."""
    server_cred = engine.delegate(
        "Comp.NY", "ClockSvc", "Comp.NY.Server", expires_at=expires_at
    )
    engine.delegate("Comp.NY", "Short", "Comp.NY.Member")
    server_ep.listen(
        "clock",
        AuthorizationSuite(
            identity=engine.identity("ClockSvc"),
            credentials=[server_cred],
            authorizer=RoleAuthorizer(engine, "Comp.NY.Member"),
        ),
    )
    pending = client_ep.connect(
        "s", "clock",
        AuthorizationSuite(
            identity=engine.identity("Short"),
            authorizer=RoleAuthorizer(engine, "Comp.NY.Server"),
        ),
    )
    return pending.wait(), server_cred


class TestRevalidationKeepsAnInvalidEndShut:
    """The responder re-accepting the initiator cannot reopen an initiator
    end whose own monitor — over the responder's proof — is invalid."""

    def _assert_revalidation_refused(self, scheduler, connection, server_conn,
                                     credential_id):
        assert server_conn.state is ChannelState.REVOKED
        assert connection.state is ChannelState.REVOKED
        pending = connection.revalidate([])
        with pytest.raises(RevocationError, match=credential_id):
            pending.wait()
        scheduler.run_until(scheduler.now() + 0.01)
        assert connection.state is ChannelState.REVOKED
        assert server_conn.state is ChannelState.REVOKED
        with pytest.raises(ChannelClosedError):
            connection.call_sync("clock", "tick")

    def test_expired_server_credential(self, world):
        engine, scheduler, transport, client_ep, server_ep = world
        connection, server_cred = _connect_authorizing_the_server(
            engine, client_ep, server_ep, expires_at=5.0
        )
        server_conn = server_ep.connections()[0]
        assert connection.call_sync("clock", "tick") == "tock"
        scheduler.run_until(10.0)
        self._assert_revalidation_refused(
            scheduler, connection, server_conn, server_cred.credential_id
        )

    def test_revoked_server_credential(self, world):
        engine, scheduler, transport, client_ep, server_ep = world
        connection, server_cred = _connect_authorizing_the_server(
            engine, client_ep, server_ep, expires_at=None
        )
        server_conn = server_ep.connections()[0]
        engine.revoke(server_cred)
        scheduler.run_until(10.0)
        self._assert_revalidation_refused(
            scheduler, connection, server_conn, server_cred.credential_id
        )


class TestRefusedRevalidationSendsNothing:
    """An initiator whose own monitor is invalid refuses to revalidate
    before sending, so the responder never reopens, not even for the round
    trip it would take the initiator to send it back."""

    @pytest.mark.parametrize("lapse", ["expired", "revoked"])
    def test_the_responder_stays_shut(self, world, lapse):
        engine, scheduler, transport, client_ep, server_ep = world
        connection, server_cred = _connect_authorizing_the_server(
            engine, client_ep, server_ep,
            expires_at=5.0 if lapse == "expired" else None,
        )
        server_conn = server_ep.connections()[0]
        fired = []
        server_conn.on_trust_change(fired.append)
        if lapse == "revoked":
            engine.revoke(server_cred)
        scheduler.run_until(10.0)
        assert server_conn.state is ChannelState.REVOKED
        assert len(fired) == 1
        registry = obs.get_registry()
        revoked = registry.counter_value(metric_names.SWB_CHANNELS_REVOKED)
        frames = connection.stats.frames_sent

        pending = connection.revalidate([])
        assert pending.done
        assert connection.stats.frames_sent == frames
        deadline = scheduler.now() + 0.01
        while scheduler.pending and scheduler.now() < deadline:
            scheduler.step()
            assert server_conn.state is ChannelState.REVOKED
        with pytest.raises(RevocationError, match=server_cred.credential_id):
            pending.wait()
        assert server_conn.state is ChannelState.REVOKED
        assert registry.counter_value(metric_names.SWB_CHANNELS_REVOKED) == revoked
        assert len(fired) == 1


class TestRevalidationExtendsAPublishedGrant:
    """Presented credentials come first in the responder's proof search, so
    a fresh credential moves the deadline even while the old one is still
    published."""

    def test_published_fresh_credential_moves_the_deadline(self, world):
        engine, scheduler, transport, client_ep, server_ep = world
        connection = _connect(engine, client_ep, server_ep, expires_at=5.0)
        server_conn = server_ep.connections()[0]
        scheduler.run_until(2.0)
        fresh = engine.delegate(
            "Comp.NY", "Short", "Comp.NY.Member", expires_at=20.0
        )
        assert connection.revalidate([fresh]).wait() is True
        assert server_conn.monitor.expires_at == 20.0
        scheduler.run_until(15.0)
        assert server_conn.state is ChannelState.OPEN
        assert connection.call_sync("clock", "tick") == "tock"
        scheduler.run_until(math.nextafter(20.0, math.inf))
        assert server_conn.state is ChannelState.REVOKED
