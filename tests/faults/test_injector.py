"""FaultInjector: validation, injection, healing, and side effects."""

from __future__ import annotations

import pytest

from repro.errors import FaultError
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.net import EventScheduler, Network
from repro.psf.monitor import EnvironmentMonitor


@pytest.fixture()
def world():
    net = Network()
    net.add_node("a1", domain="A")
    net.add_node("a2", domain="A")
    net.add_node("b1", domain="B")
    net.add_link("a1", "a2", latency_s=0.001)
    net.add_link("a1", "b1", latency_s=0.05)
    net.add_link("a2", "b1", latency_s=0.05)
    scheduler = EventScheduler()
    monitor = EnvironmentMonitor(net)
    return net, scheduler, monitor


def _run(scheduler, until=100.0):
    scheduler.run_until(until)


class TestValidation:
    def test_unknown_link_rejected_before_run(self, world):
        net, scheduler, monitor = world
        injector = FaultInjector(scheduler, monitor)
        plan = FaultPlan([
            FaultEvent(at=1.0, kind=FaultKind.LINK_DOWN,
                       params={"a": "a1", "b": "ghost"}),
        ])
        with pytest.raises(Exception):
            injector.arm(plan)

    def test_empty_domain_rejected(self, world):
        net, scheduler, monitor = world
        injector = FaultInjector(scheduler, monitor)
        plan = FaultPlan([
            FaultEvent(at=1.0, kind=FaultKind.PARTITION, params={"domain": "Z"}),
        ])
        with pytest.raises(FaultError, match="empty domain"):
            injector.arm(plan)

    def test_storm_requires_engine(self, world):
        net, scheduler, monitor = world
        injector = FaultInjector(scheduler, monitor)
        plan = FaultPlan([
            FaultEvent(at=1.0, kind=FaultKind.REVOKE_STORM,
                       params={"credentials": ["1"]}),
        ])
        with pytest.raises(FaultError, match="engine"):
            injector.arm(plan)

    def test_unknown_credential_ids_rejected(self, world):
        net, scheduler, monitor = world
        injector = FaultInjector(scheduler, monitor, engine=object(), credentials={})
        plan = FaultPlan([
            FaultEvent(at=1.0, kind=FaultKind.REVOKE_STORM,
                       params={"credentials": ["99"]}),
        ])
        with pytest.raises(FaultError, match="unknown credential"):
            injector.arm(plan)


class TestLinkFaults:
    def test_link_down_then_heals(self, world):
        net, scheduler, monitor = world
        injector = FaultInjector(scheduler, monitor)
        injector.arm(FaultPlan([
            FaultEvent(at=1.0, kind=FaultKind.LINK_DOWN, duration=2.0,
                       params={"a": "a1", "b": "b1"}),
        ]))
        scheduler.run_until(1.5)
        assert not net.link("a1", "b1").up
        _run(scheduler)
        assert net.link("a1", "b1").up
        assert [e["phase"] for e in injector.log] == ["inject", "heal"]

    def test_latency_spike_restores_original(self, world):
        net, scheduler, monitor = world
        original = net.link("a1", "b1").latency_s
        injector = FaultInjector(scheduler, monitor)
        injector.arm(FaultPlan([
            FaultEvent(at=1.0, kind=FaultKind.LATENCY_SPIKE, duration=1.0,
                       params={"a": "a1", "b": "b1", "factor": 4.0}),
        ]))
        scheduler.run_until(1.5)
        assert net.link("a1", "b1").latency_s == pytest.approx(original * 4)
        _run(scheduler)
        assert net.link("a1", "b1").latency_s == pytest.approx(original)

    def test_loss_burst_restores_rate(self, world):
        net, scheduler, monitor = world
        injector = FaultInjector(scheduler, monitor)
        injector.arm(FaultPlan([
            FaultEvent(at=1.0, kind=FaultKind.LOSS_BURST, duration=1.0,
                       params={"a": "a1", "b": "b1", "rate": 0.4}),
        ]))
        scheduler.run_until(1.5)
        assert net.link("a1", "b1").loss_rate == 0.4
        _run(scheduler)
        assert net.link("a1", "b1").loss_rate == 0.0


class TestPartition:
    def test_partition_severs_only_boundary_links(self, world):
        net, scheduler, monitor = world
        injector = FaultInjector(scheduler, monitor)
        injector.arm(FaultPlan([
            FaultEvent(at=1.0, kind=FaultKind.PARTITION, duration=2.0,
                       params={"domain": "A"}),
        ]))
        scheduler.run_until(1.5)
        assert not net.link("a1", "b1").up
        assert not net.link("a2", "b1").up
        assert net.link("a1", "a2").up  # intra-domain untouched
        _run(scheduler)
        assert net.link("a1", "b1").up
        assert net.link("a2", "b1").up

    def test_heal_restores_exactly_what_was_severed(self, world):
        net, scheduler, monitor = world
        # Already-down boundary link must stay down after the heal.
        net.link("a2", "b1").up = False
        injector = FaultInjector(scheduler, monitor)
        injector.arm(FaultPlan([
            FaultEvent(at=1.0, kind=FaultKind.PARTITION, duration=1.0,
                       params={"domain": "A"}),
        ]))
        _run(scheduler)
        assert net.link("a1", "b1").up
        assert not net.link("a2", "b1").up


class TestNodeCrash:
    def test_crash_and_restart(self, world):
        net, scheduler, monitor = world
        injector = FaultInjector(scheduler, monitor)
        injector.arm(FaultPlan([
            FaultEvent(at=1.0, kind=FaultKind.NODE_CRASH, duration=2.0,
                       params={"node": "b1"}),
        ]))
        scheduler.run_until(1.5)
        assert not net.node("b1").up
        _run(scheduler)
        assert net.node("b1").up

    def test_crash_fails_mapped_shards(self, world):
        from repro.drbac.repository import DistributedRepository

        net, scheduler, monitor = world
        repo = DistributedRepository(replicated=True)
        injector = FaultInjector(
            scheduler, monitor, repository=repo, shard_map={"b1": ["Alice"]}
        )
        injector.arm(FaultPlan([
            FaultEvent(at=1.0, kind=FaultKind.NODE_CRASH, duration=2.0,
                       params={"node": "b1"}),
        ]))
        scheduler.run_until(1.5)
        assert repo.shard_is_down("Alice")
        _run(scheduler)
        assert not repo.shard_is_down("Alice")


class TestNodeCrashHonestHeal:
    def test_replicated_shard_rebuilds_from_replica(self, world, engine):
        from repro.drbac.repository import DistributedRepository

        net, scheduler, monitor = world
        repo = DistributedRepository(replicated=True)
        cred = engine.delegate("OrgA", "Alice", "OrgA.Reader", publish=False)
        repo.publish(cred)
        injector = FaultInjector(
            scheduler, monitor, repository=repo, shard_map={"b1": ["Alice"]}
        )
        injector.arm(FaultPlan([
            FaultEvent(at=1.0, kind=FaultKind.NODE_CRASH, duration=2.0,
                       params={"node": "b1"}),
        ]))
        _run(scheduler)
        assert not repo.shard_is_down("Alice")
        assert [d.credential_id for d in repo.find_by_subject(cred.subject)] == [
            cred.credential_id
        ]

    def test_unreplicated_shard_comes_back_empty(self, world, engine):
        from repro.drbac.repository import DistributedRepository

        net, scheduler, monitor = world
        repo = DistributedRepository(replicated=False)
        cred = engine.delegate("OrgA", "Alice", "OrgA.Reader", publish=False)
        repo.publish(cred)
        injector = FaultInjector(
            scheduler, monitor, repository=repo, shard_map={"b1": ["Alice"]}
        )
        injector.arm(FaultPlan([
            FaultEvent(at=1.0, kind=FaultKind.NODE_CRASH, duration=2.0,
                       params={"node": "b1"}),
        ]))
        _run(scheduler)
        # Honest data loss: no replica existed, so nothing survives.
        assert repo.find_by_subject(cred.subject) == []


class TestNodeCrashRestart:
    def test_requires_registered_durable_node(self, world):
        net, scheduler, monitor = world
        injector = FaultInjector(scheduler, monitor)
        plan = FaultPlan([
            FaultEvent(at=1.0, kind=FaultKind.NODE_CRASH_RESTART, duration=2.0,
                       params={"node": "b1"}),
        ])
        with pytest.raises(FaultError, match="no DurableNode"):
            injector.arm(plan)

    def test_crash_restart_runs_real_recovery(self, world, engine):
        from repro.durable import DurableNode, UpdateFeed

        net, scheduler, monitor = world
        feed = UpdateFeed()
        node = DurableNode(engine=engine, feed=feed)
        for name in ("Alice", "Bob"):
            feed.publish(
                engine.delegate("OrgA", name, "OrgA.Reader", publish=False)
            )
        injector = FaultInjector(
            scheduler, monitor, durable_nodes={"b1": node}
        )
        injector.arm(FaultPlan([
            FaultEvent(at=1.0, kind=FaultKind.NODE_CRASH_RESTART, duration=2.0,
                       params={"node": "b1", "torn_tail": 3}),
        ]))
        scheduler.run_until(1.5)
        assert not node.up and not net.node("b1").up
        digest_down = node.state_digest()
        _run(scheduler)
        assert node.up and net.node("b1").up
        assert node.recoveries == 1
        # The torn tail killed the last frame; catch-up re-pulled it, so
        # the recovered durable state matches the pre-crash one.
        assert node.state_digest() != digest_down  # mirror was wiped while down
        assert node.published_ids() and node.last_seqno == feed.seqno


class TestListeners:
    def test_listener_sees_inject_and_heal(self, world):
        net, scheduler, monitor = world
        injector = FaultInjector(scheduler, monitor)
        seen = []
        injector.on_event(lambda event, phase: seen.append((event.kind, phase)))
        injector.arm(FaultPlan([
            FaultEvent(at=1.0, kind=FaultKind.LINK_DOWN, duration=1.0,
                       params={"a": "a1", "b": "b1"}),
        ]))
        _run(scheduler)
        assert seen == [
            (FaultKind.LINK_DOWN, "inject"),
            (FaultKind.LINK_DOWN, "heal"),
        ]
