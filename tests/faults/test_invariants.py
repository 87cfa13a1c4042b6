"""Invariant suite and the prebuilt end-of-run checks."""

from __future__ import annotations

from types import SimpleNamespace

from repro.faults import InvariantSuite
from repro.faults.invariants import (
    calls_settled,
    sessions_on_live_nodes,
    views_coherent,
)
from repro.net import EventScheduler
from repro.switchboard.rpc import CallTable


def _endpoint(label, *, settle):
    """An endpoint owning one real call table with one call in it."""
    table = CallTable(EventScheduler())
    call = table.open("fetch")
    if settle:
        table.settle(call.call_id).resolve(None)
    return SimpleNamespace(call_tables=lambda: [(label, table)])


class TestSuite:
    def test_empty_suite_holds(self):
        assert InvariantSuite().run() == []

    def test_recorded_violations_surface(self):
        suite = InvariantSuite()
        suite.record("revocation-enforced", "stale proof survived")
        violations = suite.run()
        assert len(violations) == 1
        assert violations[0].invariant == "revocation-enforced"
        assert violations[0].to_dict()["detail"] == "stale proof survived"

    def test_checks_merge_with_recorded(self):
        suite = InvariantSuite()
        suite.record("online", "seen live")
        suite.add_check("sweep", lambda: ["left behind"])
        assert [v.invariant for v in suite.run()] == ["online", "sweep"]


class TestPendingCalls:
    def test_settled_world_passes(self):
        assert calls_settled([_endpoint("n1", settle=True)])() == []

    def test_hanging_call_reported(self):
        details = calls_settled([_endpoint("n1", settle=False)])()
        assert details == ["n1: call #1 'fetch' still pending"]


class TestChannels:
    def test_hanging_channel_call_reported(self):
        details = calls_settled([_endpoint("n2/c-1", settle=False)])()
        assert len(details) == 1
        assert "c-1" in details[0]


class TestSessions:
    def _network(self, down=()):
        nodes = {}

        def node(name):
            if name not in nodes:
                nodes[name] = SimpleNamespace(name=name, up=name not in down)
            return nodes[name]

        return SimpleNamespace(node=node)

    def _session(self, placements, needs_redeploy=False):
        components = [
            SimpleNamespace(component=SimpleNamespace(name=c), node=n)
            for c, n in placements
        ]
        return SimpleNamespace(
            needs_redeploy=needs_redeploy,
            plan=SimpleNamespace(components=components),
        )

    def test_live_sessions_pass(self):
        check = sessions_on_live_nodes(
            self._network(), [self._session([("Enc", "n1")])]
        )
        assert check() == []

    def test_dead_host_reported(self):
        check = sessions_on_live_nodes(
            self._network(down={"n1"}), [self._session([("Enc", "n1")])]
        )
        details = check()
        assert len(details) == 1 and "n1" in details[0]

    def test_unredeployed_eviction_reported(self):
        check = sessions_on_live_nodes(
            self._network(), [self._session([], needs_redeploy=True)]
        )
        assert check() == ["session[0] evicted instances never redeployed"]


class TestViewCoherence:
    def test_agreement_passes(self):
        assert views_coherent("v", lambda: [1], lambda: [1])() == []

    def test_divergence_reported(self):
        details = views_coherent("v", lambda: [1], lambda: [2])()
        assert len(details) == 1 and details[0].startswith("v:")
