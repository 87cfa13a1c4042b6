"""Plan enumeration and cost-optimal selection tests."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import PlanningError
from repro.obs import names as metric_names
from repro.psf import EdgeRequirement, ServiceRequest
from repro.psf.adaptation import plan_signature
from repro.psf.component import ComponentType, Port


def request(**kwargs):
    defaults = dict(client="Bob", client_node="sd-pc1", interface="MailI")
    defaults.update(kwargs)
    return ServiceRequest(**defaults)


class TestEnumeration:
    def test_multiple_feasible_configurations(self, shared_scenario):
        planner = shared_scenario.psf.planner()
        plans = planner.enumerate_plans(
            request(qos=EdgeRequirement(privacy=True, channel="rmi"))
        )
        assert len(plans) > 1
        names = {tuple(sorted(p.deployed_names())) for p in plans}
        assert ("ViewMailServer",) in names
        assert ("Decryptor", "Encryptor") in names

    def test_limit_respected(self, shared_scenario):
        planner = shared_scenario.psf.planner()
        plans = planner.enumerate_plans(
            request(qos=EdgeRequirement(privacy=True, channel="rmi")), limit=3
        )
        assert len(plans) <= 3

    def test_infeasible_request_enumerates_nothing(self, shared_scenario):
        planner = shared_scenario.psf.planner()
        assert planner.enumerate_plans(request(interface="GhostI")) == []

    def test_every_enumerated_plan_is_well_formed(self, shared_scenario):
        """Invariant: all links reference planned or existing providers,
        every planned component's requirements are wired, and the client
        edge exists."""
        planner = shared_scenario.psf.planner()
        existing = {i.name for i in planner.existing}
        plans = planner.enumerate_plans(
            request(qos=EdgeRequirement(privacy=True, channel="rmi"))
        )
        for plan in plans:
            ids = {p.instance_id for p in plan.components}
            consumers = {l.consumer for l in plan.links}
            assert "client" in consumers
            for link in plan.links:
                assert link.provider in ids | existing
                assert link.consumer == "client" or link.consumer in ids
            for planned in plan.components:
                wired = {
                    l.interface for l in plan.links if l.consumer == planned.instance_id
                }
                needed = {p.interface for p in planned.component.requires}
                assert needed <= wired

    def test_enumerated_plans_deploy_and_work(self, scenario_factory):
        """Not just the heuristic favourite: an alternative configuration
        from the enumeration also deploys and serves."""
        scenario = scenario_factory()
        planner = scenario.psf.planner()
        plans = planner.enumerate_plans(
            request(qos=EdgeRequirement(privacy=True, channel="rmi"))
        )
        encryptor_plan = next(
            p for p in plans if sorted(p.deployed_names()) == ["Decryptor", "Encryptor"]
        )
        deployment = scenario.psf.deployer.deploy(encryptor_plan)
        access = deployment.client_access()
        access.sendMail({"sender": "Bob", "recipient": "Alice", "subject": "s", "body": "b"})
        assert scenario.server.fetchMail("Alice")


class TestOptimalSelection:
    def test_optimal_never_costlier_than_heuristic(self, shared_scenario):
        planner = shared_scenario.psf.planner()
        for qos in (
            EdgeRequirement(privacy=True, channel="rmi"),
            EdgeRequirement(min_bandwidth_bps=50e6),
            EdgeRequirement(),
        ):
            heuristic = planner.plan(request(qos=qos))
            optimal = planner.plan(request(qos=qos), optimize=True)
            assert planner.plan_cost(optimal) <= planner.plan_cost(heuristic) + 1e-9

    def test_optimize_raises_when_infeasible(self, shared_scenario):
        planner = shared_scenario.psf.planner()
        with pytest.raises(PlanningError):
            planner.plan(request(interface="GhostI"), optimize=True)

    def test_cost_prefers_fewer_components(self, shared_scenario):
        planner = shared_scenario.psf.planner()
        optimal = planner.plan(
            request(qos=EdgeRequirement(privacy=True, channel="rmi")), optimize=True
        )
        assert optimal.deployed_names() == ["ViewMailServer"]

    def test_cost_counts_path_delay(self, shared_scenario):
        planner = shared_scenario.psf.planner()
        direct = planner.plan(request())
        assert planner.plan_cost(direct) > 0  # WAN latency shows up


# The E-PLAN ladder (tests/paper/test_planner.py), loose to tight.
LADDER = {
    "unconstrained": EdgeRequirement(),
    "privacy": EdgeRequirement(privacy=True),
    "privacy+bulk": EdgeRequirement(privacy=True, channel="rmi"),
    "bw 5 Mbps": EdgeRequirement(min_bandwidth_bps=5e6),
    "bw 50 Mbps": EdgeRequirement(min_bandwidth_bps=50e6),
    "bw 50 Mbps + privacy": EdgeRequirement(min_bandwidth_bps=50e6, privacy=True),
    "latency 10 ms": EdgeRequirement(max_latency_s=0.010),
    "latency 10 ms + privacy+bulk": EdgeRequirement(
        max_latency_s=0.010, privacy=True, channel="rmi"
    ),
}
DIRECT = (0, 1, 1)
CACHE = (1, 2, 3)
BOB_EFFORT = {
    # rung: (with views, without views), each (components, goals expanded,
    # candidates examined) of the first feasible plan, None = unplannable.
    # Pinned from the two-walker planner this enumeration replaced.
    "unconstrained": (DIRECT, DIRECT),
    "privacy": (DIRECT, DIRECT),
    "privacy+bulk": (CACHE, (2, 3, 7)),
    "bw 5 Mbps": (DIRECT, DIRECT),
    "bw 50 Mbps": (CACHE, None),
    "bw 50 Mbps + privacy": (CACHE, None),
    "latency 10 ms": (CACHE, (4, 6, 21)),
    "latency 10 ms + privacy+bulk": (CACHE, (4, 6, 21)),
}


def _effort(registry) -> dict[str, float]:
    """What the one planning request made under ``registry`` cost."""
    return {
        name: registry.histogram(name).sum
        for name in (
            metric_names.PLAN_GOALS_EXPANDED,
            metric_names.PLAN_CANDIDATES,
            metric_names.PLAN_BACKTRACKS,
        )
    }


class TestOneEnumerator:
    """First-feasible planning is the first element of the enumeration."""

    @pytest.mark.parametrize("use_views", [True, False])
    @pytest.mark.parametrize("client,node", [("Bob", "sd-pc1"), ("Alice", "ny-pc2")])
    @pytest.mark.parametrize("rung", LADDER)
    def test_plan_is_first_enumerated(self, shared_scenario, rung, client, node, use_views):
        planner = shared_scenario.psf.planner(use_views=use_views)
        req = request(client=client, client_node=node, qos=LADDER[rung])
        expected = DIRECT if client == "Alice" else BOB_EFFORT[rung][not use_views]
        enumerated = planner.enumerate_plans(req, limit=1)
        if expected is None:
            assert enumerated == []
            with pytest.raises(PlanningError):
                planner.plan(req)
            return
        plan = planner.plan(req)
        assert plan_signature(plan) == plan_signature(enumerated[0])
        assert [l.path for l in plan.links] == [l.path for l in enumerated[0].links]
        effort = (len(plan.components), plan.goals_expanded, plan.candidates_examined)
        assert effort == expected
        assert (enumerated[0].goals_expanded, enumerated[0].candidates_examined) == expected[1:]

    @pytest.fixture()
    def two_requirement_scenario(self, scenario_factory):
        """A component whose first requirement has many completions and
        whose second has none."""
        scenario = scenario_factory()
        scenario.psf.registrar.register_component(
            ComponentType(
                name="TwoReq",
                implements=(Port("ProbeI"),),
                requires=(
                    Port("MailI", {"privacy": True, "channel": "rmi"}),
                    Port("GhostI"),
                ),
            )
        )
        return scenario

    @pytest.mark.parametrize("optimize", [False, True])
    def test_unsatisfiable_sibling_is_not_retried(self, two_requirement_scenario, optimize):
        """Completions of one requirement are not multiplied by the
        failure of the next: sibling sub-goals share no state."""
        planner = two_requirement_scenario.psf.planner()
        with obs.scoped() as registry:
            with pytest.raises(PlanningError):
                planner.plan(request(interface="ProbeI"), optimize=optimize)
        effort = _effort(registry)
        assert effort[metric_names.PLAN_CANDIDATES] <= 79
        # Every abandoned placement is counted.
        assert effort[metric_names.PLAN_BACKTRACKS] == 12
