"""The planner experiments: E-PLAN, E-ADAPT and the planner-quality ablation.

E-PLAN (§4.2): "By merely distributing component functionality between
the original and auxiliary objects, views increase the likelihood of the
planner finding a component deployment in constrained environments."
The ladder tightens the client's QoS and counts planner successes with
and without view-derived components: the gap opens as constraints bind.

E-ADAPT (§2.2): "PSF adapts to low available bandwidth by placing a
*view mail server* close to the client and to insecure links by placing
<encryptor/decryptor> pairs."

Planner quality: Sekitei is satisficing; first-feasible search is set
against exhaustive cost-optimal selection over the same enumeration.
"""

from __future__ import annotations

from repro.errors import PlanningError
from repro.psf import EdgeRequirement, ServiceRequest

from . import print_table

PRIVACY_BULK = EdgeRequirement(privacy=True, channel="rmi")


def _request(client: str, node: str, qos: EdgeRequirement | None = None):
    return ServiceRequest(
        client=client, client_node=node, interface="MailI",
        qos=qos or EdgeRequirement(),
    )


# -- E-PLAN ------------------------------------------------------------------

# (label, requirement) from loose to tight.
CONSTRAINT_LADDER = [
    ("unconstrained", EdgeRequirement()),
    ("privacy", EdgeRequirement(privacy=True)),
    ("privacy+bulk", PRIVACY_BULK),
    ("bw 5 Mbps", EdgeRequirement(min_bandwidth_bps=5e6)),
    ("bw 50 Mbps", EdgeRequirement(min_bandwidth_bps=50e6)),
    ("bw 50 Mbps + privacy", EdgeRequirement(min_bandwidth_bps=50e6, privacy=True)),
    ("latency 10 ms", EdgeRequirement(max_latency_s=0.010)),
    ("latency 10 ms + privacy+bulk",
     EdgeRequirement(max_latency_s=0.010, privacy=True, channel="rmi")),
]

CLIENTS = [("Bob", "sd-pc1"), ("Alice", "ny-pc2")]


def _successes(planner, qos) -> int:
    count = 0
    for client, node in CLIENTS:
        try:
            planner.plan(_request(client, node, qos))
        except PlanningError:
            continue
        count += 1
    return count


def test_plan_success_ladder(shared_scenario):
    psf = shared_scenario.psf
    by_label = {
        label: (
            _successes(psf.planner(use_views=True), qos),
            _successes(psf.planner(use_views=False), qos),
        )
        for label, qos in CONSTRAINT_LADDER
    }
    n = len(CLIENTS)
    print_table(
        "E-PLAN: planner success with vs. without views",
        ["constraint", "with views", "without views"],
        [[label, f"{w}/{n}", f"{wo}/{n}"] for label, (w, wo) in by_label.items()],
    )
    # Loose constraints: both succeed.
    assert by_label["unconstrained"] == (n, n)
    # Bandwidth-constrained remote clients need the cache: views win.
    assert by_label["bw 50 Mbps"][0] == n
    assert by_label["bw 50 Mbps"][1] != n
    assert by_label["latency 10 ms"][0] == n
    # Views never hurt: with-views success >= without-views everywhere.
    for with_views, without_views in by_label.values():
        assert with_views >= without_views
    # Privacy on a bulk channel deploys components either way.
    for use_views in (True, False):
        plan = psf.planner(use_views=use_views).plan(_request("Bob", "sd-pc1", PRIVACY_BULK))
        assert plan.deployed_names()


# -- E-ADAPT -----------------------------------------------------------------

ADAPTATION_CASES = [
    ("baseline (Alice, NY LAN)", _request("Alice", "ny-pc1"), True, []),
    (
        "low bandwidth (Bob, SD)",
        _request("Bob", "sd-pc1", EdgeRequirement(min_bandwidth_bps=50e6)),
        True,
        ["ViewMailServer"],
    ),
    (
        "insecure bulk link (Bob, SD, no views)",
        _request("Bob", "sd-pc1", PRIVACY_BULK),
        False,
        ["Decryptor", "Encryptor"],
    ),
    (
        "insecure link, any channel (Charlie, SE)",
        _request("Charlie", "se-pc1", EdgeRequirement(privacy=True)),
        True,
        [],  # switchboard channel, no components
    ),
]


def test_adaptation_decisions(shared_scenario):
    psf = shared_scenario.psf
    rows = []
    for label, request, use_views, expected in ADAPTATION_CASES:
        plan = psf.planner(use_views=use_views).plan(request)
        deployed = ", ".join(sorted(plan.deployed_names())) or "(direct)"
        entry_mode = plan.links[0].mode if plan.links else "?"
        rows.append([label, deployed, entry_mode])
        expected_str = ", ".join(sorted(expected)) or "(direct)"
        assert deployed == expected_str, f"{label}: {deployed} != {expected_str}"
    print_table(
        "E-ADAPT: planner adaptation per environment condition",
        ["condition", "deployed components", "client channel"],
        rows,
    )


def test_plan_and_deploy_pipeline(scenario_factory):
    """The full request_service flow (plan + deploy + client handle) on
    the cache-adaptation case."""
    scenario = scenario_factory()
    session = scenario.psf.request_service(_request("Bob", "sd-pc1", PRIVACY_BULK))
    assert session.plan.deployed_names() == ["ViewMailServer"]


def test_replan_after_environment_change(scenario_factory):
    """The monitoring loop: a link losing its security property changes
    the plan from direct RMI to an adapted configuration."""
    psf = scenario_factory().psf
    request = _request("Alice", "ny-pc1", PRIVACY_BULK)
    before = psf.planner().plan(request)
    psf.monitor.set_link_security("ny-pc1", "ny-server", False)
    psf.monitor.set_link_security("ny-pc1", "ny-gw", False)
    after = psf.planner().plan(request)
    assert before.deployed_names() == []
    assert after.deployed_names() != []
    print_table(
        "E-ADAPT: replanning after link compromise",
        ["environment", "deployment"],
        [
            ["secure LAN", "(direct rmi)"],
            ["compromised LAN", ", ".join(sorted(after.deployed_names()))],
        ],
    )


# -- planner quality ---------------------------------------------------------

QUALITY_REQUESTS = [
    ("direct", _request("Bob", "sd-pc1")),
    ("privacy+bulk", _request("Bob", "sd-pc1", PRIVACY_BULK)),
    ("bandwidth", _request("Bob", "sd-pc1", EdgeRequirement(min_bandwidth_bps=50e6))),
    ("privacy, Seattle", _request("Charlie", "se-pc1", PRIVACY_BULK)),
]


def test_quality_gap(shared_scenario):
    """The cost-optimal plan never costs more than the first-feasible one
    (the table shows they tie); both deploy for the privacy+bulk request."""
    planner = shared_scenario.psf.planner()
    rows = []
    for label, request in QUALITY_REQUESTS:
        heuristic = planner.plan(request)
        optimal = planner.plan(request, optimize=True)
        candidates = len(planner.enumerate_plans(request))
        heuristic_s, optimal_s = planner.plan_cost(heuristic), planner.plan_cost(optimal)
        rows.append([label, f"{heuristic_s*1000:.1f}", f"{optimal_s*1000:.1f}", candidates])
        assert optimal_s <= heuristic_s
        if label == "privacy+bulk":
            assert heuristic.deployed_names() and optimal.deployed_names()
    print_table(
        "Planner ablation: plan cost (ms), heuristic vs optimal",
        ["request", "first-feasible", "optimal", "feasible configs"],
        rows,
    )
