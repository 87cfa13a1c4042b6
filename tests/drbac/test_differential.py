"""Differential test: regression vs progression proof search.

The module docstring of :mod:`repro.drbac.proof` promises that the two
search strategies "return identical authorization decisions".  This test
holds it to that over ~200 seeded-random credential graphs — mixes of
self-certifying, third-party, and assignment delegations, role-to-role
chaining, and occasional valued attributes (which exercise progression's
attribute-incompatibility fallback path).

Credentials are built as unsigned :class:`Delegation` values and searched
with ``verify_signatures=False`` — signature checking is orthogonal to
search strategy and RSA keygen for hundreds of graphs would dominate the
test's runtime.

Alongside the decisions themselves, the observability layer must agree:
running the same query set under each strategy in its own scoped metrics
registry must record the same number of successful proofs.

A second, *dense* family of graphs adds a third arm.  There every edge is
attributed and issued twice, so most queries have several chains and
whether a chain's attributes combine depends on which one is taken; a
brute-force walk over all simple membership paths is the reference both
strategies must match: a right is held iff *some* chain's attributes meet
non-empty and cover the requirement.
"""

from __future__ import annotations

import random

from repro import obs
from repro.drbac.delegation import Delegation, classify
from repro.drbac.model import AttrRange, AttrScalar, AttrSet, EntityRef, Role
from repro.drbac.proof import ProofEngine
from repro.obs import names as metric_names

N_GRAPHS = 200
QUERIES_PER_GRAPH = 4

ENTITIES = [f"E{i}" for i in range(6)]
OWNERS = ["OrgA", "OrgB", "OrgC"]
ROLE_NAMES = ["R0", "R1", "R2"]


def _random_attributes(rng: random.Random) -> dict:
    if rng.random() < 0.7:
        return {}
    kind = rng.choice(["set", "range", "scalar"])
    if kind == "set":
        value = AttrSet(rng.sample([True, False, 1, 2, 3], k=rng.randint(1, 3)))
    elif kind == "range":
        low = rng.randint(0, 10)
        value = AttrRange(low, low + rng.randint(0, 10))
    else:
        value = AttrScalar(rng.randint(1, 100))
    return {rng.choice(["Secure", "Trust", "CPU"]): value}


def _random_graph(rng: random.Random, graph_id: int) -> list[Delegation]:
    roles = [Role(owner, name) for owner in OWNERS for name in ROLE_NAMES]
    credentials: list[Delegation] = []
    n_creds = rng.randint(5, 18)
    for i in range(n_creds):
        role = rng.choice(roles)
        # Subjects: mostly entities, sometimes another role (chaining).
        if rng.random() < 0.35:
            subject = rng.choice([r for r in roles if r != role])
        else:
            subject = EntityRef(rng.choice(ENTITIES))
        assignment = rng.random() < 0.2
        # Issuers: usually the role owner (self-certifying), sometimes a
        # third party (usable only with assignment-right evidence).
        issuer = role.owner if rng.random() < 0.7 else rng.choice(ENTITIES + OWNERS)
        credentials.append(
            Delegation(
                subject=subject,
                role=role,
                issuer=issuer,
                delegation_type=classify(subject, role, issuer, assignment=assignment),
                attributes=_random_attributes(rng),
                credential_id=f"g{graph_id}-c{i}",
            )
        )
    return credentials


def _queries(rng: random.Random) -> list[tuple[EntityRef, Role]]:
    return [
        (
            EntityRef(rng.choice(ENTITIES)),
            Role(rng.choice(OWNERS), rng.choice(ROLE_NAMES)),
        )
        for _ in range(QUERIES_PER_GRAPH)
    ]


def test_regression_and_progression_agree_everywhere():
    rng = random.Random(20030623)  # HPDC 2003
    engine = ProofEngine(identities={}, verify_signatures=False)
    cases = [
        (_random_graph(rng, g), _queries(rng)) for g in range(N_GRAPHS)
    ]

    decisions: dict[str, list[bool]] = {}
    found_counts: dict[str, int] = {}
    for direction in ("regression", "progression"):
        outcomes: list[bool] = []
        with obs.scoped() as registry:
            for credentials, queries in cases:
                for subject, role in queries:
                    proof = engine.find_proof(
                        subject, role, credentials, direction=direction
                    )
                    outcomes.append(proof is not None)
            found_counts[direction] = registry.counter_value(metric_names.PROOF_FOUND)
            assert registry.counter_value(metric_names.PROOF_SEARCHES) == len(outcomes)
        decisions[direction] = outcomes

    disagreements = [
        i
        for i, (r, p) in enumerate(
            zip(decisions["regression"], decisions["progression"])
        )
        if r != p
    ]
    assert not disagreements, (
        f"strategies disagree on {len(disagreements)} of "
        f"{len(decisions['regression'])} queries (first at index {disagreements[0]})"
    )
    # Some graphs must actually grant and some must deny, or the test
    # proves nothing about either strategy.
    assert 0 < found_counts["regression"] < len(decisions["regression"])
    assert found_counts["regression"] == found_counts["progression"]


def test_proof_contents_agree_on_found_chains():
    """Where both strategies find a proof, both proofs must be valid
    chains from the subject to the goal role (they may differ in route)."""
    rng = random.Random(7)
    engine = ProofEngine(identities={}, verify_signatures=False)
    checked = 0
    for g in range(40):
        credentials = _random_graph(rng, g)
        for subject, role in _queries(rng):
            a = engine.find_proof(subject, role, credentials, direction="regression")
            b = engine.find_proof(subject, role, credentials, direction="progression")
            assert (a is None) == (b is None)
            for proof in (a, b):
                if proof is None:
                    continue
                assert str(proof.chain[0].subject) == str(subject)
                assert proof.chain[-1].role == role
                for prev, nxt in zip(proof.chain, proof.chain[1:]):
                    assert nxt.subject == prev.role
                checked += 1
    assert checked > 0


DENSE_GRAPHS = 300
DENSE_ROLES = [Role("Org", f"R{i}") for i in range(4)]
DENSE_ENTITIES = [EntityRef("u0"), EntityRef("u1")]
DENSE_VALUES = (1, 2, 3)


def _dense_graph(rng: random.Random, graph_id: int) -> list[Delegation]:
    """Self-certifying edges that all restrict the one attribute ``X`` to
    a small set (so neighbours can be disjoint), each issued twice with
    independently drawn sets (forced parallel edges)."""
    edges = []
    for _ in range(rng.randint(3, 6)):
        role = rng.choice(DENSE_ROLES)
        subject = rng.choice(DENSE_ENTITIES + [r for r in DENSE_ROLES if r != role])
        edges += [(subject, role)] * 2
    return [
        Delegation(
            subject=subject,
            role=role,
            issuer="Org",
            delegation_type=classify(subject, role, "Org", assignment=False),
            attributes={"X": AttrSet(rng.sample(DENSE_VALUES, k=rng.randint(1, 2)))},
            credential_id=f"d{graph_id}-c{i}",
        )
        for i, (subject, role) in enumerate(edges)
    ]


def _simple_paths(credentials, at, goal, seen=()):
    """Every membership path from ``at`` to ``goal`` repeating no role."""
    for credential in credentials:
        if credential.subject != at or credential.role in seen:
            continue
        if credential.role == goal:
            yield [credential]
            continue
        onward = _simple_paths(credentials, credential.role, goal, seen + (credential.role,))
        for rest in onward:
            yield [credential] + rest


def _path_serves(path, required: int | None) -> bool:
    allowed = set(DENSE_VALUES).intersection(
        *(credential.attributes["X"].values for credential in path)
    )
    return bool(allowed) and (required is None or required in allowed)


def test_dense_attributed_graphs_match_brute_force():
    rng = random.Random(2003)
    engine = ProofEngine(identities={}, verify_signatures=False)
    granted = denied = rescued = 0
    for g in range(DENSE_GRAPHS):
        credentials = _dense_graph(rng, g)
        for subject in DENSE_ENTITIES:
            for role in DENSE_ROLES:
                required = rng.choice((None, *DENSE_VALUES))
                served = [
                    _path_serves(path, required)
                    for path in _simple_paths(credentials, subject, role)
                ]
                expected = any(served)
                for direction in ("regression", "progression"):
                    proof = engine.find_proof(
                        subject,
                        role,
                        credentials,
                        required_attributes=(
                            None if required is None else {"X": AttrSet([required])}
                        ),
                        direction=direction,
                    )
                    assert (proof is not None) == expected, (
                        f"graph {g}: {direction} says {proof is not None}, brute "
                        f"force says {expected} for {subject} -> {role} "
                        f"requiring X={required}"
                    )
                granted += expected
                denied += not expected
                rescued += expected and not served[0]
    # The family must exercise what it is for: grants, denials, and
    # grants that exist only because a later chain serves where the
    # first one does not.
    assert granted and denied and rescued
