"""The dRBAC experiments: E-PROOF, E-STORE and policy translation.

E-PROOF (§3.1 mechanism): chains are found among distractor credentials;
edges visited per search, for both search directions (the
regression/progression ablation DESIGN.md calls out).

E-STORE (§5): GSI stores P x U records, CAS stores C x (P + U), and dRBAC
stores P + U + c (c = cross-domain mapping credentials).

Policy translation (§6 future work, implemented): native grants mirror
into dRBAC, steady-state sync is a no-op, and one native revocation
propagates as one dRBAC revocation.
"""

from __future__ import annotations

import pytest

from repro.baselines.cas import CasDeployment
from repro.baselines.gsi import GsiDeployment
from repro.drbac import DrbacEngine
from repro.drbac.delegation import issue
from repro.drbac.model import EntityRef, Role
from repro.drbac.proof import ProofEngine
from repro.drbac.repository import DistributedRepository
from repro.drbac.translate import CapabilityPolicy, PolicyTranslator, TranslationRule

from . import print_table

# -- E-PROOF -----------------------------------------------------------------

DEPTHS = [2, 4, 8]
NOISE = [0, 50, 200]


def _world(key_store, depth: int, noise: int):
    """A depth-`depth` chain for user `u` plus `noise` distractors."""
    creds = [issue(key_store.identity("D0"), EntityRef("u"), Role("D0", "R"))]
    for i in range(1, depth):
        creds.append(
            issue(key_store.identity(f"D{i}"), Role(f"D{i-1}", "R"), Role(f"D{i}", "R"))
        )
    for n in range(noise):
        dom = f"N{n % 10}"
        creds.append(issue(key_store.identity(dom), EntityRef(f"user{n}"), Role(dom, f"R{n}")))
    identities = {cred.issuer: key_store.public(cred.issuer) for cred in creds}
    return creds, identities, Role(f"D{depth-1}", "R")


@pytest.fixture(scope="module")
def worlds(key_store):
    return {
        (depth, noise): _world(key_store, depth, noise)
        for depth in DEPTHS
        for noise in NOISE
    }


def test_proof_search_scaling_table(worlds):
    """Edges visited per (depth, noise) cell, both directions; every
    search finds the whole chain."""
    rows = []
    for (depth, noise), (creds, identities, goal) in sorted(worlds.items()):
        engine = ProofEngine(identities, verify_signatures=False)
        edges = []
        for direction in ("regression", "progression"):
            proof = engine.find_proof(EntityRef("u"), goal, creds, direction=direction)
            assert proof is not None and len(proof.chain) == depth
            edges.append(engine.edges_visited)
        rows.append([depth, noise, *edges])
    print_table(
        "E-PROOF: edges visited (regression vs progression)",
        ["chain depth", "distractors", "regression", "progression"],
        rows,
    )
    # Shape: work grows with depth; indexing keeps distractors nearly free.
    by_cell = {(r[0], r[1]): (r[2], r[3]) for r in rows}
    for noise in NOISE:
        assert by_cell[(8, noise)][0] >= by_cell[(2, noise)][0]


def test_signature_verification(worlds):
    """Search over an authenticated credential set still finds the chain."""
    creds, identities, goal = worlds[(4, 50)]
    engine = ProofEngine(identities, verify_signatures=True)
    assert engine.find_proof(EntityRef("u"), goal, creds) is not None


def test_forked_world_asymmetry(key_store):
    """Where the two strategies differ: goal-directed vs subject-directed.

    World A fans out from the subject (u holds many irrelevant roles):
    progression wades through the fan-out, regression walks straight back
    from the goal.  World B fans into the goal (many dead-end credentials
    grant the goal role to the wrong subjects): regression inspects each,
    progression never looks at them.  The useful credential comes *after*
    the distractors, so a strategy that enumerates the wrong side of the
    graph pays for every fork.
    """
    fanout = 30
    goal = Role("G", "Target")
    misc, g = key_store.identity("Misc"), key_store.identity("G")
    worlds = {
        "subject fan-out": [
            issue(misc, EntityRef("u"), Role("Misc", f"R{i}")) for i in range(fanout)
        ] + [issue(g, EntityRef("u"), goal)],
        "goal fan-in": [
            issue(g, EntityRef(f"other{i}"), goal) for i in range(fanout)
        ] + [issue(g, EntityRef("u"), goal)],
    }
    identities = {"G": key_store.public("G"), "Misc": key_store.public("Misc")}
    cells = {}
    for label, creds in worlds.items():
        engine = ProofEngine(identities, verify_signatures=False)
        assert engine.find_proof(EntityRef("u"), goal, creds, direction="regression")
        regression = engine.edges_visited
        assert engine.find_proof(EntityRef("u"), goal, creds, direction="progression")
        cells[label] = (regression, engine.edges_visited)
    print_table(
        "E-PROOF: strategy asymmetry on forked worlds (edges visited)",
        ["world", "regression", "progression"],
        [[label, r, p] for label, (r, p) in cells.items()],
    )
    fan_out_r, fan_out_p = cells["subject fan-out"]
    fan_in_r, fan_in_p = cells["goal fan-in"]
    assert fan_out_r < fan_out_p   # regression ignores the subject's fan-out
    assert fan_in_p <= fan_in_r    # progression ignores the goal's fan-in


def test_repository_harvest(worlds):
    """Discovery-tag routed collection prunes the distractors."""
    creds, _, goal = worlds[(8, 200)]
    repo = DistributedRepository()
    repo.publish_all(creds)
    assert len(repo.collect(EntityRef("u"), goal)) <= 20


# -- E-STORE -----------------------------------------------------------------

SWEEP = [(2, 2), (4, 8), (8, 16), (16, 32), (32, 64)]
COMMUNITIES = 3


def _gsi_records(p: int, u: int) -> int:
    deployment = GsiDeployment()
    for i in range(p):
        deployment.add_provider(f"prov{i}")
    for j in range(u):
        deployment.add_user(f"user{j}")
    return deployment.total_records


def _cas_records(p: int, u: int) -> int:
    deployment = CasDeployment()
    for k in range(COMMUNITIES):
        deployment.add_community(f"com{k}")
    for i in range(p):
        deployment.add_provider(f"prov{i}")
    for j in range(u):
        deployment.enroll_user(f"user{j}")
    return deployment.total_records


def _drbac_records(key_store, p: int, u: int) -> int:
    """One credential per user (its home role), one role-definition
    credential per provider domain policy, plus a constant number of
    cross-domain mappings (c)."""
    engine = DrbacEngine(key_store=key_store, verify_signatures=False)
    for i in range(p):
        engine.delegate("Home", f"Provider{i}.Service", "Home.Accessible")
    for j in range(u):
        engine.delegate("Home", f"user{j}", "Home.Member")
    for k in range(COMMUNITIES):
        engine.delegate("Home", f"Dom{k}.Member", "Home.Member")
    return engine.repository.credential_count


def test_storage_scaling_series(key_store):
    """The exact formulas, the paper's ordering, and a widening gap."""
    rows = [
        [f"P={p} U={u}", _gsi_records(p, u), _cas_records(p, u), _drbac_records(key_store, p, u)]
        for p, u in SWEEP
    ]
    print_table(
        "E-STORE: authorization records stored",
        ["federation", "GSI (PxU)", f"CAS (Cx(P+U), C={COMMUNITIES})", "dRBAC (P+U+c)"],
        rows,
    )
    for (p, u), (_, gsi, cas, drbac) in zip(SWEEP, rows):
        assert gsi == p * u
        assert cas == COMMUNITIES * (p + u)
        assert drbac == p + u + COMMUNITIES
        if p >= 8:
            assert drbac < cas < gsi
    # The gap widens: GSI/dRBAC ratio grows monotonically.
    ratios = [row[1] / row[3] for row in rows]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_gsi_enrollment_touches_every_provider():
    """One more GSI user costs one record per provider."""
    deployment = GsiDeployment()
    for i in range(32):
        deployment.add_provider(f"prov{i}")
    deployment.add_user("user0")
    assert deployment.total_records >= 32


# -- policy translation ------------------------------------------------------

GRANT_COUNTS = [10, 50, 200]


def _translation(key_store, grants: int):
    engine = DrbacEngine(key_store=key_store, verify_signatures=False)
    policy = CapabilityPolicy()
    for i in range(grants):
        policy.grant(f"user{i}", "access")
    translator = PolicyTranslator(
        engine, "Dom", policy, [TranslationRule("access", Role("Dom", "User"))]
    )
    return policy, translator


def test_translation_summary(key_store):
    """The first sync mirrors every native grant as one credential."""
    rows = []
    for grants in GRANT_COUNTS:
        _, translator = _translation(key_store, grants)
        report = translator.sync()
        rows.append([grants, len(report.issued), translator.mirrored_count()])
    print_table(
        "Policy translation: native grants mirrored into dRBAC",
        ["native grants", "credentials issued", "mirrored"],
        rows,
    )
    for grants, issued, mirrored in rows:
        assert issued == mirrored == grants


def test_translation_steady_state_is_a_no_op(key_store):
    """With nothing changed, sync issues and revokes nothing."""
    _, translator = _translation(key_store, 200)
    translator.sync()
    report = translator.sync()
    assert not report.issued and not report.revoked


def test_translation_revocation_propagates(key_store):
    """One native revocation propagates as exactly one dRBAC revocation."""
    policy, translator = _translation(key_store, 50)
    translator.sync()
    policy.revoke("user7", "access")
    assert len(translator.sync().revoked) == 1
