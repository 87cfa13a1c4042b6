"""Proof-engine tests: chaining, issuer authority, attenuation, search
direction parity, and validity gating."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import KeyStore
from repro.drbac.cache import CachedAuthorizer
from repro.drbac.delegation import issue
from repro.drbac.model import AttrRange, AttrScalar, AttrSet, EntityRef, Role
from repro.drbac.monitor import RevocationDirectory
from repro.drbac.proof import ProofEngine


@pytest.fixture(scope="module")
def store():
    return KeyStore(key_bits=512)


def identities(store, names):
    return {name: store.public(name) for name in names}


def make_engine(store, names, revocations=None, now=0.0):
    return ProofEngine(identities(store, names), revocations, now=now)


class TestDirectMembership:
    def test_single_hop(self, store):
        cred = issue(store.identity("A"), EntityRef("u"), Role("A", "R"))
        engine = make_engine(store, ["A"])
        proof = engine.find_proof(EntityRef("u"), Role("A", "R"), [cred])
        assert proof is not None
        assert [d.credential_id for d in proof.chain] == [cred.credential_id]

    def test_missing_credential(self, store):
        engine = make_engine(store, ["A"])
        assert engine.find_proof(EntityRef("u"), Role("A", "R"), []) is None

    def test_wrong_subject(self, store):
        cred = issue(store.identity("A"), EntityRef("u"), Role("A", "R"))
        engine = make_engine(store, ["A"])
        assert engine.find_proof(EntityRef("v"), Role("A", "R"), [cred]) is None

    def test_unknown_issuer_unusable(self, store):
        cred = issue(store.identity("Rogue"), EntityRef("u"), Role("Rogue", "R"))
        engine = make_engine(store, ["A"])  # Rogue absent from the directory
        assert engine.find_proof(EntityRef("u"), Role("Rogue", "R"), [cred]) is None

    def test_forged_signature_unusable(self, store):
        cred = issue(store.identity("B"), EntityRef("u"), Role("A", "R"))
        # B signed a statement about A's role but the directory knows both;
        # it is a third-party delegation with no assignment evidence.
        engine = make_engine(store, ["A", "B"])
        assert engine.find_proof(EntityRef("u"), Role("A", "R"), [cred]) is None


class TestChaining:
    def test_two_hop_role_mapping(self, store):
        c1 = issue(store.identity("SD"), EntityRef("Bob"), Role("SD", "Member"))
        c2 = issue(store.identity("NY"), Role("SD", "Member"), Role("NY", "Member"))
        engine = make_engine(store, ["SD", "NY"])
        proof = engine.find_proof(EntityRef("Bob"), Role("NY", "Member"), [c1, c2])
        assert proof is not None
        assert len(proof.chain) == 2

    def test_deep_chain(self, store):
        creds = [issue(store.identity("D0"), EntityRef("u"), Role("D0", "R"))]
        for i in range(1, 8):
            creds.append(
                issue(
                    store.identity(f"D{i}"),
                    Role(f"D{i-1}", "R"),
                    Role(f"D{i}", "R"),
                )
            )
        engine = make_engine(store, [f"D{i}" for i in range(8)])
        proof = engine.find_proof(EntityRef("u"), Role("D7", "R"), creds)
        assert proof is not None
        assert len(proof.chain) == 8

    def test_broken_chain(self, store):
        c1 = issue(store.identity("SD"), EntityRef("Bob"), Role("SD", "Member"))
        c3 = issue(store.identity("NY"), Role("XX", "Member"), Role("NY", "Member"))
        engine = make_engine(store, ["SD", "NY"])
        assert engine.find_proof(EntityRef("Bob"), Role("NY", "Member"), [c1, c3]) is None

    def test_cycle_terminates(self, store):
        a = issue(store.identity("A"), Role("B", "R"), Role("A", "R"))
        b = issue(store.identity("B"), Role("A", "R"), Role("B", "R"))
        engine = make_engine(store, ["A", "B"])
        assert engine.find_proof(EntityRef("u"), Role("A", "R"), [a, b]) is None


class TestIssuerAuthority:
    """Third-party delegations need the issuer's right of assignment."""

    def test_third_party_without_assignment_rejected(self, store):
        c = issue(store.identity("SD"), EntityRef("u"), Role("NY", "Partner"))
        engine = make_engine(store, ["SD", "NY"])
        assert engine.find_proof(EntityRef("u"), Role("NY", "Partner"), [c]) is None

    def test_third_party_with_assignment_accepted(self, store):
        grant = issue(
            store.identity("NY"), EntityRef("SD"), Role("NY", "Partner"), assignment=True
        )
        c = issue(store.identity("SD"), EntityRef("u"), Role("NY", "Partner"))
        engine = make_engine(store, ["SD", "NY"])
        proof = engine.find_proof(EntityRef("u"), Role("NY", "Partner"), [grant, c])
        assert proof is not None
        assert grant.credential_id in {d.credential_id for d in proof.support}

    def test_assignment_via_role_membership(self, store):
        # NY grants assignment to holders of NY.Admins; SD is an Admin.
        admin = issue(store.identity("NY"), EntityRef("SD"), Role("NY", "Admins"))
        grant = issue(
            store.identity("NY"), Role("NY", "Admins"), Role("NY", "Partner"), assignment=True
        )
        c = issue(store.identity("SD"), EntityRef("u"), Role("NY", "Partner"))
        engine = make_engine(store, ["SD", "NY"])
        proof = engine.find_proof(
            EntityRef("u"), Role("NY", "Partner"), [admin, grant, c]
        )
        assert proof is not None

    def test_assignment_credential_does_not_convey_membership(self, store):
        grant = issue(
            store.identity("NY"), EntityRef("SD"), Role("NY", "Partner"), assignment=True
        )
        engine = make_engine(store, ["NY"])
        # Holding NY.Partner' does not make SD an NY.Partner.
        assert engine.find_proof(EntityRef("SD"), Role("NY", "Partner"), [grant]) is None

    def test_forged_assignment_rejected(self, store):
        # SD grants itself assignment rights over NY's role: invalid,
        # because SD doesn't own NY.Partner and has no chain from NY.
        fake_grant = issue(
            store.identity("SD"), EntityRef("SD"), Role("NY", "Partner"), assignment=True
        )
        c = issue(store.identity("SD"), EntityRef("u"), Role("NY", "Partner"))
        engine = make_engine(store, ["SD", "NY"])
        assert (
            engine.find_proof(EntityRef("u"), Role("NY", "Partner"), [fake_grant, c])
            is None
        )


class TestAttenuation:
    def test_cpu_min_along_chain(self, store):
        c1 = issue(
            store.identity("NY"),
            Role("Mail", "Enc"),
            Role("NY", "Exec"),
            attributes={"CPU": AttrScalar(100)},
        )
        c2 = issue(
            store.identity("SD"),
            Role("NY", "Exec"),
            Role("SD", "Exec"),
            attributes={"CPU": AttrScalar(80)},
        )
        engine = make_engine(store, ["NY", "SD"])
        proof = engine.find_proof(Role("Mail", "Enc"), Role("SD", "Exec"), [c1, c2])
        assert proof is not None
        assert proof.attributes["CPU"] == AttrScalar(80)

    def test_required_attributes_gate(self, store):
        c = issue(
            store.identity("Mail"),
            EntityRef("node1"),
            Role("Mail", "Node"),
            attributes={"Secure": AttrSet([False]), "Trust": AttrRange(0, 1)},
        )
        engine = make_engine(store, ["Mail"])
        assert (
            engine.find_proof(
                EntityRef("node1"),
                Role("Mail", "Node"),
                [c],
                required_attributes={"Secure": AttrSet([True])},
            )
            is None
        )

    def test_incompatible_chain_skipped_for_alternative(self, store):
        # Two chains to the same role; one's attributes conflict.
        bad1 = issue(
            store.identity("A"), EntityRef("u"), Role("A", "Mid"),
            attributes={"Secure": AttrSet([False])},
        )
        bad2 = issue(
            store.identity("B"), Role("A", "Mid"), Role("B", "R"),
            attributes={"Secure": AttrSet([True])},
        )
        good = issue(store.identity("B"), EntityRef("u"), Role("B", "R"))
        engine = make_engine(store, ["A", "B"])
        proof = engine.find_proof(EntityRef("u"), Role("B", "R"), [bad1, bad2, good])
        assert proof is not None
        assert len(proof.chain) == 1


class TestValidityGating:
    def test_expired_excluded(self, store):
        c = issue(store.identity("A"), EntityRef("u"), Role("A", "R"), expires_at=5.0)
        engine = make_engine(store, ["A"], now=10.0)
        assert engine.find_proof(EntityRef("u"), Role("A", "R"), [c]) is None

    def test_unexpired_included(self, store):
        c = issue(store.identity("A"), EntityRef("u"), Role("A", "R"), expires_at=5.0)
        engine = make_engine(store, ["A"], now=1.0)
        assert engine.find_proof(EntityRef("u"), Role("A", "R"), [c]) is not None

    def test_revoked_excluded(self, store):
        c = issue(store.identity("A"), EntityRef("u"), Role("A", "R"))
        revocations = RevocationDirectory()
        revocations.revoke(c)
        engine = make_engine(store, ["A"], revocations=revocations)
        assert engine.find_proof(EntityRef("u"), Role("A", "R"), [c]) is None


class TestSearchDirections:
    def _world(self, store, depth=4, fanout=3):
        """A layered credential graph plus distractors."""
        creds = [issue(store.identity("L0"), EntityRef("u"), Role("L0", "R0"))]
        for layer in range(1, depth):
            for branch in range(fanout):
                creds.append(
                    issue(
                        store.identity(f"L{layer}"),
                        Role(f"L{layer-1}", f"R{layer-1}"),
                        Role(f"L{layer}", f"R{layer}b{branch}"),
                    )
                )
            # Canonical continuation uses branch 0's naming.
            creds.append(
                issue(
                    store.identity(f"L{layer}"),
                    Role(f"L{layer-1}", f"R{layer-1}"),
                    Role(f"L{layer}", f"R{layer}"),
                )
            )
        names = [f"L{i}" for i in range(depth)]
        return creds, names

    def test_regression_and_progression_agree_positive(self, store):
        creds, names = self._world(store)
        engine = make_engine(store, names)
        goal = Role("L3", "R3")
        regression = engine.find_proof(EntityRef("u"), goal, creds, direction="regression")
        progression = engine.find_proof(EntityRef("u"), goal, creds, direction="progression")
        assert regression is not None and progression is not None
        assert regression.chain[-1].role == progression.chain[-1].role == goal

    def test_regression_and_progression_agree_negative(self, store):
        creds, names = self._world(store)
        engine = make_engine(store, names)
        goal = Role("L9", "Nowhere")
        assert engine.find_proof(EntityRef("u"), goal, creds, direction="regression") is None
        assert engine.find_proof(EntityRef("u"), goal, creds, direction="progression") is None

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_direction_parity_on_random_graphs(self, store, data):
        """Both strategies must return the same yes/no decision."""
        n_roles = data.draw(st.integers(3, 8))
        n_creds = data.draw(st.integers(2, 14))
        roles = [Role(f"Dom{i}", "R") for i in range(n_roles)]
        creds = []
        for _ in range(n_creds):
            src = data.draw(st.integers(-1, n_roles - 1))
            dst = data.draw(st.integers(0, n_roles - 1))
            subject = EntityRef("u") if src == -1 else roles[src]
            role = roles[dst]
            creds.append(issue(store.identity(role.owner), subject, role))
        goal = roles[data.draw(st.integers(0, n_roles - 1))]
        engine = make_engine(store, [r.owner for r in roles])
        regression = engine.find_proof(EntityRef("u"), goal, creds, direction="regression")
        progression = engine.find_proof(EntityRef("u"), goal, creds, direction="progression")
        assert (regression is None) == (progression is None)

    def test_edge_counting(self, store):
        creds, names = self._world(store)
        engine = make_engine(store, names)
        proof = engine.find_proof(EntityRef("u"), Role("L3", "R3"), creds)
        assert proof is not None
        assert proof.edges_visited > 0


class TestProofObject:
    def test_all_delegations_dedupes(self, store):
        grant = issue(
            store.identity("NY"), EntityRef("SD"), Role("NY", "P"), assignment=True
        )
        c = issue(store.identity("SD"), EntityRef("u"), Role("NY", "P"))
        engine = make_engine(store, ["NY", "SD"])
        proof = engine.find_proof(EntityRef("u"), Role("NY", "P"), [grant, c])
        assert proof is not None
        ids = [d.credential_id for d in proof.all_delegations()]
        assert len(ids) == len(set(ids))

    def test_str_mentions_subject_and_goal(self, store):
        c = issue(store.identity("A"), EntityRef("u"), Role("A", "R"))
        engine = make_engine(store, ["A"])
        proof = engine.find_proof(EntityRef("u"), Role("A", "R"), [c])
        assert "u" in str(proof) and "A.R" in str(proof)


class TestAttributeConstrainedRetry:
    """The engine retries exhaustively when the first chain's attributes
    fall short of the requirement but another chain could satisfy it."""

    def test_alternative_chain_with_stronger_attributes(self, store):
        weak = issue(
            store.identity("A"), EntityRef("u"), Role("A", "R"),
            attributes={"CPU": AttrScalar(10)},
        )
        strong_leaf = issue(store.identity("B"), EntityRef("u"), Role("B", "Mid"))
        strong_link = issue(
            store.identity("A"), Role("B", "Mid"), Role("A", "R"),
            attributes={"CPU": AttrScalar(90)},
        )
        engine = make_engine(store, ["A", "B"])
        proof = engine.find_proof(
            EntityRef("u"), Role("A", "R"),
            [weak, strong_leaf, strong_link],
            required_attributes={"CPU": AttrScalar(50)},
        )
        assert proof is not None
        assert proof.attributes["CPU"] == AttrScalar(90)

    def test_no_chain_satisfies_requirement(self, store):
        weak = issue(
            store.identity("A"), EntityRef("u"), Role("A", "R"),
            attributes={"CPU": AttrScalar(10)},
        )
        engine = make_engine(store, ["A"])
        assert (
            engine.find_proof(
                EntityRef("u"), Role("A", "R"), [weak],
                required_attributes={"CPU": AttrScalar(50)},
            )
            is None
        )

    def test_unconstrained_search_ignores_attributes(self, store):
        weak = issue(
            store.identity("A"), EntityRef("u"), Role("A", "R"),
            attributes={"CPU": AttrScalar(10)},
        )
        engine = make_engine(store, ["A"])
        assert engine.find_proof(EntityRef("u"), Role("A", "R"), [weak]) is not None


class TestIncompatibleAttributeChains:
    """A chain whose attributes cannot combine must not crash the search."""

    def _world(self, store):
        # The only 2-hop chain has disjoint Secure sets (incompatible);
        # a separate direct credential exists as the valid answer.
        bad1 = issue(
            store.identity("A"), EntityRef("u"), Role("A", "Mid"),
            attributes={"Secure": AttrSet([False])},
        )
        bad2 = issue(
            store.identity("B"), Role("A", "Mid"), Role("B", "Goal"),
            attributes={"Secure": AttrSet([True])},
        )
        good = issue(store.identity("B"), EntityRef("u"), Role("B", "Goal"))
        return [bad1, bad2, good]

    def test_progression_falls_back_to_compatible_chain(self, store):
        creds = self._world(store)
        engine = make_engine(store, ["A", "B"])
        proof = engine.find_proof(
            EntityRef("u"), Role("B", "Goal"), creds, direction="progression"
        )
        assert proof is not None
        assert len(proof.chain) == 1  # the direct, compatible credential

    def test_only_incompatible_chains_means_no_proof(self, store):
        creds = self._world(store)[:2]  # drop the good credential
        engine = make_engine(store, ["A", "B"])
        for direction in ("regression", "progression"):
            assert (
                engine.find_proof(
                    EntityRef("u"), Role("B", "Goal"), creds, direction=direction
                )
                is None
            )

    def test_later_prefix_rescues_the_chain(self, engine):
        """A right is held iff *some* chain's attributes combine.  The
        first prefix found for ``Org.A`` (X=1) is compatible on its own
        but not with the ``Org.A -> Org.B`` link (X=2); the second is."""
        engine.delegate("Org", "u", "Org.A", attributes={"X": AttrSet([1])})
        via = engine.delegate("Org", "u", "Org.A", attributes={"X": AttrSet([2])})
        engine.delegate("Org", "Org.A", "Org.B", attributes={"X": AttrSet([2])})
        for direction in ("regression", "progression"):
            proof = engine.find_proof("u", "Org.B", direction=direction)
            assert proof is not None, direction
            assert proof.chain[0].credential_id == via.credential_id
            assert proof.attributes == {"X": AttrSet([2])}
        assert CachedAuthorizer(engine).is_authorized("u", "Org.B")
