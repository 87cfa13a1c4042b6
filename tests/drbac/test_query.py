"""Constraint parsing and evaluation tests."""

from __future__ import annotations

import pytest

from repro.drbac.model import AttrRange, AttrScalar, AttrSet, EntityRef, Role
from repro.drbac.query import Constraint


class TestConstraintParse:
    def test_bare_role(self):
        c = Constraint.parse("Mail.Node")
        assert c.role == Role("Mail", "Node")
        assert c.required_attributes == {}

    def test_with_set_attribute(self):
        c = Constraint.parse("Mail.Node with Secure={true}")
        assert c.required_attributes["Secure"] == AttrSet([True])

    def test_with_multiple_attributes(self):
        c = Constraint.parse("Mail.Node with Secure={true} Trust=(5,10)")
        assert c.required_attributes["Trust"] == AttrRange(5, 10)

    def test_with_scalar(self):
        c = Constraint.parse("Comp.SD.Executable with CPU=40")
        assert c.required_attributes["CPU"] == AttrScalar(40)

    def test_malformed_attribute(self):
        with pytest.raises(ValueError):
            Constraint.parse("Mail.Node with Secure")

    def test_str_roundtrip(self):
        text = "Mail.Node with Secure={true} Trust=(5,10)"
        assert str(Constraint.parse(text)) == text


class TestEvaluation:
    def test_satisfies_all(self, engine):
        engine.delegate(
            "Mail", "node9", "Mail.Node",
            attributes={"Secure": AttrSet([True]), "Trust": AttrRange(0, 10)},
        )
        creds = engine.repository.collect(EntityRef("node9"), Role("Mail", "Node"))
        constraints = [
            Constraint.parse("Mail.Node with Secure={true}"),
            Constraint.parse("Mail.Node with Trust=(2,8)"),
        ]
        assert all(
            engine.is_a(EntityRef("node9"), constraint, creds)
            for constraint in constraints
        )
        assert engine.is_a("node9", "Mail.Node with Trust=(11,12)", creds) is None

    def test_is_a_is_a_metered_search(self, engine):
        """Constraint queries take the same path as every other search,
        so their work shows up in the engine's meter."""
        engine.delegate("Mail", "node9", "Mail.Node")
        before = engine.search_work
        assert engine.is_a("node9", "Mail.Node") is not None
        assert engine.search_work > before
