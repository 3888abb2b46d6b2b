"""Shared test fixtures."""

import pytest

from orlicz_kit import classical_space as cs
from orlicz_kit import young as yg


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(cls, attr) wraps the method cls.attr for this test and
    returns the list that gets one entry per call."""

    def patch(cls, attr):
        calls = []
        original = getattr(cls, attr)

        def counted(self, *args):
            calls.append(1)
            return original(self, *args)

        monkeypatch.setattr(cls, attr, counted)
        return calls

    return patch


@pytest.fixture
def modular_calls(monkeypatch):
    """Counts of the norms' modular calls for this test: "gap" integrates
    the gap in Young's equality (one Q evaluation), "modular" Psi."""
    calls = {"gap": 0, "modular": 0}
    modular = cs.modular

    def counted(young, p, w=None):
        calls["gap" if isinstance(young, yg._EqualityGap) else "modular"] += 1
        return modular(young, p, w)

    monkeypatch.setattr(cs, "modular", counted)
    return calls
