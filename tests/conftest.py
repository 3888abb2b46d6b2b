"""Shared test fixtures."""

import pytest

from orlicz_kit import classical_space as cs
from orlicz_kit import rearrange as rr
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


class _Work(dict):
    """Work counts; `per_integral` lists the _gk15 rounds of each _integrate
    call in order, one entry per call that returned."""

    per_integral: list[int]


@pytest.fixture
def kernel_work(monkeypatch):
    """Counts of _integrate calls, _gk15 rounds and the panels they evaluate
    for this test, and the rounds of each integral."""
    work = _Work(integrate=0, rounds=0, panels=0)
    work.per_integral = []
    integrate, gk15 = rr._integrate, rr._gk15

    def counted_integrate(fn, pieces):
        work["integrate"] += 1
        before = work["rounds"]
        value = integrate(fn, pieces)
        work.per_integral.append(work["rounds"] - before)
        return value

    def counted_gk15(fn, lo, hi):
        work["rounds"] += 1
        work["panels"] += lo.size
        return gk15(fn, lo, hi)

    monkeypatch.setattr(rr, "_integrate", counted_integrate)
    monkeypatch.setattr(rr, "_gk15", counted_gk15)
    return work
