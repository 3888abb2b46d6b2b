"""Shared test fixtures."""

import functools

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

        @functools.wraps(original)
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


@pytest.fixture
def step_evals(monkeypatch):
    """Counts of the step norms' kernel calls for this test, the step path's
    counterpart of modular_calls: "gap" sums the gap in Young's equality
    over the levels (one Q evaluation), "modular" Psi.  Each call of a
    _step_sum map is one kernel call, for one scale or a batch of them."""
    calls = {"gap": 0, "modular": 0}
    step_sum = cs._step_sum

    def counted(kernel, levels, masses):
        total = step_sum(kernel, levels, masses)
        key = "gap" if kernel.__name__ == "_equality_gap_arr" else "modular"

        def call(scales):
            calls[key] += 1
            return total(scales)

        return call

    monkeypatch.setattr(cs, "_step_sum", counted)
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
