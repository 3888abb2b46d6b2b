"""Membership in L^Psi by a gallop and bisection over the lambda grid,
against a plain linear scan of the same grid and the same finiteness
verdicts, and its exact work counts.  The scan here shares no search code
with `classical_space`.  Also the search itself, `rearrange._first_holding`
over a ladder of rungs: its answer, its test count and how much of the
ladder it reads."""

import itertools
import math

import pytest

from orlicz_kit import classical_space as cs
from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg

D = rr.DecreasingProfile
L, I = rr.LogSingularity, rr.InvPowerSingularity
E, P = rr.ExponentialTail, rr.PowerTail

GRID = [2.0**-k for k in range(61)]


def scan_membership(young, f, weight=None):
    """(member, lambda_witness) by walking the grid from 1 downward."""
    p, w = cs._as_profile_weight(f, weight)
    if p.is_zero:
        return True, 1.0
    if p.is_bounded and p.support_end < math.inf:
        if math.isinf(young.finite_threshold):
            return True, (1.0 if math.isfinite(young.eval(p.sup_value)) else None)
        for lam in GRID:
            if math.isfinite(young.eval(lam * p.sup_value)):
                return True, lam
    for lam in GRID:
        if rr.modular_is_finite(young, p.scale(lam), w):
            return True, lam
    return False, None


def outcome(fn, *args):
    """fn's (member, lambda_witness), or the type of what it raised."""
    try:
        res = fn(*args)
    except Exception as exc:  # the type is compared, whatever it is
        return type(exc)
    return (res.member, res.lambda_witness) if isinstance(res, cs.MembershipReport) else res


YOUNGS = {
    "power:1.5": yg.power(1.5),
    "power:3": yg.power(3.0),
    "cosh-1": yg.cosh_minus_1(),
    "llog": yg.llog(),
    "xlog1p": yg.xlog1p(),
    "llogl": yg.zygmund_llogl(),
    "lexp": yg.zygmund_exp(),
    "threshold": yg.complement(yg.identity()),
    "tabulated-limit": yg.tabulated([0.0, 1.0], [1.0, 2.0], limit=5.0),
}

PROFILES = {
    "steps": D(((3.0, 0.5), (1.0, 1.5))),
    "steps-zero-end": D(((2.0, 1.0), (0.0, 1.0))),
    "exp-tail": D(((2.0, 0.5),), E(1.0, 0.7)),
    "power-tail-slow": D((), P(1.0, 0.4)),
    "power-tail-l1": D(((1.0, 1.0),), P(1.0, 1.0)),
    "power-tail-fast": D((), P(2.0, 2.5, 1.0)),
    "log-head": D((), head=L(1.0, 1.0)),
    "log-head-steep": D(((1.0, 1.0),), head=L(3.0, 0.5)),
    "inv-head-mild": D(((1.0, 1.0),), head=I(1.0, 0.3, 0.5)),
    "inv-head-l1": D((), head=I(1.0, 0.7, 1.0)),
    "inv-head-wild": D((), head=I(1.0, 1.5, 1.0)),
    "log-head+exp-tail": D(((0.5, 0.5),), E(0.5, 2.0), head=L(1.0, 0.5)),
    "inv-head+power-tail": D((), P(1.0, 0.8), head=I(2.0, 0.6, 1.0)),
}

WEIGHTS = {
    "none": None,
    "exponential": D((), E(1.0, 1.0)),
    "power": D((), P(1.0, 2.0)),
    "inv-power-head": D(((1.0, 1.0),), head=I(1.0, 0.5, 1.0)),
    "log-head": D(((0.5, 1.0),), head=L(1.0, 0.5)),
}

SCALES = [1e-100, 1e-3, 1.0, 40.0, 1e100]


@pytest.mark.parametrize("yname", YOUNGS)
def test_gallop_matches_the_linear_scan(yname):
    young = YOUNGS[yname]
    for (pname, p), (wname, w), s in itertools.product(PROFILES.items(), WEIGHTS.items(), SCALES):
        prof = p.scale(s)
        got = outcome(cs.membership, young, prof, w)
        assert got == outcome(scan_membership, young, prof, w), (pname, wname, s)


@pytest.mark.parametrize("level", [1e-300, 1e-100, 1.0, 7.0, 1e100, 1e300])
@pytest.mark.parametrize("yname", YOUNGS)
def test_simple_functions_match_the_linear_scan(yname, level):
    young = YOUNGS[yname]
    f = rr.simple_function([level, -0.5 * level], [0.5, 1.5])
    assert outcome(cs.membership, young, f) == outcome(scan_membership, young, f)


@pytest.mark.parametrize("first", range(len(GRID) + 1))
def test_first_holding_on_every_threshold(first):
    # holds from rung `first` on; len(GRID) means nowhere
    tested = []

    def holds(lam):
        tested.append(lam)
        return first < len(GRID) and lam <= GRID[first]

    got = rr._first_holding(holds, GRID)
    assert got == (GRID[first] if first < len(GRID) else None)
    assert len(tested) <= 2 * math.ceil(math.log2(first + 2)) + 1
    assert len(set(tested)) == len(tested)


class CountingLadder:
    """The rungs 0, 1, ..., n - 1, counting how many were read."""

    def __init__(self, n):
        self.n, self.read = n, 0

    def __iter__(self):
        for k in range(self.n):
            self.read += 1
            yield k


@pytest.mark.parametrize("first", [0, 1, 2, 3, 4, 6, 7, 8, 20, 100, 255, 256, 398, 399, 400])
def test_first_holding_reads_the_ladder_lazily(first):
    # a 400-rung ladder that holds from rung `first` on (400: nowhere)
    ladder = CountingLadder(400)
    got = rr._first_holding(lambda k: k >= first, ladder)
    assert got == (first if first < 400 else None)
    assert ladder.read <= min(2 * first + 2, 400)


def test_first_holding_on_an_endless_ladder():
    ladder = rr._ladder(1.0, 2.0)
    assert rr._first_holding(lambda x: x > 1e100, ladder) == 2.0**333
    # the gallop read 2^0 .. 2^511, 512 rungs, within 2k + 2 for k = 333
    assert next(ladder) == 2.0**512


def test_first_holding_on_an_empty_ladder():
    assert rr._first_holding(lambda x: True, []) is None


def test_ladder_is_the_repeated_product():
    x, rungs = 0.3, []
    for _ in range(50):
        rungs.append(x)
        x *= 1.6
    assert list(itertools.islice(rr._ladder(0.3, 1.6), 50)) == rungs


def count_verdicts(monkeypatch):
    calls = []
    real = cs.modular_is_finite

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cs, "modular_is_finite", counted)
    return calls


@pytest.mark.parametrize(
    "young, prof",
    [
        (yg.identity(), D((), P(1.0, 1.0))),
        (yg.power(2.0), D((), head=I(1.0, 0.6, 1.0))),
        (yg.cosh_minus_1(), D((), head=I(1.0, 0.2, 1.0))),
    ],
    ids=["slow-tail-in-l1", "inv-head-in-l2", "inv-head-in-cosh"],
)
def test_a_certified_non_member_takes_seven_verdicts(monkeypatch, young, prof):
    calls = count_verdicts(monkeypatch)
    rep = cs.membership(young, prof)
    assert not rep.member and rep.lambda_witness is None
    assert len(calls) == 7  # lambda = 2^-k for k = 0, 1, 3, 7, 15, 31, 60


@pytest.mark.parametrize(
    "young, prof, witness",
    [
        (yg.cosh_minus_1(), D(((1.0, 1.0),), E(1.0, 1.0)), 1.0),
        (yg.power(2.0), D((), head=I(1.0, 0.3, 1.0)), 1.0),
        # cosh(lam log(1/t)) - 1 is integrable iff lam < 1
        (yg.cosh_minus_1(), D((), head=L(1.0, 1.0)), 0.5),
    ],
    ids=["exp-tail-in-cosh", "inv-head-in-l2", "log-head-in-cosh"],
)
def test_a_member_takes_one_verdict_per_halving(monkeypatch, young, prof, witness):
    calls = count_verdicts(monkeypatch)
    rep = cs.membership(young, prof)
    assert rep.member and rep.lambda_witness == witness
    assert len(calls) == (1 if witness == 1.0 else 2)
