"""Membership in L^Psi by the comparison tests as lambda -> 0: the verdict
against the multiple-precision reference's rule, the witness against a
linear walk of lambda = 2^-k over the closed-form conditions, and no modular
or quadrature call on the way.  The walk and the reference share no code
with `classical_space` or `rearrange`.  Also the search the witness gallops
with, `rearrange._first_holding` over a ladder of rungs: its answer, its
test count and how much of the ladder it reads, from the first rung and
from any entry rung."""

import itertools
import math

import pytest

from orlicz_kit import classical_space as cs
from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg

import mp_reference as mpr

D = rr.DecreasingProfile
L, I = rr.LogSingularity, rr.InvPowerSingularity
E, P = rr.ExponentialTail, rr.PowerTail

GRID = [2.0**-k for k in range(61)]


def walk_witness(young, prof, weight=None):
    """The first lambda of 1, 1/2, 1/4, ... at which lambda c rate + theta_w
    < 1 for a log head under exp growth, and lambda sup <= thr under a
    finiteness threshold (<= v0, where Psi vanishes, against a weight head
    with theta_w >= 1); the closed-form conditions of a member."""
    growth, head = young.growth(), prof.head
    wh = None if weight is None else weight.head
    theta_w = wh.exponent if isinstance(wh, I) else 0.0
    bound = young.vanish_below if theta_w >= 1.0 else young.finite_threshold
    lam = 1.0
    while lam > 0.0:
        head_ok = not (isinstance(head, L) and growth.kind == "exp") or lam * head.coeff * growth.rate + theta_w < 1.0
        if head_ok and (math.isinf(bound) or lam * prof.sup_value <= bound):
            return lam
        lam *= 0.5
    raise AssertionError("no positive double lambda")


def walk_membership(young, f, weight=None):
    """(member, lambda_witness): the reference's verdict, and the walked
    witness of a member."""
    p, w = cs._as_profile_weight(f, weight)
    if not mpr.member(young, p, w):
        return False, None
    return True, walk_witness(young, p, w)


def forbid_modular(monkeypatch):
    """Make every modular evaluation and every quadrature fail the test."""

    def forbidden(*args, **kwargs):
        raise AssertionError("membership evaluated a modular")

    for name in ("modular", "modular_is_finite", "_integrate"):
        monkeypatch.setattr(rr, name, forbidden)
        if hasattr(cs, name):
            monkeypatch.setattr(cs, name, forbidden)


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
    # infinite mass at 0: only a Psi that vanishes there keeps a member
    "inv-power-head-wild": D(((1.0, 1.0),), head=I(1.0, 1.5, 1.0)),
}

SCALES = [1e-300, 1e-100, 1e-3, 1.0, 40.0, 1e100, 1e300]


def matrix():
    return itertools.product(PROFILES.items(), WEIGHTS.items(), SCALES)


@pytest.mark.parametrize("yname", YOUNGS)
def test_verdict_matches_the_mp_reference(monkeypatch, yname):
    young = YOUNGS[yname]
    forbid_modular(monkeypatch)
    for (pname, p), (wname, w), s in matrix():
        prof = p.scale(s)
        assert cs.membership(young, prof, w).member == mpr.member(young, prof, w), (pname, wname, s)


@pytest.mark.parametrize("yname", YOUNGS)
def test_gallop_matches_the_linear_scan(yname):
    young = YOUNGS[yname]
    for (pname, p), (wname, w), s in matrix():
        prof = p.scale(s)
        rep = cs.membership(young, prof, w)
        assert (rep.member, rep.lambda_witness) == walk_membership(young, prof, w), (pname, wname, s)


@pytest.mark.parametrize("level", [1e-300, 1e-100, 1.0, 7.0, 1e100, 1e300])
@pytest.mark.parametrize("yname", YOUNGS)
def test_simple_functions_match_the_linear_scan(yname, level):
    young = YOUNGS[yname]
    f = rr.simple_function([level, -0.5 * level], [0.5, 1.5])
    rep = cs.membership(young, f)
    assert (rep.member, rep.lambda_witness) == walk_membership(young, f)


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


def gallop_from_the_start(holds, rungs):
    """Bentley and Yao's search from rung 0 as a plain list walk: a gallop
    over the indices 0, 1, 3, 7, ..., capped at the last rung, then a
    bisection of the gap after the last failure."""
    rungs = list(rungs)
    failed, k = -1, 0
    while True:
        k = min(k, len(rungs) - 1)
        if k == failed:
            return None
        if holds(rungs[k]):
            break
        failed, k = k, 2 * k + 1
    while k - failed > 1:
        mid = (failed + k) // 2
        if holds(rungs[mid]):
            k = mid
        else:
            failed = mid
    return rungs[k]


def entry_guesses(first):
    """The entry rungs tried against a ladder that holds from `first` on."""
    return sorted({g for g in (0, first - 5, first - 1, first, first + 1, first + 7, 399, 1000) if g >= 0})


def test_an_entered_search_is_the_search_from_the_start():
    # a 400-rung ladder that holds from rung `first` on (400: nowhere)
    def run(search, first, *guess):
        ladder, tested = CountingLadder(400), []
        got = search(lambda k: tested.append(k) or k >= first, ladder, *guess)
        return got, tested, ladder.read

    for first in range(401):
        want, plain, _ = run(gallop_from_the_start, first)
        assert want == (first if first < 400 else None)
        assert run(rr._first_holding, first)[:2] == (want, plain), first
        assert run(rr._first_holding, first, 0)[:2] == (want, plain), first
        for guess in entry_guesses(first):
            got, tested, read = run(rr._first_holding, first, guess)
            g = min(guess, 399)
            assert got == want, (first, guess)
            assert len(set(tested)) == len(tested), (first, guess)
            assert read <= min(max(g, 2 * first - g) + 1, 400), (first, guess)
            assert len(tested) <= 2 * math.ceil(math.log2(abs(first - g) + 2)) + 1, (first, guess)
            if 1 <= guess == first < 400:
                assert tested == [first, first - 1], first


def test_an_entered_search_on_an_empty_ladder():
    for guess in (0, 1, 1000):
        assert rr._first_holding(lambda x: True, [], guess) is None


def test_ladder_is_the_repeated_product():
    x, rungs = 0.3, []
    for _ in range(50):
        rungs.append(x)
        x *= 1.6
    assert list(itertools.islice(rr._ladder(0.3, 1.6), 50)) == rungs


@pytest.mark.parametrize(
    "young, prof",
    [
        (yg.identity(), D((), P(1.0, 1.0))),
        (yg.power(2.0), D((), head=I(1.0, 0.6, 1.0))),
        (yg.cosh_minus_1(), D((), head=I(1.0, 0.2, 1.0))),
    ],
    ids=["slow-tail-in-l1", "inv-head-in-l2", "inv-head-in-cosh"],
)
def test_a_certified_non_member_takes_no_modular(monkeypatch, young, prof):
    forbid_modular(monkeypatch)
    rep = cs.membership(young, prof)
    assert not rep.member and rep.lambda_witness is None


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
def test_a_member_takes_no_modular(monkeypatch, young, prof, witness):
    forbid_modular(monkeypatch)
    rep = cs.membership(young, prof)
    assert rep.member and rep.lambda_witness == witness


def test_an_overflowing_psi_is_no_divergence():
    # cosh(1e300 lam) - 1 overflows a double at every lam >= 2^-60, yet the
    # modular is finite for every lam
    rep = cs.membership(yg.cosh_minus_1(), D(((1e300, 1.0),), E(1.0, 1.0)))
    assert rep.member and rep.lambda_witness == 1.0
    assert rr.modular_is_finite(yg.cosh_minus_1(), D(((1e300, 1.0),), E(1.0, 1.0)))
