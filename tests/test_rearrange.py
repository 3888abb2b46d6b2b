"""Profiles, rearrangements, partial integrals, and the modular engine."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg
from orlicz_kit.errors import DomainError

# integral_0^inf (cosh(e^-t) - 1) dt = sum_{k>=1} 1/((2k)! * 2k),
# frozen from the series oracle below
COSH_EXP_TAIL_INTEGRAL = 0.2606512760786754


def series_oracle():
    return sum(1.0 / (math.factorial(2 * k) * 2 * k) for k in range(1, 40))


class TestSimpleFunction:
    def test_weights_must_be_positive(self):
        with pytest.raises(DomainError):
            rr.simple_function([1.0], [0.0])

    def test_mass_cannot_exceed_space(self):
        with pytest.raises(DomainError):
            rr.simple_function([1.0, 2.0], [0.7, 0.7], rr.probability_space())

    def test_loader(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1.5 0.5\n-2.0 1.0\n")
        f = rr.load_simple_function(path)
        assert f.atoms == ((1.5, 0.5), (-2.0, 1.0))

    def test_probability_space_invariant(self):
        with pytest.raises(DomainError):
            rr.MeasureSpaceDesc("probability", 2.0)

    def test_aligned_weights_agree_to_1e_12_relative(self):
        f = rr.simple_function([1.0, 2.0], [0.5, 3.0])
        near = rr.simple_function([4.0, 5.0], [0.5, 3.0 * (1 + 5e-13)])
        assert rr.add_aligned(near, f).values.tolist() == [5.0, 7.0]
        far = rr.simple_function([4.0, 5.0], [0.5, 3.0 * (1 + 2e-12)])
        with pytest.raises(DomainError, match="share atom weights"):
            rr.add_aligned(far, f)


class TestRearrange:
    def test_constant_function(self):
        f = rr.simple_function([3.0], [2.0])
        assert rr.rearrange(f).steps == ((3.0, 2.0),)

    def test_sorting_by_absolute_value(self):
        f = rr.simple_function([3.0, 1.0, -2.0], [1.0, 1.0, 1.0])
        assert rr.rearrange(f).steps == ((3.0, 1.0), (2.0, 1.0), (1.0, 1.0))

    def test_equimeasurability(self):
        rng = np.random.default_rng(2)
        y = yg.xlog1p()
        for _ in range(50):
            n = int(rng.integers(1, 9))
            f = rr.simple_function(rng.uniform(-10, 10, n), rng.uniform(0.1, 2.0, n))
            lhs = float(np.sum(f.weights * y(np.abs(f.values))))
            rhs = rr.modular(y, rr.rearrange(f))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @given(st.permutations(list(range(5))))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, perm):
        vals = [4.0, -1.0, 2.5, 0.5, 3.0]
        ws = [0.5, 1.0, 0.25, 2.0, 1.5]
        base = rr.rearrange(rr.simple_function(vals, ws))
        shuffled = rr.rearrange(
            rr.simple_function([vals[i] for i in perm], [ws[i] for i in perm])
        )
        assert base == shuffled

    def test_atom_splitting_invariance(self):
        f = rr.simple_function([2.0, 1.0], [1.0, 1.0])
        g = rr.simple_function([2.0, 2.0, 1.0], [0.25, 0.75, 1.0])
        assert rr.rearrange(f) == rr.rearrange(g)


class TestProfiles:
    def test_step_levels_strictly_decreasing(self):
        with pytest.raises(DomainError):
            rr.DecreasingProfile(((1.0, 1.0), (1.0, 1.0)))

    def test_head_must_dominate_steps(self):
        with pytest.raises(DomainError):
            rr.DecreasingProfile(((10.0, 1.0),), head=rr.LogSingularity(1.0, 0.5))

    def test_tail_junction_below_last_step(self):
        with pytest.raises(DomainError):
            rr.DecreasingProfile(((1.0, 1.0),), rr.ExponentialTail(2.0, 1.0))

    def test_value_right_continuity_layout(self):
        p = rr.DecreasingProfile(((3.0, 1.0), (1.0, 1.0)), rr.ExponentialTail(0.5, 2.0))
        assert p.value(0.5) == 3.0
        assert p.value(1.0) == 1.0  # right-continuous at the edge
        assert p.value(2.0) == pytest.approx(0.5)
        assert p.value(3.0) == pytest.approx(0.5 * math.exp(-2.0))

    def test_log_head_layout(self):
        p = rr.DecreasingProfile((), head=rr.LogSingularity(2.0, 0.5))
        assert p.value(0.1) == pytest.approx(2.0 * math.log(10.0))
        assert p.value(0.7) == 0.0

    def test_scale(self):
        p = rr.DecreasingProfile(((2.0, 1.0),), rr.ExponentialTail(1.0, 1.0))
        q = p.scale(3.0)
        assert q.steps == ((6.0, 1.0),)
        assert q.tail == rr.ExponentialTail(3.0, 1.0)

    @pytest.mark.parametrize(
        "p",
        [
            rr.DecreasingProfile((), rr.ExponentialTail(1e10, 1.0)),
            rr.DecreasingProfile((), rr.PowerTail(1e10, 2.0)),
            rr.DecreasingProfile((), head=rr.LogSingularity(1e10, 1.0)),
            rr.DecreasingProfile((), head=rr.InvPowerSingularity(1e10, 0.5, 1.0)),
        ],
        ids=["exponential", "power", "log", "inv-power"],
    )
    def test_scale_overflow_is_a_domain_error(self, p):
        # the amplitude or coefficient 1e310 overflows to inf
        with pytest.raises(DomainError, match="finite"):
            p.scale(1e300)

    def test_serialization_roundtrip(self):
        profiles = [
            rr.DecreasingProfile(((2.0, 1.0), (1.0, 0.5))),
            rr.DecreasingProfile((), head=rr.LogSingularity(1.5, 0.75)),
            rr.DecreasingProfile((), head=rr.InvPowerSingularity(1.0, 0.5, 1.0)),
            rr.DecreasingProfile(((2.0, 1.0),), rr.PowerTail(1.0, 2.0, 1.0)),
        ]
        for p in profiles:
            assert rr.profile_from_dict(p.to_dict()) == p


class TestHeadAndTail:
    """Profiles with a singular head and a tail at once."""

    P = rr.DecreasingProfile(((0.5, 1.0),), rr.ExponentialTail(0.4, 2.0), head=rr.LogSingularity(1.0, 0.5))
    HEAD_MASS = 0.5 * (1.0 + math.log(2.0))  # integral_0^0.5 log(1/t) dt

    def test_value(self):
        p = self.P
        assert p.value(0.1) == pytest.approx(math.log(10.0))
        assert p.value(0.5) == p.value(1.4) == 0.5
        assert p.value(1.5) == pytest.approx(0.4)
        assert p.value(2.0) == pytest.approx(0.4 * math.exp(-1.0))
        assert p.cuts() == (0.5, 1.5)
        assert (p.sup_value, p.support_end) == (math.inf, math.inf)

    def test_hl_partial(self):
        assert rr.hl_partial(self.P, 0.5) == pytest.approx(self.HEAD_MASS, rel=1e-14)
        assert rr.hl_partial(self.P, 1.5) == pytest.approx(self.HEAD_MASS + 0.5, rel=1e-14)
        assert rr.hl_partial(self.P, math.inf) == pytest.approx(self.HEAD_MASS + 0.7, rel=1e-14)

    def test_scale(self):
        assert self.P.scale(3.0) == rr.DecreasingProfile(
            ((1.5, 1.0),), rr.ExponentialTail(1.2000000000000002, 2.0), head=rr.LogSingularity(3.0, 0.5)
        )

    def test_json_roundtrip(self):
        d = json.loads(json.dumps(self.P.to_dict()))
        assert d["head"] == {"kind": "log_singularity", "coeff": 1.0, "width": 0.5}
        assert rr.profile_from_dict(d) == self.P

    def test_without_steps_the_head_must_dominate_the_tail(self):
        head = rr.LogSingularity(1.0, 0.5)  # log 2 at its width
        assert rr.DecreasingProfile((), rr.PowerTail(0.6, 1.5), head=head).value(0.5) == 0.6
        with pytest.raises(DomainError, match="dominate"):
            rr.DecreasingProfile((), rr.PowerTail(0.8, 1.5), head=head)

    @pytest.mark.parametrize(
        "head",
        [
            {"kind": "log_singularity", "coeff": 0.5, "width": 0.5},
            {"kind": "log_singularity", "width": 0.5},
            {"kind": "inv_power", "coeff": 2.0, "exponent": 0.3},
        ],
        ids=["log", "log-default-coeff", "inv-power"],
    )
    def test_legacy_head_under_tail(self, head):
        legacy = rr.profile_from_dict({"steps": [[0.1, 1.0]], "tail": head})
        assert legacy == rr.profile_from_dict({"steps": [[0.1, 1.0]], "head": head})
        assert legacy.tail is None and legacy.head.kind == head["kind"]

    def test_zero_tail_is_no_tail(self):
        p = rr.profile_from_dict({"steps": [[1.0, 1.0]], "tail": {"kind": "zero"}})
        assert p == rr.DecreasingProfile(((1.0, 1.0),)) and p.tail is None

    @pytest.mark.parametrize(
        "build",
        [
            lambda: rr.DecreasingProfile((), rr.LogSingularity(1.0, 0.5)),
            lambda: rr.DecreasingProfile((), head=rr.ExponentialTail(1.0, 1.0)),
            lambda: rr.profile_from_dict({"head": {"kind": "power", "amplitude": 1.0, "exponent": 2.0}}),
            lambda: rr.profile_from_dict(
                {"head": {"kind": "log_singularity"}, "tail": {"kind": "inv_power", "exponent": 0.5}}
            ),
        ],
        ids=["head-as-tail", "tail-as-head", "tail-kind-under-head", "two-heads"],
    )
    def test_misplaced_ends_are_rejected(self, build):
        with pytest.raises(DomainError):
            build()


def loop_hl_partial(p, alpha):
    """Reference partial integral: the plain O(n) walk over the steps,
    adding level * covered length left to right."""
    total = 0.0
    hw = p.head_width
    if p.head is not None:
        total += p.head.partial(min(alpha, hw))
        if alpha <= hw:
            return total
    t = hw
    for (lvl, _), edge in zip(p.steps, p.step_edges):
        if alpha <= t:
            return total
        total += lvl * (min(alpha, edge) - t)
        t = edge
    if p.tail is not None and alpha > p.steps_end:
        total += p.tail.partial(alpha - p.steps_end)
    return total


def random_profile(rng, head_kind, tail_kind):
    """A valid profile with the given ends and 0-8 steps; levels may end at
    0 when there is no tail."""
    n = int(rng.integers(0, 9))
    levels = np.sort(rng.uniform(0.1, 10.0, n))[::-1]
    if n and tail_kind is None and rng.random() < 0.3:
        levels[-1] = 0.0
    if len(set(levels.tolist())) < n:
        return None
    steps = tuple((float(l), float(w)) for l, w in zip(levels, rng.uniform(0.01, 3.0, n)))
    top = levels[0] if n else 1.0
    bottom = levels[-1] if n else top
    tail = None
    if tail_kind == "exponential":
        tail = rr.ExponentialTail(bottom * rng.uniform(0.1, 1.0), rng.uniform(0.1, 3.0))
    elif tail_kind == "power":
        offset, expo = rng.uniform(0.5, 2.0), float(rng.choice([0.5, 1.0, 2.5]))
        tail = rr.PowerTail(bottom * rng.uniform(0.1, 1.0) * offset**expo, expo, offset)
    top = max(top, tail.junction if tail is not None else 0.1)
    head = None
    if head_kind == "log_singularity":
        width = rng.uniform(0.05, 0.9)
        head = rr.LogSingularity(top * rng.uniform(1.0, 3.0) / math.log(1.0 / width), width)
    elif head_kind == "inv_power":
        width, expo = rng.uniform(0.05, 2.0), float(rng.choice([0.3, 0.8, 1.0, 1.5]))
        head = rr.InvPowerSingularity(top * rng.uniform(1.0, 3.0) * width**expo, expo, width)
    return rr.DecreasingProfile(steps, tail, head)


def probe_alphas(rng, p):
    """Every cut, points between cuts, inside the head, past the steps, inf."""
    cuts = [c for c in p.cuts() if c > 0]
    pts = [0.0, *cuts, p.steps_end]
    mids = [lo + f * (hi - lo) for lo, hi in zip(pts, pts[1:]) for f in (1e-12, 0.5, 1 - 1e-12)]
    end = max(p.steps_end, 1e-3)
    past = [end * (1 + 1e-15), end + 1e-9, end * 1.5, end + 7.0, end * 1e6]
    inside = [p.head_width * f for f in (1e-300, 1e-9, 0.3)] if p.head is not None else []
    return [a for a in (*cuts, *mids, *past, *inside, *rng.uniform(0.0, 2 * end, 5), math.inf) if a > 0]


def chain_value(p, t):
    """Reference profile value: every piece's expression on every point,
    each kept where its region holds, with the same ufuncs and operand
    types as DecreasingProfile.value."""
    arr = np.asarray(t, dtype=float)
    out = np.zeros_like(arr)
    hw = p.head_width
    if p.head is not None:
        with np.errstate(divide="ignore", over="ignore"):
            out = np.where(arr < hw, p.head.value(np.maximum(arr, 1e-320)), out)
    if p.steps:
        idx = np.searchsorted(np.asarray(p.step_edges), arr, side="right")
        in_steps = (arr >= hw) & (idx < len(p.steps))
        levels = np.asarray([l for l, _ in p.steps])
        out = np.where(in_steps, levels[np.minimum(idx, len(p.steps) - 1)], out)
    if p.tail is not None:
        u = arr - p.steps_end
        with np.errstate(over="ignore"):
            out = np.where(u >= 0, p.tail.value(np.maximum(u, 0.0)), out)
    return float(out) if np.ndim(t) == 0 else out


def value_probes(p):
    """Points by region: in the head (0, below the 1e-320 clamp, up to just
    under head_width), on the steps (head_width, each edge, between edges),
    and on the tail (steps_end and past it)."""
    hw, end = p.head_width, p.steps_end
    head = [0.0, 5e-324, 1e-322, *(hw * f for f in (1e-300, 1e-9, 0.3, 1 - 1e-12))]
    head = head if p.head is not None else []
    bounds = [hw, *p.step_edges]
    steps = [x for a, b in zip(bounds, bounds[1:]) for x in (a, 0.5 * (a + b), b * (1 - 1e-15))]
    tail = [end, end * (1 + 1e-15), end + 1e-9, end + 0.7, end * 1.5 + 3.0, end + 1e6, math.inf]
    return [x for x in head if x < hw], [x for x in steps if hw <= x < end], tail


class TestValueRegions:
    HEADS = (None, "log_singularity", "inv_power")
    TAILS = (None, "exponential", "power")

    @staticmethod
    def same(got, expected):
        if isinstance(expected, float):
            return type(got) is float and got.hex() == expected.hex()
        return (isinstance(got, np.ndarray) and got.dtype == expected.dtype
                and got.shape == expected.shape and got.tobytes() == expected.tobytes())

    @pytest.mark.parametrize("head_kind", HEADS)
    @pytest.mark.parametrize("tail_kind", TAILS)
    def test_bits_equal_the_full_chain(self, head_kind, tail_kind):
        rng = np.random.default_rng(16)
        seen = 0
        for _ in range(40):
            p = random_profile(rng, head_kind, tail_kind)
            if p is None:
                continue
            head, steps, tail = value_probes(p)
            everything = head + steps + tail
            inputs = [*everything, *map(np.float64, everything), math.nan]
            inputs += [np.asarray(x) for x in (head + tail)[:3]]
            inputs += [np.array(region) for region in (head, steps, tail, head[:1], tail[:1], everything)]
            inputs += [np.array([*tail, math.nan]), np.array([math.nan]), np.array([]),
                       np.array(everything[: len(everything) // 2 * 2]).reshape(2, -1)]
            for t in inputs:
                assert self.same(p.value(t), chain_value(p, t)), (p, t)
            seen += len(inputs)
        assert seen > 1000


class TestHlPartial:
    HEADS = (None, "log_singularity", "inv_power")
    TAILS = (None, "exponential", "power")

    @pytest.mark.parametrize("head_kind", HEADS)
    @pytest.mark.parametrize("tail_kind", TAILS)
    def test_table_equals_plain_loop(self, head_kind, tail_kind):
        rng = np.random.default_rng(2024)
        seen = 0
        for _ in range(120):
            p = random_profile(rng, head_kind, tail_kind)
            if p is None:
                continue
            alphas = probe_alphas(rng, p)
            expected = [loop_hl_partial(p, a).hex() for a in alphas]
            assert [rr.hl_partial(p, a).hex() for a in alphas] == expected
            assert [float(x).hex() for x in rr.hl_partials(p, alphas)] == expected
            seen += len(alphas)
        assert seen > 2000

    @pytest.mark.parametrize("alpha", [float("nan"), 0.0, -1.0, -math.inf])
    def test_rejects_alpha_not_positive(self, alpha):
        p = rr.DecreasingProfile(((3.0, 1.0), (1.0, 1.0)), rr.ExponentialTail(0.5, 1.0))
        with pytest.raises(DomainError):
            rr.hl_partial(p, alpha)
        with pytest.raises(DomainError):
            rr.hl_partials(p, [1.0, alpha])

    def test_steps(self):
        p = rr.DecreasingProfile(((3.0, 1.0), (1.0, 2.0)))
        assert rr.hl_partial(p, 2.0) == 4.0

    def test_exponential_total_mass(self):
        p = rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))
        assert rr.hl_partial(p, math.inf) == pytest.approx(1.0, rel=1e-14)

    def test_step_partial(self):
        p = rr.DecreasingProfile(((2.0, 2.0),))
        assert rr.hl_partial(p, 1.0) == 2.0

    def test_log_head_partial(self):
        p = rr.DecreasingProfile((), head=rr.LogSingularity(1.0, 1.0))
        x = 0.25
        assert rr.hl_partial(p, x) == pytest.approx(x * (1 - math.log(x)), rel=1e-14)

    def test_inv_power_not_locally_integrable(self):
        p = rr.DecreasingProfile((), head=rr.InvPowerSingularity(1.0, 1.5, 1.0))
        assert rr.hl_partial(p, 0.5) == math.inf

    def test_concave_nondecreasing(self):
        p = rr.DecreasingProfile(((3.0, 0.5), (1.0, 1.0)), rr.ExponentialTail(0.5, 1.0))
        alphas = np.linspace(0.1, 5.0, 25)
        vals = [rr.hl_partial(p, a) for a in alphas]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
        for i in range(len(alphas) - 2):
            mid = rr.hl_partial(p, 0.5 * (alphas[i] + alphas[i + 2]))
            assert mid >= 0.5 * (vals[i] + vals[i + 2]) - 1e-12


class TestModular:
    def test_step_times_lebesgue_exact(self):
        p = rr.DecreasingProfile(((2.0, 3.0),))
        assert rr.modular(yg.power(1), p) == 6.0

    def test_cosh_exponential_tail_matches_series(self):
        p = rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))
        val = rr.modular(yg.cosh_minus_1(), p)
        assert series_oracle() == pytest.approx(COSH_EXP_TAIL_INTEGRAL, abs=1e-16)
        assert val == pytest.approx(COSH_EXP_TAIL_INTEGRAL, abs=1e-9)

    def test_log_head_divergence_threshold(self):
        wexp = rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))
        plog = rr.DecreasingProfile((), head=rr.LogSingularity(1.0, 1.0))
        # cosh(lam * log(1/t)) ~ t^-lam / 2: diverges for lam >= 1
        assert rr.modular(yg.cosh_minus_1(), plog, wexp) == math.inf
        assert rr.modular(yg.cosh_minus_1(), plog.scale(2.0), wexp) == math.inf
        assert math.isfinite(rr.modular(yg.cosh_minus_1(), plog.scale(0.5), wexp))

    def test_log_head_value_against_quadrature_oracle(self):
        wexp = rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))
        plog = rr.DecreasingProfile((), head=rr.LogSingularity(0.5, 1.0))
        mine = rr.modular(yg.cosh_minus_1(), plog, wexp)
        oracle = quad(
            lambda y: (math.cosh(0.5 * y) - 1) * math.exp(-math.exp(-y)) * math.exp(-y),
            0.0,
            120.0,
            limit=300,
        )[0]
        assert mine == pytest.approx(oracle, rel=1e-9)

    def test_power_tail_divergence_under_identity(self):
        p = rr.DecreasingProfile((), rr.PowerTail(1.0, 1.0))
        assert rr.modular(yg.identity(), p) == math.inf

    def test_power_tail_value(self):
        p = rr.DecreasingProfile((), rr.PowerTail(1.0, 2.0))
        mine = rr.modular(yg.cosh_minus_1(), p)
        oracle = quad(lambda t: math.cosh((1 + t) ** -2.0) - 1, 0.0, 2000.0, limit=500)[0]
        assert mine == pytest.approx(oracle, abs=1e-8)

    def test_inv_power_head_divergence_for_exponential_young(self):
        p = rr.DecreasingProfile((), head=rr.InvPowerSingularity(1.0, 0.5, 1.0))
        assert rr.modular(yg.cosh_minus_1(), p) == math.inf
        # scale-free: every positive multiple diverges too
        assert rr.modular(yg.cosh_minus_1(), p.scale(1e-6)) == math.inf

    def test_inv_power_head_under_polynomial_young(self):
        p = rr.DecreasingProfile((), head=rr.InvPowerSingularity(1.0, 0.3, 1.0))
        mine = rr.modular(yg.power(2), p)
        # integral_0^1 t^-0.6 dt = 1/0.4
        assert mine == pytest.approx(1.0 / 0.4, rel=1e-9)
        assert rr.modular(yg.power(2), rr.DecreasingProfile((), head=rr.InvPowerSingularity(1.0, 0.6, 1.0))) == math.inf

    def test_threshold_young_step_divergence(self):
        thr = yg.complement(yg.identity())
        p_ok = rr.DecreasingProfile(((0.5, 2.0),))
        p_bad = rr.DecreasingProfile(((2.0, 1.0),))
        assert rr.modular(thr, p_ok) == 0.0
        assert rr.modular(thr, p_bad) == math.inf

    # complement(identity) is 0 up to 1 and +inf beyond; these tails start at
    # 2 and 3, crossing 1 at t = log 2 and t = sqrt(3) - 1
    TAILS_ABOVE = {
        "exp": rr.DecreasingProfile((), rr.ExponentialTail(2.0, 1.0)),
        "power": rr.DecreasingProfile((), rr.PowerTail(3.0, 2.0, 1.0)),
    }
    SLAB_WEIGHTS = {
        "lebesgue": None,
        "support-ends-before-crossing": rr.DecreasingProfile(((1.0, 0.5),)),
        "support-ends-after-crossing": rr.DecreasingProfile(((1.0, 2.0), (0.5, 3.0))),
    }

    @pytest.mark.parametrize("weight", sorted(SLAB_WEIGHTS))
    @pytest.mark.parametrize("tail", sorted(TAILS_ABOVE))
    def test_tail_starting_above_threshold_diverges(self, tail, weight):
        thr = yg.complement(yg.identity())
        p, w = self.TAILS_ABOVE[tail], self.SLAB_WEIGHTS[weight]
        assert rr.modular(thr, p, w) == math.inf
        assert not rr.modular_is_finite(thr, p, w)

    @pytest.mark.parametrize("weight", sorted(SLAB_WEIGHTS))
    @pytest.mark.parametrize(
        "p",
        [
            rr.DecreasingProfile(((0.8, 0.5),), rr.ExponentialTail(0.6, 1.5)),
            rr.DecreasingProfile(((0.9, 1.0),), rr.PowerTail(0.5, 2.0, 1.0)),
        ],
        ids=["exp", "power"],
    )
    def test_tail_starting_below_threshold_is_the_step_part(self, p, weight):
        thr = yg.complement(yg.identity())
        w = self.SLAB_WEIGHTS[weight]
        ((level, length),) = p.steps
        mass = length if w is None else rr.hl_partial(w, length)
        assert rr.modular(thr, p, w) == float(thr.eval(level)) * mass
        assert rr.modular_is_finite(thr, p, w)

    @pytest.mark.parametrize("tail", [None, rr.ExponentialTail(1.0, 1.0)], ids=["steps", "steps+tail"])
    def test_weight_of_infinite_mass_at_zero(self, tail):
        # w(t) = t**-1.5 near 0 has infinite mass there: Psi(lam p) w is
        # integrable only where Psi(lam p) vanishes near 0
        p = rr.DecreasingProfile(((2.0, 0.5), (1.0, 0.5)), tail)
        w = rr.DecreasingProfile(((1.0, 1.0),), head=rr.InvPowerSingularity(1.0, 1.5, 1.0))
        assert rr.modular(yg.power(2), p, w) == math.inf
        assert rr.modular(yg.zygmund_llogl(), p, w) == math.inf
        assert rr.modular(yg.zygmund_llogl(), p.scale(0.5), w) == 0.0

    def test_zero_weight_leaves_a_tail_above_the_threshold_out(self):
        thr, w = yg.complement(yg.identity()), rr.DecreasingProfile(((0.0, 5.0),))
        for p in self.TAILS_ABOVE.values():
            assert rr.modular(thr, p, w) == 0.0 and rr.modular_is_finite(thr, p, w)

    def test_weighted_step_exact(self):
        p = rr.DecreasingProfile(((2.0, 1.0),))
        w = rr.DecreasingProfile(((0.5, 3.0),))
        assert rr.modular(yg.power(2), p, w) == pytest.approx(4.0 * 0.5 * 1.0, rel=1e-14)

    def test_monotone_in_profile(self):
        y = yg.cosh_minus_1()
        p1 = rr.DecreasingProfile(((1.0, 1.0),), rr.ExponentialTail(0.5, 2.0))
        p2 = rr.DecreasingProfile(((2.0, 1.0),), rr.ExponentialTail(1.0, 1.0))
        # p1 <= p2 pointwise
        ts = np.geomspace(1e-3, 50.0, 200)
        assert np.all(p1.value(ts) <= p2.value(ts) + 1e-15)
        assert rr.modular(y, p1) <= rr.modular(y, p2)

    def test_equimeasurability_exact_for_step_profiles(self):
        f = rr.simple_function([4.0, -2.0, 1.0], [0.5, 1.5, 2.0])
        y = yg.power(2)
        direct = float(np.sum(f.weights * f.values**2))
        assert rr.modular(y, rr.rearrange(f)) == pytest.approx(direct, rel=1e-14)


class TestCrossIntegral:
    def test_step_step_exact(self):
        p = rr.DecreasingProfile(((2.0, 2.0),))
        w = rr.DecreasingProfile(((0.5, 1.0),))
        assert rr.cross_integral(p, w, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_lebesgue_reduces_to_hl_partial(self):
        p = rr.DecreasingProfile(((3.0, 1.0), (1.0, 2.0)))
        assert rr.cross_integral(p, None, 2.0) == rr.hl_partial(p, 2.0)

    def test_against_quadrature(self):
        p = rr.DecreasingProfile((), head=rr.LogSingularity(1.0, 1.0))
        w = rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))
        mine = rr.cross_integral(p, w, 1.0)
        oracle = quad(lambda t: math.log(1 / t) * math.exp(-t), 1e-16, 1.0, limit=300)[0]
        assert mine == pytest.approx(oracle, rel=1e-6)
