"""Profiles, rearrangements, partial integrals, and the modular engine."""

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
            rr.DecreasingProfile(((10.0, 1.0),), rr.LogSingularity(1.0, 0.5))

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
        p = rr.DecreasingProfile((), rr.LogSingularity(2.0, 0.5))
        assert p.value(0.1) == pytest.approx(2.0 * math.log(10.0))
        assert p.value(0.7) == 0.0

    def test_scale(self):
        p = rr.DecreasingProfile(((2.0, 1.0),), rr.ExponentialTail(1.0, 1.0))
        q = p.scale(3.0)
        assert q.steps == ((6.0, 1.0),)
        assert q.tail == rr.ExponentialTail(3.0, 1.0)

    def test_serialization_roundtrip(self):
        profiles = [
            rr.DecreasingProfile(((2.0, 1.0), (1.0, 0.5))),
            rr.DecreasingProfile((), rr.LogSingularity(1.5, 0.75)),
            rr.DecreasingProfile((), rr.InvPowerSingularity(1.0, 0.5, 1.0)),
            rr.DecreasingProfile(((2.0, 1.0),), rr.PowerTail(1.0, 2.0, 1.0)),
        ]
        for p in profiles:
            assert rr.profile_from_dict(p.to_dict()) == p


class TestHlPartial:
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
        p = rr.DecreasingProfile((), rr.LogSingularity(1.0, 1.0))
        x = 0.25
        assert rr.hl_partial(p, x) == pytest.approx(x * (1 - math.log(x)), rel=1e-14)

    def test_inv_power_not_locally_integrable(self):
        p = rr.DecreasingProfile((), rr.InvPowerSingularity(1.0, 1.5, 1.0))
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
        plog = rr.DecreasingProfile((), rr.LogSingularity(1.0, 1.0))
        # cosh(lam * log(1/t)) ~ t^-lam / 2: diverges for lam >= 1
        assert rr.modular(yg.cosh_minus_1(), plog, wexp) == math.inf
        assert rr.modular(yg.cosh_minus_1(), plog.scale(2.0), wexp) == math.inf
        assert math.isfinite(rr.modular(yg.cosh_minus_1(), plog.scale(0.5), wexp))

    def test_log_head_value_against_quadrature_oracle(self):
        wexp = rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))
        plog = rr.DecreasingProfile((), rr.LogSingularity(0.5, 1.0))
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
        p = rr.DecreasingProfile((), rr.InvPowerSingularity(1.0, 0.5, 1.0))
        assert rr.modular(yg.cosh_minus_1(), p) == math.inf
        # scale-free: every positive multiple diverges too
        assert rr.modular(yg.cosh_minus_1(), p.scale(1e-6)) == math.inf

    def test_inv_power_head_under_polynomial_young(self):
        p = rr.DecreasingProfile((), rr.InvPowerSingularity(1.0, 0.3, 1.0))
        mine = rr.modular(yg.power(2), p)
        # integral_0^1 t^-0.6 dt = 1/0.4
        assert mine == pytest.approx(1.0 / 0.4, rel=1e-9)
        assert rr.modular(yg.power(2), rr.DecreasingProfile((), rr.InvPowerSingularity(1.0, 0.6, 1.0))) == math.inf

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
        p = rr.DecreasingProfile((), rr.LogSingularity(1.0, 1.0))
        w = rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))
        mine = rr.cross_integral(p, w, 1.0)
        oracle = quad(lambda t: math.log(1 / t) * math.exp(-t), 1e-16, 1.0, limit=300)[0]
        assert mine == pytest.approx(oracle, rel=1e-6)
