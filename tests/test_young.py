"""Young-function calculus: catalog values, complements, growth checks."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz_kit import classical_space as cs
from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg
from orlicz_kit.errors import DomainError

import mp_reference as mpr

ALL_CATALOG = [
    yg.power(1),
    yg.power(2),
    yg.power(3),
    yg.cosh_minus_1(),
    yg.llog(),
    yg.xlog1p(),
    yg.zygmund_llogl(),
    yg.zygmund_exp(),
    yg.identity(),
]


class TestEval:
    def test_cosh_at_zero(self):
        assert yg.cosh_minus_1()(0.0) == 0.0

    def test_zygmund_exp_at_two(self):
        assert yg.zygmund_exp()(2.0) == pytest.approx(math.e, rel=1e-12)

    def test_power_two_at_three(self):
        assert yg.power(2)(3.0) == 9.0

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            yg.cosh_minus_1()(-1.0)

    def test_llog_small_argument_accuracy(self):
        # integral of arcsinh ~ x^2/2 - x^4/24 near zero
        x = 1e-6
        expected = x * x / 2.0 - x**4 / 24.0
        assert yg.llog()(x) == pytest.approx(expected, rel=1e-12)

    def test_llogl_vanishes_below_one(self):
        y = yg.zygmund_llogl()
        assert y(0.5) == 0.0
        assert y(1.0) == 0.0
        assert y(2.0) == pytest.approx(2 * math.log(2), rel=1e-14)

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.0, 0.3, 1.0, 7.0])
        for y in ALL_CATALOG:
            vec = y(xs)
            for i, x in enumerate(xs):
                assert vec[i] == y(float(x))


class TestCoercion:
    """eval and density take a Python float, np.float64, int, 0-d array or
    list alike."""

    YOUNG = [*ALL_CATALOG, yg.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 1.0], limit=3.0),
             yg.complement(yg.identity())]
    POINTS = (0.0, -0.0, 5e-324, 1e-300, 0.3, 1.0, 2.5, 7.0, 700.0, math.inf, math.nan)

    @pytest.mark.parametrize("y", YOUNG, ids=lambda y: y.name)
    def test_scalar_forms_give_identical_values(self, y):
        for x in self.POINTS:
            whole = math.isfinite(x) and x == int(x) and math.copysign(1.0, x) > 0
            forms = [x, np.float64(x)] + ([int(x)] if whole else [])
            for method in (y.eval, y.density):
                want = method(np.asarray(x))
                assert type(want) is float
                for s in forms:
                    got = method(s)
                    assert type(got) is float and got.hex() == want.hex(), (method, s)
                got = method([x, x])
                assert isinstance(got, np.ndarray) and [v.hex() for v in got.tolist()] == [want.hex()] * 2

    @pytest.mark.parametrize("s", [-1.0, -1e-300, -math.inf, np.float64(-1.0), -1, np.asarray(-1.0),
                                   [-1.0], [0.5, -1.0]], ids=repr)
    def test_negative_input_raises(self, s):
        for method in (yg.power(2).eval, yg.power(2).density, yg.cosh_minus_1().eval):
            with pytest.raises(DomainError, match="defined for s >= 0"):
                method(s)

    def test_a_python_float_reaches_the_rule_as_a_0d_array(self, monkeypatch):
        seen = []
        rule = yg.PowerYoung._eval_arr

        def spy(self, s):
            seen.append((type(s), np.ndim(s)))
            return rule(self, s)

        monkeypatch.setattr(yg.PowerYoung, "_eval_arr", spy)
        yg.power(2.5).eval(0.3)
        assert seen == [(np.ndarray, 0)]


class TestComplement:
    def test_cosh_complement_is_llog_closed_form(self):
        comp = yg.complement(yg.cosh_minus_1())
        assert isinstance(comp, yg.LlogYoung)

    def test_numeric_complement_of_cosh_matches_llog(self):
        grid = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
        comp = yg.complement(yg.cosh_minus_1(), numeric=True)
        ref = yg.llog()(grid)
        assert np.max(np.abs(comp(grid) - ref) / ref) <= 1e-9

    def test_complement_of_identity_is_threshold(self):
        comp = yg.complement(yg.identity())
        assert comp(0.5) == 0.0
        assert comp(1.0) == 0.0
        assert comp(2.0) == math.inf

    def test_power_involution(self):
        p3 = yg.power(3)
        back = yg.complement(yg.complement(p3))
        grid = yg.DEFAULT_EVAL_GRID
        assert np.max(np.abs(back(grid) - p3(grid)) / p3(grid)) <= 1e-8

    def test_zygmund_pair_is_complementary(self):
        assert isinstance(yg.complement(yg.zygmund_llogl()), yg.ZygmundExp)
        assert isinstance(yg.complement(yg.zygmund_exp()), yg.ZygmundLLogL)

    @pytest.mark.parametrize("young, jumps", [
        (yg.zygmund_llogl(), {1.0}),
        (yg.tabulated([0.0, 1.0, 1.0, 2.0, 3.0, 3.0], [0.5, 0.5, 2.0, 4.0, 4.0, 6.0]), {1.0, 3.0}),
        # flats of a density are jumps of its complement's
        (yg.complement(yg.tabulated([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 3.0, 3.0])), {1.0, 3.0}),
        (yg.NumericConjugate(yg.zygmund_exp()), {1.0}),
    ], ids=lambda v: getattr(v, "name", ""))
    def test_kinks_list_every_jump_of_the_density(self, young, jumps):
        assert jumps <= set(young.kinks)
        for b in jumps:
            assert young.density(b * (1 + 1e-9)) - young.density(b * (1 - 1e-9)) >= 0.5

    @pytest.mark.parametrize("base, inverse", [
        (yg.cosh_minus_1(), np.arcsinh),
        (yg.power(3), lambda v: np.sqrt(v / 3.0)),
        (yg.power(1.5), lambda v: (v / 1.5) ** 2),
    ], ids=["cosh-1", "power:3", "power:1.5"])
    def test_numeric_inverse_density_near_the_floor(self, base, inverse):
        # roots from 1e-299 to 1e-8, where lo * hi of the geometric
        # bisection, lo starting at 1e-300, can be subnormal or 0; v itself
        # is kept normal
        v = base.density(np.geomspace(1e-299, 1e-8, 400))
        v = v[v >= 1e-300]
        got = yg.NumericConjugate(base).density(v)
        assert np.max(np.abs(got / inverse(v) - 1.0)) <= 1e-15

    @pytest.mark.parametrize("base, inverse", [
        (yg.cosh_minus_1(), np.arcsinh),
        (yg.power(3), lambda v: np.sqrt(v / 3.0)),
        (yg.power(1.5), lambda v: (v / 1.5) ** 2),
    ], ids=["cosh-1", "power:3", "power:1.5"])
    def test_numeric_inverse_density_up_to_the_cap(self, base, inverse):
        # roots up to 1e299 (up to the largest double's for cosh-1), past
        # 1.34e154, where a bracket's product lo * hi would overflow
        top = min(float(base.density(1e299)), np.finfo(float).max)
        v = np.exp(np.random.default_rng(10).uniform(math.log(base.density(1e-8)), math.log(top), 400))
        got = yg.NumericConjugate(base).density(v)
        assert np.max(np.abs(got / inverse(v) - 1.0)) <= 1e-15

    def test_numeric_conjugate_of_xlog1p_at_400(self):
        # the root, about 1.9e173, is past 1.34e154
        conj = yg.NumericConjugate(yg.xlog1p())
        w = conj.density(400.0)
        assert math.isfinite(w) and math.isfinite(conj.eval(400.0))
        assert yg.xlog1p().density(w) == pytest.approx(400.0, rel=1e-15)

    def test_numeric_inverse_density_is_the_least_double(self):
        # a bisection over the bit patterns of the positive doubles finds the
        # least w in [1e-300, 1e300] with psi(w) >= v; the numeric inverse
        # is 0 where psi(1e-300) >= v and inf where psi(1e300) < v
        v = np.exp(np.random.default_rng(9).uniform(math.log(1e-149), math.log(1e20), 4000))
        bits = np.array([1e-300, 1e300]).view(np.int64)
        for base in ALL_CATALOG:
            lo, hi = np.full(v.shape, bits[0]), np.full(v.shape, bits[1])
            while np.any(hi - lo > 1):
                mid = lo + (hi - lo) // 2
                ge = base.density(mid.view(float)) >= v
                lo, hi = np.where(ge, lo, mid), np.where(ge, mid, hi)
            least = hi.view(float)
            got = yg.NumericConjugate(base).density(v)
            zero, cap = base.density(1e-300) >= v, base.density(1e300) < v
            assert np.all(got[zero] == 0.0) and np.all(got[cap] == math.inf), base.name
            inner = ~zero & ~cap
            assert np.all(base.density(got[inner]) >= v[inner]), base.name
            assert np.all(got[inner] - least[inner] <= 2.0**-50 * least[inner]), base.name

    def test_numeric_inverse_density_work_count(self, count_calls):
        # a one-rung bracket and Illinois steps: at most 24 base density
        # calls per inversion (the geometric bisection took 76)
        calls = count_calls(yg.XLog1p, "_density_arr")
        for v in np.geomspace(5e-4, 4.0, 25):
            calls.clear()
            yg.NumericConjugate(yg.xlog1p())._inverse_density(np.full(3, v))
            assert len(calls) <= 24

    @pytest.mark.parametrize(
        "base, vanish",
        [
            (yg.xlog1p(), 0.0),
            (yg.cosh_minus_1(), 0.0),
            # psi(1e-300) is about 0.5 here, but Psi(s) <= s^1.001 puts psi(0+) at 0
            (yg.power(1.001), 0.0),
            (yg.identity(), 1.0),
            (yg.zygmund_exp(), 1.0),
            (yg.tabulated([0.0, 1.0, 2.0], [0.3, 1.0, 3.0]), 0.3),
            (yg.tabulated([0.0, 0.0, 1.0], [0.0, 1.0, 1.0]), 1.0),
        ],
        ids=["xlog1p", "cosh-1", "power:1.001", "identity", "lexp", "tabulated", "tabulated-jump-at-0"],
    )
    def test_numeric_conjugate_vanishes_up_to_psi_at_0_plus(self, base, vanish):
        conj = yg.complement(base, numeric=True)
        assert conj.vanish_below == vanish
        assert conj.eval(vanish) == 0.0

    def test_conjugate_of_a_bounded_density_is_a_threshold(self):
        # psi <= 1: the conjugate is 0 up to 1 and inf past it
        young = yg.NumericConjugate(yg.tabulated([0, 1], [1, 1]))
        assert young.finite_threshold == 1.0
        assert young.eval(1.0) == 0.0 and young.eval(1.0 + 1e-9) == math.inf
        assert yg.complement(yg.xlog1p()).finite_threshold == math.inf

    def test_numeric_involution_for_strictly_increasing_density(self):
        y = yg.xlog1p()
        back = yg.complement(yg.complement(y, numeric=True), numeric=True)
        grid = yg.DEFAULT_EVAL_GRID[::16]
        assert np.max(np.abs(back(grid) - y(grid)) / y(grid)) <= 1e-8

    def test_tabulated_involution_exact(self):
        tab = yg.tabulated([0.0, 1.0, 2.0, 3.0], [0.5, 0.5, 2.0, 4.0])
        back = yg.complement(yg.complement(tab))
        s = np.linspace(0.0, 5.0, 41)
        assert np.max(np.abs(back(s) - tab(s))) == 0.0

    def test_youngs_inequality_all_pairs(self):
        rng = np.random.default_rng(123)
        u = rng.uniform(0, 50, 10_000)
        v = rng.uniform(0, 50, 10_000)
        for y in ALL_CATALOG:
            comp = yg.complement(y)
            lhs = u * v
            with np.errstate(over="ignore"):
                rhs = y(u) + comp(v)
            slack = 64 * np.finfo(float).eps * np.maximum(lhs, 1.0)
            assert not np.any(lhs > rhs + slack), y.name


class TestGrowthChecks:
    def test_delta2_power_two_exact(self):
        rep = yg.delta2_check(yg.power(2))
        assert rep.holds
        assert rep.c == pytest.approx(4.0, abs=1e-12)

    def test_delta2_cosh_fails(self):
        # ratio (cosh 2s - 1)/(cosh s - 1) blows past any constant
        for s in (5.0, 10.0, 20.0):
            ratio = (math.cosh(2 * s) - 1) / (math.cosh(s) - 1)
            assert ratio > math.exp(s) / 2
        assert not yg.delta2_check(yg.cosh_minus_1()).holds

    def test_delta2_xlog1p_holds_with_small_constant(self):
        s = np.geomspace(1.0, 1e6, 200)
        ratios = (2 * s) * np.log1p(2 * s) / (s * np.log1p(s))
        assert np.max(ratios) < 4.0
        rep = yg.delta2_check(yg.xlog1p())
        assert rep.holds and rep.c < 4.0

    def test_delta2_report_invariant(self):
        rep = yg.delta2_check(yg.zygmund_llogl())
        assert rep.holds
        y = yg.zygmund_llogl()
        for s in rep.evidence_grid:
            if s >= rep.s0:
                assert y(2 * s) <= rep.c * y(s) * (1 + 1e-12)

    def test_nabla2_power_two(self):
        rep = yg.nabla2_check(yg.power(2), l_candidates=(4.0,))
        assert rep.holds and rep.l == 4.0

    def test_nabla2_cosh_with_l_two(self):
        # cosh x - 1 <= (cosh 2x - 1)/4 follows from cosh 2x = 2 cosh^2 x - 1
        rep = yg.nabla2_check(yg.cosh_minus_1(), l_candidates=(2.0,))
        assert rep.holds and rep.l == 2.0

    def test_nabla2_identity_fails(self):
        assert not yg.nabla2_check(yg.identity()).holds

    def test_equivalence_xlog1p_llog(self):
        rep = yg.equivalence_check(yg.xlog1p(), yg.llog())
        assert rep.equivalent
        y1, y2 = yg.xlog1p(), yg.llog()
        grid = np.asarray(rep.grid)
        assert np.all(y1(rep.b_forward * grid) >= y2(grid))
        assert np.all(y2(rep.b_backward * grid) >= y1(grid))

    def test_identity_power_not_equivalent(self):
        assert not yg.equivalence_check(yg.identity(), yg.power(2)).equivalent

    def test_cosh_lexp_equivalent_on_grid(self):
        rep = yg.equivalence_check(yg.cosh_minus_1(), yg.zygmund_exp())
        assert rep.equivalent


class TestInvariants:
    @pytest.mark.parametrize("y", ALL_CATALOG, ids=lambda y: y.name)
    def test_structural_validation(self, y):
        yg.validate_young(y)

    def test_validation_of_derived_functions(self):
        yg.validate_young(yg.complement(yg.xlog1p()), grid=yg.geometric_grid(1e-4, 1e4, 101))
        yg.validate_young(yg.tabulated([0, 1, 2], [0.0, 1.0, 3.0]))

    @given(st.floats(min_value=1e-8, max_value=1e4), st.floats(min_value=1e-8, max_value=1e4))
    @settings(max_examples=300, deadline=None)
    def test_midpoint_convexity_property(self, a, b):
        for y in (yg.cosh_minus_1(), yg.xlog1p(), yg.zygmund_exp()):
            mid = y(0.5 * (a + b))
            avg = 0.5 * (y(a) + y(b))
            assert mid <= avg * (1 + 1e-12) + 1e-300

    def test_delta2_power_family_scaling(self):
        for p in (1.0, 1.5, 2.0, 3.0, 4.5):
            rep = yg.delta2_check(yg.power(p))
            assert rep.holds
            assert rep.c == pytest.approx(2.0**p, rel=1e-12)


class TestTabulated:
    def test_eval_exact_quadratic_segment(self):
        # density rises linearly 0 -> 2 on [0, 1]: Psi(s) = s^2 on the segment
        tab = yg.tabulated([0.0, 1.0], [0.0, 2.0])
        for s in (0.25, 0.5, 1.0):
            assert tab(s) == pytest.approx(s * s, rel=1e-15)
        # constant extension beyond the last breakpoint
        assert tab(2.0) == pytest.approx(1.0 + 2.0, rel=1e-15)

    def test_loader_rejects_bad_columns(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 1.0 2.0\n")
        with pytest.raises(DomainError):
            yg.load_tabulated(path)

    def test_loader_roundtrip(self, tmp_path):
        path = tmp_path / "density.txt"
        path.write_text("0.0 0.5\n1.0 1.5\n2.0 4.0\n")
        tab = yg.load_tabulated(path)
        assert tab(1.0) == pytest.approx(1.0, rel=1e-15)

    def test_from_spec_names(self):
        for name in ("power:2", "cosh-1", "llog", "xlog1p", "llogl", "lexp", "identity"):
            assert yg.from_spec(name).eval(1.0) >= 0.0
        with pytest.raises(DomainError):
            yg.from_spec("nope")


#: the catalog, a density with a jump at 1 and one with a threshold at 3
GAP_BASES = [
    *ALL_CATALOG,
    yg.tabulated([0.0, 1.0, 1.0, 2.0], [0.5, 0.5, 2.0, 4.0]),
    yg.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 1.0], limit=3.0),
]
GAP_GRID = np.geomspace(1e-6, 1e6, 481)


class TestEqualityGap:
    """Gamma(s) = s psi(s) - Psi(s) as a Young function: its envelopes and
    chord slope bound Gamma itself."""

    @staticmethod
    def gamma_on(base, x):
        with np.errstate(over="ignore", invalid="ignore"):
            return yg._EqualityGap(base)._eval_arr(x)

    @pytest.mark.parametrize("base", GAP_BASES, ids=lambda y: y.name)
    def test_gap_stays_under_its_envelopes(self, base):
        gamma = yg._EqualityGap(base)
        x = GAP_GRID[GAP_GRID <= base.finite_threshold]
        g = self.gamma_on(base, x)
        finite = np.isfinite(g)
        x, g = x[finite], g[finite]
        growth, order = gamma.growth(), gamma.small_order()
        with np.errstate(over="ignore"):
            if growth.kind == "poly":
                env = growth.hi * x**growth.degree * (1.0 + np.log(np.maximum(x, 1.0))) ** growth.has_log
                assert np.all(g <= env * (1 + 1e-12))
            elif growth.kind == "exp":
                far = x >= growth.valid_from
                env = growth.hi * x[far] ** growth.degree * np.exp(growth.rate * x[far])
                assert np.all(g[far] <= env * (1 + 1e-12))
        if order is not None:
            near = x <= order.valid_to
            assert np.all(g[near] <= order.hi * x[near] ** order.alpha * (1 + 1e-12))

    @pytest.mark.parametrize("base", GAP_BASES, ids=lambda y: y.name)
    def test_chord_slope_bounds_the_gap_and_psi(self, base):
        for j in (1e-3, 0.5, 1.0, 2.0, 3.0, 10.0, 300.0):
            if j > base.finite_threshold:
                continue
            x = np.geomspace(1e-6 * j, j, 241)
            slope = yg._EqualityGap(base).chord_slope(j)
            assert np.all(self.gamma_on(base, x) <= slope * x * (1 + 1e-12))
            assert np.all(base.eval(x) <= base.chord_slope(j) * x * (1 + 1e-12))


class TestTabulatedDensity:
    JUMP = yg.tabulated([0.0, 1.0, 1.0, 2.0], [0.5, 0.5, 2.0, 4.0])

    def test_left_limit_at_a_repeated_breakpoint(self):
        # psi is left-continuous: 0.5 at the jump itself, 2 just past it
        assert self.JUMP.density(1.0) == 0.5
        assert self.JUMP.density(math.nextafter(1.0, 2.0)) == pytest.approx(2.0, rel=1e-15)
        assert self.JUMP.density(math.nextafter(1.0, 0.0)) == 0.5

    def test_continuous_breakpoints_and_psi_keep_their_values(self):
        tab = yg.tabulated([0.0, 1.0, 2.0, 3.0], [0.5, 1.5, 2.0, 4.0])
        assert list(tab.density([0.0, 1.0, 2.0, 3.0, 4.0])) == [0.5, 1.5, 2.0, 4.0, 4.0]
        # Psi is continuous at the jump: 0.5 from the flat segment
        assert self.JUMP.eval(1.0) == 0.5 and self.JUMP.eval(2.0) == 0.5 + 3.0

    def test_one_breakpoint_is_a_constant_density(self):
        # Psi(s) = 2 s: both norms are 2 ||f||_1 = 2 (2 * 0.5 + 1 * 0.25)
        one = yg.tabulated([0.0], [2.0])
        s = np.array([0.0, 0.5, 3.0, 1e300])
        assert list(one.eval(s)) == [0.0, 1.0, 6.0, 2e300]
        assert list(one.density(s)) == [2.0] * 4
        assert list(closed_gap(one, s)) == [0.0] * 4
        f = rr.simple_function([2.0, -1.0], [0.5, 0.25])
        for norm in (cs.luxemburg_norm, cs.orlicz_norm):
            rep = norm(one, f)
            assert rep.converged and rep.value == pytest.approx(2.5, rel=1e-12)
        # its complement is 0 up to 2 and inf beyond, a threshold function
        assert yg.complement(one) == yg.ThresholdYoung(2.0)

    def test_hoelder_check_of_a_constant_density(self):
        # one breakpoint and two equal ones are the same density 2 on (0, inf)
        f = rr.simple_function([1.0, -2.0], [0.5, 0.5])
        g = rr.simple_function([3.0, 1.0], [0.5, 0.5])
        rep = cs.holder_check(f, g, yg.tabulated([0.0], [2.0]))
        assert rep == cs.holder_check(f, g, yg.tabulated([0.0, 1.0], [2.0, 2.0]))
        assert rep.holds and rep.lhs == 2.5 and rep.orlicz_g == 1.5
        assert rep.luxemburg_f == pytest.approx(3.0, rel=1e-12)


#: every catalog kind with a closed-form gap, and power conjugates
GAP_KINDS = {
    "power:1.5": yg.power(1.5),
    "power:2.5": yg.power(2.5),
    "identity": yg.identity(),
    "cosh-1": yg.cosh_minus_1(),
    "llog": yg.llog(),
    "xlog1p": yg.xlog1p(),
    "llogl": yg.zygmund_llogl(),
    "lexp": yg.zygmund_exp(),
}
#: the ends of the double range, a log grid between them, both sides of the
#: kinks at 1 and power:1.5's window where s^1.5 overflows but Gamma does not
KERNEL_GRID = np.unique([
    0.0, 5e-324, 1e-300, *np.geomspace(1e-300, 1e300, 121), 1.0 - 1e-7, 1.0, 1.0 + 1e-7,
    4e205, 1e308, 1.7e308, math.inf,
])


def closed_gap(young, s):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return young._equality_gap_arr(np.asarray(s, dtype=float))


def generic_gap(young, s):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return yg.YoungFunction._equality_gap_arr(young, np.asarray(s, dtype=float))


class TestClosedFormGap:
    """Each closed-form Gamma(s) = s psi(s) - Psi(s) against a 50-digit
    mpmath value over the whole double range."""

    @pytest.mark.parametrize("name", GAP_KINDS)
    def test_kernel_against_mpmath(self, name):
        young = GAP_KINDS[name]
        got = closed_gap(young, KERNEL_GRID)
        assert got[-1] == math.inf  # at s = inf
        for s, g in zip(KERNEL_GRID[:-1], got[:-1]):
            ref = mpr.equality_gap(young, float(s))
            if ref > sys.float_info.max:
                assert g == math.inf, s
            elif ref == 0:
                assert g == 0.0, s
            elif ref < sys.float_info.min:
                assert 0.0 <= g < sys.float_info.min, s
            else:
                assert abs(mp.mpf(float(g)) - ref) <= 4 * math.ulp(float(ref)), s
        assert np.all(got[1:] >= got[:-1])

    @pytest.mark.parametrize("base, partner", [
        (yg.cosh_minus_1(), yg.llog()), (yg.llog(), yg.cosh_minus_1()),
        (yg.zygmund_llogl(), yg.zygmund_exp()), (yg.zygmund_exp(), yg.zygmund_llogl()),
        (yg.power(2.5), yg.complement(yg.power(2.5))), (yg.complement(yg.power(2.5)), yg.power(2.5)),
    ], ids=lambda y: y.name)
    def test_gap_is_the_conjugate_at_the_density(self, base, partner):
        # Gamma_Psi(s) = Psi*(psi(s)): equality in Young's inequality
        s = np.geomspace(1e-3, 1e3, 61)
        with np.errstate(over="ignore"):
            want = partner.eval(base.density(s))
        got = closed_gap(base, s)
        finite = np.isfinite(want)
        assert np.array_equal(finite, np.isfinite(got))
        assert np.allclose(got[finite], want[finite], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("name", ["llog", "xlog1p", "llogl"])
    def test_generic_form_overflows_where_the_gap_does_not(self, name):
        # s psi(s) and Psi(s) both overflow at 1e308, where Gamma ~ 1e308
        young = GAP_KINDS[name]
        assert generic_gap(young, 1e308) == math.inf
        assert closed_gap(young, 1e308) == pytest.approx(1e308, rel=1e-15)

    def test_generic_form_cancels_just_past_the_lexp_kink(self):
        # Gamma(1 + 1e-7) = 1e-7 e^(1e-7): s psi - Psi cancels seven digits
        young, s = yg.zygmund_exp(), 1.0 + 1e-7
        want = (s - 1.0) * math.exp(s - 1.0)
        assert abs(generic_gap(young, s) / want - 1.0) > 1e-11
        assert abs(closed_gap(young, s) / want - 1.0) <= 1e-15


#: tabulated densities: continuous, with a jump, with a threshold at 3, with
#: a jump as its last breakpoint, and one breakpoint
TAB_GAPS = {
    "continuous": yg.tabulated([0.0, 1.0, 2.0], [0.5, 1.5, 2.0]),
    "jump": TestTabulatedDensity.JUMP,
    "threshold": yg.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 1.0], limit=3.0),
    "last-jump": yg.tabulated([0.0, 0.3, 0.7, 5.0, 5.0], [0.1, 0.2, 0.2, 3.0, 7.0]),
    "one": yg.tabulated([0.0], [1.0]),
}


class TestTabulatedGap:
    """The tabulated Gamma, the running sum of the inverse density's
    trapezoids, against a mpmath value over the whole double range."""

    @pytest.mark.parametrize("name", TAB_GAPS)
    def test_kernel_against_mpmath(self, name):
        young = TAB_GAPS[name]
        near = [x for b in young.xs for x in (b, math.nextafter(b, 0.0), math.nextafter(b, math.inf))]
        grid = np.unique([0.0, *np.geomspace(1e-6, 1e300, 103), *near])
        grid = grid[grid <= young.limit]
        got = closed_gap(young, grid)
        for s, g in zip(grid, got):
            # s psi(s) - Psi(s) cancels about 300 digits at 1e300
            ref = mpr.equality_gap(young, float(s), dps=350)
            assert abs(mp.mpf(float(g)) - ref) <= 2 * math.ulp(float(ref)), s
        assert np.all(got[1:] >= got[:-1])
        # +inf past a threshold, the constant past the last breakpoint otherwise
        assert closed_gap(young, math.nextafter(young.limit, math.inf)) == (
            math.inf if young.limit < math.inf else got[-1])

    def test_left_limit_at_a_jump(self):
        # psi(1) = 0.5 = Psi(1); just past the jump psi = 2
        jump = TAB_GAPS["jump"]
        assert closed_gap(jump, 1.0) == 0.0
        assert closed_gap(jump, math.nextafter(1.0, 2.0)) == pytest.approx(1.5, rel=1e-15)

    @pytest.mark.parametrize("s", [1e16, 1e100, 1e300])
    def test_generic_form_cancels_past_the_last_breakpoint(self, s):
        # Gamma = 2 * 2 - Psi(2) = 1.25 past x = 2, where s psi(s) - Psi(s)
        # = 2 s - (2.75 + 2 (s - 2)) loses every digit
        young = TAB_GAPS["continuous"]
        assert generic_gap(young, s) == 0.0
        assert closed_gap(young, s) == 1.25

