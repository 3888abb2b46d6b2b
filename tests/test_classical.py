"""Classical Orlicz-space operations: norms, duality, entropy, regularity."""

import math

import numpy as np
import pytest

from orlicz_kit import classical_space as cs
from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg
from orlicz_kit.errors import DomainError

import mp_reference as mpr


def random_simple(rng, n_max=8, **kw):
    n = int(rng.integers(1, n_max + 1))
    return rr.simple_function(rng.uniform(-8, 8, n), rng.uniform(0.1, 2.0, n), **kw)


class TestMembership:
    def test_step_function_member_at_one(self):
        f = rr.simple_function([5.0, -3.0], [1.0, 1.0])
        rep = cs.membership(yg.cosh_minus_1(), f)
        assert rep.member and rep.lambda_witness == 1.0

    def test_log_head_member_with_half_witness(self):
        p = rr.DecreasingProfile((), head=rr.LogSingularity(1.0, 1.0))
        rep = cs.membership(yg.cosh_minus_1(), p)
        assert rep.member and rep.lambda_witness == 0.5

    def test_slow_power_tail_not_member_of_l1(self):
        p = rr.DecreasingProfile((), rr.PowerTail(1.0, 1.0))
        rep = cs.membership(yg.identity(), p)
        assert not rep.member and rep.lambda_witness is None

    def test_threshold_young_step_member(self):
        thr = yg.complement(yg.identity())
        f = rr.simple_function([8.0], [1.0])
        rep = cs.membership(thr, f)
        assert rep.member and rep.lambda_witness <= 1.0 / 8.0

    def test_numeric_conjugate_of_a_bounded_density_is_the_threshold(self):
        # psi <= 1: the conjugate is 0 up to 1 and inf past it, as
        # ThresholdYoung(1.0); the finite threshold puts the witness at 1/8
        young, same = yg.NumericConjugate(yg.tabulated([0, 1], [1, 1])), yg.ThresholdYoung(1.0)
        p = rr.DecreasingProfile(((5.0, 1.0),), rr.ExponentialTail(1.0, 1.0))
        assert cs.membership(young, p) == cs.membership(same, p) == cs.MembershipReport(True, 0.125)
        assert not rr.modular_is_finite(young, p)
        for norm in (cs.luxemburg_norm, cs.orlicz_norm):
            assert norm(young, p).value == norm(same, p).value


class TestLuxemburgNorm:
    def test_matches_p_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = random_simple(rng)
            for p in (1.0, 2.0, 3.5):
                rep = cs.luxemburg_norm(yg.power(p), f)
                ref = float(np.sum(f.weights * np.abs(f.values) ** p) ** (1 / p))
                assert rep.converged
                assert rep.value == pytest.approx(ref, rel=1e-10)

    def test_indicator_formula(self):
        for m in (0.1, 0.5, 1.0, 4.0):
            for y in (yg.power(2), yg.cosh_minus_1(), yg.xlog1p(), yg.zygmund_exp()):
                f = rr.simple_function([1.0], [m])
                # 1 / Psi^-1(1 / m)
                assert cs.luxemburg_norm(y, f).value == pytest.approx(float(mpr.luxemburg(y, f)), rel=1e-9)

    def test_zero_function(self):
        rep = cs.luxemburg_norm(yg.power(2), rr.simple_function([0.0], [2.0]))
        assert rep.value == 0.0 and rep.converged

    def test_non_member_is_infinite(self):
        p = rr.DecreasingProfile((), rr.PowerTail(1.0, 1.0))
        assert cs.luxemburg_norm(yg.identity(), p).value == math.inf

    def test_modular_identity_at_witness(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            f = random_simple(rng, n_max=5)
            for y in (yg.cosh_minus_1(), yg.xlog1p()):
                rep = cs.luxemburg_norm(y, f)
                assert rep.converged
                assert 1 - 1e-8 <= rep.modular_at_witness <= 1.0 + 1e-12

    def test_threshold_kind_sup_norm_plateau(self):
        # complement(identity) induces the sup norm; the modular jumps 0 -> inf
        thr = yg.complement(yg.identity())
        f = rr.simple_function([3.0, -7.0], [1.0, 1.0])
        rep = cs.luxemburg_norm(thr, f)
        assert rep.value == pytest.approx(7.0, rel=1e-10)
        assert rep.modular_at_witness <= 1.0

    def test_norm_axioms(self):
        rng = np.random.default_rng(5)
        for y in (yg.power(2), yg.cosh_minus_1(), yg.xlog1p(), yg.zygmund_exp(), yg.zygmund_llogl()):
            for _ in range(20):
                n = int(rng.integers(1, 6))
                w = rng.uniform(0.1, 2.0, n)
                f = rr.simple_function(rng.uniform(-5, 5, n), w)
                g = rr.simple_function(rng.uniform(-5, 5, n), w)
                a = float(rng.uniform(0.2, 4.0))
                nf = cs.luxemburg_norm(y, f).value
                ng = cs.luxemburg_norm(y, g).value
                nfa = cs.luxemburg_norm(y, f.scale(a)).value
                nsum = cs.luxemburg_norm(y, rr.add_aligned(f, g)).value
                assert nfa == pytest.approx(a * nf, rel=1e-9)
                assert nsum <= (nf + ng) * (1 + 1e-9)
                assert (nf == 0.0) == f.is_zero

    def test_weighted_norm_against_direct_bisection(self):
        w = rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))
        g = rr.DecreasingProfile(((3.0, 1.0), (1.0, 2.0)))
        got = cs.luxemburg_norm(yg.cosh_minus_1(), g, w).value
        assert got == pytest.approx(float(mpr.luxemburg(yg.cosh_minus_1(), g, w)), rel=1e-10)


class TestInfiniteWeightHead:
    """A weight whose inverse-power head has theta_w >= 1 has infinite mass
    at 0: a step profile's norm is inf unless Psi vanishes on its top
    level's reach, which membership decides."""

    P = rr.DecreasingProfile(((2.0, 0.5), (1.0, 0.5)))
    W = rr.DecreasingProfile(((1.0, 1.0),), head=rr.InvPowerSingularity(1.0, 1.5, 1.0))

    @pytest.mark.parametrize("young", [yg.power(2.0), yg.cosh_minus_1()], ids=["power:2", "cosh-1"])
    def test_norms_are_infinite(self, young):
        for norm in (cs.luxemburg_norm, cs.orlicz_norm):
            assert norm(young, self.P, self.W) == cs.NormReport(math.inf, None, 0, True, None, math.inf)

    def test_llogl_norms_are_exact(self):
        # modular(llogl, P/lam) is 0 for lam >= 2 (P/lam <= 1) and inf below
        lux = cs.luxemburg_norm(yg.zygmund_llogl(), self.P, self.W)
        assert lux.converged and lux.value == 2.0 and lux.modular_at_witness == 0.0
        # (1 + M(k P)) / k is 1 / k up to k = 1/2 and inf past it
        orl = cs.orlicz_norm(yg.zygmund_llogl(), self.P, self.W)
        assert orl.converged and orl.value == 2.0
        assert orl.bracket[0] <= 0.5 <= orl.bracket[1]


class TestOrliczNorm:
    def test_two_atom_brute_force_example(self):
        f = rr.simple_function([1.0, 1.0], [1.0, 1.0])
        rep = cs.orlicz_norm(yg.power(2), f)
        # sup{g1+g2 : (g1^2 + g2^2)/4 <= 1} = 2*sqrt(2)
        assert rep.value == pytest.approx(2 * math.sqrt(2), rel=1e-9)

    def test_zero_function(self):
        assert cs.orlicz_norm(yg.power(2), rr.simple_function([0.0], [1.0])).value == 0.0

    def test_sandwich_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            f = random_simple(rng, n_max=6)
            for y in (yg.power(3), yg.cosh_minus_1(), yg.xlog1p()):
                lux = cs.luxemburg_norm(y, f).value
                orl = cs.orlicz_norm(y, f).value
                assert lux <= orl * (1 + 1e-9)
                assert orl <= 2 * lux * (1 + 1e-9)


class TestHolder:
    def test_zero_pair(self):
        z = rr.simple_function([0.0], [1.0])
        rep = cs.holder_check(z, z, yg.power(2))
        assert rep.holds and rep.lhs == 0.0

    def test_random_pairs_power(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            w = rng.uniform(0.1, 2.0, n)
            f = rr.simple_function(rng.uniform(-5, 5, n), w)
            g = rr.simple_function(rng.uniform(-5, 5, n), w)
            assert cs.holder_check(f, g, yg.power(3)).holds

    def test_against_classical_pq_holder(self):
        # for power:p the pairing obeys the p/q inequality with exact norms
        rng = np.random.default_rng(8)
        p, q = 3.0, 1.5
        for _ in range(100):
            n = int(rng.integers(1, 6))
            w = rng.uniform(0.1, 2.0, n)
            fv = rng.uniform(-5, 5, n)
            gv = rng.uniform(-5, 5, n)
            lhs = float(np.sum(w * np.abs(fv * gv)))
            rhs = float(
                np.sum(w * np.abs(fv) ** p) ** (1 / p) * np.sum(w * np.abs(gv) ** q) ** (1 / q)
            )
            assert lhs <= rhs * (1 + 1e-12)

    def test_koethe_dual_pairing(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            w = rng.uniform(0.1, 2.0, n)
            f = rr.simple_function(rng.uniform(-4, 4, n), w)
            g = rr.simple_function(rng.uniform(-4, 4, n), w)
            assert cs.holder_check(f, g, yg.llog()).holds


class TestEmbeddingChain:
    def test_constant_one(self):
        f = rr.simple_function([1.0], [1.0], rr.probability_space())
        rep = cs.embedding_chain_check(f)
        assert rep.sup_norm == 1.0
        assert rep.l1_norm == 1.0
        assert all(math.isfinite(v) for v in rep.norms)

    def test_scaled_indicator_closed_forms(self):
        f = rr.simple_function([2.0], [0.5], rr.probability_space())
        rep = cs.embedding_chain_check(f, p=2.0)
        assert rep.sup_norm == 2.0
        assert rep.l1_norm == 1.0
        assert rep.p_norm == pytest.approx(math.sqrt(2.0), rel=1e-10)
        # indicator of mass m scaled by v: lux = v / Psi^-1(1/m)
        assert rep.lexp_norm == pytest.approx(float(mpr.luxemburg(yg.zygmund_exp(), f)), rel=1e-9)
        assert rep.llogl_norm == pytest.approx(float(mpr.luxemburg(yg.xlog1p(), f)), rel=1e-9)

    def test_requires_probability_space(self):
        with pytest.raises(DomainError):
            cs.embedding_chain_check(rr.simple_function([1.0], [1.0]))

    def test_profile_membership_monotone(self):
        cases = [
            rr.DecreasingProfile((), head=rr.LogSingularity(c, 1.0))
            for c in (0.5, 1.0, 2.0)
        ] + [
            rr.DecreasingProfile((), head=rr.InvPowerSingularity(1.0, th, 1.0))
            for th in (0.3, 0.6, 0.9, 1.2)
        ]
        for p in cases:
            verdicts, monotone = cs.embedding_chain_membership(p)
            assert monotone, (p, verdicts)

    def test_inv_power_head_separates_lp_from_llogl(self):
        # theta = 0.6: not in L^2 (2*0.6 > 1) but still in LlogL and L^1
        p = rr.DecreasingProfile((), head=rr.InvPowerSingularity(1.0, 0.6, 1.0))
        verdicts, _ = cs.embedding_chain_membership(p, p=2.0)
        assert verdicts == (False, False, False, True, True)


class TestEntropy:
    def test_uniform_density(self):
        f = rr.simple_function([1.0], [1.0], rr.probability_space())
        assert cs.entropy_plus(f) == 0.0
        assert cs.entropy(f) == 0.0

    def test_indicator_density(self):
        m = 0.2
        f = rr.simple_function([1.0 / m], [m], rr.probability_space())
        assert cs.entropy_plus(f) == pytest.approx(math.log(1.0 / m), rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            cs.entropy_plus(rr.simple_function([-1.0], [1.0]))

    def test_two_sided_bounds(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            f = rr.simple_function(
                np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n)), rng.uniform(0.1, 2.0, n)
            )
            h = cs.entropy_plus(f)
            lower = -(2.0 / math.e) * float(np.sum(f.weights * np.sqrt(f.values)))
            upper = float(np.sum(f.weights * f.values * np.log1p(f.values)))
            scale = max(abs(h), abs(lower), abs(upper), 1.0)
            assert lower - 1e-12 * scale <= h <= upper + 1e-12 * scale

    def test_lower_bound_equality_case(self):
        # x log x = -(2/e) sqrt(x) exactly at x = e^-2
        f = rr.simple_function([math.exp(-2.0)], [1.0], rr.probability_space())
        h = cs.entropy_plus(f)
        bound = -(2.0 / math.e) * math.exp(-1.0)
        assert h == pytest.approx(bound, rel=1e-12)


class TestRegularity:
    def test_bounded_with_density(self):
        u = rr.simple_function([1.0, -2.0], [0.5, 0.5])
        dens = cs.WeightedDensityState(rr.simple_function([1.2, 0.8], [0.5, 0.5]))
        rep = cs.classical_regular_check(u, dens)
        assert rep.regular and rep.agrees
        assert rep.domain.as_tuple() == (-math.inf, math.inf, False, False)

    def test_log_head_symmetrized_interval(self):
        u = rr.DecreasingProfile((), head=rr.LogSingularity(1.0, 1.0))
        w = rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))
        rep = cs.classical_regular_check(u, w)
        assert rep.regular and rep.agrees
        assert rep.domain.as_tuple() == (-1.0, 1.0, False, False)

    def test_inv_power_head_not_regular(self):
        u = rr.DecreasingProfile((), head=rr.InvPowerSingularity(1.0, 1.0, 1.0))
        w = rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))
        rep = cs.classical_regular_check(u, w)
        assert not rep.regular and rep.agrees
        assert rep.domain.as_tuple() == (-math.inf, 0.0, False, True)

    def test_weight_must_be_integrable(self):
        u = rr.DecreasingProfile((), head=rr.LogSingularity(1.0, 1.0))
        w = rr.DecreasingProfile((), rr.PowerTail(1.0, 0.5))
        with pytest.raises(DomainError):
            cs.classical_regular_check(u, w)

    def test_density_state_validation(self):
        with pytest.raises(DomainError):
            cs.WeightedDensityState(rr.simple_function([1.0], [0.7]))


class TestEquivalenceAtNormLevel:
    def test_norm_ratio_within_witness_constants(self):
        rep = yg.equivalence_check(yg.xlog1p(), yg.llog())
        assert rep.equivalent
        rng = np.random.default_rng(11)
        for _ in range(100):
            f = random_simple(rng, n_max=6)
            n1 = cs.luxemburg_norm(yg.xlog1p(), f).value
            n2 = cs.luxemburg_norm(yg.llog(), f).value
            r = n1 / n2
            assert 1.0 / rep.b_forward * (1 - 1e-9) <= r <= rep.b_backward * (1 + 1e-9)

    def test_cosh_lexp_membership_agreement_on_probability_space(self):
        profiles = [
            rr.DecreasingProfile(((2.0, 0.5), (0.5, 0.5))),
            rr.DecreasingProfile((), head=rr.LogSingularity(0.7, 1.0)),
            rr.DecreasingProfile((), head=rr.InvPowerSingularity(1.0, 0.5, 1.0)),
        ]
        for p in profiles:
            m1 = cs.membership(yg.cosh_minus_1(), p).member
            m2 = cs.membership(yg.zygmund_exp(), p).member
            assert m1 == m2

    def test_cosh_lexp_norm_ratio_within_equivalence_constants(self):
        rep = yg.equivalence_check(yg.cosh_minus_1(), yg.zygmund_exp())
        assert rep.equivalent
        rng = np.random.default_rng(12)
        for _ in range(100):
            g = random_simple(rng, n_max=6)
            f = rr.simple_function(g.values, g.weights / g.weights.sum(), rr.probability_space())
            n1 = cs.luxemburg_norm(yg.cosh_minus_1(), f).value
            n2 = cs.luxemburg_norm(yg.zygmund_exp(), f).value
            r = n1 / n2
            assert 1.0 / rep.b_forward * (1 - 1e-9) <= r <= rep.b_backward * (1 + 1e-9)
