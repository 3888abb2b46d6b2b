"""Noncommutative side: singular profiles, trace modulars, weighted spaces."""

import math

import numpy as np
import pytest

from orlicz_kit import classical_space as cs
from orlicz_kit import maps as mps
from orlicz_kit import quantum_space as qs
from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg
from orlicz_kit.errors import DimensionMismatchError, DomainError

import mp_reference as mpr


def mu_oracle(a, t):
    """Literal generalized singular value: inf{s >= 0 : #(sing > s) <= t}."""
    s = qs.singular_values(a)
    candidates = sorted(set(s.tolist()) | {0.0})
    feasible = [x for x in candidates if np.sum(s > x) <= t]
    return min(feasible)


def random_matrix(rng, n, positive=False):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if positive:
        return qs.MatrixObservable.from_array(g.conj().T @ g / (8.0 * n), hermitian=True)
    return qs.MatrixObservable.from_array(g)


def run_merge_steps(values, length):
    """Reference step merge: one pass over decreasing values that drops
    zeros and merges each run of equal values into one step."""
    steps = []
    for v in values:
        if v == 0.0:
            continue
        if steps and steps[-1][0] == v:
            steps[-1] = (v, steps[-1][1] + length)
        else:
            steps.append((float(v), length))
    return tuple(steps)


def _repeated_spectrum(rng, levels, reps):
    q, _ = np.linalg.qr(rng.normal(size=(len(levels) * reps,) * 2))
    return qs.MatrixObservable.from_array(q @ np.diag(np.repeat(levels, reps)) @ q.T)


STEP_MERGE_MATRICES = {
    "n=1": lambda rng: qs.MatrixObservable.from_array([[2.5]]),
    "identity": lambda rng: qs.MatrixObservable.from_array(np.eye(5)),
    "zero": lambda rng: qs.MatrixObservable.from_array(np.zeros((4, 4))),
    "block-repeated": lambda rng: qs.MatrixObservable.from_array(
        np.kron(np.diag([3.0, 1.0, 1.0, 0.0]), np.eye(3))
    ),
    "rotated-repeated": lambda rng: _repeated_spectrum(rng, [2.0, 2.0, 0.5], 4),
    "random": lambda rng: random_matrix(rng, 9),
    "random-positive": lambda rng: random_matrix(rng, 7, positive=True),
}


class TestMatrixObservable:
    def test_hermitian_flag_checked(self):
        with pytest.raises(DomainError):
            qs.MatrixObservable(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)

    def test_must_be_square(self):
        with pytest.raises(DimensionMismatchError):
            qs.MatrixObservable(np.zeros((2, 3)))

    def test_serialization_roundtrip(self):
        a = qs.MatrixObservable.from_array([[1.0, 2.0 + 1.0j], [2.0 - 1.0j, 3.0]])
        b = qs.matrix_from_dict(a.to_dict())
        assert np.allclose(a.entries, b.entries)
        assert b.hermitian

    def test_trace_functional(self):
        a = qs.MatrixObservable.from_array(np.diag([1.0, 2.0]))
        assert qs.counting_trace().value(a) == pytest.approx(3.0)
        assert qs.scaled_trace(2.0).value(a) == pytest.approx(6.0)

    def test_trace_faithfulness_on_samples(self):
        rng = np.random.default_rng(0)
        tr = qs.counting_trace()
        for _ in range(20):
            a = random_matrix(rng, 4)
            gram = qs.MatrixObservable.from_array(a.entries.conj().T @ a.entries)
            val = tr.value(gram).real
            assert val >= 0.0
            if val == 0.0:
                assert np.allclose(a.entries, 0.0)


class TestSingularProfile:
    def test_projection(self):
        a = qs.MatrixObservable.from_array(np.diag([1.0, 1.0, 0.0, 0.0]))
        assert qs.singular_profile(a).steps == ((1.0, 2.0),)

    def test_sorted_diagonal(self):
        a = qs.MatrixObservable.from_array(np.diag([3.0, 1.0, 2.0]))
        assert qs.singular_profile(a).steps == ((3.0, 1.0), (2.0, 1.0), (1.0, 1.0))

    def test_against_counting_definition(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = random_matrix(rng, 6)
            prof = qs.singular_profile(a)
            for t in (0.0, 0.5, 1.0, 2.5, 4.0, 5.9):
                assert prof.value(t) == pytest.approx(mu_oracle(a, t), abs=1e-14)

    def test_scaled_trace_lengths(self):
        a = qs.MatrixObservable.from_array(np.diag([2.0, 2.0]))
        prof = qs.singular_profile(a, qs.scaled_trace(0.5))
        assert prof.steps == ((2.0, 1.0),)

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    @pytest.mark.parametrize("case", sorted(STEP_MERGE_MATRICES))
    def test_step_merge_matches_run_merge(self, case, scale):
        a = STEP_MERGE_MATRICES[case](np.random.default_rng(11))
        steps = qs.singular_profile(a, qs.scaled_trace(scale)).steps
        assert steps == run_merge_steps(qs.singular_values(a), scale)
        assert all(type(level) is float for level, _ in steps)

    def test_step_merge_on_averaged_level_pairs(self):
        # criterion-11 construction: two neighbouring levels replaced by their mean
        rng = np.random.default_rng(12)
        for _ in range(50):
            lv = np.sort(np.exp(rng.uniform(-1.5, 1.5, 5)))[::-1]
            j = int(rng.integers(0, 4))
            lv[j] = lv[j + 1] = 0.5 * (lv[j] + lv[j + 1])
            assert rr._step_profile((v, 1.0) for v in lv.tolist()).steps == run_merge_steps(lv, 1.0)


class TestTraceIdentity:
    def test_kunze_equals_profile_modular(self):
        rng = np.random.default_rng(2)
        youngs = [y for _, y in (
            ("a", yg.power(1)), ("b", yg.power(2)), ("c", yg.cosh_minus_1()),
            ("d", yg.llog()), ("e", yg.xlog1p()), ("f", yg.zygmund_llogl()),
            ("g", yg.zygmund_exp()), ("h", yg.identity()),
        )]
        for _ in range(40):
            n = int(rng.integers(1, 17))
            a = random_matrix(rng, n)
            a = qs.MatrixObservable.from_array(a.entries / math.sqrt(n))
            for y in youngs:
                for lam in (0.5, 1.0, 2.0):
                    k = qs.kunze_modular(y, a, lam=lam)
                    d = rr.modular(y, qs.singular_profile(a).scale(1.0 / lam))
                    assert abs(k - d) <= 1e-12 * max(k, d, 1e-300)

    def test_schatten_norms(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            a = random_matrix(rng, n)
            for p in (1.0, 2.0, 3.0):
                got = qs.nc_norm(yg.power(p), a).value
                ref = float(np.sum(np.linalg.svd(np.asarray(a.entries), compute_uv=False) ** p) ** (1 / p))
                assert got == pytest.approx(ref, rel=1e-10)

    def test_identity_matrix_cosh_norm(self):
        a = qs.MatrixObservable.from_array(np.eye(3))
        got = qs.nc_norm(yg.cosh_minus_1(), a).value
        # solve 3 (cosh(1/lam) - 1) = 1
        ref = 1.0 / math.acosh(1.0 + 1.0 / 3.0)
        assert got == pytest.approx(ref, rel=1e-10)

    def test_zero_matrix(self):
        a = qs.MatrixObservable.from_array(np.zeros((2, 2)))
        assert qs.nc_norm(yg.cosh_minus_1(), a).value == 0.0

    def test_unitary_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = random_matrix(rng, 5)
            g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            u, _ = np.linalg.qr(g)
            b = qs.MatrixObservable.from_array(u @ a.entries @ u.conj().T)
            for y in (yg.power(2), yg.cosh_minus_1()):
                assert qs.nc_norm(y, b).value == pytest.approx(
                    qs.nc_norm(y, a).value, rel=1e-9
                )

    def test_weyl_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = random_matrix(rng, 5, positive=True)
            bump = random_matrix(rng, 5, positive=True)
            b = qs.MatrixObservable.from_array(a.entries + bump.entries, hermitian=True)
            for y in (yg.power(2), yg.xlog1p()):
                assert qs.nc_norm(y, a).value <= qs.nc_norm(y, b).value * (1 + 1e-9)

    def test_norm_axioms(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            g1 = rng.normal(size=(5, 5))
            g2 = rng.normal(size=(5, 5))
            a = qs.MatrixObservable.from_array((g1 + g1.T) / 2, hermitian=True)
            b = qs.MatrixObservable.from_array((g2 + g2.T) / 2, hermitian=True)
            s = qs.MatrixObservable.from_array(a.entries + b.entries, hermitian=True)
            alpha = float(rng.uniform(0.2, 3.0))
            scaled = qs.MatrixObservable.from_array(alpha * a.entries, hermitian=True)
            for y in (yg.power(2), yg.cosh_minus_1()):
                na = qs.nc_norm(y, a).value
                nb = qs.nc_norm(y, b).value
                assert qs.nc_norm(y, s).value <= (na + nb) * (1 + 1e-9)
                assert qs.nc_norm(y, scaled).value == pytest.approx(alpha * na, rel=1e-9)
                assert na > 0.0
        zero = qs.MatrixObservable.from_array(np.zeros((3, 3)), hermitian=True)
        assert qs.nc_norm(yg.power(2), zero).value == 0.0


class TestWeightedSpace:
    def test_build_requires_integrable_weight(self):
        bad = rr.DecreasingProfile((), rr.PowerTail(1.0, 0.5))
        with pytest.raises(DomainError):
            qs.WeightedQuantumSpace.build(yg.cosh_minus_1(), bad)

    def test_admissibility_records(self):
        w = rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))
        sp = qs.WeightedQuantumSpace.build(yg.cosh_minus_1(), w)
        assert sp.admissible
        assert len(sp.admissibility) == 8
        for rec in sp.admissibility:
            assert rec.nu <= 1.0  # total weight mass is 1
            assert rec.indicator_norm > 0

    def test_admissibility_constant_dominates_local_pairing(self):
        w = rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))
        sp = qs.WeightedQuantumSpace.build(yg.cosh_minus_1(), w)
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = random_matrix(rng, 5, positive=True)
            prof = qs.singular_profile(a)
            norm = qs.weighted_nc_norm(sp, prof).value
            for rec in sp.admissibility[:4]:
                pairing = rr.cross_integral(prof, w, rec.upper)
                assert pairing <= rec.c_e * norm * (1 + 1e-9)

    def test_commuting_diagonal_oracle(self):
        g = qs.MatrixObservable.from_array(np.diag([3.0, 2.0, 1.0]))
        x = qs.MatrixObservable.from_array(np.diag([0.5, 0.3, 0.2]))
        sp = qs.WeightedQuantumSpace.build(yg.cosh_minus_1(), x)
        got = qs.weighted_nc_norm(sp, g).value
        # the step function with levels 3, 2, 1 on masses 0.5, 0.3, 0.2
        oracle = mpr.luxemburg(yg.cosh_minus_1(), rr.simple_function([3.0, 2.0, 1.0], [0.5, 0.3, 0.2]))
        assert got == pytest.approx(float(oracle), rel=1e-10)

    def test_bounded_profile_finite_weighted_norm(self):
        w = rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))
        sp = qs.WeightedQuantumSpace.build(yg.cosh_minus_1(), w)
        g = rr.DecreasingProfile(((4.0, 2.0), (1.0, 3.0)))
        assert math.isfinite(qs.weighted_nc_norm(sp, g).value)

    def test_log_head_weighted_norm_finite_with_witness(self):
        w = rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))
        sp = qs.WeightedQuantumSpace.build(yg.cosh_minus_1(), w)
        g = rr.DecreasingProfile((), head=rr.LogSingularity(1.0, 1.0))
        rep = qs.weighted_nc_norm(sp, g)
        assert rep.converged and math.isfinite(rep.value)
        # norm must exceed the divergence scale: modular(g/lam) = inf for lam <= 1
        assert rep.value > 1.0


class TestQuantumRegularity:
    def test_bounded_matrix_regular(self):
        rng = np.random.default_rng(7)
        a = random_matrix(rng, 4)
        w = rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))
        rep = qs.quantum_regular_check(a, w)
        assert rep.regular
        assert rep.domain.as_tuple() == (-math.inf, math.inf, False, False)

    def test_log_head_one_sided_interval(self):
        g = rr.DecreasingProfile((), head=rr.LogSingularity(1.0, 1.0))
        w = rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))
        rep = qs.quantum_regular_check(g, w)
        assert rep.regular
        assert rep.domain.as_tuple() == (-math.inf, 1.0, False, False)

    def test_inv_power_head_not_regular(self):
        g = rr.DecreasingProfile((), head=rr.InvPowerSingularity(1.0, 1.0, 1.0))
        w = rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))
        rep = qs.quantum_regular_check(g, w)
        assert not rep.regular
        assert rep.domain.as_tuple() == (-math.inf, 0.0, False, True)

    @pytest.mark.parametrize(
        "weight",
        [
            rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0)),
            rr.DecreasingProfile(((0.5, 2.0),)),
            rr.DecreasingProfile(((0.2, 1.0),), head=rr.InvPowerSingularity(1.0, 0.3, 1.0)),
            rr.DecreasingProfile((), head=rr.InvPowerSingularity(0.5, 0.8, 1.0)),
        ],
        ids=["exp-no-head", "step-no-head", "inv-power-head-0.3", "inv-power-head-0.8"],
    )
    @pytest.mark.parametrize(
        "head",
        [
            rr.LogSingularity(0.5, 1.0),
            rr.LogSingularity(1.0, 0.5),
            rr.LogSingularity(2.0, 1.0),
            rr.InvPowerSingularity(1.0, 0.5, 1.0),
            rr.InvPowerSingularity(1.0, 1.0, 1.0),
        ],
        ids=["log-0.5", "log-1", "log-2", "inv-0.5", "inv-1"],
    )
    def test_endpoint_agrees_with_classical(self, head, weight):
        # a weight without a singular head is Lebesgue-like at t = 0 (theta_w = 0)
        g = rr.DecreasingProfile((), head=head)
        q = qs.quantum_regular_check(g, weight)
        c = cs.classical_regular_check(g, weight)
        theta_w = weight.head.exponent if weight.head is not None else 0.0
        expected = max((1.0 - theta_w) / head.coeff, 0.0) if head.kind == "log_singularity" else 0.0
        assert q.domain.upper == c.domain.upper == expected
        assert q.regular == c.regular == (expected > 0)
        assert q.domain.upper_closed == c.domain.upper_closed == (expected == 0)

    def test_transform_finiteness_against_quadrature(self):
        # integral_0^1 s^-t e^-s ds converges iff t < 1
        from scipy.integrate import quad

        for t, finite in ((0.5, True), (0.9, True)):
            val = quad(lambda s: s ** (-t) * math.exp(-s), 1e-15, 1.0, limit=300)[0]
            assert math.isfinite(val) == finite

    def test_crosscheck_family(self):
        w_exp = rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))
        w_pow = rr.DecreasingProfile((), rr.PowerTail(1.0, 2.0))
        cases = [
            rr.DecreasingProfile(((2.0, 1.0),)),
            rr.DecreasingProfile((), head=rr.LogSingularity(0.5, 1.0)),
            rr.DecreasingProfile((), head=rr.LogSingularity(2.0, 1.0)),
            rr.DecreasingProfile((), head=rr.InvPowerSingularity(1.0, 1.0, 1.0)),
        ]
        for w in (w_exp, w_pow):
            for g in cases:
                rep = qs.quantum_pistone_sempi_crosscheck(g, w)
                assert rep.agrees


class TestSpectrumCache:
    """Each observable's eigensolve runs once, whatever reads its spectrum."""

    @staticmethod
    def count_solves(monkeypatch):
        solve, calls = qs.np.linalg.eigvalsh, []
        monkeypatch.setattr(qs.np.linalg, "eigvalsh", lambda x: calls.append(x.shape) or solve(x))
        return calls

    @pytest.mark.parametrize("positive", [True, False], ids=["hermitian", "general"])
    def test_one_solve_per_observable(self, monkeypatch, positive):
        rng = np.random.default_rng(31)
        a = random_matrix(rng, 6, positive=positive)
        assert a.hermitian == positive
        calls = self.count_solves(monkeypatch)
        young = yg.cosh_minus_1()
        qs.nc_norm(young, a)
        qs.kunze_modular(young, a, lam=1.5)
        qs.singular_profile(a)
        if positive:
            qs.nc_entropy(a)
        else:
            with pytest.raises(DomainError):
                qs.nc_entropy(a)
        assert len(calls) == 1
        pin = mps.Pinching(((0, 1, 2), (3, 4, 5)))
        ta = pin.apply(a)
        mps.majorization_check(a, ta)
        mps.majorization_check(a, ta)
        qs.nc_norm(young, ta)
        assert len(calls) == 2
        mps.majorization_check(a, mps.Pinching(((0, 1), (2, 3, 4, 5))).apply(a))
        assert len(calls) == 3

    def test_unflagged_hermitian_entropy_solves_as_before(self, monkeypatch):
        f = qs.MatrixObservable(np.diag([0.5, 0.25]), hermitian=False)
        calls = self.count_solves(monkeypatch)
        assert qs.nc_entropy(f) == 0.5 * math.log(0.5) + 0.25 * math.log(0.25)
        assert len(calls) == 1

    def test_entropy_bits_match_a_fresh_solve(self):
        rng = np.random.default_rng(32)
        for n in (1, 5, 64):
            f = random_matrix(rng, n, positive=True)
            fresh = qs.MatrixObservable(f.entries, hermitian=False)
            assert qs.nc_entropy(f).hex() == qs.nc_entropy(fresh).hex()

    def test_mutating_the_result_leaves_the_cache_intact(self):
        rng = np.random.default_rng(33)
        for positive in (True, False):
            a = random_matrix(rng, 5, positive=positive)
            s = qs.singular_values(a)
            original = s.copy()
            s[:] = -1.0
            assert np.array_equal(qs.singular_values(a), original)
            assert qs.singular_profile(a).steps[0][0] == original[0]


class TestNcEntropy:
    def test_maximally_mixed(self):
        n = 4
        f = qs.MatrixObservable.from_array(np.eye(n) / n)
        assert qs.nc_entropy(f) == pytest.approx(-math.log(n), rel=1e-12)

    def test_projector_with_kernel(self):
        f = qs.MatrixObservable.from_array(np.diag([1.0, 0.0]))
        assert qs.nc_entropy(f) == 0.0

    def test_rejects_non_psd(self):
        f = qs.MatrixObservable.from_array(np.diag([1.0, -0.5]))
        with pytest.raises(DomainError):
            qs.nc_entropy(f)

    def test_spectral_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            f = random_matrix(rng, n, positive=True)
            lam = np.clip(np.linalg.eigvalsh(np.asarray(f.entries)), 0.0, None)
            h = qs.nc_entropy(f)
            lower = -(2.0 / math.e) * float(np.sum(np.sqrt(lam)))
            upper = float(np.sum(lam * np.log1p(lam)))
            scale = max(abs(h), abs(lower), abs(upper), 1.0)
            assert lower - 1e-12 * scale <= h <= upper + 1e-12 * scale

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(9)
        f = random_matrix(rng, 5, positive=True)
        vals = [qs.nc_entropy(f, eps=e) for e in (0.0, 1e-3, 1e-1, 1.0)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_scaled_trace(self):
        f = qs.MatrixObservable.from_array(np.eye(2) * math.e)
        assert qs.nc_entropy(f, qs.scaled_trace(0.5)) == pytest.approx(math.e, rel=1e-12)
