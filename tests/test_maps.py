"""Positive maps, majorization, and norm-contraction checks."""

import math

import numpy as np
import pytest

from orlicz_kit import classical_space as cs
from orlicz_kit import maps as mps
from orlicz_kit import quantum_space as qs
from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg
from orlicz_kit.errors import DimensionMismatchError, DomainError


def random_positive(rng, n=6):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return qs.MatrixObservable.from_array(g.conj().T @ g / (8.0 * n), hermitian=True)


class TestApply:
    def test_pinching_removes_off_diagonal(self):
        a = qs.MatrixObservable.from_array([[2.0, 1.0], [1.0, 2.0]])
        out = mps.Pinching(((0,), (1,))).apply(a)
        assert np.allclose(out.entries, np.diag([2.0, 2.0]))

    def test_pinching_partition_validated(self):
        a = qs.MatrixObservable.from_array(np.eye(3))
        with pytest.raises(DimensionMismatchError):
            mps.Pinching(((0, 1),)).apply(a)
        with pytest.raises(DomainError):
            mps.Pinching(((0, 1), (1, 2)))

    def test_unitary_conjugation_preserves_profile(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(g)
        T = mps.UnitaryConjugation(u)
        a = qs.MatrixObservable.from_array(rng.normal(size=(4, 4)))
        p1 = qs.singular_profile(a)
        p2 = qs.singular_profile(T.apply(a))
        for s1, s2 in zip(p1.steps, p2.steps):
            assert s1[0] == pytest.approx(s2[0], rel=1e-12)

    def test_unitary_validated(self):
        with pytest.raises(DomainError):
            mps.UnitaryConjugation(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_kraus_halving(self):
        a = qs.MatrixObservable.from_array([[2.0, 1.0], [1.0, 2.0]])
        T = mps.KrausMap((np.eye(2) / math.sqrt(2.0),))
        assert np.allclose(T.apply(a).entries, a.entries / 2.0)
        assert T.trace_domination == pytest.approx(0.5, rel=1e-12)

    def test_positivity_preserved(self):
        rng = np.random.default_rng(1)
        pin = mps.Pinching(((0, 1, 2), (3, 4, 5)))
        ks = mps.KrausMap(tuple(rng.normal(size=(6, 6)) for _ in range(3)))
        for _ in range(50):
            a = random_positive(rng)
            for T in (pin, ks):
                out = T.apply(a)
                evals = np.linalg.eigvalsh(out.entries)
                assert np.min(evals) >= -1e-10 * max(np.max(np.abs(a.entries)), 1e-300)

    def test_trace_domination_sampled(self):
        rng = np.random.default_rng(2)
        ks = mps.KrausMap(tuple(rng.normal(size=(5, 5)) for _ in range(2)))
        C = ks.trace_domination
        for _ in range(50):
            a = random_positive(rng, 5)
            ta = ks.apply(a)
            assert np.trace(ta.entries).real <= C * np.trace(a.entries).real * (1 + 1e-9)

    def test_pinching_preserves_trace_exactly(self):
        rng = np.random.default_rng(3)
        pin = mps.Pinching(((0, 1), (2, 3), (4, 5)))
        for _ in range(20):
            g = rng.normal(size=(6, 6))
            a = qs.MatrixObservable.from_array((g + g.T) / 2, hermitian=True)
            assert np.trace(pin.apply(a).entries) == pytest.approx(
                np.trace(a.entries), rel=1e-14
            )


class TestMajorization:
    def test_hand_example(self):
        pf = rr.DecreasingProfile(((3.0, 1.0), (1.0, 1.0)))
        pg = rr.DecreasingProfile(((2.0, 2.0),))
        rep = mps.majorization_check(pf, pg)
        assert rep.majorized
        assert rep.alphas == (1.0, 2.0)
        assert rep.margins == (1.0, 0.0)

    def test_reflexive(self):
        pf = rr.DecreasingProfile(((3.0, 1.0), (1.0, 1.0)))
        assert mps.majorization_check(pf, pf).majorized

    def test_larger_top_value_fails(self):
        pf = rr.DecreasingProfile(((3.0, 1.0), (1.0, 1.0)))
        pg = rr.DecreasingProfile(((4.0, 1.0),))
        assert not mps.majorization_check(pf, pg).majorized

    def test_matrix_inputs(self):
        rng = np.random.default_rng(4)
        pin = mps.Pinching(((0, 1, 2), (3, 4, 5)))
        for _ in range(50):
            a = random_positive(rng)
            assert mps.majorization_check(a, pin.apply(a)).majorized

    def test_partial_integrals_match_hl_oracle(self):
        pf = rr.DecreasingProfile(((3.0, 1.0), (1.0, 1.0)))
        pg = rr.DecreasingProfile(((2.0, 2.0),))
        rep = mps.majorization_check(pf, pg, alpha_grid=(0.5, 1.5))
        for a, m in zip(rep.alphas, rep.margins):
            assert m == pytest.approx(rr.hl_partial(pf, a) - rr.hl_partial(pg, a), abs=1e-14)


def step_partial(p, alpha):
    """Reference partial integral of a step profile: the plain walk."""
    total, t = 0.0, 0.0
    for lvl, w in p.steps:
        if alpha <= t:
            break
        total += lvl * (min(alpha, t + w) - t)
        t += w
    return total


class TestMajorizationOracle:
    @pytest.mark.parametrize("kind", ["hermitian", "general", "positive"])
    @pytest.mark.parametrize("n", [1, 2, 8, 33, 128])
    def test_margins_equal_per_alpha_oracle(self, kind, n):
        rng = np.random.default_rng(n)
        g = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(n)
        arr = {"hermitian": (g + g.conj().T) / 2.0, "general": g, "positive": g.conj().T @ g}[kind]
        a = qs.MatrixObservable.from_array(arr, hermitian=kind != "general")
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False))
        images = [mps.Pinching(tuple(tuple(int(i) for i in b) for b in np.split(np.arange(n), cuts)))]
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        images.append(mps.KrausMap((q / math.sqrt(2.0), np.eye(n) / math.sqrt(2.0))))
        for T in images:
            ta = T.apply(a)
            grid = rng.uniform(0.0, n + 2.0, 6)
            rep = mps.majorization_check(a, ta, alpha_grid=grid)
            pf, pg = qs.singular_profile(a), qs.singular_profile(ta)
            expected = sorted({*pf.cuts(), *pg.cuts(), *grid.tolist()})
            assert rep.alphas == tuple(expected)
            oracle = [step_partial(pf, x) - step_partial(pg, x) for x in expected]
            assert [m.hex() for m in rep.margins] == [m.hex() for m in oracle]
            assert rep.majorized == all(m >= -1e-12 for m in oracle)


class TestExtensionBoundedness:
    def test_pinching_contracts(self):
        rng = np.random.default_rng(5)
        sample = [random_positive(rng) for _ in range(60)]
        pin = mps.Pinching(((0, 1, 2), (3, 4, 5)))
        rep = mps.extension_boundedness_check(pin, yg.cosh_minus_1(), sample)
        assert rep.bounded
        assert rep.max_ratio <= 1.0 + 1e-9
        assert rep.sharp_contraction
        assert rep.majorized_all

    def test_unitary_ratio_is_one(self):
        rng = np.random.default_rng(6)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        u, _ = np.linalg.qr(g)
        sample = [random_positive(rng) for _ in range(20)]
        rep = mps.extension_boundedness_check(mps.UnitaryConjugation(u), yg.power(2), sample)
        assert all(abs(r - 1.0) <= 1e-12 for r in rep.ratios)

    def test_kraus_halving_ratio(self):
        rng = np.random.default_rng(7)
        sample = [random_positive(rng) for _ in range(10)]
        T = mps.KrausMap((np.eye(6) / math.sqrt(2.0),))
        rep = mps.extension_boundedness_check(T, yg.power(2), sample)
        # norm homogeneity: ratio is exactly 1/2
        assert all(r == pytest.approx(0.5, rel=1e-12) for r in rep.ratios)
        assert rep.bounded

    def test_kraus_trace_domination_solved_once(self, monkeypatch):
        T = mps.KrausMap((np.eye(3) * 2.0, np.diag([1.0, 0.0, 0.5])))
        solve, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: calls.append(x.shape) or solve(x))
        assert T.trace_domination == T.to_dict()["C"] == 5.0
        assert len(calls) == 1

    def test_budget_respected(self):
        rng = np.random.default_rng(8)
        sample = [random_positive(rng) for _ in range(10)]
        T = mps.KrausMap((np.eye(6) * 2.0,))
        rep = mps.extension_boundedness_check(T, yg.power(2), sample)
        assert rep.bound_budget == pytest.approx(2.0 * T.trace_domination)
        assert rep.bounded


class TestFullSymmetry:
    def test_norm_monotone_under_majorization(self):
        rng = np.random.default_rng(9)
        pin = mps.Pinching(((0, 1), (2, 3), (4, 5)))
        youngs = (yg.power(1.5), yg.cosh_minus_1(), yg.xlog1p(), yg.zygmund_exp())
        for i in range(100):
            a = random_positive(rng)
            g = pin.apply(a)
            rep = mps.majorization_check(a, g)
            assert rep.majorized
            y = youngs[i % 4]
            nf = cs.luxemburg_norm(y, qs.singular_profile(a)).value
            ng = cs.luxemburg_norm(y, qs.singular_profile(g)).value
            assert ng <= nf * (1 + 1e-9)

    def test_spectrum_averaging_pairs(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            lv = np.sort(np.exp(rng.uniform(-1.0, 1.0, 4)))[::-1]
            pf = rr.DecreasingProfile(tuple((float(v), 1.0) for v in lv))
            j = int(rng.integers(0, 3))
            avg = 0.5 * (lv[j] + lv[j + 1])
            lv2 = lv.copy()
            lv2[j] = lv2[j + 1] = avg
            steps = []
            for v in lv2:
                if steps and steps[-1][0] == v:
                    steps[-1] = (float(v), steps[-1][1] + 1.0)
                else:
                    steps.append((float(v), 1.0))
            pg = rr.DecreasingProfile(tuple(steps))
            assert mps.majorization_check(pf, pg).majorized
            for y in (yg.cosh_minus_1(), yg.xlog1p()):
                assert (
                    cs.luxemburg_norm(y, pg).value
                    <= cs.luxemburg_norm(y, pf).value * (1 + 1e-9)
                )
