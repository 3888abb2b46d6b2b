"""Positive maps between matrix algebras and majorization checks.

Three map families cover the territory: pinchings (block-diagonal
conditional expectations, trace preserving), Kraus maps a -> sum K a K*, and
unitary conjugations.  Each carries its trace-domination constant C with
tau(T(a)) <= C tau(a) on positive inputs: 1 for pinchings and unitaries,
the largest eigenvalue of sum K* K for Kraus maps.

majorization_check compares Hardy-Littlewood partial integrals of two
decreasing profiles at the breakpoints of both (plus any extra grid); when
g's partials never exceed f's, every fully symmetric norm is monotone from
f to g.  extension_boundedness_check samples the induced norm ratio of a map
on matrices; for trace-preserving pinchings the per-sample majorization
certificate upgrades the qualitative bound to the sharp contraction
ratio <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .quantum_space import (
    MatrixObservable,
    TraceFunctional,
    _as_profile,
    counting_trace,
    nc_norm,
)
from .rearrange import hl_partials
from .young import YoungFunction

__all__ = [
    "Pinching",
    "KrausMap",
    "UnitaryConjugation",
    "PositiveMapDesc",
    "MajorizationReport",
    "majorization_check",
    "ExtensionReport",
    "extension_boundedness_check",
]


@dataclass(frozen=True)
class Pinching:
    """Conditional expectation onto a block-diagonal subalgebra given a
    partition of the index set; zeroes every off-block entry."""

    blocks: tuple[tuple[int, ...], ...]
    kind = "pinching"

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise DomainError("pinching blocks must be nonempty")
            if seen & set(block):
                raise DomainError("pinching blocks must be disjoint")
            seen |= set(block)
        if not seen or min(seen) < 0:
            raise DomainError("pinching blocks must hold nonnegative indices")

    @property
    def dim(self) -> int:
        return max(max(b) for b in self.blocks) + 1

    @property
    def trace_domination(self) -> float:
        return 1.0

    @property
    def trace_preserving(self) -> bool:
        return True

    def apply(self, a: MatrixObservable) -> MatrixObservable:
        n = a.dim
        if sorted(i for b in self.blocks for i in b) != list(range(n)):
            raise DimensionMismatchError("pinching blocks must partition the index set")
        out = np.zeros_like(a.entries)
        for block in self.blocks:
            ix = np.ix_(block, block)
            out[ix] = a.entries[ix]
        return MatrixObservable(out, hermitian=a.hermitian)

    def to_dict(self) -> dict:
        return {"kind": "pinching", "blocks": [list(b) for b in self.blocks], "C": 1.0}


@dataclass(frozen=True, eq=False)
class KrausMap:
    """a -> sum_j K_j a K_j*; positive by construction, trace-dominated by
    the largest eigenvalue of sum_j K_j* K_j."""

    operators: tuple[np.ndarray, ...]
    kind = "kraus"

    def __post_init__(self):
        if not self.operators:
            raise DomainError("a Kraus map needs at least one operator")
        ops = []
        shape = None
        for k in self.operators:
            arr = np.array(k, dtype=complex)
            if arr.ndim != 2:
                raise DimensionMismatchError("Kraus operators must be matrices")
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise DimensionMismatchError("Kraus operators must share one shape")
            arr.setflags(write=False)
            ops.append(arr)
        object.__setattr__(self, "operators", tuple(ops))

    @cached_property
    def _kk(self) -> np.ndarray:
        acc = sum(k.conj().T @ k for k in self.operators)
        return acc

    @cached_property
    def trace_domination(self) -> float:
        return float(np.max(np.linalg.eigvalsh(self._kk)))

    @property
    def trace_preserving(self) -> bool:
        n = self._kk.shape[0]
        return bool(np.allclose(self._kk, np.eye(n), atol=1e-12))

    def apply(self, a: MatrixObservable) -> MatrixObservable:
        if a.dim != self.operators[0].shape[1]:
            raise DimensionMismatchError("matrix dimension does not fit the Kraus operators")
        out = sum(k @ a.entries @ k.conj().T for k in self.operators)
        return MatrixObservable.from_array(out, hermitian=a.hermitian or None)

    def to_dict(self) -> dict:
        return {
            "kind": "kraus",
            "operators": [
                [[[float(z.real), float(z.imag)] for z in row] for row in k]
                for k in self.operators
            ],
            "C": self.trace_domination,
        }


@dataclass(frozen=True, eq=False)
class UnitaryConjugation:
    """a -> u a u*; an isometry of every fully symmetric norm."""

    unitary: np.ndarray
    kind = "unitary_conjugation"

    def __post_init__(self):
        u = np.array(self.unitary, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise DimensionMismatchError("unitary must be square")
        if not np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12):
            raise DomainError("matrix is not unitary within tolerance")
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)

    @property
    def trace_domination(self) -> float:
        return 1.0

    @property
    def trace_preserving(self) -> bool:
        return True

    def apply(self, a: MatrixObservable) -> MatrixObservable:
        if a.dim != self.unitary.shape[0]:
            raise DimensionMismatchError("matrix dimension does not fit the unitary")
        out = self.unitary @ a.entries @ self.unitary.conj().T
        return MatrixObservable(out, hermitian=a.hermitian)

    def to_dict(self) -> dict:
        return {
            "kind": "unitary_conjugation",
            "unitary": [[[float(z.real), float(z.imag)] for z in row] for row in self.unitary],
            "C": 1.0,
        }


PositiveMapDesc = Pinching | KrausMap | UnitaryConjugation


@dataclass(frozen=True)
class MajorizationReport:
    majorized: bool
    alphas: tuple[float, ...]
    margins: tuple[float, ...]


def majorization_check(
    f,
    g,
    alpha_grid=None,
    trace: TraceFunctional | None = None,
    tol: float = 1e-12,
) -> MajorizationReport:
    """Hardy-Littlewood submajorization g << f: partial integrals of mu(g)
    never exceed those of mu(f), checked at the breakpoints of both profiles
    plus any extra alphas, within `tol` absolute.

    The partials at all alphas come from one searchsorted per profile into
    its prefix table, O((n_f + n_g) log n) for n_f and n_g steps; a matrix
    argument's spectrum is solved once per observable."""
    pf = _as_profile(f, trace)
    pg = _as_profile(g, trace)
    alphas = {a for a in (*pf.cuts(), *pg.cuts()) if a > 0}
    if alpha_grid is not None:
        alphas |= {float(a) for a in alpha_grid if a > 0}
    if not alphas:
        alphas = {1.0}
    ordered = tuple(sorted(alphas))
    margins = tuple((hl_partials(pf, ordered) - hl_partials(pg, ordered)).tolist())
    majorized = all(m >= -tol for m in margins)
    return MajorizationReport(majorized, ordered, margins)


@dataclass(frozen=True)
class ExtensionReport:
    max_ratio: float
    bounded: bool
    bound_budget: float
    ratios: tuple[float, ...]
    majorized_all: bool | None
    sharp_contraction: bool | None


def extension_boundedness_check(
    T: PositiveMapDesc,
    young: YoungFunction,
    sample,
    trace: TraceFunctional | None = None,
    bound_budget: float | None = None,
) -> ExtensionReport:
    """Sampled norm ratios ||T(a)|| / ||a|| in the Luxemburg norm of `young`.

    bounded means the max ratio stays under the budget (default
    2 * max(1, C)).  For trace-preserving pinchings the result additionally
    records the per-sample majorization certificate mu(T(a)) << mu(a) and the
    sharp contraction verdict max ratio <= 1."""
    trace = trace or counting_trace()
    budget = bound_budget if bound_budget is not None else 2.0 * max(1.0, T.trace_domination)
    ratios = []
    majorized_flags = []
    is_sharp_family = isinstance(T, Pinching) and T.trace_preserving
    for a in sample:
        na = nc_norm(young, a, trace).value
        if na == 0.0:
            continue
        ta = T.apply(a)
        nt = nc_norm(young, ta, trace).value
        ratios.append(nt / na)
        if is_sharp_family:
            majorized_flags.append(majorization_check(a, ta, trace=trace).majorized)
    max_ratio = max(ratios) if ratios else 0.0
    majorized_all = all(majorized_flags) if is_sharp_family else None
    sharp = (max_ratio <= 1.0 + 1e-9) if is_sharp_family else None
    return ExtensionReport(
        max_ratio=max_ratio,
        bounded=max_ratio <= budget,
        bound_budget=budget,
        ratios=tuple(ratios),
        majorized_all=majorized_all,
        sharp_contraction=sharp,
    )
