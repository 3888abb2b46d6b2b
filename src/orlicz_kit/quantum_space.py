"""Noncommutative Orlicz spaces over finite matrix algebras.

Matrices with the counting (or scaled) trace stand in for the general
semifinite algebra; unbounded phenomena enter only through parametric
decreasing profiles.  The generalized singular values of a matrix are its
singular values sorted decreasingly, laid out as a step profile whose
lengths are trace masses; with that identification the trace modular
tau(Psi(|a|/lambda)) and the profile modular integral Psi(mu_t(a)/lambda) dt
are the same finite spectral sum, and the noncommutative Luxemburg norm is
the classical one of the singular profile.

Weighted spaces replace Lebesgue measure on (0, inf) by mu_t(x) dt for a
positive integrable weight x.  The admissibility record kept alongside a
weighted space witnesses the two Banach-function-space hypotheses on the
canonical exhaustion E = (0, k]: the indicator has finite weighted norm, and
a Hoelder constant C_E = ||chi_E||_Orl(complement) dominates the local L^1
pairing.

The quantum regularity test computes the parameter interval on which
integral exp(t mu_s(g)) mu_s(x) ds is finite and applies the interior
criterion literally to the one-sided interval (the transform uses the
nonnegative mu_s(g), so only the upper endpoint can be finite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classical_space import (
    DomainInterval,
    MembershipReport,
    NormReport,
    _transform_upper_endpoint,
    luxemburg_norm,
    membership,
    orlicz_norm,
)
from .errors import DimensionMismatchError, DomainError
from .rearrange import DecreasingProfile, _step_profile, hl_partial, load_json_input
from .young import YoungFunction, complement, cosh_minus_1

__all__ = [
    "MatrixObservable",
    "TraceFunctional",
    "counting_trace",
    "scaled_trace",
    "singular_values",
    "singular_profile",
    "kunze_modular",
    "nc_norm",
    "AdmissibilityRecord",
    "WeightedQuantumSpace",
    "weighted_nc_norm",
    "QuantumRegularityReport",
    "quantum_regular_check",
    "QPSCrossCheck",
    "quantum_pistone_sempi_crosscheck",
    "nc_entropy",
    "load_matrix",
    "matrix_from_dict",
]

_HERMITIAN_TOL = 1e-12
_EIG_ZERO_TOL = 1e-12
#: WeightedQuantumSpace.build records admissibility for E = (0, k], k = 1..8.
_ADMISSIBILITY_SETS = 8


def _is_hermitian(arr: np.ndarray) -> bool:
    """arr equals its conjugate transpose within _HERMITIAN_TOL of its largest
    entry."""
    scale = float(np.max(np.abs(arr))) or 1.0
    return float(np.max(np.abs(arr - arr.conj().T))) <= _HERMITIAN_TOL * scale


@dataclass(frozen=True, eq=False)
class MatrixObservable:
    """An n x n complex matrix over the finite-dimensional algebra."""

    entries: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionMismatchError("matrix must be square with dim >= 1")
        if self.hermitian and not _is_hermitian(arr):
            raise DomainError("hermitian flag set but the matrix is not hermitian")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """Read-only eigenvalues, ascending, of the entries (hermitian) or of
        a* a: the one eigensolve every spectral function of `a` reads."""
        arr = self.entries if self.hermitian else self.entries.conj().T @ self.entries
        evals = np.linalg.eigvalsh(arr)
        evals.setflags(write=False)
        return evals

    @staticmethod
    def from_array(a, hermitian: bool | None = None) -> "MatrixObservable":
        arr = np.asarray(a, dtype=complex)
        if hermitian is None:
            hermitian = bool(arr.ndim == 2 and arr.shape[0] == arr.shape[1] and _is_hermitian(arr))
        return MatrixObservable(arr, hermitian)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "entries": [
                [[float(z.real), float(z.imag)] for z in row] for row in self.entries
            ],
        }


def _complex_entry(z) -> complex:
    if isinstance(z, (list, tuple)):
        if len(z) != 2:
            raise DomainError("a matrix entry is a number or a [re, im] pair")
        return complex(z[0], z[1])
    return complex(z)


def matrix_from_dict(d: dict) -> MatrixObservable:
    """Matrix from {"entries": n rows of n entries, "dim": n (optional)}.
    Ragged, non-square or non-finite entries raise DomainError."""
    entries = d["entries"]
    n = len(entries)
    if n == 0 or any(len(row) != n for row in entries):
        raise DomainError("matrix entries must be n >= 1 rows of n entries each")
    arr = np.array([[_complex_entry(z) for z in row] for row in entries], dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise DomainError("matrix entries must be finite")
    if "dim" in d and int(d["dim"]) != n:
        raise DimensionMismatchError("declared dim does not match entries")
    return MatrixObservable.from_array(arr)


def load_matrix(path) -> MatrixObservable:
    return load_json_input(path, matrix_from_dict)


@dataclass(frozen=True)
class TraceFunctional:
    """Counting trace Tr, optionally scaled by a constant c > 0."""

    scale: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise DomainError("trace scale must be positive and finite")

    def value(self, a: MatrixObservable) -> complex:
        return self.scale * complex(np.trace(a.entries))

    @property
    def kind(self) -> str:
        return "counting" if self.scale == 1.0 else f"scaled:{self.scale:g}"


def counting_trace() -> TraceFunctional:
    return TraceFunctional(1.0)


def scaled_trace(c: float) -> TraceFunctional:
    return TraceFunctional(float(c))


def singular_values(a: MatrixObservable) -> np.ndarray:
    """Singular values sorted decreasingly, as a fresh array.

    Hermitian matrices use a direct eigensolve (|a| has eigenvalues
    |lambda_i|, with no conditioning loss); general matrices go through the
    hermitian eigensolve of a* a followed by a square root.  The eigensolve
    runs once per observable and is kept on it; each call derives its own
    copy.  Values below 1e-12 * s_max are zeroed."""
    if a.hermitian:
        s = np.sort(np.abs(a._spectrum))[::-1]
    else:
        s = np.sqrt(np.clip(a._spectrum, 0.0, None))[::-1]
    if s.size and s[0] > 0:
        s[s <= _EIG_ZERO_TOL * s[0]] = 0.0
    return s


def singular_profile(a: MatrixObservable, trace: TraceFunctional | None = None) -> DecreasingProfile:
    """Step profile of the generalized singular values: levels are the
    distinct singular values, lengths their trace masses."""
    scale = (trace or counting_trace()).scale
    return _step_profile((v, scale) for v in singular_values(a).tolist())


def _as_profile(x, trace: TraceFunctional | None = None) -> DecreasingProfile:
    """x itself when it is a profile, else the singular profile of matrix x."""
    return x if isinstance(x, DecreasingProfile) else singular_profile(x, trace)


def kunze_modular(
    young: YoungFunction,
    a: MatrixObservable,
    trace: TraceFunctional | None = None,
    lam: float = 1.0,
) -> float:
    """tau(Psi(|a| / lam)) by spectral functional calculus."""
    if not (lam > 0 and math.isfinite(lam)):
        raise DomainError("scale lambda must be positive and finite")
    trace = trace or counting_trace()
    s = singular_values(a)
    vals = young.eval(s / lam) if s.size else np.zeros(0)
    return float(trace.scale * np.sum(vals))


def nc_norm(
    young: YoungFunction, a: MatrixObservable, trace: TraceFunctional | None = None
) -> NormReport:
    """Noncommutative Luxemburg norm: the classical Luxemburg norm of the
    singular-value profile."""
    return luxemburg_norm(young, singular_profile(a, trace))


@dataclass(frozen=True)
class AdmissibilityRecord:
    """Witness data for E = (0, upper]: its weighted measure, the weighted
    norm of its indicator, and the Hoelder pairing constant C_E."""

    upper: float
    nu: float
    indicator_norm: float
    c_e: float


@dataclass(frozen=True)
class WeightedQuantumSpace:
    """A Young function together with an integrable weight profile mu_t(x)
    and the admissibility record for the canonical sets (0, k]."""

    young: YoungFunction
    weight: DecreasingProfile
    admissibility: tuple[AdmissibilityRecord, ...]

    @classmethod
    def build(
        cls,
        young: YoungFunction,
        weight,
        trace: TraceFunctional | None = None,
    ) -> "WeightedQuantumSpace":
        wprof = _as_profile(weight, trace)
        if math.isinf(hl_partial(wprof, math.inf)):
            raise DomainError("the weight profile must be integrable (x in L^1_+)")
        comp = complement(young)
        records = []
        for k in range(1, _ADMISSIBILITY_SETS + 1):
            nu = hl_partial(wprof, float(k))
            chi = DecreasingProfile(((1.0, float(k)),))
            ind = luxemburg_norm(young, chi, wprof).value
            ce = orlicz_norm(comp, chi, wprof).value
            records.append(AdmissibilityRecord(float(k), nu, ind, ce))
        return cls(young, wprof, tuple(records))

    @property
    def admissible(self) -> bool:
        return all(
            math.isfinite(r.nu) and math.isfinite(r.indicator_norm) and math.isfinite(r.c_e)
            for r in self.admissibility
        )


def weighted_nc_norm(space: WeightedQuantumSpace, g) -> NormReport:
    """Luxemburg norm of mu(g) against the weight mu_t(x) dt."""
    return luxemburg_norm(space.young, _as_profile(g), space.weight)


@dataclass(frozen=True)
class QuantumRegularityReport:
    regular: bool
    domain: DomainInterval


def quantum_regular_check(g, x_weight: DecreasingProfile) -> QuantumRegularityReport:
    """Interval of t with integral exp(t mu_s(g)) mu_s(x) ds < inf, reported
    one-sided (mu_s(g) >= 0); regular iff 0 lies in the open interior."""
    upper = _transform_upper_endpoint(_as_profile(g), x_weight)
    if upper > 0:
        dom = DomainInterval(-math.inf, upper)
    else:
        dom = DomainInterval(-math.inf, 0.0, upper_closed=True)
    return QuantumRegularityReport(dom.contains_zero_in_interior, dom)


@dataclass(frozen=True)
class QPSCrossCheck:
    agrees: bool
    regular: bool
    member: bool
    membership: MembershipReport


def quantum_pistone_sempi_crosscheck(g, x_weight: DecreasingProfile) -> QPSCrossCheck:
    """Regularity of the moment transform versus membership in the weighted
    cosh-1 space; the two verdicts must coincide."""
    gprof = _as_profile(g)
    reg = quantum_regular_check(gprof, x_weight)
    mem = membership(cosh_minus_1(), gprof, x_weight)
    return QPSCrossCheck(reg.regular == mem.member, reg.regular, mem.member, mem)


def nc_entropy(
    f: MatrixObservable, trace: TraceFunctional | None = None, eps: float = 0.0
) -> float:
    """tau(f log(f + eps)) for positive semidefinite f; eps = 0 uses the
    0 * log(0) = 0 convention on the kernel.  An observable flagged
    hermitian reuses its kept eigenvalues."""
    trace = trace or counting_trace()
    if eps < 0:
        raise DomainError("eps must be >= 0")
    arr = f.entries
    if f.hermitian:
        evals = f._spectrum
    elif _is_hermitian(arr):
        evals = np.linalg.eigvalsh(arr)
    else:
        raise DomainError("entropy requires a hermitian matrix")
    if np.min(evals) < -1e-12 * max(float(np.max(np.abs(arr))), 1.0):
        raise DomainError("entropy requires a positive semidefinite matrix")
    lam = np.clip(evals, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(lam + eps > 0, lam * np.log(np.maximum(lam + eps, 1e-320)), 0.0)
    return float(trace.scale * np.sum(terms))
