"""PSD testing, samplers, and the executable positivity experiments.

The convolution of positive semidefinite matrices is positive
semidefinite, and the functional transforms built on convolution
preserve the PSD cone exactly for absolutely monotone functions
(convergent power series with nonnegative coefficients).  This module
hosts the machinery that exercises those facts numerically: an
eigenvalue-based PSD verdict with explicit tolerance bookkeeping,
seeded samplers for PSD matrices with entries in an interval (0, rho),
closure and preserver trials, the deterministic diagonal-plus-ones
witness whose transform diagonal exposes negative derivatives, the
exact step-size counterexample for x^2, and the fractional-power study.

Every randomized search is seeded and reports enough configuration to
replay it bit for bit.  Trials are independent; each draws its own RNG
stream keyed by (seed, trial index).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .conv_core import ConvMatrix, conv
from .transforms import (
    FunctionSpec,
    bivariate_power_matrix,
    forward_differences,
    smooth_transform,
    stepped_transform,
)

DEFAULT_TOL = 1e-8


class NonHermitianError(ValueError):
    """PSD test requested for a matrix that is not Hermitian within tolerance."""


@dataclass(frozen=True)
class Interval:
    """Open interval (0, rho), the entry range for sampled PSD matrices."""

    rho: float = math.inf

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError(f"interval upper bound must be > 0, got {self.rho}")

    def midpoint(self) -> float:
        return 1.0 if math.isinf(self.rho) else self.rho / 2


@dataclass(frozen=True)
class PsdVerdict:
    """PSD decision with its minimum-eigenvalue witness.

    ``is_psd`` holds exactly when min_eigenvalue >= -tolerance * max(1, scale),
    where scale is the matrix max-norm.
    """

    is_psd: bool
    min_eigenvalue: float
    tolerance: float
    scale: float


def is_psd(h, tol: float = DEFAULT_TOL) -> PsdVerdict:
    """Eigenvalue-based PSD verdict for a Hermitian matrix.

    Accepts a ConvMatrix (either backend) or array-like.  The input must
    be Hermitian within ``tol`` relative to its max-norm; it is then
    symmetrized by (H + H*)/2 before the (LAPACK) eigenvalue call.  A
    real ConvMatrix is stored as float64, so that call is the real
    symmetric solver.
    """
    if isinstance(h, ConvMatrix):
        if h.rows != h.cols:
            raise ValueError(f"PSD test needs a square matrix, got {h.shape}")
        arr = h.to_numpy()
    else:
        arr = np.asarray(h, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"PSD test needs a square matrix, got shape {arr.shape}")
    scale = float(np.abs(arr).max()) if arr.size else 0.0
    bound = tol * max(1.0, scale)
    herm_dev = float(np.abs(arr - arr.conj().T).max())
    if herm_dev > bound:
        raise NonHermitianError(
            f"matrix deviates from Hermitian by {herm_dev:.3e} (> {bound:.3e})"
        )
    sym = (arr + arr.conj().T) / 2
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    return PsdVerdict(
        is_psd=min_eig >= -bound,
        min_eigenvalue=min_eig,
        tolerance=tol,
        scale=scale,
    )


def _rng_of(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_psd(n: int, interval: Interval = Interval(1.0), rng=0) -> ConvMatrix:
    """Random PSD matrix with entries strictly inside the interval.

    G with positive entries gives the Gram matrix G G^T, which is PSD
    with strictly positive entries; a positive rescale then pins the
    largest entry at 0.9 * rho (at 1.0 for unbounded intervals) without
    leaving the cone.  Seed-fixed calls reproduce bit-identical output.
    """
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    gen = _rng_of(rng)
    g = gen.uniform(0.2, 1.0, size=(n, n))
    gram = g @ g.T
    target = 1.0 if math.isinf(interval.rho) else 0.9 * interval.rho
    gram *= target / gram.max()
    return ConvMatrix.from_numpy(gram)


# ----------------------------------------------------------------------
# closure of the PSD cone under convolution
# ----------------------------------------------------------------------

@dataclass
class ClosureReport:
    theorem: str
    n: int
    trials: int
    seed: int
    tolerance: float
    violations: list
    min_observed_eig: float

    def to_dict(self) -> dict:
        return asdict(self)


def jury_closure_test(n: int, trials: int = 200, rng_seed: int = 0,
                      tol: float = DEFAULT_TOL,
                      interval: Interval = Interval(1.0)) -> ClosureReport:
    """Sample PSD pairs and test their convolution for positive semidefiniteness."""
    eigs = []
    violations = []
    for t in range(trials):
        a = sample_psd(n, interval, np.random.default_rng([rng_seed, t, 0]))
        b = sample_psd(n, interval, np.random.default_rng([rng_seed, t, 1]))
        verdict = is_psd(conv(a, b), tol)
        eigs.append(verdict.min_eigenvalue)
        if not verdict.is_psd:
            violations.append({
                "trial": t,
                "min_eig": verdict.min_eigenvalue,
                "matrix_a": a.to_json_dict(),
                "matrix_b": b.to_json_dict(),
            })
    return ClosureReport(
        theorem="psd-closure-under-convolution",
        n=n,
        trials=trials,
        seed=rng_seed,
        tolerance=tol,
        violations=violations,
        min_observed_eig=min(eigs) if eigs else 0.0,
    )


# ----------------------------------------------------------------------
# preserver trials for the functional transforms
# ----------------------------------------------------------------------

@dataclass
class PreserverReport:
    theorem: str
    function: dict
    n: int
    mode: str
    interval_rho: float
    trials: int
    seed: int
    tolerance: float
    h_grid: Optional[list]
    violations: list
    stepped_rows: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_csv(self) -> str:
        """Per-(trial, h) summary rows for the stepped sweep."""
        lines = ["trial,h,min_eig,psd"]
        for row in self.stepped_rows:
            lines.append(f"{row['trial']},{row['h']},{row['min_eig']},{row['psd']}")
        return "\n".join(lines) + "\n"


def preserver_test(f: FunctionSpec, n: int, interval: Interval = Interval(1.0),
                   mode: str = "smooth", trials: int = 200, rng_seed: int = 0,
                   h_grid: Optional[Sequence[float]] = None,
                   tol: float = DEFAULT_TOL) -> PreserverReport:
    """Sampled PSD inputs through the transform, PSD verdicts aggregated.

    Smooth mode applies the derivative transform once per sample.
    Stepped mode sweeps the h grid, skipping steps whose node range
    (a00, a00 + 2(n-1)h) leaves the interval, and records per-trial
    rows so "PSD for all sufficiently small h" is visible in the data.
    """
    if mode not in ("smooth", "stepped"):
        raise ValueError(f"unknown preserver mode {mode!r}")
    if mode == "stepped" and not h_grid:
        raise ValueError("stepped mode needs an h grid")

    violations = []
    stepped_rows = []
    for t in range(trials):
        a = sample_psd(n, interval, np.random.default_rng([rng_seed, t]))
        if mode == "smooth":
            verdict = is_psd(smooth_transform(f, a), tol)
            if not verdict.is_psd:
                violations.append({
                    "trial": t,
                    "h": None,
                    "min_eig": verdict.min_eigenvalue,
                    "matrix": a.to_json_dict(),
                })
            continue
        a00 = float(a.to_numpy()[0, 0].real)
        for h in h_grid:
            if a00 + 2 * (n - 1) * h >= interval.rho:
                continue
            verdict = is_psd(stepped_transform(f, a, h), tol)
            stepped_rows.append({"trial": t, "h": h,
                                 "min_eig": verdict.min_eigenvalue,
                                 "psd": verdict.is_psd})
            if not verdict.is_psd:
                violations.append({
                    "trial": t,
                    "h": h,
                    "min_eig": verdict.min_eigenvalue,
                    "matrix": a.to_json_dict(),
                })
    return PreserverReport(
        theorem="transform-positivity-preserver",
        function=f.to_json_dict(),
        n=n,
        mode=mode,
        interval_rho=interval.rho,
        trials=trials,
        seed=rng_seed,
        tolerance=tol,
        h_grid=list(h_grid) if h_grid else None,
        violations=violations,
        stepped_rows=stepped_rows,
    )


# ----------------------------------------------------------------------
# deterministic witnesses
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HornWitnessResult:
    """diag(x, x, 0, ..., 0) + eps * ones, its transform, and the diagonal."""

    matrix: ConvMatrix
    transform: ConvMatrix
    diagonal: tuple
    verdict: PsdVerdict
    x: float
    eps: float


def horn_witness(n: int, f: FunctionSpec, x: float, eps: float,
                 tol: float = DEFAULT_TOL) -> HornWitnessResult:
    """The diagonal-plus-ones witness exposing derivative signs.

    The transform diagonal entry (k, k) has leading term
    (1/k!) (x+eps)^k f^(k)(x+eps); a negative derivative of order
    k <= n-1 therefore forces a negative diagonal entry for small eps,
    certifying the transform's exit from the PSD cone.
    """
    if not (x > 0 and eps > 0):
        raise ValueError("witness needs x > 0 and eps > 0")
    rows = [[eps] * n for _ in range(n)]
    rows[0][0] += x
    if n >= 2:
        rows[1][1] += x
    a = ConvMatrix.floats(rows)
    transform = smooth_transform(f, a)
    diag = tuple(transform.data[k][k].real for k in range(n))
    verdict = is_psd(transform, tol)
    return HornWitnessResult(matrix=a, transform=transform, diagonal=diag,
                             verdict=verdict, x=x, eps=eps)


@dataclass(frozen=True)
class SteppedCounterexample:
    """Exact large-step failure of the x^2 transform on the all-ones matrix."""

    matrix: ConvMatrix
    h: Fraction
    stepped: ConvMatrix
    determinant: Fraction
    verdict: PsdVerdict
    contrast_matrix: ConvMatrix
    contrast_small_h: Fraction
    contrast_small_verdict: PsdVerdict
    contrast_large_h: Fraction
    contrast_large_verdict: PsdVerdict


def schoenberg_h_counterexample() -> SteppedCounterexample:
    """Absolute monotonicity does not save the step transform at large h.

    For f(z) = z^2 and the all-ones 2x2 matrix, step h = 2 gives the
    stepped transform [[1, 4], [4, 6]] with determinant exactly -10, so
    the transform leaves the PSD cone.  (For that rank-one matrix every
    positive step already fails; the strictly definite contrast matrix
    [[2, 1], [1, 2]] shows the sharper picture: its stepped determinant
    is 24 - h^2, PSD for small steps and broken for large ones.)
    """
    square = FunctionSpec.polynomial([0, 0, 1])
    ones = ConvMatrix.rational([[1, 1], [1, 1]])
    h = Fraction(2)
    stepped = stepped_transform(square, ones, h)
    det = (stepped.data[0][0] * stepped.data[1][1]
           - stepped.data[0][1] * stepped.data[1][0])
    verdict = is_psd(stepped)

    contrast = ConvMatrix.rational([[2, 1], [1, 2]])
    small_h = Fraction(1, 100)
    large_h = Fraction(6)
    small_verdict = is_psd(stepped_transform(square, contrast, small_h))
    large_verdict = is_psd(stepped_transform(square, contrast, large_h))
    return SteppedCounterexample(
        matrix=ones,
        h=h,
        stepped=stepped,
        determinant=det,
        verdict=verdict,
        contrast_matrix=contrast,
        contrast_small_h=small_h,
        contrast_small_verdict=small_verdict,
        contrast_large_h=large_h,
        contrast_large_verdict=large_verdict,
    )


# ----------------------------------------------------------------------
# fractional powers
# ----------------------------------------------------------------------

def expected_fractional_violation(n: int, alpha: float) -> Optional[bool]:
    """What the theory guarantees for x^alpha on n x n PSD matrices.

    True: a violation must exist (negative alpha, or non-integer
    alpha < n-2 for n >= 3).  False: the transform provably preserves
    (n = 2 with alpha >= 0, or nonnegative integer alpha).  None: open
    territory (non-integer alpha >= n-2 for n >= 3), reported as data.
    """
    if alpha >= 0 and float(alpha).is_integer():
        return False
    if n == 2:
        return alpha < 0
    if alpha < n - 2:
        return True
    return None


@dataclass
class FractionalPowerReport:
    n: int
    interval_rho: float
    trials: int
    seed: int
    tolerance: float
    rows: list

    def to_dict(self) -> dict:
        return {"theorem": "fractional-power-preservers", **asdict(self)}

    def consistent(self) -> bool:
        """Every theory-backed expectation matched the observed data."""
        for row in self.rows:
            expected = row["expected_violation"]
            if expected is True and not row["found_violation"]:
                return False
            if expected is False and row["found_violation"]:
                return False
        return True

    def to_csv(self) -> str:
        """Per-alpha summary rows."""
        lines = ["alpha,violations,horn_min_eig,expected_violation,found_violation"]
        for row in self.rows:
            lines.append(
                f"{row['alpha']},{row['violations']},"
                f"{row['horn_witness']['min_eig']},"
                f"{row['expected_violation']},{row['found_violation']}"
            )
        return "\n".join(lines) + "\n"


def fractional_power_study(n: int, alpha_grid: Sequence[float],
                           interval: Interval = Interval(1.0),
                           trials: int = 100, rng_seed: int = 0,
                           include_b_matrix: bool = False,
                           tol: float = DEFAULT_TOL) -> FractionalPowerReport:
    """Random search plus the deterministic witness, per alpha.

    For each alpha the sampled transforms are tested for PSD, the
    diagonal-plus-ones witness is attempted, and (optionally, for the
    open range alpha > n-2) the bivariate-series matrix's PSD status is
    recorded as data without asserting an answer.
    """
    rows = []
    for alpha in alpha_grid:
        f = FunctionSpec.power(alpha)
        violations = []
        b_rows = []
        for t in range(trials):
            a = sample_psd(n, interval, np.random.default_rng([rng_seed, t]))
            verdict = is_psd(smooth_transform(f, a), tol)
            if not verdict.is_psd:
                violations.append({
                    "trial": t,
                    "min_eig": verdict.min_eigenvalue,
                    "matrix": a.to_json_dict(),
                })
            if include_b_matrix and alpha > n - 2:
                b_verdict = is_psd(bivariate_power_matrix(alpha, a), tol)
                b_rows.append({"trial": t, "min_eig": b_verdict.min_eigenvalue,
                               "psd": b_verdict.is_psd})
        x = interval.midpoint()
        witness = horn_witness(n, f, x=x, eps=x / 100, tol=tol)
        certified = witness.verdict.min_eigenvalue < -1e-6
        found = bool(violations) or certified
        rows.append({
            "alpha": alpha,
            "violations": len(violations),
            "first_violation": violations[0] if violations else None,
            "horn_witness": {
                "x": witness.x,
                "eps": witness.eps,
                "min_eig": witness.verdict.min_eigenvalue,
                "certified_violation": certified,
            },
            "expected_violation": expected_fractional_violation(n, alpha),
            "found_violation": found,
            "b_matrix": b_rows,
        })
    return FractionalPowerReport(
        n=n,
        interval_rho=interval.rho,
        trials=trials,
        seed=rng_seed,
        tolerance=tol,
        rows=rows,
    )


# ----------------------------------------------------------------------
# nonnegativity of the difference operators
# ----------------------------------------------------------------------

@dataclass
class DifferenceReport:
    function: dict
    n: int
    interval_rho: float
    trials: int
    seed: int
    rows: list
    min_difference: float
    min_witness_diagonal: float

    def to_dict(self) -> dict:
        return {"theorem": "difference-operator-nonnegativity", **asdict(self)}


def difference_operator_report(f: FunctionSpec, n: int,
                               interval: Interval = Interval(1.0),
                               trials: int = 100,
                               rng_seed: int = 0) -> DifferenceReport:
    """Sampled forward differences of f, plus the witness-family diagonals.

    Draws (x, h) with the whole node range x, x+h, ..., x+2(n-1)h inside
    the interval, takes the forward differences of order < n from one
    :func:`forward_differences` table per trial, and runs the stepped
    transform on the shifted diagonal witness
    diag(x-eps, x-eps, 0, ...) + eps * ones, whose diagonal carries
    (1/k!) x^k times the divided differences.  Needs n >= 1 and
    trials >= 1: the minima are over a nonempty set.
    """
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trial count must be >= 1, got {trials}")
    gen = np.random.default_rng(rng_seed)
    rows = []
    min_diff = math.inf
    min_diag = math.inf
    hi = 1.0 if math.isinf(interval.rho) else interval.rho
    for t in range(trials):
        x = gen.uniform(0.05 * hi, 0.6 * hi)
        h_cap = (hi - x) / (2 * (n - 1)) if n > 1 else hi
        h = gen.uniform(0.05, 0.95) * h_cap
        diffs = forward_differences(f, x, h, n - 1)
        eps = x / 50
        witness_rows = [[eps] * n for _ in range(n)]
        witness_rows[0][0] += x - eps
        if n >= 2:
            witness_rows[1][1] += x - eps
        witness = ConvMatrix.floats(witness_rows)
        stepped = stepped_transform(f, witness, h)
        diag = [stepped.data[k][k].real for k in range(n)]
        rows.append({"trial": t, "x": x, "h": h,
                     "forward_differences": diffs,
                     "witness_diagonal": diag})
        min_diff = min(min_diff, min(diffs))
        min_diag = min(min_diag, min(diag))
    return DifferenceReport(
        function=f.to_json_dict(),
        n=n,
        interval_rho=interval.rho,
        trials=trials,
        seed=rng_seed,
        rows=rows,
        min_difference=min_diff,
        min_witness_diagonal=min_diag,
    )
