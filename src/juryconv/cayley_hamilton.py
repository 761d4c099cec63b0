"""Annihilating polynomials for the convolution ring.

Every M x N matrix is annihilated by (z - a00)^(M+N-1) under the
convolution product, and that degree is tight: the all-ones matrix with
its leading entry zeroed has nonvanishing powers up to order M+N-2.
The minimal annihilator of a specific matrix is always (z - a00)^kappa
for some kappa between 1 and M+N-1, and kappa is computable two
independent ways: by scanning the elementary partition sums for the
first order at which they all vanish, and by direct nilpotency of
A - a00*I.  Both are run here and cross-checked.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

from . import numerics
from .conv_core import ConvMatrix, conv, nilpotent_part
from .numerics import RATIONAL
from .partitions import elementary_sum
from .transforms import Poly, sum_of_powers

# Relative tolerance for "vanishes" on the complex-float backend; the
# criterion is exact algebra, so a threshold has to be chosen.
VANISH_RTOL = 1e-10


@dataclass(frozen=True)
class AnnihilatorReport:
    """Minimal-polynomial certificate for one matrix.

    ``minimal_degree`` is the exponent kappa of the minimal annihilator
    (z - root)^kappa; ``witness`` is an index at which the
    (kappa-1)-st power of A - root*I is nonzero (None when kappa = 1).
    Both the partition-sum criterion and direct nilpotency were checked
    before this report is produced.
    """

    root: object
    ch_degree: int
    minimal_degree: int
    witness: Optional[tuple]


def _vanish_tol(a: ConvMatrix) -> float:
    if a.scalar == RATIONAL:
        return 0.0
    return VANISH_RTOL * a.max_abs()


def ch_polynomial(a: ConvMatrix) -> Poly:
    """(z - a00)^(M+N-1), the universal annihilator for this shape."""
    return Poly.binomial_power(a.data[0][0], a.rows + a.cols - 1)


def ch_check(a: ConvMatrix, tol: Optional[float] = None) -> bool:
    """Does (z - a00)^(M+N-1) annihilate A under convolution?

    Always true; evaluated literally as the sum of powers
    sum_k C(d, k) (-a00)^(d-k) A^(<>k), d = M+N-1, so the check is an
    independent computation rather than a restatement.  On rationals the
    sum must be exactly zero.  On floats its terms cancel, so every
    entry of the sum must lie within d*M*N*eps times
    sum_k |c_k| max|A^(<>k)|, the magnitude of the terms, accumulated in
    the same pass (a worst-case rounding bound for sums of products of
    that length).  The measured ratio of residual to magnitude is below
    1.2e-16 on PSD samples up to 16x16.  The float check can certify
    that the sum vanishes to rounding, not that degree d is needed: at
    12x12 and beyond, (z - a00)^(d-1) also passes, because the
    (d-1)-st power of A - a00 I is itself below rounding there relative
    to the terms.  An explicit ``tol`` replaces the bound by an absolute
    threshold on the entries.
    """
    result, magnitude = sum_of_powers(ch_polynomial(a), a)
    if tol is None:
        d = a.rows + a.cols - 1
        tol = d * a.rows * a.cols * sys.float_info.epsilon * magnitude
    return result.is_zero(tol)


def tightness_witness(rows: int, cols: int) -> ConvMatrix:
    """All-ones matrix minus the convolution identity (zero leading entry).

    Its ell-th power is nonzero on the whole ell-th anti-diagonal for
    every ell <= M+N-2, certifying that the annihilator degree cannot
    drop below M+N-1 for the shape.
    """
    ones = ConvMatrix.from_rows([[1] * cols for _ in range(rows)], RATIONAL)
    return nilpotent_part(ones)


def _criterion_degree(a: ConvMatrix, threshold: float) -> int:
    """Smallest kappa whose elementary sums vanish on all far anti-diagonals."""
    d = a.rows + a.cols - 1
    for kappa in range(1, d):
        ok = True
        for i in range(a.rows):
            for j in range(a.cols):
                if i + j < kappa:
                    continue
                if not numerics.is_zero_scalar(elementary_sum(a, kappa, (i, j)),
                                               a.scalar, threshold):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return kappa
    return d


def _nilpotency_degree(a: ConvMatrix, threshold: float):
    """First kappa with (A - a00 I)^kappa = 0, plus a nonvanishing witness."""
    d = a.rows + a.cols - 1
    base = nilpotent_part(a)
    power = base
    witness = None
    for kappa in range(1, d + 1):
        if power.is_zero(threshold):
            return kappa, witness
        witness = next(
            (i, j) for (i, j) in power.indices()
            if not numerics.is_zero_scalar(power.data[i][j], a.scalar, threshold)
        )
        if kappa < d:
            power = conv(power, base)
    # Unreachable for exact arithmetic; guards float noise.
    return d, witness


def minimal_polynomial(a: ConvMatrix, tol: Optional[float] = None) -> AnnihilatorReport:
    """Compute the minimal annihilator exponent with a cross-check.

    The partition-sum criterion is evaluated first (cheaper per
    candidate order); direct nilpotency of A - a00*I then verifies it.
    Disagreement would indicate a broken invariant and raises.
    """
    threshold = _vanish_tol(a) if tol is None else tol
    crit = _criterion_degree(a, threshold)
    nil, witness = _nilpotency_degree(a, threshold)
    if crit != nil:
        raise AssertionError(
            f"vanishing criterion gave degree {crit} but nilpotency gave {nil}"
        )
    return AnnihilatorReport(
        root=a.data[0][0],
        ch_degree=a.rows + a.cols - 1,
        minimal_degree=crit,
        witness=witness if crit >= 2 else None,
    )


def format_minimal_polynomial(report: AnnihilatorReport) -> str:
    root = report.root
    if hasattr(root, "imag") and getattr(root, "imag", 0) == 0:
        root = root.real
    root_str = f"{root}"
    sign = "-" if not root_str.startswith("-") else "+"
    root_str = root_str.lstrip("+-")
    if root == 0:
        body = "z"
    else:
        body = f"(z {sign} {root_str})"
    return f"{body}^{report.minimal_degree}"
