"""Annihilating polynomials for the convolution ring.

Every M x N matrix is annihilated by (z - a00)^(M+N-1) under the
convolution product, and that degree is tight: the all-ones matrix with
its leading entry zeroed has nonvanishing powers up to order M+N-2.
The minimal annihilator of a specific matrix is always (z - a00)^kappa
for some kappa between 1 and M+N-1: the first power at which
G = A - a00*I vanishes.  It is computed here by that nilpotency alone.
Since the elementary partition sums are E_l(A, i, j) = [G^l]_ij / l!,
scanning them for the first order at which every far sum vanishes
gives the same kappa by an exponential route; the tests keep that scan
as the oracle.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

from . import numerics
from .conv_core import ConvMatrix, conv, nilpotent_part
from .numerics import RATIONAL
from .transforms import Poly, sum_of_powers

# Relative tolerance for "vanishes" on the complex-float backend: the
# entries of a power of A - a00*I are compared against it times max|A|.
# Nilpotency is exact algebra, so on floats a threshold has to be chosen.
VANISH_RTOL = 1e-10


@dataclass(frozen=True)
class AnnihilatorReport:
    """Minimal-polynomial certificate for one matrix.

    ``minimal_degree`` is the exponent kappa of the minimal annihilator
    (z - root)^kappa; ``witness`` is an index at which the
    (kappa-1)-st power of A - root*I is nonzero (None when kappa = 1).
    Both come from direct nilpotency of A - root*I.
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
    """Minimal annihilator exponent: the first kappa with (A - a00 I)^kappa = 0.

    Powers of A - a00*I are formed by convolution until one vanishes
    (entrywise within ``tol``; by default exactly on rationals and
    within ``VANISH_RTOL * max|A|`` on floats).  The partition-sum
    vanishing criterion computes the same kappa and is a test oracle.
    """
    threshold = _vanish_tol(a) if tol is None else tol
    kappa, witness = _nilpotency_degree(a, threshold)
    return AnnihilatorReport(
        root=a.data[0][0],
        ch_degree=a.rows + a.cols - 1,
        minimal_degree=kappa,
        witness=witness,
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
