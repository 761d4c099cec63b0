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

import numpy as np

from .conv_core import ConvMatrix, conv, nilpotent_part, ring_taylor
from .numerics import COMPLEX, RATIONAL
from .transforms import Poly, poly_transform


@dataclass(frozen=True)
class AnnihilatorReport:
    """Minimal-polynomial certificate for one matrix.

    ``minimal_degree`` is the exponent kappa of the minimal annihilator
    (z - root)^kappa; ``witness`` is an index at which the
    (kappa-1)-st power of A - root*I is nonzero (None when kappa = 1).
    Both come from direct nilpotency of A - root*I (on floats, read
    against :func:`_rounding_tol`).
    """

    root: object
    ch_degree: int
    minimal_degree: int
    witness: Optional[tuple]


def _modulus(a: ConvMatrix) -> ConvMatrix:
    """|A|, entrywise, on the complex backend."""
    return ConvMatrix(a.rows, a.cols, np.abs(a.to_numpy()), COMPLEX)


def _rounding_tol(a: ConvMatrix, magnitude: float) -> float:
    """Largest float entry that reads as zero: d*M*N*eps times ``magnitude``.

    ``magnitude`` bounds what was summed into the entry; d = M+N-1 products
    of inner products of length M*N give this worst-case rounding bound
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 5.1).
    """
    d = a.rows + a.cols - 1
    return d * a.rows * a.cols * sys.float_info.epsilon * magnitude


def ch_polynomial(a: ConvMatrix) -> Poly:
    """(z - a00)^(M+N-1), the universal annihilator for this shape."""
    return Poly.binomial_power(a[0, 0], a.rows + a.cols - 1)


def ch_check(a: ConvMatrix) -> bool:
    """Does (z - a00)^(M+N-1) annihilate A under convolution?

    Always true; evaluated as sum_k C(d, k) (-a00)^(d-k) A^(<>k),
    d = M+N-1, by Horner in A (:func:`juryconv.transforms.poly_transform`),
    which never forms G = A - a00 I: an independent computation, not a
    restatement of nilpotency.  On rationals the sum must be exactly zero.
    On floats its terms cancel, so each entry must be within
    :func:`_rounding_tol` of max(sum_k |c_k| |A|^(<>k)), the same Horner
    run at |A|: the textbook running bound for Horner's rule.  The float
    check certifies that the sum vanishes to rounding, not that degree d
    is needed: from 12x12 up, (z - a00)^(d-1) passes too, because
    G^(<>(d-1)) is itself below rounding there relative to the terms.
    """
    p = ch_polynomial(a)
    residual = poly_transform(p, a)
    if a.scalar == RATIONAL:
        return residual.is_zero()
    magnitude = ring_taylor([abs(c) for c in p.coeffs], _modulus(a)).max_abs()
    return residual.is_zero(_rounding_tol(a, magnitude))


def tightness_witness(rows: int, cols: int) -> ConvMatrix:
    """All-ones matrix minus the convolution identity (zero leading entry).

    Its ell-th power is nonzero on the whole ell-th anti-diagonal for
    every ell <= M+N-2, certifying that the annihilator degree cannot
    drop below M+N-1 for the shape.
    """
    ones = ConvMatrix.from_rows([[1] * cols for _ in range(rows)], RATIONAL)
    return nilpotent_part(ones)


def _nilpotency_degree(a: ConvMatrix):
    """First kappa with (A - a00 I)^kappa = 0, plus a nonvanishing witness."""
    d = a.rows + a.cols - 1
    base = nilpotent_part(a)
    exact = a.scalar == RATIONAL
    modulus = None if exact else _modulus(base)
    power, bound = base, modulus
    witness = None
    for kappa in range(1, d + 1):
        threshold = 0.0 if exact else _rounding_tol(a, bound.max_abs())
        if power.is_zero(threshold):
            return kappa, witness
        witness = next(ij for ij in power.indices() if abs(power[ij]) > threshold)
        if kappa < d:
            power = conv(power, base)
            if not exact:
                bound = conv(bound, modulus)
    # Unreachable for exact arithmetic; guards float noise.
    return d, witness


def minimal_polynomial(a: ConvMatrix) -> AnnihilatorReport:
    """Minimal annihilator exponent: the first kappa with (A - a00 I)^kappa = 0.

    Powers of G = A - a00*I are formed by convolution until one
    vanishes: exactly on rationals; on floats, entrywise within
    :func:`_rounding_tol` of max |G|^(<>kappa), with the powers of |G|
    walked next to those of G.  The rule scales with G, so A and 10^-k A
    get the same kappa.  The partition-sum vanishing criterion computes
    the same kappa and is a test oracle.
    """
    kappa, witness = _nilpotency_degree(a)
    return AnnihilatorReport(
        root=a[0, 0],
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
