"""Grid distributions, the padded-product layer, and the semi-infinite checks.

Finitely supported probability distributions on the nonnegative integer
grid are stored as matrices of masses.  Summing independent grid-valued
random variables convolves their mass matrices -- with the padded
(window-growing) convolution, since supports add.  That product is the
full-window form of the ring product and lives with it in
:mod:`juryconv.conv_core`; it is re-exported here.  When the mass
matrices are positive semidefinite (every leading principal block of
their zero-extended form is PSD), so is the mass matrix of the sum.

The same padded product drives the two semi-infinite phenomena that
distinguish this ring from its fixed-shape truncation: an entrywise
nonnegative matrix with support off the origin is never annihilated by
powers of (z - a00), and the single off-origin unit diag(0, 1) has
powers that walk down the diagonal, so polynomials act on it by listing
their coefficients.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import numerics
from .conv_core import ConvMatrix, conv_identity, nilpotent_part, padded_conv, ring_taylor
from .numerics import RATIONAL
from .positivity import DEFAULT_TOL, is_psd

MASS_TOL = 1e-12


def padded_power(a: ConvMatrix, kappa: int) -> ConvMatrix:
    """kappa-fold padded convolution; kappa = 0 is the 1x1 unit window."""
    if kappa < 0:
        raise ValueError(f"power must be >= 0, got {kappa}")
    result = conv_identity(1, 1, a.scalar)
    for _ in range(kappa):
        result = padded_conv(result, a)
    return result


def embed(a: ConvMatrix, rows: int, cols: int) -> ConvMatrix:
    """Zero-extend a window to a larger one (top-left aligned)."""
    if rows < a.rows or cols < a.cols:
        raise ValueError(f"cannot embed {a.shape} into {(rows, cols)}")
    z = numerics.zero(a.scalar)
    data = tuple(
        tuple(a.data[i][j] if i < a.rows and j < a.cols else z for j in range(cols))
        for i in range(rows)
    )
    return ConvMatrix(rows, cols, data, a.scalar)


def padded_poly_action(coeffs: Sequence, a: ConvMatrix) -> ConvMatrix:
    """sum_k c_k A^(<>k) on the growing window (degree decides the window).

    Horner in A zero-extended to the window of the top power: that window
    holds every lower power, so its ring product truncates nothing.
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("empty coefficient list")
    deg = len(coeffs) - 1
    # At degree 0 the window is 1x1, A need not fit it, and Horner takes no product.
    x = embed(a, deg * (a.rows - 1) + 1, deg * (a.cols - 1) + 1) if deg else padded_power(a, 0)
    return ring_taylor(coeffs, x)


@dataclass(frozen=True)
class GridDistribution:
    """Finitely supported distribution on the nonnegative integer grid.

    The support window is an M x N matrix of masses: nonnegative
    entries summing to one (exactly on the rational backend, within
    1e-12 on floats).
    """

    matrix: ConvMatrix

    def __post_init__(self):
        m = self.matrix
        total = numerics.zero(m.scalar)
        for (i, j) in m.indices():
            v = m.data[i][j]
            if m.scalar == RATIONAL:
                if v < 0:
                    raise ValueError(f"negative mass {v} at {(i, j)}")
            else:
                if v.imag != 0 or v.real < -MASS_TOL:
                    raise ValueError(f"mass at {(i, j)} must be a nonnegative real, got {v}")
            total += v
        if m.scalar == RATIONAL:
            if total != 1:
                raise ValueError(f"total mass must be exactly 1, got {total}")
        elif abs(total - 1) > MASS_TOL:
            raise ValueError(f"total mass must be 1 within {MASS_TOL}, got {total}")

    @staticmethod
    def from_rows(rows, scalar: str = RATIONAL) -> "GridDistribution":
        return GridDistribution(ConvMatrix.from_rows(rows, scalar))

    @staticmethod
    def point_mass(i: int, j: int) -> "GridDistribution":
        rows = [[0] * (j + 1) for _ in range(i + 1)]
        rows[i][j] = 1
        return GridDistribution(ConvMatrix.rational(rows))

    def prob(self, i: int, j: int):
        if 0 <= i < self.matrix.rows and 0 <= j < self.matrix.cols:
            return self.matrix.data[i][j]
        return numerics.zero(self.matrix.scalar)

    def support(self) -> list:
        return [(i, j) for (i, j) in self.matrix.indices()
                if self.matrix.data[i][j] != 0]

    def to_json_dict(self) -> dict:
        payload = self.matrix.to_json_dict()
        payload["kind"] = "distribution"
        return payload

    @staticmethod
    def from_json_dict(payload: dict) -> "GridDistribution":
        if payload.get("kind") != "distribution":
            raise numerics.ScalarError("field 'kind' must be 'distribution'")
        body = {k: v for k, v in payload.items() if k != "kind"}
        return GridDistribution(ConvMatrix.from_json_dict(body))


def sum_distribution(dists: Sequence[GridDistribution]) -> GridDistribution:
    """Distribution of the sum of independent grid variables.

    Left-fold of the padded convolution over the mass matrices; on the
    rational backend total mass stays exactly one.
    """
    if not dists:
        raise ValueError("need at least one distribution")
    acc = dists[0].matrix
    for d in dists[1:]:
        acc = padded_conv(acc, d.matrix)
    return GridDistribution(acc)


def brute_force_sum_law(dists: Sequence[GridDistribution]) -> GridDistribution:
    """Sum law by direct outcome enumeration; the convolution-free oracle.

    Walks every combination of support points, accumulating mass at the
    componentwise sums.  Exponential in the number of summands, so only
    for desk-scale cross-checks.
    """
    if not dists:
        raise ValueError("need at least one distribution")
    scalar = dists[0].matrix.scalar
    rows = sum(d.matrix.rows - 1 for d in dists) + 1
    cols = sum(d.matrix.cols - 1 for d in dists) + 1
    masses = [[numerics.zero(scalar) for _ in range(cols)] for _ in range(rows)]

    def walk(idx: int, i: int, j: int, mass):
        if idx == len(dists):
            masses[i][j] += mass
            return
        m = dists[idx].matrix
        for (p, q) in m.indices():
            v = m.data[p][q]
            if v != 0:
                walk(idx + 1, i + p, j + q, mass * v)

    walk(0, 0, 0, numerics.one(scalar))
    return GridDistribution(ConvMatrix(rows, cols,
                                       tuple(tuple(r) for r in masses), scalar))


@dataclass
class PsdChainReport:
    k_max: int
    verdicts: list
    all_psd: bool
    first_failing_k: Optional[int]

    def to_dict(self) -> dict:
        return {
            "k_max": self.k_max,
            "verdicts": [
                {"k": k, "is_psd": v.is_psd, "min_eig": v.min_eigenvalue}
                for k, v in self.verdicts
            ],
            "all_psd": self.all_psd,
            "first_failing_k": self.first_failing_k,
        }


def psd_chain_check(dist, k_max: int, tol: float = DEFAULT_TOL) -> PsdChainReport:
    """PSD verdicts for the leading k x k blocks, k = 1..k_max.

    Accepts a distribution or a bare matrix (signed test inputs are
    allowed so the detector can be sanity-checked).  Blocks beyond the
    stored window read as zeros, matching the semi-infinite picture.
    """
    mat = dist.matrix if isinstance(dist, GridDistribution) else dist
    verdicts = []
    all_psd = True
    first_fail = None
    for k in range(1, k_max + 1):
        block = [[mat.data[i][j] if i < mat.rows and j < mat.cols
                  else numerics.zero(mat.scalar)
                  for j in range(k)] for i in range(k)]
        verdict = is_psd(ConvMatrix.from_rows(block, mat.scalar), tol)
        verdicts.append((k, verdict))
        if not verdict.is_psd and first_fail is None:
            first_fail = k
            all_psd = False
    return PsdChainReport(k_max=k_max, verdicts=verdicts,
                          all_psd=all_psd, first_failing_k=first_fail)


# ----------------------------------------------------------------------
# semi-infinite checks
# ----------------------------------------------------------------------

@dataclass
class SemiInfiniteReport:
    cap: int
    diagonal_walk: list
    non_annihilation: list
    all_ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _diag_unit_walk(cap: int) -> list:
    """Padded powers of diag(0, 1) place a single unit at (n, n)."""
    a = ConvMatrix.rational([[0, 0], [0, 1]])
    rows = []
    p = padded_power(a, 0)
    for n in range(1, cap + 1):
        p = padded_conv(p, a)
        ok = p.shape == (n + 1, n + 1)
        for (i, j) in p.indices():
            expect = Fraction(1) if (i, j) == (n, n) else Fraction(0)
            if p.data[i][j] != expect:
                ok = False
        rows.append({"n": n, "shape": list(p.shape), "unit_at": [n, n], "ok": ok})
    # Polynomial action lists the coefficients down the diagonal.
    coeffs = [Fraction(5), Fraction(-3), Fraction(7, 2), Fraction(0), Fraction(2)]
    acted = padded_poly_action(coeffs, a)
    diag_ok = all(
        acted.data[i][j] == (coeffs[i] if i == j and i < len(coeffs) else 0)
        for (i, j) in acted.indices()
    )
    rows.append({"n": "poly", "coeffs_on_diagonal": diag_ok, "ok": diag_ok})
    return rows


def _non_annihilation(cap: int) -> list:
    """(A - a00 I)^kappa keeps a provable positive entry at (kappa*i, kappa*j).

    For entrywise nonnegative A with some positive entry at (i, j)
    off the origin, the multiset of kappa copies of (i, j) contributes
    a[i, j]^kappa to the padded power at (kappa*i, kappa*j) and every
    other contribution is nonnegative.
    """
    cases = [
        (ConvMatrix.rational([[0, 1], [0, 0]]), (0, 1)),
        (ConvMatrix.rational([[2, 0], [0, 3]]), (1, 1)),
        (ConvMatrix.rational([[1, 2], [3, 4]]), (1, 0)),
    ]
    rows = []
    for a, (i, j) in cases:
        shifted = nilpotent_part(a)
        ok = True
        observed = []
        p = padded_power(shifted, 0)
        for kappa in range(1, cap + 1):
            p = padded_conv(p, shifted)
            entry = p.data[kappa * i][kappa * j]
            bound = a.data[i][j] ** kappa
            observed.append(str(entry))
            if not (entry >= bound > 0):
                ok = False
        rows.append({
            "matrix": a.to_json_dict(),
            "witness_index": [i, j],
            "entries": observed,
            "ok": ok,
        })
    return rows


def semiinfinite_checks(cap: int = 6) -> SemiInfiniteReport:
    """Run both semi-infinite verifications up to the given power cap."""
    walk = _diag_unit_walk(cap)
    nonann = _non_annihilation(cap)
    all_ok = all(r["ok"] for r in walk) and all(r["ok"] for r in nonann)
    return SemiInfiniteReport(cap=cap, diagonal_walk=walk,
                              non_annihilation=nonann, all_ok=all_ok)
