"""The convolution ("Jury") ring on fixed-shape matrices.

An M x N matrix, indexed over the grid [0:M-1] x [0:N-1], forms a
commutative unital ring under entrywise addition and the truncated
two-dimensional convolution

    (A <> B)[i, j] = sum_{l<=i, k<=j} A[l, k] * B[i-l, j-k].

The multiplicative identity has a single 1 at (0, 0).  A matrix is
invertible exactly when its (0, 0) entry is nonzero; both inverse
constructions (back-substitution along anti-diagonals, and the closed
form derived from the degree-(M+N-1) annihilating polynomial) live
here.  So does :func:`ring_taylor`, Horner for sum_l c_l X^(<>l) at any
X, the library's one polynomial evaluator: at G = A - a00 I (where its
steps skip the anti-diagonals no later step reads) for the closed-form
inverse, the functional calculus and power series, at A for the
polynomial action, the annihilator check and the padded action of
:mod:`juryconv.probgrid`.

The convolution sum itself is written once, in :func:`_conv_window`,
which returns a top-left window of the full 2-D convolution.  On the
rational backend it sums Python ints over one common denominator per
operand and builds one ``Fraction`` (one gcd) per output entry; integer
sums are exact and ``Fraction`` is canonical, so the result is the one
the Fraction arithmetic would give, at a fraction of its cost.  The ring
product :func:`conv` is its M x N window and is defined only for equal
shapes; the padded, shape-growing product :func:`padded_conv` is its
(M1+M2-1) x (N1+N2-1) window, re-exported by :mod:`juryconv.probgrid`
for grid distributions.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

import numpy as np

from . import numerics
from .numerics import COMPLEX, RATIONAL, Scalar, ScalarError


class ShapeMismatchError(ValueError):
    """Operands do not have the required shapes."""


class BackendMismatchError(ValueError):
    """Operands carry different scalar backends."""


class SingularMatrixError(ValueError):
    """Inversion requested for a matrix whose (0, 0) entry is (numerically) zero."""

    def __init__(self, entry, threshold=None):
        self.entry = entry
        self.threshold = threshold
        msg = f"matrix is not invertible: entry (0, 0) = {entry!r}"
        if threshold is not None:
            msg += f" is below the singularity threshold {threshold:.3e}"
        super().__init__(msg)


# Relative threshold on |a00| below which the float backend treats a matrix
# as singular.
SINGULARITY_RTOL = 1e-12


@dataclass(frozen=True)
class ConvMatrix:
    """Immutable M x N matrix over an exact-rational or complex-float backend.

    ``data`` is a row-major tuple of row tuples; indexing is zero-based.
    Entries are ``Fraction`` on the rational backend and ``complex`` on
    the complex backend, and are validated at construction (complex
    entries must be finite).
    """

    rows: int
    cols: int
    data: tuple
    scalar: str = RATIONAL

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ShapeMismatchError(f"matrix shape must be >= 1x1, got {self.rows}x{self.cols}")
        if self.scalar not in (RATIONAL, COMPLEX):
            raise ScalarError(f"unknown scalar backend {self.scalar!r}")
        if len(self.data) != self.rows:
            raise ShapeMismatchError(f"expected {self.rows} rows, got {len(self.data)}")
        for row in self.data:
            if len(row) != self.cols:
                raise ShapeMismatchError(f"expected {self.cols} columns, got {len(row)}")
            for entry in row:
                if self.scalar == RATIONAL:
                    if not isinstance(entry, Fraction):
                        raise ScalarError(f"rational backend holds Fractions, got {entry!r}")
                else:
                    if not isinstance(entry, complex):
                        raise ScalarError(f"complex backend holds complex, got {entry!r}")
                    if not (math.isfinite(entry.real) and math.isfinite(entry.imag)):
                        raise ScalarError(f"non-finite entry {entry!r}")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], scalar: str = RATIONAL) -> "ConvMatrix":
        data = tuple(
            tuple(numerics.coerce(v, scalar) for v in row) for row in rows
        )
        if not data:
            raise ShapeMismatchError("matrix needs at least one row")
        return cls(len(data), len(data[0]), data, scalar)

    @classmethod
    def rational(cls, rows: Iterable[Iterable]) -> "ConvMatrix":
        return cls.from_rows(rows, RATIONAL)

    @classmethod
    def floats(cls, rows: Iterable[Iterable]) -> "ConvMatrix":
        return cls.from_rows(rows, COMPLEX)

    @classmethod
    def zeros(cls, rows: int, cols: int, scalar: str = RATIONAL) -> "ConvMatrix":
        z = numerics.zero(scalar)
        return cls(rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)), scalar)

    @classmethod
    def from_numpy(cls, arr) -> "ConvMatrix":
        arr = np.atleast_2d(np.asarray(arr))
        return cls.from_rows(arr.tolist(), COMPLEX)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def __getitem__(self, key) -> Scalar:
        i, j = key
        return self.data[i][j]

    def indices(self) -> Iterator[tuple]:
        for i in range(self.rows):
            for j in range(self.cols):
                yield (i, j)

    def to_lists(self) -> list:
        return [list(row) for row in self.data]

    def to_numpy(self, dtype=None):
        if self.scalar == RATIONAL:
            return np.array([[float(v) for v in row] for row in self.data],
                            dtype=dtype or float)
        return np.array([[complex(v) for v in row] for row in self.data],
                        dtype=dtype or complex)

    def astype(self, scalar: str) -> "ConvMatrix":
        if scalar == self.scalar:
            return self
        if scalar == COMPLEX:
            return ConvMatrix.from_rows(
                ((complex(float(v)) for v in row) for row in self.data), COMPLEX
            )
        raise ScalarError("cannot convert a complex-float matrix to the exact backend")

    def max_abs(self) -> float:
        return max(float(abs(v)) for row in self.data for v in row)

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(numerics.is_zero_scalar(v, self.scalar, tol)
                   for row in self.data for v in row)

    def is_real(self, tol: float = 0.0) -> bool:
        return all(abs(v.imag) <= tol for row in self.data for v in row)

    # ------------------------------------------------------------------
    # arithmetic sugar (the named operations live at module level)
    # ------------------------------------------------------------------

    def __add__(self, other: "ConvMatrix") -> "ConvMatrix":
        return add(self, other)

    def __sub__(self, other: "ConvMatrix") -> "ConvMatrix":
        return add(self, scale(-1, other))

    def __neg__(self) -> "ConvMatrix":
        return scale(-1, self)

    def __rmul__(self, alpha) -> "ConvMatrix":
        return scale(alpha, self)

    def conv(self, other: "ConvMatrix") -> "ConvMatrix":
        return conv(self, other)

    def transpose(self) -> "ConvMatrix":
        return transpose(self)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "scalar": self.scalar,
            "data": [[numerics.scalar_to_json(v, self.scalar) for v in row]
                     for row in self.data],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ConvMatrix":
        if not isinstance(payload, dict):
            raise ScalarError("matrix JSON must be an object")
        for field in ("rows", "cols", "scalar", "data"):
            if field not in payload:
                raise ScalarError(f"matrix JSON is missing field {field!r}")
        scalar = payload["scalar"]
        if scalar not in (RATIONAL, COMPLEX):
            raise ScalarError(f"field 'scalar' must be 'rational' or 'complex', got {scalar!r}")
        for field in ("rows", "cols"):
            value = payload[field]
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ScalarError(f"field {field!r} must be an integer >= 1, got {value!r}")
        rows, cols = payload["rows"], payload["cols"]
        data = payload["data"]
        if not isinstance(data, list) or len(data) != rows:
            raise ScalarError("field 'data' does not match field 'rows'")
        parsed = []
        for row in data:
            if not isinstance(row, list) or len(row) != cols:
                raise ScalarError("field 'data' does not match field 'cols'")
            parsed.append(tuple(numerics.scalar_from_json(v, scalar) for v in row))
        return cls(rows, cols, tuple(parsed), scalar)

    @classmethod
    def from_json(cls, text: str) -> "ConvMatrix":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScalarError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(payload)

    def to_csv(self) -> str:
        """CSV export; a convenience for real matrices only."""
        if not self.is_real():
            raise ScalarError("CSV export only supports real matrices")
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in self.data:
            writer.writerow([float(v.real) for v in row])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ConvMatrix":
        rows = [[float(cell) for cell in row] for row in csv.reader(io.StringIO(text)) if row]
        if not rows:
            raise ScalarError("empty CSV input")
        return cls.from_rows(rows, COMPLEX)

    def __str__(self) -> str:
        def fmt(v):
            if self.scalar == RATIONAL:
                return str(v)
            return f"{v.real:.6g}" if v.imag == 0 else f"{v!r}"
        return "\n".join("  ".join(fmt(v) for v in row) for row in self.data)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _require_same_shape(a: ConvMatrix, b: ConvMatrix):
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")


def _require_same_backend(a: ConvMatrix, b: ConvMatrix):
    if a.scalar != b.scalar:
        raise BackendMismatchError(f"backend mismatch: {a.scalar} vs {b.scalar}")


def antidiagonal_indices(rows: int, cols: int) -> Iterator[tuple]:
    """Grid indices ordered by anti-diagonal (i+j ascending, then i)."""
    for s in range(rows + cols - 1):
        for i in range(max(0, s - cols + 1), min(rows - 1, s) + 1):
            yield (i, s - i)


# ----------------------------------------------------------------------
# ring operations
# ----------------------------------------------------------------------

def _conv_window(a: ConvMatrix, b: ConvMatrix, rows: int, cols: int,
                 top: Optional[int] = None) -> ConvMatrix:
    """Top-left rows x cols window of the full 2-D convolution of a and b.

    Entry (i, j) gathers a[l, k] b[i-l, j-k] over every (l, k) with both
    factors inside their matrices, summed with l and then k ascending.
    On the rational backend the operands first go over common
    denominators (:func:`juryconv.numerics.integer_operands`): the loop
    multiplies and adds Python ints, which is exact, and each output
    entry becomes one ``Fraction(sum, da*db)`` with a single gcd, equal
    to the Fraction sum.  Complex entries run through the same loop in
    the same order, so their results are bit-for-bit those of the plain
    float sum.  Only anti-diagonals i+j <= ``top`` (default: all) are
    summed; the rest stay zero, for :func:`ring_taylor`'s cap.
    """
    ad, bd, zero, finish = numerics.integer_operands(a.data, b.data, a.scalar)
    col_ranges = [range(max(0, j - b.cols + 1), min(j, a.cols - 1) + 1)
                  for j in range(cols)]
    out = []
    for i in range(rows):
        row_pairs = [(ad[l], bd[i - l])
                     for l in range(max(0, i - b.rows + 1), min(i, a.rows - 1) + 1)]
        row = []
        for j, ks in enumerate(col_ranges if top is None else col_ranges[:max(0, top - i + 1)]):
            acc = zero
            for arow, brow in row_pairs:
                for k in ks:
                    acc += arow[k] * brow[j - k]
            row.append(acc)
        out.append(row)
    if top is not None:
        out = [row + [zero] * (cols - len(row)) for row in out]
    return ConvMatrix(rows, cols, finish(out), a.scalar)


def conv(a: ConvMatrix, b: ConvMatrix) -> ConvMatrix:
    """Truncated 2-D convolution of two same-shape matrices."""
    _require_same_shape(a, b)
    _require_same_backend(a, b)
    return _conv_window(a, b, a.rows, a.cols)


def padded_conv(a: ConvMatrix, b: ConvMatrix) -> ConvMatrix:
    """Full 2-D convolution onto the (M1+M2-1) x (N1+N2-1) window.

    Unlike the ring product, shapes may differ; restricting the result
    to the top-left common window reproduces the truncated convolution.
    """
    _require_same_backend(a, b)
    return _conv_window(a, b, a.rows + b.rows - 1, a.cols + b.cols - 1)


def conv_identity(rows: int, cols: int, scalar: str = RATIONAL) -> ConvMatrix:
    """The multiplicative identity: 1 at (0, 0), 0 elsewhere."""
    z = numerics.zero(scalar)
    o = numerics.one(scalar)
    data = tuple(
        tuple(o if (i, j) == (0, 0) else z for j in range(cols))
        for i in range(rows)
    )
    return ConvMatrix(rows, cols, data, scalar)


def add(a: ConvMatrix, b: ConvMatrix) -> ConvMatrix:
    _require_same_shape(a, b)
    _require_same_backend(a, b)
    data = tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.data, b.data)
    )
    return ConvMatrix(a.rows, a.cols, data, a.scalar)


def scale(alpha, a: ConvMatrix) -> ConvMatrix:
    c = numerics.coerce(alpha, a.scalar)
    data = tuple(tuple(c * v for v in row) for row in a.data)
    return ConvMatrix(a.rows, a.cols, data, a.scalar)


def transpose(a: ConvMatrix) -> ConvMatrix:
    data = tuple(tuple(a.data[i][j] for i in range(a.rows)) for j in range(a.cols))
    return ConvMatrix(a.cols, a.rows, data, a.scalar)


def conv_power_naive(a: ConvMatrix, kappa: int) -> ConvMatrix:
    """kappa-fold convolution power by left-fold repeated products.

    Deliberately the dumb loop: it serves as the independent oracle for
    the partition-sum power formula.
    """
    if kappa < 0:
        raise ValueError(f"power must be >= 0, got {kappa}")
    result = conv_identity(a.rows, a.cols, a.scalar)
    for _ in range(kappa):
        result = conv(result, a)
    return result


def conv_power_squaring(a: ConvMatrix, kappa: int) -> ConvMatrix:
    """Same contract as :func:`conv_power_naive`, via binary exponentiation."""
    if kappa < 0:
        raise ValueError(f"power must be >= 0, got {kappa}")
    result = conv_identity(a.rows, a.cols, a.scalar)
    base = a
    while kappa:
        if kappa & 1:
            result = conv(result, base)
        kappa >>= 1
        if kappa:
            base = conv(base, base)
    return result


def _check_invertible(a: ConvMatrix):
    a00 = a.data[0][0]
    if a.scalar == RATIONAL:
        if a00 == 0:
            raise SingularMatrixError(a00)
    else:
        threshold = SINGULARITY_RTOL * max(1.0, a.max_abs())
        if abs(a00) <= threshold:
            raise SingularMatrixError(a00, threshold)


def conv_inverse_recursive(a: ConvMatrix) -> ConvMatrix:
    """Multiplicative inverse by back-substitution along anti-diagonals.

    Every b[l, k] with l <= i, k <= j and (l, k) != (i, j) is fixed
    before b[i, j]; the defining relation (A <> B)[i, j] = 0 for
    (i, j) != (0, 0) then determines b[i, j] from a single division by
    a[0, 0].
    """
    _check_invertible(a)
    a00 = a.data[0][0]
    inv00 = 1 / a00
    b = [[numerics.zero(a.scalar)] * a.cols for _ in range(a.rows)]
    b[0][0] = inv00
    for (i, j) in antidiagonal_indices(a.rows, a.cols):
        if (i, j) == (0, 0):
            continue
        acc = numerics.zero(a.scalar)
        for l in range(i + 1):
            for k in range(j + 1):
                if (l, k) == (0, 0):
                    continue
                acc += a.data[l][k] * b[i - l][j - k]
        b[i][j] = -inv00 * acc
    return ConvMatrix(a.rows, a.cols, tuple(tuple(row) for row in b), a.scalar)


def conv_inverse_ch(a: ConvMatrix) -> ConvMatrix:
    """Closed-form inverse from the degree-(M+N-1) annihilating polynomial.

    (A - a00 I)^(M+N-1) = 0, so with G = A - a00 I the geometric series
    for A = a00 (I + G/a00) terminates:

        A^(-1) = a00^(-1) sum_{k=0}^{M+N-2} (-G/a00)^k

    (powers under convolution), evaluated by Horner in G.  Agrees exactly
    with the recursive construction on the rational backend.
    """
    _check_invertible(a)
    a00 = a.data[0][0]
    inv00 = 1 / a00
    series = ring_taylor([1] * (a.rows + a.cols - 1), scale(-inv00, nilpotent_part(a)))
    return scale(inv00, series)


def nilpotent_part(a: ConvMatrix) -> ConvMatrix:
    """G = A - a00 I: the matrix with its (0, 0) entry zeroed.

    G^(<>l) vanishes for l >= M+N-1, since every entry of a product of l
    factors sums l indices of the punctured grid.
    """
    first = (numerics.zero(a.scalar),) + a.data[0][1:]
    return ConvMatrix(a.rows, a.cols, (first,) + a.data[1:], a.scalar)


def ring_taylor(coeffs: Iterable, x: ConvMatrix) -> ConvMatrix:
    """sum_l coeffs[l] X^(<>l) for any X, by Horner: R_l = R_(l+1) <> X + c_l I.

    n coefficients cost n-1 products and form no power of X.  At the
    nilpotent part G, whose powers vanish from order M+N-1, callers pass
    M+N-1 coefficients.  Coefficients are coerced to X's backend: on the
    rational backend they must be exact (ints, Fractions or "p/q" strings).
    At a zero origin step l sums only anti-diagonals i+j <= M+N-2-l, all
    R_0 needs: (R <> X)[i, j] reads R on lower anti-diagonals, save the
    zero product R[i, j] X[0, 0].  Skipped entries stay zero; as sums
    start at +0 the result is bit-for-bit the uncapped loop's.
    """
    cs = [numerics.coerce(c, x.scalar) for c in coeffs]
    if not cs:
        return ConvMatrix.zeros(x.rows, x.cols, x.scalar)
    full, nilpotent = x.rows + x.cols - 2, x.data[0][0] == 0
    result = scale(cs[-1], conv_identity(x.rows, x.cols, x.scalar))
    for l in range(len(cs) - 2, -1, -1):
        prod = _conv_window(result, x, x.rows, x.cols, full - l if nilpotent else None)
        first = (prod.data[0][0] + cs[l],) + prod.data[0][1:]
        result = ConvMatrix(x.rows, x.cols, (first,) + prod.data[1:], x.scalar)
    return result


def matrices_close(a: ConvMatrix, b: ConvMatrix, tol: float = 1e-12) -> bool:
    """Entrywise epsilon comparison relative to the pair's max magnitude."""
    _require_same_shape(a, b)
    ref = max(1.0, a.max_abs(), b.max_abs())
    for (i, j) in a.indices():
        if abs(complex(a.data[i][j]) - complex(b.data[i][j])) > tol * ref:
            return False
    return True
