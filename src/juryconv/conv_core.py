"""The convolution ("Jury") ring on fixed-shape matrices.

An M x N matrix, indexed over the grid [0:M-1] x [0:N-1], forms a
commutative unital ring under entrywise addition and the truncated
two-dimensional convolution

    (A <> B)[i, j] = sum_{l<=i, k<=j} A[l, k] * B[i-l, j-k].

The multiplicative identity has a single 1 at (0, 0).  A matrix is
invertible exactly when its (0, 0) entry is nonzero; both inverse
constructions (back-substitution, and the closed form derived from the
degree-(M+N-1) annihilating polynomial) live here, and so does
:func:`ring_taylor`, Horner for sum_l c_l X^(<>l) at any X, the
library's one polynomial evaluator: at G = A - a00 I (where, on
rationals, its steps skip the anti-diagonals no later step reads) for
the closed-form inverse, the functional calculus and power series, at A
for the polynomial action, the annihilator check and the padded action
of :mod:`juryconv.probgrid`.  The float back-substitution is the
alpha = -1 case of :func:`_power_solve`, Miller's recurrence for
A^alpha, which also runs the power transforms of :mod:`juryconv.transforms`.

Both backends store a matrix as one read-only 2-D array, so entrywise
operations are single array operations on either.  On the complex one
it is ``float64`` when no entry has a nonzero imaginary part and
``complex128`` otherwise (:func:`_float_storage`), so real data, which
is every matrix of the paper's positivity results, runs real BLAS and
LAPACK; entries still read as ``complex``.  On the rational one it is
an object array N of Python ints over one positive denominator d, in
lowest terms (gcd(d, N) = 1), a canonical form.  ``Fraction``s are
built only when entries are read: entry access, the ``data`` tuples (a
view built on first use), JSON and CSV.

The convolution sum itself is written once, in :func:`_conv_window`,
which maps two storage arrays to a top-left window of their full 2-D
convolution, an array again.  On the rational backend it sums the
integers N_a and N_b; the result lies over d_a d_b, and one content-gcd
pass brings it to lowest terms.  Integer sums are exact, so the result
is the one the Fraction arithmetic would give, at a fraction of its
cost.  They run on int64 words (the word route, :func:`_word_product`)
when a bound read from the operands proves every sum fits:
max|N_a| max|N_b| terms <= 2^63 - 1, terms being the most products in
one entry.  Otherwise, and whenever an entry does not fit an int64,
they run on Python ints (the loop, :func:`_int_window`).  On the
complex backend it is one BLAS product of B's row shifts with the
Toeplitz blocks of each run of A's rows (:func:`_gemm_window`), with an
entrywise error bound and exact structural zeros; the complex kernels
compute in ``float64`` when every operand and coefficient is real, and
in ``complex128`` otherwise.  The
ring product :func:`conv` is its M x N window and is defined only for
equal shapes; the padded, shape-growing product :func:`padded_conv` is
its (M1+M2-1) x (N1+N2-1) window, re-exported by
:mod:`juryconv.probgrid` for grid distributions.  Each wraps one result
array as a :class:`ConvMatrix`.

A Horner chain holds one factor X fixed, so X's Toeplitz blocks are
stacked once per chain (:func:`_toeplitz_stack`).  The rational chain
of :func:`ring_taylor` keeps R in int64 words over one running
denominator while each step passes the same bound and a check on its
rescale and origin add, then finishes on the loop
(:func:`_rational_chain`).  The complex chain, :func:`_gemm_chain`, is
one batched matmul per block of rows per step (runs of at most
_CHAIN_RUN products per entry), with the kernel's entrywise bound at
every step.  The rational back-substitution inverse runs on rows of
ints over one running denominator (:func:`_int_inverse`).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
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


def _copied_array(data, scalar: str) -> np.ndarray:
    """A fresh array of nested rows or a 2-D array: objects, or floats by :func:`_float_storage`."""
    try:
        if scalar != COMPLEX:
            return np.array(data, dtype=object)
        arr = np.array(data, order="C")
    except ValueError as exc:
        raise ShapeMismatchError(f"rows of unequal length: {exc}") from exc
    if arr.dtype.kind not in "biufc":
        raise ScalarError(f"complex backend holds numbers, got dtype {arr.dtype}")
    return _float_storage(arr)


def _float_storage(arr: np.ndarray) -> np.ndarray:
    """Complex storage: ``arr`` as float64 if no imaginary part is nonzero, else as complex128.

    A zero imaginary part of either sign counts as zero; a NaN one does
    not, so it reaches the finiteness check.  No copy is made where the
    dtype already fits (``_adopt`` makes the result contiguous).
    """
    if arr.dtype.kind == "c":
        if arr.imag.any():
            return arr.astype(np.complex128, copy=False)
        arr = arr.real
    return arr.astype(np.float64, copy=False)


def _over_one_denominator(arr: np.ndarray) -> tuple:
    """An object array of ``Fraction`` as (N, d): int numerators over the lcm d of its denominators.

    The result is in lowest terms, gcd(d, N) = 1: for each prime p of d,
    the entry whose denominator holds the highest power of p has a
    numerator prime to p, and d over that denominator is prime to p.
    """
    flat = arr.ravel().tolist()
    for entry in flat:
        if not isinstance(entry, Fraction):
            raise ScalarError(f"rational backend holds Fractions, got {entry!r}")
    d = math.lcm(*(v.denominator for v in flat))
    nums = np.array([v.numerator * (d // v.denominator) for v in flat], dtype=object)
    return nums.reshape(arr.shape), d


class ConvMatrix:
    """Immutable M x N matrix over an exact-rational or complex-float backend.

    Indexing is zero-based.  The storage is one read-only, C-ordered 2-D
    array on both backends.  On the complex one it is ``float64`` when
    no entry has a nonzero imaginary part and ``complex128`` otherwise;
    :meth:`to_numpy` returns that array, so real data comes back as
    ``float64``, while entry access, ``data``, JSON, ``==``, ``hash``
    and pickling see ``complex`` values either way.  On the rational one it is an
    object array N of Python ints over one denominator d > 0, in lowest
    terms: gcd(d, every entry of N) = 1, so a zero matrix has d = 1.
    That form is canonical, so ``==`` is array equality plus equal d.
    Construction validates the entries, by one finiteness test or a type
    test per entry.  Entry access builds a ``Fraction`` when read on
    rationals, and ``data`` is a row-major tuple of row tuples of the
    entries (``complex`` or ``Fraction``), built on first use and cached;
    JSON and CSV go through it.  ``ConvMatrix(rows, cols, data, scalar)``
    takes row tuples or a 2-D array of the entries on either backend and
    copies it.
    """

    __slots__ = ("rows", "cols", "scalar", "_data", "_array", "_den")

    def __init__(self, rows: int, cols: int, data, scalar: str = RATIONAL):
        arr, den = _copied_array(data, scalar), 1
        # A misshapen array is left to __post_init__, which names its shape.
        if scalar == RATIONAL and arr.shape == (rows, cols):
            arr, den = _over_one_denominator(arr)
        self._adopt(rows, cols, arr, scalar, den)

    def _adopt(self, rows: int, cols: int, arr: np.ndarray, scalar: str, den: int):
        """Store ``arr`` over ``den``, which no one else holds, frozen in place, and validate."""
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        init = object.__setattr__
        init(self, "rows", rows)
        init(self, "cols", cols)
        init(self, "scalar", scalar)
        init(self, "_data", None)
        init(self, "_array", arr)
        init(self, "_den", den)
        self.__post_init__()

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ShapeMismatchError(f"matrix shape must be >= 1x1, got {self.rows}x{self.cols}")
        if self.scalar not in (RATIONAL, COMPLEX):
            raise ScalarError(f"unknown scalar backend {self.scalar!r}")
        arr = self._array
        if arr.shape != (self.rows, self.cols):
            raise ShapeMismatchError(
                f"expected {self.rows}x{self.cols} entries, got shape {arr.shape}")
        if self.scalar == COMPLEX and not np.isfinite(arr).all():
            raise ScalarError(f"non-finite entry {complex(arr[~np.isfinite(arr)][0])!r}")

    @property
    def data(self) -> tuple:
        if self._data is None:
            if self.scalar == RATIONAL:
                d = self._den
                rows = [[Fraction(v, d) for v in row] for row in self._array.tolist()]
            else:
                rows = self._array.astype(np.complex128, copy=False).tolist()
            object.__setattr__(self, "_data", tuple(map(tuple, rows)))
        return self._data

    def __setattr__(self, name, value):
        raise AttributeError(f"ConvMatrix is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ConvMatrix is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.rows, self.cols, self.scalar) != (other.rows, other.cols, other.scalar):
            return False
        return self._den == other._den and bool(np.array_equal(self._array, other._array))

    def __hash__(self):
        return hash((self.rows, self.cols, self.data, self.scalar))

    def __repr__(self) -> str:
        return (f"ConvMatrix(rows={self.rows!r}, cols={self.cols!r}, "
                f"data={self.data!r}, scalar={self.scalar!r})")

    def __reduce__(self):
        return (ConvMatrix, (self.rows, self.cols, self.data, self.scalar))

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
        return _scaled_identity(rows, cols, numerics.zero(scalar), scalar)

    @classmethod
    def from_numpy(cls, arr) -> "ConvMatrix":
        arr = np.atleast_2d(np.asarray(arr))
        return cls(arr.shape[0], arr.shape[1], arr, COMPLEX)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def __getitem__(self, key) -> Scalar:
        i, j = key
        v = self._array.item(i, j)
        return Fraction(v, self._den) if self.scalar == RATIONAL else complex(v)

    def indices(self) -> Iterator[tuple]:
        for i in range(self.rows):
            for j in range(self.cols):
                yield (i, j)

    def to_lists(self) -> list:
        return [list(row) for row in self.data]

    def to_numpy(self, dtype=None):
        """Entries as an array: the stored read-only one on complex, new floats on rationals.

        On complex that is ``float64`` for real data and ``complex128``
        otherwise (the storage rule).  A rational entry is N[i, j] / d,
        int by int true division, which rounds correctly: the float
        ``float(Fraction)`` gives.
        """
        if self.scalar == RATIONAL:
            return (self._array / self._den).astype(dtype or float)
        return self._array if dtype is None else self._array.astype(dtype)

    def astype(self, scalar: str) -> "ConvMatrix":
        if scalar == self.scalar:
            return self
        if scalar == COMPLEX:
            return _matrix(self.to_numpy(), COMPLEX)
        raise ScalarError("cannot convert a complex-float matrix to the exact backend")

    def max_abs(self) -> float:
        return float(np.abs(self.to_numpy()).max())

    def is_zero(self, tol: float = 0.0) -> bool:
        if not tol:
            return not self._array.any()
        if self.scalar == RATIONAL:
            return all(abs(v) <= tol for row in self.data for v in row)
        return bool((np.abs(self._array) <= tol).all())

    def is_real(self, tol: float = 0.0) -> bool:
        return self.scalar == RATIONAL or bool((np.abs(self._array.imag) <= tol).all())

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


def _matrix(arr: np.ndarray, scalar: str, den: int = 1) -> ConvMatrix:
    """A matrix over ``arr``, an array just built here: frozen in place, not copied.

    On rationals ``arr`` holds ints over ``den`` > 0; one content-gcd
    pass brings them to lowest terms, in place.  On complex the storage
    rule picks the dtype: a complex result with no nonzero imaginary
    part is stored as its real part (copied).
    """
    if scalar == RATIONAL:
        g = math.gcd(den, *arr.flat)
        if g != 1:
            arr //= g
            den //= g
    else:
        arr = _float_storage(arr)
    m = ConvMatrix.__new__(ConvMatrix)
    m._adopt(*arr.shape, arr, scalar, den)
    return m


def _scaled_identity(rows: int, cols: int, c, scalar: str) -> ConvMatrix:
    """c I for a scalar c of the backend: on complex, c * 0 off the origin, as ``scale`` gives."""
    if scalar == COMPLEX:
        zero, unit = np.array([0.0, 1.0]) * (c if c.imag else c.real)
        arr = np.full((rows, cols), zero)
        arr[0, 0] = unit
        return _matrix(arr, COMPLEX)
    n = np.zeros((rows, cols), dtype=object)
    n[0, 0] = c.numerator
    return _matrix(n, RATIONAL, c.denominator)


# ----------------------------------------------------------------------
# ring operations
# ----------------------------------------------------------------------

def _conv_window(a: np.ndarray, b: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Top-left rows x cols window of the full 2-D convolution of arrays a and b.

    Entry (i, j) gathers a[l, k] b[i-l, j-k] over every (l, k) with both
    factors inside their arrays: storage arrays of one backend.  The
    result is a fresh, writeable array of their dtype.  Its callers are
    :func:`conv` and :func:`padded_conv`.

    On the rational backend the operands are numerator arrays, and the
    window is their integer sums, which the caller puts over d_a d_b and
    brings to lowest terms in one content-gcd pass (:func:`_matrix`).
    When both fit int64 and max|a| max|b| terms <= 2^63 - 1, with terms
    = min(M_a, M_b, rows) min(N_a, N_b, cols) the most products in one
    entry, every partial sum fits a word in any order, and the window is
    one int64 matmul (:func:`_word_product`, X = b stacked by
    :func:`_word_side`).  Otherwise it is :func:`_int_window` of their
    rows, on Python ints.  Both are exact, so the bound alone picks the
    route.  A tall window runs on the transposes (conv commutes with
    transposition): each term of the loop's sums pairs two rows, so few
    long rows cost less than many short ones, and the word route's
    per-call gather is the smaller one.

    On the complex backend one route serves every shape,
    :func:`_gemm_window` (complex chains run :func:`_gemm_chain`, which
    sums the same products per entry), in ``float64`` when both operands
    are real and in ``complex128`` otherwise.  Each entry sums the
    k <= M*N products a[l, k] b[i-l, j-k] of the definition, in runs of
    at most max(_CHAIN_RUN, nb) summed in BLAS's order and added in
    order, plus products with an exact zero, which add nothing.  Hence:

    - the error is entrywise, |fl(A<>B) - A<>B| <= gamma_(k+2) (|A| <> |B|)
      with gamma_n = n u / (1 - n u) (Higham, *Accuracy and Stability of
      Numerical Algorithms*, 2nd ed., 3.1 and 3.6).  That bound rounds
      each complex product whole; BLAS splits it into real products,
      which can only be proved to sqrt(2) gamma_(2k).  The tests hold
      the kernel to gamma_(k+2);
    - structural zeros are exact: an entry whose products all have a
      zero factor is 0, so G <> X is 0 at the origin and
      G^(<>(M+N-1)) is the zero matrix, the two facts that the float
      ``minimal_polynomial`` and ``ch_check`` read through their
      entrywise rounding rule.

    There is no FFT route.  Its error is normwise, about
    eps log(n) |A| |B|, so small entries of high powers of G would lose
    their relative accuracy and the rule above would break; it is the
    faster product only from about 64x64 up.
    """
    if a.dtype != object:
        return _gemm_window(a, b, rows, cols)
    if rows > cols:
        return _conv_window(a.T, b.T, cols, rows).T
    wa, wb = _words(a), _words(b)
    terms = min(a.shape[0], b.shape[0], rows) * min(a.shape[1], b.shape[1], cols)
    if wa is None or wb is None or wa[1] * wb[1] * terms > _WORD_MAX:
        return np.array(_int_window(a.tolist(), b.tolist(), rows, cols), dtype=object)
    nr = min(a.shape[1], cols)
    side = _word_side(wb[0], nr, rows, cols)
    top = side[1].shape[1] - 1
    padded = np.zeros((top + rows, nr), dtype=np.int64)
    padded[top:top + min(a.shape[0], rows)] = wa[0][:rows, :nr]
    return _word_product(padded, side).astype(object)


def _int_window(a: list, b: list, rows: int, cols: int, top: Optional[int] = None) -> list:
    """The window of :func:`_conv_window` on rows of Python ints, as rows of ints.

    Only anti-diagonals i+j <= ``top`` (default: all) are summed; the
    rest stay zero, for :func:`ring_taylor`'s cap.  Its callers are
    :func:`_conv_window` and rational Horner chains.
    """
    arows, acols, brows, bcols = len(a), len(a[0]), len(b), len(b[0])
    col_ranges = [range(max(0, j - bcols + 1), min(j, acols - 1) + 1) for j in range(cols)]
    out = []
    for i in range(rows):
        pairs = [(a[l], b[i - l]) for l in range(max(0, i - brows + 1), min(i, arows - 1) + 1)]
        ks = col_ranges if top is None else col_ranges[:max(0, top - i + 1)]
        row = [_int_dot(pairs, k, j) for j, k in enumerate(ks)]
        out.append(row + [0] * (cols - len(row)))
    return out


def _int_dot(pairs: list, ks: range, j: int) -> int:
    """sum over (arow, brow) in pairs and k in ks of arow[k] * brow[j-k]: one entry's sum."""
    acc = 0
    for arow, brow in pairs:
        for k in ks:
            acc += arow[k] * brow[j - k]
    return acc


# The largest int64.  An integer sum whose terms' magnitudes add up to at
# most this is exact on int64 words, in any order.
_WORD_MAX = 2 ** 63 - 1
# Most words of X's Toeplitz stack that one word product holds at once
# (:func:`_word_side`); it bounds the workspace on long thin shapes.
_WORD_STACK_BUDGET = 1 << 16


def _words(a: np.ndarray):
    """(A, max|A|) for an object array A of ints, A as int64; None if an entry does not fit."""
    try:
        w = np.asarray(a, dtype=np.int64)
    except OverflowError:
        return None
    # |-2^63| wraps to -2^63 in int64, which reads as 2^63 unsigned.
    return w, int(np.abs(w).view(np.uint64).max())


def _word_side(x: np.ndarray, nr: int, rows: int, cols: int) -> tuple:
    """(X, shifts, cols, Xs): X's side of the word product R <> X on a rows x cols window.

    R has nr columns.  shifts = _row_shifts(rows, mx), mx = min(M_x, rows),
    reads R from a copy with mx - 1 zero rows on top and rows + mx - 1
    rows in all.  Xs stacks X's Toeplitz blocks T_l, l < mx, each nr x cols
    (:func:`_toeplitz_stack`): built here when it holds at most
    _WORD_STACK_BUDGET words, else None, and each product builds it in
    strips of columns that do.
    """
    mx = min(x.shape[0], rows)
    shifts = _row_shifts(rows, mx)
    xs = _toeplitz_stack(x[:mx], nr, cols) if mx * nr * cols <= _WORD_STACK_BUDGET else None
    return x[:mx], shifts, cols, xs


def _word_product(padded: np.ndarray, side: tuple, out=None) -> np.ndarray:
    """R <> X on int64 words: S @ Xs with S[i, (l, q)] = R[i-l, q], gathered from padded R.

    One gather of R's row shifts and one matmul with X's stack, or one
    per strip of columns (:func:`_word_side`).  Each entry sums the
    products of the definition plus exact zeros, so when their
    magnitudes add up to at most _WORD_MAX it is exact.
    """
    x, shifts, cols, xs = side
    s = padded[shifts].reshape(shifts.shape[0], -1)
    if xs is not None:
        return np.matmul(s, xs, out=out)
    if out is None:
        out = np.empty((shifts.shape[0], cols), dtype=np.int64)
    step = max(1, _WORD_STACK_BUDGET // s.shape[1])
    for j0 in range(0, cols, step):
        j1 = min(j0 + step, cols)
        out[:, j0:j1] = s @ _toeplitz_stack(x, padded.shape[1], cols, j0, j1)
    return out


def _toeplitz_rows(a: np.ndarray, nb: int, cols: int, j0: int = 0, j1: Optional[int] = None,
                   g: int = 1):
    """(padded, index): ``padded[l:l+g].take(index)`` stacks T_(l+t)[:, j0:j1], t < g, T_l[m, j] = a[l, j-m].

    T_l is the nb x cols upper-triangular Toeplitz block of row l of A,
    zero off A's columns; ``padded`` is A's rows, zero-padded on the left
    and below to a multiple of g rows, of A's dtype.  The index covers
    columns j0 to j1 (default: all); at g = 1 ``padded[l, index]`` is T_l.
    """
    ma, na = a.shape
    padded = np.zeros((-(-ma // g) * g, nb + cols), dtype=a.dtype)
    padded[:ma, nb:nb + min(na, cols)] = a[:, :cols]
    index = _toeplitz_index(nb, (cols if j1 is None else j1) - j0, g, nb + cols)
    return padded, index + j0 if j0 else index


@functools.lru_cache(maxsize=64)
def _toeplitz_index(nb: int, cols: int, g: int, width: int) -> np.ndarray:
    """index[(t, m), j] = t width + nb - m + j: a[l+t, j-m] in g padded rows of ``width``, read-only."""
    index = np.add.outer(np.arange(0, g * width, width), np.add.outer(np.arange(nb, 0, -1), np.arange(cols)))
    index = index.reshape(g * nb, cols)
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=64)
def _row_shifts(rows: int, g: int) -> np.ndarray:
    """shifts[i, t] = g - 1 + i - t, i < rows, t < g: the row of R[i-t] in R with g - 1 zero rows on top; read-only."""
    shifts = np.subtract.outer(np.arange(g - 1, g - 1 + rows), np.arange(g))
    shifts.flags.writeable = False
    return shifts


def _toeplitz_stack(a: np.ndarray, nb: int, cols: int, j0: int = 0,
                    j1: Optional[int] = None) -> np.ndarray:
    """Columns j0 to j1 (default: all) of the blocks T_l (:func:`_toeplitz_rows`), l < M, stacked."""
    padded, toeplitz = _toeplitz_rows(a, nb, cols, j0, j1)
    return np.take(padded, toeplitz, axis=1).reshape(a.shape[0] * nb, toeplitz.shape[1])


def _gemm_window(a: np.ndarray, b: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The complex window: out[l0:l0+r] += S[:r] @ Xs over the runs [l0, l0+g) of A's rows.

    S[i, (t, q)] = B[i-t, q], t < g, is gathered once (at g = 1 S is B)
    and Xs stacks the run's blocks T_l (:func:`_toeplitz_rows`), zero
    past A's last row: g nb products per entry and run, the runs added
    in order, within the gamma_(k+2) bound of :func:`_conv_window`.  g
    is the most rows (at least 1) with g nb <= _CHAIN_RUN and S within
    _WINDOW_GATHER_BUDGET entries; the blocks lie along the shorter axis
    (conv commutes with transposition), so the workspace stays a few
    times the output.  Both operands are cast to their common dtype, so
    a real one meets a complex one as ``complex128``.
    """
    if cols > rows:
        return _gemm_window(a.T, b.T, cols, rows).T
    dtype = np.result_type(a, b)
    ma, nb = min(a.shape[0], rows), min(b.shape[1], cols)
    g = max(1, min(ma, _CHAIN_RUN // nb, _WINDOW_GATHER_BUDGET // (rows * nb)))
    rs = min(rows, b.shape[0] + g - 1)
    s = b[:rs, :nb].astype(dtype, copy=False)
    if g > 1:
        shifted = np.zeros((g - 1 + rs, nb), dtype=dtype)
        shifted[g - 1:g - 1 + len(s)] = s
        s = shifted[_row_shifts(rs, g)].reshape(rs, g * nb)
    padded, toeplitz = _toeplitz_rows(a[:ma].astype(dtype, copy=False), nb, cols, g=g)
    out = np.zeros((rows, cols), dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for l0, run in zip(range(0, ma, g), padded.reshape(-1, g * (nb + cols))):
            out[l0:l0 + rs] += s[:rows - l0] @ run.take(toeplitz)
    return out


# Entries gathered for a complex window (:func:`_gemm_window`), and per
# matmul of a complex Horner step (:func:`_gemm_chain`, where it sets the
# row-block height): they bound the workspace on thin shapes.
_WINDOW_GATHER_BUDGET = 1 << 12
_CHAIN_GATHER_BUDGET = 1 << 16
# Most products per entry that one matmul of a complex Horner step sums
# (:func:`_gemm_chain`); longer sums are split into runs added in order.
_CHAIN_RUN = 128


def _gemm_chain(cs: list, x: np.ndarray) -> np.ndarray:
    """Complex Horner R <- R <> X + c I over ``cs`` from the last; R's array.

    X is fixed, so its N x N Toeplitz blocks T_l are stacked once, Xs.
    A step is (R <> X)[i] = S[i] @ Xs with S[i, (l, q)] = R[i-l, q], the
    row shifts of R, as in :func:`_gemm_window` (blocks along the
    shorter axis, the l in the fewest even runs of at most _CHAIN_RUN
    products per entry, one BLAS product per run, added in order).  The
    runs bound how many products BLAS sums at once whatever its own
    blocking (the ``float64`` gemm sums longer runs than the
    ``complex128`` one, and lost up to half a digit over them).  Rows
    [i0, i1) read only l < i1, so a block of rows is one batched matmul
    whose gather holds at most _CHAIN_GATHER_BUDGET entries; the blocks
    run bottom-up, so each overwrites rows of R that no later (higher)
    block reads, in place.  The chain runs in ``float64`` when X and
    every coefficient are real, and in ``complex128`` otherwise.
    """
    m, n = x.shape
    if n > m:
        return _gemm_chain(cs, x.T).T
    if x.dtype.kind == "f" and not any(c.imag for c in cs):
        cs = [c.real for c in cs]
    else:
        x = x.astype(np.complex128, copy=False)
    # Run p holds the g blocks T_l with p g <= l < (p+1) g, zero past l = M-1.
    runs = -(-m // max(1, _CHAIN_RUN // n))
    g = -(-m // runs)
    padded, toeplitz = _toeplitz_rows(x, n, n, g=g)
    xs = np.take(padded.reshape(runs, -1), toeplitz, axis=1)
    h = max(1, min(m, _CHAIN_GATHER_BUDGET // (m * n)))
    top = h + g - 2
    r = np.zeros((top + m, n), dtype=x.dtype)
    r[top, 0] = cs[-1]
    # shifts[p, s, t] + i0 + lift is the row of r holding R[i0+s-l], l = p g + t (a zero row for l > i0+s).
    shifts = _row_shifts(h, runs * g).reshape(h, runs, g).transpose(1, 0, 2)
    lift = top - runs * g + 1
    with np.errstate(over="ignore", invalid="ignore"):
        for c in reversed(cs[:-1]):
            for i0 in range((m - 1) // h * h, -1, -h):
                i1 = min(i0 + h, m)
                p = -(-i1 // g)
                parts = r[shifts[:p, :i1 - i0] + (i0 + lift)].reshape(p, i1 - i0, g * n) @ xs[:p]
                parts.sum(axis=0, out=r[top + i0:top + i1])
            r[top, 0] += c
    return r[top:]


def conv(a: ConvMatrix, b: ConvMatrix) -> ConvMatrix:
    """Truncated 2-D convolution of two same-shape matrices."""
    _require_same_shape(a, b)
    _require_same_backend(a, b)
    return _matrix(_conv_window(a._array, b._array, a.rows, a.cols), a.scalar, a._den * b._den)


def padded_conv(a: ConvMatrix, b: ConvMatrix) -> ConvMatrix:
    """Full 2-D convolution onto the (M1+M2-1) x (N1+N2-1) window.

    Unlike the ring product, shapes may differ; restricting the result
    to the top-left common window reproduces the truncated convolution.
    """
    _require_same_backend(a, b)
    return _matrix(_conv_window(a._array, b._array, a.rows + b.rows - 1, a.cols + b.cols - 1),
                   a.scalar, a._den * b._den)


def conv_identity(rows: int, cols: int, scalar: str = RATIONAL) -> ConvMatrix:
    """The multiplicative identity: 1 at (0, 0), 0 elsewhere."""
    return _scaled_identity(rows, cols, numerics.one(scalar), scalar)


def add(a: ConvMatrix, b: ConvMatrix) -> ConvMatrix:
    """Entrywise sum; rationals over the lcm of the two denominators."""
    _require_same_shape(a, b)
    _require_same_backend(a, b)
    if a.scalar == RATIONAL:
        d = math.lcm(a._den, b._den)
        return _matrix(a._array * (d // a._den) + b._array * (d // b._den), RATIONAL, d)
    with np.errstate(over="ignore", invalid="ignore"):
        return _matrix(a._array + b._array, a.scalar)


def scale(alpha, a: ConvMatrix) -> ConvMatrix:
    c = numerics.coerce(alpha, a.scalar)
    if a.scalar == RATIONAL:
        return _matrix(a._array * c.numerator, RATIONAL, a._den * c.denominator)
    with np.errstate(over="ignore", invalid="ignore"):
        return _matrix((c if c.imag else c.real) * a._array, a.scalar)


def transpose(a: ConvMatrix) -> ConvMatrix:
    return _matrix(a._array.T.copy(), a.scalar, a._den)


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
    a00 = a[0, 0]
    if a.scalar == RATIONAL:
        if a00 == 0:
            raise SingularMatrixError(a00)
    else:
        threshold = SINGULARITY_RTOL * max(1.0, a.max_abs())
        if abs(a00) <= threshold:
            raise SingularMatrixError(a00, threshold)


def conv_inverse_recursive(a: ConvMatrix) -> ConvMatrix:
    """Multiplicative inverse by back-substitution: (A <> B)[i, j] = 0 off the origin.

    Entry (i, j) solves b[i, j] = -a00^(-1) sum a[l, k] b[i-l, j-k] over
    (l, k) != (0, 0), terms fixed before it.  On rationals it runs on A's
    numerators, :func:`_int_inverse`: exact, and on the transpose of a
    tall A (the inverse commutes with transposition; see
    :func:`_conv_window`).  On floats it is
    :func:`_power_solve` at alpha = -1, whose bound reads, with
    k = (i+1)(j+1), |A <> B - I| <= gamma_(k+7) (|A| <> |B|) entrywise;
    the tests hold it to gamma_(k+2).
    """
    _check_invertible(a)
    if a.scalar == RATIONAL:
        tall = a.rows > a.cols
        rows, den = _int_inverse((a._array.T if tall else a._array).tolist(), a._den)
        b = np.array(rows, dtype=object)
        return _matrix(b.T if tall else b, RATIONAL, den)
    return _power_solve(a, -1.0, 1 / a[0, 0])


def _power_solve(a: ConvMatrix, alpha: float, b00: complex) -> ConvMatrix:
    """A^alpha on the complex backend, from b00 = a00^alpha: Miller's power recurrence.

    D(X)[i, j] = i X[i, j] is a derivation of the ring, so B = A^alpha
    solves D(B) <> A = alpha B <> D(A) (Henrici, *Applied and
    Computational Complex Analysis* I, 1.6; Knuth, TAOCP 2, 4.7).  Read
    by rows as truncated 1-D series (A_l the l-th row, * their product),
    row i >= 1 of it is

        B_i * A_0 = sum_{l=1..i} w_l A_l * B_(i-l),   w_l = (alpha+1) l/i - 1,

    and row 0, by the column derivation, a00 b[0, j] = sum_{k=1..j}
    ((alpha+1) k/j - 1) a[0, k] b[0, j-k].  The sum over l is one matmul,
    the rows w_l B_(i-l) end to end against A's Toeplitz blocks stacked
    once (:func:`_toeplitz_rows`); then a forward substitution against
    A_0, one dot per entry.  Rows lie along the longer axis.  At
    alpha = -1 every weight is -1: the back-substitution inverse.

    With k = (i+1)(j+1), entrywise off the origin (row 0: j, column derivation),

        |D(B) <> A - alpha B <> D(A)| <= gamma_(k+7) (i |A| <> |B| + |alpha+1| |D(A)| <> |B|).

    Divided by i it bounds the entry's residual (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., 3.1, 3.3, 3.6, 8.1): its
    k - 1 products but a00 b[i, j] err by gamma_3, their weights and the
    weighting by five roundings relative to (|alpha+1| l/i + 1), and k - 2
    additions sum them; a00^(-1) (Smith's division, gamma_5) times the
    sum (gamma_3) errs by gamma_9 relative to |a00 b[i, j]|.  Smith's
    division is the complex route's: when A and b00 are real the solver
    runs in ``float64`` and Python floats, and a00^(-1) rounds once.
    """
    arr = a._array.T if a.cols > a.rows else a._array
    b00 = complex(b00)
    if arr.dtype.kind == "f" and not b00.imag:
        num, b00 = float, b00.real
    else:
        num, arr = complex, arr.astype(np.complex128, copy=False)
    m, n = arr.shape
    ts = _toeplitz_stack(arr[1:], n, n)
    a0, inv00, up = arr[0].tolist(), 1 / num(arr[0, 0]), alpha + 1
    b = np.empty((m, n), dtype=arr.dtype)
    row = [b00]
    for j in range(1, n):
        row.append(inv00 * sum((up / j * k - 1) * a0[k] * row[j - k] for k in range(1, j + 1)))
    b[0] = row
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, m):
            w = up / i * np.arange(1, i + 1) - 1
            c = ((w[:, None] * b[i - 1::-1]).reshape(-1) @ ts[:i * n]).tolist()
            row = []
            for j in range(n):
                row.append(inv00 * (c[j] - sum(map(operator.mul, a0[1:j + 1], reversed(row)))))
            b[i] = row
    return _matrix(b.T if a.cols > a.rows else b, COMPLEX)


def _int_inverse(na: list, da: int) -> tuple:
    """(rows, den): A^(-1) as ints over one running denominator, for A = na / da.

    With n00 = na[0][0] the relation reads b[i, j] = -(1 / n00) sum
    na[l][k] b[i-l][j-k]: da cancels but in b[0, 0] = da / n00.  B is
    held as ints over den > 0, in lowest terms.  An anti-diagonal's sums
    t (:func:`_int_dot`) lie over n00 den, so the solved entries are
    rescaled by |n00| and the new ones are -sign(n00) t.  As the solved
    entries and den have no common factor, the content of that array is
    g = gcd(|n00|, t): one gcd over the anti-diagonal, not the array,
    then the solved entries are rescaled by |n00| / g only and the new
    ones divided by g.
    """
    rows, cols = len(na), len(na[0])
    n00 = na[0][0]
    mag, sign = abs(n00), (1 if n00 > 0 else -1)
    g = math.gcd(da, mag)
    nb = [[0] * cols for _ in range(rows)]
    nb[0][0], den = sign * da // g, mag // g
    for s in range(1, rows + cols - 1):
        cells = range(max(0, s - cols + 1), min(rows - 1, s) + 1)
        sums = [_int_dot([(na[l], nb[i - l]) for l in range(i + 1)], range(s - i + 1), s - i)
                for i in cells]
        g = math.gcd(mag, *sums)
        if g != mag:
            f = mag // g
            for i in range(min(s, rows)):
                nb[i] = [v * f for v in nb[i]]
            den *= f
        for i, t in zip(cells, sums):
            nb[i][s - i] = -sign * t // g
    return nb, den


def conv_inverse_ch(a: ConvMatrix) -> ConvMatrix:
    """Closed-form inverse from the degree-(M+N-1) annihilating polynomial.

    (A - a00 I)^(M+N-1) = 0, so with G = A - a00 I the geometric series
    for A = a00 (I + G/a00) terminates:

        A^(-1) = a00^(-1) sum_{k=0}^{M+N-2} (-G/a00)^k

    (powers under convolution), evaluated by Horner in G.  Agrees exactly
    with the recursive construction on the rational backend.
    """
    _check_invertible(a)
    inv00 = 1 / a[0, 0]
    series = ring_taylor([1] * (a.rows + a.cols - 1), scale(-inv00, nilpotent_part(a)))
    return scale(inv00, series)


def nilpotent_part(a: ConvMatrix) -> ConvMatrix:
    """G = A - a00 I: the matrix with its (0, 0) entry zeroed.

    G^(<>l) vanishes for l >= M+N-1, since every entry of a product of l
    factors sums l indices of the punctured grid.
    """
    arr = a._array.copy()
    arr[0, 0] = 0
    return _matrix(arr, a.scalar, a._den)


def ring_taylor(coeffs: Iterable, x: ConvMatrix) -> ConvMatrix:
    """sum_l coeffs[l] X^(<>l) for any X, by Horner: R_l = R_(l+1) <> X + c_l I.

    n coefficients cost n-1 products and form no power of X.  At the
    nilpotent part G, whose powers vanish from order M+N-1, callers pass
    M+N-1 coefficients.  Coefficients are coerced to X's backend: on the
    rational backend they must be exact (ints, Fractions or "p/q" strings).
    The steps run on arrays or rows; only the result becomes a
    :class:`ConvMatrix`, whose validation reports a float overflow
    anywhere in the chain.  One coefficient is no step: c I.

    On the complex backend the chain is :func:`_gemm_chain`: X's
    Toeplitz blocks are stacked once, M N min(M, N) entries, and each
    step is one batched matmul per block of rows (a block gathers at most
    _CHAIN_GATHER_BUDGET entries, the rest of the workspace; each sum is
    split into runs of at most _CHAIN_RUN products) and one add at the
    origin.  Each entry of a step sums the same k products as
    :func:`_conv_window`, plus exact zeros, so with R the computed R_(l+1)

        |fl(R <> X) - R <> X| <= gamma_(k+2) (|R| <> |X|)   entrywise

    at every step, and the add of c_l rounds the origin once more.
    Structural zeros are exact: at G, coefficients that vanish below
    order M+N-1 give the zero matrix exactly.

    On the rational backend X's numerators Nx over dx are read once, and
    R is held as integers over a running denominator D
    (:func:`_rational_chain`).  A step is R <> Nx, over D dx; the rescale
    by f to lcm(D dx, q) and the add of c_l = p / q at the origin; and
    one content-gcd pass.  R starts in int64 words, with Nx's Toeplitz
    blocks stacked once per chain.  A step's product is one gather of R's
    row shifts and one int64 matmul while max|R| max|Nx| M N <= 2^63 - 1,
    and its rescale and add stay on words while
    max|R <> Nx| f + |add| <= 2^63 - 1.  At the first check that fails
    (or if an entry of Nx or a coefficient's numerator does not fit an
    int64), R goes to Python ints and the chain finishes on
    :func:`_int_window`.  The route changes no value: both are exact.
    At a zero origin step l needs only anti-diagonals i+j <= M+N-2-l,
    all R_0 reads: (R <> X)[i, j] reads R on lower anti-diagonals, save
    the zero product R[i, j] X[0, 0].  The loop sums only those; the
    word product computes all and zeroes the rest, so each step's R is
    the loop's, and the result, exact and in lowest terms, is the
    uncapped loop's.  The cap is rational-only; complex steps are full.
    A tall X runs on its transpose, as in :func:`_conv_window`.
    """
    cs = [numerics.coerce(c, x.scalar) for c in coeffs]
    if len(cs) < 2:
        return _scaled_identity(x.rows, x.cols, cs[0] if cs else numerics.zero(x.scalar), x.scalar)
    if x.scalar == COMPLEX:
        return _matrix(_gemm_chain(cs, x._array).copy(), COMPLEX)
    tall = x.rows > x.cols
    r, den = _rational_chain(cs, x._array.T if tall else x._array, x._den)
    return _matrix(r.T if tall else r, RATIONAL, den)


def _rational_chain(cs: list, nx: np.ndarray, dx: int) -> tuple:
    """(N, den): :func:`ring_taylor` of Fractions cs at X = nx / dx, nx wide (rows <= cols).

    R is held in int64 words, inside a buffer with M - 1 zero rows on top
    that :func:`_word_product` gathers its row shifts from, while two
    checks prove each step exact: the product bound
    max|R| max|X| M N <= _WORD_MAX, then the rescale and origin add,
    max|R <> X| f + |add| <= _WORD_MAX.  max|R <> X| is read from the
    product; the next max|R| is bounded by (max|R <> X| f + |add|) / g,
    g the content gcd divided out.  At the first check that fails R
    goes to Python ints, and the chain finishes on :func:`_int_window`.
    The rescale and the add are the same array operations on either
    dtype.
    """
    rows, cols = nx.shape
    full, nilpotent = rows + cols - 2, nx[0, 0] == 0
    words, xl = _words(nx), nx.tolist()
    den, rmax = cs[-1].denominator, abs(cs[-1].numerator)
    if words is not None and rmax <= _WORD_MAX:
        wx, xmax = words
        side = _word_side(wx, cols, rows, cols)
        diagonal = np.add.outer(np.arange(rows), np.arange(cols))
        padded = np.zeros((2 * rows - 1, cols), dtype=np.int64)
        r = padded[rows - 1:]
    else:
        r = np.zeros((rows, cols), dtype=object)
    r[0, 0] = cs[-1].numerator
    for l in range(len(cs) - 2, -1, -1):
        top = full - l if nilpotent else full
        if r.dtype != object and rmax * xmax * rows * cols <= _WORD_MAX:
            _word_product(padded, side, out=r)
            if top < full:
                r[diagonal > top] = 0
            rmax = int(np.abs(r).max())
        else:
            r = np.array(_int_window(r.tolist(), xl, rows, cols, top), dtype=object)
        c, den = cs[l], den * dx
        common = math.lcm(den, c.denominator)
        f, add = common // den, c.numerator * (common // c.denominator)
        if r.dtype != object:
            rmax = rmax * f + abs(add)
            # f itself must fit a word to scale R by it.
            if rmax > _WORD_MAX or f > _WORD_MAX:
                r = r.astype(object)
        if f != 1:
            r *= f
            den = common
        r[0, 0] += add
        if r.dtype == object:
            g = math.gcd(den, *r.flat)
            if g != 1:
                r //= g
        else:
            content = int(np.gcd.reduce(r, axis=None))
            g = math.gcd(den, content)
            # A zero R gives g = den, which need not fit a word.
            if content and g != 1:
                r //= g
            rmax //= g
        den //= g
    return r.astype(object, copy=False), den


def matrices_close(a: ConvMatrix, b: ConvMatrix, tol: float = 1e-12) -> bool:
    """Entrywise epsilon comparison relative to the pair's max magnitude."""
    _require_same_shape(a, b)
    ref = max(1.0, a.max_abs(), b.max_abs())
    return bool((np.abs(a.to_numpy() - b.to_numpy()) <= tol * ref).all())
