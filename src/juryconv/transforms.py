"""Convolution-compatible functional calculus.

Every M x N matrix is A = a00 I + G with G nilpotent, G^(<>(M+N-1)) = 0,
so a scalar function f acts on A through its Taylor sum in G:

    f(A) = sum_{l=0}^{M+N-2} f^(l)(a00) / l! * G^(<>l),

evaluated by Horner with :func:`juryconv.conv_core.ring_taylor`, except
for x^alpha, whose Taylor coefficients cancel (the sum lost digits from
12x12 up): B = A^alpha is solved from D(B) <> A = alpha B <> D(A), D a
derivation of the ring, by :func:`juryconv.conv_core._power_solve`.
Entry (i, j) of G^(<>l) / l! is the elementary partition sum E_l(A, i, j) of
:mod:`juryconv.partitions`; those sums stay as the independent oracle
the tests compare against.  This extension is multiplicative for the
convolution product, which is what makes it the right analogue of the
functional and entrywise calculi for this ring.  A step-size variant
replaces the derivatives by divided differences, so the transform
applies to functions with no assumed regularity; as the step shrinks it
recovers the smooth version.  A power series sum_k c_k A^(<>k) is the
same Taylor sum with d_l = sum_k c_k C(k, l) a00^(k-l): the coefficient
stream is folded into those M+N-1 scalars, and convergence is a test on
them.  The two modes of :func:`poly_transform` are independent routes
through the same kernel: Horner in A with the coefficients c_k, against
Horner in G with the Taylor coefficients p^(l)(a00) / l!; the kernel's
own oracle is the naive sum of powers.

The module also hosts the bivariate-series matrix for real powers:
entry (i, j) is i! j! times the x^i y^j coefficient of F(x, y)^alpha,
where F packs the matrix entries as a polynomial in two variables: the
power transform conjugated by diag(0!, 1!, ..., (N-1)!).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import numerics
from .numerics import COMPLEX, RATIONAL, ScalarError
from .conv_core import ConvMatrix, _power_solve, nilpotent_part, ring_taylor


class DomainError(ValueError):
    """A function was evaluated (or differenced) outside its domain."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class SeriesDivergenceError(RuntimeError):
    """Partial sums of a series transform failed to settle within budget."""


Number = Union[int, float, Fraction, complex]


def _as_real(x: Number, what: str) -> Union[Fraction, float]:
    """Reject non-real points; transforms act through real base points."""
    if isinstance(x, complex):
        if x.imag != 0:
            raise DomainError(f"{what} requires a real point, got {x!r}", node=x)
        return x.real
    return x


# ----------------------------------------------------------------------
# polynomials
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Poly:
    """Polynomial c0 + c1 z + ... + cn z^n with trailing zeros trimmed.

    Coefficients are either all exact (Fractions) or all complex floats;
    mixed input is promoted to floats.
    """

    coeffs: tuple

    @staticmethod
    def of(coeffs: Iterable) -> "Poly":
        raw = list(coeffs)
        exact = all(isinstance(c, (int, Fraction, str)) and not isinstance(c, bool)
                    for c in raw)
        if exact:
            vals = [numerics.coerce(c, RATIONAL) for c in raw]
        else:
            vals = [numerics.coerce(c, COMPLEX) for c in raw]
        while vals and vals[-1] == 0:
            vals.pop()
        return Poly(tuple(vals))

    @staticmethod
    def binomial_power(root, d: int) -> "Poly":
        """(z - root)^d = sum_k C(d, k) (-root)^(d-k) z^k."""
        return Poly.of([numerics.binomial(d, k) * (-root) ** (d - k) for k in range(d + 1)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.coeffs)

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc if self.coeffs else (Fraction(0) if self.is_exact else 0.0)

    def derivative_value(self, ell: int, x):
        """Value of the ell-th derivative at x (exact when inputs are)."""
        if ell < 0:
            raise ValueError(f"derivative order must be >= 0, got {ell}")
        acc = 0
        for k in range(len(self.coeffs) - 1, ell - 1, -1):
            fall = numerics.factorial(k) // numerics.factorial(k - ell)
            acc = acc * x + fall * self.coeffs[k]
        return acc

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.coeffs or not other.coeffs:
            return Poly(())
        n, m = len(self.coeffs), len(other.coeffs)
        out = [0] * (n + m - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly.of(out)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for k in range(n):
            a = self.coeffs[k] if k < len(self.coeffs) else 0
            b = other.coeffs[k] if k < len(other.coeffs) else 0
            out.append(a + b)
        return Poly.of(out)


# ----------------------------------------------------------------------
# function catalog
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionSpec:
    """A scalar function together with its symbolic derivative evaluators.

    Kinds: ``poly`` (exact when the coefficients are), ``power`` x^alpha
    on (0, inf), ``exp``, and ``series`` (finite coefficient list inside
    a declared radius of convergence).  ``max_order`` optionally caps the
    differentiability the spec is willing to certify; transforms check
    it before asking for derivatives.
    """

    kind: str
    poly: Optional[Poly] = None
    alpha: Optional[float] = None
    coeffs: Optional[tuple] = None
    radius: float = math.inf
    max_order: Optional[int] = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def polynomial(coeffs, max_order: Optional[int] = None) -> "FunctionSpec":
        p = coeffs if isinstance(coeffs, Poly) else Poly.of(coeffs)
        return FunctionSpec(kind="poly", poly=p, max_order=max_order)

    @staticmethod
    def power(alpha: float, max_order: Optional[int] = None) -> "FunctionSpec":
        return FunctionSpec(kind="power", alpha=float(alpha), max_order=max_order)

    @staticmethod
    def exp(max_order: Optional[int] = None) -> "FunctionSpec":
        return FunctionSpec(kind="exp", max_order=max_order)

    @staticmethod
    def series(coeffs: Sequence[float], radius: float,
               max_order: Optional[int] = None) -> "FunctionSpec":
        if radius <= 0:
            raise ValueError(f"series radius must be > 0, got {radius}")
        return FunctionSpec(kind="series", coeffs=tuple(float(c) for c in coeffs),
                            radius=float(radius), max_order=max_order)

    # -- protocol ---------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.kind == "poly" and self.poly.is_exact

    def ensure_order(self, ell: int):
        if self.max_order is not None and ell > self.max_order:
            raise DomainError(
                f"function declares derivatives only up to order {self.max_order}, "
                f"but order {ell} is required"
            )

    def domain_contains(self, x) -> bool:
        if self.kind == "poly":
            return True  # polynomial algebra works over the whole complex plane
        try:
            x = _as_real(x, self.kind)
        except DomainError:
            return False
        if self.kind == "power":
            return x > 0
        if self.kind == "series":
            return abs(x) < self.radius
        return True  # exp: entire real line

    def require_in_domain(self, x):
        if not self.domain_contains(x):
            raise DomainError(f"point {x} outside the domain of kind {self.kind!r}", node=x)

    def value(self, x):
        return self.derivative(0, x)

    def derivative(self, ell: int, x):
        """ell-th derivative at x; derivative(0, x) is the plain value."""
        if ell < 0:
            raise ValueError(f"derivative order must be >= 0, got {ell}")
        self.ensure_order(ell)
        if self.kind == "poly":
            return self.poly.derivative_value(ell, x)
        x = _as_real(x, self.kind)
        self.require_in_domain(x)
        xf = float(x)
        if self.kind == "exp":
            return math.exp(xf)
        if self.kind == "power":
            coeff = 1.0
            for j in range(ell):
                coeff *= self.alpha - j
            return coeff * xf ** (self.alpha - ell)
        if self.kind == "series":
            return Poly(self.coeffs).derivative_value(ell, xf)
        raise ScalarError(f"unknown function kind {self.kind!r}")

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.kind == "poly":
            coeffs = [
                numerics.scalar_to_json(c, RATIONAL) if isinstance(c, Fraction)
                else [c.real, c.imag]
                for c in self.poly.coeffs
            ]
            return {"kind": "poly", "coeffs": coeffs}
        if self.kind == "power":
            return {"kind": "power", "alpha": self.alpha}
        if self.kind == "exp":
            return {"kind": "exp"}
        return {"kind": "series", "coeffs": list(self.coeffs), "radius": self.radius}

    @staticmethod
    def from_json_dict(payload: dict) -> "FunctionSpec":
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ScalarError("function JSON must be an object with a 'kind' field")
        kind = payload["kind"]
        max_order = _json_field(payload, "max_order", (int, type(None)), "an integer or null")
        if kind == "poly":
            if "coeffs" not in payload:
                raise ScalarError("poly function JSON is missing field 'coeffs'")
            coeffs = _json_field(payload, "coeffs", list, "a list")
            return FunctionSpec.polynomial(coeffs, max_order=max_order)
        if kind == "power":
            if "alpha" not in payload:
                raise ScalarError("power function JSON is missing field 'alpha'")
            alpha = _json_field(payload, "alpha", (int, float), "a real number")
            return FunctionSpec.power(alpha, max_order=max_order)
        if kind == "exp":
            return FunctionSpec.exp(max_order=max_order)
        if kind == "series":
            for fieldname in ("coeffs", "radius"):
                if fieldname not in payload:
                    raise ScalarError(f"series function JSON is missing field {fieldname!r}")
            coeffs = _json_field(payload, "coeffs", list, "a list")
            if any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in coeffs):
                raise ScalarError(f"field 'coeffs' must hold real numbers, got {coeffs!r}")
            radius = _json_field(payload, "radius", (int, float), "a real number")
            return FunctionSpec.series(coeffs, radius, max_order=max_order)
        raise ScalarError(f"unknown function kind {kind!r}")


def _json_field(payload: dict, name: str, types, what: str):
    """payload.get(name), rejected with a ScalarError unless of ``types`` (bools never)."""
    value = payload.get(name)
    if isinstance(value, bool) or not isinstance(value, types):
        raise ScalarError(f"field {name!r} must be {what}, got {value!r}")
    return value


# ----------------------------------------------------------------------
# difference operators
# ----------------------------------------------------------------------

def forward_differences(f: FunctionSpec, x, h, order: int) -> list:
    """Forward differences of orders 0..order at x, from one table of node values.

    Entry ell is sum_j C(ell,j) (-1)^(ell-j) f(x + j h), summed with j
    ascending.  All nodes x + j h for j in [0:order] must lie in the
    domain of f; the first offending node is reported.  f is evaluated
    once per node.  Exact when f and the points are.
    """
    if order < 0:
        raise ValueError(f"difference order must be >= 0, got {order}")
    if h <= 0:
        raise ValueError(f"step size must be > 0, got {h}")
    x = _as_real(x, "forward difference")
    nodes = [x + j * h for j in range(order + 1)]
    for j, node in enumerate(nodes):
        if not f.domain_contains(node):
            raise DomainError(
                f"node x + {j}h = {node} leaves the domain of kind {f.kind!r}",
                node=node,
            )
    values = [f.value(node) for node in nodes]
    out = []
    for ell in range(order + 1):
        acc = 0
        for j in range(ell + 1):
            sign = -1 if (ell - j) % 2 else 1
            acc = acc + sign * numerics.binomial(ell, j) * values[j]
        out.append(acc)
    return out


def forward_difference(f: FunctionSpec, x, h, ell: int):
    """ell-th forward difference: the last entry of :func:`forward_differences`."""
    return forward_differences(f, x, h, ell)[ell]


def divided_difference(f: FunctionSpec, x, h, ell: int):
    """ell-th divided difference: the forward difference divided by h^ell."""
    fd = forward_difference(f, x, h, ell)
    return fd if ell == 0 else fd / h ** ell


# ----------------------------------------------------------------------
# transforms
# ----------------------------------------------------------------------

SUM_OF_POWERS = "sum_of_powers"
PARTITION_FORMULA = "partition_formula"


def poly_transform(p, a: ConvMatrix, mode: str = SUM_OF_POWERS) -> ConvMatrix:
    """Action of a polynomial on a matrix in the convolution ring.

    ``sum_of_powers`` evaluates c0 I + c1 A + c2 A<>A + ... by Horner in
    A with :func:`juryconv.conv_core.ring_taylor`; ``partition_formula``
    goes through the derivative expansion of :func:`smooth_transform`, a
    Taylor sum in G = A - a00 I.  The two agree exactly on the rational
    backend.
    """
    if not isinstance(p, Poly):
        p = Poly.of(p)
    if mode == PARTITION_FORMULA:
        return smooth_transform(FunctionSpec.polynomial(p), a)
    if mode != SUM_OF_POWERS:
        raise ValueError(f"unknown mode {mode!r}")
    exact = p.is_exact and a.scalar == RATIONAL
    return ring_taylor(p.coeffs, a if exact else a.astype(COMPLEX))


def _taylor(values, exact: bool) -> list:
    """Taylor coefficients values[l] / l!, as Fractions on the exact route.

    On floats l! = m 2^e (:func:`juryconv.numerics.scaled_factorial`)
    never becomes a float, so orders past 170 work.  v / m rounds once,
    as v / float(l!) does wherever l! is a float (the same bits), and the
    scaling by 2^-e is exact unless the coefficient is subnormal.
    """
    if exact:
        return [Fraction(v, numerics.factorial(ell)) for ell, v in enumerate(values)]
    out = []
    for ell, v in enumerate(values):
        m, e = numerics.scaled_factorial(ell)
        q = v / m
        out.append(complex(math.ldexp(q.real, -e), math.ldexp(q.imag, -e))
                   if isinstance(q, complex) else math.ldexp(q, -e))
    return out


def smooth_transform(f: FunctionSpec, a: ConvMatrix) -> ConvMatrix:
    """Derivative-based matrix transform of a scalar function.

    The Taylor sum sum_l f^(l)(a00)/l! G^(<>l) in the nilpotent part
    G = A - a00 I: entry (0, 0) is f(a00), entry (i, j) contracts
    f^(1)(a00) ... f^(i+j)(a00) against the elementary partition sums.
    Requires f to provide derivatives up to order M+N-2 at a00.  The
    power kind has the same value but is solved, not summed
    (:func:`juryconv.conv_core._power_solve`).
    """
    order = a.rows + a.cols - 2
    f.ensure_order(order)
    a00 = a[0, 0]
    f.require_in_domain(a00)
    exact = f.is_exact and a.scalar == RATIONAL
    work = a if exact else a.astype(COMPLEX)
    if exact or f.kind == "poly":
        x0 = work[0, 0]
    else:
        x0 = _as_real(work[0, 0], f.kind)
    if f.kind == "power":
        return _power_solve(work, f.alpha, f.value(x0))
    derivs = [f.derivative(ell, x0) for ell in range(order + 1)]
    return ring_taylor(_taylor(derivs, exact), nilpotent_part(work))


def stepped_transform(f: FunctionSpec, a: ConvMatrix, h) -> ConvMatrix:
    """Step-size variant: derivatives replaced by divided differences.

    Well-defined for any scalar function provided the nodes
    a00 + k h for k in [0:M+N-2] lie in the domain; the first node
    violation is reported by name.  The divided differences of every
    order come from one :func:`forward_differences` table, so f is
    evaluated M+N-1 times.
    """
    order = a.rows + a.cols - 2
    x0 = _as_real(a[0, 0], f.kind)
    exact = (f.is_exact and a.scalar == RATIONAL
             and isinstance(h, (int, Fraction)) and not isinstance(h, bool))
    hval = Fraction(h) if exact else float(h)
    diffs = forward_differences(f, x0, hval, order)
    work = a if exact else a.astype(COMPLEX)
    divs = [fd if ell == 0 else fd / hval ** ell for ell, fd in enumerate(diffs)]
    return ring_taylor(_taylor(divs, exact), nilpotent_part(work))


@dataclass(frozen=True)
class SeriesTransformResult:
    """sum_k c_k A^(<>k) with the scalar metadata of the fold that gave it."""

    matrix: ConvMatrix
    terms_used: int
    tail_bound: float


# Hard ceiling on series terms before we declare divergence.
SERIES_TERM_BUDGET = 10_000
SERIES_TAIL_TOL = 1e-12
_SMALL_STREAK = 3  # consecutive negligible terms required to accept convergence
# The fold shifts v's shared binary exponent once |v| (2 |a00| + 1), which
# bounds the next Pascal step, reaches this.
_FOLD_RESCALE = 2.0 ** 1000


def _ldexp(x: np.ndarray, e: int) -> np.ndarray:
    """x 2^e entrywise, real and imaginary parts apart: exact while a part stays a normal float."""
    if x.dtype.kind != "c":
        return np.ldexp(x, e)
    out = np.empty_like(x)
    out.real, out.imag = np.ldexp(x.real, e), np.ldexp(x.imag, e)
    return out


def series_transform(coeffs: Iterable[float], a: ConvMatrix,
                     truncation: Optional[int] = None,
                     tail_tol: float = SERIES_TAIL_TOL,
                     term_budget: int = SERIES_TERM_BUDGET) -> SeriesTransformResult:
    """Evaluate a power series sum_k c_k A^(<>k) on a matrix.

    With A = a00 I + G and G^(<>(M+N-1)) = 0 the series is the Taylor sum
    sum_{l<=M+N-2} d_l G^(<>l), d_l = sum_k c_k C(k, l) a00^(k-l).  The
    stream is read once and folded into those M+N-1 scalars, as one
    vector (the Pascal recurrence v_l <- a00 v_l + v_(l-1) keeps
    v_l = C(k, l) a00^(k-l)), and one
    :func:`juryconv.conv_core.ring_taylor` call sums them in G.  v is
    held as v' 2^e with one shared exponent e, shifted by a power of two
    before v' could overflow, so a large base point (exp at a00 = 300)
    folds while each c_k v_l is finite; scaling by 2^e is exact above
    the subnormal range, and below the shift threshold e = 0, where the
    fold is the unscaled one.
    The fold stops at the truncation index, at stream exhaustion (a
    finite stream IS the series), or -- with no truncation -- once, for
    several consecutive terms from the first nonzero one on, every
    increment c_k v_l is at most ``tail_tol`` times its own |d_l|.
    ``terms_used`` counts the scalar terms folded; ``tail_bound`` is the
    last one's largest |c_k v_l| / |d_l| (0 if all are 0).  Raises
    :class:`SeriesDivergenceError` if a d_l or the matrix overflows, or
    the budget runs out first.
    """
    work = a.astype(COMPLEX)
    a00 = work[0, 0]
    a00 = a00 if a00.imag else a00.real
    d = np.zeros(work.rows + work.cols - 1)
    v = np.zeros_like(d, dtype=type(a00))
    v[0], e, grow = 1, 0, 2 * abs(a00) + 1
    tail, small_streak, seen_nonzero, terms = math.inf, 0, False, 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, c in enumerate(coeffs):
            if truncation is not None and k > truncation:
                break
            if k > term_budget:
                raise SeriesDivergenceError(f"series did not settle within {term_budget} terms")
            if k:
                big = float(np.abs(v).max())
                if big * grow >= _FOLD_RESCALE:
                    shift = math.frexp(big)[1]
                    v, e = _ldexp(v, -shift), e + shift
                w = a00 * v
                w[1:] += v[:-1]
                v = w
            try:
                c = complex(c)
            except OverflowError as exc:
                raise SeriesDivergenceError(f"series blew up at term {k}: {exc}") from exc
            incs = (c if c.imag else c.real) * v
            if e:
                incs = _ldexp(incs, e)
            d = d + incs
            if not np.isfinite(d).all():
                raise SeriesDivergenceError(f"series blew up at term {k}: a d_l left float range")
            tail = float(np.where(incs != 0, np.abs(incs) / np.abs(d), 0.0).max())
            terms = k + 1
            seen_nonzero = seen_nonzero or bool(incs.any())
            if truncation is None and seen_nonzero:
                small_streak = small_streak + 1 if tail <= tail_tol else 0
                if small_streak >= _SMALL_STREAK:
                    break
    try:
        matrix = ring_taylor(d.tolist(), nilpotent_part(work))
    except ScalarError as exc:
        raise SeriesDivergenceError(f"series blew up: {exc}") from exc
    return SeriesTransformResult(matrix=matrix, terms_used=terms, tail_bound=tail)


def factorial_frame(a: ConvMatrix) -> ConvMatrix:
    """Conjugate by diag(0!, 1!, ..., (n-1)!): entry (i, j) scaled by i! j!."""
    out = []
    for i in range(a.rows):
        fi = numerics.factorial(i)
        row = []
        for j in range(a.cols):
            c = fi * numerics.factorial(j)
            v = a.data[i][j]
            row.append(c * v)
        out.append(tuple(row))
    return ConvMatrix(a.rows, a.cols, tuple(out), a.scalar)


def bivariate_power_matrix(alpha: float, a: ConvMatrix) -> ConvMatrix:
    """Entry (i, j) = i! j! [x^i y^j] F(x, y)^alpha, F packing the entries.

    F(x, y) = sum a[m, n] x^m y^n, whose alpha-th power, truncated to the
    window, is A^alpha: this is :func:`factorial_frame` of the power
    transform.  Requires a square matrix with real entries and a00 > 0.
    """
    if a.rows != a.cols:
        raise ValueError(f"bivariate power matrix needs a square matrix, got {a.shape}")
    if not a.is_real():
        raise ValueError("bivariate power matrix requires real entries")
    return factorial_frame(smooth_transform(FunctionSpec.power(alpha), a))
