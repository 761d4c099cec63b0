"""Scalar backends and exact combinatorial coefficients.

Matrices in this library carry one of two scalar backends: exact
rationals (``fractions.Fraction``: arbitrary precision, always reduced,
positive denominator) or complex floats.  Everything downstream -- ring
operations, partition sums, transforms -- funnels its coefficient
arithmetic through the helpers here, so exactness is never lost by
accident on the rational side and non-finite floats never enter a
matrix on the complex side.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Mapping, Union

RATIONAL = "rational"
COMPLEX = "complex"

Scalar = Union[Fraction, complex]


class ScalarError(ValueError):
    """Non-finite float, unknown backend, or malformed scalar encoding."""


def factorial(n: int) -> int:
    """Exact n! as a big integer."""
    if n < 0:
        raise ValueError(f"factorial of negative argument {n}")
    return math.factorial(n)


@functools.lru_cache(maxsize=None)
def scaled_factorial(n: int) -> tuple:
    """(m, e) with n! = m 2^e: e = floor(log2 n!) and m in [1, 2] the rounded quotient.

    int / int true division rounds correctly, so m is n! / 2^e to one
    rounding, for every n: n! itself leaves float range from n = 171.
    """
    f = factorial(n)
    e = f.bit_length() - 1
    return f / (1 << e), e


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial needs nonnegative arguments, got ({n}, {k})")
    return math.comb(n, k)


def multiset_weight(counts: Mapping[object, int]) -> Fraction:
    """Exact weight 1 / prod(c!) over the multiplicities of a multiset."""
    denom = 1
    for c in counts.values():
        if c < 1:
            raise ValueError(f"multiset multiplicities must be >= 1, got {c}")
        denom *= factorial(c)
    return Fraction(1, denom)


def _check_finite_complex(z: complex) -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ScalarError(f"non-finite complex scalar {z!r}")
    return z


def coerce(value, backend: str) -> Scalar:
    """Coerce ``value`` into the given backend's scalar type.

    Rational backend accepts ints, Fractions and "p/q" strings; floats
    are rejected there to avoid silently importing binary-float noise
    into exact computations.  Complex backend accepts any real or
    complex number and insists on finiteness.
    """
    if backend == RATIONAL:
        if isinstance(value, bool):
            raise ScalarError(f"cannot coerce {value!r} to a rational scalar")
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ScalarError(f"malformed rational literal {value!r}") from exc
        raise ScalarError(
            f"cannot coerce {value!r} to a rational scalar; "
            "use Fraction, int, or a 'p/q' string"
        )
    if backend == COMPLEX:
        if isinstance(value, Fraction):
            return complex(float(value))
        if isinstance(value, (int, float, complex)):
            return _check_finite_complex(complex(value))
        raise ScalarError(f"cannot coerce {value!r} to a complex scalar")
    raise ScalarError(f"unknown scalar backend {backend!r}")


def zero(backend: str) -> Scalar:
    return Fraction(0) if backend == RATIONAL else complex(0.0)


def one(backend: str) -> Scalar:
    return Fraction(1) if backend == RATIONAL else complex(1.0)


def scalar_to_json(value: Scalar, backend: str):
    """JSON encoding: rational -> "p/q" string, complex -> [re, im]."""
    if backend == RATIONAL:
        f = value if isinstance(value, Fraction) else Fraction(value)
        return f"{f.numerator}/{f.denominator}"
    z = complex(value)
    return [z.real, z.imag]


def scalar_from_json(payload, backend: str) -> Scalar:
    if backend == RATIONAL:
        if isinstance(payload, str):
            return coerce(payload, RATIONAL)
        if isinstance(payload, int):
            return Fraction(payload)
        raise ScalarError(f"rational JSON entry must be int or 'p/q', got {payload!r}")
    if backend == COMPLEX:
        if isinstance(payload, (list, tuple)):
            if len(payload) != 2:
                raise ScalarError(f"complex JSON entry must be [re, im], got {payload!r}")
            return _check_finite_complex(complex(float(payload[0]), float(payload[1])))
        if isinstance(payload, (int, float)):
            return _check_finite_complex(complex(float(payload)))
        raise ScalarError(f"complex JSON entry must be number or [re, im], got {payload!r}")
    raise ScalarError(f"unknown scalar backend {backend!r}")


def close(a, b, tol: float = 1e-12) -> bool:
    """Epsilon-aware comparison for float/complex scalars.

    Never compare transform outputs with ``==`` on the complex backend;
    the partition sums mix many floating additions.
    """
    a = complex(a)
    b = complex(b)
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
