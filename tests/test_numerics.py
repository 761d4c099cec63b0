"""Scalar backend and combinatorial coefficient tests."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from juryconv import numerics
from juryconv.numerics import (
    COMPLEX,
    RATIONAL,
    ScalarError,
    binomial,
    close,
    coerce,
    multiset_weight,
    scalar_from_json,
    scalar_to_json,
)


def pascal_triangle(rows):
    """Independent oracle: build the triangle by the addition rule alone."""
    tri = [[1]]
    for n in range(1, rows + 1):
        prev = tri[-1]
        row = [1]
        for k in range(1, n):
            row.append(prev[k - 1] + prev[k])
        row.append(1)
        tri.append(row)
    return tri


class TestBinomial:
    def test_small_values(self):
        assert binomial(3, 1) == 3
        assert binomial(3, 3) == 1
        assert binomial(6, 3) == 20  # matches the triangle oracle below

    def test_k_beyond_n_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(0, 1) == 0

    def test_matches_pascal_triangle(self):
        tri = pascal_triangle(30)
        for n in range(31):
            for k in range(n + 1):
                assert binomial(n, k) == tri[n][k]

    def test_pascal_identity_exact(self):
        for n in range(1, 31):
            for k in range(1, n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestMultisetWeight:
    def test_distinct_elements(self):
        assert multiset_weight({(1, 0): 1, (0, 1): 1}) == 1

    def test_single_repeat(self):
        assert multiset_weight({(1, 0): 2}) == Fraction(1, 2)

    def test_mixed(self):
        assert multiset_weight({(1, 0): 3, (0, 1): 2}) == Fraction(1, 12)

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            multiset_weight({(1, 0): 0})


class TestScalarBackends:
    def test_rational_coercions(self):
        assert coerce(3, RATIONAL) == Fraction(3)
        assert coerce("2/6", RATIONAL) == Fraction(1, 3)
        assert coerce(Fraction(-5, 10), RATIONAL) == Fraction(-1, 2)

    def test_rational_rejects_floats(self):
        with pytest.raises(ScalarError):
            coerce(0.5, RATIONAL)

    def test_complex_rejects_nonfinite(self):
        with pytest.raises(ScalarError):
            coerce(float("inf"), COMPLEX)
        with pytest.raises(ScalarError):
            coerce(complex(0, float("nan")), COMPLEX)

    def test_reduced_and_positive_denominator(self):
        f = coerce(Fraction(-4, -6), RATIONAL)
        assert (f.numerator, f.denominator) == (2, 3)
        g = coerce("4/6", RATIONAL)
        assert (g.numerator, g.denominator) == (2, 3)

    @given(
        st.integers(min_value=-50, max_value=50).filter(lambda v: v != 0),
        st.integers(min_value=1, max_value=50),
    )
    def test_exact_reciprocal_product(self, p, q):
        x = Fraction(p, q)
        assert x * (1 / x) == 1

    def test_json_roundtrip_rational(self):
        enc = scalar_to_json(Fraction(-7, 3), RATIONAL)
        assert enc == "-7/3"
        assert scalar_from_json(enc, RATIONAL) == Fraction(-7, 3)

    def test_json_roundtrip_complex(self):
        enc = scalar_to_json(complex(1.5, -2.0), COMPLEX)
        assert enc == [1.5, -2.0]
        assert scalar_from_json(enc, COMPLEX) == complex(1.5, -2.0)

    def test_json_malformed(self):
        with pytest.raises(ScalarError):
            scalar_from_json("3/0", RATIONAL)
        with pytest.raises(ScalarError):
            scalar_from_json([1.0], COMPLEX)

    def test_epsilon_close(self):
        assert close(1.0, 1.0 + 1e-14)
        assert not close(1.0, 1.001)
        assert close(1e9, 1e9 * (1 + 1e-13))


class TestFactorial:
    def test_cache_and_large(self):
        assert numerics.factorial(0) == 1
        assert numerics.factorial(5) == 120
        assert numerics.factorial(70) == math.factorial(70)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            numerics.factorial(-1)
