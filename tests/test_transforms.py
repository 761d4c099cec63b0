"""Functional calculus tests: polynomial action, transforms, differences."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from juryconv import (
    ConvMatrix,
    DomainError,
    FunctionSpec,
    Poly,
    SeriesDivergenceError,
    bivariate_power_matrix,
    conv,
    conv_identity,
    conv_inverse_recursive,
    conv_power_naive,
    divided_difference,
    factorial_frame,
    forward_difference,
    forward_differences,
    poly_transform,
    series_transform,
    smooth_transform,
    stepped_transform,
    transpose,
)
from juryconv import Interval, elementary_sum, sample_psd
from juryconv import transforms
from juryconv.conv_core import matrices_close, nilpotent_part, ring_taylor

from helpers import (
    assert_power_bound,
    forward_difference_reference,
    normwise_error,
    power_reference,
    rand_fraction,
    rand_rational_matrix,
)


def rand_poly(rng, max_deg=4):
    return Poly.of([rand_fraction(rng) for _ in range(rng.randint(1, max_deg + 1))])


# ----------------------------------------------------------------------
# partition-sum oracle: entry (i, j) = sum_l c_l E_l(A, i, j), with c_l the
# l-th derivative (smooth) or divided difference (stepped) at a00
# ----------------------------------------------------------------------

def _partition_sum(values, work, exact):
    out = []
    for i in range(work.rows):
        row = []
        for j in range(work.cols):
            if (i, j) == (0, 0):
                acc = values[0]
            else:
                acc = 0
                for ell in range(1, i + j + 1):
                    acc = acc + values[ell] * elementary_sum(work, ell, (i, j))
            row.append(acc if exact else complex(acc))
        out.append(row)
    return ConvMatrix.from_rows(out, work.scalar)


def _smooth_reference(f, a):
    order = a.rows + a.cols - 2
    exact = f.is_exact and a.scalar == "rational"
    work = a if exact else a.astype("complex")
    x0 = work[0, 0] if exact or f.kind == "poly" else work[0, 0].real
    return _partition_sum([f.derivative(ell, x0) for ell in range(order + 1)], work, exact)


def _stepped_reference(f, a, h):
    order = a.rows + a.cols - 2
    exact = f.is_exact and a.scalar == "rational" and isinstance(h, (int, Fraction))
    work = a if exact else a.astype("complex")
    x0 = a[0, 0] if a.scalar == "rational" else a[0, 0].real
    hval = h if exact else float(h)
    divs = [divided_difference(f, x0, hval, ell) for ell in range(order + 1)]
    return _partition_sum(divs, work, exact)


def _rel_dist(m, ref):
    return max(abs(complex(m[i, j]) - complex(ref[i, j])) for i, j in ref.indices()) \
        / max(1.0, ref.max_abs())


class TestPoly:
    def test_trailing_zeros_trimmed(self):
        p = Poly.of([1, 2, 0, 0])
        assert p.coeffs == (Fraction(1), Fraction(2))
        assert p.degree == 1

    def test_evaluate_and_derivatives(self):
        p = Poly.of([1, -3, 2])  # 1 - 3z + 2z^2
        x = Fraction(5, 2)
        assert p.evaluate(x) == 1 - 3 * x + 2 * x * x
        assert p.derivative_value(1, x) == -3 + 4 * x
        assert p.derivative_value(2, x) == 4
        assert p.derivative_value(3, x) == 0

    def test_mul_add(self):
        p = Poly.of([1, 1])
        q = Poly.of([-1, 1])
        assert (p * q).coeffs == (Fraction(-1), Fraction(0), Fraction(1))
        assert (p + q).coeffs == (Fraction(0), Fraction(2))

    def test_binomial_power(self):
        p = Poly.binomial_power(Fraction(2), 3)  # (z-2)^3
        assert p.coeffs == (Fraction(-8), Fraction(12), Fraction(-6), Fraction(1))

    @pytest.mark.parametrize("root", [Fraction(0), Fraction(2), Fraction(-3),
                                      Fraction(5, 7), Fraction(-11, 4)])
    def test_binomial_power_matches_repeated_products(self, root):
        # Oracle: d products by the linear factor z - root.
        linear = Poly.of([-root, 1])
        expect = Poly.of([1])
        for d in range(13):
            assert Poly.binomial_power(root, d) == expect
            expect = expect * linear


class TestFunctionSpec:
    def test_json_roundtrips(self):
        cases = [
            FunctionSpec.exp(),
            FunctionSpec.power(0.5),
            FunctionSpec.polynomial([0, 0, 1]),
            FunctionSpec.series([1.0, 1.0, 1.0], radius=1.0),
        ]
        for f in cases:
            again = FunctionSpec.from_json_dict(f.to_json_dict())
            assert again.kind == f.kind

    def test_json_missing_fields(self):
        with pytest.raises(Exception):
            FunctionSpec.from_json_dict({"kind": "power"})
        with pytest.raises(Exception):
            FunctionSpec.from_json_dict({"kind": "mystery"})

    def test_power_domain(self):
        f = FunctionSpec.power(0.5)
        assert f.domain_contains(1.0)
        assert not f.domain_contains(0.0)
        with pytest.raises(DomainError):
            f.value(-1.0)

    def test_series_domain_and_derivatives(self):
        f = FunctionSpec.series([1.0, 2.0, 3.0], radius=2.0)
        assert f.value(0.5) == pytest.approx(1 + 1 + 0.75)
        assert f.derivative(1, 0.5) == pytest.approx(2 + 3)
        assert not f.domain_contains(2.5)

    def test_derivative_zero_is_value(self):
        f = FunctionSpec.exp()
        assert f.derivative(0, 1.25) == f.value(1.25) == pytest.approx(math.exp(1.25))

    def test_max_order_enforced(self):
        f = FunctionSpec.exp(max_order=1)
        with pytest.raises(DomainError):
            f.derivative(2, 0.0)


class TestDifferences:
    def test_square_second_difference(self):
        f = FunctionSpec.polynomial([0, 0, 1])
        x, h = Fraction(3), Fraction(1, 4)
        assert forward_difference(f, x, h, 2) == 2 * h * h

    def test_order_zero_is_value(self):
        f = FunctionSpec.exp()
        assert forward_difference(f, 1.0, 0.5, 0) == pytest.approx(math.exp(1.0))

    def test_affine_second_difference_vanishes(self):
        f = FunctionSpec.polynomial([7, -3])
        assert forward_difference(f, Fraction(2), Fraction(1, 3), 2) == 0

    def test_divided_first_and_second(self):
        f = FunctionSpec.polynomial([0, 0, 1])
        x, h = Fraction(1, 2), Fraction(1, 8)
        assert divided_difference(f, x, h, 1) == 2 * x + h
        assert divided_difference(f, x, h, 2) == 2
        assert divided_difference(f, x, h, 0) == f.value(x)

    def test_domain_violation_names_node(self):
        f = FunctionSpec.series([1.0, 1.0], radius=1.0)
        with pytest.raises(DomainError) as err:
            forward_difference(f, 0.5, 0.3, 2)
        assert err.value.node == pytest.approx(1.1)

    # (f, x, h) per kind: exact rationals for poly, floats for every kind.
    TABLE_CASES = [
        (FunctionSpec.exp(), 0.3, 0.07),
        (FunctionSpec.polynomial([Fraction(1, 3), -2, 0, Fraction(5, 7), 1]),
         Fraction(-2, 5), Fraction(3, 11)),
        (FunctionSpec.polynomial([0.5, -1.25, 3.0, 0.1]), -0.7, 0.13),
        (FunctionSpec.series([1.0, -0.5, 0.25, 0.125, -2.0], radius=2.0), -0.9, 0.1),
        (FunctionSpec.power(0.5), 0.2, 0.05),
        (FunctionSpec.power(-1.5), 1.1, 0.3),
    ]

    @staticmethod
    def _identical(got, want):
        # == on rationals; the same type and bits on floats.
        assert type(got) is type(want) and got == want
        if isinstance(want, float):
            assert got.hex() == want.hex()

    @pytest.mark.parametrize("case", range(len(TABLE_CASES)))
    def test_table_matches_per_order_reference(self, case):
        f, x, h = self.TABLE_CASES[case]
        for order in range(15):
            table = forward_differences(f, x, h, order)
            assert len(table) == order + 1
            for ell, got in enumerate(table):
                self._identical(got, forward_difference_reference(f, x, h, ell))
            self._identical(forward_difference(f, x, h, order), table[order])

    def test_table_validates_order_and_step(self):
        f = FunctionSpec.exp()
        with pytest.raises(ValueError, match="order"):
            forward_differences(f, 0.0, 0.1, -1)
        with pytest.raises(ValueError, match="step size"):
            forward_differences(f, 0.0, 0.0, 2)

    def test_table_names_first_bad_node_before_evaluating(self, monkeypatch):
        f = FunctionSpec.power(0.5)
        calls = []
        monkeypatch.setattr(FunctionSpec, "value", lambda self, x: calls.append(x))
        with pytest.raises(DomainError) as err:
            forward_differences(f, -0.25, 0.1, 5)
        assert err.value.node == pytest.approx(-0.25) and "x + 0h" in str(err.value)
        with pytest.raises(DomainError) as err:
            forward_differences(FunctionSpec.series([1.0], radius=1.0), 0.5, 0.3, 4)
        assert err.value.node == pytest.approx(1.1) and "x + 2h" in str(err.value)
        assert calls == []

    def test_first_order_convergence_for_exp(self):
        # halving h roughly halves the divided-difference error
        f = FunctionSpec.exp()
        x = 0.7
        for ell in range(1, 5):
            errors = []
            h = 0.2
            for _ in range(6):
                errors.append(abs(divided_difference(f, x, h, ell) - math.exp(x)))
                h /= 2
            for bigger, smaller in zip(errors, errors[1:]):
                assert 1.5 <= bigger / smaller <= 2.5


class TestPolyTransform:
    def test_square_matches_power(self):
        rng = random.Random(31)
        a = rand_rational_matrix(rng, 2, 2)
        sq = poly_transform(Poly.of([0, 0, 1]), a)
        assert sq == conv_power_naive(a, 2)

    def test_generic_two_by_two_pattern(self):
        # p over [[a,b],[c,d]]: [[p(a), b p'(a)], [c p'(a), d p'(a) + bc p''(a)]]
        rng = random.Random(37)
        p = rand_poly(rng)
        a, b, c, d = (rand_fraction(rng) for _ in range(4))
        m = ConvMatrix.rational([[a, b], [c, d]])
        result = poly_transform(p, m, mode="partition_formula")
        p1 = p.derivative_value(1, a)
        p2 = p.derivative_value(2, a)
        assert result.to_lists() == [
            [p.evaluate(a), b * p1],
            [c * p1, d * p1 + b * c * p2],
        ]

    def test_constant_polynomial(self):
        a = ConvMatrix.rational([[5, 1], [2, 7]])
        assert poly_transform(Poly.of([1]), a) == conv_identity(2, 2)

    def test_mode_equivalence_exact(self):
        rng = random.Random(41)
        for shape in [(2, 2), (3, 3), (2, 4), (4, 4)]:
            for _ in range(5):
                p = rand_poly(rng)
                a = rand_rational_matrix(rng, *shape)
                assert poly_transform(p, a, "sum_of_powers") == \
                    poly_transform(p, a, "partition_formula")

    def test_mode_equivalence_complex_entries(self):
        # polynomial algebra needs no real base point
        a = ConvMatrix.floats([[complex(1, 2), 0.5], [complex(0, -1), 3.0]])
        p = Poly.of([1.0, 2.0, 0.0, 1.0])
        assert matrices_close(poly_transform(p, a, "sum_of_powers"),
                              poly_transform(p, a, "partition_formula"), 1e-13)

    def test_multiplicativity_and_additivity(self):
        rng = random.Random(43)
        for shape in [(2, 2), (3, 3), (4, 4)]:
            for _ in range(5):
                p, q = rand_poly(rng), rand_poly(rng)
                a = rand_rational_matrix(rng, *shape)
                assert poly_transform(p * q, a) == conv(poly_transform(p, a),
                                                        poly_transform(q, a))
                assert poly_transform(p + q, a) == \
                    poly_transform(p, a) + poly_transform(q, a)


class TestSmoothTransform:
    def test_exp_on_hollow_matrix(self):
        a = ConvMatrix.floats([[0, 1], [1, 0]])
        result = smooth_transform(FunctionSpec.exp(), a)
        assert matrices_close(result, ConvMatrix.floats([[1, 1], [1, 1]]), 1e-14)

    def test_power_two_by_two_pattern(self):
        alpha = 0.7
        a, b, c, d = 1.3, 0.4, 0.9, 0.2
        m = ConvMatrix.floats([[a, b], [c, d]])
        f = FunctionSpec.power(alpha)
        result = smooth_transform(f, m)
        f1 = alpha * a ** (alpha - 1)
        f2 = alpha * (alpha - 1) * a ** (alpha - 2)
        expected = ConvMatrix.floats([
            [a ** alpha, b * f1],
            [c * f1, d * f1 + b * c * f2],
        ])
        assert matrices_close(result, expected, 1e-14)

    def test_polynomial_agrees_with_poly_transform(self):
        rng = random.Random(47)
        p = rand_poly(rng)
        a = rand_rational_matrix(rng, 3, 3)
        assert smooth_transform(FunctionSpec.polynomial(p), a) == poly_transform(p, a)

    @pytest.mark.parametrize("a00, g", [(0.5, 1.0), (700.0, 0.5)])
    def test_exp_orders_past_factorial_float_range(self, a00, g):
        # On [[a00, g, 0, ...]] entry k is e^a00 g^k / k!: the chain shifts and
        # scales by a power of two exactly, so entry k is the k-th Taylor
        # coefficient times g^k.  Against the float e^a00 that coefficient
        # carries two roundings (of k! / 2^e and of the quotient), plus one
        # of 2^-1074 in the subnormal range.  At a00 = 700 every entry is a
        # normal float although 1/k! is below float range from k = 171.
        a = ConvMatrix.floats([[a00, g] + [0.0] * 198])
        got = smooth_transform(FunctionSpec.exp(), a)
        e = Fraction(math.exp(a00))
        for k in range(200):
            want = float(e * Fraction(g) ** k / math.factorial(k))
            assert got[0, k].imag == 0
            assert abs(got[0, k].real - want) <= 3 * 2.0 ** -53 * want + 2.0 ** -1074, k
        if a00 == 700.0:
            assert got[0, 199].real > 1e-300

    def test_domain_enforced(self):
        a = ConvMatrix.floats([[-1.0, 0.5], [0.5, 0.5]])
        with pytest.raises(DomainError):
            smooth_transform(FunctionSpec.power(0.5), a)

    def test_insufficient_order_declared(self):
        a = ConvMatrix.floats([[1.0] * 3] * 3)
        with pytest.raises(DomainError):
            smooth_transform(FunctionSpec.exp(max_order=2), a)


class TestPowerSolver:
    """x^alpha by the derivation solver, and x^-1 through it as the recursive inverse."""

    ALPHAS = (0.5, -0.5, 2.5, -1.0)

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("seed", [19, 7])
    def test_normwise_error_against_exact_taylor_sum(self, n, seed):
        # The Taylor route in G lost 1e-5 (x^0.5) and 2e-3 (x^-1) at 16x16 on these inputs.
        a = sample_psd(n, Interval(1.0), np.random.default_rng([seed, n]))
        for alpha in self.ALPHAS:
            want = power_reference(a, alpha)
            assert normwise_error(smooth_transform(FunctionSpec.power(alpha), a), want) <= 1e-13
        assert normwise_error(conv_inverse_recursive(a), power_reference(a, -1.0)) <= 1e-13

    @pytest.mark.parametrize("shape", [(8, 8), (32, 32), (3, 12)])
    def test_residual_bound(self, shape):
        # A wide shape is solved transposed, so its bound holds on the transposes.
        m, n = shape
        a = sample_psd(max(m, n), Interval(1.0), np.random.default_rng([19, m, n]))
        a = ConvMatrix.from_numpy(a.to_numpy()[:m, :n])
        along = transpose if m < n else (lambda x: x)
        for alpha in self.ALPHAS:
            b = smooth_transform(FunctionSpec.power(alpha), a)
            assert_power_bound(along(a), alpha, along(b))


class TestSteppedTransform:
    def test_square_on_ones(self):
        f = FunctionSpec.polynomial([0, 0, 1])
        ones = ConvMatrix.rational([[1, 1], [1, 1]])
        h = Fraction(1, 2)
        result = stepped_transform(f, ones, h)
        assert result.to_lists() == [
            [1, 2 + h],
            [2 + h, (2 + h) + 2],
        ]

    def test_limit_recovers_smooth(self):
        rng = random.Random(53)
        raw = [[abs(rand_fraction(rng, 1, 9)) / 100 for _ in range(3)] for _ in range(3)]
        a = ConvMatrix.floats([[float(v) for v in row] for row in raw])
        f = FunctionSpec.exp()
        smooth = smooth_transform(f, a)
        prev = None
        for k in range(10):
            stepped = stepped_transform(f, a, 0.5 ** k)
            dist = max(abs(complex(stepped.data[i][j]) - complex(smooth.data[i][j]))
                       for (i, j) in smooth.indices())
            if prev is not None:
                assert dist < prev
            prev = dist
        assert prev < 1e-3

    def test_affine_stepped_equals_smooth(self):
        f = FunctionSpec.polynomial([3, 2])
        rng = random.Random(59)
        a = rand_rational_matrix(rng, 3, 2)
        for h in (Fraction(1, 7), Fraction(2), Fraction(11, 3)):
            assert stepped_transform(f, a, h) == smooth_transform(f, a)

    @pytest.mark.parametrize("f, a, h", [
        (FunctionSpec.exp(), sample_psd(8, Interval(1.0), rng=61), 0.1),
        (FunctionSpec.power(0.5), sample_psd(8, Interval(1.0), rng=61), 0.1),
        (FunctionSpec.polynomial([1, -2, 3]), ConvMatrix.rational([[Fraction(1, 2)] * 8] * 8),
         Fraction(1, 10)),
    ], ids=["exp", "power", "rational_poly"])
    def test_one_evaluation_per_node(self, f, a, h, monkeypatch):
        # 8x8 has order 14: 15 nodes, each evaluated once.
        calls = []
        value = FunctionSpec.value
        monkeypatch.setattr(FunctionSpec, "value",
                            lambda self, x: calls.append(x) or value(self, x))
        stepped_transform(f, a, h)
        assert len(calls) == 15

    def test_node_violation_named(self):
        a = ConvMatrix.floats([[0.5, 0.1], [0.1, 0.1]])
        with pytest.raises(DomainError) as err:
            stepped_transform(FunctionSpec.series([1.0, 1.0], radius=1.0), a, 0.3)
        assert err.value.node == pytest.approx(1.1)


class TestPartitionOracle:
    """The Taylor-in-G transforms against the literal partition sums."""

    SHAPES = [(1, 5), (3, 3), (4, 2), (4, 4)]
    FLOAT_RTOL = 1e-12  # observed <= 1e-13 (x^-0.5 at 6x6)

    def test_smooth_exact_polynomials(self):
        rng = random.Random(67)
        for shape in self.SHAPES:
            for _ in range(4):
                f = FunctionSpec.polynomial(rand_poly(rng, max_deg=7))
                a = rand_rational_matrix(rng, *shape)
                assert smooth_transform(f, a) == _smooth_reference(f, a)

    def test_stepped_exact_steps(self):
        rng = random.Random(71)
        for shape in self.SHAPES:
            for h in (Fraction(1, 3), 2):
                f = FunctionSpec.polynomial(rand_poly(rng, max_deg=7))
                a = rand_rational_matrix(rng, *shape)
                assert stepped_transform(f, a, h) == _stepped_reference(f, a, h)

    def test_zero_polynomial_stays_exact(self):
        a = ConvMatrix.rational([[2, 1], [1, 3]])
        zero = FunctionSpec.polynomial([0])
        assert smooth_transform(zero, a) == ConvMatrix.zeros(2, 2)
        assert stepped_transform(zero, a, 1) == ConvMatrix.zeros(2, 2)

    def test_float_exp_and_powers(self):
        fns = [FunctionSpec.exp()] + [FunctionSpec.power(al) for al in (0.5, 2.5, -0.5)]
        for n in range(2, 7):
            a = sample_psd(n, Interval(1.0), n)
            for f in fns:
                assert _rel_dist(smooth_transform(f, a), _smooth_reference(f, a)) \
                    <= self.FLOAT_RTOL
            f = FunctionSpec.exp()
            assert _rel_dist(stepped_transform(f, a, 0.25), _stepped_reference(f, a, 0.25)) \
                <= self.FLOAT_RTOL


class TestSeriesTransform:
    def test_exp_series_matches_smooth(self):
        a = ConvMatrix.floats([[0, 1], [1, 0]])
        coeffs = [1 / math.factorial(k) for k in range(31)]
        result = series_transform(coeffs, a, truncation=30)
        assert matrices_close(result.matrix, ConvMatrix.floats([[1, 1], [1, 1]]), 1e-12)

    def test_unit_coefficient_stream(self):
        a = ConvMatrix.floats([[0.5, 0.25], [0.125, 0.75]])
        result = series_transform([1.0], a)
        assert matrices_close(result.matrix, conv_identity(2, 2, "complex"), 1e-15)

    def test_basis_stream_gives_power(self):
        a = ConvMatrix.floats([[0.5, 0.25], [0.125, 0.75]])
        k = 3
        result = series_transform([0.0] * k + [1.0], a)
        assert matrices_close(result.matrix, conv_power_naive(a, k), 1e-14)

    def test_adaptive_tail_for_exp(self):
        a = ConvMatrix.floats([[0.3, 0.2], [0.1, 0.4]])

        def exp_coeffs():
            k, c = 0, 1.0
            while True:
                yield c
                k += 1
                c /= k

        result = series_transform(exp_coeffs(), a)
        smooth = smooth_transform(FunctionSpec.exp(), a)
        assert matrices_close(result.matrix, smooth, 1e-10)
        assert result.tail_bound <= 1e-12

    def test_divergence_detected(self):
        a = ConvMatrix.floats([[2.0, 0.0], [0.0, 0.0]])

        def geometric():
            while True:
                yield 1.0

        with pytest.raises(SeriesDivergenceError):
            series_transform(geometric(), a, term_budget=500)

    def test_matrix_overflow_detected(self):
        # The d_l stay finite at a00 = 0.5; G <> G overflows inside the one ring_taylor chain.
        a = ConvMatrix.floats([[0.5, 1e200], [1e200, 1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeriesDivergenceError):
                series_transform([1 / math.factorial(k) for k in range(30)], a)


class TestSeriesFold:
    """The stream folds into the M+N-1 Taylor coefficients d_l of one ring_taylor call."""

    EXP = [1 / math.factorial(k) for k in range(120)]
    EXP_400 = [1 / math.factorial(k) for k in range(400)]

    def test_zero_origin_keeps_every_coefficient(self):
        # At a00 = 0, d_l = c_l exactly: stopping before k = M+N-2 drops the high d_l.
        g = nilpotent_part(sample_psd(16, Interval(1.0), np.random.default_rng([19, 16, 3])))
        assert series_transform(self.EXP, g).matrix == ring_taylor(self.EXP[:31], g)

    def test_late_basis_term(self):
        # Six leading zeros: no convergence streak may start before the first nonzero term.
        a = ConvMatrix.floats([[0.5, 0.25], [0.125, 0.75]])
        result = series_transform([0.0] * 6 + [1.0], a)
        assert matrices_close(result.matrix, conv_power_naive(a, 6), 1e-14)

    def test_zero_interleaved_cos_matches_series_spec(self):
        cos = [(-1) ** (k // 2) / math.factorial(k) if k % 2 == 0 else 0.0 for k in range(40)]
        for n in (2, 4, 6):
            a = sample_psd(n, Interval(1.0), np.random.default_rng([23, n]))
            want = smooth_transform(FunctionSpec.series(cos, radius=math.inf), a)
            assert _rel_dist(series_transform(cos, a).matrix, want) <= 1e-14

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_exp_relative_error(self, n):
        # Each d_l must settle against its own size: a test against max|d| stops at k = 22
        # at 8x8 and leaves 2.5e-14.
        a = sample_psd(n, Interval(1.0), np.random.default_rng([19, n, 3]))
        want = smooth_transform(FunctionSpec.exp(), a)
        got = series_transform(self.EXP, a).matrix
        err = max(abs(complex(got[i, j]) - complex(want[i, j])) for i, j in want.indices())
        assert err <= 1e-14 * want.max_abs()

    @staticmethod
    def _folded(stream, a, monkeypatch):
        """The d_l that series_transform hands to ring_taylor, as complex."""
        seen, chain = [], transforms.ring_taylor
        monkeypatch.setattr(transforms, "ring_taylor",
                            lambda cs, x: seen.append([complex(c) for c in cs]) or chain(cs, x))
        result = series_transform(stream, a)
        return seen[0], result

    @staticmethod
    def _list_fold(stream, a):
        """The fold on Python complex lists, term by term, with no rescaling and no tail test."""
        a00 = complex(a[0, 0])
        d = [0j] * (a.rows + a.cols - 1)
        v = [1 + 0j] + d[1:]
        for k, c in enumerate(stream):
            if k:
                v = [a00 * x + y for x, y in zip(v, [0j] + v[:-1])]
            d = [x + complex(c) * y for x, y in zip(d, v)]
        return d

    @pytest.mark.parametrize("n", [8, 32])
    def test_fold_matches_the_list_fold(self, n, monkeypatch):
        # Below the shift threshold the vector fold is the unscaled one, bit for bit.
        a = sample_psd(n, Interval(1.0), np.random.default_rng([19, n, 3]))
        d, result = self._folded(self.EXP, a, monkeypatch)
        assert d == self._list_fold(self.EXP[:result.terms_used], a)

    def test_exponent_shift_is_exact(self, monkeypatch):
        # Forcing a shift at every step changes no bit while v stays in the normal range.
        a = sample_psd(6, Interval(1.0), np.random.default_rng([19, 6, 3]))
        a = a + ConvMatrix.floats([[3.0] + [0.0] * 5] + [[0.0] * 6] * 5)
        want, _ = self._folded(self.EXP, a, monkeypatch)
        monkeypatch.setattr(transforms, "_FOLD_RESCALE", 2.0 ** 3)
        got, _ = self._folded(self.EXP, a, monkeypatch)
        assert got == want

    def test_large_base_point_against_the_closed_form(self):
        # v_0 = 90^k leaves float range at k = 158 (where the unscaled fold overflowed);
        # the terms c_k v_l stay finite and the stream's own tail reaches 1e-12 by k = 168.
        result = series_transform(self.EXP_400, ConvMatrix.floats([[90.0, 1.0]]))
        want = math.exp(90.0)
        assert all(abs(complex(v) - want) <= 1e-12 * want for v in result.matrix.data[0])

    def test_large_base_point_folds_the_stream(self):
        # At a00 = 300 v_0 overflowed at term 125.  1/k! is 0 in floats from k = 178 on, so the
        # stream's sum is far below e^300; the fold must match that sum, taken exactly.
        result = series_transform(self.EXP_400, ConvMatrix.floats([[300.0, 1.0]]))
        cs = [Fraction(c) for c in self.EXP_400[:result.terms_used]]
        want = [sum(c * 300 ** k for k, c in enumerate(cs)),
                sum(c * k * 300 ** (k - 1) for k, c in enumerate(cs) if k)]
        for got, w in zip(result.matrix.data[0], want):
            assert abs(Fraction(complex(got).real) - w) <= Fraction(1, 10 ** 14) * w

    def test_underflowed_stream_is_not_convergence(self):
        # From k = 178 the terms are exactly 0 while the terms of e^300 still grow: the tail
        # bound stays the last nonzero term's ratio, far above the tolerance.
        result = series_transform(self.EXP_400, ConvMatrix.floats([[300.0, 1.0]]))
        assert result.terms_used == 400
        assert result.tail_bound > transforms.SERIES_TAIL_TOL

    def test_zero_origin_stops_when_v_vanishes(self):
        # At a00 = 0, v is 0 from k = M+N-1: an endless stream stops at that term, summed exactly.
        g = nilpotent_part(sample_psd(3, Interval(1.0), np.random.default_rng([19, 3, 5])))

        def exp_coeffs():
            k, c = 0, 1.0
            while True:
                yield c
                k += 1
                c /= k

        result = series_transform(exp_coeffs(), g)
        assert (result.terms_used, result.tail_bound) == (6, 0.0)
        assert result.matrix == ring_taylor(self.EXP[:5], g)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (5, 5)])
    def test_kernel_calls_fixed_by_shape(self, shape, monkeypatch):
        # Whatever the stream length: one ring_taylor call with M+N-1 coefficients.
        calls = []
        chain = transforms.ring_taylor
        monkeypatch.setattr(transforms, "ring_taylor",
                            lambda cs, x: calls.append(len(cs)) or chain(cs, x))
        m, n = shape
        a = ConvMatrix.floats([[0.5 + 0.1 * (i + j) for j in range(n)] for i in range(m)])
        for stream in ([], [1.0], self.EXP[:m + n], self.EXP):
            calls.clear()
            series_transform(stream, a)
            assert calls == [m + n - 1]


class TestBivariatePowerMatrix:
    def test_alpha_two_matches_square(self):
        a = ConvMatrix.floats([[0.8, 0.3], [0.4, 0.6]])
        assert matrices_close(bivariate_power_matrix(2.0, a),
                              conv_power_naive(a, 2), 1e-13)

    def test_alpha_one_identity_function(self):
        a = ConvMatrix.floats([[0.8, 0.3], [0.4, 0.6]])
        assert matrices_close(bivariate_power_matrix(1.0, a), a, 1e-14)

    def test_factorial_frame_identity(self):
        # diag(0!,...,(N-1)!) f(A) diag(...), f(A) by partition sums, equals the bivariate matrix
        rng = random.Random(61)
        for n in (2, 3, 4):
            raw = [[0.1 + 0.8 * rng.random() for _ in range(n)] for _ in range(n)]
            sym = [[(raw[i][j] + raw[j][i]) / 2 + (1.5 if i == j else 0)
                    for j in range(n)] for i in range(n)]
            a = ConvMatrix.floats(sym)
            for alpha in (0.5, 2.5):
                lhs = factorial_frame(_smooth_reference(FunctionSpec.power(alpha), a))
                rhs = bivariate_power_matrix(alpha, a)
                assert matrices_close(lhs, rhs, 1e-10)

    def test_requires_positive_leading_entry(self):
        a = ConvMatrix.floats([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DomainError):
            bivariate_power_matrix(0.5, a)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            bivariate_power_matrix(1.0, ConvMatrix.floats([[1.0, 2.0]]))
