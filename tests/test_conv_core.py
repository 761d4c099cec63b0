"""Ring structure tests for the truncated convolution product."""

import math
import pickle
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from juryconv import (
    BackendMismatchError,
    ConvMatrix,
    ShapeMismatchError,
    SingularMatrixError,
    add,
    conv,
    conv_identity,
    conv_inverse_ch,
    conv_inverse_recursive,
    conv_power_naive,
    conv_power_squaring,
    is_psd,
    sample_psd,
    scale,
    transpose,
)
from juryconv.conv_core import matrices_close, nilpotent_part, ring_taylor
from juryconv import conv_core, numerics
from juryconv.numerics import ScalarError

from helpers import (
    UNIT_ROUNDOFF,
    assert_chain_bound,
    assert_entrywise_bound,
    coprime_matrices,
    coprime_matrix,
    gamma,
    huge_fraction,
    inverse_reference,
    numpy_full_conv,
    rand_fraction,
    rand_invertible_matrix,
    rand_rational_matrix,
    rational_matrices,
    with_zero_rows,
)


small_fraction = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def matrix_strategy(m, n):
    return rational_matrices((m, n), small_fraction)


def _conv_reference(a, b):
    """The truncated product as the literal double sum, independent of the library kernel."""
    assert a.shape == b.shape and a.scalar == b.scalar
    ad, bd = a.data, b.data
    out = []
    for i in range(a.rows):
        row = []
        for j in range(a.cols):
            acc = numerics.zero(a.scalar)
            for l in range(i + 1):
                arow = ad[l]
                brow = bd[i - l]
                for k in range(j + 1):
                    acc += arow[k] * brow[j - k]
            row.append(acc)
        out.append(tuple(row))
    return ConvMatrix(a.rows, a.cols, tuple(out), a.scalar)


class TestConv:
    def test_defining_double_sum(self):
        a = ConvMatrix.rational([[1, 2], [3, 4]])
        b = ConvMatrix.rational([[5, 6], [7, 8]])
        assert conv(a, b).to_lists() == [[5, 16], [22, 60]]

    def test_identity_element(self):
        rng = random.Random(11)
        for shape in [(1, 1), (2, 3), (4, 4)]:
            a = rand_rational_matrix(rng, *shape)
            assert conv(conv_identity(*shape), a) == a

    def test_annihilation_by_zero(self):
        a = ConvMatrix.rational([[1, 2], [3, 4]])
        z = ConvMatrix.zeros(2, 2)
        assert conv(a, z) == z

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            conv(ConvMatrix.rational([[1]]), ConvMatrix.rational([[1, 2]]))

    def test_backend_mismatch(self):
        with pytest.raises(BackendMismatchError):
            conv(ConvMatrix.rational([[1]]), ConvMatrix.floats([[1.0]]))


class TestConvReference:
    """conv against the literal double sum: == on rationals, pinned bound on floats."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_random_shapes_exact(self, m, n, data):
        a = data.draw(matrix_strategy(m, n))
        b = data.draw(matrix_strategy(m, n))
        assert conv(a, b) == _conv_reference(a, b)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (7, 1), (2, 8)])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_thin_shapes_exact(self, shape, data):
        a = data.draw(matrix_strategy(*shape))
        b = data.draw(matrix_strategy(*shape))
        assert conv(a, b) == _conv_reference(a, b)

    def test_mixed_signs_exact(self):
        rng = random.Random(41)
        for shape in [(1, 6), (5, 1), (4, 4), (3, 7)]:
            a = rand_rational_matrix(rng, *shape)
            sign = ConvMatrix.rational([[(-1) ** (i + j) for j in range(shape[1])]
                                        for i in range(shape[0])])
            b = ConvMatrix.rational([[x * s for x, s in zip(ra, rs)]
                                     for ra, rs in zip(a.data, sign.data)])
            assert conv(a, b) == _conv_reference(a, b)
            assert conv(a, scale(-1, b)) == scale(-1, _conv_reference(a, b))

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(st.integers(1, 5), st.integers(1, 5)), st.data())
    def test_huge_entries_exact(self, shape, data):
        # numerators up to 10^40 over denominators up to 10^12
        a = data.draw(rational_matrices(shape, huge_fraction))
        b = data.draw(rational_matrices(shape, huge_fraction))
        assert conv(a, b) == _conv_reference(a, b)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([(1, 1), (3, 3), (4, 5), (1, 8), (8, 1)]), st.data())
    def test_coprime_denominators_exact(self, shape, data):
        # distinct prime denominators: the common denominator is their product
        a = data.draw(coprime_matrices(shape))
        b = data.draw(coprime_matrices(shape))
        assert conv(a, b) == _conv_reference(a, b)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([(2, 2), (4, 3), (1, 6), (6, 1)]), st.data())
    def test_zero_rows_exact(self, shape, data):
        a = data.draw(with_zero_rows(matrix_strategy(*shape)))
        b = data.draw(with_zero_rows(rational_matrices(shape, huge_fraction)))
        assert conv(a, b) == _conv_reference(a, b)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 1), (4, 4)])
    def test_all_zero_operands(self, shape):
        z = ConvMatrix.zeros(*shape)
        a = rand_rational_matrix(random.Random(53), *shape)
        for x, y in [(z, z), (z, a), (a, z)]:
            assert conv(x, y) == _conv_reference(x, y) == z

    def test_complex_entrywise_bound(self):
        # The kernel's contract, against the exact product of the floats.
        rng = np.random.default_rng(59)
        for shape in [(16, 16), (1, 24), (9, 3), (32, 32)]:
            a, b = (ConvMatrix.from_numpy(rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
                    for _ in range(2))
            assert_entrywise_bound(conv, a, b, conv(a, b))

    @pytest.mark.parametrize("n", [8, 32])
    def test_complex_structural_zeros_exact(self, n):
        # G^(M+N-1) == 0 and (G <> X)[0, 0] == 0 hold exactly, not to rounding.
        rng = np.random.default_rng([n, 73])
        a = ConvMatrix.from_numpy(rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))
        g = nilpotent_part(a)
        assert conv(g, a)[0, 0] == 0
        assert conv_power_naive(g, 2 * n - 2).max_abs() > 0
        assert conv_power_naive(g, 2 * n - 1) == ConvMatrix.zeros(n, n, "complex")

    def test_complex_residual_64(self):
        # Above the largest benchmarked shape: the kernel and the numpy oracle
        # each stay within gamma_(k+2) (|A| <> |B|) of the exact product.
        rng = np.random.default_rng(79)
        a, b = (ConvMatrix.from_numpy(rng.uniform(-1, 1, (64, 64)) + 1j * rng.uniform(-1, 1, (64, 64)))
                for _ in range(2))
        got = conv(a, b).to_numpy()
        want = numpy_full_conv(a, b)[:64, :64]
        mag = numpy_full_conv(ConvMatrix.from_numpy(np.abs(a.to_numpy())),
                              ConvMatrix.from_numpy(np.abs(b.to_numpy()))).real[:64, :64]
        nu = (np.outer(np.arange(1, 65), np.arange(1, 65)) + 2) * float(UNIT_ROUNDOFF)
        # 1 + 1e-12 covers the rounding of mag itself (a sum of at most 4096 positive terms).
        bound = 2 * nu / (1 - nu) * (1 + 1e-12) * mag
        assert (np.abs(got - want) <= bound).all()  # observed <= 0.17 of it

    def test_complex_against_numpy(self):
        rng = np.random.default_rng(43)
        for shape in [(16, 16), (1, 24), (9, 3)]:
            a, b = (ConvMatrix.from_numpy(rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
                    for _ in range(2))
            got = conv(a, b).to_numpy()
            bound = 1e-13 * a.max_abs() * b.max_abs()  # observed <= 3e-15 |a| |b|
            for want in (numpy_full_conv(a, b)[:shape[0], :shape[1]],
                         _conv_reference(a, b).to_numpy()):
                assert np.abs(got - want).max() <= bound


class TestIdentityMatrix:
    def test_shapes(self):
        assert conv_identity(1, 1).to_lists() == [[1]]
        assert conv_identity(2, 2).to_lists() == [[1, 0], [0, 0]]
        assert conv_identity(2, 3).to_lists() == [[1, 0, 0], [0, 0, 0]]


class TestRingAxioms:
    """Exact ring laws on random rational matrices (hypothesis-driven)."""

    @settings(max_examples=40, deadline=None)
    @given(matrix_strategy(3, 3), matrix_strategy(3, 3), matrix_strategy(3, 3),
           small_fraction)
    def test_axioms_3x3(self, a, b, c, alpha):
        ab = conv(a, b)
        assert ab == conv(b, a)
        assert conv(ab, c) == conv(a, conv(b, c))
        assert conv(add(a, b), c) == add(conv(a, c), conv(b, c))
        assert scale(alpha, ab) == conv(scale(alpha, a), b) == conv(a, scale(alpha, b))
        assert transpose(ab) == conv(transpose(a), transpose(b))

    @settings(max_examples=20, deadline=None)
    @given(matrix_strategy(2, 5), matrix_strategy(2, 5))
    def test_transpose_compat_rectangular(self, a, b):
        assert transpose(conv(a, b)) == conv(transpose(a), transpose(b))


class TestPowers:
    def test_two_by_two_square_formula(self):
        # A = [[a, b], [c, d]] squared: [[a^2, 2ab], [2ac, 2ad + 2bc]]
        rng = random.Random(5)
        for _ in range(25):
            a, b, c, d = (rand_fraction(rng) for _ in range(4))
            m = ConvMatrix.rational([[a, b], [c, d]])
            sq = conv_power_naive(m, 2)
            assert sq.to_lists() == [[a * a, 2 * a * b], [2 * a * c, 2 * a * d + 2 * b * c]]

    def test_concrete_square(self):
        m = ConvMatrix.rational([[1, 2], [3, 4]])
        assert conv_power_naive(m, 2).to_lists() == [[1, 4], [6, 20]]

    def test_power_one_and_zero(self):
        m = ConvMatrix.rational([[1, 2], [3, 4]])
        assert conv_power_naive(m, 1) == m
        assert conv_power_naive(m, 0) == conv_identity(2, 2)

    def test_squaring_variant_agrees(self):
        rng = random.Random(17)
        for shape in [(2, 2), (3, 2), (4, 4)]:
            m = rand_rational_matrix(rng, *shape)
            for k in range(8):
                assert conv_power_squaring(m, k) == conv_power_naive(m, k)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            conv_power_naive(ConvMatrix.rational([[1]]), -1)


class TestInverses:
    def test_recursive_concrete(self):
        a = ConvMatrix.rational([[1, 2], [3, 4]])
        b = conv_inverse_recursive(a)
        assert b.to_lists() == [[1, -2], [-3, 8]]
        assert conv(a, b) == conv_identity(2, 2)

    def test_identity_self_inverse(self):
        i = conv_identity(3, 3)
        assert conv_inverse_recursive(i) == i

    def test_singular_rejected_with_entry(self):
        with pytest.raises(SingularMatrixError) as err:
            conv_inverse_recursive(ConvMatrix.rational([[0, 1], [1, 1]]))
        assert err.value.entry == 0

    def test_ch_inverse_scalar_ring(self):
        a = ConvMatrix.rational([[2]])
        assert conv_inverse_ch(a).to_lists() == [[Fraction(1, 2)]]

    def test_ch_inverse_scaled_identity(self):
        c = Fraction(7, 3)
        a = scale(c, conv_identity(2, 2))
        assert conv_inverse_ch(a) == scale(1 / c, conv_identity(2, 2))

    def test_ch_inverse_expansion(self):
        # 3 I - 3 A + A<>A for the 2x2 running example
        a = ConvMatrix.rational([[1, 2], [3, 4]])
        assert conv_inverse_ch(a).to_lists() == [[1, -2], [-3, 8]]

    def test_both_routes_agree_and_invert(self):
        rng = random.Random(23)
        for shape in [(2, 2), (3, 3), (2, 5), (4, 3)]:
            for _ in range(10):
                a = rand_invertible_matrix(rng, *shape)
                rec = conv_inverse_recursive(a)
                ch = conv_inverse_ch(a)
                assert rec == ch
                assert conv(a, rec) == conv_identity(*shape)

    def test_routes_agree_on_thin_shapes(self):
        rng = random.Random(37)
        for shape in [(1, 6), (3, 12), (2, 24), (6, 1), (12, 3), (24, 2)]:
            a = rand_invertible_matrix(rng, *shape)
            assert conv_inverse_ch(a) == conv_inverse_recursive(a)

    def test_routes_agree_on_coprime_denominators(self):
        # 144 distinct prime denominators: the CH route's products carry
        # their full lcm, the recursive route never clears denominators.
        a = coprime_matrix(random.Random(61), 12, 12)
        assert conv_inverse_ch(a) == conv_inverse_recursive(a)

    def test_product_rule(self):
        # (A <> B)^(-1) = A^(-1) <> B^(-1)
        rng = random.Random(29)
        for _ in range(20):
            a = rand_invertible_matrix(rng, 3, 3)
            b = rand_invertible_matrix(rng, 3, 3)
            lhs = conv_inverse_recursive(conv(a, b))
            rhs = conv(conv_inverse_recursive(a), conv_inverse_recursive(b))
            assert lhs == rhs

    def test_float_singularity_threshold(self):
        tiny = ConvMatrix.floats([[1e-15, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            conv_inverse_recursive(tiny)
        fine = ConvMatrix.floats([[0.5, 1.0], [1.0, 1.0]])
        inv = conv_inverse_recursive(fine)
        assert matrices_close(conv(fine, inv), conv_identity(2, 2, "complex"), 1e-12)


class TestFloatInverseResiduals:
    """|A <> A^(-1) - I| against |A| |A^(-1)| (max-abs norms) on floats."""

    RTOL = 1e-10  # observed <= 2e-15 for both routes up to 32x32

    @pytest.mark.parametrize("n", [12, 16, 32])
    @pytest.mark.parametrize("route", [conv_inverse_recursive, conv_inverse_ch])
    def test_residual(self, n, route):
        rng = np.random.default_rng([n, 5])
        entries = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        entries[0, 0] = 1.0
        for a in (sample_psd(n, rng=n), ConvMatrix.from_numpy(entries)):
            b = route(a)
            residual = (conv(a, b) - conv_identity(n, n, "complex")).max_abs()
            assert residual <= self.RTOL * a.max_abs() * b.max_abs()

    @pytest.mark.parametrize("n", [8, 32])
    def test_recursive_entrywise_bound(self, n):
        # |A <> B - I| <= gamma_(k+2) (|A| <> |B|) at every entry, checked
        # exactly; the docstring proves gamma_(k+7).  The complex origin
        # takes 1 / a00 through complex division.  Observed <= 0.29 of it.
        rng = np.random.default_rng([n, 83])
        entries = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        entries[0, 0] = 0.3 + 0.7j
        for a in (sample_psd(n, rng=n), ConvMatrix.from_numpy(entries)):
            assert_entrywise_bound(conv, a, conv_inverse_recursive(a), conv_identity(n, n, "complex"))


def _complex_matrix(rng, m, n):
    return ConvMatrix.from_numpy(rng.uniform(-1, 1, (m, n)) + 1j * rng.uniform(-1, 1, (m, n)))


def _horner_reference(coeffs, x, product=conv):
    """ring_taylor without the anti-diagonal cap: one full ``product`` per Horner step.

    With ``product=_conv_reference`` every step is a Fraction double sum,
    independent of the library's integer routes.
    """
    cs = [numerics.coerce(c, x.scalar) for c in coeffs]
    if not cs:
        return ConvMatrix.zeros(x.rows, x.cols, x.scalar)
    result = scale(cs[-1], conv_identity(x.rows, x.cols, x.scalar))
    for c in reversed(cs[:-1]):
        prod = product(result, x)
        first = (prod.data[0][0] + c,) + prod.data[0][1:]
        result = ConvMatrix(x.rows, x.cols, (first,) + prod.data[1:], x.scalar)
    return result


class TestRingTaylorCap:
    """At a zero origin ring_taylor sums only the anti-diagonals later steps read.

    The cap is rational-only: there the result is the uncapped loop's,
    bit for bit.  A complex chain runs every step in full on its own
    route, so it is held to the product's entrywise bound at every step.
    """

    SHAPES = [(1, 1), (1, 6), (6, 1), (3, 3), (4, 2), (2, 5), (8, 8)]

    @staticmethod
    def _assert_uncapped(cs, x):
        got, want = ring_taylor(cs, x), _horner_reference(cs, x)
        assert got == want
        assert repr(got.data) == repr(want.data)  # signed zeros too

    def _check(self, x, coeff, check):
        size = x.rows + x.cols - 1
        for length in (max(1, size - 2), size, size + 3):
            cs = [coeff() for _ in range(length)]
            for origin in (nilpotent_part(x), x):
                check(cs, origin)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rational(self, shape):
        rng = random.Random(shape[0] * 10 + shape[1])
        self._check(rand_invertible_matrix(rng, *shape), lambda: rand_fraction(rng),
                    self._assert_uncapped)

    @pytest.mark.parametrize("shape", SHAPES + [(16, 16)])
    def test_complex(self, shape):
        rng = np.random.default_rng(list(shape))
        self._check(_complex_matrix(rng, *shape),
                    lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    lambda cs, x: assert_chain_bound(ring_taylor, cs, x))

    def test_negative_zero_origin(self):
        # conv_inverse_ch runs Horner at -G/a00, whose origin may be -0.0.
        x = scale(-1.0, nilpotent_part(_complex_matrix(np.random.default_rng(9), 4, 4)))
        assert_chain_bound(ring_taylor, [1.0] * 9, x)


class TestRingTaylor:
    def test_matches_sum_of_powers(self):
        # At G (zero origin) and at A itself (a00 != 0); lists run past M+N.
        rng = random.Random(31)
        for shape in [(1, 1), (1, 4), (3, 3), (4, 2), (2, 5)]:
            a = rand_invertible_matrix(rng, *shape)
            coeffs = [rand_fraction(rng) for _ in range(shape[0] + shape[1] + 2)]
            for x in (nilpotent_part(a), a):
                for k in range(len(coeffs) + 1):
                    want = ConvMatrix.zeros(*shape)
                    for l, c in enumerate(coeffs[:k]):
                        want = add(want, scale(c, conv_power_naive(x, l)))
                    assert ring_taylor(coeffs[:k], x) == want

    def test_complex_backend_and_coercion(self):
        g = ConvMatrix.floats([[0.0, 0.5], [0.25, 1.0]])
        out = ring_taylor([1, Fraction(1, 2), 2.0], g)
        assert out.scalar == "complex"
        want = conv_identity(2, 2, "complex") + scale(0.5, g) + scale(2.0, conv(g, g))
        assert matrices_close(out, want, 1e-15)

    def test_rational_rejects_float_coefficients(self):
        with pytest.raises(ScalarError):
            ring_taylor([1, 0.5], ConvMatrix.rational([[0, 1]]))

    @pytest.mark.parametrize("scalar", ["rational", "complex"])
    def test_one_construction_per_chain(self, scalar, monkeypatch):
        # The Horner steps run on arrays; only the result becomes a ConvMatrix.
        a = rand_invertible_matrix(random.Random(83), 3, 4).astype(scalar)
        xs = (a, nilpotent_part(a))
        size = a.rows + a.cols - 1
        post_init, calls = ConvMatrix.__post_init__, []
        monkeypatch.setattr(ConvMatrix, "__post_init__",
                            lambda self: calls.append(1) or post_init(self))
        for length in (1, size, size + 3):
            for x in xs:
                calls.clear()
                ring_taylor([Fraction(k + 1, 3) for k in range(length)], x)
                assert len(calls) == 1

    def test_overflow_inside_chain_surfaces(self):
        # Validation runs once, on the result: a chain that overflows still raises,
        # here on the float64 route, as the entries are real.
        big = ConvMatrix.floats([[0.5, 1e200], [1e200, 1e200]])
        assert big.to_numpy().dtype == np.float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (big, nilpotent_part(big)):
                with pytest.raises(ScalarError):
                    ring_taylor([1.0, 1.0, 1.0], x)
            with pytest.raises(ScalarError):
                conv(big, big)


def _storage(m):
    """A rational matrix's storage: its numerators, as nested lists of ints, and its denominator."""
    return m._array.tolist(), m._den


def _assert_canonical(m):
    """Lowest terms over one denominator d > 0; the zero matrix has d = 1."""
    nums, d = _storage(m)
    flat = [v for row in nums for v in row]
    assert all(type(v) is int for v in flat) and type(d) is int
    assert d > 0 and math.gcd(d, *flat) == 1
    assert d == 1 or any(flat)


def _invertible(a):
    """``a`` with a nonzero origin: ``a`` itself, or a + I where a00 = 0."""
    return a if a[0, 0] != 0 else a + conv_identity(a.rows, a.cols)


class TestRationalStorage:
    """Integer numerators over one denominator, in lowest terms: a canonical form."""

    def test_rows_over_one_denominator(self):
        a = ConvMatrix.rational([[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(-5, 6)]])
        b = ConvMatrix.rational([[Fraction(7, 4)]])
        assert _storage(a) == ([[3, 2], [0, -5]], 6)  # over lcm(2, 3, 1, 6)
        assert _storage(b) == ([[7]], 4)
        # The integer sums lie over 6 * 4; their content is 1, so they stay there.
        out = conv_core.padded_conv(a, b)
        assert _storage(out) == ([[21, 14], [0, -35]], 24)
        assert out.data == ((Fraction(7, 8), Fraction(7, 12)), (Fraction(0), Fraction(-35, 24)))
        assert all(type(v) is Fraction for row in out.data for v in row)
        assert type(out[1, 1]) is Fraction and out[1, 1] == Fraction(-35, 24)

    def test_content_divided_out(self):
        # [[1/2, 1/2]] <> [[2, 4]] = [[1, 3]]: sums [[2, 6]] over 2, content 2.
        a, b = ConvMatrix.rational([["1/2", "1/2"]]), ConvMatrix.rational([[2, 4]])
        assert _storage(conv(a, b)) == ([[1, 3]], 1)
        assert _storage(add(a, a)) == ([[1, 1]], 1)
        assert _storage(scale(Fraction(4, 3), a)) == ([[2, 2]], 3)

    def test_spellings_agree(self):
        half = ConvMatrix.rational([[Fraction(1, 2), 0], [0, 0]])
        ones = ConvMatrix.rational([[1, 0], [0, 0]])
        quarter = ConvMatrix.rational([["1/4", 0], [0, 0]])
        spellings = [
            ConvMatrix.rational([["2/4", 0], [0, "0/3"]]),
            ConvMatrix.rational([[Fraction(3, 6), Fraction(0, 5)], [0, 0]]),
            scale(Fraction(1, 2), ones),
            scale("1/2", ones),
            add(quarter, quarter),
            conv(quarter, scale(2, ones)),
            conv_inverse_recursive(scale(2, ones)),
            conv_inverse_ch(scale(2, ones)),
            ring_taylor([Fraction(1, 2)], ones),
            pickle.loads(pickle.dumps(half)),
            ConvMatrix.from_json(half.to_json()),
        ]
        for m in spellings:
            assert m == half and hash(m) == hash(half) and repr(m) == repr(half)
            assert _storage(m) == ([[1, 0], [0, 0]], 2)

    def test_nilpotent_part_drops_the_origin_denominator(self):
        # 1/6 alone carries the 6: without it the content is the whole denominator.
        g = nilpotent_part(ConvMatrix.rational([[Fraction(1, 6), 1], [1, 1]]))
        assert _storage(g) == ([[0, 1], [1, 1]], 1)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (4, 4)])
    def test_zero_results_over_one(self, shape):
        a = rand_invertible_matrix(random.Random(sum(shape)), *shape)
        for z in (ConvMatrix.zeros(*shape), scale(0, a), a - a, add(a, -a),
                  conv(a, ConvMatrix.zeros(*shape)), ring_taylor([], a),
                  ring_taylor([0] * sum(shape) + [5], nilpotent_part(a))):
            assert _storage(z) == ([[0] * shape[1]] * shape[0], 1)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(1, 1), (1, 5), (5, 1), (3, 3), (4, 2)]), st.booleans(), st.data())
    def test_every_result_in_lowest_terms(self, shape, negative, data):
        # A negative a00 makes the running denominators of both integer routes change sign.
        a = _invertible(data.draw(with_zero_rows(matrix_strategy(*shape))))
        if (a[0, 0] < 0) != negative:
            a = -a
        b = data.draw(matrix_strategy(*shape))
        cs = data.draw(st.lists(small_fraction, min_size=1, max_size=sum(shape) + 1))
        results = [a, b, conv(a, b), add(a, b), scale(data.draw(small_fraction), a),
                   transpose(a), nilpotent_part(a), conv_inverse_recursive(a),
                   conv_inverse_ch(a), ring_taylor(cs, a), ring_taylor(cs, nilpotent_part(a)),
                   conv_core.padded_conv(a, b), conv_power_squaring(a, 3)]
        for m in results:
            _assert_canonical(m)


class TestExactOracles:
    """The integer routes against independent Fraction loops, exactly (==)."""

    @staticmethod
    def _assert_routes(a, cs):
        want = inverse_reference(a)
        assert conv_inverse_recursive(a) == want
        assert conv_inverse_ch(a) == want
        for x in (nilpotent_part(a), a):
            assert ring_taylor(cs, x) == _horner_reference(cs, x)

    @pytest.mark.parametrize("n", [8, 12])
    def test_coprime_denominators(self, n):
        rng = random.Random(n + 97)
        a = coprime_matrix(rng, n, n)
        self._assert_routes(a, [rand_fraction(rng) for _ in range(2 * n - 1)])

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 24), (24, 1)])
    def test_thin_shapes(self, shape):
        rng = random.Random(shape[0] * 31 + shape[1])
        a = rand_invertible_matrix(rng, *shape)
        self._assert_routes(a, [rand_fraction(rng) for _ in range(sum(shape) - 1)])
        self._assert_routes(-a, [rand_fraction(rng) for _ in range(3)])

    @pytest.mark.parametrize("shape", [(24, 2), (2, 24), (12, 3), (5, 5), (64, 1)])
    def test_integer_routes_run_wide(self, shape, monkeypatch):
        # A tall shape runs on its transpose (both products commute with it); results are exact.
        # The spy records the orientation of each loop and each word product (rows <= cols).
        rng = random.Random(shape[0] * 67 + shape[1])
        a, b = rand_invertible_matrix(rng, *shape), rand_rational_matrix(rng, *shape)
        cs = [rand_fraction(rng) for _ in range(sum(shape) - 1)]
        wide = {"loop": [], "word": []}
        for name in ("_int_window", "_int_inverse"):
            route = getattr(conv_core, name)
            monkeypatch.setattr(conv_core, name, lambda x, *rest, route=route:
                                wide["loop"].append(len(x) <= len(x[0])) or route(x, *rest))
        word = conv_core._word_product
        monkeypatch.setattr(conv_core, "_word_product", lambda padded, side, out=None:
                            wide["word"].append(side[1].shape[0] <= side[2])
                            or word(padded, side, out))
        self._assert_routes(a, cs)
        assert conv(a, b) == _conv_reference(a, b) == transpose(conv(transpose(a), transpose(b)))
        padded = conv_core.padded_conv(a, b)
        assert padded == transpose(conv_core.padded_conv(transpose(a), transpose(b)))
        assert ConvMatrix.rational([row[:shape[1]] for row in padded.data[:shape[0]]]) == conv(a, b)
        assert wide["loop"] and wide["word"]
        assert all(wide["loop"]) and all(wide["word"])

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([(1, 1), (3, 3), (1, 6), (6, 1), (4, 3)]), st.data())
    def test_coprime_strategy(self, shape, data):
        a = _invertible(data.draw(coprime_matrices(shape)))
        self._assert_routes(a, data.draw(st.lists(small_fraction, min_size=0, max_size=sum(shape))))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(2, 2), (4, 3), (1, 6), (6, 1)]), st.data())
    def test_zero_rows_strategy(self, shape, data):
        a = _invertible(data.draw(with_zero_rows(rational_matrices(shape, huge_fraction))))
        self._assert_routes(a, data.draw(st.lists(small_fraction, min_size=0, max_size=sum(shape))))


# The largest int64: the word route's bound on max|a| max|b| terms.
WORD_MAX = 2 ** 63 - 1


def _padded_reference(a, b):
    """padded_conv as the Fraction double sum of the operands zero-padded to the full window."""
    rows, cols = a.rows + b.rows - 1, a.cols + b.cols - 1

    def pad(m):
        return ConvMatrix.rational([list(row) + [0] * (cols - m.cols) for row in m.data]
                                   + [[0] * cols] * (rows - m.rows))

    return _conv_reference(pad(a), pad(b))


def _filled(rows, cols, value):
    return ConvMatrix.rational([[value] * cols for _ in range(rows)])


class TestWordRoute:
    """Rational windows and Horner steps run on int64 words exactly when a bound proves them exact.

    The spy records "word" for each :func:`conv_core._word_product` and
    "loop" for each :func:`conv_core._int_window`.  Every result is == the
    Fraction oracles, whichever route ran.
    """

    @pytest.fixture
    def routes(self, monkeypatch):
        seen = []
        for name, tag in (("_word_product", "word"), ("_int_window", "loop")):
            route = getattr(conv_core, name)
            monkeypatch.setattr(conv_core, name, lambda *args, route=route, tag=tag, **kw:
                                seen.append(tag) or route(*args, **kw))
        return seen

    @staticmethod
    def _fraction_horner(cs, x):
        return _horner_reference(cs, x, _conv_reference)

    # 21870289 * 60247241209 * 7 = 2^63 - 1;  2^30 * 2^30 * 8 = 2^63.
    @pytest.mark.parametrize("rows, cols, amax, bmax", [
        (1, 7, 21870289, 60247241209), (7, 1, 21870289, 60247241209),
        (2, 4, 2 ** 30, 2 ** 30), (4, 2, 2 ** 30, 2 ** 30),
    ])
    def test_window_bound(self, rows, cols, amax, bmax, routes):
        # Every product is max|a| max|b|, so the last entry sums to the bound itself.
        bound = amax * bmax * rows * cols
        assert bound in (WORD_MAX, WORD_MAX + 1)
        for sa, sb in ((1, 1), (-1, 1), (-1, -1)):
            a, b = _filled(rows, cols, sa * amax), _filled(rows, cols, sb * bmax)
            got = conv(a, b)
            assert got == _conv_reference(a, b)
            assert got[rows - 1, cols - 1] == sa * sb * bound
        assert routes == ["word" if bound == WORD_MAX else "loop"] * 3

    @pytest.mark.parametrize("big", [WORD_MAX, -WORD_MAX, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 2 ** 64])
    def test_operand_numerators_at_the_word_edge(self, big, routes):
        # Over 1x1 operands the bound is |big|: words up to 2^63 - 1; 2^63 and more is the loop,
        # whether the entry fits an int64 (-2^63) or not.
        fits = abs(big) <= WORD_MAX
        a, one = ConvMatrix.rational([[big]]), ConvMatrix.rational([[1]])
        assert conv(a, one) == conv(one, a) == a
        assert conv(a, -one) == _conv_reference(a, -one)
        row = ConvMatrix.rational([[big, 1, -1]])
        assert conv_core.padded_conv(row, one) == _padded_reference(row, one) == row
        assert routes == ["word" if fits else "loop"] * 4
        routes.clear()
        # A zero operand bounds every product by 0: only an entry no int64 holds runs the loop.
        zero = ConvMatrix.zeros(1, 1)
        assert conv(a, zero) == zero
        assert routes == ["word" if -2 ** 63 <= big <= WORD_MAX else "loop"]
        routes.clear()
        for cs in ([0, 1], [3, 1], [Fraction(1, 2), -1, 1]):
            assert ring_taylor(cs, a) == self._fraction_horner(cs, a)
        assert routes[0] == ("word" if fits else "loop")

    @pytest.mark.parametrize("rows, cols, k", [
        (1, 7, WORD_MAX // 7), (7, 1, WORD_MAX // 7), (2, 4, 2 ** 60), (4, 2, 2 ** 60),
    ])
    def test_chain_step_bound(self, rows, cols, k, routes):
        # k X <> X at X = ones: max|R| max|X| M N = 7k = 2^63 - 1 runs on words,
        # and 8k = 2^63 on the loop.
        x, cs = _filled(rows, cols, 1), [0, 0, k]
        got = ring_taylor(cs, x)
        assert got == self._fraction_horner(cs, x)
        assert got[rows - 1, cols - 1] == k * rows * cols
        assert routes == ["word" if k * rows * cols == WORD_MAX else "loop"] * 2

    @pytest.mark.parametrize("k, third", [(WORD_MAX // 49, "word"), (WORD_MAX // 49 + 1, "loop")])
    def test_chain_bound_reads_the_largest_entry(self, k, third, routes):
        # Before step 3, R = k X^2 = [k, 2k, ..., 7k]: its one largest entry sets the bound 49k.
        x, cs = _filled(1, 7, 1), [0, 0, 0, k]
        assert ring_taylor(cs, x) == self._fraction_horner(cs, x)
        assert routes == ["word", "word", third]

    def test_capped_entries_are_zeroed(self, routes):
        # At G = [[0, v, v]] the term k G^4 is 0, and the cap zeroes every entry of its steps.
        # Uncapped, R would be k G, then k G^2 with max|R| max|G| M N = 3 * 2^63 at the third step.
        v, k = 2 ** 10, 2 ** 33
        g, cs = ConvMatrix.rational([[0, v, v]]), [1, 2, 3, 0, k]
        assert ring_taylor(cs, g) == self._fraction_horner(cs, g)
        assert routes == ["word"] * 4

    def test_chain_bound_after_content_gcd(self, routes):
        # Step 1: 2k I <> X = 3k ones over 1 once the gcd 2 is divided out, so max|R| = 3k.
        # Step 2: 3k * 3 * 7 > 2^63 - 1 >= 2k * 3 * 7: the first step fits a word, the second not.
        k = WORD_MAX // 42
        x, cs = _filled(1, 7, Fraction(3, 2)), [0, 0, 2 * k]
        assert ring_taylor(cs, x) == self._fraction_horner(cs, x)
        assert routes == ["word", "loop"]

    def test_middle_step_overflows(self, routes):
        # R grows by about 2^22 a step: two steps fit a word, the third does not,
        # and the chain finishes on the loop.
        a = ConvMatrix.rational([[Fraction(2 ** 20, 3), 2 ** 20], [-2 ** 20, Fraction(2 ** 20, 7)]])
        cs = [1, Fraction(1, 3), -2, Fraction(5, 2), 1, 1]
        assert ring_taylor(cs, a) == self._fraction_horner(cs, a)
        assert routes == ["word", "word", "loop", "loop", "loop"]

    @pytest.mark.parametrize("x, cs, word", [
        # the origin add: R <> X = x, then + 1
        (WORD_MAX - 1, [1, 1], True), (WORD_MAX, [1, 1], False),
        # the lcm rescale: R <> X = x over 1, then c = 1/2 scales it by 2 and adds 1
        (2 ** 62 - 1, [Fraction(1, 2), 1], True), (2 ** 62, [Fraction(1, 2), 1], False),
    ])
    def test_only_the_rescale_or_the_add_overflows(self, x, cs, word, routes):
        # The product fits a word; the result is x f + add = 2^63 - 1 or 2^63, exact either way.
        a = ConvMatrix.rational([[x]])
        assert ring_taylor(cs, a) == self._fraction_horner(cs, a)
        assert routes == ["word"]
        routes.clear()
        # One more step runs on the loop, R being past a word either way.
        longer = [3] + cs
        assert ring_taylor(longer, a) == self._fraction_horner(longer, a)
        assert routes == ["word", "loop"]
        assert (ring_taylor(cs, a)[0, 0] * Fraction(cs[0]).denominator == WORD_MAX) == word

    @pytest.mark.parametrize("ashape, bshape", [
        ((3, 5), (4, 2)), ((1, 6), (5, 1)), ((5, 1), (4, 2)), ((2, 2), (6, 3)), ((1, 1), (3, 4)),
    ])
    def test_padded_unequal_shapes(self, ashape, bshape, routes):
        rng = random.Random(ashape[0] * 7 + ashape[1] * 5 + bshape[0] * 3 + bshape[1])
        a, b = rand_rational_matrix(rng, *ashape), rand_rational_matrix(rng, *bshape)
        assert conv_core.padded_conv(a, b) == _padded_reference(a, b)
        assert conv_core.padded_conv(b, a) == _padded_reference(b, a)
        assert routes == ["word", "word"]
        routes.clear()
        wide = scale(Fraction(10 ** 30, 7), a)
        assert conv_core.padded_conv(wide, b) == _padded_reference(wide, b)
        assert routes == ["loop"]

    @pytest.mark.parametrize("budget", [1, 7, 40])
    @pytest.mark.parametrize("shape", [(1, 9), (3, 5), (4, 4), (6, 2)])
    def test_stack_strips(self, shape, budget, monkeypatch, routes):
        # A stack past the budget is built in strips of columns: same results, on words.
        monkeypatch.setattr(conv_core, "_WORD_STACK_BUDGET", budget)
        rng = random.Random(budget * 31 + shape[0] * 7 + shape[1])
        a, b = rand_invertible_matrix(rng, *shape), rand_rational_matrix(rng, *shape)
        cs = [rand_fraction(rng) for _ in range(sum(shape))]
        assert conv(a, b) == _conv_reference(a, b)
        assert conv_core.padded_conv(a, b) == _padded_reference(a, b)
        for x in (nilpotent_part(a), a):
            assert ring_taylor(cs, x) == self._fraction_horner(cs, x)
        assert routes and set(routes) == {"word"}

    @pytest.mark.parametrize("shape", [(1, 3000), (3000, 1)])
    def test_thin_workspace_bounded(self, shape, routes):
        # Whole, the stack of a 1 x 3000 product would be 3000 x 3000 words (72 MB).
        rng = random.Random(shape[0])
        a, b = rand_invertible_matrix(rng, *shape), rand_rational_matrix(rng, *shape)
        cs = [rand_fraction(rng) for _ in range(3)]
        tracemalloc.start()
        try:
            got = conv(a, b), ring_taylor(cs, nilpotent_part(a))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2 ** 20
        assert routes == ["word"] * 3
        # np.convolve sums Python ints on object arrays, exactly; every denominator divides 12.
        av, bv = (np.array([int(v * 12) for row in m.to_lists() for v in row], dtype=object)
                  for m in (a, b))
        want = [Fraction(v, 144) for v in np.convolve(av, bv)[:3000]]
        assert got[0] == ConvMatrix.rational(np.reshape(want, shape).tolist())
        g = nilpotent_part(a)
        assert got[1] == add(scale(cs[0], conv_identity(*shape)),
                             add(scale(cs[1], g), scale(cs[2], conv(g, g))))

    def test_coprime_matrices_stay_on_the_loop(self, routes):
        # A distinct prime denominator per entry: the numerators over their lcm pass 2^63.
        rng = random.Random(101)
        a, b = coprime_matrix(rng, 12, 12), coprime_matrix(rng, 12, 12)
        assert conv(a, b) == _conv_reference(a, b)
        g = nilpotent_part(coprime_matrix(rng, 8, 8))
        cs = [rand_fraction(rng) for _ in range(4)]
        assert ring_taylor(cs, g) == self._fraction_horner(cs, g)
        assert routes == ["loop"] * 4

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(1, 1), (2, 2), (1, 5), (5, 1), (3, 4)]),
           st.sampled_from([8, 28, 29, 30, 31, 32, 61, 62, 63, 64]), st.data())
    def test_entries_around_the_bound(self, shape, bits, data):
        entry = st.builds(Fraction, st.integers(-2 ** bits, 2 ** bits), st.integers(1, 3))
        a = data.draw(rational_matrices(shape, entry))
        b = data.draw(rational_matrices(shape, entry))
        assert conv(a, b) == _conv_reference(a, b)
        assert conv_core.padded_conv(a, b) == _padded_reference(a, b)
        cs = data.draw(st.lists(entry, min_size=2, max_size=sum(shape) + 1))
        for x in (nilpotent_part(a), a):
            assert ring_taylor(cs, x) == self._fraction_horner(cs, x)


class TestRationalFloatReads:
    """to_numpy on rationals: N[i, j] / d, correctly rounded, the bits float(Fraction) gives."""

    @staticmethod
    def _assert_reads(m):
        got = m.to_numpy()
        want = np.array([[float(v) for v in row] for row in m.data])
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros included

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(st.integers(1, 4), st.integers(1, 4)), st.data())
    def test_huge_entries(self, shape, data):
        self._assert_reads(data.draw(rational_matrices(shape, huge_fraction)))

    def test_huge_numerators_over_a_huge_denominator(self):
        # Six 151-digit denominators, so the common one has over 1000 bits;
        # entries range from about 1e-300 to near the top of float range.
        rng = random.Random(101)
        dens = [rng.randrange(10 ** 150, 10 ** 151) for _ in range(6)]
        nums = [rng.randrange(-10 ** 450, 10 ** 450) >> rng.randrange(0, 2500) for _ in range(6)]
        m = ConvMatrix.rational([[Fraction(p, q) for p, q in zip(nums[:3], dens[:3])],
                                 [Fraction(p, q) for p, q in zip(nums[3:], dens[3:])]])
        assert m._den.bit_length() > 1000
        self._assert_reads(m)
        tiny = ConvMatrix.rational([[Fraction(1, 3 ** 670), Fraction(-1, 7 ** 400), 0]])
        self._assert_reads(tiny)
        got = tiny.to_numpy()
        assert 0 < got[0, 0] < 2.3e-308  # subnormal, not flushed to zero
        assert got[0, 1] == 0 and np.signbit(got[0, 1])  # underflows to -0.0

    def test_beyond_float_range_raises_as_float_does(self):
        big = Fraction(10 ** 400, 3)
        with pytest.raises(OverflowError):
            float(big)
        with pytest.raises(OverflowError):
            ConvMatrix.rational([[1, big]]).to_numpy()


class TestComplexChain:
    """The complex Horner route: X's Toeplitz stack once, one matmul per block of rows."""

    @staticmethod
    def _coeffs(rng, count):
        return list(rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count))

    @pytest.mark.parametrize("shape", [(3, 12), (12, 3), (1, 64), (64, 1)])
    def test_both_sides_of_the_transpose(self, shape):
        rng = np.random.default_rng([*shape, 7])
        x, cs = _complex_matrix(rng, *shape), self._coeffs(rng, sum(shape) - 1)
        for origin in (nilpotent_part(x), x):
            assert_chain_bound(ring_taylor, cs, origin)
            # The blocks lie along the shorter axis either way: the same arithmetic.
            assert ring_taylor(cs, transpose(origin)) == transpose(ring_taylor(cs, origin))

    @pytest.mark.parametrize("budget", [1, 50, 200])
    @pytest.mark.parametrize("shape", [(8, 8), (5, 3), (2, 9)])
    def test_row_blocks(self, shape, budget, monkeypatch):
        # Budgets below M N give one row per block; 50 and 200 give uneven blocks.
        monkeypatch.setattr(conv_core, "_CHAIN_GATHER_BUDGET", budget)
        rng = np.random.default_rng([*shape, budget])
        x, cs = _complex_matrix(rng, *shape), self._coeffs(rng, sum(shape) - 1)
        for origin in (nilpotent_part(x), x):
            assert_chain_bound(ring_taylor, cs, origin)

    @pytest.mark.parametrize("run", [1, 7, 20])
    @pytest.mark.parametrize("budget", [1, 50])
    @pytest.mark.parametrize("shape", [(8, 8), (5, 3), (2, 9)])
    def test_runs(self, shape, budget, run, monkeypatch):
        # Runs of 1, 7 and 20 products split each entry's sum unevenly, within row blocks too.
        monkeypatch.setattr(conv_core, "_CHAIN_GATHER_BUDGET", budget)
        monkeypatch.setattr(conv_core, "_CHAIN_RUN", run)
        rng = np.random.default_rng([*shape, budget, run])
        x = _real_matrix(rng, *shape)
        cs = list(rng.uniform(-1, 1, sum(shape) - 1))
        for origin in (nilpotent_part(x), x, _complex_matrix(rng, *shape)):
            assert_chain_bound(ring_taylor, cs, origin)

    def test_row_blocks_48(self):
        # At the default budget a 48x48 chain runs in two blocks of rows.
        assert conv_core._CHAIN_GATHER_BUDGET // (48 * 48) < 48
        rng = np.random.default_rng(48)
        x = _complex_matrix(rng, 48, 48)
        assert_chain_bound(ring_taylor, self._coeffs(rng, 3), nilpotent_part(x))

    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 12), (12, 3), (8, 8), (1, 64)])
    def test_structural_zeros_exact(self, shape, budget, monkeypatch):
        # G^(<>(M+N-1)) is the zero matrix exactly, not to rounding; G^(<>(M+N-2)) is not zero.
        if budget:
            monkeypatch.setattr(conv_core, "_CHAIN_GATHER_BUDGET", budget)
        g = nilpotent_part(_complex_matrix(np.random.default_rng(list(shape)), *shape))
        d = sum(shape) - 1
        assert ring_taylor([0] * d + [1], g) == ConvMatrix.zeros(*shape, "complex")
        assert ring_taylor([0] * (d - 1) + [1], g).max_abs() > 0

    @pytest.mark.parametrize("shape", [(1, 3000), (3000, 1)])
    def test_thin_chain_workspace_bounded(self, shape):
        # A degree-5 chain: the gather budget bounds each block, so the peak
        # stays a few MB, where all row shifts at once would be 3000 x 3000.
        rng = np.random.default_rng(89)
        x = _complex_matrix(rng, *shape)
        cs = self._coeffs(rng, 6)
        tracemalloc.start()
        try:
            got = ring_taylor(cs, x).to_numpy().ravel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2 ** 20
        # np.convolve sums each entry directly; each of the 5 steps errs by gamma_(k+2), k <= 3000.
        xv, want, mag = x.to_numpy().ravel(), np.full(1, cs[-1]), np.full(1, abs(cs[-1]))
        for c in reversed(cs[:-1]):
            want = np.convolve(want, xv)[:3000]
            mag = np.convolve(mag, np.abs(xv))[:3000]
            want[0] += c
            mag[0] += abs(c)
        assert (np.abs(got - want) <= 20 * float(gamma(3002)) * mag).all()


def _real_matrix(rng, m, n):
    return ConvMatrix.from_numpy(rng.uniform(-1, 1, (m, n)))


def _complex_stored(m):
    """``m``'s values held as complex128 whatever they are: the storage before the real rule."""
    out = ConvMatrix.__new__(ConvMatrix)
    out._adopt(m.rows, m.cols, m.to_numpy().astype(np.complex128), "complex", 1)
    return out


def _bits(m):
    """The complex128 bit patterns of a matrix's entries, for bit-for-bit comparison."""
    return m.to_numpy().astype(np.complex128).view(np.uint64)


class TestRealStorage:
    """Complex-backend storage is float64 exactly when no entry has a nonzero imaginary part."""

    @staticmethod
    def _assert_dtype(m, real):
        arr = m.to_numpy()
        assert arr.dtype == (np.float64 if real else np.complex128)
        assert real or arr.imag.any()

    def test_construction(self):
        for real, rows in [
            (True, [[1.0, 2.0], [0.0, -3.0]]),
            (True, [[1 + 0j, 2], [0j, -3]]),
            (True, [[complex(1, -0.0), 2.0], [complex(0, -0.0), 3]]),
            (False, [[1.0, 2.0], [1e-300j, 3.0]]),
        ]:
            for m in (ConvMatrix.floats(rows), ConvMatrix.from_numpy(np.array(rows, dtype=complex))):
                self._assert_dtype(m, real)
        self._assert_dtype(ConvMatrix.from_numpy(np.arange(6).reshape(2, 3)), True)
        self._assert_dtype(ConvMatrix.zeros(2, 3, "complex"), True)
        self._assert_dtype(ConvMatrix.rational([["1/3", 2], [0, "-5/7"]]).astype("complex"), True)

    def test_results(self):
        rng = np.random.default_rng(101)
        x, y, z = _real_matrix(rng, 4, 5), _real_matrix(rng, 4, 5), _complex_matrix(rng, 4, 5)
        g = nilpotent_part(x)
        cases = [
            (True, conv(x, y)), (True, transpose(x)), (True, add(x, y)), (True, scale(2.5, x)),
            (True, scale(complex(-2, 0), x)), (True, scale(1j, scale(1j, x))),
            (True, ring_taylor([1.0, 0.5, 2.0], x)), (True, ring_taylor([1.0] * 8, g)),
            (True, conv_inverse_recursive(x)), (True, conv_inverse_ch(x)),
            (True, add(z, scale(-1, z))), (True, conv_identity(4, 5, "complex")),
            (False, conv(x, z)), (False, conv(z, z)), (False, add(x, z)), (False, scale(1j, x)),
            (False, ring_taylor([1.0, 0.5j, 2.0], x)), (False, ring_taylor([1.0, 2.0], z)),
            (False, conv_inverse_recursive(z)), (False, conv_inverse_ch(z)),
        ]
        for real, m in cases:
            self._assert_dtype(m, real)

    def test_reads_do_not_see_the_dtype(self):
        rng = np.random.default_rng(103)
        vals = rng.uniform(-1, 1, (3, 4))
        x = ConvMatrix.from_numpy(vals)
        for y in (ConvMatrix.from_numpy(vals + 0j), ConvMatrix.floats(vals.tolist()),
                  ConvMatrix(3, 4, tuple(tuple(complex(v) for v in row) for row in vals.tolist()),
                             "complex"),
                  pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x)
            assert pickle.dumps(y) == pickle.dumps(x)
            assert y.to_json() == x.to_json() and repr(y) == repr(x)
            assert y.data == x.data and y.to_numpy().dtype == np.float64
        assert type(x[1, 2]) is complex and x[1, 2] == vals[1, 2]
        assert all(type(v) is complex for row in x.data for v in row)
        assert x.is_real() and x.to_csv() == ConvMatrix.from_csv(x.to_csv()).to_csv()

    def test_mixed_operands_bit_identical_to_complex128(self):
        # A real operand meets a complex one as its complex128 storage would.
        rng = np.random.default_rng(107)
        for shape in [(8, 8), (3, 12), (12, 3)]:
            x, z = _real_matrix(rng, *shape), _complex_matrix(rng, *shape)
            xc = _complex_stored(x)
            cs = list(rng.uniform(-1, 1, sum(shape)) + 1j * rng.uniform(-1, 1, sum(shape)))
            pairs = [
                (conv(x, z), conv(xc, z)), (conv(z, x), conv(z, xc)),
                (conv_core.padded_conv(x, z), conv_core.padded_conv(xc, z)),
                (add(x, z), add(xc, z)), (scale(0.5 - 2j, x), scale(0.5 - 2j, xc)),
                (ring_taylor(cs, x), ring_taylor(cs, xc)),
                (ring_taylor(cs, nilpotent_part(x)), ring_taylor(cs, nilpotent_part(xc))),
                (conv_core._power_solve(x, 0.5, 1 + 1j), conv_core._power_solve(xc, 0.5, 1 + 1j)),
                (conv_inverse_recursive(z), conv_inverse_recursive(_complex_stored(z))),
            ]
            for got, want in pairs:
                assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("shape", [(8, 8), (32, 32), (3, 12)])
    def test_bounds_on_the_real_route(self, shape):
        # The kernel's gamma_(k+2) bounds, checked exactly, with every operand in float64.
        rng = np.random.default_rng([*shape, 109])
        a, b = _real_matrix(rng, *shape), _real_matrix(rng, *shape)
        a = add(a, scale(2.0, conv_identity(*shape, "complex")))
        assert a.to_numpy().dtype == b.to_numpy().dtype == np.float64
        assert_entrywise_bound(conv, a, b, conv(a, b))
        assert_entrywise_bound(conv, a, conv_inverse_recursive(a), conv_identity(*shape, "complex"))
        cs = list(rng.uniform(-1, 1, 5))  # each step is checked exactly: a few suffice at 32x32
        for origin in (nilpotent_part(a), a):
            assert_chain_bound(ring_taylor, cs, origin)

    def test_is_psd_runs_the_real_solver(self, monkeypatch):
        seen, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.dtype) or eigvalsh(a))
        a = sample_psd(6, rng=3)
        verdict = is_psd(a)
        assert seen == [np.float64] and verdict.is_psd
        hermitian = is_psd(_complex_stored(a))
        assert seen[1] == np.complex128 and hermitian.is_psd
        assert abs(hermitian.min_eigenvalue - verdict.min_eigenvalue) <= 1e-14 * verdict.scale


class TestGemmWindow:
    """The complex window: B's row shifts gathered once, one BLAS product per run of A's rows."""

    @staticmethod
    def _operands(rng, kind, sa, sb):
        """Real, complex, or a real operand meeting a complex one."""
        make = {"real": (_real_matrix, _real_matrix), "complex": (_complex_matrix, _complex_matrix),
                "mixed": (_real_matrix, _complex_matrix)}[kind]
        return make[0](rng, *sa), make[1](rng, *sb)

    @staticmethod
    def _assert_bound_and_rerun(product, a, b):
        got = product(a, b)
        assert_entrywise_bound(product, a, b, got)
        # A second call, on the index arrays cached by the first, gives the same bits.
        assert np.array_equal(_bits(product(a, b)), _bits(got))

    @pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
    @pytest.mark.parametrize("n", [17, 20, 23, 33])
    def test_runs_that_do_not_divide_m(self, n, kind):
        # g = 7, 6, 5, 3 rows a run: 17, 20 and 23 end on a short run, padded with zero blocks.
        rng = np.random.default_rng([n, 113])
        self._assert_bound_and_rerun(conv, *self._operands(rng, kind, (n, n), (n, n)))

    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
    @pytest.mark.parametrize("shape", [(200, 1), (1, 200), (12, 5)])
    def test_single_row_runs(self, shape, kind, budget, monkeypatch):
        # Budget 1 forces g = 1 (S is B itself), as at 64x64 or 1 x 3000 by default.
        if budget:
            monkeypatch.setattr(conv_core, "_WINDOW_GATHER_BUDGET", budget)
        rng = np.random.default_rng([*shape, 127])
        self._assert_bound_and_rerun(conv, *self._operands(rng, kind, shape, shape))

    @pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
    @pytest.mark.parametrize("sa, sb", [((4, 4), (5, 3)), ((9, 3), (1, 24)), ((1, 24), (9, 3)),
                                        ((7, 2), (3, 11)), ((16, 16), (16, 16))])
    def test_padded_unequal_shapes(self, sa, sb, kind):
        rng = np.random.default_rng([*sa, *sb, 131])
        self._assert_bound_and_rerun(conv_core.padded_conv, *self._operands(rng, kind, sa, sb))

    def test_padded_thin_single_row_runs(self):
        # A 1 x 3000 padded product: 5999 rows of S would pass the budget, so g = 1.
        rng = np.random.default_rng(137)
        a, b = _real_matrix(rng, 1, 3000), _real_matrix(rng, 1, 3000)
        self._assert_bound_and_rerun(conv_core.padded_conv, a, b)

    def test_index_arrays_cached_read_only(self):
        shifts, index = conv_core._row_shifts(5, 3), conv_core._toeplitz_index(4, 6, 2, 10)
        assert shifts is conv_core._row_shifts(5, 3) and index is conv_core._toeplitz_index(4, 6, 2, 10)
        for arr in (shifts, index):
            with pytest.raises(ValueError):
                arr[0, 0] = 1
        # shifts[i, t] = 2 + i - t; index[(t, m), j] = 10 t + 4 - m + j.
        assert shifts.tolist()[4] == [6, 5, 4]
        assert index[4 + 3, 5] == 10 + 4 - 3 + 5


class TestElementwiseOps:
    def test_transpose(self):
        a = ConvMatrix.rational([[1, 2], [3, 4]])
        assert transpose(a).to_lists() == [[1, 3], [2, 4]]

    def test_add_zero(self):
        a = ConvMatrix.rational([[1, 2], [3, 4]])
        assert add(a, ConvMatrix.zeros(2, 2)) == a

    def test_scale_identity(self):
        assert scale(2, conv_identity(2, 2)).to_lists() == [[2, 0], [0, 0]]

    def test_operator_sugar(self):
        a = ConvMatrix.rational([[1, 2], [3, 4]])
        assert (a + (-a)).is_zero()
        assert (Fraction(2) * a).to_lists() == [[2, 4], [6, 8]]
        assert a - a == ConvMatrix.zeros(2, 2)


class TestConstructionAndSerialization:
    def test_nonfinite_rejected(self):
        with pytest.raises(ScalarError):
            ConvMatrix.floats([[float("nan")]])

    @pytest.mark.parametrize("scalar", ["rational", "complex"])
    def test_ragged_rows_and_wrong_row_count_rejected(self, scalar):
        one = numerics.one(scalar)
        with pytest.raises(ShapeMismatchError):
            ConvMatrix(2, 2, ((one, one), (one,)), scalar)
        with pytest.raises(ShapeMismatchError):
            ConvMatrix(2, 2, ((one, one, one), (one,)), scalar)
        with pytest.raises(ShapeMismatchError):
            ConvMatrix(3, 2, ((one, one), (one, one)), scalar)

    @pytest.mark.parametrize("entry", [1, 0.5, True, "1/2"])
    def test_rational_entries_must_be_fractions(self, entry):
        with pytest.raises(ScalarError):
            ConvMatrix(1, 2, ((Fraction(1), entry),), "rational")

    @pytest.mark.parametrize("scalar", ["rational", "complex"])
    def test_caller_array_is_copied(self, scalar):
        dtype = object if scalar == "rational" else complex
        arr = np.array([[numerics.coerce(v, scalar) for v in row] for row in [[1, 2], [3, 4]]],
                       dtype=dtype)
        m = ConvMatrix(2, 2, arr, scalar)
        assert arr.flags.writeable
        arr[0, 0] = numerics.coerce(9, scalar)
        assert m[0, 0] == 1 and m.to_lists() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("scalar, build, rows", [
        ("rational", ConvMatrix.rational, [[Fraction(1, 3), -2], [Fraction(5, 2), 7]]),
        ("complex", ConvMatrix.floats, [[0.25, complex(-2, 1)], [2.5, 7.0]]),
    ])
    def test_construction_routes_agree(self, scalar, build, rows):
        first = build(rows)
        tuples = tuple(tuple(numerics.coerce(v, scalar) for v in row) for row in rows)
        built = [first, ConvMatrix(2, 2, tuples, scalar), first + ConvMatrix.zeros(2, 2, scalar)]
        built += [pickle.loads(pickle.dumps(m)) for m in built]
        for m in built:
            assert m == first and hash(m) == hash(first) and repr(m) == repr(first)
            assert m.data == tuples

    def test_json_roundtrip_rational(self):
        a = ConvMatrix.rational([["1/3", 2], [3, "-4/7"]])
        again = ConvMatrix.from_json(a.to_json())
        assert again == a

    def test_json_roundtrip_complex(self):
        a = ConvMatrix.floats([[1.5, complex(0, 2)], [3, 4]])
        again = ConvMatrix.from_json(a.to_json())
        assert again == a

    def test_json_missing_field_named(self):
        with pytest.raises(ScalarError) as err:
            ConvMatrix.from_json('{"rows": 1, "cols": 1, "data": [[1]]}')
        assert "scalar" in str(err.value)

    def test_csv_roundtrip(self):
        a = ConvMatrix.floats([[1.25, -2.0], [0.5, 3.75]])
        again = ConvMatrix.from_csv(a.to_csv())
        assert again == a

    def test_csv_rejects_complex(self):
        with pytest.raises(ScalarError):
            ConvMatrix.floats([[complex(1, 1)]]).to_csv()
