"""Padded convolution, grid distributions, and semi-infinite checks."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from juryconv import (
    ConvMatrix,
    GridDistribution,
    brute_force_sum_law,
    conv,
    padded_conv,
    padded_power,
    psd_chain_check,
    sample_psd,
    semiinfinite_checks,
    sum_distribution,
)
from juryconv import numerics, probgrid
from juryconv.probgrid import embed, padded_poly_action

from helpers import (
    assert_entrywise_bound,
    coprime_matrices,
    gamma,
    huge_fraction,
    numpy_full_conv,
    rand_fraction,
    rand_rational_matrix,
    rational_matrices,
    with_zero_rows,
)


def rand_distribution(rng, m, n):
    masses = [[Fraction(rng.randint(0, 5)) for _ in range(n)] for _ in range(m)]
    total = sum(sum(row) for row in masses)
    if total == 0:
        masses[0][0] = Fraction(1)
        total = Fraction(1)
    return GridDistribution.from_rows(
        [[v / total for v in row] for row in masses]
    )


def _padded_conv_reference(a, b):
    """Full-window product by scattering each a[i, j] b onto its shifted block."""
    assert a.scalar == b.scalar
    rows = a.rows + b.rows - 1
    cols = a.cols + b.cols - 1
    out = [[numerics.zero(a.scalar) for _ in range(cols)] for _ in range(rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            v = a.data[i][j]
            for k in range(b.rows):
                for l in range(b.cols):
                    out[i + k][j + l] += v * b.data[k][l]
    return ConvMatrix(rows, cols, tuple(tuple(r) for r in out), a.scalar)


class TestPaddedReference:
    """padded_conv against the scatter-form full convolution."""

    @settings(max_examples=30, deadline=None)
    @given(st.tuples(st.integers(1, 4), st.integers(1, 4)),
           st.tuples(st.integers(1, 4), st.integers(1, 4)), st.data())
    def test_random_shapes_exact(self, sa, sb, data):
        a = data.draw(rational_matrices(sa))
        b = data.draw(rational_matrices(sb))
        assert padded_conv(a, b) == _padded_conv_reference(a, b)

    @pytest.mark.parametrize("sa, sb", [((1, 1), (3, 4)), ((2, 3), (3, 2)),
                                        ((1, 5), (4, 1)), ((6, 1), (1, 6))])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_unequal_and_thin_shapes_exact(self, sa, sb, data):
        a = data.draw(rational_matrices(sa))
        b = data.draw(rational_matrices(sb))
        assert padded_conv(a, b) == _padded_conv_reference(a, b)
        assert padded_conv(b, a) == _padded_conv_reference(a, b)

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(st.integers(1, 4), st.integers(1, 4)),
           st.tuples(st.integers(1, 4), st.integers(1, 4)), st.data())
    def test_huge_entries_exact(self, sa, sb, data):
        # numerators up to 10^40 over denominators up to 10^12
        a = data.draw(rational_matrices(sa, huge_fraction))
        b = data.draw(rational_matrices(sb, huge_fraction))
        assert padded_conv(a, b) == _padded_conv_reference(a, b)

    @pytest.mark.parametrize("sa, sb", [((3, 3), (3, 3)), ((1, 6), (4, 1)),
                                        ((2, 5), (5, 2)), ((7, 1), (1, 1))])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_coprime_denominators_exact(self, sa, sb, data):
        a = data.draw(coprime_matrices(sa))
        b = data.draw(coprime_matrices(sb))
        assert padded_conv(a, b) == _padded_conv_reference(a, b)

    @pytest.mark.parametrize("sa, sb", [((3, 2), (2, 4)), ((1, 5), (3, 1)), ((4, 4), (1, 1))])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_zero_rows_exact(self, sa, sb, data):
        a = data.draw(with_zero_rows(rational_matrices(sa)))
        b = data.draw(with_zero_rows(rational_matrices(sb, huge_fraction)))
        assert padded_conv(a, b) == _padded_conv_reference(a, b)

    def test_all_zero_operands(self):
        rng = random.Random(83)
        for sa, sb in [((1, 1), (2, 3)), ((3, 1), (1, 4)), ((2, 2), (3, 3))]:
            za = ConvMatrix.zeros(*sa)
            b = rand_rational_matrix(rng, *sb)
            want = ConvMatrix.zeros(sa[0] + sb[0] - 1, sa[1] + sb[1] - 1)
            assert padded_conv(za, b) == padded_conv(b, za) == _padded_conv_reference(za, b) == want

    def test_complex_entrywise_bound(self):
        # The kernel's contract, against the exact product of the floats.
        rng = np.random.default_rng(67)
        for sa, sb in [((16, 16), (16, 16)), ((1, 24), (1, 24)), ((9, 3), (1, 24)),
                       ((5, 7), (6, 3)), ((1, 12), (8, 1))]:
            a = ConvMatrix.from_numpy(rng.uniform(-1, 1, sa) + 1j * rng.uniform(-1, 1, sa))
            b = ConvMatrix.from_numpy(rng.uniform(-1, 1, sb) + 1j * rng.uniform(-1, 1, sb))
            assert_entrywise_bound(padded_conv, a, b, padded_conv(a, b))

    @pytest.mark.parametrize("shape", [(1, 3000), (3000, 1)])
    def test_complex_thin_workspace_bounded(self, shape):
        # The kernel's Toeplitz blocks lie along the short axis: its peak
        # allocation stays a small multiple of the output (observed 2.5x).
        rng = np.random.default_rng(71)
        a, b = (ConvMatrix.from_numpy(rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
                for _ in range(2))
        tracemalloc.start()
        try:
            out = padded_conv(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * out.to_numpy().nbytes
        av, bv = a.to_numpy().ravel(), b.to_numpy().ravel()
        # np.convolve sums each entry directly: both are within gamma_(k+2), k <= 3000.
        bound = 2 * float(gamma(3002)) * np.convolve(np.abs(av), np.abs(bv))
        assert (np.abs(out.to_numpy().ravel() - np.convolve(av, bv)) <= bound).all()

    def test_complex_against_numpy(self):
        rng = np.random.default_rng(47)
        for sa, sb in [((5, 7), (6, 3)), ((1, 12), (8, 1))]:
            a = ConvMatrix.from_numpy(rng.uniform(-1, 1, sa) + 1j * rng.uniform(-1, 1, sa))
            b = ConvMatrix.from_numpy(rng.uniform(-1, 1, sb) + 1j * rng.uniform(-1, 1, sb))
            got = padded_conv(a, b).to_numpy()
            bound = 1e-13 * a.max_abs() * b.max_abs()  # observed <= 3e-15 |a| |b|
            for want in (numpy_full_conv(a, b), _padded_conv_reference(a, b).to_numpy()):
                assert np.abs(got - want).max() <= bound


class TestPaddedConv:
    def test_unit_window_is_identity(self):
        rng = random.Random(3)
        b = rand_rational_matrix(rng, 3, 4)
        assert padded_conv(ConvMatrix.rational([[1]]), b) == b

    def test_diagonal_self_convolution(self):
        half = Fraction(1, 2)
        d = ConvMatrix.rational([[half, 0], [0, half]])
        result = padded_conv(d, d)
        expect = [
            [Fraction(1, 4), 0, 0],
            [0, Fraction(1, 2), 0],
            [0, 0, Fraction(1, 4)],
        ]
        assert result.to_lists() == [[Fraction(v) for v in row] for row in expect]

    def test_window_shape(self):
        a = ConvMatrix.rational([[1, 2], [3, 4]])
        b = ConvMatrix.rational([[1, 0, 2]])
        assert padded_conv(a, b).shape == (2, 4)

    def test_truncation_consistency(self):
        # top-left window of the padded product equals the ring product
        rng = random.Random(5)
        for shape in [(2, 2), (3, 3), (2, 4)]:
            a = rand_rational_matrix(rng, *shape)
            b = rand_rational_matrix(rng, *shape)
            padded = padded_conv(a, b)
            truncated = conv(a, b)
            for (i, j) in truncated.indices():
                assert padded[i, j] == truncated[i, j]

    def test_commutative_and_associative(self):
        rng = random.Random(7)
        for _ in range(10):
            a = rand_rational_matrix(rng, 2, 3)
            b = rand_rational_matrix(rng, 3, 2)
            c = rand_rational_matrix(rng, 2, 2)
            assert padded_conv(a, b) == padded_conv(b, a)
            assert padded_conv(padded_conv(a, b), c) == padded_conv(a, padded_conv(b, c))

    def test_power_window_growth(self):
        a = ConvMatrix.rational([[0, 1], [1, 0]])
        assert padded_power(a, 3).shape == (4, 4)
        assert padded_power(a, 0).to_lists() == [[1]]

    def test_embed(self):
        a = ConvMatrix.rational([[1, 2]])
        e = embed(a, 2, 3)
        assert e.to_lists() == [[1, 2, 0], [0, 0, 0]]
        with pytest.raises(ValueError):
            embed(a, 1, 1)


class TestGridDistribution:
    def test_mass_validation(self):
        with pytest.raises(ValueError):
            GridDistribution.from_rows([[Fraction(1, 2)]])
        with pytest.raises(ValueError):
            GridDistribution.from_rows([[Fraction(3, 2), Fraction(-1, 2)]])

    def test_point_mass(self):
        d = GridDistribution.point_mass(1, 2)
        assert d.prob(1, 2) == 1
        assert d.prob(0, 0) == 0
        assert d.prob(9, 9) == 0

    def test_float_backend_tolerance(self):
        d = GridDistribution.from_rows([[0.25, 0.25], [0.25, 0.25]], scalar="complex")
        assert d.matrix.scalar == "complex"

    def test_json_roundtrip(self):
        d = GridDistribution.from_rows([[Fraction(1, 3), Fraction(2, 3)]])
        again = GridDistribution.from_json_dict(d.to_json_dict())
        assert again.matrix == d.matrix

    def test_json_requires_kind(self):
        d = GridDistribution.from_rows([[1]])
        payload = d.to_json_dict()
        payload.pop("kind")
        with pytest.raises(Exception):
            GridDistribution.from_json_dict(payload)


class TestSumDistribution:
    def test_single_is_unchanged(self):
        d = GridDistribution.from_rows([[Fraction(1, 2), Fraction(1, 2)]])
        assert sum_distribution([d]).matrix == d.matrix

    def test_two_diagonal_uniforms(self):
        half = Fraction(1, 2)
        d = GridDistribution.from_rows([[half, 0], [0, half]])
        s = sum_distribution([d, d])
        assert s.prob(0, 0) == Fraction(1, 4)
        assert s.prob(1, 1) == Fraction(1, 2)
        assert s.prob(2, 2) == Fraction(1, 4)

    def test_three_point_masses_translate(self):
        d = GridDistribution.point_mass(1, 0)
        s = sum_distribution([d, d, d])
        assert s.prob(3, 0) == 1
        assert sum(1 for _ in s.support()) == 1

    def test_mass_exactly_one(self):
        rng = random.Random(11)
        for _ in range(10):
            dists = [rand_distribution(rng, rng.randint(1, 4), rng.randint(1, 4))
                     for _ in range(3)]
            total = sum_distribution(dists)
            mass = sum(sum(row) for row in total.matrix.to_lists())
            assert mass == 1

    def test_matches_brute_force_enumeration(self):
        rng = random.Random(13)
        for _ in range(15):
            k = rng.randint(1, 3)
            dists = [rand_distribution(rng, rng.randint(1, 4), rng.randint(1, 4))
                     for _ in range(k)]
            assert sum_distribution(dists).matrix == brute_force_sum_law(dists).matrix

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sum_distribution([])


class TestPsdChain:
    def test_diagonal_self_sum_chain(self):
        half = Fraction(1, 2)
        d = GridDistribution.from_rows([[half, 0], [0, half]])
        rep = psd_chain_check(sum_distribution([d, d]), k_max=4)
        assert rep.all_psd and rep.first_failing_k is None

    def test_planted_signed_input_flagged(self):
        signed = ConvMatrix.floats([[1.0, 0.0], [0.0, -0.5]])
        rep = psd_chain_check(signed, k_max=3)
        assert not rep.all_psd
        assert rep.first_failing_k == 2

    def test_point_mass_origin(self):
        rep = psd_chain_check(GridDistribution.point_mass(0, 0), k_max=3)
        assert rep.all_psd

    def test_closure_of_chains(self):
        # PSD-normalized inputs keep PSD chains after summation
        for seed in range(10):
            a = sample_psd(3, rng=seed).to_numpy().real
            b = sample_psd(3, rng=seed + 100).to_numpy().real
            da = GridDistribution.from_rows((a / a.sum()).tolist(), scalar="complex")
            db = GridDistribution.from_rows((b / b.sum()).tolist(), scalar="complex")
            assert psd_chain_check(da, k_max=3).all_psd
            assert psd_chain_check(db, k_max=3).all_psd
            total = sum_distribution([da, db])
            assert psd_chain_check(total, k_max=5).all_psd


class TestSemiInfinite:
    def test_full_report(self):
        rep = semiinfinite_checks(cap=6)
        assert rep.all_ok
        walk_rows = [r for r in rep.diagonal_walk if r["n"] != "poly"]
        assert [r["n"] for r in walk_rows] == [1, 2, 3, 4, 5, 6]

    def test_one_running_product_per_case(self, monkeypatch):
        # Each of the 4 walks extends one product cap times: 24 padded products at cap 6.
        calls = []
        real = probgrid.padded_conv
        monkeypatch.setattr(probgrid, "padded_conv",
                            lambda a, b: calls.append(1) or real(a, b))
        assert semiinfinite_checks(cap=6).all_ok
        assert len(calls) == 24

    def test_diag_unit_square(self):
        a = ConvMatrix.rational([[0, 0], [0, 1]])
        p = padded_power(a, 2)
        assert p.shape == (3, 3)
        assert p[2, 2] == 1
        assert sum(1 for (i, j) in p.indices() if p[i, j] != 0) == 1

    def test_superdiagonal_unit_cube(self):
        a = ConvMatrix.rational([[0, 1], [0, 0]])
        p = padded_power(a, 3)
        assert p[0, 3] == 1

    def test_shifted_diag_bound(self):
        a = ConvMatrix.rational([[0, 0], [0, 3]])  # diag(2,3) - 2 I
        p = padded_power(a, 2)
        assert p[2, 2] >= 9

    @pytest.mark.parametrize("shape", [(2, 3), (3, 1), (1, 4), (4, 2), (2, 2)])
    def test_poly_action_matches_padded_powers(self, shape):
        # The term-by-term sum of padded powers, each zero-extended to the window.
        rng = random.Random(59)
        a = rand_rational_matrix(rng, *shape)
        for coeffs in ([rand_fraction(rng)],
                       [rand_fraction(rng) for _ in range(3)],
                       [rand_fraction(rng) for _ in range(4)] + [Fraction(0)]):
            deg = len(coeffs) - 1
            rows, cols = deg * (shape[0] - 1) + 1, deg * (shape[1] - 1) + 1
            want = ConvMatrix.zeros(rows, cols)
            for k, c in enumerate(coeffs):
                want = want + c * embed(padded_power(a, k), rows, cols)
            assert padded_poly_action(coeffs, a) == want

    def test_poly_action_lists_coefficients(self):
        a = ConvMatrix.rational([[0, 0], [0, 1]])
        coeffs = [Fraction(4), Fraction(0), Fraction(-2)]
        acted = padded_poly_action(coeffs, a)
        assert acted[0, 0] == 4 and acted[1, 1] == 0 and acted[2, 2] == -2
