"""Annihilator degree and minimal polynomial tests."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from juryconv import (
    ConvMatrix,
    Poly,
    ch_check,
    ch_polynomial,
    conv_identity,
    conv_power_naive,
    minimal_polynomial,
    poly_transform,
    sample_psd,
    scale,
    tightness_witness,
)
from juryconv import cayley_hamilton
from juryconv import partitions as partitions_mod
from juryconv.cayley_hamilton import format_minimal_polynomial
from juryconv.positivity import Interval

from helpers import rand_fraction, rand_rational_matrix, vanishing_degree


class TestAnnihilation:
    def test_running_example(self):
        a = ConvMatrix.rational([[1, 2], [3, 4]])
        assert ch_check(a)
        shifted = a + scale(-1, conv_identity(2, 2))
        assert conv_power_naive(shifted, 3).is_zero()

    def test_random_rational_shapes(self):
        rng = random.Random(67)
        for shape in [(2, 2), (3, 3), (2, 5), (5, 5)]:
            for _ in range(25):
                assert ch_check(rand_rational_matrix(rng, *shape))

    def test_scaled_identity_annihilated_linearly(self):
        a = scale(Fraction(9, 4), conv_identity(3, 2))
        assert poly_transform(Poly.of([Fraction(-9, 4), 1]), a).is_zero()

    def test_float_backend_with_tolerance(self):
        a = ConvMatrix.floats([[0.3, 1.7], [2.1, -0.4]])
        assert ch_check(a)

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16])
    def test_float_identity_holds_on_psd_samples(self, n):
        # The binomial sum cancels by ~1e9 at 8x8 and ~1e22 at 16x16; the
        # running magnitude bound keeps the true identity inside roundoff.
        for s in range(3):
            assert ch_check(sample_psd(n, Interval(1.0), np.random.default_rng([7, n, s])))

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_float_check_rejects_degree_one_short(self, n, monkeypatch):
        # (z - a00)^(M+N-2) leaves G^(M+N-2), which is above roundoff up to 8x8.
        monkeypatch.setattr(cayley_hamilton, "ch_polynomial",
                            lambda a: Poly.binomial_power(a[0, 0], a.rows + a.cols - 2))
        for s in range(3):
            assert not ch_check(sample_psd(n, Interval(1.0), np.random.default_rng([7, n, s])))

    def test_annihilator_polynomial_shape(self):
        a = ConvMatrix.rational([[2, 0, 1], [0, 1, 0]])
        p = ch_polynomial(a)
        assert p.degree == 4
        assert p.coeffs[-1] == 1  # monic


class TestTightness:
    def test_witness_nonzero_powers(self):
        # all-ones minus identity stays nonzero through order M+N-2,
        # witnessed on every anti-diagonal of matching total.
        for (m, n) in [(2, 2), (3, 3), (2, 5), (5, 5)]:
            w = tightness_witness(m, n)
            for ell in range(1, m + n - 1):
                p = conv_power_naive(w, ell)
                assert not p.is_zero()
                for i in range(m):
                    j = ell - i
                    if 0 <= j < n:
                        assert p[i, j] != 0, (m, n, ell, i, j)

    def test_witness_annihilated_at_full_degree(self):
        w = tightness_witness(3, 4)
        assert conv_power_naive(w, 6).is_zero()


class TestMinimalPolynomial:
    def test_two_by_two_case_table(self):
        # the three structural branches for [[a,b],[c,d]]
        rng = random.Random(71)
        for _ in range(10):
            a = rand_fraction(rng)
            d = rand_fraction(rng, 1, 9)  # nonzero
            b = rand_fraction(rng, 1, 9)
            c = rand_fraction(rng, 1, 9)
            assert minimal_polynomial(
                ConvMatrix.rational([[a, 0], [0, 0]])).minimal_degree == 1
            assert minimal_polynomial(
                ConvMatrix.rational([[a, 0], [0, d]])).minimal_degree == 2
            assert minimal_polynomial(
                ConvMatrix.rational([[a, b], [0, 0]])).minimal_degree == 2
            assert minimal_polynomial(
                ConvMatrix.rational([[a, 0], [c, d]])).minimal_degree == 2
            assert minimal_polynomial(
                ConvMatrix.rational([[a, b], [c, d]])).minimal_degree == 3

    def test_witness_certifies_previous_power(self):
        rng = random.Random(73)
        for shape in [(2, 2), (3, 3), (2, 4)]:
            for _ in range(20):
                a = rand_rational_matrix(rng, *shape)
                report = minimal_polynomial(a)
                shifted = a + scale(-a[0, 0], conv_identity(*shape))
                assert conv_power_naive(shifted, report.minimal_degree).is_zero()
                if report.minimal_degree >= 2:
                    prev = conv_power_naive(shifted, report.minimal_degree - 1)
                    assert not prev.is_zero()
                    assert prev[report.witness] != 0
                else:
                    assert report.witness is None

    def test_report_fields(self):
        report = minimal_polynomial(ConvMatrix.rational([[5, 2], [3, 1]]))
        assert report.root == 5
        assert report.ch_degree == 3
        assert 1 <= report.minimal_degree <= report.ch_degree

    def test_division_property(self):
        # any multiple of (z - a00)^(M+N-1) annihilates
        rng = random.Random(79)
        for _ in range(10):
            a = rand_rational_matrix(rng, 2, 3)
            base = Poly.binomial_power(a[0, 0], 4)
            q = Poly.of([rand_fraction(rng) for _ in range(rng.randint(1, 4))])
            if q.degree < 0:
                continue
            assert poly_transform(base * q, a).is_zero()

    def test_float_backend(self):
        report = minimal_polynomial(ConvMatrix.floats([[0.5, 0.2], [0.1, 0.9]]))
        assert report.minimal_degree == 3

    def test_float_power_near_threshold(self):
        # G^2 has 2x^2 = 1.5e-10 at (1, 1), where the elementary sum
        # E_2 = x^2 is half of it; both are far above rounding of |G|^2.
        x = math.sqrt(0.75e-10)
        report = minimal_polynomial(ConvMatrix.floats([[1.0, x], [x, 0.0]]))
        assert report.minimal_degree == 3
        assert report.witness == (1, 1)

    @pytest.mark.parametrize("x", [1e-6, 1e-11])
    def test_float_small_nilpotent_part(self, x):
        # G^2 = 2x^2 at (1, 1) is tiny next to max|A| = 1, but it is all of
        # |G|^2, so it does not vanish.
        report = minimal_polynomial(ConvMatrix.floats([[1.0, x], [x, 0.0]]))
        assert report.minimal_degree == 3
        assert report.witness == (1, 1)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 5), (4, 4), (5, 5)])
    def test_float_degree_matches_exact_under_scaling(self, shape):
        # Criterion-06 draws, exact cancellations included; scaling by 10^-k
        # leaves kappa alone, and so must the float rounding rule.
        rng = random.Random(83)
        for _ in range(40):
            a = rand_rational_matrix(rng, *shape, lo=-3, hi=3, max_den=2)
            kappa = minimal_polynomial(a).minimal_degree
            for k in (0, 3, 6):
                scaled = scale(Fraction(1, 10 ** k), a).astype("complex")
                assert minimal_polynomial(scaled).minimal_degree == kappa, (a, k)

    def test_never_enumerates_partitions(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("partition enumeration on the minimal-polynomial path")

        monkeypatch.setattr(partitions_mod, "enumerate_partitions", refuse)
        a = ConvMatrix.rational([[2] + [1] * 9] + [[0] * 10 for _ in range(9)])
        report = minimal_polynomial(a)
        assert report.minimal_degree == 10
        assert report.witness == (0, 9)

    def test_format(self):
        rep = minimal_polynomial(ConvMatrix.rational([[5, 2], [3, 1]]))
        assert format_minimal_polynomial(rep) == "(z - 5)^3"
        rep0 = minimal_polynomial(ConvMatrix.rational([[0, 2], [3, 1]]))
        assert format_minimal_polynomial(rep0) == "z^3"


class TestVanishingCriterionOracle:
    @pytest.mark.parametrize("rows, kappa", [
        ([[2, 1, 1, 1, 1]] + [[0] * 5] * 4, 5),
        ([[3, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, -2, Fraction(1, 2), 0, 0], [0] * 5, [0] * 5], 3),
    ])
    def test_agrees_below_the_universal_degree(self, rows, kappa):
        # kappa < M+N-1, so at order kappa the oracle scans every far index.
        a = ConvMatrix.rational(rows)
        assert minimal_polynomial(a).minimal_degree == kappa
        assert vanishing_degree(a) == kappa
