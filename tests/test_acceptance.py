"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
in the captured output of a failing run).  Tolerances and sample counts
are pinned here; the random draws are seeded, so the whole suite is
reproducible bit for bit.
"""

import functools
import math
import random
from fractions import Fraction

import numpy as np

from juryconv import (
    ConvMatrix,
    FunctionSpec,
    Interval,
    Permutation,
    Poly,
    bivariate_power_matrix,
    brute_force_sum_law,
    bruhat_leq_conv,
    bruhat_leq_oracle,
    ch_check,
    conv,
    conv_identity,
    conv_inverse_ch,
    conv_inverse_recursive,
    conv_power_naive,
    conv_power_partition,
    difference_operator_report,
    factorial_frame,
    fractional_power_study,
    horn_witness,
    jury_closure_test,
    minimal_polynomial,
    poly_transform,
    preserver_test,
    sample_psd,
    scale,
    schoenberg_h_counterexample,
    semiinfinite_checks,
    series_transform,
    smooth_transform,
    stepped_transform,
    sum_distribution,
    tightness_witness,
    transpose,
    verify_equivalences,
)
from juryconv.bruhat import rank_identities_hold
from juryconv.probgrid import GridDistribution, psd_chain_check

from helpers import (
    rand_fraction,
    rand_invertible_matrix,
    rand_permutation,
    rand_rational_matrix,
    power_reference,
    vanishing_degree,
)

SHAPES = [(2, 2), (3, 3), (2, 5), (5, 5)]


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d}: FAIL - {label}")
                raise
            print(f"criterion {num:02d}: PASS - {label}")
        return wrapper
    return deco


@criterion(1, "ring axioms exact on 100 random rational matrices per shape")
def test_criterion_01_ring_axioms():
    rng = random.Random(101)
    for shape in SHAPES:
        for _ in range(100):
            a = rand_rational_matrix(rng, *shape)
            b = rand_rational_matrix(rng, *shape)
            c = rand_rational_matrix(rng, *shape)
            alpha = rand_fraction(rng)
            ab = conv(a, b)
            assert ab == conv(b, a)
            assert conv(ab, c) == conv(a, conv(b, c))
            assert conv(a + b, c) == conv(a, c) + conv(b, c)
            assert scale(alpha, ab) == conv(scale(alpha, a), b)
            assert scale(alpha, ab) == conv(a, scale(alpha, b))
            assert transpose(ab) == conv(transpose(a), transpose(b))


@criterion(2, "inverse coherence: both constructions, unit products, product rule")
def test_criterion_02_inverse_coherence():
    rng = random.Random(102)
    for shape in SHAPES:
        ident = conv_identity(*shape)
        for _ in range(100):
            a = rand_invertible_matrix(rng, *shape)
            rec = conv_inverse_recursive(a)
            assert rec == conv_inverse_ch(a)
            assert conv(a, rec) == ident
        for _ in range(100):
            a = rand_invertible_matrix(rng, *shape)
            b = rand_invertible_matrix(rng, *shape)
            assert conv_inverse_recursive(conv(a, b)) == \
                conv(conv_inverse_recursive(a), conv_inverse_recursive(b))


@criterion(3, "annihilator (z-a00)^(M+N-1) vanishes; all-ones witness is tight")
def test_criterion_03_cayley_hamilton():
    rng = random.Random(103)
    for shape in SHAPES:
        ident = conv_identity(*shape)
        degree = shape[0] + shape[1] - 1
        for _ in range(500):
            a = rand_rational_matrix(rng, *shape, lo=-5, hi=5, max_den=3)
            shifted = a + scale(-a[0, 0], ident)
            assert conv_power_naive(shifted, degree).is_zero()
        assert ch_check(rand_rational_matrix(rng, *shape))
        w = tightness_witness(*shape)
        for ell in range(1, degree):
            p = conv_power_naive(w, ell)
            for i in range(shape[0]):
                j = ell - i
                if 0 <= j < shape[1]:
                    assert p[i, j] != 0


@criterion(4, "partition power formula equals repeated product, k <= 6")
def test_criterion_04_power_formula():
    rng = random.Random(104)
    for shape in [(2, 2), (3, 2), (3, 3), (4, 4)]:
        for _ in range(20):
            a = rand_rational_matrix(rng, *shape)
            for kappa in range(1, 7):
                assert conv_power_partition(a, kappa) == conv_power_naive(a, kappa)


@criterion(5, "transform coherence: both modes agree; (pq) acts as p <> q")
def test_criterion_05_transform_coherence():
    rng = random.Random(105)
    for shape in [(2, 2), (3, 3), (2, 4), (4, 4)]:
        for _ in range(25):
            p = Poly.of([rand_fraction(rng) for _ in range(rng.randint(1, 5))])
            q = Poly.of([rand_fraction(rng) for _ in range(rng.randint(1, 5))])
            a = rand_rational_matrix(rng, *shape)
            assert poly_transform(p, a, "sum_of_powers") == \
                poly_transform(p, a, "partition_formula")
            assert poly_transform(p * q, a) == conv(poly_transform(p, a),
                                                    poly_transform(q, a))
            assert poly_transform(p + q, a) == \
                poly_transform(p, a) + poly_transform(q, a)


@criterion(6, "minimal degree: vanishing criterion = nilpotency on 500/shape; 2x2 table")
def test_criterion_06_minimal_polynomials():
    rng = random.Random(106)
    for shape in SHAPES:
        ident = conv_identity(*shape)
        for _ in range(500):
            a = rand_rational_matrix(rng, *shape, lo=-3, hi=3, max_den=2)
            report = minimal_polynomial(a)
            assert vanishing_degree(a) == report.minimal_degree
            shifted = a + scale(-a[0, 0], ident)
            assert conv_power_naive(shifted, report.minimal_degree).is_zero()
    # Remark-style 2x2 case table, all three branches
    rng2 = random.Random(1006)
    for _ in range(25):
        a = rand_fraction(rng2)
        b = rand_fraction(rng2, 1, 9)
        c = rand_fraction(rng2, 1, 9)
        d = rand_fraction(rng2, 1, 9)
        assert minimal_polynomial(ConvMatrix.rational([[a, 0], [0, 0]])).minimal_degree == 1
        assert minimal_polynomial(ConvMatrix.rational([[a, b], [0, 0]])).minimal_degree == 2
        assert minimal_polynomial(ConvMatrix.rational([[a, 0], [c, 0]])).minimal_degree == 2
        assert minimal_polynomial(ConvMatrix.rational([[a, 0], [0, d]])).minimal_degree == 2
        assert minimal_polynomial(ConvMatrix.rational([[a, b], [c, d]])).minimal_degree == 3


@criterion(7, "PSD closure: 200 seeded pairs per size, min eig >= -1e-8 * scale")
def test_criterion_07_psd_closure():
    for n in range(1, 7):
        report = jury_closure_test(n, trials=200, rng_seed=107, tol=1e-8)
        assert report.violations == [], f"violations at n={n}"


@criterion(8, "exp transform PSD on 200 samples per size; series converges to 1e-10")
def test_criterion_08_absolutely_monotone_preserver():
    exp = FunctionSpec.exp()
    for n in range(1, 6):
        report = preserver_test(exp, n, Interval(1.0), mode="smooth",
                                trials=200, rng_seed=108, tol=1e-8)
        assert report.violations == [], f"violations at n={n}"
    for n in range(1, 6):
        for t in range(5):
            a = sample_psd(n, Interval(1.0), rng=np.random.default_rng([108, n, t]))
            smooth = smooth_transform(exp, a)
            result = series_transform(
                (1 / math.factorial(k) for k in range(200)), a, tail_tol=1e-15)
            diff = max(abs(complex(result.matrix.data[i][j]) - complex(smooth.data[i][j]))
                       for (i, j) in smooth.indices())
            assert diff <= 1e-10, f"series gap {diff} at n={n}"


@criterion(9, "stepped transform walks monotonically into the smooth one")
def test_criterion_09_stepped_limit():
    # distance scales linearly with h, so the bound at the finest step is
    # attainable on a fixed small-entry PSD matrix
    base = 0.0005
    rows = [[base * (1 + (i == j)) for j in range(3)] for i in range(3)]
    a = ConvMatrix.floats(rows)
    exp = FunctionSpec.exp()
    smooth = smooth_transform(exp, a)
    distances = []
    for k in range(11):
        stepped = stepped_transform(exp, a, 0.5 ** k)
        distances.append(max(
            abs(complex(stepped.data[i][j]) - complex(smooth.data[i][j]))
            for (i, j) in smooth.indices()))
    for bigger, smaller in zip(distances, distances[1:]):
        assert smaller < bigger
    assert distances[-1] < 1e-6


@criterion(10, "fractional powers: clean for alpha >= 0 at n=2; violations found below")
def test_criterion_10_fractional_powers():
    report = fractional_power_study(2, [0.3, 1.7, 2.5], Interval(1.0),
                                    trials=1000, rng_seed=110, tol=1e-8)
    assert all(row["violations"] == 0 for row in report.rows)
    neg = fractional_power_study(2, [-0.5], Interval(1.0), trials=1000, rng_seed=110)
    assert neg.rows[0]["found_violation"]
    witness = horn_witness(3, FunctionSpec.power(0.5), x=0.5, eps=0.005, tol=1e-8)
    assert witness.verdict.min_eigenvalue < -1e-6


@criterion(11, "step h=2 on the all-ones matrix: determinant exactly -10")
def test_criterion_11_h_counterexample():
    cx = schoenberg_h_counterexample()
    assert cx.stepped.to_lists() == [[1, 4], [4, 6]]
    assert cx.determinant == Fraction(-10)
    assert not cx.verdict.is_psd


@criterion(12, "forward differences of exp nonnegative across the witness family")
def test_criterion_12_difference_nonnegativity():
    for n in range(2, 7):
        report = difference_operator_report(FunctionSpec.exp(), n=n,
                                            interval=Interval(1.0),
                                            trials=40, rng_seed=112)
        assert report.min_difference >= 0
        assert report.min_witness_diagonal >= -1e-10


@criterion(13, "Bruhat: criterion = oracle on all of S4 and sampled S5/S6; identities")
def test_criterion_13_bruhat():
    import itertools
    perms4 = [Permutation.of(p) for p in itertools.permutations(range(1, 5))]
    for s in perms4:
        for t in perms4:
            assert bruhat_leq_conv(s, t) == bruhat_leq_oracle(s, t)
    rng = random.Random(113)
    for n in (5, 6):
        for _ in range(1000):
            s = Permutation.of(rand_permutation(rng, n))
            t = Permutation.of(rand_permutation(rng, n))
            assert bruhat_leq_conv(s, t) == bruhat_leq_oracle(s, t)
    for n in range(1, 7):
        for _ in range(100):
            assert rank_identities_hold(Permutation.of(rand_permutation(rng, n)))
    for _ in range(100):
        s = Permutation.of(rand_permutation(rng, 4))
        t = Permutation.of(rand_permutation(rng, 4))
        assert verify_equivalences(s, t).all_consistent


@criterion(14, "sum law equals enumeration exactly; PSD chains persist")
def test_criterion_14_probability():
    rng = random.Random(114)

    def rand_dist():
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        masses = [[Fraction(rng.randint(0, 5)) for _ in range(n)] for _ in range(m)]
        total = sum(sum(row) for row in masses) or Fraction(1)
        if sum(sum(row) for row in masses) == 0:
            masses[0][0] = Fraction(1)
        return GridDistribution.from_rows([[v / total for v in row] for row in masses])

    for _ in range(20):
        dists = [rand_dist() for _ in range(rng.randint(1, 3))]
        assert sum_distribution(dists).matrix == brute_force_sum_law(dists).matrix

    for seed in range(15):
        a = sample_psd(3, rng=seed).to_numpy().real
        b = sample_psd(4, rng=seed + 500).to_numpy().real
        da = GridDistribution.from_rows((a / a.sum()).tolist(), scalar="complex")
        db = GridDistribution.from_rows((b / b.sum()).tolist(), scalar="complex")
        assert psd_chain_check(da, 3).all_psd
        assert psd_chain_check(db, 4).all_psd
        assert psd_chain_check(sum_distribution([da, db]), 6).all_psd


@criterion(15, "semi-infinite: diagonal unit walk and non-annihilation bounds")
def test_criterion_15_semi_infinite():
    report = semiinfinite_checks(cap=6)
    assert report.all_ok
    walk = [r for r in report.diagonal_walk if r["n"] != "poly"]
    assert [r["n"] for r in walk] == [1, 2, 3, 4, 5, 6]
    assert all(r["ok"] for r in report.non_annihilation)


@criterion(16, "factorial conjugation matches the bivariate power series matrix")
def test_criterion_16_bivariate_identity():
    for n in range(2, 5):
        for alpha in (0.5, 2.5):
            for t in range(100):
                a = sample_psd(n, Interval(1.0), rng=np.random.default_rng([116, n, t]))
                # The exact Taylor sum, framed: independent of the float power route.
                lhs = factorial_frame(ConvMatrix.from_numpy(power_reference(a, alpha)))
                rhs = bivariate_power_matrix(alpha, a)
                diff = max(abs(complex(lhs.data[i][j]) - complex(rhs.data[i][j]))
                           for (i, j) in lhs.indices())
                ref = max(lhs.max_abs(), rhs.max_abs(), 1.0)
                assert diff <= 1e-10 * ref, f"relative gap {diff / ref} at n={n}"
