"""PSD machinery, closure, preservers, and deterministic witnesses."""

import math
from fractions import Fraction

import numpy as np
import pytest

from juryconv import (
    ConvMatrix,
    FunctionSpec,
    Interval,
    NonHermitianError,
    conv,
    conv_identity,
    difference_operator_report,
    forward_difference,
    fractional_power_study,
    horn_witness,
    is_psd,
    jury_closure_test,
    preserver_test,
    sample_psd,
    scale,
    schoenberg_h_counterexample,
    smooth_transform,
    stepped_transform,
)
from juryconv.positivity import expected_fractional_violation


class TestIsPsd:
    def test_simple_psd(self):
        v = is_psd(ConvMatrix.floats([[2, 1], [1, 2]]))
        assert v.is_psd and v.min_eigenvalue == pytest.approx(1.0)

    def test_simple_indefinite(self):
        v = is_psd(ConvMatrix.floats([[1, 2], [2, 1]]))
        assert not v.is_psd and v.min_eigenvalue == pytest.approx(-1.0)

    def test_zero_boundary(self):
        assert is_psd(ConvMatrix.floats([[0]])).is_psd

    def test_complex_hermitian(self):
        h = ConvMatrix.floats([[2, complex(0, 1)], [complex(0, -1), 2]])
        v = is_psd(h)
        assert v.is_psd and v.min_eigenvalue == pytest.approx(1.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            is_psd(ConvMatrix.floats([[1, 5], [0, 1]]))

    def test_rational_matrices_accepted(self):
        assert is_psd(ConvMatrix.rational([[2, 1], [1, 2]])).is_psd

    def test_verdict_invariant(self):
        v = is_psd(ConvMatrix.floats([[2, 1], [1, 2]]))
        assert v.is_psd == (v.min_eigenvalue >= -v.tolerance * max(1.0, v.scale))

    def test_detector_sanity_planted_eigenvalue(self):
        # a negative eigenvalue of 10x the tolerance must be flagged
        tol = 1e-8
        planted = np.diag([1.0, 1.0, -10 * tol])
        assert not is_psd(planted, tol).is_psd


class TestSamplePsd:
    def test_deterministic(self):
        a = sample_psd(4, Interval(1.0), rng=42)
        b = sample_psd(4, Interval(1.0), rng=42)
        assert a == b

    def test_always_psd_and_in_interval(self):
        interval = Interval(1.0)
        for seed in range(1000):
            a = sample_psd(3, interval, rng=seed)
            arr = a.to_numpy().real
            assert (arr > 0).all() and (arr < 1).all()
        assert is_psd(sample_psd(5, interval, rng=7)).is_psd

    def test_unbounded_interval(self):
        a = sample_psd(3, Interval(math.inf), rng=1)
        assert is_psd(a).is_psd


class TestClosure:
    def test_no_violations_small(self):
        for n in range(1, 7):
            rep = jury_closure_test(n, trials=50, rng_seed=3)
            assert rep.violations == []
            assert rep.min_observed_eig >= -1e-8

    def test_identity_pair(self):
        i = conv_identity(3, 3, "complex")
        assert is_psd(conv(i, i)).is_psd

    def test_detector_fires_on_negated_identity(self):
        a = sample_psd(3, Interval(1.0), rng=5)
        neg = scale(-1, conv_identity(3, 3, "complex"))
        assert not is_psd(conv(a, neg)).is_psd

    def test_report_embeds_reproduction_data(self):
        rep = jury_closure_test(3, trials=5, rng_seed=99)
        d = rep.to_dict()
        assert d["seed"] == 99 and d["trials"] == 5 and "tolerance" in d


class TestPreserver:
    def test_exp_smooth_never_violates(self):
        for n in range(1, 5):
            rep = preserver_test(FunctionSpec.exp(), n, Interval(1.0),
                                 mode="smooth", trials=50, rng_seed=11)
            assert rep.violations == []

    def test_half_power_two_by_two(self):
        rep = preserver_test(FunctionSpec.power(0.5), 2, Interval(1.0),
                             mode="smooth", trials=100, rng_seed=13)
        assert rep.violations == []

    def test_truncated_geometric_inside_radius(self):
        # nonnegative series coefficients preserve the cone inside the radius
        geo = FunctionSpec.series([1.0] * 8, radius=1.0)
        rep = preserver_test(geo, 3, Interval(0.9), mode="smooth",
                             trials=50, rng_seed=15)
        assert rep.violations == []

    def test_stepped_rows_and_smallest_step(self):
        grid = [0.4, 0.2, 0.1, 0.05]
        rep = preserver_test(FunctionSpec.exp(), 3, Interval(1.0), mode="stepped",
                             trials=10, rng_seed=17, h_grid=grid)
        assert rep.stepped_rows
        by_trial = {}
        for row in rep.stepped_rows:
            by_trial.setdefault(row["trial"], []).append(row)
        for rows in by_trial.values():
            assert min(rows, key=lambda r: r["h"])["psd"]

    def test_stepped_respects_node_range(self):
        # h values pushing a00 + 2(n-1)h past rho are skipped
        grid = [10.0, 0.01]
        rep = preserver_test(FunctionSpec.exp(), 3, Interval(1.0), mode="stepped",
                             trials=5, rng_seed=19, h_grid=grid)
        assert all(row["h"] == 0.01 for row in rep.stepped_rows)

    def test_stepped_requires_grid(self):
        with pytest.raises(ValueError):
            preserver_test(FunctionSpec.exp(), 2, mode="stepped")

    def test_violation_recording_smooth(self):
        # alpha < 0 breaks every strictly definite sample, so the recording
        # path is exercised deterministically
        rep = preserver_test(FunctionSpec.power(-0.5), 2, Interval(1.0),
                             mode="smooth", trials=5, rng_seed=23)
        assert rep.violations
        assert rep.violations[0]["matrix"]["rows"] == 2

    def test_large_step_square_violation_found(self):
        # unbounded interval admits steps past the guarded node range,
        # where the x^2 step transform fails on near-rank-one samples
        rep = preserver_test(FunctionSpec.polynomial([0, 0, 1]), 2,
                             Interval(math.inf), mode="stepped", trials=20,
                             rng_seed=23, h_grid=[2.0])
        assert rep.violations


class TestHornWitness:
    def test_sqrt_three_by_three_breaks(self):
        w = horn_witness(3, FunctionSpec.power(0.5), x=1.0, eps=0.01)
        assert w.diagonal[2] < 0
        assert w.verdict.min_eigenvalue < -1e-6

    def test_exp_diagonal_nonnegative(self):
        w = horn_witness(2, FunctionSpec.exp(), x=0.8, eps=0.01)
        assert all(d >= 0 for d in w.diagonal)

    def test_cube_possible_preserver_profile(self):
        w = horn_witness(3, FunctionSpec.polynomial([0, 0, 0, 1]), x=1.0, eps=0.01)
        assert all(d >= 0 for d in w.diagonal)

    def test_leading_term_magnitude(self):
        # (1/2) (x+eps)^2 f''(x+eps) dominates entry (2,2) for small eps
        f = FunctionSpec.power(0.5)
        w = horn_witness(3, f, x=1.0, eps=0.01)
        lead = 0.5 * 1.01 ** 2 * f.derivative(2, 1.01)
        assert w.diagonal[2] == pytest.approx(lead, abs=0.01)


class TestSteppedCounterexample:
    def test_exact_determinant(self):
        cx = schoenberg_h_counterexample()
        assert cx.stepped.to_lists() == [[1, 4], [4, 6]]
        assert cx.determinant == Fraction(-10)
        assert not cx.verdict.is_psd

    def test_contrast_matrix_small_step_passes(self):
        cx = schoenberg_h_counterexample()
        assert cx.contrast_small_verdict.is_psd
        assert not cx.contrast_large_verdict.is_psd

    def test_affine_function_immune(self):
        f = FunctionSpec.polynomial([1, 2])
        a = ConvMatrix.rational([[1, 1], [1, 1]])
        for h in (Fraction(1, 100), Fraction(2), Fraction(50)):
            assert stepped_transform(f, a, h) == smooth_transform(f, a)
            assert is_psd(stepped_transform(f, a, h)).is_psd


class TestFractionalPowerStudy:
    def test_expectation_map(self):
        assert expected_fractional_violation(2, -0.5) is True
        assert expected_fractional_violation(2, 0.3) is False
        assert expected_fractional_violation(2, 2.0) is False
        assert expected_fractional_violation(3, 0.5) is True
        assert expected_fractional_violation(3, 2.0) is False
        assert expected_fractional_violation(3, 1.5) is None
        assert expected_fractional_violation(4, 1.5) is True
        assert expected_fractional_violation(4, 2.5) is None

    def test_negative_alpha_violation_found(self):
        rep = fractional_power_study(2, [-0.5], trials=50, rng_seed=29)
        row = rep.rows[0]
        assert row["found_violation"] and row["expected_violation"] is True
        assert rep.consistent()

    def test_positive_alphas_clean_for_two(self):
        rep = fractional_power_study(2, [0.3, 1.7, 2.5], trials=100, rng_seed=31)
        assert all(r["violations"] == 0 for r in rep.rows)
        assert rep.consistent()

    def test_three_by_three_half_power_certified(self):
        rep = fractional_power_study(3, [0.5], trials=20, rng_seed=37)
        row = rep.rows[0]
        assert row["horn_witness"]["certified_violation"]
        assert row["found_violation"]

    def test_b_matrix_rows_collected_for_open_range(self):
        rep = fractional_power_study(3, [1.5], trials=5, rng_seed=41,
                                     include_b_matrix=True)
        assert rep.rows[0]["b_matrix"]

    def test_csv_summaries(self):
        rep = fractional_power_study(2, [0.3, -0.5], trials=5, rng_seed=47)
        csv_text = rep.to_csv()
        assert csv_text.splitlines()[0].startswith("alpha,")
        assert len(csv_text.splitlines()) == 3
        stepped = preserver_test(FunctionSpec.exp(), 2, Interval(1.0),
                                 mode="stepped", trials=3, rng_seed=47,
                                 h_grid=[0.2, 0.1])
        lines = stepped.to_csv().splitlines()
        assert lines[0] == "trial,h,min_eig,psd"
        assert len(lines) > 1


class TestDifferenceOperators:
    def test_exp_differences_nonnegative(self):
        rep = difference_operator_report(FunctionSpec.exp(), n=5,
                                         interval=Interval(1.0),
                                         trials=50, rng_seed=43)
        assert rep.min_difference >= 0
        assert rep.min_witness_diagonal >= -1e-10

    @pytest.mark.parametrize("n, trials", [(0, 5), (-3, 5), (3, 0)])
    def test_report_rejects_empty_ranges(self, n, trials):
        with pytest.raises(ValueError):
            difference_operator_report(FunctionSpec.exp(), n=n, trials=trials)

    def test_forward_difference_of_exp_closed_form(self):
        # Delta_h^l exp(x) = e^x (e^h - 1)^l
        f = FunctionSpec.exp()
        x, h = 0.3, 0.25
        for ell in range(5):
            expect = math.exp(x) * (math.exp(h) - 1) ** ell
            assert forward_difference(f, x, h, ell) == pytest.approx(expect)
