"""Tests for the statistics substrate, cross-checked against scipy."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.stats import (
    before_after_effect,
    difference_in_differences,
    one_sample_t_test,
    paired_effect,
    regularized_incomplete_beta,
    student_t_cdf,
    students_t_test,
    welch_t_test,
)


class TestTDistribution:
    @pytest.mark.parametrize("t,df", [
        (0.0, 1), (0.5, 3), (-2.1, 10), (4.45, 100), (7.13, 58),
        (40.4, 1398), (-15.0, 2), (1e-8, 7),
    ])
    def test_cdf_matches_scipy(self, t, df):
        assert student_t_cdf(t, df) == pytest.approx(
            scipy_stats.t.cdf(t, df), abs=1e-10
        )

    def test_cdf_symmetry(self):
        for t in (0.3, 1.7, 5.0):
            assert student_t_cdf(t, 9) + student_t_cdf(-t, 9) == pytest.approx(1.0)

    def test_incomplete_beta_matches_scipy(self):
        from scipy.special import betainc
        for a, b, x in [(0.5, 0.5, 0.3), (2, 3, 0.7), (10, 1, 0.99), (5, 5, 0.5)]:
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                betainc(a, b, x), abs=1e-12
            )

    def test_edge_cases(self):
        assert regularized_incomplete_beta(2, 3, 0.0) == 0.0
        assert regularized_incomplete_beta(2, 3, 1.0) == 1.0
        with pytest.raises(ValueError):
            student_t_cdf(1.0, 0)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(2, 3, 1.5)


class TestTTests:
    def _samples(self):
        rng = np.random.default_rng(3)
        return rng.normal(10, 2, 150), rng.normal(10.8, 2.5, 130)

    def test_students_matches_scipy(self):
        a, b = self._samples()
        mine = students_t_test(a, b)
        ref = scipy_stats.ttest_ind(b, a, equal_var=True)
        assert mine.t_value == pytest.approx(ref.statistic)
        assert mine.p_value == pytest.approx(ref.pvalue)

    def test_welch_matches_scipy(self):
        a, b = self._samples()
        mine = welch_t_test(a, b)
        ref = scipy_stats.ttest_ind(b, a, equal_var=False)
        assert mine.t_value == pytest.approx(ref.statistic)
        assert mine.p_value == pytest.approx(ref.pvalue)

    def test_one_sample_matches_scipy(self):
        a, _ = self._samples()
        mine = one_sample_t_test(a, 9.5)
        ref = scipy_stats.ttest_1samp(a, 9.5)
        assert mine.t_value == pytest.approx(ref.statistic)
        assert mine.p_value == pytest.approx(ref.pvalue)

    def test_pct_change_direction(self):
        a, b = self._samples()
        result = students_t_test(a, b)
        assert result.pct_change > 0  # b drawn with larger mean
        assert result.diff == pytest.approx(result.mean_b - result.mean_a)

    def test_identical_samples_insignificant(self):
        a = np.arange(50.0)
        result = students_t_test(a, a)
        assert result.t_value == pytest.approx(0.0)
        assert not result.significant()

    def test_zero_variance_distinct_means_is_significant(self):
        result = students_t_test(np.full(5, 1.0), np.full(5, 2.0))
        assert result.p_value == 0.0
        assert result.significant()

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            students_t_test(np.array([1.0]), np.array([1.0, 2.0]))


class TestTreatmentEffects:
    def test_before_after_direction(self):
        rng = np.random.default_rng(0)
        before = rng.normal(100, 5, 200)
        after = rng.normal(109, 5, 200)
        effect = before_after_effect(before, after)
        assert effect.relative_effect == pytest.approx(0.09, abs=0.02)
        assert effect.significant()

    def test_paired_effect_removes_unit_heterogeneity(self):
        """A small uniform lift on wildly different units: the unpaired test
        misses it, the paired test nails it."""
        rng = np.random.default_rng(1)
        base = rng.uniform(10, 1000, 80)  # heterogeneous machines
        before = base * (1 + rng.normal(0, 0.01, 80))
        after = base * 1.03 * (1 + rng.normal(0, 0.01, 80))
        unpaired = before_after_effect(before, after)
        paired = paired_effect(before, after)
        assert abs(paired.test.t_value) > abs(unpaired.test.t_value) * 3
        assert paired.significant()
        assert paired.relative_effect == pytest.approx(0.03, abs=0.01)

    def test_paired_requires_alignment(self):
        with pytest.raises(ValueError):
            paired_effect(np.arange(5.0), np.arange(6.0))

    def test_difference_in_differences_nets_out_trend(self):
        rng = np.random.default_rng(2)
        control_before = rng.normal(100, 3, 100)
        control_after = rng.normal(110, 3, 100)  # +10 common trend
        treated_before = rng.normal(100, 3, 100)
        treated_after = rng.normal(115, 3, 100)  # +10 trend +5 treatment
        effect = difference_in_differences(
            control_before, control_after, treated_before, treated_after
        )
        assert effect.effect == pytest.approx(5.0, abs=1.5)
        assert effect.significant()
