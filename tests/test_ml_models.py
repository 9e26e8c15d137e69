"""Tests for the regression models: OLS, Huber, quantile, base contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    FitSummary,
    HuberRegressor,
    LinearRegression,
    ModelRegistry,
    QuantileRegressor,
    Relation,
)
from repro.ml.model import RaggedBlock
from repro.utils.errors import ModelNotCalibratedError


def affine_data(slope=3.0, intercept=2.0, n=400, noise=0.1, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 10, n)
    y = intercept + slope * x + rng.normal(0, noise, n)
    return x, y


class TestBaseContract:
    @pytest.mark.parametrize("model_cls", [LinearRegression, HuberRegressor,
                                           QuantileRegressor])
    def test_predict_before_fit_raises(self, model_cls):
        with pytest.raises(ModelNotCalibratedError):
            model_cls().predict(1.0)

    @pytest.mark.parametrize("model_cls", [LinearRegression, HuberRegressor])
    def test_scalar_and_array_predict(self, model_cls):
        x, y = affine_data()
        model = model_cls().fit(x, y)
        scalar = model.predict(2.0)
        array = model.predict(np.array([2.0, 4.0]))
        assert isinstance(scalar, float)
        assert array.shape == (2,)
        assert array[0] == pytest.approx(scalar)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.arange(5), np.arange(4))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.array([1.0]), np.array([2.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.array([1.0, np.nan]), np.array([1.0, 2.0]))

    def test_inverse_roundtrip(self):
        x, y = affine_data()
        model = LinearRegression().fit(x, y)
        assert model.inverse(model.predict(4.2)) == pytest.approx(4.2)

    def test_inverse_of_flat_relation_raises(self):
        model = LinearRegression().fit(np.ones(10), np.arange(10.0))
        # All-equal x yields slope 0.
        with pytest.raises(ModelNotCalibratedError):
            model.inverse(5.0)

    def test_summary_quality_fields(self):
        x, y = affine_data(noise=0.01)
        model = LinearRegression().fit(x, y)
        summary = model.summary(x, y)
        assert summary.r_squared > 0.999
        assert summary.n_observations == x.size
        assert summary.rmse < 0.05


class TestLinearRegression:
    def test_matches_polyfit(self):
        x, y = affine_data()
        model = LinearRegression().fit(x, y)
        slope_ref, intercept_ref = np.polyfit(x, y, 1)
        assert model.slope == pytest.approx(slope_ref)
        assert model.intercept == pytest.approx(intercept_ref)

    def test_stderr_shrinks_with_n(self):
        x1, y1 = affine_data(n=50, noise=1.0, seed=1)
        x2, y2 = affine_data(n=5000, noise=1.0, seed=2)
        small = LinearRegression().fit(x1, y1)
        large = LinearRegression().fit(x2, y2)
        assert large.slope_stderr < small.slope_stderr

    def test_slope_t_value_large_for_clear_trend(self):
        x, y = affine_data(noise=0.1)
        model = LinearRegression().fit(x, y)
        assert model.slope_t_value() > 50


class TestHuberRegressor:
    def test_matches_ols_on_clean_data(self):
        x, y = affine_data(noise=0.05)
        huber = HuberRegressor().fit(x, y)
        ols = LinearRegression().fit(x, y)
        assert huber.slope == pytest.approx(ols.slope, rel=0.02)
        assert huber.intercept == pytest.approx(ols.intercept, abs=0.05)

    def test_robust_to_outliers_where_ols_is_not(self):
        x, y = affine_data(slope=3.0, intercept=2.0, noise=0.1)
        y_corrupt = y.copy()
        y_corrupt[:40] += 100.0  # 10% gross outliers
        huber = HuberRegressor().fit(x, y_corrupt)
        ols = LinearRegression().fit(x, y_corrupt)
        assert abs(huber.intercept - 2.0) < 0.5
        assert abs(ols.intercept - 2.0) > 2.0  # OLS dragged away

    def test_converges_and_reports_iterations(self):
        x, y = affine_data()
        model = HuberRegressor().fit(x, y)
        assert 1 <= model.n_iterations_ <= model.max_iter

    def test_exact_fit_early_exit(self):
        x = np.arange(10.0)
        model = HuberRegressor().fit(x, 2 * x + 1)
        assert model.slope == pytest.approx(2.0)
        assert model.intercept == pytest.approx(1.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HuberRegressor(delta=0.0)
        with pytest.raises(ValueError):
            HuberRegressor(max_iter=0)


def reference_weighted_fit(x, y, weights):
    """The per-sample weighted least squares that ``weighted_rows`` replaced."""
    w_sum = weights.sum()
    x_mean = float((weights * x).sum() / w_sum)
    y_mean = float((weights * y).sum() / w_sum)
    sxx = float((weights * (x - x_mean) ** 2).sum())
    if sxx == 0.0:
        return 0.0, y_mean
    slope = float((weights * (x - x_mean) * (y - y_mean)).sum() / sxx)
    return slope, y_mean - slope * x_mean


def reference_huber(x, y, delta=1.345, max_iter=100, tol=1e-8):
    """The per-row IRLS that ``huber.fit_block`` replaced: one sample, one
    loop, Python-float scalars. Returns (slope, intercept, iterations)."""

    def weighted_fit(weights):
        return reference_weighted_fit(x, y, weights)

    slope, intercept = weighted_fit(np.ones_like(x))
    iterations = 0
    for iteration in range(max_iter):
        residuals = y - (intercept + slope * x)
        scale = 1.4826 * float(np.median(np.abs(residuals - np.median(residuals))))
        iterations = iteration + 1
        if scale < 1e-12:
            break
        threshold = delta * scale
        abs_res = np.abs(residuals)
        with np.errstate(divide="ignore"):  # a zero residual keeps weight 1
            weights = np.where(abs_res <= threshold, 1.0, threshold / abs_res)
        new_slope, new_intercept = weighted_fit(weights)
        change = abs(new_slope - slope) + abs(new_intercept - intercept)
        slope, intercept = new_slope, new_intercept
        if change < tol * (1.0 + abs(slope) + abs(intercept)):
            break
    return slope, intercept, iterations


ROW_KINDS = (
    "noisy", "outliers", "exact", "mostly_exact", "constant_x", "ties", "signed_zeros"
)


def huber_row(kind, n, rng):
    """One (x, y) sample of length ``n`` shaped to reach one IRLS branch."""
    x = rng.uniform(0.0, 40.0, n)
    if kind == "ties":
        x = rng.integers(0, 4, n).astype(float)
        return x, rng.integers(0, 3, n) + 0.5 * x
    if kind == "constant_x":  # sxx == 0: slope 0, intercept the mean
        return np.full(n, rng.uniform(1.0, 9.0)), rng.normal(5.0, 2.0, n)
    if kind == "signed_zeros":  # -0.0 beside 0.0; often no x spread or an exact fit
        return rng.choice([-0.0, 0.0, -1.0], n), rng.choice([-0.0, 0.0, 0.5], n)
    y = 0.3 + 0.02 * x
    if kind == "exact":  # residual scale < 1e-12 on the first iteration
        return x, y
    if kind == "mostly_exact":
        y = y.copy()
        y[: (n - 1) // 2] += rng.normal(0.0, 5.0, (n - 1) // 2)
        return x, y
    y = y + rng.standard_t(2.0, n) * 0.05
    if kind == "outliers":
        y[rng.random(n) < 0.2] += rng.uniform(-30.0, 30.0)
    return x, y


def reference_summary(model, x, y):
    """The per-sample goodness of fit that ``fit_summaries`` replaced."""
    residuals = y - model.predict(x)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitSummary(x.size, r_squared, float(np.sqrt(ss_res / x.size)), model.slope,
                      model.intercept)


def _summary_bits(summary):
    fields = (summary.r_squared, summary.rmse, summary.slope, summary.intercept)
    return (summary.n_observations, *(float(v).hex() for v in fields))


def _bits(model):
    return (model.slope.hex(), model.intercept.hex(), model.n_iterations_)


def _reference_bits(x, y, **params):
    slope, intercept, iterations = reference_huber(x, y, **params)
    return (float(slope).hex(), float(intercept).hex(), iterations)


class TestHuberBlockFit:
    """``fit_block`` runs the one IRLS loop over a ragged block of rows; every
    row must come out as the per-row reference would fit it, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(2, 40), min_size=1, max_size=3),
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_fits_equal_the_per_row_reference(self, sizes, kinds, seed):
        rng = np.random.default_rng(seed)
        samples = [
            huber_row(kind, sizes[i % len(sizes)], rng) for i, kind in enumerate(kinds)
        ]
        models = [HuberRegressor() for _ in samples]
        HuberRegressor.fit_many(models, samples)
        for model, (x, y) in zip(models, samples, strict=True):
            assert _bits(model) == _reference_bits(x, y)
            assert _bits(HuberRegressor().fit(x, y)) == _reference_bits(x, y)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(ROW_KINDS), st.integers(2, 40)), min_size=1, max_size=9
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mixed_length_batches_equal_lone_fits_and_summaries(self, rows, seed):
        """One ragged block of any lengths (odd, even, below and above the
        pairwise kernel's 8): every fit and summary, as a registry batch
        makes them, is bit for bit the sample's lone fit and summary."""
        rng = np.random.default_rng(seed)
        samples = [huber_row(kind, n, rng) for kind, n in rows]
        fits = [("group", Relation(f"r{i}", "x", "y"), *xy) for i, xy in enumerate(samples)]
        calibrated = ModelRegistry().calibrate_many(fits, HuberRegressor)
        for fitted, (x, y) in zip(calibrated, samples, strict=True):
            lone = HuberRegressor().fit(x, y)
            assert _bits(fitted.model) == _bits(lone)
            assert _summary_bits(fitted.fit) == _summary_bits(lone.summary(x, y))
            assert _summary_bits(fitted.fit) == _summary_bits(reference_summary(lone, x, y))

    def test_one_block_mixes_every_stopping_rule(self):
        rng = np.random.default_rng(3)
        samples = [huber_row(kind, 24, rng) for kind in ROW_KINDS * 2]
        models = [HuberRegressor() for _ in samples]
        HuberRegressor.fit_many(models, samples)
        iterations = [model.n_iterations_ for model in models]
        assert iterations[ROW_KINDS.index("exact")] == 1
        assert models[ROW_KINDS.index("constant_x")].slope == 0.0
        assert len(set(iterations)) > 3  # rows stop at different iterations
        for model, (x, y) in zip(models, samples, strict=True):
            assert _bits(model) == _reference_bits(x, y)

    def test_models_with_other_parameters_fit_in_their_own_block(self):
        rng = np.random.default_rng(5)
        samples = [huber_row("outliers", 12, rng) for _ in range(4)]
        params = [{}, {"delta": 0.5}, {"max_iter": 2}, {"tol": 1e-3}]
        models = [HuberRegressor(**p) for p in params]
        HuberRegressor.fit_many(models, samples)
        for model, p, (x, y) in zip(models, params, samples, strict=True):
            assert _bits(model) == _reference_bits(x, y, **p)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 40),
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_weighted_rows_equal_the_per_sample_reference(self, n, kinds, seed):
        """The shared least-squares step (Huber, quantile and OLS fits) under
        arbitrary positive weights, row by row."""
        rng = np.random.default_rng(seed)
        rows = [huber_row(kind, n, rng) for kind in kinds]
        x, y = (np.array(side) for side in zip(*rows, strict=True))
        weights = rng.uniform(0.01, 1.0, x.shape)
        slopes, intercepts = RaggedBlock(rows).weighted_rows(weights)
        for row in range(len(kinds)):
            want = reference_weighted_fit(x[row], y[row], weights[row])
            got = (float(slopes[row, 0]), float(intercepts[row, 0]))
            assert [v.hex() for v in got] == [float(v).hex() for v in want]

    def test_fit_many_validates_each_sample(self):
        with pytest.raises(ValueError):
            HuberRegressor.fit_many(
                [HuberRegressor()], [(np.array([1.0, np.nan]), np.array([1.0, 2.0]))]
            )


class TestQuantileRegressor:
    def test_median_close_to_ols_for_symmetric_noise(self):
        x, y = affine_data(noise=0.5)
        median = QuantileRegressor(tau=0.5).fit(x, y)
        assert median.slope == pytest.approx(3.0, abs=0.1)

    def test_upper_quantile_sits_above_lower(self):
        x, y = affine_data(noise=1.0, n=2000)
        q10 = QuantileRegressor(tau=0.1).fit(x, y)
        q90 = QuantileRegressor(tau=0.9).fit(x, y)
        grid = np.linspace(1, 9, 5)
        assert np.all(q90.predict(grid) > q10.predict(grid))

    def test_coverage_approximates_tau(self):
        x, y = affine_data(noise=1.0, n=4000)
        q80 = QuantileRegressor(tau=0.8).fit(x, y)
        coverage = float(np.mean(y <= q80.predict(x)))
        assert coverage == pytest.approx(0.8, abs=0.03)

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            QuantileRegressor(tau=1.0)
