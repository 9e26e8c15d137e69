"""Huber regression via iteratively re-weighted least squares (IRLS).

Section 5.2.1: "We used a Huber Regressor for the prediction of the set of
performance metrics in the What-if Engine, which is more robust to outliers
compared to the Least Squares Regression." Production telemetry contains
outliers (failing disks, stragglers, partial hours); Huber loss keeps them
from dragging the calibrated slopes.

The M-estimator: residuals within ``delta`` scaled standard deviations get
quadratic loss (weight 1), larger ones get linear loss (weight delta·s/|r|).
Scale ``s`` is re-estimated each iteration from the median absolute deviation
(MAD), making the tuning threshold adaptive to the data's noise level.
"""

from __future__ import annotations

import numpy as np

from repro.ml.model import LinearModelBase

__all__ = ["HuberRegressor"]

_MAD_TO_SIGMA = 1.4826  # MAD of a normal distribution → its sigma


def _median(values: np.ndarray) -> float:
    """``np.median`` of a finite 1-D array (``_validate`` ensures finite),
    without its generic axis and NaN handling, which dominate IRLS."""
    ordered = values.copy()
    ordered.sort()
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (float(ordered[mid - 1]) + float(ordered[mid])) / 2.0


class HuberRegressor(LinearModelBase):
    """Robust 1-D affine regression with Huber loss."""

    def __init__(self, delta: float = 1.345, max_iter: int = 100, tol: float = 1e-8):
        """``delta=1.345`` gives 95% efficiency at the normal distribution."""
        super().__init__()
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.delta = delta
        self.max_iter = max_iter
        self.tol = tol
        self.n_iterations_ = 0

    def _fit_params(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        # Start from the OLS solution.
        slope, intercept = self._weighted_fit(x, y, np.ones_like(x))
        for iteration in range(self.max_iter):
            residuals = y - (intercept + slope * x)
            mad = _median(np.abs(residuals - _median(residuals)))
            scale = _MAD_TO_SIGMA * mad
            if scale < 1e-12:
                # (Near-)exact fit for >50% of points; weights would blow up.
                self.n_iterations_ = iteration + 1
                break
            threshold = self.delta * scale
            abs_res = np.abs(residuals)
            weights = np.where(abs_res <= threshold, 1.0, threshold / abs_res)
            new_slope, new_intercept = self._weighted_fit(x, y, weights)
            change = abs(new_slope - slope) + abs(new_intercept - intercept)
            slope, intercept = new_slope, new_intercept
            self.n_iterations_ = iteration + 1
            if change < self.tol * (1.0 + abs(slope) + abs(intercept)):
                break
        return slope, intercept

    @staticmethod
    def _weighted_fit(
        x: np.ndarray, y: np.ndarray, weights: np.ndarray
    ) -> tuple[float, float]:
        """Closed-form weighted least squares for the affine model."""
        w_sum = weights.sum()
        x_mean = float((weights * x).sum() / w_sum)
        y_mean = float((weights * y).sum() / w_sum)
        sxx = float((weights * (x - x_mean) ** 2).sum())
        if sxx == 0.0:
            return 0.0, y_mean
        slope = float((weights * (x - x_mean) * (y - y_mean)).sum() / sxx)
        return slope, y_mean - slope * x_mean
