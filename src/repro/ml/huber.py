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

from repro.ml.model import LinearModelBase, weighted_rows

__all__ = ["HuberRegressor"]

_MAD_TO_SIGMA = 1.4826  # MAD of a normal distribution → its sigma


def _median(values: np.ndarray) -> float:
    """``np.median`` of a finite 1-D array, without its generic axis and NaN handling."""
    return float(_row_medians(values[None, :])[0, 0])


def _row_medians(block: np.ndarray) -> np.ndarray:
    """The median of each row of a 2-D block, as a column, from a row sort."""
    ordered = block.copy()
    ordered.sort(axis=1)
    mid = ordered.shape[1] // 2
    if ordered.shape[1] % 2:
        return ordered[:, mid : mid + 1]
    return (ordered[:, mid - 1 : mid] + ordered[:, mid : mid + 1]) / 2.0


def fit_block(x, y, delta: float, max_iter: int, tol: float) -> tuple[np.ndarray, ...]:
    """Huber IRLS on each row of ``(k, n)`` blocks: slopes, intercepts and iteration counts.
    A row stops when its fit converges or its residual scale collapses (a (near-)exact fit for
    >50% of its points, where weights would blow up); a mask freezes it and voids later work."""
    with np.errstate(all="ignore"):
        slope, intercept = weighted_rows(x, y, np.ones_like(x))
        iterations = np.zeros(slope.shape, dtype=np.int64)
        live = np.ones(slope.shape, dtype=np.bool_)
        for _ in range(max_iter):
            iterations += live
            residuals = y - (intercept + slope * x)
            deviations = np.abs(residuals - _row_medians(residuals))
            scale = _MAD_TO_SIGMA * _row_medians(deviations)
            live &= ~(scale < 1e-12)
            # Weight 1 within the threshold t, t/|r| beyond it: t/|r| >= 1
            # exactly when |r| <= t, as t > 0 on live rows.
            weights = np.minimum(delta * scale / np.abs(residuals), 1.0)
            new_slope, new_intercept = weighted_rows(x, y, weights)
            change = np.abs(new_slope - slope) + np.abs(new_intercept - intercept)
            slope = np.where(live, new_slope, slope)
            intercept = np.where(live, new_intercept, intercept)
            live &= ~(change < tol * (1.0 + np.abs(slope) + np.abs(intercept)))
            if not np.count_nonzero(live):
                break
    return slope[:, 0], intercept[:, 0], iterations[:, 0]


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

    @classmethod
    def fit_many(cls, models, samples) -> None:
        """Fit the samples of each length (and parameters) as one block."""
        blocks: dict[tuple, list] = {}
        for model, (x, y) in zip(models, samples, strict=True):
            x, y = model._validate(x, y)
            key = (x.size, model.delta, model.max_iter, model.tol)
            blocks.setdefault(key, []).append((model, x, y))
        for (n, *params), members in blocks.items():
            block, xs, ys = zip(*members, strict=True)
            fitted = (a.tolist() for a in fit_block(np.array(xs), np.array(ys), *params))
            for model, *fit in zip(block, *fitted, strict=True):
                model.slope, model.intercept, model.n_iterations_ = fit
                model._n_observations = n
