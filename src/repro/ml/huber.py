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

from repro.ml.model import LinearModelBase, RaggedBlock

__all__ = ["HuberRegressor"]

_MAD_TO_SIGMA = 1.4826  # MAD of a normal distribution → its sigma


def _median(values: np.ndarray) -> float:
    """``np.median`` of a finite 1-D array: the one-row case of :func:`_medians`."""
    return float(_medians(values.copy(), np.array([(values.size - 1) // 2, values.size // 2])))


def _medians(block: np.ndarray, middle: np.ndarray) -> np.ndarray:
    """Row medians of a block whose pads are +inf (they sort last), which is sorted in place: the
    mean of the values at each row's flat ``middle`` positions, one value twice for odd lengths."""
    block.sort()
    lower, upper = block.take(middle)
    return (lower + upper) / 2.0


def fit_block(samples, delta: float, max_iter: int, tol: float) -> tuple[np.ndarray, ...]:
    """Huber IRLS on ``(x, y)`` samples as one :class:`RaggedBlock`: slopes, intercepts and
    iteration counts. A row stops when its fit converges or its residual scale collapses (a
    (near-)exact fit for >50% of its points, where weights would blow up); a mask freezes it and
    voids later work."""
    block = RaggedBlock(samples)
    ones, x, y = block.oxy
    with np.errstate(all="ignore"):
        fit = block.weighted_rows(ones)  # slopes and intercepts, stacked
        slope, intercept = fit
        iterations = np.zeros(slope.shape, dtype=np.int64)
        live = np.ones(slope.shape, dtype=np.bool_)
        for _ in range(max_iter):
            iterations += live
            residuals = y - (intercept + slope * x)
            deviations = np.abs(residuals - _medians(residuals.copy(), block.middle))
            scale = _MAD_TO_SIGMA * _medians(deviations, block.middle)
            np.greater(live, scale < 1e-12, out=live)  # live &= ~(scale < 1e-12)
            # Weight 1 within the threshold t, t/|r| beyond it: t/|r| >= 1
            # exactly when |r| <= t, as t > 0 on live rows.
            new_fit = block.weighted_rows(np.minimum(delta * scale / np.abs(residuals), 1.0))
            change = np.abs(new_fit - fit)
            np.copyto(fit, new_fit, where=live)
            bound = np.abs(fit)
            np.greater(live, change[0] + change[1] < tol * (1.0 + bound[0] + bound[1]), out=live)
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
        """Fit the samples that share parameters as one ragged block, whatever their lengths."""
        blocks: dict[tuple, list] = {}
        for model, (x, y) in zip(models, samples, strict=True):
            x, y = model._validate(x, y)
            blocks.setdefault((model.delta, model.max_iter, model.tol), []).append((model, x, y))
        for params, members in blocks.items():
            members.sort(key=lambda member: member[1].size)
            fitted = fit_block([(x, y) for _, x, y in members], *params)
            for (model, _, _), *fit in zip(members, *(a.tolist() for a in fitted), strict=True):
                model.slope, model.intercept, model.n_iterations_ = fit
