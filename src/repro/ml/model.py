"""Base interfaces for the (deliberately small) model zoo.

The paper's What-if Engine is built from *simple, explainable* regressions —
"Linear models are more explainable, which is critical for domain experts"
(Section 5.1). All models here share one contract: ``fit(x, y)`` →
``predict(x)``, with 1-D feature vectors (every calibrated relation in the
paper maps one metric to another).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ModelNotCalibratedError

__all__ = ["LinearModelBase", "FitSummary", "weighted_rows"]


def weighted_rows(x, y, weights) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least squares for the affine model on each row of ``(k, n)`` blocks: ``(k, 1)``
    slopes (0 where x has no spread) and intercepts. Each C-contiguous row is summed with the
    pairwise kernel of the row alone, so a row's fit is bit for bit its fit alone."""
    row_sum = np.add.reduce
    w_sum = row_sum(weights, 1, keepdims=True)
    x_mean = row_sum(weights * x, 1, keepdims=True) / w_sum
    y_mean = row_sum(weights * y, 1, keepdims=True) / w_sum
    dx = x - x_mean
    sxx = row_sum(weights * dx**2, 1, keepdims=True)
    sxy = row_sum(weights * dx * (y - y_mean), 1, keepdims=True)
    spread = sxx != 0.0
    slope = np.divide(sxy, sxx, out=np.zeros(sxx.shape), where=spread)
    return slope, np.where(spread, y_mean - slope * x_mean, y_mean)


@dataclass(frozen=True, slots=True)
class FitSummary:
    """Goodness-of-fit of a calibrated model."""

    n_observations: int
    r_squared: float
    rmse: float
    slope: float
    intercept: float


class LinearModelBase:
    """Shared plumbing for 1-D affine models ``y ≈ intercept + slope·x``."""

    def __init__(self) -> None:
        self.slope: float | None = None
        self.intercept: float | None = None
        self._n_observations = 0

    # -- fitting -------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray) -> "LinearModelBase":
        """Calibrate the model: a batch of one for :meth:`fit_many`."""
        self.fit_many([self], [(x, y)])
        return self

    @classmethod
    def fit_many(cls, models: list["LinearModelBase"], samples: list) -> None:
        """Fit each model of this type on its ``(x, y)`` sample through
        :meth:`_fit_params`; a subclass may fit the batch jointly instead."""
        for model, (x, y) in zip(models, samples, strict=True):
            x, y = model._validate(x, y)
            slope, intercept = model._fit_params(x, y)
            model.slope, model.intercept = float(slope), float(intercept)
            model._n_observations = x.size

    def _fit_params(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        raise NotImplementedError

    @staticmethod
    def _validate(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        if x.size != y.size:
            raise ValueError(f"x and y lengths differ: {x.size} vs {y.size}")
        if x.size < 2:
            raise ValueError("fitting needs at least two observations")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("x and y must be finite")
        return x, y

    # -- inference -----------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has run."""
        return self.slope is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise ModelNotCalibratedError(
                f"{type(self).__name__} used before fit() was called"
            )

    def predict(self, x: np.ndarray | float) -> np.ndarray | float:
        """Predict y for scalar or array x."""
        self._require_fitted()
        scalar = np.isscalar(x)
        x_arr = np.asarray(x, dtype=float)
        y = self.intercept + self.slope * x_arr
        return float(y) if scalar else y

    def inverse(self, y: np.ndarray | float) -> np.ndarray | float:
        """Invert the affine relation: the x that predicts ``y``.

        Needed by the SKU-design Monte Carlo (Section 6.1), which evaluates
        ``p⁻¹(S)`` and ``q⁻¹(R)``. Raises when the fitted slope is ≈ 0.
        """
        self._require_fitted()
        if abs(self.slope) < 1e-12:
            raise ModelNotCalibratedError(
                "cannot invert a flat relation (fitted slope is ~0)"
            )
        scalar = np.isscalar(y)
        y_arr = np.asarray(y, dtype=float)
        x = (y_arr - self.intercept) / self.slope
        return float(x) if scalar else x

    def summary(self, x: np.ndarray, y: np.ndarray) -> FitSummary:
        """Goodness-of-fit on the given data."""
        self._require_fitted()
        x, y = self._validate(x, y)
        predictions = self.predict(x)
        residuals = y - predictions
        ss_res = float(np.sum(residuals**2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        return FitSummary(
            n_observations=x.size,
            r_squared=r_squared,
            rmse=float(np.sqrt(ss_res / x.size)),
            slope=self.slope,
            intercept=self.intercept,
        )
