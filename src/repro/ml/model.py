"""Base interfaces for the (deliberately small) model zoo.

The paper's What-if Engine is built from *simple, explainable* regressions —
"Linear models are more explainable, which is critical for domain experts"
(Section 5.1). All models here share one contract: ``fit(x, y)`` →
``predict(x)``, with 1-D feature vectors (every calibrated relation in the
paper maps one metric to another).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from repro.utils.errors import ModelNotCalibratedError

__all__ = ["LinearModelBase", "FitSummary", "RaggedBlock", "fit_summaries"]


class RaggedBlock:
    """``(x, y)`` samples packed into one ``(3, k, N)`` stack of ones, x (pads 0) and y (pads
    +inf), with the workspace of :meth:`weighted_rows`. Each run of rows of one length n is summed
    as a ``[..., rows, :n]`` view along the last axis (one reduction per run, so sort samples by
    length): each row with the pairwise kernel of the row alone, and pads never enter a sum."""

    def __init__(self, samples) -> None:
        lengths = [x.size for x, _ in samples]
        k, width = len(samples), max(lengths)
        self.oxy = np.zeros((3, k, width)) + np.array([[[1.0]], [[0.0]], [[np.inf]]])
        for row, (x, y) in enumerate(samples):
            self.oxy[1:, row, : x.size] = x, y
        middle = [(row * width + (n - 1) // 2, row * width + n // 2)
                  for row, n in enumerate(lengths)]
        self.middle = np.array(middle).T[..., None]  # each row's flat middle positions, (2, k, 1)
        self._terms, self._deltas = np.empty((3, k, width)), np.empty((2, k, width))
        self._sums = np.empty((5, k, 1))  # w, x̄, ȳ, sxx, sxy
        self._runs, first = [], 0
        for n, rows in groupby(lengths):
            rows = slice(first, first := first + len(list(rows)))
            self._runs.append((self._terms[:, rows, :n], self._sums[:3, rows],
                               self._terms[:2, rows, :n], self._sums[3:, rows]))

    def weighted_rows(self, weights) -> np.ndarray:
        """Weighted least squares for the affine model on each row: a ``(2, k, 1)`` stack of
        slopes (0 where x has no spread) and intercepts, each bit for bit the row's fit alone."""
        terms, deltas, sums = self._terms, self._deltas, self._sums
        np.multiply(self.oxy, weights, out=terms)  # w, w·x, w·y
        for block, out, _, _ in self._runs:
            np.add.reduce(block, -1, None, out, True)
        np.divide(sums[1:3], sums[0], out=sums[1:3])  # x̄, ȳ
        np.subtract(self.oxy[1:], sums[1:3], out=deltas)  # dx, dy
        np.multiply(deltas[0], deltas[0], out=terms[0])
        terms[0] *= weights  # w·dx²
        np.multiply(weights, deltas[0], out=terms[1])
        terms[1] *= deltas[1]  # w·dx·dy
        for _, _, block, out in self._runs:
            np.add.reduce(block, -1, None, out, True)
        spread = sums[3] != 0.0
        fit = np.zeros((2, *spread.shape))
        np.divide(sums[4], sums[3], out=fit[0], where=spread)
        np.multiply(fit[0], sums[1], out=fit[1], where=spread)
        np.subtract(sums[2], fit[1], out=fit[1])  # ȳ - slope·x̄; ȳ - 0.0 = ȳ without spread
        return fit


def fit_summaries(models, samples) -> list[FitSummary]:
    """Goodness of fit of each fitted model on its ``(x, y)`` sample, one block per length with
    each row summed alone: bit for bit the model's lone :meth:`LinearModelBase.summary`."""
    by_length: dict[int, list] = {}
    for index, (model, sample) in enumerate(zip(models, samples, strict=True)):
        model._require_fitted()
        x, y = model._validate(*sample)
        by_length.setdefault(x.size, []).append((index, model.slope, model.intercept, x, y))
    summaries: list = [None] * len(models)
    for n, members in by_length.items():
        indices, slopes, intercepts, xs, ys = zip(*members, strict=True)
        y = np.array(ys)
        fitted = np.array(intercepts)[:, None] + np.array(slopes)[:, None] * np.array(xs)
        ss_res = np.add.reduce((y - fitted) ** 2, axis=1)
        ss_tot = np.add.reduce((y - np.add.reduce(y, axis=1, keepdims=True) / n) ** 2, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            r_squared = np.where(ss_tot > 0, 1.0 - ss_res / ss_tot, 1.0).tolist()
        rmse = np.sqrt(ss_res / n).tolist()
        for index, *fields in zip(indices, r_squared, rmse, slopes, intercepts, strict=True):
            summaries[index] = FitSummary(n, *fields)
    return summaries


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
        """Goodness-of-fit on the given data: the one-model case of :func:`fit_summaries`."""
        return fit_summaries([self], [(x, y)])[0]
