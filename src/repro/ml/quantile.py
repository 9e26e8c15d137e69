"""Quantile regression (pinball loss) via smoothed IRLS.

Section 5.2.1 re-runs the YARN optimization "focusing on a higher percentile
of CPU utilization level, corresponding to the situation where the whole
cluster is running with heavy workloads". Fitting the relation at, say, the
90th percentile instead of the mean needs a quantile regressor.
"""

from __future__ import annotations

import numpy as np

from repro.ml.model import LinearModelBase, RaggedBlock

__all__ = ["QuantileRegressor"]


class QuantileRegressor(LinearModelBase):
    """1-D affine quantile regression for quantile ``tau``.

    Minimizes the pinball loss with IRLS on the smoothed absolute value
    ``|r| ≈ sqrt(r² + eps²)``; exact linear-programming formulations are
    overkill for the 1-D relations KEA calibrates.
    """

    def __init__(self, tau: float = 0.5, max_iter: int = 200, tol: float = 1e-8,
                 eps: float = 1e-6):
        super().__init__()
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {tau}")
        self.tau = tau
        self.max_iter = max_iter
        self.tol = tol
        self.eps = eps
        self.n_iterations_ = 0

    def _fit_params(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        scale = max(float(np.std(y)), 1e-9)
        eps = self.eps * scale
        block = RaggedBlock([(x, y)])  # one row: residuals and weights are (1, n)
        slope, intercept = block.weighted_rows(block.oxy[0])  # OLS warm start
        for iteration in range(self.max_iter):
            residuals = y - (intercept + slope * x)
            # Pinball loss rho_tau(r) = r(tau - 1[r<0]); IRLS weight is
            # rho'(r)/r with smoothing to avoid division blow-up near 0.
            asymmetric = np.where(residuals >= 0, self.tau, 1.0 - self.tau)
            weights = asymmetric / np.sqrt(residuals**2 + eps**2)
            new_slope, new_intercept = block.weighted_rows(weights)
            change = abs(new_slope - slope) + abs(new_intercept - intercept)
            slope, intercept = new_slope, new_intercept
            self.n_iterations_ = iteration + 1
            if change < self.tol * (1.0 + abs(slope) + abs(intercept)):
                break
        return slope[0, 0], intercept[0, 0]
