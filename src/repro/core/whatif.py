"""The What-if Engine (Section 5.1).

Calibrates, per machine group k, the paper's model family on daily-aggregated
observational telemetry:

* ``g_k``: average running containers → CPU utilization (Eq. 1–2)
* ``h_k``: CPU utilization → tasks finished per hour (Eq. 3–4)
* ``f_k``: CPU utilization → average task latency (Eq. 5–6)

and answers "what if group k ran m containers?" questions by chaining them.
Because the natural variance of cluster operation covers a full spectrum of
utilization levels (Figure 8), the relations can be fitted without any
experiments — the key insight enabling observational tuning.

The default regressor is Huber (Section 5.2.1); a quantile regressor can be
swapped in to model heavy-load conditions (the "higher percentile" run of
Section 5.2.1).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.ml.huber import HuberRegressor, _median
from repro.ml.model import LinearModelBase
from repro.ml.registry import (
    RELATION_F,
    RELATION_G,
    RELATION_H,
    CalibratedRelation,
    ModelRegistry,
    Relation,
)
from repro.telemetry.metrics import ratio_columns
from repro.telemetry.monitor import PerformanceMonitor
from repro.utils.errors import ModelNotCalibratedError, TelemetryError

__all__ = ["GroupOperatingPoint", "GroupPrediction", "CalibrationReport", "WhatIfEngine"]

_G = Relation(RELATION_G, "AverageRunningContainers", "CpuUtilization")
_H = Relation(RELATION_H, "CpuUtilization", "TasksPerHour")
_F = Relation(RELATION_F, "CpuUtilization", "AverageTaskSeconds")


@dataclass(frozen=True, slots=True)
class GroupOperatingPoint:
    """The current (primed) operating point of one machine group.

    These are the m'_k, x'_k, l'_k, w'_k of Eq. 2/4/6 — medians over the
    group's machine-day observations.
    """

    group: str
    n_observations: int
    containers: float  # m'_k
    utilization: float  # x'_k
    tasks_per_hour: float  # l'_k
    task_latency: float  # w'_k


@dataclass(frozen=True, slots=True)
class GroupPrediction:
    """What-if prediction for one group at a hypothetical container level."""

    group: str
    containers: float  # m_k
    utilization: float  # x_k = g_k(m_k)
    tasks_per_hour: float  # l_k = h_k(x_k)
    task_latency: float  # w_k = f_k(x_k)


@dataclass
class CalibrationReport:
    """What was calibrated, what was skipped, and how well it fits."""

    calibrated: list[CalibratedRelation]
    skipped_groups: dict[str, str]

    def groups(self) -> list[str]:
        """Sorted calibrated group labels."""
        return sorted({c.group for c in self.calibrated})

    def min_r_squared(self) -> float:
        """Worst fit quality across all calibrated relations."""
        if not self.calibrated:
            return 0.0
        return min(c.fit.r_squared for c in self.calibrated)


class WhatIfEngine:
    """Calibrates and queries the g/h/f model family."""

    def __init__(
        self,
        model_factory: Callable[[], LinearModelBase] = HuberRegressor,
        min_observations: int = 6,
    ):
        if min_observations < 2:
            raise ValueError("min_observations must be >= 2")
        self.model_factory = model_factory
        self.min_observations = min_observations
        self.registry = ModelRegistry()
        self._operating_points: dict[str, GroupOperatingPoint] = {}

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def calibrate(self, monitor: PerformanceMonitor) -> CalibrationReport:
        """Fit g/h/f for every machine group with enough daily observations."""
        days = monitor.daily_aggregates()
        if not len(days):
            raise TelemetryError("no machine-day observations to calibrate from")
        groups, tasks = days.column("group"), days.column("tasks_finished")
        day_tasks_per_hour = ratio_columns(tasks, days.column("hours_observed"))
        day_latency = ratio_columns(days.column("total_task_seconds"), tasks)

        fits: list[tuple[str, Relation, np.ndarray, np.ndarray]] = []
        skipped: dict[str, str] = {}
        for group in sorted(set(groups.tolist())):
            rows = (groups == group) & (tasks > 0)
            n_rows = int(np.count_nonzero(rows))
            if n_rows < self.min_observations:
                skipped[group] = (
                    f"only {n_rows} usable machine-day observations "
                    f"(need {self.min_observations})"
                )
                continue
            containers = days.column("avg_running_containers")[rows]
            utilization = days.column("cpu_utilization")[rows]
            tasks_per_hour = day_tasks_per_hour[rows]
            latency = day_latency[rows]
            if float(np.std(containers)) < 1e-9 or float(np.std(utilization)) < 1e-9:
                skipped[group] = "no variance in containers/utilization to learn from"
                continue
            fits += [
                (group, _G, containers, utilization),
                (group, _H, utilization, tasks_per_hour),
                (group, _F, utilization, latency),
            ]
            self._operating_points[group] = GroupOperatingPoint(
                group=group,
                n_observations=n_rows,
                containers=_median(containers),
                utilization=_median(utilization),
                tasks_per_hour=_median(tasks_per_hour),
                task_latency=_median(latency),
            )
        calibrated = self.registry.calibrate_many(fits, self.model_factory)
        return CalibrationReport(calibrated=calibrated, skipped_groups=skipped)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def groups(self) -> list[str]:
        """Calibrated group labels."""
        return sorted(self._operating_points)

    def operating_point(self, group: str) -> GroupOperatingPoint:
        """Current operating point of a calibrated group."""
        try:
            return self._operating_points[group]
        except KeyError:
            raise ModelNotCalibratedError(
                f"group {group!r} was never calibrated"
            ) from None

    def predict(self, group: str, containers: float) -> GroupPrediction:
        """Chain g→h/f: the full what-if for ``containers`` on ``group``."""
        utilization = float(self.registry.predict(group, RELATION_G, containers))
        utilization = min(max(utilization, 0.0), 1.0)
        return GroupPrediction(
            group=group,
            containers=containers,
            utilization=utilization,
            tasks_per_hour=max(
                0.0, float(self.registry.predict(group, RELATION_H, utilization))
            ),
            task_latency=max(
                0.0, float(self.registry.predict(group, RELATION_F, utilization))
            ),
        )

    def latency_affine_in_containers(self, group: str) -> tuple[float, float]:
        """(slope, intercept) of w_k as an affine function of m_k.

        w = f(g(m)) and both f, g are affine, so w = (f.s·g.s)·m +
        (f.i + f.s·g.i). This is what linearizes the LP constraint (Eq. 8–10).
        """
        g = self.registry.get(group, RELATION_G).model
        f = self.registry.get(group, RELATION_F).model
        slope = f.slope * g.slope
        intercept = f.intercept + f.slope * g.intercept
        return float(slope), float(intercept)

    def utilization_affine_in_containers(self, group: str) -> tuple[float, float]:
        """(slope, intercept) of x_k as an affine function of m_k."""
        g = self.registry.get(group, RELATION_G).model
        return float(g.slope), float(g.intercept)
