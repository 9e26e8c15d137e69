"""A/B analysis over experiment telemetry.

Takes a group assignment (or a time-slicing schedule) plus a Performance
Monitor and produces per-metric comparisons with Student's t-tests — the
exact shape of Table 4.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.experiment.design import GroupAssignment, TimeSlice
from repro.stats.ttest import TTestResult, students_t_test
from repro.telemetry.metrics import DEFAULT_REGISTRY
from repro.telemetry.monitor import PerformanceMonitor
from repro.utils.errors import ExperimentError

__all__ = ["MetricComparison", "ABReport", "compare_groups", "compare_time_slices"]


@dataclass(frozen=True, slots=True)
class MetricComparison:
    """Control vs experiment on one metric (a row of Table 4)."""

    metric: str
    control_mean: float
    experiment_mean: float
    test: TTestResult

    @property
    def pct_change(self) -> float:
        """Experiment vs control, as a fraction."""
        if self.control_mean == 0:
            return 0.0
        return (self.experiment_mean - self.control_mean) / abs(self.control_mean)

    def significant(self, alpha: float = 0.05) -> bool:
        """True when the t-test rejects equality at ``alpha``."""
        return self.test.significant(alpha)


@dataclass
class ABReport:
    """All metric comparisons of one experiment."""

    name: str
    comparisons: list[MetricComparison]
    n_control: int
    n_experiment: int

    def comparison(self, metric: str) -> MetricComparison:
        """Look up one metric's comparison."""
        for entry in self.comparisons:
            if entry.metric == metric:
                return entry
        raise KeyError(f"metric {metric!r} not in report {self.name!r}")

    def winner(self, metric: str, higher_is_better: bool = True) -> str:
        """'experiment', 'control', or 'tie' (insignificant difference)."""
        entry = self.comparison(metric)
        if not entry.significant():
            return "tie"
        experiment_wins = entry.experiment_mean > entry.control_mean
        if not higher_is_better:
            experiment_wins = not experiment_wins
        return "experiment" if experiment_wins else "control"


#: Metrics tested on machine-day values: their extractors read only the
#: columns :meth:`PerformanceMonitor.daily_aggregates` keeps.
_DAILY_METRICS = frozenset({
    "TotalDataRead", "AverageTaskSeconds", "NumberOfTasks", "CpuUtilization",
    "AverageRunningContainers", "BytesPerSecond", "BytesPerCpuTime",
})


def _per_machine_daily(monitor: PerformanceMonitor, metric: str) -> np.ndarray:
    """Observation vector for testing: machine-day values of the metric.

    Daily aggregation keeps observations roughly independent (hour-level
    records of one machine are strongly autocorrelated, which would inflate
    t-values). Metrics without a daily aggregate fall back to hour level.
    """
    if metric in _DAILY_METRICS:
        return DEFAULT_REGISTRY.get(metric).extract(monitor.daily_aggregates())
    return monitor.metric(metric)


def _report(
    name: str,
    control: PerformanceMonitor,
    experiment: PerformanceMonitor,
    metrics: tuple[str, ...],
    values: Callable[[PerformanceMonitor, str], np.ndarray] = PerformanceMonitor.metric,
) -> ABReport:
    """Student's t-test of control vs experiment ``values`` on each metric."""
    comparisons = []
    for metric in metrics:
        c, e = values(control, metric), values(experiment, metric)
        comparisons.append(
            MetricComparison(
                metric=metric,
                control_mean=float(np.mean(c)),
                experiment_mean=float(np.mean(e)),
                test=students_t_test(c, e),
            )
        )
    return ABReport(
        name=name,
        comparisons=comparisons,
        n_control=len(control),
        n_experiment=len(experiment),
    )


def compare_groups(
    name: str,
    monitor: PerformanceMonitor,
    assignment: GroupAssignment,
    metrics: tuple[str, ...],
    hour_range: tuple[int, int] | None = None,
    daily: bool = True,
) -> ABReport:
    """Compare control vs experiment machines on each metric."""
    base = monitor if hour_range is None else monitor.filter(hour_range=hour_range)
    control = base.filter(machine_ids=assignment.control_ids)
    experiment = base.filter(machine_ids=assignment.experiment_ids)
    if len(control) < 2 or len(experiment) < 2:
        raise ExperimentError(
            f"experiment {name!r}: not enough records "
            f"({len(control)} control, {len(experiment)} experiment)"
        )
    values = _per_machine_daily if daily else PerformanceMonitor.metric
    return _report(name, control, experiment, metrics, values)


def compare_time_slices(
    name: str,
    monitor: PerformanceMonitor,
    schedule: list[TimeSlice],
    metrics: tuple[str, ...],
) -> ABReport:
    """Compare the control vs experiment *windows* of a time-slicing design."""
    control_hours = {
        h
        for s in schedule
        if s.variant == "control"
        for h in range(int(s.start_hour), int(s.end_hour))
    }
    experiment_hours = {
        h
        for s in schedule
        if s.variant == "experiment"
        for h in range(int(s.start_hour), int(s.end_hour))
    }
    hours = monitor.hours()
    control = PerformanceMonitor(monitor.frame.take(np.isin(hours, list(control_hours))))
    experiment = PerformanceMonitor(monitor.frame.take(np.isin(hours, list(experiment_hours))))
    if len(control) < 2 or len(experiment) < 2:
        raise ExperimentError(f"time-sliced experiment {name!r} lacks telemetry")
    return _report(name, control, experiment, metrics)
