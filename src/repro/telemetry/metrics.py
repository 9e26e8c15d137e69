"""The machine-group metric registry (Table 2 of the paper).

Every metric is a named, vectorized extraction over a
:class:`~repro.telemetry.frame.MachineHourFrame` (one value per machine-hour
row), tagged with the system aspect it reflects ("Throughput rate", "CPU processing rate", "Utilization
level", ...). The registry makes metrics first-class: models, optimizers, and
experiment analyses all refer to metrics by name, so adding a metric here
makes it available everywhere (the extensibility Section 5.3 describes).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.telemetry.frame import MachineHourFrame
from repro.utils.errors import TelemetryError

__all__ = ["Metric", "MetricRegistry", "DEFAULT_REGISTRY"]


@dataclass(frozen=True, slots=True)
class Metric:
    """A named per machine-hour metric.

    ``extract`` maps a whole :class:`~repro.telemetry.frame.MachineHourFrame`
    to one value per row in a single vectorized pass.
    """

    name: str
    description: str
    affected_system_metric: str
    extract: Callable[[MachineHourFrame], np.ndarray]


def _column(name: str) -> Callable[[MachineHourFrame], np.ndarray]:
    return lambda f: f.column(name)


def _build_default_metrics() -> tuple[Metric, ...]:
    return (
        # ---- Table 2 rows ------------------------------------------------
        Metric(
            "TotalDataRead",
            "Total bytes read per hour per machine",
            "Throughput rate",
            _column("total_data_read_bytes"),
        ),
        Metric(
            "NumberOfTasks",
            "Total number of tasks finished per hour per machine",
            "Throughput rate",
            lambda f: f.column("tasks_finished").astype(np.float64),
        ),
        Metric(
            "BytesPerSecond",
            "Ratio of total data read and total execution time per machine",
            "Throughput rate",
            lambda f: f.bytes_per_second(),
        ),
        Metric(
            "BytesPerCpuTime",
            "Ratio of total data read and total CPU time per machine",
            "CPU processing rate",
            lambda f: f.bytes_per_cpu_time(),
        ),
        Metric(
            "CpuUtilization",
            "Time-average CPU utilization per hour in percentage",
            "Utilization level",
            _column("cpu_utilization"),
        ),
        Metric(
            "AverageRunningContainers",
            "Time-average running containers per hour",
            "Utilization level",
            _column("avg_running_containers"),
        ),
        # ---- Additional metrics used by KEA applications ------------------
        Metric(
            "AverageTaskSeconds",
            "Mean execution time of tasks finished in the hour",
            "Latency",
            lambda f: f.avg_task_seconds(),
        ),
        Metric(
            "QueueLength",
            "Time-average number of queued containers",
            "Queueing",
            _column("queue_avg_length"),
        ),
        Metric(
            "QueueWaitP99",
            "99th percentile of container queueing latency in the hour",
            "Queueing",
            lambda f: f.queue_p99_wait(),
        ),
        Metric(
            "PowerWatts",
            "Time-average power draw in watts",
            "Power",
            _column("avg_power_watts"),
        ),
        Metric(
            "RamInUse",
            "Time-average RAM in use (GB)",
            "Resource usage",
            _column("avg_ram_gb_in_use"),
        ),
        Metric(
            "SsdInUse",
            "Time-average SSD in use (GB)",
            "Resource usage",
            _column("avg_ssd_gb_in_use"),
        ),
        Metric(
            "CoresInUse",
            "Time-average CPU cores in use",
            "Resource usage",
            _column("avg_cores_in_use"),
        ),
    )


class MetricRegistry:
    """Name → :class:`Metric` lookup with registration."""

    def __init__(self, metrics: tuple[Metric, ...] = ()):
        self._metrics: dict[str, Metric] = {}
        for metric in metrics:
            self.register(metric)

    def register(self, metric: Metric) -> None:
        """Add a metric; names must be unique."""
        if metric.name in self._metrics:
            raise TelemetryError(f"metric {metric.name!r} is already registered")
        self._metrics[metric.name] = metric

    def get(self, name: str) -> Metric:
        """Look up a metric by name."""
        try:
            return self._metrics[name]
        except KeyError:
            known = ", ".join(sorted(self._metrics))
            raise TelemetryError(
                f"unknown metric {name!r}; registered metrics: {known}"
            ) from None

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def all(self) -> list[Metric]:
        """All registered metrics, sorted by name."""
        return [self._metrics[name] for name in self.names()]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics


DEFAULT_REGISTRY = MetricRegistry(_build_default_metrics())
"""The registry with all Table 2 metrics plus the KEA application extras."""

