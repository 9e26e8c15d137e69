"""Telemetry: the machine-hour frame, the machine-day columns the monitor
aggregates it to, job/task/resource records, the Table 2 metric registry, the
Performance Monitor, and dashboard-style views."""

from repro.telemetry.export import (
    read_machine_hours_csv,
    write_jobs_csv,
    write_machine_hours_csv,
)
from repro.telemetry.frame import MachineHourFrame
from repro.telemetry.metrics import (
    DEFAULT_REGISTRY,
    Metric,
    MetricRegistry,
)
from repro.telemetry.monitor import (
    MachineDays,
    MonitorSnapshot,
    PerformanceMonitor,
)
from repro.telemetry.records import (
    JobRecord,
    ResourceSample,
    TaskLog,
)
from repro.telemetry.views import (
    PercentileBands,
    ScatterSeries,
    ecdf,
    scatter_view,
    utilization_bands,
)

__all__ = [
    "read_machine_hours_csv",
    "write_jobs_csv",
    "write_machine_hours_csv",
    "MachineHourFrame",
    "DEFAULT_REGISTRY",
    "Metric",
    "MetricRegistry",
    "MachineDays",
    "MonitorSnapshot",
    "PerformanceMonitor",
    "JobRecord",
    "ResourceSample",
    "TaskLog",
    "PercentileBands",
    "ScatterSeries",
    "ecdf",
    "scatter_view",
    "utilization_bands",
]
