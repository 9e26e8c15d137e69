"""The Performance Monitor (Section 4.1).

Joins simulator telemetry into the machine-hour observations all KEA analyses
consume, with filtering, grouping, and the *daily aggregation* used to fit the
calibrated models of Figure 9 ("each small dot corresponds to an observation
aggregated at the daily level for a machine").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telemetry.frame import MachineHourFrame
from repro.telemetry.metrics import DEFAULT_REGISTRY, MetricRegistry
from repro.utils.errors import TelemetryError
from repro.utils.units import left_sum

__all__ = ["MachineDayRecord", "MonitorSnapshot", "PerformanceMonitor"]

#: ``MachineDayRecord`` fields reduced from the same-named hour column, in order.
_DAY_REDUCTIONS = (
    ("cpu_utilization", np.mean),
    ("avg_running_containers", np.mean),
    ("total_data_read_bytes", np.sum),
    ("tasks_finished", np.sum),
    ("total_task_seconds", np.sum),
    ("total_cpu_seconds", np.sum),
)


@dataclass(frozen=True, slots=True)
class MonitorSnapshot:
    """Compact cluster-wide readout of one observation window.

    The continuous tuning service ships these between processes instead of
    whole machine-hour frames when only headline numbers are needed (campaign
    history lines, fleet dashboards).
    """

    n_records: int
    n_machines: int
    hours_observed: int
    mean_cpu_utilization: float
    avg_task_seconds: float
    total_data_read_bytes: float
    tasks_finished: int

    def summary(self) -> str:
        """One-line operator readout."""
        return (
            f"{self.n_machines} machines × {self.hours_observed}h: "
            f"cpu {self.mean_cpu_utilization:.0%}, "
            f"task latency {self.avg_task_seconds:.0f}s, "
            f"data read {self.total_data_read_bytes / 1e12:.2f} TB, "
            f"{self.tasks_finished} tasks"
        )


@dataclass(frozen=True, slots=True)
class MachineDayRecord:
    """One machine-day aggregate (the dots of Figure 9)."""

    machine_id: int
    sku: str
    software: str
    day: int
    cpu_utilization: float
    avg_running_containers: float
    total_data_read_bytes: float
    tasks_finished: int
    total_task_seconds: float
    total_cpu_seconds: float
    hours_observed: int

    @property
    def group(self) -> str:
        """Machine-group label (SC–SKU combination)."""
        return f"{self.software}_{self.sku}"

    @property
    def tasks_per_hour(self) -> float:
        """Tasks finished per observed hour (the `l` of Eq. 3–4)."""
        if self.hours_observed <= 0:
            return 0.0
        return self.tasks_finished / self.hours_observed

    @property
    def avg_task_seconds(self) -> float:
        """Mean task execution time over the day (the `w` of Eq. 5–6)."""
        if self.tasks_finished <= 0:
            return 0.0
        return self.total_task_seconds / self.tasks_finished

    @property
    def bytes_per_cpu_time(self) -> float:
        """Data read per CPU-second over the day."""
        if self.total_cpu_seconds <= 0:
            return 0.0
        return self.total_data_read_bytes / self.total_cpu_seconds

    @property
    def bytes_per_second(self) -> float:
        """Data read per task-execution-second over the day."""
        if self.total_task_seconds <= 0:
            return 0.0
        return self.total_data_read_bytes / self.total_task_seconds


class PerformanceMonitor:
    """A queryable collection of machine-hour observations.

    Backed by a columnar :class:`~repro.telemetry.frame.MachineHourFrame`:
    filtering, grouping, metric extraction and daily aggregation are all
    column operations. The frame is taken by reference (the simulator's
    output is shared, not copied); a monitor built without one starts from
    its own empty frame.
    """

    def __init__(self, frame: MachineHourFrame | None = None):
        self.frame = MachineHourFrame() if frame is None else frame

    def __len__(self) -> int:
        return len(self.frame)

    # ------------------------------------------------------------------
    # Filtering / grouping
    # ------------------------------------------------------------------
    def filter(
        self,
        group: str | None = None,
        sku: str | None = None,
        software: str | None = None,
        hour_range: tuple[int, int] | None = None,
        machine_ids: set[int] | None = None,
    ) -> "PerformanceMonitor":
        """Return a new monitor restricted to matching rows.

        ``hour_range`` is half-open ``[start, end)``. All criteria AND
        together into one boolean mask over the frame (row order preserved).
        """
        frame = self.frame
        mask = np.ones(len(frame), dtype=bool)
        if group is not None:
            mask &= self._group_mask(group)
        if sku is not None:
            mask &= self._label_mask("sku", sku)
        if software is not None:
            mask &= self._label_mask("software", software)
        if hour_range is not None:
            start, end = hour_range
            hours = frame.column("hour")
            mask &= (hours >= start) & (hours < end)
        if machine_ids is not None:
            ids = np.fromiter(machine_ids, dtype=np.int64, count=len(machine_ids))
            mask &= np.isin(frame.column("machine_id"), ids)
        if mask.all():
            return PerformanceMonitor(frame)
        return PerformanceMonitor(frame.take(mask))

    def _label_mask(self, column: str, value: str) -> np.ndarray:
        categories = self.frame.categories(column)
        code = categories.index(value) if value in categories else -1
        return self.frame.codes(column) == code

    def _group_mask(self, label: str) -> np.ndarray:
        combined, labels = self.frame.group_codes()
        try:
            wanted = labels.index(label)
        except ValueError:
            return np.zeros(len(self.frame), dtype=bool)
        return combined == wanted

    def groups(self) -> list[str]:
        """Sorted machine-group labels present in the data."""
        combined, labels = self.frame.group_codes()
        return sorted(labels[code] for code in np.unique(combined))

    def skus(self) -> list[str]:
        """Sorted SKU names present in the data."""
        cats = self.frame.categories("sku")
        return sorted(cats[code] for code in np.unique(self.frame.codes("sku")))

    def by_group(self) -> dict[str, "PerformanceMonitor"]:
        """Split into one monitor per machine group."""
        combined, labels = self.frame.group_codes()
        return {
            labels[code]: PerformanceMonitor(self.frame.take(combined == code))
            for code in sorted(np.unique(combined), key=lambda c: labels[c])
        }

    # ------------------------------------------------------------------
    # Metric extraction
    # ------------------------------------------------------------------
    def metric(self, name: str, registry: MetricRegistry = DEFAULT_REGISTRY) -> np.ndarray:
        """One metric across all rows, as a float array."""
        return registry.get(name).extract(self.frame).astype(float)

    def hours(self) -> np.ndarray:
        """The ``hour`` column across all rows."""
        return self.frame.column("hour").astype(int)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def daily_aggregates(self, min_hours: int = 1) -> list[MachineDayRecord]:
        """Aggregate to machine-day observations (Figure 9's granularity).

        Machine-days observed fewer than ``min_hours`` hours are dropped:
        partially observed days (e.g. around a flight boundary) would
        otherwise bias sums like Total Data Read downward. A bucket holds at
        most 24 hours, so ``min_hours`` must lie in ``[1, 24]``.

        Buckets are (machine, group label, day) in sorted order — a machine
        re-imaged mid-window (SC flips) must not mix its SC1 and SC2 hours —
        with frame order kept inside each. Equal-size buckets are reduced as
        the rows of one 2-D array: numpy sums each contiguous row with the
        same pairwise kernel as a 1-D array, so results are bit-identical to
        reducing each bucket alone (padding to one width would not be).
        """
        if not 1 <= min_hours <= 24:
            raise TelemetryError(f"min_hours must be in [1, 24], got {min_hours}")
        frame = self.frame
        if not len(frame):
            return []
        combined, labels = frame.group_codes()
        rank = {label: i for i, label in enumerate(sorted(labels))}
        group = np.array([rank[label] for label in labels], dtype=np.int64)
        keys = np.stack((frame.column("machine_id"), group[combined], frame.column("hour") // 24))
        order = np.lexsort(keys[::-1])
        keys = keys[:, order]
        starts = np.flatnonzero(np.r_[True, (keys[:, 1:] != keys[:, :-1]).any(axis=0)])
        sizes = np.diff(np.r_[starts, len(order)])
        keep = sizes >= min_hours
        starts, sizes = starts[keep], sizes[keep]

        reduced = {
            name: np.empty(len(starts), dtype=frame.column(name).dtype)
            for name, _ in _DAY_REDUCTIONS
        }
        for size in np.unique(sizes).tolist():
            selected = sizes == size
            rows = order[starts[selected][:, None] + np.arange(size)]
            for name, reduce in _DAY_REDUCTIONS:
                reduced[name][selected] = reduce(frame.column(name)[rows], axis=1)

        first = order[starts]
        return [
            MachineDayRecord(*values)
            for values in zip(
                keys[0, starts].tolist(),
                frame.labels("sku")[first].tolist(),
                frame.labels("software")[first].tolist(),
                keys[2, starts].tolist(),
                *(reduced[name].tolist() for name, _ in _DAY_REDUCTIONS),
                sizes.tolist(),
                strict=True,
            )
        ]

    def cluster_average_task_latency(self) -> float:
        """Cluster-wide mean task execution time (the paper's `W̄`).

        The float total is a left-to-right sum over the column (not numpy's
        pairwise reduction) so the value stays bit-identical to the
        historical per-record accumulation.
        """
        total_seconds = left_sum(self.frame.column("total_task_seconds").tolist())
        total_tasks = int(self.frame.column("tasks_finished").sum())
        if total_tasks <= 0:
            return 0.0
        return total_seconds / total_tasks

    def total_data_read_bytes(self) -> float:
        """Cluster-wide Total Data Read over all rows."""
        return float(left_sum(self.frame.column("total_data_read_bytes").tolist()))

    def snapshot(self) -> MonitorSnapshot:
        """Headline numbers of this window as a :class:`MonitorSnapshot`."""
        frame = self.frame
        cpu = (
            float(np.mean(frame.column("cpu_utilization"))) if len(frame) else 0.0
        )
        return MonitorSnapshot(
            n_records=len(frame),
            n_machines=len(np.unique(frame.column("machine_id"))),
            hours_observed=len(np.unique(frame.column("hour"))),
            mean_cpu_utilization=cpu,
            avg_task_seconds=self.cluster_average_task_latency(),
            total_data_read_bytes=self.total_data_read_bytes(),
            tasks_finished=int(frame.column("tasks_finished").sum()),
        )
