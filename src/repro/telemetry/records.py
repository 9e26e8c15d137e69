"""Non-machine-hour telemetry types emitted by the cluster simulator.

The Performance Monitor (Section 4.1 of the paper) joins data from various
Cosmos sources into *machine-hour* observations; those observations are the
only thing KEA's models ever see, and they live in one columnar
:class:`~repro.telemetry.frame.MachineHourFrame` (the unit of the scatter
view in Figure 8 and, after daily aggregation, of Figure 9). This module holds
the other telemetry the simulator produces:

* :class:`JobRecord` — one row per completed job (implicit SLOs, Figure 11).
* :class:`TaskLog` — a columnar, optionally sampled log of individual tasks
  (task-time ECDFs and critical-path shares of Figure 5, the task-type
  uniformity check of Figure 6).
* :class:`ResourceSample` — fine-grained (cores, RAM, SSD) usage samples for
  the SKU-design application (Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["JobRecord", "TaskLog", "ResourceSample"]


@dataclass(slots=True)
class JobRecord:
    """One completed job: template identity plus runtime bookkeeping."""

    job_id: int
    template: str
    submit_time: float
    finish_time: float
    n_tasks: int
    total_task_seconds: float
    is_benchmark: bool = False

    @property
    def runtime(self) -> float:
        """End-to-end job runtime in seconds."""
        return self.finish_time - self.submit_time


class TaskLog:
    """Columnar log of (optionally sampled) individual task executions.

    Python objects per task would dominate memory at realistic scales, so the
    log keeps parallel primitive lists and converts to ``numpy`` arrays on
    demand. ``critical`` is patched after the fact: a task is only known to be
    critical (last finisher of its stage) once the whole stage completes.
    """

    def __init__(self, sample_rate: float = 1.0):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.sample_rate = sample_rate
        self.sku: list[str] = []
        self.software: list[str] = []
        self.rack: list[int] = []
        self.op: list[str] = []
        self.duration: list[float] = []
        self.data_bytes: list[float] = []
        self.cpu_seconds: list[float] = []
        self.start: list[float] = []
        self.queue_wait: list[float] = []
        self.critical: list[bool] = []
        self.job_template: list[str] = []

    def __len__(self) -> int:
        return len(self.duration)

    def append(
        self,
        sku: str,
        software: str,
        rack: int,
        op: str,
        duration: float,
        data_bytes: float,
        cpu_seconds: float,
        start: float,
        queue_wait: float,
        job_template: str,
    ) -> int:
        """Append one task row and return its row index (for later patching)."""
        self.sku.append(sku)
        self.software.append(software)
        self.rack.append(rack)
        self.op.append(op)
        self.duration.append(duration)
        self.data_bytes.append(data_bytes)
        self.cpu_seconds.append(cpu_seconds)
        self.start.append(start)
        self.queue_wait.append(queue_wait)
        self.critical.append(False)
        self.job_template.append(job_template)
        return len(self.duration) - 1

    def mark_critical(self, row: int) -> None:
        """Flag the task at ``row`` as lying on its job's critical path."""
        self.critical[row] = True

    def durations_by_sku(self) -> dict[str, np.ndarray]:
        """Task-duration arrays keyed by SKU (Figure 5 left)."""
        return self._group_values(self.sku, self.duration)

    def critical_share_by_sku(self) -> dict[str, float]:
        """Fraction of logged tasks that were critical, per SKU (Figure 5 right)."""
        totals: dict[str, int] = {}
        criticals: dict[str, int] = {}
        for sku, crit in zip(self.sku, self.critical, strict=True):
            totals[sku] = totals.get(sku, 0) + 1
            if crit:
                criticals[sku] = criticals.get(sku, 0) + 1
        return {
            sku: criticals.get(sku, 0) / total for sku, total in totals.items() if total
        }

    def op_mix_by(self, key: str) -> dict[object, dict[str, float]]:
        """Task-type mix (fractions summing to 1) grouped by ``key``.

        ``key`` is ``'rack'`` or ``'sku'`` — the two groupings of Figure 6.
        """
        if key == "rack":
            groups: list[object] = list(self.rack)
        elif key == "sku":
            groups = list(self.sku)
        else:
            raise ValueError(f"unsupported grouping {key!r}; use 'rack' or 'sku'")
        counts: dict[object, dict[str, int]] = {}
        for group, op in zip(groups, self.op, strict=True):
            counts.setdefault(group, {})
            counts[group][op] = counts[group].get(op, 0) + 1
        mix: dict[object, dict[str, float]] = {}
        for group, ops in counts.items():
            total = sum(ops.values())
            mix[group] = {op: n / total for op, n in ops.items()}
        return mix

    @staticmethod
    def _group_values(
        keys: list[str], values: list[float]
    ) -> dict[str, np.ndarray]:
        grouped: dict[str, list[float]] = {}
        for key, value in zip(keys, values, strict=True):
            grouped.setdefault(key, []).append(value)
        return {key: np.asarray(vals) for key, vals in grouped.items()}


@dataclass(slots=True)
class ResourceSample:
    """A point-in-time (cores, RAM, SSD) usage sample for one machine."""

    machine_id: int
    sku: str
    software: str
    time: float
    cores_in_use: float
    ram_gb_in_use: float
    ssd_gb_in_use: float
