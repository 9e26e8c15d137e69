"""Task: one container's worth of work.

A task is the unit the scheduler places (one task = one container, Section 2).
Its fields are plain data; all execution behaviour (duration under
contention, throttling, I/O penalties) lives in
:class:`repro.cluster.machine.Machine`.

A task carries its own :class:`~repro.workload.job.JobRuntime` and any
queue wait it served on a machine that crashed (``carried_wait``), so the
simulator keeps no side tables for queued or crash-displaced tasks. Once a
task starts, the simulator stamps its run state on it — the hosting
machine, the duration, the task-log row and the sequence number of its
FINISH event — so the task itself is the FINISH payload.

Tasks are built in bulk, one stage at a time, by
:meth:`JobRuntime.start_next_stage` from :func:`~repro.workload.job.normal_stream`
(which owns the ``"stages"`` generator), validated once for the whole
stage on the lists they are built from; the constructor itself does no
checks. The simulator's one placement loop then starts, queues or defers
the stage's tasks in order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - job.py imports this module
    from repro.workload.job import JobRuntime

__all__ = ["Task"]


class Task:
    """A single schedulable task (container)."""

    __slots__ = (
        "job",
        "operator",
        "work_seconds",
        "data_bytes",
        "cpu_fraction",
        "ram_gb",
        "ssd_gb",
        # Queue wait served on a crashed machine, joined into the next
        # placement's wait; 0.0 unless the task was displaced from a queue.
        "carried_wait",
        # Run state, set when the task starts on a machine.
        "machine",
        "duration",
        "log_row",
        # Sequence number of the live FINISH heap entry; a crash cancels the
        # entry by moving this on, so the stale entry is skipped when popped.
        "finish_seq",
    )

    def __init__(
        self,
        job: JobRuntime | None,
        operator: str,
        work_seconds: float,
        data_bytes: float,
        cpu_fraction: float,
        ram_gb: float,
        ssd_gb: float,
    ):
        self.job = job
        self.operator = operator
        self.work_seconds = work_seconds
        self.data_bytes = data_bytes
        self.cpu_fraction = cpu_fraction
        self.ram_gb = ram_gb
        self.ssd_gb = ssd_gb
        self.carried_wait = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task({self.operator}, work={self.work_seconds:.1f}s)"
