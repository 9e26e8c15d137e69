"""Job runtime: stage-barrier execution state and critical-path tracking.

A job instance executes its template's stages in order; a stage starts only
when the previous one has fully finished (stage barrier). The *critical path*
of such a job is, per stage, the last task to finish — exactly the
"slow tasks in the critical path" the Level III abstraction keys on
(Section 3.2): protecting those tasks protects job runtime.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, islice, repeat
from math import exp
from operator import add, mul

import numpy as np

from repro.workload.task import Task
from repro.workload.template import JobTemplate

__all__ = ["normal_stream", "JobRuntime"]

#: Standard normals per refill of a :func:`normal_stream` (~130 KB as floats).
BLOCK = 4096


def normal_stream(rng: np.random.Generator) -> Iterator[float]:
    """``rng``'s standard normals as plain floats, the only draws jobs make.

    ``exp(mu + sigma * z)`` (libm, not ``np.exp``) and ``loc + scale * z`` on
    them are bit for bit numpy's ``lognormal`` and ``normal``. The stream owns
    its generator, the simulator's ``"stages"`` stream: it draws ahead, so any
    other draw from that generator would reorder every later stage.
    """
    return chain.from_iterable(iter(lambda: rng.standard_normal(BLOCK).tolist(), None))


class JobRuntime:
    """Execution state of one job instance."""

    __slots__ = (
        "job_id",
        "template",
        "submit_time",
        "size_multiplier",
        "current_stage",
        "remaining_in_stage",
        "n_tasks_total",
        "total_task_seconds",
        "last_finish_time",
        "last_finish_log_row",
        "finished",
    )

    def __init__(
        self,
        job_id: int,
        template: JobTemplate,
        submit_time: float,
        stream: Iterator[float],
    ):
        self.job_id = job_id
        self.template = template
        self.submit_time = submit_time
        sigma = template.size_sigma  # of the log-normal, mean-1.0 size multiplier
        self.size_multiplier = 1.0 if sigma <= 0 else exp(-sigma**2 / 2.0 + sigma * next(stream))
        self.current_stage = -1
        self.remaining_in_stage = 0
        self.n_tasks_total = 0
        self.total_task_seconds = 0.0
        self.last_finish_time = submit_time
        self.last_finish_log_row = -1
        self.finished = False

    @property
    def has_next_stage(self) -> bool:
        """True when at least one stage has not started yet."""
        return self.current_stage + 1 < len(self.template.stages)

    def start_next_stage(self, stream: Iterator[float]) -> list[Task]:
        """Materialize the next stage's tasks and advance the stage pointer.

        Draws from the simulator's :func:`normal_stream`, in order: the task
        count (unless fixed), then every task's work, data, RAM and SSD.
        """
        if not self.has_next_stage:
            raise RuntimeError(f"job {self.job_id} has no next stage to start")
        if self.remaining_in_stage != 0:
            raise RuntimeError(
                f"job {self.job_id} stage {self.current_stage} still has "
                f"{self.remaining_in_stage} unfinished tasks"
            )
        self.current_stage += 1
        spec = self.template.stages[self.current_stage]
        (name, cpu, work_mu, work_sigma, data_mu, data_sigma,
         ram_loc, ram_scale, ssd_loc, ssd_scale) = spec.draw
        mean = spec.n_tasks_mean * self.size_multiplier
        sigma = spec.n_tasks_sigma
        if sigma <= 0:
            n = max(1, round(mean))
        else:
            n = max(1, round(exp(np.log(mean) - sigma**2 / 2.0 + sigma * next(stream))))
        z = list(islice(stream, 4 * n))
        # exp(mu + sigma * z) through C-level maps: no Python call per task.
        work = list(map(exp, map(add, repeat(work_mu), map(mul, repeat(work_sigma), z[:n]))))
        data = list(
            map(exp, map(add, repeat(data_mu), map(mul, repeat(data_sigma), z[n : 2 * n])))
        )
        # Task parameters are validated here, once per stage, on the lists
        # (NaN fails the comparisons too); ``cpu_fraction`` is checked by
        # OperatorSpec.
        if not all(map((0.0).__lt__, work)):
            raise ValueError(f"{name}: work_seconds must be positive")
        if not all(map((0.0).__le__, data)):
            raise ValueError(f"{name}: data_bytes must be non-negative")
        tasks = [  # RAM and SSD clamped below at 0.25 and 0.5 GB
            Task(self, name, w, d, cpu, 0.25 if (r := ram_loc + ram_scale * zr) < 0.25 else r,
                 0.5 if (s := ssd_loc + ssd_scale * zs) < 0.5 else s)
            for w, d, zr, zs in zip(work, data, z[2 * n : 3 * n], z[3 * n :], strict=True)
        ]
        self.remaining_in_stage = n
        self.n_tasks_total += n
        self.last_finish_log_row = -1
        return tasks

    def on_task_finish(self, finish_time: float, duration: float, log_row: int) -> bool:
        """Record one task completion; returns True when the stage completed.

        ``log_row`` is the task's row in the task log (−1 if unsampled); the
        caller uses the stage's final ``last_finish_log_row`` to patch the
        critical flag.
        """
        if self.remaining_in_stage <= 0:
            raise RuntimeError(f"job {self.job_id} has no running tasks to finish")
        self.remaining_in_stage -= 1
        self.total_task_seconds += duration
        if finish_time >= self.last_finish_time:
            self.last_finish_time = finish_time
            self.last_finish_log_row = log_row
        return self.remaining_in_stage == 0
