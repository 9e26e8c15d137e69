"""Job runtime: stage-barrier execution state and critical-path tracking.

A job instance executes its template's stages in order; a stage starts only
when the previous one has fully finished (stage barrier). The *critical path*
of such a job is, per stage, the last task to finish — exactly the
"slow tasks in the critical path" the Level III abstraction keys on
(Section 3.2): protecting those tasks protects job runtime.
"""

from __future__ import annotations

import numpy as np

from repro.workload.operators import operator_by_name, sample_task_params
from repro.workload.task import Task
from repro.workload.template import JobTemplate

__all__ = ["JobRuntime"]


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
        rng: np.random.Generator,
    ):
        self.job_id = job_id
        self.template = template
        self.submit_time = submit_time
        self.size_multiplier = template.sample_size_multiplier(rng)
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

    def start_next_stage(self, rng: np.random.Generator) -> list[Task]:
        """Materialize the next stage's tasks and advance the stage pointer."""
        if not self.has_next_stage:
            raise RuntimeError(f"job {self.job_id} has no next stage to start")
        if self.remaining_in_stage != 0:
            raise RuntimeError(
                f"job {self.job_id} stage {self.current_stage} still has "
                f"{self.remaining_in_stage} unfinished tasks"
            )
        self.current_stage += 1
        spec = self.template.stages[self.current_stage]
        op = operator_by_name(spec.operator)
        n_tasks = spec.sample_n_tasks(rng, self.size_multiplier)
        work, data, ram, ssd = sample_task_params(
            op, n_tasks, rng, work_scale=spec.work_scale, data_scale=spec.data_scale
        )
        work, data = work.tolist(), data.tolist()
        # Task parameters are validated here, once per stage, on the lists
        # (NaN fails the comparisons too); ``cpu_fraction`` is checked by
        # OperatorSpec.
        if not all(map((0.0).__lt__, work)):
            raise ValueError(f"{op.name}: work_seconds must be positive")
        if not all(map((0.0).__le__, data)):
            raise ValueError(f"{op.name}: data_bytes must be non-negative")
        name, cpu = op.name, op.cpu_fraction
        tasks = [
            Task(self, name, w, d, cpu, r, s)
            for w, d, r, s in zip(work, data, ram.tolist(), ssd.tolist(), strict=True)
        ]
        self.remaining_in_stage = n_tasks
        self.n_tasks_total += n_tasks
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
