"""Job templates: the recurring-job abstraction.

A *job template* is a recurring job with the specific data inputs removed
(Section 3.2, footnote 1). Instances of the same template have statistically
similar shape, which is what makes implicit SLOs meaningful: the recent
runtimes of a template bound the expected runtime of its next instance.

A template is a chain of stages (SCOPE jobs compile to DAGs; a chain with a
barrier between stages preserves the critical-path structure the paper relies
on). Stage task counts and per-task work are sampled per instance, with a
template-level size multiplier so "the same job on bigger data" is captured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.workload.operators import operator_by_name

__all__ = [
    "StageSpec",
    "JobTemplate",
    "default_templates",
    "benchmark_templates",
]


def _check(spec: object, name: str, low: float, closed: bool = True) -> None:
    """Reject a NaN or infinite field, or one below ``low`` (or at it, unless
    ``closed``): a draw would crash on it or silently misread it."""
    value = getattr(spec, name)
    if not (math.isfinite(value) and (value >= low if closed else value > low)):
        bound = f"{'>=' if closed else '>'} {low}"
        raise ValueError(f"{name} must be finite and {bound}, got {value}")


@dataclass(frozen=True, slots=True)
class StageSpec:
    """One stage of a template: an operator fanned out over tasks."""

    operator: str
    n_tasks_mean: float
    n_tasks_sigma: float = 0.3  # log-space sigma; 0 = deterministic count
    work_scale: float = 1.0
    data_scale: float = 1.0
    #: Task-draw constants, derived once: ``(operator, cpu_fraction, work_mu,
    #: work_sigma, data_mu, data_sigma, ram_loc, ram_scale, ssd_loc, ssd_scale)``.
    draw: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        op = operator_by_name(self.operator)  # validate eagerly
        _check(self, "n_tasks_mean", 1)
        _check(self, "n_tasks_sigma", 0)
        _check(self, "work_scale", 0, closed=False)
        _check(self, "data_scale", 0, closed=False)
        # Log-normal mu = ln(mean) - sigma^2 / 2 makes the mean the scaled
        # spec mean; np.log because math.log differs in the last bit.
        ram, ssd = op.ram_gb_per_container, op.ssd_gb_per_container
        object.__setattr__(self, "draw", (
            op.name, op.cpu_fraction,
            float(np.log(op.work_mean_s * self.work_scale)) - op.work_sigma**2 / 2.0,
            op.work_sigma,
            float(np.log(op.data_mean_bytes * self.data_scale)) - op.data_sigma**2 / 2.0,
            op.data_sigma, ram, ram * 0.2, ssd, ssd * 0.2,
        ))


@dataclass(frozen=True, slots=True)
class JobTemplate:
    """A recurring job: named chain of stages plus an arrival-mix weight."""

    name: str
    stages: tuple[StageSpec, ...]
    weight: float = 1.0
    size_sigma: float = 0.25  # log-space sigma of the per-instance size multiplier
    is_benchmark: bool = False

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError(f"template {self.name!r} needs at least one stage")
        _check(self, "weight", 0)
        _check(self, "size_sigma", 0)

    @property
    def expected_tasks(self) -> float:
        """Expected task count of one instance (for load calibration)."""
        return float(sum(stage.n_tasks_mean for stage in self.stages))

    def expected_work_seconds(self) -> float:
        """Expected total normalized CPU work of one instance."""
        total = 0.0
        for stage in self.stages:
            op = operator_by_name(stage.operator)
            total += stage.n_tasks_mean * op.work_mean_s * stage.work_scale
        return total


def default_templates() -> tuple[JobTemplate, ...]:
    """The production-like template mix used across the benchmarks.

    Mirrors the qualitative mix Section 2 describes: mostly small/medium
    recurring SCOPE jobs, a tail of large multi-stage pipelines.
    """
    return (
        JobTemplate(
            name="hourly_ingest",
            stages=(
                StageSpec("Extract", n_tasks_mean=12),
                StageSpec("Process", n_tasks_mean=8),
            ),
            weight=3.0,
        ),
        JobTemplate(
            name="log_cook",
            stages=(
                StageSpec("Extract", n_tasks_mean=16),
                StageSpec("Partition", n_tasks_mean=10),
                StageSpec("Aggregate", n_tasks_mean=6),
            ),
            weight=2.5,
        ),
        JobTemplate(
            name="ad_hoc_query",
            stages=(
                StageSpec("Extract", n_tasks_mean=6, work_scale=0.6),
                StageSpec("Aggregate", n_tasks_mean=4, work_scale=0.6),
            ),
            weight=4.0,
        ),
        JobTemplate(
            name="daily_rollup",
            stages=(
                StageSpec("Extract", n_tasks_mean=20),
                StageSpec("Combine", n_tasks_mean=12),
                StageSpec("PodAggregate", n_tasks_mean=8),
                StageSpec("Aggregate", n_tasks_mean=4),
            ),
            weight=1.5,
        ),
        JobTemplate(
            name="index_build",
            stages=(
                StageSpec("Extract", n_tasks_mean=18),
                StageSpec("IndexedPartition", n_tasks_mean=14, work_scale=1.2),
                StageSpec("Combine", n_tasks_mean=8),
            ),
            weight=1.0,
        ),
        JobTemplate(
            name="feature_join",
            stages=(
                StageSpec("Extract", n_tasks_mean=10),
                StageSpec("Cross", n_tasks_mean=8, work_scale=1.1),
                StageSpec("Process", n_tasks_mean=6),
            ),
            weight=1.0,
        ),
        JobTemplate(
            name="ml_prep_pipeline",
            stages=(
                StageSpec("Extract", n_tasks_mean=14),
                StageSpec("Split", n_tasks_mean=10),
                StageSpec("Process", n_tasks_mean=12, work_scale=1.3),
                StageSpec("Partition", n_tasks_mean=8),
                StageSpec("Aggregate", n_tasks_mean=5),
            ),
            weight=0.8,
        ),
    )


def benchmark_templates() -> tuple[JobTemplate, ...]:
    """Three TPC-H/TPC-DS-flavoured benchmark jobs (Figure 11).

    Benchmark instances use low size variance so before/after runtime
    comparisons measure the *cluster*, not the workload draw.
    """
    return (
        JobTemplate(
            name="tpch_q1_like",
            stages=(
                StageSpec("Extract", n_tasks_mean=16, n_tasks_sigma=0.0),
                StageSpec("Aggregate", n_tasks_mean=8, n_tasks_sigma=0.0),
            ),
            weight=0.0,
            size_sigma=0.05,
            is_benchmark=True,
        ),
        JobTemplate(
            name="tpch_q18_like",
            stages=(
                StageSpec("Extract", n_tasks_mean=14, n_tasks_sigma=0.0),
                StageSpec("Cross", n_tasks_mean=10, n_tasks_sigma=0.0),
                StageSpec("Aggregate", n_tasks_mean=6, n_tasks_sigma=0.0),
            ),
            weight=0.0,
            size_sigma=0.05,
            is_benchmark=True,
        ),
        JobTemplate(
            name="tpcds_q64_like",
            stages=(
                StageSpec("Extract", n_tasks_mean=12, n_tasks_sigma=0.0),
                StageSpec("Partition", n_tasks_mean=10, n_tasks_sigma=0.0),
                StageSpec("Cross", n_tasks_mean=8, n_tasks_sigma=0.0),
                StageSpec("Aggregate", n_tasks_mean=6, n_tasks_sigma=0.0),
            ),
            weight=0.0,
            size_sigma=0.05,
            is_benchmark=True,
        ),
    )
