"""Workload substrate: SCOPE-like recurring jobs and their arrivals."""

from repro.workload.generator import (
    JobArrival,
    Workload,
    WorkloadGenerator,
    estimate_jobs_per_hour,
)
from repro.workload.job import JobRuntime, normal_stream
from repro.workload.operators import OPERATORS, OperatorSpec, operator_by_name
from repro.workload.seasonality import FLAT_PROFILE, SeasonalityProfile, SpikeProfile
from repro.workload.task import Task
from repro.workload.template import (
    JobTemplate,
    StageSpec,
    benchmark_templates,
    default_templates,
)

__all__ = [
    "JobArrival",
    "Workload",
    "WorkloadGenerator",
    "estimate_jobs_per_hour",
    "JobRuntime",
    "normal_stream",
    "OPERATORS",
    "OperatorSpec",
    "operator_by_name",
    "FLAT_PROFILE",
    "SeasonalityProfile",
    "SpikeProfile",
    "Task",
    "JobTemplate",
    "StageSpec",
    "benchmark_templates",
    "default_templates",
]
