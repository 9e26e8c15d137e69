"""Workload generation: job arrivals over simulated time.

Arrivals are a non-homogeneous Poisson process (thinning against the
seasonality profile's rate ceiling) over a weighted template mix, plus an
optional deterministic cadence of benchmark jobs (the TPC-H/DS-like jobs the
paper re-runs before and after deployment, Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import RngStreams
from repro.utils.units import SECONDS_PER_HOUR, hours
from repro.workload.seasonality import FLAT_PROFILE, SeasonalityProfile, SpikeProfile
from repro.workload.template import JobTemplate, benchmark_templates

__all__ = ["JobArrival", "Workload", "WorkloadGenerator", "estimate_jobs_per_hour"]


@dataclass(frozen=True, slots=True)
class JobArrival:
    """One job arrival: a template instantiated at a point in time."""

    time: float
    template: JobTemplate


@dataclass
class Workload:
    """An ordered list of job arrivals covering ``duration_hours``."""

    arrivals: list[JobArrival] = field(default_factory=list)
    duration_hours: float = 0.0

    def __len__(self) -> int:
        return len(self.arrivals)

    def __iter__(self):
        return iter(self.arrivals)

    @property
    def jobs_per_hour(self) -> float:
        """Realized mean arrival rate."""
        if self.duration_hours <= 0:
            return 0.0
        return len(self.arrivals) / self.duration_hours


class WorkloadGenerator:
    """Generates a :class:`Workload` from a template mix and a rate profile."""

    def __init__(
        self,
        templates: tuple[JobTemplate, ...],
        jobs_per_hour: float,
        seasonality: SeasonalityProfile | SpikeProfile = FLAT_PROFILE,
        streams: RngStreams | None = None,
        benchmark_period_hours: float = 0.0,
    ):
        """``benchmark_period_hours > 0`` injects every benchmark template once
        per period, staggered within the period (0 disables injection)."""
        if jobs_per_hour <= 0:
            raise ValueError(f"jobs_per_hour must be positive, got {jobs_per_hour}")
        weighted = [t for t in templates if t.weight > 0]
        if not weighted:
            raise ValueError("template mix has no template with positive weight")
        self.templates = tuple(weighted)
        self.jobs_per_hour = jobs_per_hour
        self.seasonality = seasonality
        self.streams = streams if streams is not None else RngStreams(0)
        self.benchmark_period_hours = benchmark_period_hours
        weights = np.array([t.weight for t in self.templates], dtype=float)
        # The CDF ``rng.choice(n, p=weights / weights.sum())`` rebuilds on
        # every call; ``generate`` inverts it with the same uniform draw and
        # the same search, so the stream and the picks are unchanged.
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf

    def generate(self, duration_hours: float) -> Workload:
        """Materialize all arrivals in ``[0, duration_hours)``."""
        if duration_hours <= 0:
            raise ValueError("duration_hours must be positive")
        rng = self.streams.get("arrivals")
        horizon = hours(duration_hours)
        max_rate = self.jobs_per_hour * self.seasonality.max_multiplier / SECONDS_PER_HOUR
        arrivals: list[JobArrival] = []

        # Thinned Poisson stream over the template mix.
        t = 0.0
        while True:
            t += rng.exponential(1.0 / max_rate)
            if t >= horizon:
                break
            accept_prob = (
                self.jobs_per_hour
                * self.seasonality.multiplier(t)
                / SECONDS_PER_HOUR
                / max_rate
            )
            if rng.random() < accept_prob:
                pick = self._cdf.searchsorted(rng.random(), side="right")
                template = self.templates[int(pick)]
                arrivals.append(JobArrival(time=t, template=template))

        # Deterministic benchmark cadence (staggered to avoid self-interference).
        if self.benchmark_period_hours > 0:
            benches = benchmark_templates()
            period = hours(self.benchmark_period_hours)
            stagger = period / (len(benches) + 1)
            for i, template in enumerate(benches):
                t = stagger * (i + 1)
                while t < horizon:
                    arrivals.append(JobArrival(time=t, template=template))
                    t += period

        arrivals.sort(key=lambda a: a.time)
        return Workload(arrivals=arrivals, duration_hours=duration_hours)


def estimate_jobs_per_hour(
    total_container_slots: int,
    target_occupancy: float,
    templates: tuple[JobTemplate, ...],
    mean_task_duration_s: float,
) -> float:
    """Back-of-envelope arrival rate hitting a target slot occupancy.

    Little's law: concurrent tasks = arrival_rate × tasks_per_job ×
    task_duration. We solve for the arrival rate that keeps
    ``target_occupancy`` of the cluster's container slots busy. The estimate
    is deliberately rough (durations depend on contention); benchmarks treat
    it as a starting point.
    """
    if not 0.0 < target_occupancy <= 1.0:
        raise ValueError("target_occupancy must be in (0, 1]")
    weighted = [t for t in templates if t.weight > 0]
    if not weighted:
        raise ValueError("template mix has no template with positive weight")
    total_weight = sum(t.weight for t in weighted)
    mean_tasks = sum(t.expected_tasks * t.weight for t in weighted) / total_weight
    target_concurrent = total_container_slots * target_occupancy
    jobs_per_second = target_concurrent / (mean_tasks * mean_task_duration_s)
    return jobs_per_second * SECONDS_PER_HOUR
