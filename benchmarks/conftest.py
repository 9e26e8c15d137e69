"""Session-scoped simulation fixtures shared across benchmarks.

Simulations are the expensive part; each is run once per session and the
benchmarked callables are the (fast, deterministic) analysis steps — the same
split the paper has between collecting telemetry and modeling it.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterSimulator,
    SimulationConfig,
    build_cluster,
    default_fleet_spec,
    small_fleet_spec,
)
from repro.core import Kea
from repro.telemetry import PerformanceMonitor
from repro.utils.rng import RngStreams
from repro.workload import (
    SeasonalityProfile,
    WorkloadGenerator,
    default_templates,
    estimate_jobs_per_hour,
)

BENCH_SEED = 20210620  # SIGMOD'21 opening day


@pytest.fixture(scope="session")
def production_run():
    """One day of 'production' on a mid-size fleet with full task logging."""
    cluster = build_cluster(default_fleet_spec(scale=0.4))
    rate = estimate_jobs_per_hour(
        cluster.total_container_slots, 0.62, default_templates(),
        mean_task_duration_s=420.0,
    )
    workload = WorkloadGenerator(
        default_templates(),
        jobs_per_hour=rate,
        seasonality=SeasonalityProfile(),
        streams=RngStreams(BENCH_SEED),
        benchmark_period_hours=6.0,
    ).generate(24.0)
    simulator = ClusterSimulator(
        cluster,
        workload,
        streams=RngStreams(BENCH_SEED + 1),
        config=SimulationConfig(
            task_log_sample_rate=1.0,
            resource_sample_period_s=60.0,
            resource_sample_machines=24,
            resource_sample_sku="Gen 4.1",
        ),
    )
    result = simulator.run(24.0)
    return cluster, result, PerformanceMonitor(result.frame)


@pytest.fixture(scope="session")
def kea_env():
    """A Kea environment on the small fleet, observed for one day."""
    kea = Kea(fleet_spec=small_fleet_spec(), seed=BENCH_SEED)
    observation = kea.observe(days=1.0, benchmark_period_hours=6.0)
    engine = kea.calibrate(observation.monitor)
    return kea, observation, engine
