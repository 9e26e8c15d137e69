"""Figure 1: CPU utilization for a typical week (percentile bands).

Paper: the 25-75th and 5-95th percentile bands of per-machine CPU
utilization over a week, averaging above 60%. We simulate a full week with
diurnal and weekend seasonality on a small fleet and regenerate the bands.
"""

import pytest

from benchmarks.common import emit
from repro.cluster import ClusterSimulator, build_cluster, default_fleet_spec
from repro.telemetry import PerformanceMonitor, utilization_bands
from repro.utils.rng import RngStreams
from repro.utils.tables import TextTable
from repro.workload import (
    SeasonalityProfile,
    WorkloadGenerator,
    default_templates,
    estimate_jobs_per_hour,
)


@pytest.fixture(scope="module")
def weekly_run():
    cluster = build_cluster(default_fleet_spec(scale=0.15))
    rate = estimate_jobs_per_hour(
        cluster.total_container_slots, 0.68, default_templates(),
        mean_task_duration_s=420.0,
    )
    workload = WorkloadGenerator(
        default_templates(), jobs_per_hour=rate,
        seasonality=SeasonalityProfile(diurnal_amplitude=0.25, weekend_dip=0.2),
        streams=RngStreams(11),
    ).generate(168.0)
    simulator = ClusterSimulator(cluster, workload, streams=RngStreams(12))
    result = simulator.run(168.0)
    return PerformanceMonitor(result.frame)


def test_fig01_weekly_utilization(benchmark, weekly_run):
    bands = benchmark(utilization_bands, weekly_run)

    table = TextTable(
        ["hour", "p5", "p25", "p50", "p75", "p95", "mean"],
        title="Figure 1 — weekly CPU-utilization percentile bands (6h samples)",
    )
    for i in range(0, len(bands.hours), 6):
        table.add_row(
            [
                int(bands.hours[i]),
                f"{bands.p5[i]:.2f}",
                f"{bands.p25[i]:.2f}",
                f"{bands.p50[i]:.2f}",
                f"{bands.p75[i]:.2f}",
                f"{bands.p95[i]:.2f}",
                f"{bands.mean[i]:.2f}",
            ]
        )
    footer = f"\noverall mean utilization: {bands.overall_mean:.1%} (paper: >60%)"
    emit("fig01_weekly_utilization", table.render() + footer)

    # Paper claims: >60% average; visible diurnal rhythm; weekend dip.
    assert bands.overall_mean > 0.55
    weekday_mean = bands.mean[: 5 * 24].mean()
    weekend_mean = bands.mean[5 * 24 :].mean()
    assert weekend_mean < weekday_mean
    # Bands are ordered by construction; spot-check their spread is real.
    assert (bands.p95 - bands.p5).mean() > 0.05
