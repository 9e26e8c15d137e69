"""Shared fixtures.

Most tests build machine-hour frames synthetically (fast, precise control).
A handful of integration tests need real simulation output; those share one
session-scoped small-fleet run so the suite stays quick.
"""

from __future__ import annotations

import inspect
from collections import namedtuple
from collections.abc import Iterable

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    SimulationConfig,
    build_cluster,
    small_fleet_spec,
)
from repro.telemetry.frame import CATEGORICAL_COLUMNS, MachineHourFrame
from repro.utils.rng import RngStreams
from repro.workload import WorkloadGenerator, default_templates, estimate_jobs_per_hour


#: Field order of :meth:`MachineHourFrame.append_hour` (one machine-hour row).
ROW_FIELDS = tuple(inspect.signature(MachineHourFrame.append_hour).parameters)[1:]


class HourRow(namedtuple("HourRow", ROW_FIELDS)):
    """One machine-hour row as plain Python values, for per-row references.

    Fields follow ``append_hour``'s order, so ``frame.append_hour(*row)``
    appends it; ``power_cap_watts`` is None when uncapped and ``queue_waits``
    is a tuple, so rows compare exactly with ``==``.
    """

    __slots__ = ()

    @property
    def group(self) -> str:
        """Machine-group label, e.g. ``'SC2_Gen 4.1'``."""
        return f"{self.software}_{self.sku}"


def make_row(
    machine_id: int = 0,
    sku: str = "Gen 4.1",
    software: str = "SC2",
    hour: int = 0,
    cpu_utilization: float = 0.6,
    avg_running_containers: float = 20.0,
    total_data_read_bytes: float = 1e12,
    tasks_finished: int = 100,
    total_cpu_seconds: float = 3000.0,
    total_task_seconds: float = 4000.0,
    rack: int = 0,
    row: int = 0,
    subcluster: int = 0,
    avg_cores_in_use: float = 28.0,
    avg_ram_gb_in_use: float = 60.0,
    avg_ssd_gb_in_use: float = 300.0,
    avg_power_watts: float = 280.0,
    power_cap_watts: float | None = None,
    feature_enabled: bool = False,
    max_running_containers: int = 35,
    queue_avg_length: float = 0.0,
    queue_enqueued: int = 0,
    queue_dequeued: int = 0,
    queue_waits: tuple[float, ...] = (),
    available_fraction: float = 1.0,
    faulted: bool = False,
) -> HourRow:
    """A fully populated machine-hour row with sensible defaults."""
    return HourRow(
        machine_id=machine_id,
        machine_name=f"m{machine_id:06d}",
        sku=sku,
        software=software,
        rack=rack,
        row=row,
        subcluster=subcluster,
        hour=hour,
        cpu_utilization=cpu_utilization,
        avg_running_containers=avg_running_containers,
        total_data_read_bytes=total_data_read_bytes,
        tasks_finished=tasks_finished,
        total_cpu_seconds=total_cpu_seconds,
        total_task_seconds=total_task_seconds,
        avg_cores_in_use=avg_cores_in_use,
        avg_ram_gb_in_use=avg_ram_gb_in_use,
        avg_ssd_gb_in_use=avg_ssd_gb_in_use,
        avg_power_watts=avg_power_watts,
        power_cap_watts=power_cap_watts,
        feature_enabled=feature_enabled,
        max_running_containers=max_running_containers,
        queue_avg_length=queue_avg_length,
        queue_enqueued=queue_enqueued,
        queue_dequeued=queue_dequeued,
        queue_waits=tuple(queue_waits),
        available_fraction=available_fraction,
        faulted=faulted,
    )


def frame_of(rows: Iterable[HourRow]) -> MachineHourFrame:
    """A frame holding ``rows`` in order."""
    frame = MachineHourFrame()
    for row in rows:
        frame.append_hour(*row)
    return frame


def rows_of(frame: MachineHourFrame) -> list[HourRow]:
    """The frame's rows as :class:`HourRow` values (the per-row view)."""
    offsets = frame.wait_offsets().tolist()
    waits = frame.waits_flat().tolist()
    columns = []
    for name in ROW_FIELDS:
        if name in CATEGORICAL_COLUMNS:
            columns.append(frame.labels(name).tolist())
        elif name == "queue_waits":
            columns.append(
                [tuple(waits[lo:hi]) for lo, hi in zip(offsets, offsets[1:])]
            )
        elif name == "power_cap_watts":
            columns.append(
                [None if cap != cap else cap for cap in frame.column(name).tolist()]
            )
        else:
            columns.append(frame.column(name).tolist())
    return [HourRow(*values) for values in zip(*columns, strict=True)]


def synthetic_group_rows(
    group_sku: str,
    group_sc: str,
    n_machines: int = 12,
    n_days: int = 3,
    g_slope: float = 0.03,
    g_intercept: float = 0.0,
    f_slope: float = 300.0,
    f_intercept: float = 100.0,
    containers_center: float = 20.0,
    noise: float = 0.01,
    seed: int = 0,
    id_offset: int | None = None,
) -> list[HourRow]:
    """Rows following exact affine g/f relations plus small noise.

    Lets model-layer tests verify calibration recovers known parameters.
    Machine ids are offset per (sku, sc) by default so distinct synthetic
    groups never collide. Utilization is clipped to (0.01, 0.99); choose
    ``g_slope``·``containers_center`` well below 1 to keep relations affine.
    """
    rng = np.random.default_rng(seed)
    if id_offset is None:
        import zlib

        id_offset = (zlib.crc32(f"{group_sku}|{group_sc}".encode()) % 997) * 1000
    rows = []
    for machine in range(n_machines):
        for hour in range(n_days * 24):
            containers = containers_center + rng.normal(0, 3.0)
            containers = max(1.0, containers)
            util = g_intercept + g_slope * containers + rng.normal(0, noise)
            util = float(np.clip(util, 0.01, 0.99))
            latency = f_intercept + f_slope * util + rng.normal(0, noise * 100)
            tasks = max(1, int(60 * util + rng.normal(0, 2)))
            rows.append(
                make_row(
                    machine_id=machine + id_offset,
                    sku=group_sku,
                    software=group_sc,
                    hour=hour,
                    cpu_utilization=util,
                    avg_running_containers=containers,
                    tasks_finished=tasks,
                    total_task_seconds=latency * tasks,
                    total_cpu_seconds=0.8 * latency * tasks,
                    total_data_read_bytes=util * 4e11,
                )
            )
    return rows


def synthetic_group_records(group_sku: str, group_sc: str, **kwargs) -> MachineHourFrame:
    """:func:`synthetic_group_rows` of one group, as a frame."""
    return frame_of(synthetic_group_rows(group_sku, group_sc, **kwargs))


@pytest.fixture(scope="session")
def small_sim_result():
    """One shared 6-hour simulation of the small test fleet."""
    streams = RngStreams(1234)
    cluster = build_cluster(small_fleet_spec())
    rate = estimate_jobs_per_hour(
        cluster.total_container_slots, 0.6, default_templates(),
        mean_task_duration_s=420.0,
    )
    workload = WorkloadGenerator(
        default_templates(), jobs_per_hour=rate, streams=streams,
        benchmark_period_hours=3.0,
    ).generate(6.0)
    simulator = ClusterSimulator(
        cluster, workload, streams=streams,
        config=SimulationConfig(task_log_sample_rate=1.0,
                                resource_sample_period_s=120.0,
                                resource_sample_machines=12),
    )
    result = simulator.run(6.0)
    return cluster, result


@pytest.fixture()
def small_cluster():
    """A fresh small cluster (no simulation state)."""
    return build_cluster(small_fleet_spec())
