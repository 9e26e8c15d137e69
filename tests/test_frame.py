"""Columnar telemetry frame: exact round-trips and vectorized consumers.

The frame's whole contract is *bit-identity*: every value it stores, derives,
or hands to a vectorized consumer must equal a per-row reference computed in
plain Python over :func:`tests.conftest.rows_of` — no tolerance comparisons
anywhere in this file.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from tests.conftest import frame_of, make_row, rows_of
from repro.telemetry import DEFAULT_REGISTRY, PerformanceMonitor
from repro.telemetry.frame import _ALL_COLUMNS, _DTYPES, CATEGORICAL_COLUMNS
from repro.telemetry.views import utilization_bands


def random_rows(n: int = 200, seed: int = 7):
    """Randomized rows spanning categoricals, caps, flags, and waits."""
    rng = random.Random(seed)
    skus = ["Gen 1.1", "Gen 2.2", "Gen 4.1"]
    softwares = ["SC1", "SC2"]
    rows = []
    for _i in range(n):
        waits = [rng.expovariate(0.01) for _ in range(rng.randrange(0, 5))]
        rows.append(
            make_row(
                machine_id=rng.randrange(0, 40),
                sku=rng.choice(skus),
                software=rng.choice(softwares),
                hour=rng.randrange(0, 48),
                rack=rng.randrange(0, 6),
                row=rng.randrange(0, 2),
                subcluster=rng.randrange(0, 2),
                cpu_utilization=rng.random(),
                avg_running_containers=rng.uniform(0, 40),
                total_data_read_bytes=rng.uniform(0, 5e12),
                tasks_finished=rng.randrange(0, 300),
                total_cpu_seconds=rng.uniform(0, 4000),
                total_task_seconds=rng.choice([0.0, rng.uniform(1, 9000)]),
                avg_power_watts=rng.uniform(100, 500),
                power_cap_watts=rng.choice([None, rng.uniform(200, 400)]),
                feature_enabled=rng.random() < 0.5,
                queue_avg_length=rng.uniform(0, 3),
                queue_enqueued=rng.randrange(0, 10),
                queue_dequeued=rng.randrange(0, 10),
                queue_waits=waits,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Per-row reference formulas (one per registry metric)
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _p99(waits) -> float:
    return float(np.percentile(waits, 99)) if waits else 0.0


def _mean(waits) -> float:
    return float(np.mean(waits)) if waits else 0.0


REFERENCE_METRICS = {
    "TotalDataRead": lambda r: r.total_data_read_bytes,
    "NumberOfTasks": lambda r: float(r.tasks_finished),
    "BytesPerSecond": lambda r: _ratio(r.total_data_read_bytes, r.total_task_seconds),
    "BytesPerCpuTime": lambda r: _ratio(r.total_data_read_bytes, r.total_cpu_seconds),
    "CpuUtilization": lambda r: r.cpu_utilization,
    "AverageRunningContainers": lambda r: r.avg_running_containers,
    "AverageTaskSeconds": lambda r: _ratio(r.total_task_seconds, r.tasks_finished),
    "QueueLength": lambda r: r.queue_avg_length,
    "QueueWaitP99": lambda r: _p99(r.queue_waits),
    "PowerWatts": lambda r: r.avg_power_watts,
    "RamInUse": lambda r: r.avg_ram_gb_in_use,
    "SsdInUse": lambda r: r.avg_ssd_gb_in_use,
    "CoresInUse": lambda r: r.avg_cores_in_use,
}


def assert_canonical_dtypes(frame):
    """Every array a sealed frame holds, and hands out, carries numpy's
    canonical dtype object (an unpickled array carries an equal copy)."""
    for name in _ALL_COLUMNS:
        assert frame._columns[name].dtype is np.dtype(_DTYPES[name])
        assert frame.column(name).dtype is np.dtype(_DTYPES[name])
    for name in CATEGORICAL_COLUMNS:
        assert frame._codes[name].dtype is np.dtype(np.int32)
        assert frame.codes(name).dtype is np.dtype(np.int32)
    assert frame._waits.dtype is frame.waits_flat().dtype is np.dtype(np.float64)
    assert frame._wait_offsets.dtype is frame.wait_offsets().dtype is np.dtype(np.int64)


class TestFrameRoundTrip:
    def test_records_round_trip_exactly(self):
        rows = random_rows()
        frame = frame_of(rows)
        assert len(frame) == len(rows)
        # Row equality is field-wise and exact: floats, categorical strings,
        # bools, None-caps, and queue waits all bit-identical.
        assert rows_of(frame) == rows

    def test_round_trip_is_involutive(self):
        rows = random_rows(seed=9)
        frame = frame_of(rows)
        again = frame_of(rows_of(frame))
        assert frame == again
        assert rows_of(again) == rows

    def test_column_cache_is_invalidated_by_append(self):
        frame = frame_of(random_rows(n=5))
        first = frame.column("hour")
        assert frame.column("hour") is first
        frame.append_hour(*make_row(machine_id=99, hour=77))
        assert frame.column("hour") is not first
        assert len(frame.column("hour")) == 6
        assert frame.column("hour")[-1] == 77

    def test_pickle_round_trip(self):
        frame = frame_of(random_rows(seed=3))
        clone = pickle.loads(pickle.dumps(frame))
        assert clone == frame
        assert rows_of(clone) == rows_of(frame)

    def test_unpickled_frame_is_sealed_with_canonical_dtypes(self):
        frame = frame_of(random_rows(seed=3))
        blob = pickle.dumps(frame)
        clone = pickle.loads(blob)
        assert pickle.dumps(clone) == blob
        assert_canonical_dtypes(clone)
        # Canonical dtype objects share the pickle memo with np.float64
        # values beside the frame (flight outcomes carry such statistics).
        beside = np.float64(0.25)
        assert pickle.dumps((clone, beside)) == pickle.dumps((frame, beside))

    def test_taken_frame_is_sealed_with_canonical_dtypes(self):
        frame = frame_of(random_rows(seed=5))
        taken = frame.take(np.arange(len(frame)))
        assert pickle.dumps(taken) == pickle.dumps(frame)
        assert_canonical_dtypes(frame.take(frame.column("hour") < 10))

    @pytest.mark.parametrize("seal", ["unpickle", "take"])
    def test_append_to_a_sealed_frame_equals_building_from_lists(self, seal):
        rows = random_rows(n=60, seed=17)
        built = frame_of(rows)
        head = frame_of(rows[:40])
        if seal == "unpickle":
            sealed = pickle.loads(pickle.dumps(head))
        else:
            sealed = built.take(np.arange(40))
        sealed.column("hour")  # a cached column must not survive the append
        for row in rows[40:]:
            sealed.append_hour(*row)
        assert sealed == built
        assert rows_of(sealed) == rows
        assert pickle.dumps(sealed) == pickle.dumps(built)

    def test_power_cap_none_encoding(self):
        frame = frame_of([
            make_row(machine_id=0, power_cap_watts=None),
            make_row(machine_id=1, power_cap_watts=312.5),
        ])
        assert np.isnan(frame.column("power_cap_watts")[0])
        back = rows_of(frame)
        assert back[0].power_cap_watts is None
        assert back[1].power_cap_watts == 312.5

    def test_take_matches_record_slicing(self):
        rows = random_rows(seed=11)
        frame = frame_of(rows)
        taken = frame.take(frame.column("hour") < 10)
        assert rows_of(taken) == [r for r in rows if r.hour < 10]
        indices = np.asarray([5, 3, 17])
        assert rows_of(frame.take(indices)) == [rows[i] for i in indices]

    def test_derived_columns_match_record_properties(self):
        rows = random_rows(seed=13)
        frame = frame_of(rows)
        assert DEFAULT_REGISTRY.get("BytesPerSecond").extract(frame).tolist() == [
            _ratio(r.total_data_read_bytes, r.total_task_seconds) for r in rows
        ]
        assert DEFAULT_REGISTRY.get("BytesPerCpuTime").extract(frame).tolist() == [
            _ratio(r.total_data_read_bytes, r.total_cpu_seconds) for r in rows
        ]
        assert DEFAULT_REGISTRY.get("AverageTaskSeconds").extract(frame).tolist() == [
            _ratio(r.total_task_seconds, r.tasks_finished) for r in rows
        ]
        assert frame.queue_p99_wait().tolist() == [_p99(r.queue_waits) for r in rows]
        assert frame.queue_mean_wait().tolist() == [_mean(r.queue_waits) for r in rows]
        assert frame.group_labels().tolist() == [r.group for r in rows]

    def test_nbytes_scales_with_rows(self):
        small = frame_of(random_rows(n=10))
        large = frame_of(random_rows(n=100))
        assert 0 < small.nbytes < large.nbytes


class TestVectorizedConsumersOnLiveSimulation:
    """Vectorized paths equal the per-row references on real simulator output."""

    @pytest.fixture(scope="class")
    def live(self, small_sim_result):
        _cluster, result = small_sim_result
        return result.frame, rows_of(result.frame)

    def test_every_registry_metric_matches_per_record_lambda(self, live):
        frame, rows = live
        monitor = PerformanceMonitor(frame)
        assert sorted(REFERENCE_METRICS) == DEFAULT_REGISTRY.names()
        for name, formula in REFERENCE_METRICS.items():
            reference = np.array([formula(r) for r in rows], dtype=float)
            assert np.array_equal(monitor.metric(name), reference), name

    def test_filter_matches_record_comprehensions(self, live):
        frame, rows = live
        monitor = PerformanceMonitor(frame)
        group = rows[0].group
        assert rows_of(monitor.filter(group=group).frame) == [
            r for r in rows if r.group == group
        ]
        sku = rows[0].sku
        assert rows_of(monitor.filter(sku=sku).frame) == [
            r for r in rows if r.sku == sku
        ]
        assert rows_of(monitor.filter(hour_range=(1, 4)).frame) == [
            r for r in rows if 1 <= r.hour < 4
        ]
        ids = {rows[0].machine_id, rows[-1].machine_id}
        assert rows_of(monitor.filter(machine_ids=ids).frame) == [
            r for r in rows if r.machine_id in ids
        ]
        sc1 = monitor.filter(software="SC1").frame
        busy = sc1.take(sc1.column("tasks_finished") > 10)
        assert rows_of(busy) == [
            r for r in rows if r.software == "SC1" and r.tasks_finished > 10
        ]

    def test_groups_skus_and_by_group_match(self, live):
        frame, rows = live
        monitor = PerformanceMonitor(frame)
        assert monitor.groups() == sorted({r.group for r in rows})
        assert monitor.skus() == sorted({r.sku for r in rows})
        split = monitor.by_group()
        assert list(split) == monitor.groups()
        for label, sub in split.items():
            assert rows_of(sub.frame) == [r for r in rows if r.group == label]

    def test_snapshot_and_cluster_sums_match_reference(self, live):
        frame, rows = live
        monitor = PerformanceMonitor(frame)
        assert monitor.total_data_read_bytes() == float(
            sum(r.total_data_read_bytes for r in rows)
        )
        total_seconds = sum(r.total_task_seconds for r in rows)
        total_tasks = sum(r.tasks_finished for r in rows)
        assert monitor.cluster_average_task_latency() == total_seconds / total_tasks
        snapshot = monitor.snapshot()
        assert snapshot.n_records == len(rows)
        assert snapshot.n_machines == len({r.machine_id for r in rows})
        assert snapshot.hours_observed == len({r.hour for r in rows})
        assert snapshot.mean_cpu_utilization == float(
            np.mean([r.cpu_utilization for r in rows])
        )
        assert snapshot.tasks_finished == int(sum(r.tasks_finished for r in rows))

    def test_utilization_bands_match_per_hour_loop(self, live):
        frame, _rows = live
        monitor = PerformanceMonitor(frame)
        for metric in ("CpuUtilization", "TotalDataRead"):
            bands = utilization_bands(monitor, metric)
            hours = monitor.hours()
            values = monitor.metric(metric)
            unique_hours = np.unique(hours)
            assert np.array_equal(bands.hours, unique_hours)
            for i, hour in enumerate(unique_hours):
                hour_values = values[hours == hour]
                for q, series in zip(
                    (5, 25, 50, 75, 95),
                    (bands.p5, bands.p25, bands.p50, bands.p75, bands.p95),
                    strict=True,
                ):
                    assert series[i] == np.percentile(hour_values, q)
                assert bands.mean[i] == np.mean(hour_values)

    def test_ragged_hours_still_match_per_hour_loop(self):
        # Uneven machine counts per hour exercise the non-reshape path.
        rows = [r for r in random_rows(seed=21) if not (r.hour % 7 == 0 and r.machine_id % 3 == 0)]
        monitor = PerformanceMonitor(frame_of(rows))
        bands = utilization_bands(monitor, "CpuUtilization")
        hours = monitor.hours()
        values = monitor.metric("CpuUtilization")
        for i, hour in enumerate(np.unique(hours)):
            hour_values = values[hours == hour]
            assert bands.p50[i] == np.percentile(hour_values, 50)
            assert bands.mean[i] == np.mean(hour_values)

    def test_monitor_frame_records_round_trip(self, live):
        frame, rows = live
        monitor = PerformanceMonitor(frame)
        assert rows_of(monitor.frame) == rows
        # Re-appending the rows produces an equal frame.
        assert PerformanceMonitor(frame_of(rows)).frame == frame
