"""Columnar telemetry frame: exact round-trips and vectorized consumers.

The frame's whole contract is *bit-identity*: every value it stores, derives,
or hands to a vectorized consumer must equal the historical per-record path
exactly — no tolerance comparisons anywhere in this file.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from tests.conftest import make_record
from repro.telemetry import DEFAULT_REGISTRY, MachineHourFrame, PerformanceMonitor
from repro.telemetry.records import QueueStats
from repro.telemetry.views import utilization_bands


def random_records(n: int = 200, seed: int = 7):
    """Randomized records spanning categoricals, caps, flags, and waits."""
    rng = random.Random(seed)
    skus = ["Gen 1.1", "Gen 2.2", "Gen 4.1"]
    softwares = ["SC1", "SC2"]
    records = []
    for _i in range(n):
        waits = [rng.expovariate(0.01) for _ in range(rng.randrange(0, 5))]
        records.append(
            make_record(
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
                queue=QueueStats(
                    avg_length=rng.uniform(0, 3),
                    enqueued=rng.randrange(0, 10),
                    dequeued=rng.randrange(0, 10),
                    waits=waits,
                ),
            )
        )
    return records


class TestFrameRoundTrip:
    def test_records_round_trip_exactly(self):
        records = random_records()
        frame = MachineHourFrame.from_records(records)
        assert len(frame) == len(records)
        back = frame.to_records()
        # Dataclass equality is field-wise and exact: floats, categorical
        # strings, bools, None-caps, and QueueStats waits all bit-identical.
        assert back == records

    def test_round_trip_is_involutive(self):
        records = random_records(seed=9)
        frame = MachineHourFrame.from_records(records)
        again = MachineHourFrame.from_records(frame.to_records())
        assert frame == again
        assert again.to_records() == records

    def test_to_records_is_cached_until_append(self):
        frame = MachineHourFrame.from_records(random_records(n=5))
        first = frame.to_records()
        assert frame.to_records() is first
        frame.append_record(make_record(machine_id=99))
        assert frame.to_records() is not first
        assert len(frame.to_records()) == 6

    def test_pickle_round_trip(self):
        frame = MachineHourFrame.from_records(random_records(seed=3))
        clone = pickle.loads(pickle.dumps(frame))
        assert clone == frame
        assert clone.to_records() == frame.to_records()

    def test_power_cap_none_encoding(self):
        records = [
            make_record(machine_id=0, power_cap_watts=None),
            make_record(machine_id=1, power_cap_watts=312.5),
        ]
        frame = MachineHourFrame.from_records(records)
        assert np.isnan(frame.column("power_cap_watts")[0])
        back = frame.to_records()
        assert back[0].power_cap_watts is None
        assert back[1].power_cap_watts == 312.5

    def test_take_matches_record_slicing(self):
        records = random_records(seed=11)
        frame = MachineHourFrame.from_records(records)
        mask = frame.column("hour") < 10
        taken = frame.take(mask)
        expected = [r for r in records if r.hour < 10]
        assert taken.to_records() == expected
        indices = np.asarray([5, 3, 17])
        assert frame.take(indices).to_records() == [records[i] for i in indices]

    def test_derived_columns_match_record_properties(self):
        records = random_records(seed=13)
        frame = MachineHourFrame.from_records(records)
        assert frame.bytes_per_second().tolist() == [
            r.bytes_per_second for r in records
        ]
        assert frame.bytes_per_cpu_time().tolist() == [
            r.bytes_per_cpu_time for r in records
        ]
        assert frame.avg_task_seconds().tolist() == [
            r.avg_task_seconds for r in records
        ]
        assert frame.queue_p99_wait().tolist() == [
            r.queue.p99_wait() for r in records
        ]
        assert frame.queue_mean_wait().tolist() == [
            r.queue.mean_wait() for r in records
        ]
        assert frame.group_labels().tolist() == [r.group for r in records]

    def test_nbytes_scales_with_rows(self):
        small = MachineHourFrame.from_records(random_records(n=10))
        large = MachineHourFrame.from_records(random_records(n=100))
        assert 0 < small.nbytes < large.nbytes


class TestVectorizedConsumersOnLiveSimulation:
    """Vectorized paths equal the per-record ones on real simulator output."""

    @pytest.fixture(scope="class")
    def live(self, small_sim_result):
        _cluster, result = small_sim_result
        return result.frame, result.records

    def test_every_registry_metric_matches_per_record_lambda(self, live):
        frame, records = live
        monitor = PerformanceMonitor(frame)
        for metric in DEFAULT_REGISTRY.all():
            assert metric.extract_columns is not None, metric.name
            vectorized = monitor.metric(metric.name)
            reference = np.array([metric.extract(r) for r in records], dtype=float)
            assert np.array_equal(vectorized, reference), metric.name

    def test_filter_matches_record_comprehensions(self, live):
        frame, records = live
        monitor = PerformanceMonitor(frame)
        group = records[0].group
        assert monitor.filter(group=group).frame.to_records() == [
            r for r in records if r.group == group
        ]
        sku = records[0].sku
        assert monitor.filter(sku=sku).frame.to_records() == [
            r for r in records if r.sku == sku
        ]
        assert monitor.filter(hour_range=(1, 4)).frame.to_records() == [
            r for r in records if 1 <= r.hour < 4
        ]
        ids = {records[0].machine_id, records[-1].machine_id}
        assert monitor.filter(machine_ids=ids).frame.to_records() == [
            r for r in records if r.machine_id in ids
        ]
        sc1 = monitor.filter(software="SC1").frame
        busy = sc1.take(sc1.column("tasks_finished") > 10)
        assert busy.to_records() == [
            r for r in records if r.software == "SC1" and r.tasks_finished > 10
        ]

    def test_groups_skus_and_by_group_match(self, live):
        frame, records = live
        monitor = PerformanceMonitor(frame)
        assert monitor.groups() == sorted({r.group for r in records})
        assert monitor.skus() == sorted({r.sku for r in records})
        split = monitor.by_group()
        assert list(split) == monitor.groups()
        for label, sub in split.items():
            assert sub.frame.to_records() == [r for r in records if r.group == label]

    def test_snapshot_and_cluster_sums_match_reference(self, live):
        frame, records = live
        monitor = PerformanceMonitor(frame)
        assert monitor.total_data_read_bytes() == float(
            sum(r.total_data_read_bytes for r in records)
        )
        total_seconds = sum(r.total_task_seconds for r in records)
        total_tasks = sum(r.tasks_finished for r in records)
        assert monitor.cluster_average_task_latency() == total_seconds / total_tasks
        snapshot = monitor.snapshot()
        assert snapshot.n_records == len(records)
        assert snapshot.n_machines == len({r.machine_id for r in records})
        assert snapshot.hours_observed == len({r.hour for r in records})
        assert snapshot.mean_cpu_utilization == float(
            np.mean([r.cpu_utilization for r in records])
        )
        assert snapshot.tasks_finished == int(sum(r.tasks_finished for r in records))

    def test_utilization_bands_match_per_hour_loop(self, live):
        frame, _records = live
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
        records = [r for r in random_records(seed=21) if not (r.hour % 7 == 0 and r.machine_id % 3 == 0)]
        monitor = PerformanceMonitor(MachineHourFrame.from_records(records))
        bands = utilization_bands(monitor, "CpuUtilization")
        hours = monitor.hours()
        values = monitor.metric("CpuUtilization")
        for i, hour in enumerate(np.unique(hours)):
            hour_values = values[hours == hour]
            assert bands.p50[i] == np.percentile(hour_values, 50)
            assert bands.mean[i] == np.mean(hour_values)

    def test_monitor_frame_records_round_trip(self, live):
        frame, records = live
        monitor = PerformanceMonitor(frame)
        assert monitor.frame.to_records() == records
        # Ingesting a record list produces an equal frame.
        rebuilt = PerformanceMonitor(records)
        assert rebuilt.frame == frame
