"""Tests for the metric registry and the Performance Monitor."""

import numpy as np
import pytest

from repro.telemetry.metrics import DEFAULT_REGISTRY, Metric, MetricRegistry
from repro.telemetry.monitor import PerformanceMonitor
from repro.utils.errors import TelemetryError
from tests.conftest import frame_of, make_row


class TestRegistry:
    def test_table2_metrics_present(self):
        for name in (
            "TotalDataRead", "NumberOfTasks", "BytesPerSecond",
            "BytesPerCpuTime", "CpuUtilization", "AverageRunningContainers",
        ):
            assert name in DEFAULT_REGISTRY

    def test_metric_descriptions_and_aspects(self):
        metric = DEFAULT_REGISTRY.get("TotalDataRead")
        assert metric.affected_system_metric == "Throughput rate"
        assert "bytes" in metric.description.lower()

    def test_duplicate_registration_rejected(self):
        registry = MetricRegistry()
        metric = Metric("X", "d", "a", lambda f: f.column("hour"))
        registry.register(metric)
        with pytest.raises(TelemetryError):
            registry.register(metric)

    def test_unknown_metric_raises(self):
        with pytest.raises(TelemetryError, match="unknown metric"):
            DEFAULT_REGISTRY.get("NotAMetric")

    def test_metric_extraction(self):
        rows = [make_row(cpu_utilization=0.3), make_row(cpu_utilization=0.7)]
        np.testing.assert_allclose(
            PerformanceMonitor(frame_of(rows)).metric("CpuUtilization"), [0.3, 0.7]
        )


class TestMonitorFiltering:
    def _monitor(self):
        rows = []
        for machine_id, sku, sc in [(0, "Gen 1.1", "SC1"), (1, "Gen 4.1", "SC2")]:
            for hour in range(48):
                rows.append(
                    make_row(
                        machine_id=machine_id, sku=sku, software=sc, hour=hour,
                        cpu_utilization=0.5 + 0.1 * machine_id,
                        tasks_finished=100,
                    )
                )
        return PerformanceMonitor(frame_of(rows))

    def test_filter_by_group(self):
        monitor = self._monitor()
        assert len(monitor.filter(group="SC1_Gen 1.1")) == 48

    def test_filter_by_hour_range_half_open(self):
        monitor = self._monitor()
        assert len(monitor.filter(hour_range=(0, 24))) == 48  # 2 machines x 24

    def test_filter_by_machine_ids(self):
        monitor = self._monitor()
        assert len(monitor.filter(machine_ids={1})) == 48

    def test_filter_with_column_mask(self):
        monitor = self._monitor()
        odd = PerformanceMonitor(monitor.frame.take(monitor.hours() % 2 == 1))
        assert len(odd) == 48

    def test_filters_compose(self):
        monitor = self._monitor()
        subset = monitor.filter(sku="Gen 4.1", hour_range=(0, 12))
        assert len(subset) == 12

    def test_groups_and_by_group(self):
        monitor = self._monitor()
        assert monitor.groups() == ["SC1_Gen 1.1", "SC2_Gen 4.1"]
        split = monitor.by_group()
        assert set(split) == set(monitor.groups())
        assert all(len(m) == 48 for m in split.values())


class TestDailyAggregation:
    def test_aggregates_per_machine_day(self):
        rows = [
            make_row(machine_id=0, hour=h, tasks_finished=10,
                        total_task_seconds=1000.0, total_data_read_bytes=1e9)
            for h in range(48)
        ]
        monitor = PerformanceMonitor(frame_of(rows))
        days = monitor.daily_aggregates()
        assert len(days) == 2
        assert days.column("day").tolist() == [0, 1]
        assert days.column("tasks_finished")[0] == 240
        assert days.column("total_data_read_bytes")[0] == pytest.approx(24e9)
        tasks_per_hour = days.column("tasks_finished") / days.column("hours_observed")
        assert tasks_per_hour[0] == pytest.approx(10.0)
        assert DEFAULT_REGISTRY.get("AverageTaskSeconds").extract(days)[0] == pytest.approx(100.0)
        assert days.column("hours_observed")[0] == 24

    def test_min_hours_drops_partial_days(self):
        rows = [make_row(machine_id=0, hour=h) for h in range(26)]
        monitor = PerformanceMonitor(frame_of(rows))
        assert len(monitor.daily_aggregates(min_hours=12)) == 1
        assert len(monitor.daily_aggregates(min_hours=1)) == 2

    def test_min_hours_validation(self):
        with pytest.raises(TelemetryError):
            PerformanceMonitor().daily_aggregates(min_hours=0)

    def test_min_hours_above_a_day_is_rejected(self):
        # A bucket never holds more than 24 hours: 25 would drop every day.
        rows = [make_row(machine_id=0, hour=h) for h in range(24)]
        monitor = PerformanceMonitor(frame_of(rows))
        assert len(monitor.daily_aggregates(min_hours=24)) == 1
        with pytest.raises(TelemetryError, match="min_hours"):
            monitor.daily_aggregates(min_hours=25)

    def test_group_property(self):
        rows = [make_row(sku="Gen 3.1", software="SC1", hour=h)
                   for h in range(24)]
        days = PerformanceMonitor(frame_of(rows)).daily_aggregates()
        assert days.column("group").tolist() == ["SC1_Gen 3.1"]


class TestClusterAggregates:
    def test_cluster_average_task_latency(self):
        rows = [
            make_row(tasks_finished=10, total_task_seconds=2000.0),
            make_row(tasks_finished=30, total_task_seconds=3000.0),
        ]
        monitor = PerformanceMonitor(frame_of(rows))
        assert monitor.cluster_average_task_latency() == pytest.approx(125.0)

    def test_total_data_read(self):
        rows = [make_row(total_data_read_bytes=1e9)] * 3
        assert PerformanceMonitor(frame_of(rows)).total_data_read_bytes() == pytest.approx(3e9)

    def test_empty_monitor_latency_zero(self):
        assert PerformanceMonitor().cluster_average_task_latency() == 0.0

    def test_monitors_without_a_frame_do_not_share_one(self):
        first, second = PerformanceMonitor(), PerformanceMonitor()
        assert len(first) == 0
        assert first.frame is not second.frame
