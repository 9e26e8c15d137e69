"""Tests for experiment designs and A/B analysis."""

import numpy as np
import pytest

from repro.cluster import build_cluster, default_fleet_spec, small_fleet_spec
from repro.experiment import (
    compare_groups,
    compare_time_slices,
    hybrid_setting,
    ideal_setting,
    time_slicing_schedule,
)
from repro.experiment.design import GroupAssignment
from repro.telemetry.monitor import PerformanceMonitor
from repro.utils.errors import ExperimentError
from tests.conftest import frame_of, make_row


class TestIdealSetting:
    def test_alternating_split_within_rack(self):
        cluster = build_cluster(small_fleet_spec())
        rack = cluster.racks()[0]
        assignment = ideal_setting(cluster, [rack])
        machines = cluster.machines_in_rack(rack)
        assert len(assignment.control) + len(assignment.experiment) == len(machines)
        # Alternation: consecutive machines land in different arms.
        assert machines[0] in assignment.control
        assert machines[1] in assignment.experiment

    def test_groups_are_matched_in_size(self):
        cluster = build_cluster(default_fleet_spec())
        racks = cluster.racks()[:4]
        assignment = ideal_setting(cluster, racks)
        assert abs(len(assignment.control) - len(assignment.experiment)) <= len(racks)

    def test_needs_racks(self):
        cluster = build_cluster(small_fleet_spec())
        with pytest.raises(ExperimentError):
            ideal_setting(cluster, [])


class TestTimeSlicing:
    def test_alternating_windows(self):
        schedule = time_slicing_schedule(20.0, interval_hours=5.0)
        assert len(schedule) == 4
        assert [s.variant for s in schedule] == [
            "control", "experiment", "control", "experiment",
        ]
        assert schedule[-1].end_hour == 20.0

    def test_partial_final_window(self):
        schedule = time_slicing_schedule(12.0, interval_hours=5.0)
        assert schedule[-1].end_hour == 12.0
        assert schedule[-1].start_hour == 10.0

    def test_five_hour_interval_rotates_time_of_day(self):
        """A 5h interval should not pin variants to fixed hours of day."""
        schedule = time_slicing_schedule(120.0, interval_hours=5.0)
        control_start_hours = {s.start_hour % 24 for s in schedule
                               if s.variant == "control"}
        assert len(control_start_hours) > 4

    def test_validation(self):
        with pytest.raises(ExperimentError):
            time_slicing_schedule(0.0)
        with pytest.raises(ExperimentError):
            time_slicing_schedule(10.0, start_variant="treated")


class TestHybridSetting:
    def test_matched_groups_by_sku(self):
        cluster = build_cluster(default_fleet_spec())
        groups = hybrid_setting(cluster, sku="Gen 4.1", group_size=10, n_groups=4)
        assert len(groups) == 4
        assert all(len(g) == 10 for g in groups)
        for group in groups:
            assert all(m.sku.name == "Gen 4.1" for m in group)

    def test_groups_are_disjoint(self):
        cluster = build_cluster(default_fleet_spec())
        groups = hybrid_setting(cluster, sku="Gen 2.2", group_size=8, n_groups=3)
        ids = [m.machine_id for group in groups for m in group]
        assert len(ids) == len(set(ids))

    def test_insufficient_machines_raises(self):
        cluster = build_cluster(small_fleet_spec())
        with pytest.raises(ExperimentError):
            hybrid_setting(cluster, sku="Gen 4.1", group_size=500, n_groups=4)


class TestCompareGroups:
    def _monitor_with_effect(self, lift=1.2):
        rows = []
        rng = np.random.default_rng(0)
        for machine_id in range(20):
            experiment = machine_id >= 10
            for hour in range(48):
                base = 1e9 * (lift if experiment else 1.0)
                rows.append(
                    make_row(
                        machine_id=machine_id, hour=hour,
                        total_data_read_bytes=float(base * rng.normal(1, 0.05)),
                        tasks_finished=100,
                        total_task_seconds=10000.0,
                    )
                )
        return PerformanceMonitor(frame_of(rows))

    def _assignment(self, cluster=None):
        class FakeMachine:
            def __init__(self, machine_id):
                self.machine_id = machine_id

        return GroupAssignment(
            control=[FakeMachine(i) for i in range(10)],
            experiment=[FakeMachine(i) for i in range(10, 20)],
        )

    def test_detects_lift_with_significance(self):
        report = compare_groups(
            "test", self._monitor_with_effect(1.2), self._assignment(),
            metrics=("TotalDataRead",),
        )
        comparison = report.comparison("TotalDataRead")
        assert comparison.pct_change == pytest.approx(0.2, abs=0.03)
        assert comparison.significant()
        assert report.winner("TotalDataRead") == "experiment"

    def test_null_effect_is_tie(self):
        report = compare_groups(
            "null", self._monitor_with_effect(1.0), self._assignment(),
            metrics=("TotalDataRead",),
        )
        assert report.winner("TotalDataRead") == "tie"

    def test_lower_is_better_inverts_winner(self):
        report = compare_groups(
            "latency", self._monitor_with_effect(1.2), self._assignment(),
            metrics=("TotalDataRead",),
        )
        assert report.winner("TotalDataRead", higher_is_better=False) == "control"

    def test_missing_metric_raises(self):
        report = compare_groups(
            "test", self._monitor_with_effect(), self._assignment(),
            metrics=("TotalDataRead",),
        )
        with pytest.raises(KeyError):
            report.comparison("NotMeasured")


class TestCompareTimeSlices:
    def test_detects_difference_between_windows(self):
        rows = []
        rng = np.random.default_rng(1)
        schedule = time_slicing_schedule(20.0, interval_hours=5.0)
        experiment_hours = {
            h for s in schedule if s.variant == "experiment"
            for h in range(int(s.start_hour), int(s.end_hour))
        }
        for machine_id in range(8):
            for hour in range(20):
                boost = 1.3 if hour in experiment_hours else 1.0
                rows.append(
                    make_row(machine_id=machine_id, hour=hour,
                             cpu_utilization=float(np.clip(
                                 0.5 * boost + rng.normal(0, 0.02), 0, 1)))
                )
        report = compare_time_slices(
            "slices", PerformanceMonitor(frame_of(rows)), schedule,
            metrics=("CpuUtilization",),
        )
        assert report.comparison("CpuUtilization").pct_change == pytest.approx(
            0.3, abs=0.05
        )
