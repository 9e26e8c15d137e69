"""Tests for telemetry types: machine-hour derived values, TaskLog groupings."""

import numpy as np
import pytest

from repro.telemetry.records import TaskLog
from tests.conftest import frame_of, make_row


class TestMachineHourRecord:
    """The machine-hour row's derived values, read off frame columns."""

    def test_group_label(self):
        frame = frame_of([make_row(sku="Gen 2.2", software="SC1")])
        assert frame.group_labels().tolist() == ["SC1_Gen 2.2"]

    def test_bytes_per_second(self):
        frame = frame_of(
            [make_row(total_data_read_bytes=8e9, total_task_seconds=4000.0)]
        )
        assert frame.bytes_per_second()[0] == pytest.approx(2e6)

    def test_bytes_per_cpu_time(self):
        frame = frame_of(
            [make_row(total_data_read_bytes=9e9, total_cpu_seconds=3000.0)]
        )
        assert frame.bytes_per_cpu_time()[0] == pytest.approx(3e6)

    def test_avg_task_seconds(self):
        frame = frame_of([make_row(tasks_finished=50, total_task_seconds=5000.0)])
        assert frame.avg_task_seconds()[0] == pytest.approx(100.0)

    def test_degenerate_ratios_are_zero(self):
        frame = frame_of(
            [make_row(tasks_finished=0, total_task_seconds=0.0, total_cpu_seconds=0.0)]
        )
        assert frame.bytes_per_second()[0] == 0.0
        assert frame.bytes_per_cpu_time()[0] == 0.0
        assert frame.avg_task_seconds()[0] == 0.0


class TestQueueStats:
    """Per-row queue-wait summaries, read off the frame."""

    def test_p99_and_mean(self):
        frame = frame_of([make_row(queue_waits=np.arange(1.0, 101.0).tolist())])
        assert frame.queue_mean_wait()[0] == pytest.approx(50.5)
        assert frame.queue_p99_wait()[0] == pytest.approx(
            np.percentile(np.arange(1, 101), 99)
        )

    def test_empty_waits(self):
        frame = frame_of([make_row()])
        assert frame.queue_p99_wait()[0] == 0.0
        assert frame.queue_mean_wait()[0] == 0.0


class TestTaskLog:
    def _log_with_tasks(self):
        log = TaskLog(sample_rate=1.0)
        rows = [
            ("Gen 1.1", "SC1", 0, "Extract", 200.0),
            ("Gen 1.1", "SC1", 0, "Process", 300.0),
            ("Gen 4.1", "SC2", 1, "Extract", 80.0),
            ("Gen 4.1", "SC2", 1, "Process", 120.0),
        ]
        for sku, sc, rack, op, duration in rows:
            log.append(sku, sc, rack, op, duration, 1e9, 0.8 * duration, 0.0,
                       0.0, "job_t")
        return log

    def test_append_returns_row_index(self):
        log = self._log_with_tasks()
        row = log.append("Gen 1.1", "SC1", 0, "Split", 10.0, 1e8, 8.0, 0.0,
                         0.0, "t")
        assert row == 4

    def test_mark_critical(self):
        log = self._log_with_tasks()
        log.mark_critical(1)
        assert log.critical == [False, True, False, False]

    def test_durations_by_sku(self):
        grouped = self._log_with_tasks().durations_by_sku()
        np.testing.assert_array_equal(grouped["Gen 1.1"], [200.0, 300.0])
        np.testing.assert_array_equal(grouped["Gen 4.1"], [80.0, 120.0])

    def test_critical_share_by_sku(self):
        log = self._log_with_tasks()
        log.mark_critical(0)
        shares = log.critical_share_by_sku()
        assert shares["Gen 1.1"] == pytest.approx(0.5)
        assert shares["Gen 4.1"] == 0.0

    def test_op_mix_by_rack_and_sku(self):
        log = self._log_with_tasks()
        by_rack = log.op_mix_by("rack")
        assert by_rack[0] == {"Extract": 0.5, "Process": 0.5}
        by_sku = log.op_mix_by("sku")
        assert by_sku["Gen 4.1"] == {"Extract": 0.5, "Process": 0.5}

    def test_op_mix_invalid_key(self):
        with pytest.raises(ValueError):
            self._log_with_tasks().op_mix_by("row")

    def test_sample_rate_validation(self):
        with pytest.raises(ValueError):
            TaskLog(sample_rate=-0.1)
        with pytest.raises(ValueError):
            TaskLog(sample_rate=1.01)

    def test_len(self):
        assert len(self._log_with_tasks()) == 4
