"""Tests for telemetry CSV export/import."""

import pytest

from repro.telemetry.export import (
    read_machine_hours_csv,
    write_jobs_csv,
    write_machine_hours_csv,
)
from repro.telemetry.records import JobRecord
from tests.conftest import frame_of, make_row, rows_of


class TestMachineHourRoundTrip:
    def test_roundtrip_preserves_fields(self, tmp_path):
        rows = [
            make_row(machine_id=i, hour=h, cpu_utilization=0.1 * (i + 1),
                     queue_avg_length=1.5, queue_enqueued=3,
                     queue_waits=[10.0, 20.0])
            for i in range(3)
            for h in range(2)
        ]
        # Distinct queue counters per row, so a dropped or swapped column
        # cannot read back equal.
        rows.append(make_row(machine_id=7, hour=5, queue_enqueued=11,
                             queue_dequeued=4))
        path = tmp_path / "hours.csv"
        assert write_machine_hours_csv(frame_of(rows), path) == 7
        loaded = rows_of(read_machine_hours_csv(path))
        assert len(loaded) == 7
        for original, restored in zip(rows, loaded, strict=True):
            assert restored.machine_id == original.machine_id
            assert restored.group == original.group
            assert restored.cpu_utilization == pytest.approx(
                original.cpu_utilization
            )
            assert restored.total_data_read_bytes == pytest.approx(
                original.total_data_read_bytes
            )
            assert restored.queue_avg_length == pytest.approx(
                original.queue_avg_length
            )
            assert restored.queue_enqueued == original.queue_enqueued
            assert restored.queue_dequeued == original.queue_dequeued

    def test_power_cap_none_roundtrips(self, tmp_path):
        rows = [make_row(power_cap_watts=None), make_row(power_cap_watts=350.0)]
        path = tmp_path / "caps.csv"
        write_machine_hours_csv(frame_of(rows), path)
        loaded = rows_of(read_machine_hours_csv(path))
        assert loaded[0].power_cap_watts is None
        assert loaded[1].power_cap_watts == pytest.approx(350.0)

    def test_derived_metrics_survive(self, tmp_path):
        frame = frame_of([make_row(total_data_read_bytes=8e9, total_task_seconds=4000.0)])
        path = tmp_path / "derived.csv"
        write_machine_hours_csv(frame, path)
        restored = read_machine_hours_csv(path)
        assert restored.bytes_per_second()[0] == pytest.approx(frame.bytes_per_second()[0])


class TestJobsCsv:
    def test_writes_header_and_rows(self, tmp_path):
        jobs = [
            JobRecord(job_id=1, template="t", submit_time=0.0, finish_time=100.0,
                      n_tasks=5, total_task_seconds=400.0, is_benchmark=True)
        ]
        path = tmp_path / "jobs.csv"
        assert write_jobs_csv(jobs, path) == 1
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("job_id,template")
        assert "True" in lines[1]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "jobs.csv"
        write_jobs_csv([], path)
        assert path.exists()
