"""Tests for Machine: state transitions, exact telemetry integrals, queueing."""

import pytest

from repro.cluster.config import GroupLimits
from repro.cluster.machine import RAM_BASE_GB, SSD_BASE_GB, Machine
from repro.cluster.sku import sku_by_name
from repro.cluster.software import SC1, SC2
from repro.telemetry.frame import MachineHourFrame


def make_machine(sku="Gen 4.1", software=SC2, max_containers=10):
    return Machine(
        machine_id=1,
        sku=sku_by_name(sku),
        software=software,
        rack=0,
        chassis=0,
        row=0,
        subcluster=0,
        limits=GroupLimits(max_running_containers=max_containers),
    )


def flush(machine, now, hour=0, frame=None):
    """Flush the hour ending at ``now`` into ``frame`` (a new one by default)."""
    frame = MachineHourFrame() if frame is None else frame
    machine.flush_hour_into(now, hour, frame)
    return frame


class TestSlotAccounting:
    def test_fresh_machine_has_free_slot(self):
        machine = make_machine()
        assert machine.has_free_slot
        assert machine.n_running == 0

    def test_start_fills_slots(self):
        machine = make_machine(max_containers=2)
        machine.start_task(0.0, 0.8, 2.0, 10.0, 1e9, 100.0)
        assert machine.has_free_slot
        machine.start_task(0.0, 0.8, 2.0, 10.0, 1e9, 100.0)
        assert not machine.has_free_slot

    def test_finish_frees_resources(self):
        machine = make_machine()
        duration = machine.start_task(0.0, 0.8, 2.0, 10.0, 1e9, 100.0)
        machine.finish_task(duration, 0.8, 2.0, 10.0, 1e9, duration)
        assert machine.n_running == 0
        assert machine.active_cores == pytest.approx(0.0)
        assert machine.ram_gb_in_use == pytest.approx(RAM_BASE_GB)
        assert machine.ssd_gb_in_use == pytest.approx(SSD_BASE_GB)
        assert machine.io_rate_bytes_per_s == pytest.approx(0.0, abs=1e-6)


class TestDurationModel:
    def test_idle_machine_duration_is_work_over_speed(self):
        machine = make_machine()
        # With zero running containers the contention term is 1.
        duration = machine.task_duration(100.0)
        assert duration == pytest.approx(100.0 / machine.sku.speed_factor, rel=1e-6)

    def test_busy_machine_slows_tasks(self):
        idle = make_machine()
        busy = make_machine()
        for _ in range(8):
            busy.start_task(0.0, 1.0, 2.0, 10.0, 1e9, 100.0)
        assert busy.task_duration(100.0) > idle.task_duration(100.0)

    def test_slower_sku_takes_longer(self):
        old = make_machine(sku="Gen 1.1", software=SC1)
        new = make_machine(sku="Gen 4.2", software=SC1)
        assert old.task_duration(100.0) > new.task_duration(100.0)

    def test_sc1_io_penalty_exceeds_sc2_under_load(self):
        """Same SKU and I/O load: the HDD temp store penalizes more."""
        sc1 = make_machine(sku="Gen 2.2", software=SC1)
        sc2 = make_machine(sku="Gen 2.2", software=SC2)
        for machine in (sc1, sc2):
            machine.io_rate_bytes_per_s = 100e6  # 100 MB/s of task I/O
        assert sc1.io_penalty() > sc2.io_penalty() > 1.0

    def test_feature_speeds_up_tasks(self):
        plain = make_machine()
        boosted = make_machine()
        boosted.feature_enabled = True
        assert boosted.task_duration(100.0) < plain.task_duration(100.0)

    def test_binding_power_cap_slows_tasks(self):
        capped = make_machine()
        capped.cap_watts = capped.sku.power_idle_watts + 5.0
        for _ in range(8):
            capped.start_task(0.0, 1.0, 2.0, 10.0, 1e9, 100.0)
        uncapped = make_machine()
        for _ in range(8):
            uncapped.start_task(0.0, 1.0, 2.0, 10.0, 1e9, 100.0)
        assert capped.task_duration(100.0) > uncapped.task_duration(100.0)


class TestTelemetryIntegrals:
    def test_idle_hour_reports_zero_utilization(self):
        machine = make_machine()
        frame = flush(machine, 3600.0)
        assert frame.column("cpu_utilization")[0] == pytest.approx(0.0)
        assert frame.column("tasks_finished")[0] == 0
        assert frame.column("avg_power_watts")[0] == pytest.approx(
            machine.sku.power_idle_watts
        )

    def test_half_hour_task_gives_half_container_average(self):
        machine = make_machine()
        machine.start_task(0.0, 1.0, 2.0, 10.0, 1e9, 1.0)
        # Manually finish at t=1800 regardless of computed duration.
        machine.finish_task(1800.0, 1.0, 2.0, 10.0, 1e9, 1800.0)
        frame = flush(machine, 3600.0)
        assert frame.column("avg_running_containers")[0] == pytest.approx(0.5)
        assert frame.column("cpu_utilization")[0] == pytest.approx(
            0.5 / machine.sku.cores, rel=1e-6
        )
        assert frame.column("tasks_finished")[0] == 1
        assert frame.column("total_task_seconds")[0] == pytest.approx(1800.0)

    def test_flush_resets_accumulators(self):
        machine = make_machine()
        machine.start_task(0.0, 1.0, 2.0, 10.0, 1e9, 1.0)
        machine.finish_task(1000.0, 1.0, 2.0, 10.0, 1e9, 1000.0)
        frame = flush(machine, 3600.0, hour=0)
        flush(machine, 7200.0, hour=1, frame=frame)
        assert frame.column("hour").tolist() == [0, 1]
        assert frame.column("tasks_finished")[1] == 0
        assert frame.column("avg_running_containers")[1] == pytest.approx(0.0)

    def test_io_integral_equals_data_read(self):
        """A task reading D bytes contributes exactly D to the hour's total."""
        machine = make_machine()
        data = 5e9
        duration = machine.start_task(0.0, 0.8, 2.0, 10.0, data, 10.0)
        machine.finish_task(duration, 0.8, 2.0, 10.0, data, duration)
        frame = flush(machine, 3600.0)
        assert frame.column("total_data_read_bytes")[0] == pytest.approx(data, rel=1e-9)

    def test_saturated_hour_never_reads_above_its_container_count(self):
        # Integrating at sevenths of the hour sums the 3·dt pieces to a few
        # ulps over 3 × 3600; the reported average must still be exactly 3.
        machine = make_machine(max_containers=3)
        for _ in range(3):
            machine.start_task(0.0, 0.5, 1.0, 1.0, 1e6, 100.0)
        for k in range(1, 7):
            machine.advance(k * 3600.0 / 7)
        frame = flush(machine, 3600.0)
        assert frame.column("avg_running_containers")[0] == 3.0

    def test_power_integral_mixes_capped_and_uncapped(self):
        machine = make_machine()
        machine.advance(1800.0)  # half hour uncapped at idle
        machine.cap_watts = machine.sku.power_idle_watts + 1.0
        frame = flush(machine, 3600.0)
        assert frame.column("avg_power_watts")[0] == pytest.approx(
            machine.sku.power_idle_watts, rel=1e-6
        )


class TestQueue:
    def test_enqueue_dequeue_wait(self):
        machine = make_machine()
        machine.enqueue(100.0, "task-a")
        popped = machine.dequeue(400.0)
        assert popped is not None
        task, wait = popped
        assert task == "task-a"
        assert wait == pytest.approx(300.0)

    def test_dequeue_empty_returns_none(self):
        assert make_machine().dequeue(0.0) is None

    def test_queue_stats_in_record(self):
        machine = make_machine()
        machine.enqueue(0.0, "t1")
        machine.dequeue(1800.0)
        frame = flush(machine, 3600.0)
        assert frame.column("queue_enqueued")[0] == 1
        assert frame.column("queue_dequeued")[0] == 1
        assert frame.column("queue_avg_length")[0] == pytest.approx(0.5)
        assert frame.waits_flat().tolist() == [1800.0]

    def test_queue_space_limit(self):
        machine = make_machine()
        machine.max_queued_containers = 1
        assert machine.has_queue_space
        machine.enqueue(0.0, "t1")
        assert not machine.has_queue_space


class TestConfigApplication:
    def test_apply_limits_changes_slots(self):
        machine = make_machine(max_containers=10)
        machine.apply_limits(GroupLimits(max_running_containers=3))
        assert machine.max_running_containers == 3

    def test_lowering_below_running_does_not_kill(self):
        machine = make_machine(max_containers=5)
        for _ in range(5):
            machine.start_task(0.0, 0.5, 1.0, 5.0, 1e8, 50.0)
        machine.apply_limits(GroupLimits(max_running_containers=2))
        assert machine.n_running == 5
        assert not machine.has_free_slot
