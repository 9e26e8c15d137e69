"""Integration tests for the event-driven simulator.

These rely on the session-scoped small simulation plus a few dedicated short
runs for properties that need special setups (actions, determinism).
"""

import cProfile
import heapq
import pstats
from collections import Counter

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    ObservationSpec,
    SimulationConfig,
    build_cluster,
    small_fleet_spec,
)
from repro.cluster.config import GroupLimits, YarnConfig
from repro.cluster.scheduler import YarnScheduler
from repro.cluster.simulator import _HOUR, _SAMPLE
from repro.telemetry import PerformanceMonitor
from repro.utils.rng import RngStreams
from repro.workload import WorkloadGenerator, default_templates
from repro.workload.generator import JobArrival, Workload
from repro.workload.template import JobTemplate, StageSpec


def quick_sim(
    seed=5, hours=2.0, jobs_per_hour=150.0, config=None, sim_config=None, profile=None
):
    cluster = build_cluster(small_fleet_spec(), config)
    workload = WorkloadGenerator(
        default_templates(), jobs_per_hour=jobs_per_hour, streams=RngStreams(seed)
    ).generate(hours)
    simulator = ClusterSimulator(
        cluster, workload, streams=RngStreams(seed + 1), config=sim_config,
        profile=profile,
    )
    return cluster, simulator, workload


class TestTelemetryConservation:
    def test_one_record_per_machine_hour(self, small_sim_result):
        cluster, result = small_sim_result
        assert len(result.frame) == len(cluster.machines) * 6

    def test_tasks_finished_consistent_with_job_records(self, small_sim_result):
        _, result = small_sim_result
        telemetry_tasks = int(result.frame.column("tasks_finished").sum())
        job_tasks = sum(j.n_tasks for j in result.jobs)
        # Telemetry counts every finished task; completed jobs are a subset.
        assert telemetry_tasks >= job_tasks
        assert telemetry_tasks <= result.tasks_started

    def test_task_seconds_match_between_views(self, small_sim_result):
        """Job-level and machine-level task-seconds agree for completed work."""
        _, result = small_sim_result
        machine_seconds = sum(result.frame.column("total_task_seconds").tolist())
        job_seconds = sum(j.total_task_seconds for j in result.jobs)
        assert machine_seconds >= job_seconds * 0.99

    def test_utilization_bounded(self, small_sim_result):
        _, result = small_sim_result
        utilization = result.frame.column("cpu_utilization")
        assert np.all((utilization >= 0.0) & (utilization <= 1.0))
        assert np.all(result.frame.column("avg_running_containers") >= 0.0)

    def test_submitted_ge_completed(self, small_sim_result):
        _, result = small_sim_result
        assert result.jobs_submitted >= result.jobs_completed > 0

    def test_task_log_sampled_fully(self, small_sim_result):
        _, result = small_sim_result
        assert len(result.task_log) == result.tasks_started

    def test_job_runtimes_positive(self, small_sim_result):
        _, result = small_sim_result
        assert all(j.runtime > 0 for j in result.jobs)

    def test_resource_samples_collected(self, small_sim_result):
        _, result = small_sim_result
        assert len(result.resource_samples) > 0
        for sample in result.resource_samples[:50]:
            assert sample.cores_in_use >= 0
            assert sample.ram_gb_in_use > 0


class TestDeterminism:
    def test_same_seed_same_result(self):
        _, sim_a, _ = quick_sim(seed=11)
        _, sim_b, _ = quick_sim(seed=11)
        result_a = sim_a.run(2.0)
        result_b = sim_b.run(2.0)
        assert result_a.tasks_started == result_b.tasks_started
        assert result_a.jobs_completed == result_b.jobs_completed
        totals_a = result_a.frame.column("total_data_read_bytes")
        totals_b = result_b.frame.column("total_data_read_bytes")
        np.testing.assert_allclose(totals_a, totals_b)

    def test_different_seed_differs(self):
        _, sim_a, _ = quick_sim(seed=11)
        _, sim_b, _ = quick_sim(seed=12)
        assert sim_a.run(2.0).tasks_started != sim_b.run(2.0).tasks_started


class TestScheduledActions:
    def test_action_changes_config_mid_run(self):
        config = YarnConfig(default_limits=GroupLimits(max_running_containers=8))
        cluster, simulator, _ = quick_sim(config=config, hours=3.0)
        new = config.copy()
        new.default_limits = GroupLimits(max_running_containers=16)

        def raise_limits(sim):
            sim.apply_yarn_config(new)

        simulator.schedule_action(3600.0, raise_limits)
        result = simulator.run(3.0)
        monitor = PerformanceMonitor(result.frame)
        before = monitor.filter(hour_range=(0, 1)).frame
        after = monitor.filter(hour_range=(2, 3)).frame
        assert np.all(before.column("max_running_containers") == 8)
        assert np.all(after.column("max_running_containers") == 16)

    def test_action_outside_horizon_ignored(self):
        _, simulator, _ = quick_sim(hours=1.0)
        fired = []
        simulator.schedule_action(10 * 3600.0, lambda sim: fired.append(1))
        simulator.run(1.0)
        assert not fired


class TestQueueingBehaviour:
    def test_overload_builds_queues(self):
        config = YarnConfig(default_limits=GroupLimits(max_running_containers=2))
        cluster, simulator, _ = quick_sim(config=config, jobs_per_hour=400.0,
                                          hours=2.0)
        result = simulator.run(2.0)
        assert result.tasks_queued > 0
        waits = result.frame.waits_flat()
        assert len(waits) and waits.min() >= 0.0

    def test_queued_tasks_eventually_run(self):
        config = YarnConfig(default_limits=GroupLimits(max_running_containers=2))
        _, simulator, _ = quick_sim(config=config, jobs_per_hour=250.0, hours=4.0)
        result = simulator.run(4.0)
        dequeued = int(result.frame.column("queue_dequeued").sum())
        assert dequeued > 0


class TestValidation:
    def test_zero_duration_rejected(self):
        _, simulator, _ = quick_sim()
        with pytest.raises(ValueError):
            simulator.run(0.0)

    def test_sample_rate_validation(self):
        """Out-of-range sample rates are rejected before any run."""
        _, simulator, _ = quick_sim(
            sim_config=SimulationConfig(task_log_sample_rate=0.5)
        )
        assert simulator.result.task_log.sample_rate == 0.5
        with pytest.raises(ValueError):
            quick_sim(sim_config=SimulationConfig(task_log_sample_rate=1.5))


class TestSimulationConfigValidation:
    """Bad knobs fail at construction, not mid-run (or never)."""

    @pytest.mark.parametrize(
        "knobs",
        [
            {"task_log_sample_rate": -1.0},
            {"task_log_sample_rate": 1.5},
            {"resource_sample_period_s": -60.0},
            {"resource_sample_machines": -1},
            {"resource_sample_period_s": float("nan")},
            {"resource_sample_period_s": float("inf")},
            {"task_log_sample_rate": float("nan")},
        ],
    )
    def test_out_of_range_knobs_rejected(self, knobs):
        with pytest.raises(ValueError):
            SimulationConfig(**knobs)
        with pytest.raises(ValueError):
            ObservationSpec(**knobs)

    @pytest.mark.parametrize("period", [-1.0, float("nan"), float("inf")])
    def test_bad_benchmark_period_rejected(self, period):
        with pytest.raises(ValueError):
            ObservationSpec(benchmark_period_hours=period)

    def test_defaults_and_boundaries_accepted(self):
        SimulationConfig()
        SimulationConfig(task_log_sample_rate=1.0, resource_sample_period_s=0.0,
                         resource_sample_machines=0)
        ObservationSpec(benchmark_period_hours=0.0)


class TestCriticalPath:
    def test_critical_tasks_marked_once_per_stage(self, small_sim_result):
        _, result = small_sim_result
        n_critical = sum(result.task_log.critical)
        assert n_critical >= len(result.jobs)  # every completed stage marks one

    def test_slow_skus_hold_more_critical_share(self, small_sim_result):
        _, result = small_sim_result
        shares = result.task_log.critical_share_by_sku()
        assert shares["Gen 1.1"] > shares["Gen 4.1"]


class TestBackpressure:
    """Full queues must defer placements RM-side, never crash the run."""

    def test_full_queues_defer_and_retry(self):
        config = YarnConfig(
            default_limits=GroupLimits(
                max_running_containers=1, max_queued_containers=1
            )
        )
        _, simulator, _ = quick_sim(config=config, jobs_per_hour=400.0, hours=2.0)
        result = simulator.run(2.0)
        # The choked cluster hits cluster-wide backpressure, yet the run
        # completes and keeps making progress as capacity frees.
        assert result.tasks_deferred > 0
        assert result.tasks_started > 0
        assert result.jobs_completed > 0

    def test_generous_queues_never_defer(self):
        _, simulator, _ = quick_sim(hours=1.0)
        result = simulator.run(1.0)
        assert result.tasks_deferred == 0

    def test_deferral_counts_tasks_not_attempts(self):
        """A task waiting RM-side counts once and costs no events."""
        config = YarnConfig(
            default_limits=GroupLimits(
                max_running_containers=1, max_queued_containers=0
            )
        )
        cluster = build_cluster(small_fleet_spec(), config)
        workload = WorkloadGenerator(
            default_templates(), jobs_per_hour=600.0, streams=RngStreams(11)
        ).generate(1.0)
        simulator = ClusterSimulator(
            cluster, workload, streams=RngStreams(12), profile=True
        )
        result = simulator.run(1.0)
        assert result.tasks_deferred > 0
        # Every task that ever reached placement either started, sits in a
        # machine queue, or waits in the RM-pending FIFO — so a per-task
        # counter is bounded by their sum.
        queued_now = sum(len(m.queue) for m in cluster.machines)
        placed_tasks = result.tasks_started + queued_now + len(simulator.rm_pending)
        assert result.tasks_deferred <= placed_tasks
        # Waiting is free: the event count follows started tasks, not
        # deferred tasks × horizon.
        profile = result.profile
        events = profile.events + profile.telemetry_events
        assert events <= 3 * result.tasks_started

    def test_rm_pending_time_is_recorded_as_queue_wait(self):
        """A task's time in the RM-pending FIFO joins its recorded wait.

        One job of 100 single-stage tasks lands at t=0 on 36 one-slot
        machines with no queues, so 64 tasks wait RM-side and every task's
        whole wait is its start time.
        """
        template = JobTemplate(
            name="burst",
            stages=(StageSpec("Extract", 100, n_tasks_sigma=0.0),),
            size_sigma=0.0,
        )
        config = YarnConfig(
            default_limits=GroupLimits(max_running_containers=1, max_queued_containers=0)
        )
        cluster = build_cluster(small_fleet_spec(), config)
        simulator = ClusterSimulator(
            cluster,
            Workload(arrivals=[JobArrival(time=0.0, template=template)]),
            streams=RngStreams(3),
            config=SimulationConfig(task_log_sample_rate=1.0),
        )
        result = simulator.run(6.0)
        assert result.tasks_deferred == 100 - len(cluster.machines)
        log = result.task_log
        assert len(log) == 100
        deferred = [i for i, start in enumerate(log.start) if start > 0.0]
        assert len(deferred) == result.tasks_deferred
        for row in deferred:
            assert log.queue_wait[row] >= log.start[row]
        # The frame's queue-wait samples carry the same waits.
        waits = np.sort(result.frame.waits_flat())
        expected = np.sort([log.start[row] for row in deferred])
        np.testing.assert_allclose(waits, expected)


class TestCallBudget:
    """The per-task path has a fixed Python call budget (ROADMAP item 2).

    Calls per started task under :mod:`cProfile` (builtins included) are
    deterministic for a given interpreter, so this holds on any host. On
    this window (36 machines, 2 h, 150 jobs/h, 5,609 tasks started) the
    simulator made 158,109 calls, 28.2 per task, before the per-task path
    was inlined (one placement loop per stage, inlined machine transitions
    and FINISH handling), 13.9 after, and 13.4 since stage draws come from
    one buffered normal stream. Check a regression with
    ``benchmarks/calls_per_task.py``, which prints the top callers.
    """

    BUDGET = 14.0

    def test_calls_per_started_task_within_budget(self):
        _, simulator, _ = quick_sim(hours=2.0)
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = simulator.run(2.0)
        finally:
            profiler.disable()
        calls = pstats.Stats(profiler).total_calls
        assert result.tasks_started > 5000
        assert calls / result.tasks_started <= self.BUDGET

    def test_profiling_reads_the_clock_per_stage_not_per_task(self):
        """A profiled run (every pool window is one) stays off the per-task path.

        The simulator reads ``perf_counter`` around its event loop, each
        telemetry dispatch and each ``_place`` call; it read it twice per
        event and twice per placement before (3.92 calls per started task).
        """
        _, simulator, _ = quick_sim(hours=2.0, profile=True)
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = simulator.run(2.0)
        finally:
            profiler.disable()
        clock_calls = sum(
            calls
            for (_file, _line, name), (_prim, calls, *_rest) in pstats.Stats(profiler).stats.items()
            if "perf_counter" in name
        )
        assert result.profile.placements > 0
        assert 0 < clock_calls / result.tasks_started <= 0.5


class TestProfileCounts:
    """The profile's integer-derived counts equal counts taken by wrapping."""

    @pytest.mark.parametrize("limits", [None, (1, 0), (2, 1)])
    def test_counts_match_wrapped_calls(self, monkeypatch, limits):
        config = None if limits is None else YarnConfig(
            default_limits=GroupLimits(
                max_running_containers=limits[0], max_queued_containers=limits[1]
            )
        )
        cluster, simulator, _ = quick_sim(
            hours=1.0, config=config, profile=True,
            sim_config=SimulationConfig(
                resource_sample_period_s=600.0, resource_sample_machines=2
            ),
        )
        for i, machine in enumerate(cluster.machines[:3]):
            simulator.schedule_crash(900.0 + 300.0 * i, machine)
            simulator.schedule_recover(2400.0 + 300.0 * i, machine)
        popped: list[int] = []
        real_pop, real_place = heapq.heappop, YarnScheduler.place

        def counting_pop(heap):
            entry = real_pop(heap)
            popped.append(entry[1])
            return entry

        places = Counter()

        def counting_place(scheduler, *args):
            places["calls"] += 1
            return real_place(scheduler, *args)

        monkeypatch.setattr(heapq, "heappop", counting_pop)
        monkeypatch.setattr(YarnScheduler, "place", counting_place)
        result = simulator.run(1.0)
        monkeypatch.undo()
        if simulator._heap:
            popped.pop()  # the entry past the horizon, pushed back undispatched
        kinds = Counter(popped)
        telemetry = kinds[_HOUR] + kinds[_SAMPLE]
        profile = result.profile
        assert result.machines_crashed == 3
        assert profile.telemetry_events == telemetry > 0
        assert profile.events == len(popped) - telemetry
        assert profile.placements == places["calls"] > 0
