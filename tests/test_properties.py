"""Property-based tests (hypothesis) on core data structures and invariants."""

from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats
from scipy.optimize import linprog

from repro.cluster import (
    ClusterSimulator,
    build_cluster,
    small_fleet_spec,
)
from repro.cluster.config import GroupLimits, YarnConfig
from repro.cluster.machine import Machine
from repro.cluster.power import throttle_factor
from repro.cluster.simulator import _FINISH
from repro.cluster.sku import DEFAULT_SKUS
from repro.cluster.software import SC1, SC2
from repro.faults import FaultInjector, FaultPlan, MachineSelector, OutageSpec, StragglerSpec
from repro.ml import HuberRegressor, LinearRegression
from repro.optim.simplex import simplex_solve
from repro.stats.distributions import student_t_cdf
from repro.telemetry.frame import MachineHourFrame
from repro.telemetry.views import ecdf
from repro.utils.rng import RngStreams
from repro.workload import JobRuntime, WorkloadGenerator, default_templates

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestEcdfProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_ecdf_is_monotone_and_normalized(self, values):
        x, y = ecdf(np.array(values))
        assert np.all(np.diff(x) >= 0)
        assert np.all(np.diff(y) >= 0)
        assert y[-1] == pytest.approx(1.0)
        assert y[0] > 0

    @given(st.lists(finite_floats, min_size=2, max_size=100))
    def test_ecdf_preserves_multiset(self, values):
        x, _ = ecdf(np.array(values))
        assert sorted(values) == pytest.approx(list(x))


class TestTDistributionProperties:
    @given(
        st.floats(min_value=-30, max_value=30, allow_nan=False),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=60)
    def test_cdf_matches_scipy_everywhere(self, t, df):
        assert student_t_cdf(t, df) == pytest.approx(
            scipy_stats.t.cdf(t, df), abs=1e-8
        )

    @given(
        st.floats(min_value=0.01, max_value=20, allow_nan=False),
        st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=40)
    def test_cdf_antisymmetric(self, t, df):
        assert student_t_cdf(t, df) + student_t_cdf(-t, df) == pytest.approx(1.0)


class TestSimplexProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_bounded_lps_match_scipy(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(m, n))
        b_ub = rng.uniform(0.5, 4.0, m)
        lower = rng.uniform(-2.0, 0.0, n)
        upper = lower + rng.uniform(0.5, 6.0, n)
        mine = simplex_solve(c, a_ub=a_ub, b_ub=b_ub, lower=lower, upper=upper)
        ref = linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=list(zip(lower, upper, strict=True)),
                      method="highs")
        if ref.status == 0:
            assert mine.is_optimal
            assert mine.objective == pytest.approx(-ref.fun, abs=1e-6)
            # The solution must actually be feasible.
            assert np.all(a_ub @ mine.x <= b_ub + 1e-7)
            assert np.all(mine.x >= lower - 1e-9)
            assert np.all(mine.x <= upper + 1e-9)
        else:
            assert mine.status != "optimal"


class TestRegressionProperties:
    @given(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40)
    def test_ols_recovers_exact_affine_data(self, slope, intercept, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-10, 10, 30)
        if np.std(x) < 1e-6:
            return
        y = intercept + slope * x
        model = LinearRegression().fit(x, y)
        assert model.slope == pytest.approx(slope, abs=1e-6)
        assert model.intercept == pytest.approx(intercept, abs=1e-5)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=25)
    def test_huber_between_clean_bounds(self, seed):
        """Huber on corrupted data stays closer to truth than OLS."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 10, 200)
        y = 1.5 + 2.0 * x + rng.normal(0, 0.2, 200)
        y[:20] += rng.uniform(20, 60)
        huber = HuberRegressor().fit(x, y)
        ols = LinearRegression().fit(x, y)
        huber_error = abs(huber.slope - 2.0) + abs(huber.intercept - 1.5)
        ols_error = abs(ols.slope - 2.0) + abs(ols.intercept - 1.5)
        assert huber_error <= ols_error + 1e-9


class TestMachineIntegralProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=3000.0),  # gap to next event
                st.floats(min_value=0.1, max_value=1.0),  # cpu fraction
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_container_seconds_integral_exact(self, task_plan):
        """Start tasks at staggered times, finish them all, flush — the
        container-hours integral must equal the analytic sum."""
        machine = Machine(
            machine_id=0, sku=DEFAULT_SKUS[5], software=SC2, rack=0, chassis=0,
            row=0, subcluster=0,
            limits=GroupLimits(max_running_containers=1000),
        )
        now = 0.0
        running = []
        expected_container_seconds = 0.0
        for gap, cpu_fraction in task_plan:
            machine.start_task(now, cpu_fraction, 1.0, 5.0, 1e8, 100.0)
            running.append((now, cpu_fraction))
            now += gap
        horizon = max(now, 3600.0)
        for start, cpu_fraction in running:
            machine.finish_task(horizon, cpu_fraction, 1.0, 5.0, 1e8,
                                horizon - start)
            expected_container_seconds += horizon - start
        frame = MachineHourFrame()
        machine.flush_hour_into(horizon, 0, frame)
        assert frame.column("avg_running_containers")[0] * 3600.0 == pytest.approx(
            expected_container_seconds, rel=1e-9
        )

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from(DEFAULT_SKUS),
        st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=60)
    def test_throttle_factor_in_unit_interval(self, util, sku, level):
        cap = sku.provisioned_power_watts * (1.0 - level)
        factor = throttle_factor(sku, util, False, cap)
        assert 0.0 < factor <= 1.0


class TestTaskDurationProperties:
    @given(
        st.sampled_from(DEFAULT_SKUS),
        st.integers(min_value=0, max_value=30),
        st.floats(min_value=1.0, max_value=1000.0),
    )
    @settings(max_examples=60)
    def test_duration_positive_and_monotone_in_load(self, sku, n_busy, work):
        machine = Machine(
            machine_id=0, sku=sku, software=SC1, rack=0, chassis=0, row=0,
            subcluster=0, limits=GroupLimits(max_running_containers=100),
        )
        baseline = machine.task_duration(work)
        assert baseline > 0
        for _ in range(n_busy):
            machine.start_task(0.0, 0.9, 1.0, 5.0, 1e8, work)
        loaded = machine.task_duration(work)
        assert loaded >= baseline - 1e-9

    @given(
        sku=st.sampled_from(DEFAULT_SKUS),
        software=st.sampled_from([SC1, SC2]),
        cap_level=st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.6)),
        feature=st.booleans(),
        slowdown=st.one_of(st.just(1.0), st.floats(min_value=0.5, max_value=4.0)),
        running=st.lists(
            st.tuples(
                st.floats(min_value=0.05, max_value=1.0),  # cpu_fraction
                st.floats(min_value=0.0, max_value=5e9),  # data_bytes
                st.floats(min_value=1.0, max_value=2000.0),  # work_seconds
            ),
            max_size=40,
        ),
        cpu=st.floats(min_value=0.05, max_value=1.0),
        data=st.floats(min_value=0.0, max_value=5e9),
        work=st.floats(min_value=0.01, max_value=5000.0),
    )
    @settings(max_examples=150)
    def test_start_task_duration_is_task_duration_bit_for_bit(
        self, sku, software, cap_level, feature, slowdown, running, cpu, data, work
    ):
        """``start_task`` computes the duration inline; it must be exactly
        ``task_duration`` on the same machine state after admission."""

        def machine():
            m = Machine(
                machine_id=0, sku=sku, software=software, rack=0, chassis=0, row=0,
                subcluster=0, limits=GroupLimits(max_running_containers=100),
            )
            m.feature_enabled = feature
            m.slowdown = slowdown
            if cap_level is not None:
                m.cap_watts = sku.provisioned_power_watts * (1.0 - cap_level)
            for i, (c, d, w) in enumerate(running):
                m.start_task(float(i), c, 1.0, 5.0, d, w)
            return m

        started, twin = machine(), machine()
        now = float(len(running))
        duration = started.start_task(now, cpu, 1.0, 5.0, data, work)
        twin.advance(now)
        twin.active_cores += cpu  # the admission state task_duration reads
        assert duration == twin.task_duration(work)
        assert started.io_rate_bytes_per_s == twin.io_rate_bytes_per_s + data / duration


_selectors = st.one_of(
    st.builds(MachineSelector, subcluster=st.integers(min_value=0, max_value=2)),
    st.builds(
        MachineSelector,
        sku=st.sampled_from(["Gen 1.1", "Gen 2.2", "Gen 4.1"]),
        fraction=st.floats(min_value=0.1, max_value=1.0),
    ),
)
_hours = st.floats(min_value=0.0, max_value=1.8)
_fault_plans = st.builds(
    FaultPlan,
    outages=st.lists(
        st.builds(
            OutageSpec,
            at_hour=_hours,
            duration_hours=st.floats(min_value=0.05, max_value=1.5),
            selector=_selectors,
            recovery_jitter_hours=st.floats(min_value=0.0, max_value=0.5),
        ),
        max_size=3,
    ).map(tuple),
    stragglers=st.lists(
        st.builds(
            StragglerSpec,
            at_hour=_hours,
            duration_hours=st.floats(min_value=0.05, max_value=1.5),
            slowdown=st.floats(min_value=1.1, max_value=4.0),
            selector=_selectors,
        ),
        max_size=2,
    ).map(tuple),
    seed=st.integers(min_value=0, max_value=2**16),
)


def _run_conserving(
    plan, jobs_per_hour, max_running, max_queued, seed, actions=(), timeline=None
):
    """Simulate 2 h under ``plan`` and assert task conservation.

    Every task of an unfinished job's current stage is exactly one of: a live
    FINISH entry, in a machine queue, or in the RM-pending FIFO. A
    ``timeline`` dict, when given, is filled with ``job_id -> (stage start
    times, finish times per stage)``.
    """
    hours = 2.0
    config = YarnConfig(
        default_limits=GroupLimits(
            max_running_containers=max_running, max_queued_containers=max_queued
        )
    )
    cluster = build_cluster(small_fleet_spec(), config)
    workload = WorkloadGenerator(
        default_templates(), jobs_per_hour=jobs_per_hour, streams=RngStreams(seed)
    ).generate(hours)
    simulator = ClusterSimulator(cluster, workload, streams=RngStreams(seed + 1))
    FaultInjector(plan).schedule_on(simulator)
    for time, action in actions:
        simulator.schedule_action(time, action)

    jobs: dict[int, JobRuntime] = {}
    finishes: Counter = Counter()
    start_next_stage = JobRuntime.start_next_stage
    on_task_finish = JobRuntime.on_task_finish

    def recording_start(job, stream):
        jobs[job.job_id] = job
        if timeline is not None:
            starts, stage_finishes = timeline.setdefault(job.job_id, ([], []))
            starts.append(simulator.now)
            stage_finishes.append([])
        return start_next_stage(job, stream)

    def counting_finish(job, finish_time, duration, log_row):
        finishes[job.job_id] += 1
        if timeline is not None:
            timeline[job.job_id][1][job.current_stage].append(finish_time)
        return on_task_finish(job, finish_time, duration, log_row)

    with (
        patch.object(JobRuntime, "start_next_stage", recording_start),
        patch.object(JobRuntime, "on_task_finish", counting_finish),
    ):
        result = simulator.run(hours)

    outstanding: Counter = Counter()
    for _time, kind, seq, payload in simulator._heap:
        if kind == _FINISH and payload.finish_seq == seq:
            outstanding[payload.job.job_id] += 1  # running
    for machine in cluster.machines:
        for entry in machine.queue:
            outstanding[entry.task.job.job_id] += 1  # machine-queued
    for task, _deferred_at in simulator.rm_pending:
        outstanding[task.job.job_id] += 1  # RM-pending

    assert result.jobs_completed == sum(job.finished for job in jobs.values())
    for job_id, job in jobs.items():
        if job.finished:
            assert finishes[job_id] == job.n_tasks_total
            assert outstanding[job_id] == 0
        else:
            assert job.remaining_in_stage == outstanding[job_id]
            stage_size = job.n_tasks_total - finishes[job_id]
            assert stage_size == job.remaining_in_stage
    return result


def _assert_stage_order(timeline):
    """No stage starts before the previous stage's last FINISH, and no task
    finishes before its own stage started."""
    assert timeline
    for starts, stage_finishes in timeline.values():
        for stage, (start, finished) in enumerate(zip(starts, stage_finishes, strict=True)):
            assert all(time >= start for time in finished)
            if stage > 0:
                previous = stage_finishes[stage - 1]
                assert previous and start >= max(previous)


class TestSimulatorConservation:
    """Tasks are conserved across crashes, requeues and backpressure.

    Crash cancellation is lazy: a crashed machine's FINISH entries stay in
    the heap and are skipped when popped. If a requeued task could revive
    such a stale entry it would finish twice, which breaks both laws below.
    """

    @given(
        plan=_fault_plans,
        jobs_per_hour=st.floats(min_value=60.0, max_value=400.0),
        max_running=st.integers(min_value=2, max_value=6),
        max_queued=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_every_task_is_finished_running_queued_or_retrying(
        self, plan, jobs_per_hour, max_running, max_queued, seed
    ):
        result = _run_conserving(plan, jobs_per_hour, max_running, max_queued, seed)

        # The hourly telemetry obeys its own laws under the same fault plans:
        # availability and utilization are fractions, the hourly container
        # integral never exceeds capacity × 3600, and an hour short of full
        # availability is always flagged as faulted.
        frame = result.frame
        available = frame.column("available_fraction")
        utilization = frame.column("cpu_utilization")
        assert len(frame) > 0
        assert np.all((available >= 0.0) & (available <= 1.0))
        assert np.all((utilization >= 0.0) & (utilization <= 1.0))
        assert np.all(
            frame.column("avg_running_containers")
            <= frame.column("max_running_containers")
        )
        assert np.all(frame.column("faulted")[available < 1.0])

    @given(
        plan=_fault_plans,
        jobs_per_hour=st.floats(min_value=60.0, max_value=400.0),
        max_running=st.integers(min_value=2, max_value=6),
        max_queued=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_stages_run_in_order_through_crash_requeues(
        self, plan, jobs_per_hour, max_running, max_queued, seed
    ):
        """Stage barrier: no stage starts before the previous stage's last
        FINISH, and no task finishes before its stage started, including
        tasks a crash requeued."""
        timeline: dict[int, tuple[list[float], list[list[float]]]] = {}
        _run_conserving(plan, jobs_per_hour, max_running, max_queued, seed, timeline=timeline)
        _assert_stage_order(timeline)

    def test_stage_order_holds_for_tasks_a_crash_requeued(self):
        plan = FaultPlan(
            outages=(
                OutageSpec(
                    at_hour=0.4, duration_hours=0.5, selector=MachineSelector(subcluster=0)
                ),
            )
        )
        timeline: dict[int, tuple[list[float], list[list[float]]]] = {}
        result = _run_conserving(plan, 300.0, 3, 2, seed=11, timeline=timeline)
        assert result.tasks_requeued > 0
        _assert_stage_order(timeline)

    def test_recover_serves_work_left_pending_by_a_fleet_wide_crash(self):
        """Every machine dies at 0.5 h on a choked fleet and returns at 0.75 h.

        The crash sends all displaced work RM-pending, arrivals join it while
        the fleet is down, and the RECOVER events alone hand it out.
        """
        plan = FaultPlan(outages=(OutageSpec(at_hour=0.5, duration_hours=0.25),))
        recover_s = 0.75 * 3600.0
        probes: dict[str, tuple[bool, int, int]] = {}

        def probe(name):
            def action(sim):
                probes[name] = (
                    all(m.faulted for m in sim.cluster.machines),
                    len(sim.rm_pending),
                    sim.result.tasks_started,
                )
            return action

        # An action runs before a RECOVER at the same instant.
        _run_conserving(
            plan, 400.0, max_running=2, max_queued=0, seed=3,
            actions=[(recover_s, probe("down")), (recover_s + 1e-3, probe("up"))],
        )
        all_down, pending_down, started_down = probes["down"]
        all_down_after, pending_up, started_up = probes["up"]
        assert all_down and pending_down > 0
        assert not all_down_after
        served = pending_down - pending_up
        assert served > 0
        assert started_up - started_down >= served
