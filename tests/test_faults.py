"""Tests for the fault-injection plane (:mod:`repro.faults`).

Covers the declarative plan values (validation, pickle, cache-key repr),
the bit-identity of fault-free runs when the fault plane is linked in (the
tentpole's no-regression lock), crash/recover semantics on the simulator
(dead machines take no work, telemetry bills partial hours, displaced tasks
requeue with their queue wait carried across the hop), straggler slowdowns,
injector determinism across processes, the scenario cache-key fold, the
faulted-row exclusion in wave-impact measurement, and the acceptance
criterion: a 2-tenant az-outage campaign bit-identical across the serial,
pooled and queue execution backends, with a crash-during-DEPLOY halt →
checkpoint → resume round trip.
"""

import pickle

import pytest

from repro.cluster import (
    ClusterSimulator,
    build_cluster,
    small_fleet_spec,
)
from repro.core import Kea
from repro.faults import (
    FaultInjector,
    FaultPlan,
    MachineSelector,
    OutageSpec,
    StragglerSpec,
)
from repro.flighting.build import FlightPlan
from repro.flighting.deployment import (
    DeploymentModule,
    RolloutExecution,
    RolloutPolicy,
    RolloutWaveRecord,
    _WaveImpactWindow,
)
from repro.flighting.safety import GateVerdict, SafetyGate
from repro.service import (
    ContinuousTuningService,
    FleetRegistry,
    LocalQueueBackend,
    ProcessPoolBackend,
    Scenario,
    SimulationRequest,
    TenantSpec,
    default_catalog,
)
from repro.telemetry.frame import MachineHourFrame
from repro.utils.rng import RngStreams
from repro.workload import WorkloadGenerator, default_templates

from tests.conftest import frame_of, make_row

HOUR = 3600.0


class AlwaysPassGate(SafetyGate):
    def evaluate(self, simulator) -> GateVerdict:
        return GateVerdict(passed=True, reason="rigged pass")


class FailOnEvaluation(SafetyGate):
    def __init__(self, fail_on: int):
        self.fail_on = fail_on
        self.evaluations = 0

    def evaluate(self, simulator) -> GateVerdict:
        self.evaluations += 1
        if self.evaluations >= self.fail_on:
            return GateVerdict(passed=False, reason="rigged gate failure")
        return GateVerdict(passed=True, reason="rigged pass")


def run_small_sim(
    hours: float = 6.0, actions=None, seed: int = 7, jobs_per_hour: float = 80.0
):
    """One deterministic small-fleet run; identical inputs every call."""
    cluster = build_cluster(small_fleet_spec())
    workload = WorkloadGenerator(
        default_templates(), jobs_per_hour=jobs_per_hour, streams=RngStreams(seed)
    ).generate(hours)
    simulator = ClusterSimulator(cluster, workload, streams=RngStreams(seed + 1))
    if actions is not None:
        actions(simulator)
    result = simulator.run(hours)
    return cluster, simulator, result


def subcluster_outage_plan(
    at_hour: float = 1.0, duration_hours: float = 2.0, jitter: float = 0.0
) -> FaultPlan:
    return FaultPlan(
        outages=(
            OutageSpec(
                at_hour=at_hour,
                duration_hours=duration_hours,
                selector=MachineSelector(subcluster=0),
                recovery_jitter_hours=jitter,
                name="test-outage",
            ),
        ),
        seed=99,
    )


# ----------------------------------------------------------------------
# Plan values
# ----------------------------------------------------------------------
class TestFaultPlanValues:
    def test_validation_rejects_nonsense(self):
        with pytest.raises(ValueError):
            MachineSelector(fraction=0.0)
        with pytest.raises(ValueError):
            MachineSelector(fraction=1.5)
        with pytest.raises(ValueError):
            OutageSpec(at_hour=-1.0, duration_hours=1.0)
        with pytest.raises(ValueError):
            OutageSpec(at_hour=0.0, duration_hours=0.0)
        with pytest.raises(ValueError):
            OutageSpec(at_hour=0.0, duration_hours=1.0, recovery_jitter_hours=-1.0)
        with pytest.raises(ValueError):
            StragglerSpec(at_hour=0.0, duration_hours=1.0, slowdown=1.0)

    def test_pickle_round_trip_preserves_value_and_repr(self):
        plan = subcluster_outage_plan(jitter=0.5)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert repr(clone) == repr(plan)  # cache-key material

    def test_empty_plan_and_describe(self):
        assert FaultPlan().is_empty
        assert FaultPlan().describe() == "no faults"
        plan = FaultPlan(
            outages=(OutageSpec(at_hour=6.0, duration_hours=3.0, name="az0"),),
            stragglers=(
                StragglerSpec(
                    at_hour=4.0, duration_hours=8.0, slowdown=2.5, name="tail"
                ),
            ),
        )
        assert not plan.is_empty
        assert "az0@6h for 3h" in plan.describe()
        assert "tail@4h ×2.5 for 8h" in plan.describe()


# ----------------------------------------------------------------------
# No-fault bit-identity: the fault plane must be invisible when unused
# ----------------------------------------------------------------------
class TestNoFaultBitIdentity:
    def test_empty_plan_run_is_byte_identical_to_plain_run(self):
        _, _, plain = run_small_sim()

        def inject_nothing(simulator):
            assert FaultInjector(FaultPlan(seed=5)).schedule_on(simulator) == 0

        _, _, armed = run_small_sim(actions=inject_nothing)
        assert armed.frame == plain.frame
        assert pickle.dumps(armed.frame) == pickle.dumps(plain.frame)
        clone = pickle.loads(pickle.dumps(armed.frame))
        assert clone == plain.frame
        assert armed.tasks_started == plain.tasks_started
        assert armed.tasks_queued == plain.tasks_queued
        assert armed.jobs_completed == plain.jobs_completed
        assert armed.machines_crashed == 0
        assert armed.machines_recovered == 0
        assert armed.tasks_requeued == 0

    def test_no_fault_run_reports_full_availability(self):
        _, _, result = run_small_sim(hours=3.0)
        available = result.frame.column("available_fraction")
        faulted = result.frame.column("faulted")
        assert (available == 1.0).all()
        assert not faulted.any()

    def test_scenario_without_faults_exposes_no_fault_hook(self):
        scenario = default_catalog().get("diurnal-baseline")
        assert scenario.fault_plan is None
        assert scenario.fault_actions() is None
        empty = Scenario(
            name="armed-empty", description="", fault_plan=FaultPlan()
        )
        assert empty.fault_actions() is None


# ----------------------------------------------------------------------
# Crash / recover semantics
# ----------------------------------------------------------------------
class TestCrashRecover:
    @pytest.fixture(scope="class")
    def crashed_run(self):
        plan = FaultPlan(
            outages=(
                OutageSpec(
                    at_hour=1.25,
                    duration_hours=1.75,  # recover exactly at hour 3.0
                    selector=MachineSelector(subcluster=0),
                    name="test-outage",
                ),
            ),
            seed=99,
        )
        return run_small_sim(
            hours=5.0,
            actions=lambda sim: FaultInjector(plan).schedule_on(sim),
        )

    def test_counters_track_the_outage(self, crashed_run):
        cluster, _, result = crashed_run
        hit = [m for m in cluster.machines if m.subcluster == 0]
        assert len(hit) == 12
        assert result.machines_crashed == 12
        assert result.machines_recovered == 12
        assert result.tasks_requeued > 0

    def test_telemetry_bills_partial_and_dark_hours(self, crashed_run):
        cluster, _, result = crashed_run
        frame = result.frame
        hit_ids = {m.machine_id for m in cluster.machines if m.subcluster == 0}
        machine_ids = frame.column("machine_id")
        hours = frame.column("hour")
        available = frame.column("available_fraction")
        faulted = frame.column("faulted")
        containers = frame.column("avg_running_containers")
        tasks = frame.column("tasks_finished")
        for i in range(len(frame)):
            if machine_ids[i] not in hit_ids:
                assert available[i] == 1.0 and not faulted[i]
                continue
            if hours[i] == 1:  # crashed at 1.25h: 0.25h of the hour was up
                assert available[i] == pytest.approx(0.25)
                assert faulted[i]
            elif hours[i] == 2:  # fully dark
                assert available[i] == 0.0
                assert faulted[i]
                assert containers[i] == 0.0
                assert tasks[i] == 0
            else:  # before the crash / after the hour-3.0 recovery
                assert available[i] == 1.0
                assert not faulted[i]

    def test_dead_machines_admit_no_work(self):
        cluster = build_cluster(small_fleet_spec())
        machine = cluster.machines[0]
        machine.crash(0.0)
        assert not machine.has_free_slot
        assert not machine.has_queue_space
        machine.recover(60.0)
        assert machine.has_free_slot
        assert machine.has_queue_space

    def test_faulted_runs_are_deterministic(self, crashed_run):
        _, _, first = crashed_run
        plan = FaultPlan(
            outages=(
                OutageSpec(
                    at_hour=1.25,
                    duration_hours=1.75,
                    selector=MachineSelector(subcluster=0),
                    name="test-outage",
                ),
            ),
            seed=99,
        )
        _, _, second = run_small_sim(
            hours=5.0, actions=lambda sim: FaultInjector(plan).schedule_on(sim)
        )
        assert second.frame == first.frame
        assert second.tasks_requeued == first.tasks_requeued

    def test_requeued_tasks_carry_their_queue_wait(self):
        """A queued task displaced by a crash keeps its accrued wait: the
        fault run's telemetry reports end-to-end waits, so its total wait
        mass is no smaller than per-placement accounting could produce."""
        cluster, _, result = run_small_sim(
            # Stop a quarter hour after the hour-1 crash, while the displaced
            # queued tasks are still waiting in their new queues.
            hours=1.25,
            jobs_per_hour=600.0,  # saturate: the outage displaces queued work
            actions=lambda sim: FaultInjector(
                subcluster_outage_plan()
            ).schedule_on(sim),
        )
        assert result.tasks_requeued > 0
        assert result.tasks_queued > 0
        # Every carry was joined into a later placement: a task holds one
        # only between its displacement and its next successful placement,
        # so nothing waiting in a queue at the horizon still does.
        queued = [entry.task for m in cluster.machines for entry in m.queue]
        assert queued and all(task.carried_wait == 0.0 for task in queued)
        assert float(result.frame.queue_mean_wait().sum()) > 0.0

    def test_note_carried_wait_lands_in_the_hour_queue_stats(self):
        cluster = build_cluster(small_fleet_spec())
        machine = cluster.machines[0]
        machine.note_carried_wait(42.0)
        frame = MachineHourFrame()
        machine.flush_hour_into(HOUR, 0, frame)
        assert frame.queue_mean_wait()[0] == pytest.approx(42.0)


# ----------------------------------------------------------------------
# Stragglers
# ----------------------------------------------------------------------
class TestStragglers:
    def test_slowdown_stretches_task_durations(self):
        cluster = build_cluster(small_fleet_spec())
        machine = cluster.machines[0]
        nominal = machine.task_duration(600.0)
        machine.slowdown = 2.5
        assert machine.task_duration(600.0) == pytest.approx(2.5 * nominal)
        machine.slowdown = 1.0
        assert machine.task_duration(600.0) == nominal  # ×1.0 is bit-exact

    def test_straggler_episode_cuts_victim_throughput(self):
        plan = FaultPlan(
            stragglers=(
                StragglerSpec(
                    at_hour=1.0,
                    duration_hours=3.0,
                    slowdown=3.0,
                    selector=MachineSelector(subcluster=0),
                    name="tail",
                ),
            ),
            seed=7,
        )
        cluster, _, slowed = run_small_sim(
            hours=4.0, actions=lambda sim: FaultInjector(plan).schedule_on(sim)
        )
        _, _, plain = run_small_sim(hours=4.0)
        hit_ids = {m.machine_id for m in cluster.machines if m.subcluster == 0}

        def victim_tasks(result):
            frame = result.frame
            ids = frame.column("machine_id")
            hours = frame.column("hour")
            tasks = frame.column("tasks_finished")
            return sum(
                int(tasks[i])
                for i in range(len(frame))
                if ids[i] in hit_ids and hours[i] >= 1
            )

        assert victim_tasks(slowed) < victim_tasks(plain)
        # Stragglers serve slowly but stay up: no availability impact.
        assert (slowed.frame.column("available_fraction") == 1.0).all()
        assert not slowed.frame.column("faulted").any()
        assert slowed.machines_crashed == 0

    def test_slowdown_factor_must_be_positive(self):
        cluster, simulator, _ = run_small_sim(hours=1.0)
        with pytest.raises(ValueError):
            simulator.schedule_slowdown(0.0, cluster.machines[0], 0.0)


# ----------------------------------------------------------------------
# Injector determinism
# ----------------------------------------------------------------------
class TestInjectorDeterminism:
    def test_fractional_selection_is_stable_and_seeded(self):
        cluster = build_cluster(small_fleet_spec())
        selector = MachineSelector(sku="Gen 1.1", fraction=0.5)
        plan = FaultPlan(seed=2021)
        rng_a = FaultInjector(plan)._stream("outage", 0, "x")
        rng_b = FaultInjector(plan)._stream("outage", 0, "x")
        picked_a = FaultInjector._select(cluster, selector, rng_a)
        picked_b = FaultInjector._select(cluster, selector, rng_b)
        assert [m.machine_id for m in picked_a] == [
            m.machine_id for m in picked_b
        ]
        assert len(picked_a) == 6  # half of the 12 Gen 1.1 machines
        ids = [m.machine_id for m in picked_a]
        assert ids == sorted(ids)
        other = FaultInjector(FaultPlan(seed=2022))._stream("outage", 0, "x")
        picked_other = FaultInjector._select(cluster, selector, other)
        assert {m.machine_id for m in picked_other} != {
            m.machine_id for m in picked_a
        }

    def test_recovery_jitter_delays_some_recoveries_past_the_base(self):
        plan = subcluster_outage_plan(jitter=0.5)
        cluster, simulator, result = run_small_sim(
            hours=8.0, actions=lambda sim: FaultInjector(plan).schedule_on(sim)
        )
        assert result.machines_crashed == 12
        assert result.machines_recovered == 12
        # Jittered recoveries spread across hours: at least one machine is
        # still dark after the base 2h outage would have ended.
        frame = result.frame
        hit_ids = {m.machine_id for m in cluster.machines if m.subcluster == 0}
        faulted = frame.column("faulted")
        hours = frame.column("hour")
        ids = frame.column("machine_id")
        late = [
            int(hours[i])
            for i in range(len(frame))
            if faulted[i] and ids[i] in hit_ids and hours[i] >= 3
        ]
        assert late  # some recovery landed past hour 3 (1.0h + 2.0h base)

    def test_schedule_on_reports_event_count(self):
        fresh_cluster = build_cluster(small_fleet_spec())
        workload = WorkloadGenerator(
            default_templates(), jobs_per_hour=10.0, streams=RngStreams(3)
        ).generate(1.0)
        sim = ClusterSimulator(fresh_cluster, workload, streams=RngStreams(4))
        events = FaultInjector(subcluster_outage_plan()).schedule_on(sim)
        assert events == 24  # 12 machines × (crash + recover)


# ----------------------------------------------------------------------
# Scenario integration: cache keys and the composed actions hook
# ----------------------------------------------------------------------
class TestScenarioFaults:
    def test_fault_plan_differentiates_cache_keys(self):
        spec = TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5)
        from repro.cluster.cluster import default_yarn_config

        def request(scenario):
            return SimulationRequest(
                tenant="probe",
                kind="observe",
                spec=spec,
                scenario=scenario,
                config=default_yarn_config(),
                workload_tag="probe/tag",
                days=0.25,
            )

        plain = default_catalog().get("diurnal-baseline")
        outage = default_catalog().get("az-outage")
        assert request(plain).cache_key() != request(outage).cache_key()
        clone = pickle.loads(pickle.dumps(request(outage)))
        assert clone.cache_key() == request(outage).cache_key()

    def test_catalog_registers_the_fault_scenarios(self):
        catalog = default_catalog()
        outage = catalog.get("az-outage")
        assert outage.fault_plan is not None and outage.fault_plan.outages
        assert outage.fault_actions() is not None
        tail = catalog.get("straggler-tail")
        assert tail.fault_plan is not None and tail.fault_plan.stragglers
        straggler = tail.fault_plan.stragglers[0]
        assert straggler.slowdown == 2.5
        assert straggler.selector.fraction == 0.5

    def test_actions_compose_decommission_with_faults(self):
        scenario = Scenario(
            name="both",
            description="drain + outage",
            decommission_sku="Gen 1.1",
            decommission_hour=2.0,
            fault_plan=subcluster_outage_plan(),
        )
        cluster = build_cluster(small_fleet_spec())
        workload = WorkloadGenerator(
            default_templates(), jobs_per_hour=40.0, streams=RngStreams(5)
        ).generate(4.0)
        simulator = ClusterSimulator(cluster, workload, streams=RngStreams(6))
        scenario.actions()(simulator)
        result = simulator.run(4.0)
        assert result.machines_crashed == 12  # the fault half took effect
        drained = [m for m in cluster.machines if m.sku.name == "Gen 1.1"]
        assert all(m.max_running_containers == 1 for m in drained)


# ----------------------------------------------------------------------
# Wave impacts exclude crashed machine-hours
# ----------------------------------------------------------------------
class TestWaveImpactFaultExclusion:
    def _execution(self):
        execution = RolloutExecution(
            records=[
                RolloutWaveRecord(
                    wave="pilot", fraction=0.5, start_hour=0.0, machines=1,
                    gate=None, applied=True, reverted=False,
                )
            ]
        )
        execution._population_ids = frozenset({0, 1})
        execution._impact_meta = [
            _WaveImpactWindow(
                record_index=0,
                start=0.0,
                end=4.0,
                covered_ids=frozenset({0}),
                new_ids=frozenset({0}),
                previous_start=0.0,
            )
        ]
        return execution

    def _rows(self, crashed_value: float):
        rows = []
        for hour in range(4):
            rows.append(
                make_row(machine_id=0, hour=hour, total_data_read_bytes=100.0)
            )
            control = make_row(
                machine_id=1, hour=hour, total_data_read_bytes=100.0
            )
            if hour == 1:
                control = control._replace(
                    total_data_read_bytes=crashed_value,
                    available_fraction=0.2,
                    faulted=True,
                )
            rows.append(control)
        return rows

    def test_crashed_control_hours_are_excluded(self):
        execution = self._execution()
        DeploymentModule.attach_wave_impacts(frame_of(self._rows(0.0)), execution)
        effect = execution.records[0].impact
        assert effect is not None
        # The dark hour (value 0) is dropped: both arms read a flat 100.
        assert effect.test.mean_a == pytest.approx(100.0)
        assert effect.test.mean_b == pytest.approx(100.0)
        assert effect.effect == pytest.approx(0.0)

    def test_without_faults_all_rows_count(self):
        execution = self._execution()
        rows = [
            r._replace(faulted=False, available_fraction=1.0)
            for r in self._rows(0.0)
        ]
        DeploymentModule.attach_wave_impacts(frame_of(rows), execution)
        effect = execution.records[0].impact
        assert effect.test.mean_a == pytest.approx(75.0)  # dark hour included


# ----------------------------------------------------------------------
# Crash during DEPLOY: halt → checkpoint → resume
# ----------------------------------------------------------------------
class TestCrashDuringDeploy:
    def test_staged_rollout_halts_checkpoints_and_resumes_under_faults(self):
        outage = default_catalog().get("az-outage")
        fault_hook = Scenario(
            name="deploy-outage",
            description="outage in the rollout soak window",
            fault_plan=subcluster_outage_plan(at_hour=2.0),
        ).fault_actions()
        kea = Kea(fleet_spec=small_fleet_spec(), seed=11)
        groups = sorted(kea.build_cluster().machines_by_group())
        flight_plan = FlightPlan.from_container_deltas({g: 1 for g in groups})
        halted = kea.staged_rollout(
            flight_plan,
            days=0.25,
            workload_tag="faults/halt",
            gate=FailOnEvaluation(1),
            actions=fault_hook,
        )
        assert halted.reverted and halted.checkpoint is not None
        checkpoint = halted.checkpoint
        plan = RolloutPolicy(
            resume_from_wave=checkpoint.halted_before_wave
        ).plan(flight_plan)
        resumed = kea.staged_rollout(
            plan,
            days=0.25,
            workload_tag="faults/resume",
            gate=AlwaysPassGate(),
            checkpoint=checkpoint,
            actions=fault_hook,
        )
        assert resumed.completed and resumed.checkpoint is None
        assert resumed.waves[0].resumed
        assert outage.fault_plan is not None  # the catalog entry stays intact


# ----------------------------------------------------------------------
# Acceptance: 2-tenant az-outage campaign, serial == pooled == queue
# ----------------------------------------------------------------------
CAMPAIGN_KW = dict(observe_days=0.5, impact_days=0.5, flight_hours=4.0)
TERMINAL = {"deployed", "rolled_back", "converged"}


def make_registry() -> FleetRegistry:
    registry = FleetRegistry()
    for name, seed in (("east", 11), ("west", 23)):
        registry.add(
            TenantSpec(name=name, fleet_spec=small_fleet_spec(), seed=seed)
        )
    return registry


def assert_fleet_reports_identical(got, want):
    assert set(got.reports) == set(want.reports)
    for name, want_report in want.reports.items():
        got_report = got.reports[name]
        assert got_report.final_phase == want_report.final_phase
        assert got_report.capacity_after == want_report.capacity_after
        assert [
            (e.round, e.phase, e.detail) for e in got_report.history
        ] == [(e.round, e.phase, e.detail) for e in want_report.history]
        assert got_report.rollout_waves == want_report.rollout_waves
        assert got_report.rollout_checkpoint == want_report.rollout_checkpoint


class TestAzOutageCampaign:
    @pytest.fixture(scope="class")
    def serial_run(self):
        with ContinuousTuningService(
            make_registry(), backend=ProcessPoolBackend(max_workers=1)
        ) as service:
            report = service.run_campaigns(scenario="az-outage", **CAMPAIGN_KW)
        return report

    def test_campaign_completes_with_per_tenant_dollars(self, serial_run):
        assert set(serial_run.reports) == {"east", "west"}
        for _name, report in serial_run.reports.items():
            assert report.final_phase.value in TERMINAL
            assert report.cost_ledger.total_dollars > 0.0
        ops = serial_run.ops_report()
        assert "$ spend" in ops
        assert "az-outage" in ops

    def test_pooled_matches_serial_bit_identically(self, serial_run):
        with ContinuousTuningService(
            make_registry(), backend=ProcessPoolBackend(max_workers=2)
        ) as service:
            pooled = service.run_campaigns(scenario="az-outage", **CAMPAIGN_KW)
        assert_fleet_reports_identical(pooled, serial_run)

    def test_queue_matches_serial_bit_identically(
        self, serial_run, tmp_path_factory
    ):
        with ContinuousTuningService(
            make_registry(),
            backend=LocalQueueBackend(
                tmp_path_factory.mktemp("fault-spool"), workers=2
            ),
        ) as service:
            queued = service.run_campaigns(scenario="az-outage", **CAMPAIGN_KW)
        assert_fleet_reports_identical(queued, serial_run)

    def test_straggler_tail_campaign_reaches_a_terminal_phase(self):
        registry = FleetRegistry()
        registry.add(
            TenantSpec(name="east", fleet_spec=small_fleet_spec(), seed=11)
        )
        with ContinuousTuningService(
            registry, backend=ProcessPoolBackend(max_workers=1)
        ) as service:
            report = service.run_campaigns(
                scenario="straggler-tail", **CAMPAIGN_KW
            )
        assert report.reports["east"].final_phase.value in TERMINAL
        assert report.reports["east"].cost_ledger.total_dollars > 0.0
