"""Tests for the build-native staged deployment module.

Covers the wave-based rollout API — :class:`RolloutPolicy` schedules,
fractional-wave validation (incl. the overlapping-selector error), clamping —
and execution on the simulator:
progressive coverage, between-wave gates, and mid-rollout rollback restoring
the fleet bit-identically across multiple build types.
"""

import pytest

from repro.cluster import ClusterSimulator, build_cluster, small_fleet_spec
from repro.cluster.config import GroupLimits, YarnConfig
from repro.flighting.build import (
    ContainerDeltaBuild,
    FlightPlan,
    PlannedFlight,
    SoftwareBuild,
    YarnLimitsBuild,
)
from repro.flighting.deployment import (
    DEFAULT_WAVE_FRACTIONS,
    DeploymentModule,
    RolloutPlan,
    RolloutPolicy,
    RolloutWave,
)
from repro.flighting.safety import GateVerdict, SafetyGate
from repro.utils.errors import ConfigurationError
from repro.utils.rng import RngStreams
from repro.workload import WorkloadGenerator, default_templates


@pytest.fixture()
def cluster():
    return build_cluster(small_fleet_spec())


def bump_all(config: YarnConfig, delta: int) -> YarnConfig:
    new = config.copy()
    for key, limits in config.limits.items():
        new.limits[key] = GroupLimits(
            max_running_containers=limits.max_running_containers + delta,
            max_queued_containers=limits.max_queued_containers,
        )
    return new


def delta_plan(cluster, delta: int = 1, policy: RolloutPolicy | None = None):
    """A staged plan bumping every group's container limit by ``delta``."""
    groups = sorted(cluster.machines_by_group())
    flight_plan = FlightPlan.from_container_deltas({g: delta for g in groups})
    return (policy if policy is not None else RolloutPolicy()).plan(flight_plan)


def make_simulator(cluster, hours: float = 10.0, jobs_per_hour: float = 30.0):
    workload = WorkloadGenerator(
        default_templates(), jobs_per_hour=jobs_per_hour, streams=RngStreams(0)
    ).generate(hours)
    return ClusterSimulator(cluster, workload, streams=RngStreams(1))


def config_snapshot(cluster) -> dict:
    """Everything a build could have touched, per machine."""
    return {
        m.machine_id: (
            m.max_running_containers,
            m.max_queued_containers,
            m.software.name,
            m.cap_watts,
            m.feature_enabled,
        )
        for m in cluster.machines
    }


class FailBeforeWave(SafetyGate):
    """Passes until the Nth gate evaluation, then fails every time."""

    def __init__(self, fail_on_evaluation: int):
        self.fail_on_evaluation = fail_on_evaluation
        self.evaluations = 0

    def evaluate(self, simulator) -> GateVerdict:
        self.evaluations += 1
        if self.evaluations >= self.fail_on_evaluation:
            return GateVerdict(passed=False, reason="rigged gate failure")
        return GateVerdict(passed=True, reason="rigged pass")


class TestClamping:
    def test_clamp_limits_step_to_one(self, cluster):
        module = DeploymentModule(cluster, max_step=1)
        target = bump_all(cluster.yarn_config, +5)
        clamped = module.clamp_to_step(target)
        for key in cluster.yarn_config.limits:
            before = cluster.yarn_config.for_group(key).max_running_containers
            assert clamped.for_group(key).max_running_containers == before + 1

    def test_clamp_respects_direction_down(self, cluster):
        module = DeploymentModule(cluster, max_step=2)
        target = bump_all(cluster.yarn_config, -7)
        clamped = module.clamp_to_step(target)
        for key in cluster.yarn_config.limits:
            before = cluster.yarn_config.for_group(key).max_running_containers
            assert clamped.for_group(key).max_running_containers == before - 2

    def test_small_changes_pass_through(self, cluster):
        module = DeploymentModule(cluster, max_step=3)
        target = bump_all(cluster.yarn_config, +1)
        clamped = module.clamp_to_step(target)
        for key in cluster.yarn_config.limits:
            assert (
                clamped.for_group(key).max_running_containers
                == target.for_group(key).max_running_containers
            )

    def test_max_step_validated(self, cluster):
        with pytest.raises(ConfigurationError):
            DeploymentModule(cluster, max_step=0)

    def test_policy_clamps_container_delta_builds(self, cluster):
        groups = sorted(cluster.machines_by_group())
        plan = RolloutPolicy(max_step=1).plan(
            FlightPlan.from_container_deltas({g: 5 for g in groups})
        )
        for wave in plan:
            assert all(entry.build.delta == 1 for entry in wave.entries)
        unclamped = RolloutPolicy(max_step=None).plan(
            FlightPlan.from_container_deltas({g: 5 for g in groups})
        )
        assert all(e.build.delta == 5 for e in unclamped.waves[0].entries)


class TestRolloutPolicy:
    def test_default_schedule_is_pilot_to_fleet(self):
        policy = RolloutPolicy()
        assert policy.fractions == DEFAULT_WAVE_FRACTIONS
        names = [policy.wave_name(i) for i in range(len(policy.fractions))]
        assert names == ["pilot", "10%", "50%", "fleet"]

    def test_fractions_must_widen_to_the_fleet(self):
        with pytest.raises(ConfigurationError):
            RolloutPolicy(fractions=(0.5, 0.1, 1.0))
        with pytest.raises(ConfigurationError):
            RolloutPolicy(fractions=(0.1, 0.5))  # never reaches the fleet
        with pytest.raises(ConfigurationError):
            RolloutPolicy(fractions=())

    def test_per_wave_allowances(self):
        policy = RolloutPolicy(
            fractions=(0.1, 0.5, 1.0), gate_allowance=(0.0, 0.30, 0.10)
        )
        assert policy.allowance_for(1) == 0.30
        assert policy.allowance_for(2) == 0.10
        with pytest.raises(ConfigurationError):
            RolloutPolicy(fractions=(0.1, 1.0), gate_allowance=(0.1, 0.2, 0.3))
        with pytest.raises(ConfigurationError):
            RolloutPolicy(gate_allowance=-0.1)

    def test_auto_schedule_spreads_evenly_with_trailing_soak(self):
        policy = RolloutPolicy(fractions=(0.1, 0.5, 1.0))
        assert policy.schedule(12.0) == (0.0, 3.0, 6.0)

    def test_explicit_gap_must_fit_the_window(self):
        policy = RolloutPolicy(fractions=(0.1, 1.0), wave_gap_hours=4.0)
        assert policy.schedule(12.0) == (0.0, 4.0)
        with pytest.raises(ConfigurationError):
            policy.schedule(7.0)  # last start 4h + 4h soak > 7h

    def test_start_hour_consuming_the_window_rejected(self):
        """An auto-derived gap of zero would schedule every wave at the
        window's end, where it never fires — refuse it loudly."""
        with pytest.raises(ConfigurationError, match="no room for waves"):
            RolloutPolicy(start_hour=6.0).schedule(6.0)
        with pytest.raises(ConfigurationError, match="no room for waves"):
            RolloutPolicy(start_hour=8.0).schedule(6.0)

    def test_sequence_literals_coerced_to_tuples(self):
        policy = RolloutPolicy(fractions=[0.5, 1.0], gate_allowance=[0.3, 0.1])
        assert policy.fractions == (0.5, 1.0)
        assert policy.allowance_for(1) == 0.1
        with pytest.raises(ConfigurationError):
            RolloutPolicy(fractions=(0.5, 1.0), gate_allowance=[0.3, 0.1, 0.2])

    def test_empty_flight_plan_stages_to_empty_rollout(self):
        plan = RolloutPolicy().plan(FlightPlan())
        assert not plan and len(plan) == 0


class TestRolloutPlanValidation:
    def test_fractional_waves_validate(self, cluster):
        """Partial-fleet waves are the normal case, not a coverage error."""
        plan = delta_plan(cluster)
        plan.validate(cluster)  # does not raise

    def test_overlapping_selectors_rejected_with_clear_error(self, cluster):
        group = sorted(cluster.machines_by_group())[0]
        overlapping = (
            PlannedFlight(
                build=ContainerDeltaBuild(delta=1), group=group, name="by-group"
            ),
            PlannedFlight(
                build=YarnLimitsBuild(max_running_containers=9),
                sku=group.sku,
                software=group.software,
                name="by-sku-sc",
            ),
        )
        plan = RolloutPlan(
            waves=(RolloutWave(fraction=1.0, entries=overlapping, name="fleet"),)
        )
        with pytest.raises(ConfigurationError, match="overlapping selectors"):
            plan.validate(cluster)

    def test_overlap_detected_even_when_auto_names_collide(self, cluster):
        """Same selector + same build type auto-name identically; the
        overlap check must key on entry identity, not the name."""
        group = sorted(cluster.machines_by_group())[0]
        colliding = (
            PlannedFlight(build=ContainerDeltaBuild(delta=1), group=group),
            PlannedFlight(build=ContainerDeltaBuild(delta=-1), group=group),
        )
        assert colliding[0].name == colliding[1].name
        plan = RolloutPlan(
            waves=(RolloutWave(fraction=1.0, entries=colliding, name="fleet"),)
        )
        with pytest.raises(ConfigurationError, match="overlapping selectors"):
            plan.validate(cluster)

    def test_empty_selection_rejected(self, cluster):
        entry = PlannedFlight(
            build=ContainerDeltaBuild(delta=1), sku="Gen 99.9", name="ghost"
        )
        plan = RolloutPlan(waves=(RolloutWave(fraction=1.0, entries=(entry,)),))
        with pytest.raises(ConfigurationError, match="selects no machines"):
            plan.validate(cluster)

    def test_non_widening_waves_rejected(self, cluster):
        entry = PlannedFlight(
            build=ContainerDeltaBuild(delta=1),
            group=sorted(cluster.machines_by_group())[0],
        )
        plan = RolloutPlan(
            waves=(
                RolloutWave(fraction=0.5, entries=(entry,)),
                RolloutWave(fraction=0.5, entries=(entry,)),
            )
        )
        with pytest.raises(ConfigurationError, match="widen strictly"):
            plan.validate(cluster)

    def test_final_wave_must_reach_the_fleet(self, cluster):
        entry = PlannedFlight(
            build=ContainerDeltaBuild(delta=1),
            group=sorted(cluster.machines_by_group())[0],
        )
        plan = RolloutPlan(waves=(RolloutWave(fraction=0.5, entries=(entry,)),))
        with pytest.raises(ConfigurationError, match="final wave"):
            plan.validate(cluster)

    def test_equal_but_distinct_entry_lists_dedup_by_value(self, cluster):
        """Regression: validation dedup must key on entry *values*.

        The old implementation keyed the once-per-distinct-entries scan on
        ``id(wave.entries)`` — the id-reuse hazard REP002 exists to catch:
        a recycled object id could silently skip validating a genuinely
        different wave. Two waves whose entry lists are equal but distinct
        objects must behave exactly like two waves sharing one tuple.
        """
        group = sorted(cluster.machines_by_group())[0]

        def fresh_entries():
            return (
                PlannedFlight(
                    build=ContainerDeltaBuild(delta=1), group=group, name="bump"
                ),
            )

        first, second = fresh_entries(), fresh_entries()
        assert first is not second and first == second
        distinct = RolloutPlan(
            waves=(
                RolloutWave(fraction=0.5, entries=first, name="pilot"),
                RolloutWave(fraction=1.0, entries=second, name="fleet"),
            )
        )
        shared = RolloutPlan(
            waves=(
                RolloutWave(fraction=0.5, entries=first, name="pilot"),
                RolloutWave(fraction=1.0, entries=first, name="fleet"),
            )
        )
        distinct_selections = distinct.validate(cluster)
        shared_selections = shared.validate(cluster)
        assert distinct_selections.keys() == shared_selections.keys()
        for key in shared_selections:
            assert [m.machine_id for m in distinct_selections[key]] == [
                m.machine_id for m in shared_selections[key]
            ]

    def test_distinct_valued_second_wave_is_still_validated(self, cluster):
        """A later wave with genuinely different entries is never skipped:
        its own violations (an overlap) must surface even when an earlier
        wave validated cleanly."""
        group = sorted(cluster.machines_by_group())[0]
        clean = (
            PlannedFlight(
                build=ContainerDeltaBuild(delta=1), group=group, name="clean"
            ),
        )
        overlapping = (
            PlannedFlight(
                build=ContainerDeltaBuild(delta=2), group=group, name="a"
            ),
            PlannedFlight(
                build=YarnLimitsBuild(max_running_containers=9),
                sku=group.sku,
                software=group.software,
                name="b",
            ),
        )
        plan = RolloutPlan(
            waves=(
                RolloutWave(fraction=0.5, entries=clean, name="pilot"),
                RolloutWave(fraction=1.0, entries=overlapping, name="fleet"),
            )
        )
        with pytest.raises(ConfigurationError, match="overlapping selectors"):
            plan.validate(cluster)


class TestRolloutExecution:
    def test_waves_widen_coverage_progressively(self, cluster):
        plan = delta_plan(cluster)
        module = DeploymentModule(cluster)
        simulator = make_simulator(cluster)
        execution = module.execute(
            simulator, plan, 10.0, gate=FailBeforeWave(fail_on_evaluation=99)
        )
        assert execution.completed
        assert execution.machines_touched == len(cluster.machines)
        machines = [r.machines for r in execution.records]
        assert all(n > 0 for n in machines)
        assert sum(machines) == len(cluster.machines)
        # Cumulative coverage tracks the wave fractions.
        total = len(cluster.machines)
        covered = 0
        for record in execution.records:
            covered += record.machines
            assert covered >= record.fraction * total * 0.5  # ceil per entry
        assert [r.wave for r in execution.records] == ["pilot", "10%", "50%", "fleet"]
        # The pilot wave is ungated; later waves carry a verdict.
        assert execution.records[0].gate is None
        assert all(r.gate is not None for r in execution.records[1:])

    def test_empty_plan_refused(self, cluster):
        module = DeploymentModule(cluster)
        simulator = make_simulator(cluster)
        with pytest.raises(ConfigurationError, match="empty rollout plan"):
            module.schedule(simulator, RolloutPlan(), 10.0)

    def test_gate_failure_halts_and_skips_remaining_waves(self, cluster):
        plan = delta_plan(cluster)
        module = DeploymentModule(cluster)
        simulator = make_simulator(cluster)
        gate = FailBeforeWave(fail_on_evaluation=1)  # fail before wave '10%'
        execution = module.execute(simulator, plan, 10.0, gate=gate)
        assert execution.reverted and not execution.completed
        records = execution.records
        assert records[0].reverted  # the pilot wave was undone
        assert not records[1].applied and not records[1].gate.passed
        assert all(not r.applied for r in records[1:])


class TestMidRolloutRollback:
    """Gate fails at wave 2 → waves 0–1 reverted, fleet bit-identical."""

    def run_rollback(self, cluster, plan):
        before = config_snapshot(cluster)
        module = DeploymentModule(cluster)
        simulator = make_simulator(cluster)
        gate = FailBeforeWave(fail_on_evaluation=2)  # pass into wave 1, fail wave 2
        execution = module.execute(simulator, plan, 10.0, gate=gate)
        assert execution.reverted and not execution.completed
        records = execution.records
        assert records[0].applied and records[0].reverted
        assert records[1].applied and records[1].reverted
        assert not records[2].applied and not records[2].gate.passed
        assert all(not r.applied for r in records[2:])
        assert config_snapshot(cluster) == before
        return execution

    def test_container_delta_builds_revert(self, cluster):
        self.run_rollback(cluster, delta_plan(cluster, delta=2))

    def test_yarn_limits_builds_revert(self, cluster):
        entries = tuple(
            PlannedFlight(
                build=YarnLimitsBuild(
                    max_running_containers=cluster.yarn_config.for_group(
                        key
                    ).max_running_containers
                    + 3,
                    max_queued_containers=2,
                ),
                group=key,
                name=f"limits-{key.label}",
            )
            for key in sorted(cluster.machines_by_group())
        )
        plan = RolloutPolicy().plan(FlightPlan(entries=entries))
        self.run_rollback(cluster, plan)

    def test_software_reimage_builds_revert(self, cluster):
        sc1 = [m for m in cluster.machines if m.software.name == "SC1"]
        assert sc1, "fixture fleet needs SC1 machines to re-image"
        plan = RolloutPolicy().plan(
            FlightPlan(
                entries=(
                    PlannedFlight(
                        build=SoftwareBuild(software_name="SC2"),
                        software="SC1",
                        name="reimage-SC2",
                    ),
                )
            )
        )
        execution = self.run_rollback(cluster, plan)
        # The re-image really happened before the rollback: two waves of
        # SC1 machines were flipped (and later restored).
        assert execution.machines_touched >= 2

    def test_full_software_rollout_reimages_the_population(self, cluster):
        sc1_before = {m.machine_id for m in cluster.machines if m.software.name == "SC1"}
        plan = RolloutPolicy().plan(
            FlightPlan(
                entries=(
                    PlannedFlight(
                        build=SoftwareBuild(software_name="SC2"),
                        software="SC1",
                        name="reimage-SC2",
                    ),
                )
            )
        )
        module = DeploymentModule(cluster)
        execution = module.execute(
            make_simulator(cluster), plan, 10.0,
            gate=FailBeforeWave(fail_on_evaluation=99),
        )
        assert execution.completed
        assert execution.machines_touched == len(sc1_before)
        # Every previously-SC1 machine now runs SC2, even though the selector
        # stopped matching them mid-rollout (populations are snapshotted).
        for machine in cluster.machines:
            if machine.machine_id in sc1_before:
                assert machine.software.name == "SC2"
