"""Tests for resumable, impact-measured staged rollouts.

Covers the :class:`RolloutCheckpoint` value (pickle round-trips, validation,
cache-key material), resume execution at the deployment-module and facade
levels (halt at wave *k* → re-enter at wave *k*, pilot restored — never
re-applied as a gated wave — and the resumed fleet bit-identical to a fresh
full rollout), per-wave treatment-effect impacts on every deployed wave, the
campaign's resume round (halt persists the checkpoint, the next round issues
a ``resume`` request, a clean resume deploys), and serial == pooled
bit-identity for resume requests.
"""

import pickle

import pytest

from repro.cluster import build_cluster, small_fleet_spec
from repro.core import APPLICATIONS, Kea
from repro.core.application import TuningProposal
from repro.core.kea import DeploymentImpact
from repro.flighting.build import FlightPlan
from repro.flighting.deployment import (
    DeploymentModule,
    RolloutCheckpoint,
    RolloutPolicy,
    RolloutWaveRecord,
)
from repro.flighting.safety import GateVerdict, SafetyGate
from repro.service import (
    Campaign,
    CampaignPhase,
    ProcessPoolBackend,
    SimulationOutcome,
    SimulationRequest,
    TenantSpec,
    config_fingerprint,
    default_catalog,
)
from repro.stats.treatment import TreatmentEffect, population_effect
from repro.stats.ttest import TTestResult
from repro.utils.errors import ConfigurationError, ServiceError
from repro.utils.rng import RngStreams
from repro.workload import WorkloadGenerator, default_templates


class AlwaysPassGate(SafetyGate):
    def evaluate(self, simulator) -> GateVerdict:
        return GateVerdict(passed=True, reason="rigged pass")


class FailOnEvaluation(SafetyGate):
    """Passes until the Nth gate evaluation, then fails every time."""

    def __init__(self, fail_on: int):
        self.fail_on = fail_on
        self.evaluations = 0

    def evaluate(self, simulator) -> GateVerdict:
        self.evaluations += 1
        if self.evaluations >= self.fail_on:
            return GateVerdict(passed=False, reason="rigged gate failure")
        return GateVerdict(passed=True, reason="rigged pass")


def delta_flight_plan(cluster, delta: int = 1) -> FlightPlan:
    groups = sorted(cluster.machines_by_group())
    return FlightPlan.from_container_deltas({g: delta for g in groups})


def make_simulator(cluster, hours: float = 10.0):
    workload = WorkloadGenerator(
        default_templates(), jobs_per_hour=30.0, streams=RngStreams(0)
    ).generate(hours)
    from repro.cluster import ClusterSimulator

    return ClusterSimulator(cluster, workload, streams=RngStreams(1))


def config_snapshot(cluster) -> dict:
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


def make_impact(latency_rel: float = 0.0, latency_p: float = 0.9) -> DeploymentImpact:
    def effect(relative, p):
        return TreatmentEffect(
            effect=100.0 * relative,
            relative_effect=relative,
            test=TTestResult(
                t_value=3.0 if p < 0.05 else 0.3,
                df=30.0,
                p_value=p,
                mean_a=100.0,
                mean_b=100.0 * (1 + relative),
            ),
        )

    return DeploymentImpact(
        throughput=effect(0.01, 0.5),
        latency=effect(latency_rel, latency_p),
        capacity_before=1000,
        capacity_after=1010,
        benchmark_runtime_change={},
    )


# ----------------------------------------------------------------------
# The checkpoint value
# ----------------------------------------------------------------------
class TestRolloutCheckpoint:
    def _checkpoint(self) -> RolloutCheckpoint:
        return RolloutCheckpoint(
            plan_fingerprint="waves-abc",
            halted_before_wave=2,
            halted_wave="50%",
            covered=(("entry-a", 3), ("entry-b", 1)),
            machines_deployed=4,
        )

    def test_pickle_round_trip_preserves_identity(self):
        checkpoint = self._checkpoint()
        clone = pickle.loads(pickle.dumps(checkpoint))
        assert clone == checkpoint
        assert clone.describe() == checkpoint.describe()
        assert clone.covered_counts() == {"entry-a": 3, "entry-b": 1}

    def test_describe_tracks_coverage_and_wave(self):
        a = self._checkpoint()
        wider = RolloutCheckpoint(
            plan_fingerprint="waves-abc",
            halted_before_wave=2,
            halted_wave="50%",
            covered=(("entry-a", 5), ("entry-b", 1)),
            machines_deployed=6,
        )
        assert a.describe() != wider.describe()

    def test_pre_pilot_checkpoint_rejected(self):
        with pytest.raises(ConfigurationError):
            RolloutCheckpoint(
                plan_fingerprint="w",
                halted_before_wave=0,
                halted_wave="pilot",
                covered=(),
                machines_deployed=0,
            )


class TestResumePolicyValidation:
    def test_resume_wave_must_name_a_gated_wave(self):
        with pytest.raises(ConfigurationError):
            RolloutPolicy(resume_from_wave=0)
        with pytest.raises(ConfigurationError):
            RolloutPolicy(fractions=(0.5, 1.0), resume_from_wave=2)
        policy = RolloutPolicy(resume_from_wave=2)
        assert policy.resume_from_wave == 2

    def test_single_wave_policy_is_the_fleet_not_a_pilot(self):
        """fractions=(1.0,) covers the whole fleet: the index-0 branch must
        not shadow the fleet branch."""
        policy = RolloutPolicy(fractions=(1.0,))
        assert policy.wave_name(0) == "fleet"
        multi = RolloutPolicy()
        assert [multi.wave_name(i) for i in range(4)] == [
            "pilot", "10%", "50%", "fleet",
        ]

    def test_one_wave_rollout_executes_as_a_single_fleet_wave(self):
        cluster = build_cluster(small_fleet_spec())
        plan = RolloutPolicy(fractions=(1.0,)).plan(delta_flight_plan(cluster))
        module = DeploymentModule(cluster)
        execution = module.execute(
            make_simulator(cluster), plan, 10.0, gate=AlwaysPassGate()
        )
        assert execution.completed
        assert [r.wave for r in execution.records] == ["fleet"]
        assert execution.records[0].gate is None  # wave 0 is ungated
        assert execution.machines_touched == len(cluster.machines)
        # The degenerate single wave still carries a (insignificant) impact.
        assert execution.records[0].impact is not None

    def test_resolve_resume_cross_validates_policy_and_checkpoint(self):
        cluster = build_cluster(small_fleet_spec())
        flight_plan = delta_flight_plan(cluster)
        fresh = RolloutPolicy().plan(flight_plan)
        checkpoint = RolloutCheckpoint(
            plan_fingerprint=fresh.waves_fingerprint(),
            halted_before_wave=2,
            halted_wave="50%",
            covered=(),
            machines_deployed=0,
        )
        # Fresh plan + checkpoint: resume index comes from the checkpoint.
        assert DeploymentModule.resolve_resume(fresh, checkpoint) == 2
        assert DeploymentModule.resolve_resume(fresh, None) is None
        resumable = RolloutPolicy(resume_from_wave=2).plan(flight_plan)
        assert DeploymentModule.resolve_resume(resumable, checkpoint) == 2
        with pytest.raises(ConfigurationError, match="no rollout checkpoint"):
            DeploymentModule.resolve_resume(resumable, None)
        disagreeing = RolloutPolicy(resume_from_wave=3).plan(flight_plan)
        with pytest.raises(ConfigurationError, match="halted before wave"):
            DeploymentModule.resolve_resume(disagreeing, checkpoint)
        other_plan = RolloutPolicy().plan(delta_flight_plan(cluster, delta=2))
        with pytest.raises(ConfigurationError, match="does not belong"):
            DeploymentModule.resolve_resume(other_plan, checkpoint)


# ----------------------------------------------------------------------
# Resume execution on the deployment module
# ----------------------------------------------------------------------
class TestResumeExecution:
    def _halt(self, fail_on: int = 2):
        cluster = build_cluster(small_fleet_spec())
        flight_plan = delta_flight_plan(cluster)
        plan = RolloutPolicy().plan(flight_plan)
        module = DeploymentModule(cluster)
        execution = module.execute(
            make_simulator(cluster), plan, 10.0, gate=FailOnEvaluation(fail_on)
        )
        assert execution.reverted and execution.checkpoint is not None
        return flight_plan, execution.checkpoint, execution

    def test_halt_leaves_a_checkpoint_of_the_pre_revert_coverage(self):
        _flight_plan, checkpoint, execution = self._halt(fail_on=2)
        assert checkpoint.halted_before_wave == 2
        assert checkpoint.halted_wave == "50%"
        # Coverage at the halt is the pilot + 10% waves, pre-revert.
        deployed = sum(r.machines for r in execution.records if r.reverted)
        assert checkpoint.machines_deployed == deployed > 0
        assert sum(checkpoint.covered_counts().values()) == deployed
        # A completed rollout leaves no checkpoint.
        cluster = build_cluster(small_fleet_spec())
        done = DeploymentModule(cluster).execute(
            make_simulator(cluster),
            RolloutPolicy().plan(delta_flight_plan(cluster)),
            10.0,
            gate=AlwaysPassGate(),
        )
        assert done.completed and done.checkpoint is None

    def test_resume_reenters_at_the_failed_wave_without_reapplying_the_pilot(self):
        flight_plan, checkpoint, _halted = self._halt(fail_on=2)
        cluster = build_cluster(small_fleet_spec())
        baseline = config_snapshot(cluster)
        plan = RolloutPolicy(
            resume_from_wave=checkpoint.halted_before_wave
        ).plan(flight_plan)
        module = DeploymentModule(cluster)
        execution = module.execute(
            make_simulator(cluster), plan, 10.0,
            gate=AlwaysPassGate(), checkpoint=checkpoint,
        )
        assert execution.completed and not execution.reverted
        records = execution.records
        # Waves before the failure are restored, not re-run as gated waves.
        assert [r.wave for r in records] == ["pilot", "10%", "50%", "fleet"]
        assert records[0].resumed and not records[0].applied
        assert records[1].resumed and not records[1].applied
        assert records[0].gate is None and records[1].gate is None
        # The re-entered waves run for real, gates included.
        assert records[2].applied and records[2].gate is not None
        assert records[3].applied and records[3].gate is not None
        restored = sum(r.machines for r in records if r.resumed)
        assert restored == checkpoint.machines_deployed
        assert execution.machines_touched == len(cluster.machines)
        # Fleet state after resume + completion == a fresh full rollout —
        # in particular the +1 deltas applied exactly once, so restoring
        # the pilot's coverage did not double-apply its builds.
        fresh_cluster = build_cluster(small_fleet_spec())
        DeploymentModule(fresh_cluster).execute(
            make_simulator(fresh_cluster),
            RolloutPolicy().plan(delta_flight_plan(fresh_cluster)),
            10.0,
            gate=AlwaysPassGate(),
        )
        assert config_snapshot(cluster) == config_snapshot(fresh_cluster)
        assert config_snapshot(cluster) != baseline

    def test_resume_restores_entries_that_first_appear_in_later_waves(self):
        """A hand-built plan may introduce an entry only after the pilot;
        its checkpointed coverage must be restored too, not just wave 0's."""
        from repro.flighting.build import ContainerDeltaBuild, PlannedFlight
        from repro.flighting.deployment import RolloutPlan, RolloutWave

        def build_plan(cluster, resume_from=None):
            groups = sorted(cluster.machines_by_group())
            entry_a = PlannedFlight(
                build=ContainerDeltaBuild(delta=1), group=groups[0], name="a"
            )
            entry_b = PlannedFlight(
                build=ContainerDeltaBuild(delta=1), group=groups[1], name="b"
            )
            policy = RolloutPolicy(
                fractions=(0.1, 0.5, 1.0), resume_from_wave=resume_from
            )
            return RolloutPlan(
                waves=(
                    RolloutWave(fraction=0.1, entries=(entry_a,), name="pilot"),
                    RolloutWave(
                        fraction=0.5, entries=(entry_a, entry_b), name="half"
                    ),
                    RolloutWave(
                        fraction=1.0, entries=(entry_a, entry_b), name="fleet"
                    ),
                ),
                policy=policy,
            )

        cluster = build_cluster(small_fleet_spec())
        halted = DeploymentModule(cluster).execute(
            make_simulator(cluster), build_plan(cluster), 10.0,
            gate=FailOnEvaluation(2),  # admit 'half', halt before 'fleet'
        )
        checkpoint = halted.checkpoint
        assert checkpoint is not None and checkpoint.halted_before_wave == 2
        assert len(checkpoint.covered_counts()) == 2  # both entries covered

        resume_cluster = build_cluster(small_fleet_spec())
        resumed = DeploymentModule(resume_cluster).execute(
            make_simulator(resume_cluster),
            build_plan(resume_cluster, resume_from=2),
            10.0,
            gate=AlwaysPassGate(),
            checkpoint=checkpoint,
        )
        assert resumed.completed
        restored = sum(r.machines for r in resumed.records if r.resumed)
        assert restored == checkpoint.machines_deployed
        fresh_cluster = build_cluster(small_fleet_spec())
        DeploymentModule(fresh_cluster).execute(
            make_simulator(fresh_cluster), build_plan(fresh_cluster), 10.0,
            gate=AlwaysPassGate(),
        )
        assert config_snapshot(resume_cluster) == config_snapshot(fresh_cluster)

    def test_resumed_rollout_can_halt_again_with_a_wider_checkpoint(self):
        flight_plan, checkpoint, _halted = self._halt(fail_on=2)
        cluster = build_cluster(small_fleet_spec())
        plan = RolloutPolicy(
            resume_from_wave=checkpoint.halted_before_wave
        ).plan(flight_plan)
        execution = DeploymentModule(cluster).execute(
            make_simulator(cluster), plan, 10.0,
            gate=FailOnEvaluation(2), checkpoint=checkpoint,
        )
        # Gate 1 admits wave '50%'; gate 2 halts before 'fleet'.
        assert execution.reverted
        second = execution.checkpoint
        assert second is not None
        assert second.halted_before_wave == 3
        assert second.machines_deployed > checkpoint.machines_deployed
        # The revert undid the checkpoint-restored coverage too, and the
        # audit trail says so: restored waves are as reverted as applied
        # ones (their re-applied builds were just rolled back).
        records = execution.records
        assert records[0].resumed and records[0].reverted
        assert records[1].resumed and records[1].reverted
        assert records[2].applied and records[2].reverted
        # The fleet ends back at baseline after the second revert.
        assert config_snapshot(cluster) == config_snapshot(
            build_cluster(small_fleet_spec())
        )

    def test_every_deployed_wave_carries_an_impact(self):
        cluster = build_cluster(small_fleet_spec())
        plan = RolloutPolicy().plan(delta_flight_plan(cluster))
        execution = DeploymentModule(cluster).execute(
            make_simulator(cluster), plan, 10.0, gate=AlwaysPassGate()
        )
        assert execution.completed
        assert all(r.impact is not None for r in execution.records)
        for record in execution.records:
            assert isinstance(record.impact, TreatmentEffect)
            assert "impact:" in record.summary()

    def test_skipped_waves_after_a_halt_carry_no_impact(self):
        cluster = build_cluster(small_fleet_spec())
        plan = RolloutPolicy().plan(delta_flight_plan(cluster))
        execution = DeploymentModule(cluster).execute(
            make_simulator(cluster), plan, 10.0, gate=FailOnEvaluation(1)
        )
        records = execution.records
        # The reverted pilot was live for its window: it keeps its measured
        # impact. The gate-failed and skipped waves never deployed.
        assert records[0].impact is not None
        assert all(r.impact is None for r in records[1:])


class TestWaveImpactGuardrail:
    def _effect(self, relative: float, p: float) -> TreatmentEffect:
        return TreatmentEffect(
            effect=100.0 * relative,
            relative_effect=relative,
            test=TTestResult(
                t_value=-3.0 if p < 0.05 else -0.3,
                df=30.0,
                p_value=p,
                mean_a=100.0,
                mean_b=100.0 * (1 + relative),
            ),
        )

    def test_significant_drop_fails_insignificant_wobble_passes(self):
        from repro.flighting.safety import DeploymentGuardrail

        rail = DeploymentGuardrail(throughput_allowance=0.02, alpha=0.05)
        assert not rail.judge_wave_impact(self._effect(-0.10, 0.001)).passed
        assert rail.judge_wave_impact(self._effect(-0.10, 0.60)).passed
        assert rail.judge_wave_impact(self._effect(-0.01, 0.001)).passed
        assert rail.judge_wave_impact(self._effect(+0.10, 0.001)).passed

    def test_campaign_annotates_regressing_waves_but_still_deploys(self):
        spec = TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5)
        campaign = Campaign(spec, default_catalog().get("diurnal-baseline"))
        group = next(iter(campaign.config.limits))
        campaign.tuning = TuningProposal(
            application="yarn-config",
            summary="fabricated",
            proposed_config=campaign.config.with_container_delta({group: 1}),
            config_deltas={group: 1},
        )
        campaign._flight_plan = FlightPlan.from_container_deltas({group: 1})
        campaign.phase = CampaignPhase.DEPLOY
        waves = [
            RolloutWaveRecord(
                wave="pilot", fraction=0.02, start_hour=0.0, machines=2,
                gate=None, applied=True, reverted=False,
                impact=self._effect(-0.20, 0.001),
            ),
            RolloutWaveRecord(
                wave="fleet", fraction=1.0, start_hour=4.0, machines=8,
                gate=GateVerdict(True, "ok"), applied=True, reverted=False,
                impact=self._effect(+0.05, 0.2),
            ),
        ]
        campaign.advance(
            SimulationOutcome(
                tenant="probe", kind="rollout", workload_tag="t",
                impact=make_impact(), rollout_waves=waves,
            )
        )
        assert campaign.phase is CampaignPhase.DEPLOYED
        notes = [e.detail for e in campaign.history]
        assert any("wave 'pilot' impact regressed" in d for d in notes)
        assert not any("wave 'fleet' impact regressed" in d for d in notes)


class TestPopulationEffect:
    def test_two_armed_contrast_uses_welch(self):
        effect = population_effect([1.0, 2.0, 3.0, 4.0], [3.0, 4.0, 5.0, 6.0])
        assert effect.effect == pytest.approx(2.0)
        assert effect.relative_effect == pytest.approx(0.8)
        assert 0.0 < effect.test.p_value < 1.0

    def test_degenerate_arms_fall_back_to_an_insignificant_contrast(self):
        effect = population_effect([], [5.0, 7.0])
        assert effect.effect == pytest.approx(6.0)
        assert effect.test.p_value == 1.0 and not effect.significant()
        empty = population_effect([], [])
        assert empty.effect == 0.0 and empty.relative_effect == 0.0


# ----------------------------------------------------------------------
# Facade-level resume
# ----------------------------------------------------------------------
class TestKeaResume:
    @pytest.fixture(scope="class")
    def halted(self):
        kea = Kea(fleet_spec=small_fleet_spec(), seed=11)
        flight_plan = delta_flight_plan(kea.build_cluster())
        rollout = kea.staged_rollout(
            flight_plan, days=0.25, workload_tag="resume/halt",
            gate=FailOnEvaluation(1),
        )
        return kea, flight_plan, rollout

    def test_halted_rollout_returns_its_checkpoint(self, halted):
        _kea, _flight_plan, rollout = halted
        assert rollout.reverted and rollout.checkpoint is not None
        assert rollout.checkpoint.halted_before_wave == 1
        assert rollout.failed_wave is not None

    def test_resume_completes_and_measures_every_wave(self, halted):
        kea, flight_plan, rollout = halted
        checkpoint = rollout.checkpoint
        plan = RolloutPolicy(
            resume_from_wave=checkpoint.halted_before_wave
        ).plan(flight_plan)
        resumed = kea.staged_rollout(
            plan, days=0.25, workload_tag="resume/again",
            gate=AlwaysPassGate(), checkpoint=checkpoint,
        )
        assert resumed.completed and resumed.checkpoint is None
        assert resumed.machines_touched == len(kea.build_cluster().machines)
        assert resumed.waves[0].resumed and not resumed.waves[0].applied
        assert all(w.impact is not None for w in resumed.waves)
        assert "restored from checkpoint" in resumed.summary()

    def test_resume_without_checkpoint_fails_before_simulating(self, halted):
        kea, flight_plan, _rollout = halted
        plan = RolloutPolicy(resume_from_wave=1).plan(flight_plan)
        runs_before = kea._run_counter
        with pytest.raises(ConfigurationError, match="no rollout checkpoint"):
            kea.staged_rollout(plan, days=0.25)
        assert kea._run_counter == runs_before  # no window was paid for


# ----------------------------------------------------------------------
# Campaign resume rounds
# ----------------------------------------------------------------------
class TestCampaignResume:
    def _campaign_at_deploy(self, **campaign_kwargs) -> Campaign:
        spec = TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5)
        campaign = Campaign(
            spec, default_catalog().get("diurnal-baseline"),
            rounds=campaign_kwargs.pop("rounds", 3), **campaign_kwargs,
        )
        group = next(iter(campaign.config.limits))
        campaign.tuning = TuningProposal(
            application="yarn-config",
            summary="fabricated",
            proposed_config=campaign.config.with_container_delta({group: 1}),
            config_deltas={group: 1},
        )
        campaign._flight_plan = FlightPlan.from_container_deltas({group: 1})
        campaign.phase = CampaignPhase.DEPLOY
        return campaign

    def _halted_outcome(self, campaign: Campaign, kind: str = "rollout"):
        plan = campaign._staged_plan or campaign._deploy_plan()
        checkpoint = RolloutCheckpoint(
            plan_fingerprint=plan.waves_fingerprint(),
            halted_before_wave=2,
            halted_wave="50%",
            covered=tuple(
                (entry.describe(), 2) for entry in plan.waves[0].entries
            ),
            machines_deployed=2 * len(plan.waves[0].entries),
        )
        waves = [
            RolloutWaveRecord(
                wave="pilot", fraction=0.02, start_hour=0.0, machines=1,
                gate=None, applied=True, reverted=True,
            ),
            RolloutWaveRecord(
                wave="10%", fraction=0.10, start_hour=2.0, machines=1,
                gate=GateVerdict(True, "ok"), applied=True, reverted=True,
            ),
            RolloutWaveRecord(
                wave="50%", fraction=0.50, start_hour=4.0, machines=0,
                gate=GateVerdict(False, "latency cratered"),
                applied=False, reverted=False,
            ),
        ]
        return SimulationOutcome(
            tenant="probe", kind=kind, workload_tag="t",
            impact=make_impact(), rollout_waves=waves,
            rollout_checkpoint=checkpoint,
        )

    def test_halt_persists_the_checkpoint_and_next_round_resumes(self):
        campaign = self._campaign_at_deploy()
        baseline = config_fingerprint(campaign.config)
        request = campaign.pending_request()
        assert request.kind == "rollout"
        campaign.advance(self._halted_outcome(campaign))
        # The halted round rolled back (baseline stands)…
        assert campaign.rollbacks == 1
        assert config_fingerprint(campaign.config) == baseline
        assert any(
            "checkpoint" in e.detail and "kept for resume" in e.detail
            for e in campaign.history
        )
        # …and the next round re-enters DEPLOY as a resume, not OBSERVE.
        assert not campaign.done
        assert campaign.round == 2
        assert campaign.phase is CampaignPhase.DEPLOY
        resume = campaign.pending_request()
        assert resume.kind == "resume"
        assert resume.checkpoint is not None
        assert resume.checkpoint.halted_before_wave == 2
        assert resume.rollout.policy.resume_from_wave == 2
        assert resume.workload_tag.endswith("/r2/resume")
        assert any(
            "resuming halted rollout at wave '50%'" in e.detail
            for e in campaign.history
        )

    def test_clean_resume_deploys_the_halted_proposal(self):
        campaign = self._campaign_at_deploy()
        proposed = config_fingerprint(campaign.tuning.proposed_config)
        campaign.advance(self._halted_outcome(campaign))
        waves = [
            RolloutWaveRecord(
                wave="pilot", fraction=0.02, start_hour=0.0, machines=1,
                gate=None, applied=False, reverted=False, resumed=True,
            ),
            RolloutWaveRecord(
                wave="fleet", fraction=1.0, start_hour=4.0, machines=8,
                gate=GateVerdict(True, "ok"), applied=True, reverted=False,
            ),
        ]
        campaign.advance(
            SimulationOutcome(
                tenant="probe", kind="resume", workload_tag="t2",
                impact=make_impact(), rollout_waves=waves,
            )
        )
        assert campaign.phase is CampaignPhase.OBSERVE  # round 3 of 3 begins
        assert campaign.deployments == 1
        assert config_fingerprint(campaign.config) == proposed
        assert campaign.rollout_checkpoint is None
        report = campaign.report()
        assert report.rollout_checkpoint is None
        # Both windows' waves are on the audit trail, resume round included.
        assert [w.wave for w in report.rollout_waves] == [
            "pilot", "10%", "50%", "pilot", "fleet",
        ]

    def test_final_round_halt_surfaces_the_checkpoint_on_the_report(self):
        campaign = self._campaign_at_deploy(rounds=1)
        campaign.advance(self._halted_outcome(campaign))
        assert campaign.done
        report = campaign.report()
        assert report.final_phase is CampaignPhase.ROLLED_BACK
        assert report.rollout_checkpoint is not None
        assert report.rollout_checkpoint.halted_before_wave == 2

    def test_resume_can_be_disabled(self):
        campaign = self._campaign_at_deploy(resume_halted_rollouts=False)
        campaign.advance(self._halted_outcome(campaign))
        assert campaign.round == 2
        assert campaign.phase is CampaignPhase.OBSERVE
        assert campaign.rollout_checkpoint is None
        assert campaign.report().rollout_checkpoint is None

    def test_resume_request_requires_its_checkpoint(self):
        campaign = self._campaign_at_deploy()
        plan = campaign._deploy_plan()
        with pytest.raises(ServiceError, match="resume request needs"):
            SimulationRequest(
                tenant="probe",
                kind="resume",
                spec=campaign.spec,
                scenario=campaign.scenario,
                config=campaign.config.copy(),
                workload_tag="t",
                rollout=plan,
            )

    def test_resume_cache_key_tracks_the_checkpoint(self):
        campaign = self._campaign_at_deploy()
        campaign.advance(self._halted_outcome(campaign))
        request = campaign.pending_request()
        clone = pickle.loads(pickle.dumps(request))
        assert clone.cache_key() == request.cache_key()
        narrower = RolloutCheckpoint(
            plan_fingerprint=request.checkpoint.plan_fingerprint,
            halted_before_wave=2,
            halted_wave="50%",
            covered=tuple(
                (key, count - 1) for key, count in request.checkpoint.covered
            ),
            machines_deployed=request.checkpoint.machines_deployed - 1,
        )
        altered = SimulationRequest(
            tenant=request.tenant,
            kind=request.kind,
            spec=request.spec,
            scenario=request.scenario,
            config=request.config,
            workload_tag=request.workload_tag,
            days=request.days,
            rollout=request.rollout,
            checkpoint=narrower,
        )
        assert altered.cache_key() != request.cache_key()


# ----------------------------------------------------------------------
# Serial == pooled resume execution
# ----------------------------------------------------------------------
class TestResumeThroughThePool:
    @pytest.fixture(scope="class")
    def resume_request(self):
        spec = TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5)
        kea = spec.build()
        flight_plan = delta_flight_plan(kea.build_cluster())
        halted = kea.staged_rollout(
            flight_plan, days=0.25, workload_tag="probe/halt",
            gate=FailOnEvaluation(1),
        )
        checkpoint = halted.checkpoint
        assert checkpoint is not None
        plan = RolloutPolicy(
            resume_from_wave=checkpoint.halted_before_wave,
            gate_allowance=10.0,
        ).plan(flight_plan)
        return SimulationRequest(
            tenant="probe",
            kind="resume",
            spec=spec,
            scenario=default_catalog().get("diurnal-baseline"),
            config=kea.current_config.copy(),
            workload_tag="probe/resume",
            days=0.25,
            rollout=plan,
            checkpoint=checkpoint,
        )

    def test_serial_equals_pooled_bit_identically(self, resume_request):
        with ProcessPoolBackend(max_workers=1) as serial, ProcessPoolBackend(
            max_workers=2
        ) as pooled:
            (serial_outcome,) = serial.run([resume_request])
            (pooled_outcome, clone_outcome) = pooled.run(
                [resume_request, resume_request]
            )
        for outcome in (pooled_outcome, clone_outcome):
            assert outcome.rollout_waves == serial_outcome.rollout_waves
            assert outcome.rollout_checkpoint == serial_outcome.rollout_checkpoint
            assert (
                outcome.impact.throughput.effect
                == serial_outcome.impact.throughput.effect
            )
            assert (
                outcome.impact.latency.test.p_value
                == serial_outcome.impact.latency.test.p_value
            )

    def test_resume_outcome_restores_then_widens(self, resume_request):
        with ProcessPoolBackend(max_workers=1) as pool:
            (outcome,) = pool.run([resume_request])
        waves = outcome.rollout_waves
        assert waves[0].resumed and not waves[0].applied
        assert all(w.applied for w in waves[1:])
        assert all(w.impact is not None for w in waves)
        assert outcome.rollout_checkpoint is None


# ----------------------------------------------------------------------
# Applications: the default resume hook
# ----------------------------------------------------------------------
class TestApplicationResumeHook:
    def test_resume_rollout_plan_pins_the_policy_to_the_checkpoint(self):
        app = APPLICATIONS.create("yarn-config")
        cluster = build_cluster(small_fleet_spec())
        group = sorted(cluster.machines_by_group())[0]
        proposal = TuningProposal(
            application="yarn-config",
            summary="probe",
            config_deltas={group: 1},
        )
        plan = app.rollout_plan(proposal)
        checkpoint = RolloutCheckpoint(
            plan_fingerprint=plan.waves_fingerprint(),
            halted_before_wave=3,
            halted_wave="fleet",
            covered=(),
            machines_deployed=0,
        )
        resumed = app.resume_rollout_plan(plan, checkpoint)
        assert resumed.policy.resume_from_wave == 3
        assert resumed.waves == plan.waves
        assert resumed.waves_fingerprint() == plan.waves_fingerprint()
        assert resumed.describe() != plan.describe()  # policy is key material
