"""End-to-end tests for the build-native staged rollout API.

Covers the redesigned deployment surface from top to bottom: every
registered application produces a :class:`RolloutPlan`,
:meth:`Kea.staged_rollout` ships builds wave by wave with per-wave gate
verdicts (and reverts on failure), rollout requests are picklable and
cache-keyed, the campaign DEPLOY phase records each wave in
``CampaignReport.rollout_waves``, and the advisory flight-gating knob
withholds inconclusive recommendations.
"""

import pickle

import pytest

from repro.cluster import small_application_fleet_spec, small_fleet_spec
from repro.core import APPLICATIONS, Kea, StagedRollout
from repro.core.application import TuningProposal
from repro.core.kea import DeploymentImpact
from repro.flighting.build import FlightPlan
from repro.flighting.deployment import (
    RolloutPlan,
    RolloutPolicy,
    RolloutWaveRecord,
)
from repro.flighting.safety import GateVerdict, SafetyGate
from repro.service import (
    Campaign,
    CampaignGuardrails,
    CampaignPhase,
    ContinuousTuningService,
    FleetRegistry,
    ProcessPoolBackend,
    SimulationOutcome,
    SimulationRequest,
    TenantSpec,
    config_fingerprint,
    default_catalog,
)
from repro.stats.treatment import TreatmentEffect
from repro.stats.ttest import TTestResult
from repro.utils.errors import ConfigurationError, ServiceError

#: Constructor kwargs per application, sized for the test fleet (mirrors the
#: application-suite bench).
APP_KWARGS = {
    "yarn-config": {},
    "queue-tuning": {},
    "power-capping": dict(
        capping_levels=(0.10, 0.30), group_size=4, hours_per_round=4.0
    ),
    "sku-design": dict(
        ram_candidates_gb=[64.0, 128.0, 256.0],
        ssd_candidates_gb=[600.0, 1200.0, 2400.0],
        n_draws=100,
    ),
    "sc-selection": dict(sku="Gen 1.1", n_racks=2, days=0.25),
}


def make_effect(relative: float, p_value: float) -> TreatmentEffect:
    test = TTestResult(
        t_value=3.0 if p_value < 0.05 else 0.3,
        df=30.0,
        p_value=p_value,
        mean_a=100.0,
        mean_b=100.0 * (1 + relative),
    )
    return TreatmentEffect(effect=100.0 * relative, relative_effect=relative, test=test)


def make_impact(latency_rel: float = 0.0, latency_p: float = 0.9) -> DeploymentImpact:
    return DeploymentImpact(
        throughput=make_effect(0.01, 0.5),
        latency=make_effect(latency_rel, latency_p),
        capacity_before=1000,
        capacity_after=1010,
        benchmark_runtime_change={},
    )


def wave_record(
    name: str,
    fraction: float,
    applied: bool = True,
    reverted: bool = False,
    gate: GateVerdict | None = None,
) -> RolloutWaveRecord:
    return RolloutWaveRecord(
        wave=name,
        fraction=fraction,
        start_hour=0.0,
        machines=4 if applied else 0,
        gate=gate,
        applied=applied,
        reverted=reverted,
    )


class NeverFailGate(SafetyGate):
    def evaluate(self, simulator) -> GateVerdict:
        return GateVerdict(passed=True, reason="rigged pass")


class AlwaysFailGate(SafetyGate):
    def evaluate(self, simulator) -> GateVerdict:
        return GateVerdict(passed=False, reason="rigged failure")


# ----------------------------------------------------------------------
# Every registered application can stage a rollout
# ----------------------------------------------------------------------
class TestRolloutPlansAcrossApplications:
    @pytest.fixture(scope="class")
    def plans(self):
        plans = {}
        for name in APPLICATIONS.names():
            kea = Kea(fleet_spec=small_application_fleet_spec(), seed=20260729)
            app = kea.application(name, **APP_KWARGS.get(name, {}))
            observation = kea.observe(days=0.5, **app.observation_overrides())
            engine = kea.calibrate(observation.monitor) if app.requires_engine else None
            proposal = app.propose(observation, engine)
            plans[name] = (app.rollout_plan(proposal), proposal)
        return plans

    def test_all_five_applications_produce_a_rollout_plan(self, plans):
        assert set(plans) == {
            "yarn-config",
            "queue-tuning",
            "power-capping",
            "sku-design",
            "sc-selection",
        }
        for plan, _proposal in plans.values():
            assert isinstance(plan, RolloutPlan)

    def test_plans_stage_the_flight_builds_in_default_waves(self, plans):
        staged = {name: plan for name, (plan, _p) in plans.items() if plan}
        assert "yarn-config" in staged, "yarn tuning always stages its deltas"
        assert "queue-tuning" in staged, "queue tuning stages its new bounds"
        for _name, plan in staged.items():
            assert [w.name for w in plan.waves] == ["pilot", "10%", "50%", "fleet"]
            fractions = [w.fraction for w in plan.waves]
            assert fractions == sorted(fractions) and fractions[-1] == 1.0

    def test_plan_mirrors_the_flight_plan_builds(self, plans):
        for name, (plan, proposal) in plans.items():
            flight_plan = APPLICATIONS.create(
                name, **APP_KWARGS.get(name, {})
            ).flight_plan(proposal)
            if not flight_plan:
                assert not plan
                continue
            staged_builds = [e.build.name for e in plan.waves[0].entries]
            assert staged_builds == [e.build.name for e in flight_plan]


# ----------------------------------------------------------------------
# Kea.staged_rollout
# ----------------------------------------------------------------------
class TestKeaStagedRollout:
    @pytest.fixture(scope="class")
    def kea(self):
        return Kea(fleet_spec=small_fleet_spec(), seed=11)

    def _delta_plan(self, kea) -> FlightPlan:
        cluster = kea.build_cluster()
        groups = sorted(cluster.machines_by_group())
        return FlightPlan.from_container_deltas({g: 1 for g in groups})

    def test_completed_rollout_returns_per_wave_impact_records(self, kea):
        rollout = kea.staged_rollout(
            self._delta_plan(kea), days=0.5, gate=NeverFailGate()
        )
        assert isinstance(rollout, StagedRollout)
        assert rollout.completed and not rollout.reverted
        assert rollout.failed_wave is None
        assert [w.wave for w in rollout.waves] == ["pilot", "10%", "50%", "fleet"]
        assert rollout.machines_touched == len(kea.build_cluster().machines)
        assert rollout.impact is not None
        assert rollout.impact.capacity_after > rollout.impact.capacity_before
        assert "wave 'fleet'" in rollout.summary()

    def test_failed_gate_reverts_and_reports(self, kea):
        rollout = kea.staged_rollout(
            self._delta_plan(kea), days=0.5, gate=AlwaysFailGate()
        )
        assert rollout.reverted and not rollout.completed
        assert rollout.failed_wave is not None
        assert rollout.failed_wave.wave == "10%"
        assert rollout.waves[0].reverted
        # The reverted fleet ends at baseline capacity.
        assert rollout.impact.capacity_after == rollout.impact.capacity_before

    def test_flight_plan_staged_under_a_policy(self, kea):
        cluster = kea.build_cluster()
        group = sorted(cluster.machines_by_group())[0]
        rollout = kea.staged_rollout(
            FlightPlan.from_container_deltas({group: 1}),
            policy=RolloutPolicy(fractions=(0.5, 1.0)),
            days=0.25,
            gate=NeverFailGate(),
        )
        assert [w.wave for w in rollout.waves] == ["pilot", "fleet"]

    def test_unfittable_schedule_rejected_before_any_window_runs(self, kea):
        # 4 waves at an explicit 6h gap cannot fit a 6h window; the error
        # must fire up front, not after the baseline window simulated.
        plan = RolloutPolicy(wave_gap_hours=6.0).plan(self._delta_plan(kea))
        with pytest.raises(ConfigurationError, match="does not fit"):
            kea.staged_rollout(plan, days=0.25)

    def test_empty_plan_and_conflicting_policy_rejected(self, kea):
        with pytest.raises(ConfigurationError):
            kea.staged_rollout(FlightPlan(), days=0.25)
        staged = RolloutPolicy().plan(self._delta_plan(kea))
        with pytest.raises(ConfigurationError):
            kea.staged_rollout(staged, policy=RolloutPolicy(), days=0.25)

    def test_rollout_is_deterministic_under_a_pinned_tag(self, kea):
        plan = self._delta_plan(kea)
        a = kea.staged_rollout(plan, days=0.25, workload_tag="t/pin",
                               gate=NeverFailGate())
        b = kea.staged_rollout(plan, days=0.25, workload_tag="t/pin",
                               gate=NeverFailGate())
        assert a.waves == b.waves
        assert a.impact.throughput.effect == b.impact.throughput.effect


# ----------------------------------------------------------------------
# Rollout requests: pickling, validation, cache keys
# ----------------------------------------------------------------------
class TestRolloutRequests:
    def _request(self, plan=None, **overrides):
        spec = TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5)
        if plan is None:
            cluster = spec.build().build_cluster()
            groups = sorted(cluster.machines_by_group())
            plan = RolloutPolicy().plan(
                FlightPlan.from_container_deltas({g: 1 for g in groups})
            )
        kwargs = dict(
            tenant="probe",
            kind="rollout",
            spec=spec,
            scenario=default_catalog().get("diurnal-baseline"),
            config=spec.build().current_config,
            workload_tag="probe/rollout",
            days=0.25,
            rollout=plan,
        )
        kwargs.update(overrides)
        return SimulationRequest(**kwargs)

    def test_rollout_request_requires_a_plan(self):
        with pytest.raises(ServiceError):
            self._request(plan=RolloutPlan())

    def test_request_pickles_and_keeps_its_cache_key(self):
        request = self._request()
        clone = pickle.loads(pickle.dumps(request))
        assert clone.cache_key() == request.cache_key()

    def test_cache_key_tracks_the_wave_schedule(self):
        base = self._request()
        spec = TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5)
        cluster = spec.build().build_cluster()
        groups = sorted(cluster.machines_by_group())
        flight_plan = FlightPlan.from_container_deltas({g: 1 for g in groups})
        two_wave = RolloutPolicy(fractions=(0.5, 1.0)).plan(flight_plan)
        assert self._request(plan=two_wave).cache_key() != base.cache_key()


# ----------------------------------------------------------------------
# Campaign DEPLOY: staged waves, rollback, the advisory knob
# ----------------------------------------------------------------------
class TestCampaignStagedDeploy:
    def _campaign_at_deploy(self, **campaign_kwargs) -> Campaign:
        spec = TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5)
        campaign = Campaign(
            spec, default_catalog().get("diurnal-baseline"), **campaign_kwargs
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

    def test_deploy_issues_a_rollout_request(self):
        campaign = self._campaign_at_deploy()
        request = campaign.pending_request()
        assert request.kind == "rollout"
        assert request.rollout and len(request.rollout.waves) == 4
        # The campaign's policy override shapes the request's schedule.
        two_wave = self._campaign_at_deploy(
            rollout_policy=RolloutPolicy(fractions=(0.1, 1.0))
        )
        assert len(two_wave.pending_request().rollout.waves) == 2

    def test_successful_rollout_adopts_and_records_waves(self):
        campaign = self._campaign_at_deploy()
        waves = [
            wave_record("pilot", 0.02),
            wave_record("10%", 0.10, gate=GateVerdict(True, "ok")),
            wave_record("fleet", 1.0, gate=GateVerdict(True, "ok")),
        ]
        campaign.advance(
            SimulationOutcome(
                tenant="probe",
                kind="rollout",
                workload_tag="t",
                impact=make_impact(),
                rollout_waves=waves,
            )
        )
        assert campaign.phase is CampaignPhase.DEPLOYED
        report = campaign.report()
        assert report.rollout_waves == tuple(waves)
        assert any(
            "wave(s) shipped" in e.detail
            for e in report.history
            if e.phase is CampaignPhase.DEPLOY
        )

    def test_mid_rollout_gate_failure_rolls_back(self):
        campaign = self._campaign_at_deploy()
        baseline = config_fingerprint(campaign.config)
        waves = [
            wave_record("pilot", 0.02, reverted=True),
            wave_record("10%", 0.10, reverted=True,
                        gate=GateVerdict(True, "ok")),
            wave_record("50%", 0.50, applied=False,
                        gate=GateVerdict(False, "latency cratered")),
            wave_record("fleet", 1.0, applied=False),
        ]
        campaign.advance(
            SimulationOutcome(
                tenant="probe",
                kind="rollout",
                workload_tag="t",
                impact=make_impact(),
                rollout_waves=waves,
            )
        )
        assert campaign.phase is CampaignPhase.ROLLED_BACK
        assert campaign.rollbacks == 1
        # The regressing proposal never ships: the baseline stands.
        assert config_fingerprint(campaign.config) == baseline
        detail = campaign.history[-1].detail
        assert "halted before wave '50%'" in detail
        assert "2 deployed wave(s) reverted" in detail
        assert campaign.report().rollout_waves == tuple(waves)

    def test_regressing_impact_still_rolls_back_after_clean_waves(self):
        campaign = self._campaign_at_deploy()
        campaign.advance(
            SimulationOutcome(
                tenant="probe",
                kind="rollout",
                workload_tag="t",
                impact=make_impact(latency_rel=0.10, latency_p=0.001),
                rollout_waves=[
                    wave_record("pilot", 0.02),
                    wave_record("fleet", 1.0, gate=GateVerdict(True, "ok")),
                ],
            )
        )
        assert campaign.phase is CampaignPhase.ROLLED_BACK

    def test_empty_rollout_plan_override_falls_back_to_impact(self):
        """An application may pilot builds yet stage nothing: the DEPLOY
        phase must fall back to the legacy impact path, not crash."""
        campaign = self._campaign_at_deploy()

        class NothingToStage(type(campaign.application)):
            def rollout_plan(self, proposal, policy=None):
                return RolloutPlan()

        campaign.application = NothingToStage()
        request = campaign.pending_request()
        assert request.kind == "impact"
        assert request.proposed is not None

    def test_planless_proposal_falls_back_to_legacy_impact(self):
        campaign = self._campaign_at_deploy()
        campaign._flight_plan = FlightPlan()
        request = campaign.pending_request()
        assert request.kind == "impact"
        assert request.proposed is not None
        campaign.advance(
            SimulationOutcome(
                tenant="probe", kind="impact", workload_tag="t",
                impact=make_impact(),
            )
        )
        assert campaign.phase is CampaignPhase.DEPLOYED
        assert campaign.report().rollout_waves == ()


class TestAdvisoryFlightGating:
    def _advisory_campaign_at_flight(self, **campaign_kwargs) -> Campaign:
        spec = TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5)
        campaign = Campaign(
            spec, default_catalog().get("diurnal-baseline"), **campaign_kwargs
        )
        campaign.tuning = TuningProposal(
            application="power-capping",
            summary="fabricated advisory recommendation",
            proposed_config=None,
        )
        campaign._flight_plan = FlightPlan.from_container_deltas(
            {next(iter(campaign.config.limits)): 1}
        )
        campaign.phase = CampaignPhase.FLIGHT
        return campaign

    def _inconclusive_outcome(self) -> SimulationOutcome:
        # No flight could be placed: the recommendation was never validated.
        return SimulationOutcome(
            tenant="probe", kind="flight", workload_tag="t", flight_reports=[]
        )

    def test_default_converges_with_verdict_recorded(self):
        campaign = self._advisory_campaign_at_flight()
        campaign.advance(self._inconclusive_outcome())
        assert campaign.phase is CampaignPhase.CONVERGED
        assert any(
            "pilot flight inconclusive" in e.detail for e in campaign.history
        )

    def test_require_flight_validation_withholds_the_recommendation(self):
        campaign = self._advisory_campaign_at_flight(require_flight_validation=True)
        campaign.advance(self._inconclusive_outcome())
        assert campaign.phase is CampaignPhase.ROLLED_BACK
        assert campaign.rollbacks == 1
        assert any(
            "advisory recommendation withheld" in e.detail
            for e in campaign.history
        )

    def test_validation_requirement_spares_conclusive_flights(self):
        campaign = self._advisory_campaign_at_flight(require_flight_validation=True)
        guardrails = campaign.guardrails
        guardrails.require_flight_significance = True
        # A significant flight report on the gate metric validates the
        # recommendation even under the strict knob.
        from repro.flighting.tool import FlightImpact, FlightReport

        metric = campaign._gate_metric()
        report = FlightReport(
            flight_name="pilot",
            impacts=[
                FlightImpact(
                    metric=metric,
                    flighted_mean=12.0,
                    control_mean=8.0,
                    test=TTestResult(
                        t_value=5.0, df=30.0, p_value=0.001,
                        mean_a=8.0, mean_b=12.0,
                    ),
                )
            ],
            n_flighted_records=16,
            n_control_records=16,
        )
        campaign.advance(
            SimulationOutcome(
                tenant="probe", kind="flight", workload_tag="t",
                flight_reports=[report],
            )
        )
        assert campaign.phase is CampaignPhase.CONVERGED
        assert any(
            "validated by pilot flight" in e.detail for e in campaign.history
        )


# ----------------------------------------------------------------------
# Queue-tuning campaign: a non-container knob ships in waves, end to end
# ----------------------------------------------------------------------
class TestQueueRolloutEndToEnd:
    @pytest.fixture(scope="class")
    def queue_run(self):
        registry = FleetRegistry()
        registry.add(
            TenantSpec(
                name="queues",
                fleet_spec=small_fleet_spec(),
                seed=23,
                application="queue-tuning",
            )
        )
        guardrails = CampaignGuardrails(require_flight_significance=False)
        with ContinuousTuningService(
            registry, backend=ProcessPoolBackend(max_workers=1), guardrails=guardrails
        ) as service:
            return service.run_campaigns(
                scenario="sustained-overload",
                observe_days=0.5,
                impact_days=0.5,
                flight_hours=4.0,
            )

    def test_queue_bounds_roll_out_in_waves(self, queue_run):
        report = queue_run.reports["queues"]
        assert report.rollout_waves, "queue campaign must stage a rollout"
        assert report.rollout_waves[0].wave == "pilot"
        assert report.rollout_waves[-1].fraction == 1.0
        assert all(w.gate is not None for w in report.rollout_waves[1:]
                   if w.applied)
        # Wave verdicts decide the ending: either every wave shipped, or the
        # halt reverted the deployed ones.
        if report.final_phase is CampaignPhase.DEPLOYED:
            assert all(w.applied and not w.reverted for w in report.rollout_waves)
