"""Tests for the unified tuning-application API (:mod:`repro.core.application`).

Covers the registry (all five Table 3 applications registered, decorator
semantics, error paths), the lifecycle round-trip ``parameter_space →
propose → evaluate`` for every registered application on one small fleet,
the facade entry points (``Kea.tune`` / ``Kea.run_application``), and
application-agnostic campaigns (queue tuning deploys end to end,
bit-identically between serial and pooled execution; advisory applications
converge with their recommendation recorded).
"""

import pytest

from repro.cluster import (
    SimulationConfig,
    small_application_fleet_spec,
    small_fleet_spec,
)
from repro.cluster.config import YarnConfig
from repro.core import (
    APPLICATIONS,
    ApplicationRegistry,
    ApplicationRun,
    Kea,
    ParameterSpec,
    TuningApplication,
    TuningOutcome,
    TuningProposal,
    register_application,
)
from repro.core.applications import (
    PowerCappingApplication,
    QueueTuningResult,
    YarnTuningResult,
)
from repro.flighting import ConfigBuild, FlightPlan, PlannedFlight
from repro.service import (
    DEFAULT_CATALOG,
    Campaign,
    CampaignPhase,
    ContinuousTuningService,
    FleetRegistry,
    ProcessPoolBackend,
    Scenario,
    TenantSpec,
)
from repro.service.pool import execute_request
from repro.utils.errors import ApplicationError

EXPECTED_APPLICATIONS = {
    "yarn-config",
    "queue-tuning",
    "power-capping",
    "sku-design",
    "sc-selection",
}

#: Cheap constructor kwargs per application, sized for the test fleet.
APP_KWARGS = {
    "yarn-config": {},
    "queue-tuning": {},
    "power-capping": dict(
        capping_levels=(0.10,), group_size=4, hours_per_round=2.0
    ),
    "sku-design": dict(
        ram_candidates_gb=[64.0, 128.0, 256.0],
        ssd_candidates_gb=[600.0, 1200.0, 2400.0],
        n_draws=100,
    ),
    "sc-selection": dict(sku="Gen 1.1", n_racks=2, days=0.25),
}


@pytest.fixture(scope="module")
def kea():
    return Kea(fleet_spec=small_application_fleet_spec(), seed=101)


@pytest.fixture(scope="module")
def observation(kea):
    # Resource sampling on so sku-design's propose has Figure 13 data.
    return kea.observe(
        days=0.5,
        sim_config=SimulationConfig(
            resource_sample_period_s=120.0,
            resource_sample_machines=12,
            resource_sample_sku="Gen 4.1",
        ),
    )


@pytest.fixture(scope="module")
def engine(kea, observation):
    return kea.calibrate(observation.monitor)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_five_applications_registered(self):
        assert EXPECTED_APPLICATIONS <= set(APPLICATIONS.names())
        assert len(APPLICATIONS) >= 5

    def test_lookup_and_create(self):
        cls = APPLICATIONS.get("yarn-config")
        app = APPLICATIONS.create("yarn-config")
        assert isinstance(app, cls)
        assert "yarn-config" in APPLICATIONS
        assert "warp-drive" not in APPLICATIONS

    def test_unknown_application_rejected(self):
        with pytest.raises(ApplicationError):
            APPLICATIONS.get("warp-drive")
        with pytest.raises(ApplicationError):
            APPLICATIONS.create("warp-drive")

    def test_duplicate_registration_rejected(self):
        scratch = ApplicationRegistry()

        @register_application(registry=scratch)
        class Toy(TuningApplication):
            name = "toy"
            mode = "observational"

            def parameter_space(self):
                return (ParameterSpec(name="k", description="d"),)

            def propose(self, observation, engine=None):
                return TuningProposal(application=self.name, summary="noop")

        assert scratch.names() == ["toy"]
        with pytest.raises(ApplicationError):
            scratch.register(Toy)

    def test_registration_validates_name_and_mode(self):
        scratch = ApplicationRegistry()

        class NoName(TuningApplication):
            mode = "observational"

            def parameter_space(self):
                return ()

            def propose(self, observation, engine=None):  # pragma: no cover
                return TuningProposal(application="x", summary="")

        with pytest.raises(ApplicationError):
            scratch.register(NoName)

        class BadMode(NoName):
            name = "bad-mode"
            mode = "telepathic"

        with pytest.raises(ApplicationError):
            scratch.register(BadMode)

    def test_parameter_spec_validation(self):
        with pytest.raises(ApplicationError):
            ParameterSpec(name="", description="d")
        with pytest.raises(ApplicationError):
            ParameterSpec(name="k", description="d", kind="vibes")
        with pytest.raises(ApplicationError):
            ParameterSpec(name="k", description="d", kind="choice")
        with pytest.raises(ApplicationError):
            ParameterSpec(name="k", description="d", lower=2.0, upper=1.0)

    def test_unbound_host_raises(self):
        app = APPLICATIONS.create("power-capping")
        with pytest.raises(ApplicationError):
            _ = app.host


# ----------------------------------------------------------------------
# Lifecycle round-trip for every registered application
# ----------------------------------------------------------------------
class TestLifecycleRoundTrip:
    @pytest.mark.parametrize("name", sorted(EXPECTED_APPLICATIONS))
    def test_parameter_space_propose_evaluate(
        self, name, kea, observation, engine
    ):
        app = kea.application(name, **APP_KWARGS[name])
        specs = app.parameter_space()
        assert specs and all(isinstance(s, ParameterSpec) for s in specs)
        assert len({s.name for s in specs}) == len(specs)

        proposal = app.propose(
            observation, engine if app.requires_engine else None
        )
        assert isinstance(proposal, TuningProposal)
        assert proposal.application == name
        assert proposal.summary
        assert proposal.details is not None
        if proposal.proposed_config is not None:
            assert isinstance(proposal.proposed_config, YarnConfig)
        plan = app.flight_plan(proposal)
        assert isinstance(plan, FlightPlan)
        for entry in plan:
            assert isinstance(entry, PlannedFlight)
            assert isinstance(entry.build, ConfigBuild)

        outcome = app.evaluate(observation, observation)
        assert isinstance(outcome, TuningOutcome)
        assert outcome.application == name
        # Identical windows can never count as a regression.
        assert outcome.improved
        assert outcome.relative_change == pytest.approx(0.0)

        # apply() folds the proposal into a baseline config (advisory
        # applications leave it untouched).
        baseline = kea.current_config.copy()
        applied = app.apply(baseline, proposal)
        if proposal.is_advisory:
            assert applied == baseline
        else:
            assert applied == proposal.proposed_config

    def test_yarn_proposal_carries_rich_details(self, kea, observation, engine):
        proposal = kea.tune("yarn-config", observation=observation, engine=engine)
        assert isinstance(proposal.details, YarnTuningResult)
        assert proposal.config_deltas == proposal.details.config_deltas
        assert proposal.proposed_config == proposal.details.proposed_config

    def test_queue_proposal_changes_queue_limits_only(
        self, kea, observation
    ):
        proposal = kea.tune("queue-tuning", observation=observation)
        assert isinstance(proposal.details, QueueTuningResult)
        assert not proposal.config_deltas
        baseline = observation.cluster.yarn_config
        for key, limit in proposal.details.recommended_limits.items():
            limits = proposal.proposed_config.for_group(key)
            assert limits.max_queued_containers == limit
            assert (
                limits.max_running_containers
                == baseline.for_group(key).max_running_containers
            )


# ----------------------------------------------------------------------
# Facade entry points + backwards compatibility
# ----------------------------------------------------------------------
class TestKeaFacadeEntryPoints:
    def test_run_application_returns_full_record(self, kea):
        run = kea.run_application("queue-tuning", observe_days=0.25)
        assert isinstance(run, ApplicationRun)
        assert run.application == "queue-tuning"
        assert run.engine is None  # queue tuning is engine-free
        assert run.proposal.proposed_config is not None
        assert "queue-tuning" in run.summary()

    def test_tune_accepts_instances_but_not_both(self, kea, observation):
        app = PowerCappingApplication(
            capping_levels=(0.10,), group_size=4, hours_per_round=2.0
        )
        proposal = kea.tune(app, observation=observation)
        assert proposal.application == "power-capping"
        assert proposal.is_advisory
        with pytest.raises(ApplicationError):
            kea.application(app, group_size=2)


# ----------------------------------------------------------------------
# Application-agnostic campaigns
# ----------------------------------------------------------------------
# Queue pilots only bite when queues actually build, so the campaign runs
# the sustained-overload scenario with a long enough flight window for the
# backlog to accumulate on the saturated groups.
QUEUE_CAMPAIGN_KW = dict(observe_days=0.5, impact_days=0.5, flight_hours=8.0)
QUEUE_CAMPAIGN_SCENARIO = "sustained-overload"


def queue_registry() -> FleetRegistry:
    registry = FleetRegistry()
    registry.add(
        TenantSpec(
            name="queues",
            fleet_spec=small_fleet_spec(),
            seed=23,
            application="queue-tuning",
        )
    )
    return registry


def run_queue_campaign(max_workers: int):
    with ContinuousTuningService(
        queue_registry(), backend=ProcessPoolBackend(max_workers=max_workers)
    ) as service:
        return service.run_campaigns(
            scenario=QUEUE_CAMPAIGN_SCENARIO, **QUEUE_CAMPAIGN_KW
        )


@pytest.fixture(scope="module")
def queue_serial_run():
    return run_queue_campaign(max_workers=1)


class TestApplicationCampaigns:
    def test_queue_campaign_reaches_rollout_decision(self, queue_serial_run):
        report = queue_serial_run.reports["queues"]
        assert report.application == "queue-tuning"
        assert report.final_phase in (
            CampaignPhase.DEPLOYED,
            CampaignPhase.ROLLED_BACK,
        )
        assert report.deployments + report.rollbacks == 1
        phases = [e.phase for e in report.history]
        # The full chain runs, with CALIBRATE logged as skipped and FLIGHT
        # now a genuine pilot of the queue-limit builds.
        assert phases[:4] == [
            CampaignPhase.OBSERVE,
            CampaignPhase.CALIBRATE,
            CampaignPhase.TUNE,
            CampaignPhase.FLIGHT,
        ]
        assert "skipped" in report.history[1].detail
        assert "skipped" not in report.history[3].detail
        assert report.flight_validations
        validation = report.flight_validations[0]
        assert validation.reports and validation.gate is not None
        for flight_report in validation.reports:
            assert "queue" in flight_report.flight_name

    def test_queue_campaign_parallel_matches_serial(self, queue_serial_run):
        parallel = run_queue_campaign(max_workers=2)
        serial_report = queue_serial_run.reports["queues"]
        parallel_report = parallel.reports["queues"]
        assert parallel_report.final_phase == serial_report.final_phase
        assert [
            (e.round, e.phase, e.detail) for e in parallel_report.history
        ] == [(e.round, e.phase, e.detail) for e in serial_report.history]

    def test_deployed_queue_limits_enter_the_baseline(self, queue_serial_run):
        report = queue_serial_run.reports["queues"]
        if report.final_phase is not CampaignPhase.DEPLOYED:
            pytest.skip("campaign rolled back on this draw")
        # Capacity (running containers) must be untouched by queue tuning.
        assert report.capacity_after == report.capacity_before

    def test_advisory_campaign_converges_with_recommendation(self):
        spec = TenantSpec(
            name="power", fleet_spec=small_application_fleet_spec(), seed=7
        )
        app = PowerCappingApplication(
            capping_levels=(0.10,), group_size=4, hours_per_round=2.0
        )
        campaign = Campaign(
            spec,
            DEFAULT_CATALOG.get("diurnal-baseline"),
            application=app,
            observe_days=0.25,
            flight_hours=4.0,
        )
        while not campaign.done:
            campaign.advance(execute_request(campaign.pending_request()))
        report = campaign.report()
        assert report.final_phase is CampaignPhase.CONVERGED
        assert report.application == "power-capping"
        assert any("recommend capping" in e.detail for e in report.history)
        assert report.capacity_after == report.capacity_before
        # A nonzero capping recommendation is pilot-flighted before the
        # advisory campaign converges, and the verdict is on the report.
        assert report.flight_validations
        assert report.flight_validations[0].gate is not None

    def test_scenario_can_select_the_application(self):
        scenario = Scenario(
            name="queue-pressure",
            description="sustained overload tuned with queue limits",
            application="queue-tuning",
        )
        spec = TenantSpec(name="t", fleet_spec=small_fleet_spec(), seed=5)
        campaign = Campaign(spec, scenario)
        assert campaign.application.name == "queue-tuning"
        # A tenant's own choice beats the scenario's.
        spec_override = TenantSpec(
            name="t2",
            fleet_spec=small_fleet_spec(),
            seed=5,
            application="yarn-config",
        )
        assert (
            Campaign(spec_override, scenario).application.name == "yarn-config"
        )
        # And an explicit campaign argument beats both.
        assert (
            Campaign(
                spec_override, scenario, application="queue-tuning"
            ).application.name
            == "queue-tuning"
        )

    def test_default_campaign_still_runs_yarn_config(self):
        spec = TenantSpec(name="t", fleet_spec=small_fleet_spec(), seed=5)
        campaign = Campaign(spec, DEFAULT_CATALOG.get("diurnal-baseline"))
        assert campaign.application.name == "yarn-config"
