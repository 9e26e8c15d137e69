"""Tests for the continuous tuning service (:mod:`repro.service`).

Covers the campaign state machine (transitions, significance gates, rollback
on regressing deployments), the simulation cache (hits avoid re-simulation),
and the parallel pool (a multi-tenant parallel run is bit-identical to a
serial run of the same campaigns).

Every execution backend's fleet campaign is also checked against the
committed digest in ``tests/golden/campaign.json``, so the campaign outputs
hold across builds, not only across backends of one build. A deliberate
behaviour change re-baselines the file, from the repo root::

    PYTHONPATH=src python -m tests.test_service --write
"""

import hashlib
import json
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import small_fleet_spec
from repro.cluster.cluster import default_yarn_config
from repro.core.application import TuningProposal
from repro.core.kea import DeploymentImpact
from repro.flighting.safety import DeploymentGuardrail
from repro.service import (
    DEFAULT_CATALOG,
    Campaign,
    CampaignGuardrails,
    CampaignPhase,
    ContinuousTuningService,
    FleetRegistry,
    LocalQueueBackend,
    ProcessPoolBackend,
    Scenario,
    SimulationCache,
    SimulationOutcome,
    SimulationRequest,
    TenantSpec,
    config_fingerprint,
    default_catalog,
)
from repro.service.campaign import TERMINAL_PHASES
from repro.stats.treatment import TreatmentEffect
from repro.stats.ttest import TTestResult
from repro.utils.errors import ServiceError
from repro.workload import SeasonalityProfile, SpikeProfile
from tests.conftest import rows_of

CAMPAIGN_KW = dict(observe_days=0.5, impact_days=0.5, flight_hours=4.0)
TENANT_SEEDS = (("east", 11), ("west", 23), ("north", 47))
GOLDEN_PATH = Path(__file__).parent / "golden" / "campaign.json"


def make_registry() -> FleetRegistry:
    registry = FleetRegistry()
    for name, seed in TENANT_SEEDS:
        registry.add(TenantSpec(name=name, fleet_spec=small_fleet_spec(), seed=seed))
    return registry


def make_effect(relative: float, p_value: float) -> TreatmentEffect:
    test = TTestResult(
        t_value=3.0 if p_value < 0.05 else 0.3,
        df=30.0,
        p_value=p_value,
        mean_a=100.0,
        mean_b=100.0 * (1 + relative),
    )
    return TreatmentEffect(effect=100.0 * relative, relative_effect=relative, test=test)


def make_impact(
    latency_rel: float,
    latency_p: float,
    throughput_rel: float = 0.01,
    throughput_p: float = 0.5,
) -> DeploymentImpact:
    return DeploymentImpact(
        throughput=make_effect(throughput_rel, throughput_p),
        latency=make_effect(latency_rel, latency_p),
        capacity_before=1000,
        capacity_after=1010,
        benchmark_runtime_change={},
    )


def assert_fleet_reports_identical(got, want):
    """Field-wise bit-identity of two fleet campaign runs.

    Deliberately field-wise rather than whole-object equality: report
    metadata such as ``backend`` and wall-clock ledger seconds are
    out-of-band and legitimately differ between equivalent runs.
    """
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
        if want_report.last_impact is not None:
            assert got_report.last_impact is not None
            for field in ("throughput", "latency"):
                g = getattr(got_report.last_impact, field)
                w = getattr(want_report.last_impact, field)
                assert g.effect == w.effect
                assert g.test.p_value == w.test.p_value


# ----------------------------------------------------------------------
# Expensive fixtures: one serial and one parallel multi-tenant campaign
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serial_service():
    service = ContinuousTuningService(
        make_registry(), backend=ProcessPoolBackend(max_workers=1)
    )
    yield service
    service.close()


@pytest.fixture(scope="module")
def serial_run(serial_service):
    return serial_service.run_campaigns(scenario="diurnal-baseline", **CAMPAIGN_KW)


@pytest.fixture(scope="module")
def parallel_run():
    with ContinuousTuningService(
        make_registry(), backend=ProcessPoolBackend(max_workers=2)
    ) as service:
        assert service.backend.max_workers > 1
        yield service.run_campaigns(scenario="diurnal-baseline", **CAMPAIGN_KW)


@pytest.fixture(scope="module", params=["serial", "pool", "queue"])
def backend_run(request, tmp_path_factory):
    """The same fleet campaign executed once per execution backend."""
    if request.param == "serial":
        backend = ProcessPoolBackend(max_workers=1)
    elif request.param == "pool":
        backend = ProcessPoolBackend(max_workers=2)
    else:
        backend = LocalQueueBackend(
            tmp_path_factory.mktemp("spool"), workers=2
        )
    with ContinuousTuningService(make_registry(), backend=backend) as service:
        campaigns = service.launch(scenario="diurnal-baseline", **CAMPAIGN_KW)
        report = service._drive(campaigns, "diurnal-baseline", rounds=1)
        assert report.backend == backend.name
        yield report, final_configs(campaigns)


def final_configs(campaigns) -> dict:
    return {name: campaign.config for name, campaign in campaigns.items()}


def campaign_digest(report, configs) -> dict:
    """Per-tenant golden record of a fleet campaign run.

    The scalar outcome is kept in clear so a mismatch reads at a glance;
    the audit trail and the rollout waves are hashed, ``repr`` for the
    waves (floats repr round-trip exactly).
    """
    digest = {}
    for name, tenant in sorted(report.reports.items()):
        trail = hashlib.sha256()
        trail.update(repr([
            (e.round, e.phase.value, e.detail) for e in tenant.history
        ]).encode())
        trail.update(repr([repr(w) for w in tenant.rollout_waves]).encode())
        digest[name] = {
            "final_phase": tenant.final_phase.value,
            "rounds_run": tenant.rounds_run,
            "deployments": tenant.deployments,
            "rollbacks": tenant.rollbacks,
            "capacity_before": tenant.capacity_before,
            "capacity_after": tenant.capacity_after,
            "config_fingerprint": config_fingerprint(configs[name]),
            "history_and_waves_sha256": trail.hexdigest(),
        }
    return digest


# ----------------------------------------------------------------------
# Registry + scenarios
# ----------------------------------------------------------------------
class TestRegistry:
    def test_holds_tenants_in_registration_order(self):
        registry = make_registry()
        assert registry.names() == ["east", "west", "north"]
        assert len(registry) == 3
        assert "west" in registry
        assert registry.get("east").seed == 11

    def test_rejects_duplicates_and_unknown_names(self):
        registry = make_registry()
        with pytest.raises(ServiceError):
            registry.add(TenantSpec(name="east", fleet_spec=small_fleet_spec()))
        with pytest.raises(ServiceError):
            registry.get("southwest")

    def test_spec_validation(self):
        with pytest.raises(ServiceError):
            TenantSpec(name="", fleet_spec=small_fleet_spec())
        with pytest.raises(ServiceError):
            TenantSpec(name="t", fleet_spec=small_fleet_spec(), jobs_per_hour=-1.0)


class TestScenarios:
    def test_default_catalog_has_the_stock_scenarios(self):
        assert default_catalog().names() == [
            "diurnal-baseline",
            "demand-spike",
            "sustained-overload",
            "group-decommission",
            "benchmark-heavy",
            "az-outage",
            "straggler-tail",
        ]

    def test_unknown_and_duplicate_scenarios_rejected(self):
        catalog = default_catalog()
        with pytest.raises(ServiceError):
            catalog.get("full-moon")
        with pytest.raises(ServiceError):
            catalog.register(DEFAULT_CATALOG.get("demand-spike"))

    def test_spike_profile_raises_rate_only_inside_window(self):
        profile = SpikeProfile(
            base=SeasonalityProfile(diurnal_amplitude=0.0, weekend_dip=0.0),
            spike_start_hour=6.0,
            spike_duration_hours=4.0,
            spike_magnitude=2.0,
        )
        assert profile.multiplier(5.0 * 3600) == pytest.approx(1.0)
        assert profile.multiplier(8.0 * 3600) == pytest.approx(2.0)
        assert profile.multiplier(10.5 * 3600) == pytest.approx(1.0)
        assert profile.max_multiplier == pytest.approx(2.0)

    def test_decommission_scenario_drains_the_group(self):
        scenario = DEFAULT_CATALOG.get("group-decommission")
        spec = TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5)
        kea = spec.build(scenario=scenario)
        observation = kea.simulate(
            8.0 / 24.0,
            workload_tag="probe/decommission",
            actions=scenario.actions(),
        )
        drained = [
            m
            for m in observation.cluster.machines
            if m.sku.name == scenario.decommission_sku
        ]
        assert drained and all(m.max_running_containers == 1 for m in drained)
        # After the drain hour, the group's observed concurrency collapses.
        late = [
            r.avg_running_containers
            for r in rows_of(observation.monitor.frame)
            if r.sku == scenario.decommission_sku
            and r.hour >= scenario.decommission_hour + 1
        ]
        assert float(np.mean(late)) <= 1.5


# ----------------------------------------------------------------------
# Requests, pool, cache plumbing
# ----------------------------------------------------------------------
class TestRequestsAndCache:
    def _observe_request(self, tag="probe/tag", config=None):
        return SimulationRequest(
            tenant="probe",
            kind="observe",
            spec=TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5),
            scenario=DEFAULT_CATALOG.get("diurnal-baseline"),
            config=config if config is not None else default_yarn_config(),
            workload_tag=tag,
            days=0.25,
        )

    def test_request_validation(self):
        with pytest.raises(ServiceError):
            SimulationRequest(
                tenant="probe",
                kind="teleport",
                spec=TenantSpec(name="probe", fleet_spec=small_fleet_spec()),
                scenario=DEFAULT_CATALOG.get("diurnal-baseline"),
                config=default_yarn_config(),
                workload_tag="t",
            )
        with pytest.raises(ServiceError):
            SimulationRequest(
                tenant="probe",
                kind="impact",
                spec=TenantSpec(name="probe", fleet_spec=small_fleet_spec()),
                scenario=DEFAULT_CATALOG.get("diurnal-baseline"),
                config=default_yarn_config(),
                workload_tag="t",
            )

    def test_cache_key_tracks_tenant_config_and_tag(self):
        base = self._observe_request()
        assert base.cache_key() == self._observe_request().cache_key()
        assert base.cache_key() != self._observe_request(tag="probe/other").cache_key()
        shifted = default_yarn_config().with_container_delta(
            {next(iter(default_yarn_config().limits)): 1}
        )
        assert base.cache_key() != self._observe_request(config=shifted).cache_key()
        assert config_fingerprint(default_yarn_config()) != config_fingerprint(shifted)

    def test_cache_key_tracks_scenario_parameters(self):
        """A same-named scenario with different knobs must not share a key."""
        baseline = DEFAULT_CATALOG.get("diurnal-baseline")
        request = self._observe_request()
        impostor = Scenario(
            name=baseline.name,
            description=baseline.description,
            load_multiplier=2.0,
        )
        altered = SimulationRequest(
            tenant=request.tenant,
            kind=request.kind,
            spec=request.spec,
            scenario=impostor,
            config=request.config,
            workload_tag=request.workload_tag,
            days=request.days,
        )
        assert request.cache_key() != altered.cache_key()

    def test_cache_counts_hits_and_misses(self):
        cache = SimulationCache()
        request = self._observe_request()
        assert cache.lookup(request) is None
        outcome = SimulationOutcome(tenant="probe", kind="observe", workload_tag="t")
        cache.store(request, outcome)
        assert cache.lookup(request) is outcome
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_pool_validation_and_empty_batch(self):
        with pytest.raises(ServiceError):
            ProcessPoolBackend(max_workers=0)
        backend = ProcessPoolBackend(max_workers=1)
        assert backend.run([]) == []
        assert backend.max_workers == 1

    def _poisoned_request(self):
        """Valid to construct, fails inside the worker: the scenario drains
        a SKU the fleet does not have."""
        poison = Scenario(
            name="poison",
            description="decommissions a SKU that does not exist",
            decommission_sku="Gen 99.9",
            decommission_hour=1.0,
        )
        return SimulationRequest(
            tenant="poison",
            kind="observe",
            spec=TenantSpec(name="poison", fleet_spec=small_fleet_spec(), seed=5),
            scenario=poison,
            config=default_yarn_config(),
            workload_tag="poison/tag",
            days=0.25,
        )

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_one_failing_request_does_not_destroy_its_siblings(self, max_workers):
        """Per-request futures: the whole batch runs to completion, the
        failure is re-raised naming the request with the siblings' outcomes
        attached, and the pool stays usable and deterministic."""
        from repro.service import SimulationBatchError

        siblings = [
            self._observe_request(tag=f"sibling/{i}") for i in range(2)
        ]
        batch = [siblings[0], self._poisoned_request(), siblings[1]]
        with ProcessPoolBackend(max_workers=max_workers) as pool:
            with pytest.raises(
                ServiceError, match=r"tenant='poison', kind='observe'"
            ) as excinfo:
                pool.run(batch)
            # The batch error carries the completed siblings' outcomes in
            # input order, with None at the failed slot.
            error = excinfo.value
            assert isinstance(error, SimulationBatchError)
            assert [o is None for o in error.outcomes] == [False, True, False]
            assert [req.tenant for req, _exc in error.failures] == ["poison"]
            salvaged = [o for o in error.outcomes if o is not None]
            # Every request in the batch was executed (not torn down at the
            # failure), and the pool stays usable: the siblings' outcomes
            # match a fresh pool's bit for bit.
            assert pool.executed == len(batch)
            after = pool.run(siblings)
        with ProcessPoolBackend(max_workers=1) as reference_pool:
            reference = reference_pool.run(siblings)
        for got, want in zip(after, reference, strict=True):
            assert got.tenant == want.tenant
            assert got.workload_tag == want.workload_tag
            assert got.frame == want.frame
            assert got.snapshot == want.snapshot
        for got, want in zip(salvaged, reference, strict=True):
            assert got.snapshot == want.snapshot

    def test_service_caches_salvaged_siblings_from_a_failed_beat(self):
        """A poisoned batch fails the scheduling beat, but the siblings'
        completed outcomes land in the cache — a retried beat re-simulates
        only the failing request."""
        registry = make_registry()
        poison = Scenario(
            name="poison",
            description="decommissions a SKU that does not exist",
            decommission_sku="Gen 99.9",
            decommission_hour=1.0,
        )
        with ContinuousTuningService(
            registry, backend=ProcessPoolBackend(max_workers=1)
        ) as service:
            service.catalog.register(poison)
            healthy = service.launch(
                scenario="diurnal-baseline", tenants=["east", "west"],
                **CAMPAIGN_KW,
            )
            doomed = service.launch(
                scenario="poison", tenants=["north"], **CAMPAIGN_KW
            )
            campaigns = {**healthy, **doomed}
            with pytest.raises(ServiceError, match=r"tenant='north'"):
                service.step(campaigns)
            executed = service.backend.executed
            # The healthy tenants' windows were salvaged into the cache:
            # re-running just them simulates nothing new.
            service.step(healthy)
            assert service.backend.executed == executed
            assert service.cache.stats.hits >= 2


# ----------------------------------------------------------------------
# Campaign state machine (unit level: fabricated outcomes)
# ----------------------------------------------------------------------
class TestCampaignGates:
    def _campaign_at_deploy(self, guardrails=None) -> Campaign:
        spec = TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5)
        campaign = Campaign(
            spec, DEFAULT_CATALOG.get("diurnal-baseline"), guardrails=guardrails
        )
        proposed = campaign.config.with_container_delta(
            {next(iter(campaign.config.limits)): 1}
        )
        campaign.tuning = TuningProposal(
            application="yarn-config",
            summary="fabricated",
            proposed_config=proposed,
            config_deltas={next(iter(campaign.config.limits)): 1},
        )
        campaign.phase = CampaignPhase.DEPLOY
        return campaign

    def test_significant_latency_regression_rolls_back(self):
        campaign = self._campaign_at_deploy()
        baseline = config_fingerprint(campaign.config)
        outcome = SimulationOutcome(
            tenant="probe",
            kind="impact",
            workload_tag="t",
            impact=make_impact(latency_rel=0.10, latency_p=0.001),
        )
        campaign.advance(outcome)
        assert campaign.phase is CampaignPhase.ROLLED_BACK
        assert campaign.done and campaign.rollbacks == 1
        # The regressing proposal was discarded: baseline config stands.
        assert config_fingerprint(campaign.config) == baseline

    def test_insignificant_wobble_deploys(self):
        campaign = self._campaign_at_deploy()
        outcome = SimulationOutcome(
            tenant="probe",
            kind="impact",
            workload_tag="t",
            impact=make_impact(latency_rel=0.10, latency_p=0.60),
        )
        campaign.advance(outcome)
        assert campaign.phase is CampaignPhase.DEPLOYED
        assert campaign.deployments == 1
        assert config_fingerprint(campaign.config) == config_fingerprint(
            campaign.tuning.proposed_config
        )

    def test_significant_throughput_drop_rolls_back(self):
        campaign = self._campaign_at_deploy()
        outcome = SimulationOutcome(
            tenant="probe",
            kind="impact",
            workload_tag="t",
            impact=make_impact(
                latency_rel=0.0,
                latency_p=0.9,
                throughput_rel=-0.08,
                throughput_p=0.001,
            ),
        )
        campaign.advance(outcome)
        assert campaign.phase is CampaignPhase.ROLLED_BACK

    def test_zero_placeable_flights_rolls_back(self):
        """An unvalidatable proposal must not slip past the flight gate."""
        campaign = self._campaign_at_deploy()
        campaign.phase = CampaignPhase.FLIGHT
        campaign.advance(
            SimulationOutcome(
                tenant="probe", kind="flight", workload_tag="t", flight_reports=[]
            )
        )
        assert campaign.phase is CampaignPhase.ROLLED_BACK
        assert campaign.rollbacks == 1
        assert "no pilot flight could be placed" in campaign.history[-1].detail

    def test_wrong_outcome_kind_rejected(self):
        campaign = self._campaign_at_deploy()
        with pytest.raises(ServiceError):
            campaign.advance(
                SimulationOutcome(tenant="probe", kind="observe", workload_tag="t")
            )
        with pytest.raises(ServiceError):
            campaign.advance(
                SimulationOutcome(tenant="other", kind="impact", workload_tag="t")
            )

    def test_terminal_campaign_refuses_to_advance(self):
        campaign = self._campaign_at_deploy()
        campaign.advance(
            SimulationOutcome(
                tenant="probe",
                kind="impact",
                workload_tag="t",
                impact=make_impact(latency_rel=0.0, latency_p=0.9),
            )
        )
        assert campaign.done and campaign.pending_request() is None
        with pytest.raises(ServiceError):
            campaign.advance(
                SimulationOutcome(tenant="probe", kind="impact", workload_tag="t")
            )

    def test_deployment_guardrail_verdicts(self):
        rail = DeploymentGuardrail(latency_allowance=0.02, alpha=0.05)
        assert rail.judge(make_impact(0.10, 0.001)).passed is False
        assert rail.judge(make_impact(0.10, 0.50)).passed is True
        assert rail.judge(make_impact(0.01, 0.001)).passed is True
        assert not rail.judge(
            make_impact(0.0, 0.9, throughput_rel=-0.10, throughput_p=0.01)
        ).passed


# ----------------------------------------------------------------------
# End-to-end multi-tenant campaigns
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_three_tenants_run_to_terminal_phases(self, serial_run):
        assert set(serial_run.reports) == {"east", "west", "north"}
        for report in serial_run.reports.values():
            assert report.final_phase in TERMINAL_PHASES

    def test_full_loop_and_rollback_both_exercised(self, serial_run):
        phases = {
            name: [e.phase for e in report.history]
            for name, report in serial_run.reports.items()
        }
        # The full OBSERVE → CALIBRATE → TUNE → FLIGHT → DEPLOY (staged
        # waves) → DEPLOYED chain ships on at least one tenant, and at least
        # one tenant rolls back.
        full_chain = [
            CampaignPhase.OBSERVE,
            CampaignPhase.CALIBRATE,
            CampaignPhase.TUNE,
            CampaignPhase.FLIGHT,
            CampaignPhase.DEPLOY,
            CampaignPhase.DEPLOYED,
        ]
        assert any(history == full_chain for history in phases.values())
        assert serial_run.deployments >= 1
        assert serial_run.rollbacks >= 1
        deployed = [
            r for r in serial_run.reports.values() if r.deployments > 0
        ]
        assert all(r.capacity_after != r.capacity_before for r in deployed)
        # Deployments ship wave by wave: every deploying tenant records the
        # full pilot → fleet schedule with per-wave guardrail verdicts.
        for report in deployed:
            waves = report.rollout_waves
            assert [w.wave for w in waves] == ["pilot", "10%", "50%", "fleet"]
            assert all(w.applied and not w.reverted for w in waves)
            assert all(w.gate is not None for w in waves[1:])
            # Every deployed wave quantifies its widening step.
            assert all(w.impact is not None for w in waves)
            fractions = [w.fraction for w in waves]
            assert fractions == sorted(fractions) and fractions[-1] == 1.0

    def test_parallel_run_matches_serial_exactly(self, serial_run, parallel_run):
        """Same seeds and tags → bit-identical results, pool or no pool."""
        assert_fleet_reports_identical(parallel_run, serial_run)

    def test_every_backend_matches_the_serial_reference(
        self, serial_run, backend_run
    ):
        """Inline, process-pooled, and file-queued execution all produce
        the same fleet report bit for bit."""
        report, _configs = backend_run
        assert_fleet_reports_identical(report, serial_run)

    def test_every_backend_matches_the_golden_digest(self, backend_run):
        """The campaign outputs match the committed digest, so a refactor
        is verified across builds, not only across backends."""
        golden = json.loads(GOLDEN_PATH.read_text())
        assert campaign_digest(*backend_run) == golden

    def test_cache_absorbs_a_repeated_campaign(self, serial_service, serial_run):
        executed_before = serial_service.backend.executed
        rerun = serial_service.run_campaigns(
            scenario="diurnal-baseline", **CAMPAIGN_KW
        )
        # Every simulation of the identical campaign is a cache hit, and the
        # report's stats cover this run alone (not lifetime totals).
        assert rerun.simulations_executed == 0
        assert serial_service.backend.executed == executed_before
        assert rerun.cache_stats.hits >= serial_run.simulations_executed
        assert rerun.cache_stats.misses == 0
        for name, report in rerun.reports.items():
            assert report.final_phase == serial_run.reports[name].final_phase

    def test_cached_outcomes_stay_unpriced(self, serial_service, serial_run):
        """Campaigns price a copy: an outcome in the cache is never priced
        in place, so its measured byte cost still holds and a replay is not
        handed another campaign's price."""
        held = [outcome for outcome, _size in serial_service.cache._store.values()]
        assert held and serial_run.simulations_executed > 0
        assert all(outcome.cost is None for outcome in held)
        assert serial_service.cache.nbytes == sum(
            len(pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
            for outcome in held
        )

    def test_strict_guardrails_force_end_to_end_rollback(self):
        guardrails = CampaignGuardrails(
            deployment=DeploymentGuardrail(
                latency_allowance=-1.0, throughput_allowance=-1.0, alpha=0.999
            ),
            require_flight_significance=False,
        )
        registry = FleetRegistry()
        registry.add(TenantSpec(name="west", fleet_spec=small_fleet_spec(), seed=23))
        with ContinuousTuningService(
            registry, backend=ProcessPoolBackend(max_workers=1), guardrails=guardrails
        ) as service:
            result = service.run_campaigns(
                scenario="diurnal-baseline",
                observe_days=0.5,
                impact_days=0.25,
                flight_hours=2.0,
            )
        report = result.reports["west"]
        assert report.final_phase is CampaignPhase.ROLLED_BACK
        assert report.rollbacks == 1 and report.deployments == 0
        assert report.capacity_after == report.capacity_before

    def test_unknown_scenario_or_tenant_rejected(self, serial_service):
        with pytest.raises(ServiceError):
            serial_service.run_campaigns(scenario="full-moon")
        with pytest.raises(ServiceError):
            serial_service.launch(tenants=["atlantis"])

    def test_report_summary_renders(self, serial_run):
        text = serial_run.summary()
        assert "diurnal-baseline" in text
        for name in serial_run.reports:
            assert name in text
        assert "cache" in text


class TestMultiRound:
    def test_second_round_observes_the_adopted_baseline(self):
        registry = FleetRegistry()
        registry.add(TenantSpec(name="west", fleet_spec=small_fleet_spec(), seed=23))
        cache = SimulationCache(max_bytes=1 << 20)
        with ContinuousTuningService(
            registry, backend=ProcessPoolBackend(max_workers=1), cache=cache
        ) as service:
            result = service.run_campaigns(
                scenario="diurnal-baseline", rounds=2, **CAMPAIGN_KW
            )
        # A user-supplied cache is the service's cache, its bound untouched.
        assert service.cache is cache and cache.max_bytes == 1 << 20
        report = result.reports["west"]
        assert report.rounds_run == 2
        rounds_seen = {e.round for e in report.history}
        assert rounds_seen == {1, 2}
        # Round 1 deploys; round 2 starts from the adopted config and runs
        # its own gated loop on fresh workload draws.
        round1 = [e.phase for e in report.history if e.round == 1]
        assert round1[-1] is CampaignPhase.DEPLOYED
        assert report.deployments >= 1
        assert report.capacity_after != report.capacity_before

    def test_round_tags_differ(self):
        spec = TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5)
        campaign = Campaign(
            spec, DEFAULT_CATALOG.get("diurnal-baseline"), rounds=3
        )
        tag_round_1 = campaign.workload_tag("observe")
        campaign.round = 2
        assert campaign.workload_tag("observe") != tag_round_1


def _write() -> None:
    with ContinuousTuningService(make_registry()) as service:
        campaigns = service.launch(scenario="diurnal-baseline", **CAMPAIGN_KW)
        report = service._drive(campaigns, "diurnal-baseline", rounds=1)
    digest = campaign_digest(report, final_configs(campaigns))
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(digest, indent=2, sort_keys=True) + "\n")
    print(json.dumps(digest, indent=2, sort_keys=True))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python -m tests.test_service --write")
    _write()
