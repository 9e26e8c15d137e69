"""Tests for build-native flight plans and the application-aware observation
plane.

Covers the new flighting vocabulary (ConfigBuild round-trips through pickle,
PlannedFlight selectors, FlightPlan construction), the ObservationSpec that
rides on SimulationRequests, per-application flight plans (queue-limit
builds, SC re-image builds, power-cap composites), genuine campaign FLIGHT
phases for queue tuning and SC selection with serial == pooled
bit-identity, sku-design's resource samples served through the pool/cache,
and the bounded LRU SimulationCache.
"""

import pickle
import sys
import threading

import pytest

from repro.cluster import (
    ObservationSpec,
    build_cluster,
    small_application_fleet_spec,
    small_fleet_spec,
)
from repro.cluster.cluster import default_yarn_config
from repro.cluster.software import MachineGroupKey
from repro.core import Kea
from repro.core.applications.sc_selection import ScSelectionApplication
from repro.flighting import (
    CompositeBuild,
    ContainerDeltaBuild,
    FeatureBuild,
    Flight,
    FlightPlan,
    PlannedFlight,
    PowerCapBuild,
    SoftwareBuild,
    YarnLimitsBuild,
)
from repro.service import (
    DEFAULT_CATALOG,
    Campaign,
    CampaignPhase,
    ContinuousTuningService,
    FleetRegistry,
    ProcessPoolBackend,
    SimulationCache,
    SimulationOutcome,
    SimulationRequest,
    TenantSpec,
    execute_request,
)
from repro.utils.errors import ConfigurationError, ServiceError, TelemetryError

ALL_BUILDS = (
    YarnLimitsBuild(max_running_containers=4, max_queued_containers=8),
    ContainerDeltaBuild(delta=-1),
    SoftwareBuild(software_name="SC2"),
    PowerCapBuild(capping_level=0.2),
    FeatureBuild(enabled=True),
    CompositeBuild(
        builds=(FeatureBuild(enabled=True), PowerCapBuild(capping_level=0.1))
    ),
)


# ----------------------------------------------------------------------
# Builds: pickle round-trips (process-pool fan-out contract)
# ----------------------------------------------------------------------
class TestBuildSerialization:
    @pytest.mark.parametrize("build", ALL_BUILDS, ids=lambda b: type(b).__name__)
    def test_every_build_survives_pickle(self, build):
        clone = pickle.loads(pickle.dumps(build))
        assert clone == build
        assert clone.describe() == build.describe()

    def test_applied_build_still_reverts_after_pickle(self):
        cluster = build_cluster(small_fleet_spec())
        machines = cluster.machines[:4]
        original = [m.max_running_containers for m in machines]
        build = pickle.loads(pickle.dumps(ContainerDeltaBuild(delta=2)))
        build.apply(cluster, machines)
        assert [m.max_running_containers for m in machines] == [
            n + 2 for n in original
        ]
        build.revert(cluster, machines)
        assert [m.max_running_containers for m in machines] == original

    def test_reapply_resets_saved_state(self):
        """A build reused across clusters must not revert stale machines."""
        build = ContainerDeltaBuild(delta=1)
        first = build_cluster(small_fleet_spec())
        build.apply(first, first.machines[:2])
        second = build_cluster(small_fleet_spec())
        build.apply(second, second.machines[2:4])
        assert set(build._saved) == {m.machine_id for m in second.machines[2:4]}

    def test_planned_flight_and_plan_round_trip(self):
        plan = FlightPlan(
            entries=(
                PlannedFlight(
                    build=YarnLimitsBuild(max_running_containers=5),
                    group=MachineGroupKey("SC1", "Gen 1.1"),
                ),
                PlannedFlight(
                    build=SoftwareBuild(software_name="SC2"),
                    sku="Gen 1.1",
                    software="SC1",
                ),
            )
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.describe() == plan.describe()

    def test_build_carrying_request_round_trips(self):
        request = SimulationRequest(
            tenant="probe",
            kind="flight",
            spec=TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5),
            scenario=DEFAULT_CATALOG.get("diurnal-baseline"),
            config=default_yarn_config(),
            workload_tag="t",
            flights=(
                PlannedFlight(
                    build=ContainerDeltaBuild(delta=1),
                    group=MachineGroupKey("SC2", "Gen 4.1"),
                ),
            ),
        )
        clone = pickle.loads(pickle.dumps(request))
        assert clone.cache_key() == request.cache_key()
        assert clone.flights == request.flights

    def test_composite_applies_in_order_and_reverts_reversed(self):
        cluster = build_cluster(small_fleet_spec())
        gen41 = [m for m in cluster.machines if m.sku.name == "Gen 4.1"][:4]
        build = CompositeBuild(
            builds=(FeatureBuild(enabled=True), PowerCapBuild(capping_level=0.15))
        )
        build.apply(cluster, gen41)
        assert all(m.feature_enabled for m in gen41)
        assert all(m.cap_watts is not None for m in gen41)
        build.revert(cluster, gen41)
        assert all(not m.feature_enabled for m in gen41)
        assert all(m.cap_watts is None for m in gen41)

    def test_planned_flight_needs_a_selector(self):
        with pytest.raises(ConfigurationError):
            PlannedFlight(build=FeatureBuild(enabled=True))

    def test_software_flight_controls_use_pre_build_groups(self):
        """Control matching must not chase a re-imaged machine's new group."""
        cluster = build_cluster(small_fleet_spec())
        machines = [m for m in cluster.machines if m.software.name == "SC1"][:4]
        flight = Flight(
            name="f",
            build=SoftwareBuild(software_name="SC2"),
            machines=machines,
            start_hour=0.0,
            end_hour=2.0,
        )
        before = set(flight.control_groups)
        flight.build.apply(cluster, machines)
        assert set(flight.control_groups) == before
        assert all(label.startswith("SC1") for label in before)


# ----------------------------------------------------------------------
# ObservationSpec
# ----------------------------------------------------------------------
class TestObservationSpec:
    def test_defaults_and_validation(self):
        spec = ObservationSpec()
        assert spec.is_default
        with pytest.raises(ValueError):
            ObservationSpec(task_log_sample_rate=1.5)
        with pytest.raises(ValueError):
            ObservationSpec(resource_sample_period_s=-1.0)
        with pytest.raises(ValueError):
            ObservationSpec(benchmark_period_hours=-1.0)

    def test_to_sim_config_maps_telemetry_knobs(self):
        spec = ObservationSpec(
            task_log_sample_rate=0.5,
            resource_sample_period_s=60.0,
            resource_sample_machines=8,
            resource_sample_sku="Gen 4.1",
        )
        config = spec.to_sim_config()
        assert config.task_log_sample_rate == 0.5
        assert config.resource_sample_period_s == 60.0
        assert config.resource_sample_machines == 8
        assert config.resource_sample_sku == "Gen 4.1"

    def test_fingerprint_distinguishes_specs(self):
        a = ObservationSpec()
        b = ObservationSpec(resource_sample_period_s=120.0, resource_sample_machines=4)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == ObservationSpec().fingerprint()

    def test_cache_key_folds_in_spec_and_flights(self):
        def request(**kwargs):
            return SimulationRequest(
                tenant="probe",
                kind=kwargs.pop("kind", "observe"),
                spec=TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5),
                scenario=DEFAULT_CATALOG.get("diurnal-baseline"),
                config=default_yarn_config(),
                workload_tag="t",
                **kwargs,
            )

        plain = request()
        sampled = request(
            observation=ObservationSpec(
                resource_sample_period_s=120.0, resource_sample_machines=4
            )
        )
        assert plain.cache_key() != sampled.cache_key()

        flight_a = request(
            kind="flight",
            flights=(
                PlannedFlight(
                    build=ContainerDeltaBuild(delta=1),
                    group=MachineGroupKey("SC2", "Gen 4.1"),
                ),
            ),
        )
        flight_b = request(
            kind="flight",
            flights=(
                PlannedFlight(
                    build=YarnLimitsBuild(
                        max_running_containers=30, max_queued_containers=6
                    ),
                    group=MachineGroupKey("SC2", "Gen 4.1"),
                ),
            ),
        )
        assert flight_a.cache_key() != flight_b.cache_key()

    def test_flight_request_requires_flights(self):
        with pytest.raises(ServiceError):
            SimulationRequest(
                tenant="probe",
                kind="flight",
                spec=TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5),
                scenario=DEFAULT_CATALOG.get("diurnal-baseline"),
                config=default_yarn_config(),
                workload_tag="t",
            )


# ----------------------------------------------------------------------
# Per-application flight plans
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def kea():
    return Kea(fleet_spec=small_fleet_spec(), seed=77)


@pytest.fixture(scope="module")
def observation(kea):
    return kea.observe(days=0.5, load_multiplier=1.6)


class TestApplicationFlightPlans:
    def test_yarn_config_plans_container_delta_builds(self, kea, observation):
        engine = kea.calibrate(observation.monitor)
        proposal = kea.tune("yarn-config", observation=observation, engine=engine)
        plan = kea.application("yarn-config").flight_plan(proposal)
        assert plan and len(plan) == len(proposal.config_deltas)
        for entry in plan:
            assert isinstance(entry.build, ContainerDeltaBuild)
            assert entry.group in proposal.config_deltas
            assert entry.build.delta == proposal.config_deltas[entry.group]

    def test_queue_tuning_plans_builds_only_for_changed_groups(
        self, kea, observation
    ):
        app = kea.application("queue-tuning")
        proposal = app.propose(observation)
        plan = app.flight_plan(proposal)
        assert plan
        recommended = proposal.details.recommended_limits
        for entry in plan:
            assert isinstance(entry.build, YarnLimitsBuild)
            assert entry.build.max_queued_containers == recommended[entry.group]
            # The running-container limit is untouched: the pilot isolates
            # the queue knob.
            assert (
                entry.build.max_running_containers
                == proposal.baseline_config.for_group(entry.group).max_running_containers
            )
            # Only changed groups are piloted.
            assert (
                proposal.baseline_config.for_group(entry.group).max_queued_containers
                != entry.build.max_queued_containers
            )

    def test_sc_selection_plans_reimage_only_on_challenger_win(self):
        app = ScSelectionApplication(sku="Gen 1.1")

        class _Result:
            def __init__(self, winner):
                self._winner = winner

            def winner(self):
                return self._winner

        from repro.core.application import TuningProposal

        win = TuningProposal(
            application="sc-selection", summary="s", details=_Result("SC2")
        )
        plan = app.flight_plan(win)
        assert len(plan) == 1
        entry = plan.entries[0]
        assert isinstance(entry.build, SoftwareBuild)
        assert entry.build.software_name == "SC2"
        assert entry.sku == "Gen 1.1" and entry.software == "SC1"

        hold = TuningProposal(
            application="sc-selection", summary="s", details=_Result("SC1")
        )
        assert not app.flight_plan(hold)

    def test_power_capping_plans_chassis_aligned_composite(self, kea):
        from repro.core.application import TuningProposal

        app = kea.application("power-capping")
        proposal = TuningProposal(
            application="power-capping",
            summary="s",
            metrics={"recommended_capping_level": 0.2},
        )
        plan = app.flight_plan(proposal)
        assert len(plan) == 1
        entry = plan.entries[0]
        assert entry.chassis_aligned
        assert isinstance(entry.build, CompositeBuild)
        kinds = {type(b) for b in entry.build.builds}
        assert kinds == {FeatureBuild, PowerCapBuild}

        none_recommended = TuningProposal(
            application="power-capping",
            summary="s",
            metrics={"recommended_capping_level": 0.0},
        )
        assert not app.flight_plan(none_recommended)

    def test_single_chassis_population_skips_the_pilot(self):
        """A chassis-aligned pilot must never consume its own control arm.

        When the whole candidate population lives in one chassis, flighting
        it would leave zero controls — the flight is skipped (no reports)
        instead of crashing the evaluation.
        """
        from repro.cluster.cluster import FleetSpec, SkuPopulation
        from repro.cluster.sku import sku_by_name

        spec = FleetSpec(
            populations=(
                SkuPopulation(sku=sku_by_name("Gen 4.1"), count=6),
                SkuPopulation(sku=sku_by_name("Gen 1.1"), count=24),
            ),
            machines_per_chassis=6,
            chassis_per_rack=1,
        )
        kea = Kea(fleet_spec=spec, seed=3)
        plan = FlightPlan(
            entries=(
                PlannedFlight(
                    build=PowerCapBuild(capping_level=0.2),
                    sku="Gen 4.1",
                    chassis_aligned=True,
                ),
            )
        )
        validation = kea.flight_campaign(plan, hours=2.0)
        assert validation.reports == []

    def test_chassis_aligned_pilot_takes_whole_chassis(self, kea):
        cluster = kea.build_cluster()
        entry = PlannedFlight(
            build=PowerCapBuild(capping_level=0.2),
            sku="Gen 4.1",
            chassis_aligned=True,
        )
        from repro.core.kea import _pick_pilot_machines

        machines = _pick_pilot_machines(entry, cluster, machines_per_group=8)
        candidates = entry.select_machines(cluster)
        assert 2 <= len(machines) <= len(candidates) // 2
        picked_chassis = {m.chassis for m in machines}
        for chassis in picked_chassis:
            members = [m for m in candidates if m.chassis == chassis]
            assert all(m in machines for m in members)

    def test_sku_design_plans_nothing(self, kea):
        from repro.core.application import TuningProposal

        app = kea.application("sku-design")
        assert not app.flight_plan(
            TuningProposal(application="sku-design", summary="s")
        )

    def test_sku_design_rejects_sample_free_observation(self, kea, observation):
        app = kea.application("sku-design")
        with pytest.raises(TelemetryError):
            app.propose(observation)  # window was recorded without samples

    def test_queue_flight_moves_queue_length_under_saturation(
        self, kea, observation
    ):
        app = kea.application("queue-tuning")
        proposal = app.propose(observation)
        plan = app.flight_plan(proposal)
        validation = kea.flight_campaign(
            plan,
            hours=8.0,
            metrics=app.flight_metrics,
            load_multiplier=1.8,
        )
        assert validation.reports
        moved = [
            report.impact("QueueLength")
            for report in validation.reports
            if report.impact("QueueLength").test.significant(0.05)
        ]
        assert moved, "capping a saturated queue must visibly change its length"


# ----------------------------------------------------------------------
# Campaigns: genuine FLIGHT phases per knob class
# ----------------------------------------------------------------------
QUEUE_KW = dict(observe_days=0.5, impact_days=0.5, flight_hours=8.0)


def run_queue_campaign(max_workers: int):
    registry = FleetRegistry()
    registry.add(
        TenantSpec(
            name="queues",
            fleet_spec=small_fleet_spec(),
            seed=23,
            application="queue-tuning",
        )
    )
    with ContinuousTuningService(
        registry, backend=ProcessPoolBackend(max_workers=max_workers)
    ) as service:
        return service.run_campaigns(scenario="sustained-overload", **QUEUE_KW)


@pytest.fixture(scope="module")
def queue_serial_run():
    return run_queue_campaign(max_workers=1)


class TestQueueCampaignFlights:
    def test_queue_campaign_runs_a_real_flight(self, queue_serial_run):
        report = queue_serial_run.reports["queues"]
        phases = [e.phase for e in report.history]
        assert CampaignPhase.FLIGHT in phases
        assert not any(
            "skipped" in e.detail
            for e in report.history
            if e.phase is CampaignPhase.FLIGHT
        )
        assert report.flight_validations
        validation = report.flight_validations[0]
        assert validation.reports, "flight reports must be on the report"
        assert validation.gate is not None, "safety-gate verdict must be present"
        for flight_report in validation.reports:
            assert flight_report.impact("QueueLength")  # direct metric measured

    def test_queue_campaign_deploys_through_the_gates(self, queue_serial_run):
        report = queue_serial_run.reports["queues"]
        assert report.final_phase is CampaignPhase.DEPLOYED
        # Queue limits deploy without touching running-container capacity.
        assert report.capacity_after == report.capacity_before

    def test_pooled_run_is_bit_identical_to_serial(self, queue_serial_run):
        pooled = run_queue_campaign(max_workers=2)
        serial_report = queue_serial_run.reports["queues"]
        pooled_report = pooled.reports["queues"]
        assert pooled_report.final_phase == serial_report.final_phase
        assert [
            (e.round, e.phase, e.detail) for e in pooled_report.history
        ] == [(e.round, e.phase, e.detail) for e in serial_report.history]
        serial_reports = serial_report.flight_validations[0].reports
        pooled_reports = pooled_report.flight_validations[0].reports
        assert [r.flight_name for r in pooled_reports] == [
            r.flight_name for r in serial_reports
        ]
        for s, p in zip(serial_reports, pooled_reports, strict=True):
            for metric in ("QueueLength", "QueueWaitP99"):
                assert p.impact(metric).flighted_mean == s.impact(metric).flighted_mean
                assert p.impact(metric).test.p_value == s.impact(metric).test.p_value


class TestScSelectionCampaignFlight:
    def test_sc_selection_campaign_flights_the_winner(self):
        spec = TenantSpec(
            name="sc", fleet_spec=small_application_fleet_spec(), seed=7
        )
        app = ScSelectionApplication(sku="Gen 1.1", n_racks=2, days=0.25)
        campaign = Campaign(
            spec,
            DEFAULT_CATALOG.get("diurnal-baseline"),
            application=app,
            observe_days=0.25,
            flight_hours=6.0,
        )
        while not campaign.done:
            campaign.advance(execute_request(campaign.pending_request()))
        report = campaign.report()
        assert report.final_phase is CampaignPhase.CONVERGED
        phases = [e.phase for e in report.history]
        assert CampaignPhase.FLIGHT in phases
        assert report.flight_validations
        validation = report.flight_validations[0]
        assert validation.reports and validation.gate is not None
        flight_report = validation.reports[0]
        assert "SC2" in flight_report.flight_name
        assert flight_report.impact("BytesPerSecond")  # app's direct metric
        # The recommendation (not a config) is what ships.
        assert any("winner" in e.detail for e in report.history)


class TestSkuDesignThroughThePool:
    def test_resource_samples_served_through_pool_and_cache(self):
        registry = FleetRegistry()
        registry.add(
            TenantSpec(
                name="sku",
                fleet_spec=small_application_fleet_spec(),
                seed=9,
                application="sku-design",
            )
        )
        with ContinuousTuningService(
            registry, backend=ProcessPoolBackend(max_workers=1)
        ) as service:
            first = service.run_campaigns(
                scenario="diurnal-baseline", observe_days=0.5
            )
            rerun = service.run_campaigns(
                scenario="diurnal-baseline", observe_days=0.5
            )
        report = first.reports["sku"]
        assert report.final_phase is CampaignPhase.CONVERGED
        assert any("sweet spot" in e.detail for e in report.history)
        # The repeated window is a cache hit: the samples were memoized with
        # the outcome, nothing re-simulates.
        assert rerun.simulations_executed == 0
        assert rerun.cache_stats.hits >= 1 and rerun.cache_stats.misses == 0
        assert [e.detail for e in rerun.reports["sku"].history] == [
            e.detail for e in report.history
        ]

    def test_campaign_never_materializes_the_host_environment(self):
        """The re-observe side channel is gone: sku-design proposes from the
        pooled window's samples without ever building its tenant's Kea."""
        spec = TenantSpec(
            name="sku", fleet_spec=small_application_fleet_spec(), seed=9
        )
        campaign = Campaign(
            spec,
            DEFAULT_CATALOG.get("diurnal-baseline"),
            application="sku-design",
            observe_days=0.5,
        )
        while not campaign.done:
            campaign.advance(execute_request(campaign.pending_request()))
        assert campaign.application._host is None

    def test_observe_request_carries_the_application_spec(self):
        spec = TenantSpec(
            name="sku", fleet_spec=small_application_fleet_spec(), seed=9
        )
        campaign = Campaign(
            spec, DEFAULT_CATALOG.get("diurnal-baseline"), application="sku-design"
        )
        request = campaign.pending_request()
        assert request.kind == "observe"
        assert request.observation.resource_sample_period_s > 0
        assert request.observation.resource_sample_machines > 0


# ----------------------------------------------------------------------
# Bounded LRU cache
# ----------------------------------------------------------------------
class TestCacheEviction:
    def _request(self, tag):
        return SimulationRequest(
            tenant="probe",
            kind="observe",
            spec=TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5),
            scenario=DEFAULT_CATALOG.get("diurnal-baseline"),
            config=default_yarn_config(),
            workload_tag=tag,
        )

    def _outcome(self, tag):
        return SimulationOutcome(tenant="probe", kind="observe", workload_tag=tag)

    def _cost(self, tag):
        return len(pickle.dumps(self._outcome(tag), protocol=pickle.HIGHEST_PROTOCOL))

    def test_eviction_drops_least_recently_used(self):
        cache = SimulationCache(max_bytes=2 * self._cost("a"))
        a, b, c = (self._request(t) for t in ("a", "b", "c"))
        cache.store(a, self._outcome("a"))
        cache.store(b, self._outcome("b"))
        assert cache.lookup(a) is not None  # refresh a: b is now LRU
        cache.store(c, self._outcome("c"))
        assert len(cache) == 2
        assert cache.lookup(b) is None  # evicted
        assert cache.lookup(a) is not None
        assert cache.lookup(c) is not None
        stats = cache.stats
        assert stats.evictions == 1
        assert stats.size == 2
        assert cache.nbytes == self._cost("a") + self._cost("c")

    def test_restore_of_existing_key_does_not_evict(self):
        cache = SimulationCache(max_bytes=2 * self._cost("a"))
        a, b = self._request("a"), self._request("b")
        cache.store(a, self._outcome("a"))
        cache.store(b, self._outcome("b"))
        cache.store(a, self._outcome("a"))  # overwrite, not a third entry
        assert len(cache) == 2
        assert cache.stats.evictions == 0
        assert cache.nbytes == self._cost("a") + self._cost("b")

    def test_oversized_entry_is_held_alone(self):
        cache = SimulationCache(max_bytes=2 * self._cost("a"))
        cache.store(self._request("a"), self._outcome("a"))
        big = "b" * 4 * self._cost("a")
        cache.store(self._request(big), self._outcome(big))
        assert len(cache) == 1
        assert cache.lookup(self._request(big)) is not None
        assert cache.nbytes == self._cost(big) > cache.max_bytes
        assert cache.stats.evictions == 1

    def test_invalid_bound_rejected(self):
        with pytest.raises(ServiceError):
            SimulationCache(max_bytes=0)

    def test_clear_resets_eviction_counter(self):
        cache = SimulationCache(max_bytes=self._cost("a"))
        cache.store(self._request("a"), self._outcome("a"))
        cache.store(self._request("b"), self._outcome("b"))
        assert cache.stats.evictions == 1
        cache.clear()
        assert cache.stats == type(cache.stats)(hits=0, misses=0, size=0, evictions=0)
        assert cache.nbytes == 0

    def test_concurrent_stores_keep_the_byte_total_exact(self):
        """Eight threads look up and store the same keys, of unequal cost, in
        step on one cache that must keep evicting: the byte total still
        equals the sum of the held entries' costs and fits the bound."""
        tags = [f"t{i}/" + "x" * (40 * i) for i in range(12)]
        requests = {tag: self._request(tag) for tag in tags}
        outcomes = {tag: self._outcome(tag) for tag in tags}
        cache = SimulationCache(max_bytes=4 * self._cost(tags[-1]))

        def churn() -> None:
            for step in range(500):
                tag = tags[step % len(tags)]
                cache.lookup(requests[tag])
                cache.store(requests[tag], outcomes[tag])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(switch)
        assert cache.stats.evictions > 0
        held = [tag for tag in tags if cache.lookup(requests[tag]) is not None]
        assert len(held) == len(cache)
        assert cache.nbytes == sum(self._cost(tag) for tag in held)
        assert cache.nbytes <= cache.max_bytes
