"""Integration tests for the Kea facade and the three tuning modes.

These run real (small) simulations; they are the slowest tests in the suite
and act as the end-to-end guarantee that the Figure 7 loop holds together.
"""

import numpy as np
import pytest

from repro.cluster import SimulationConfig, small_fleet_spec
from repro.core import (
    ExperimentalTuning,
    HypotheticalTuning,
    Kea,
    ObservationalTuning,
    conceptualize,
)


@pytest.fixture(scope="module")
def kea():
    return Kea(fleet_spec=small_fleet_spec(), seed=77)


@pytest.fixture(scope="module")
def observation(kea):
    return kea.observe(
        days=1.0,
        sim_config=SimulationConfig(task_log_sample_rate=1.0),
        benchmark_period_hours=6.0,
    )


class TestObserve:
    def test_observation_shape(self, kea, observation):
        assert observation.days == 1.0
        assert len(observation.monitor) == len(observation.cluster.machines) * 24
        assert observation.result.jobs_completed > 0

    def test_overall_utilization_in_target_band(self, observation):
        """The default load calibration should land near Cosmos-like levels."""
        utilization = observation.monitor.metric("CpuUtilization").mean()
        assert 0.4 < utilization < 0.9

    def test_old_generations_more_utilized(self, observation):
        """Figure 2's signature emerges from the default config."""
        by_group = observation.monitor.by_group()
        old = by_group["SC1_Gen 1.1"].metric("CpuUtilization").mean()
        new = by_group["SC2_Gen 4.1"].metric("CpuUtilization").mean()
        assert old > new

    def test_conceptualization_validates_on_real_telemetry(self, observation):
        report = conceptualize(observation.result.jobs, observation.result.task_log)
        assert report.outcomes[1].passed  # critical-path bias (Level III)
        assert report.outcomes[3].passed  # SKU uniformity (Level V)


class TestObservationalLoop:
    def test_tuning_proposes_slow_to_fast_shift(self, kea, observation):
        engine = kea.calibrate(observation.monitor)
        tuning = kea.tune("yarn-config", observation=observation, engine=engine).details
        assert tuning.suggested_shift["SC1_Gen 1.1"] < 0
        assert tuning.suggested_shift["SC2_Gen 4.1"] > 0
        assert tuning.capacity_gain > 0

    def test_flight_validation_moves_direct_metric(self, kea, observation):
        """The paper's pilot flights: the config change must move the
        directly impacted metric (running containers) on flighted machines."""
        engine = kea.calibrate(observation.monitor)
        tuning = kea.tune("yarn-config", observation=observation, engine=engine).details
        reports = kea.flight_validate(tuning, hours=8.0)
        assert reports
        directions = {}
        for report in reports:
            impact = report.impact("AverageRunningContainers")
            label = report.flight_name  # pilot-<group>-<delta>
            raised = label.endswith("+1") or label.endswith("+2")
            directions[label] = (impact.relative_change, raised)
        for label, (change, raised) in directions.items():
            if raised:
                assert change > 0, label
            else:
                assert change < 0, label

    def test_deployment_impact_shape(self, kea, observation):
        """§5.2.2 shape: throughput up, latency not worse, capacity up."""
        engine = kea.calibrate(observation.monitor)
        tuning = kea.tune(
            "yarn-config", observation=observation, engine=engine,
            max_config_step=2, delta_range=6.0,
        ).details
        impact = kea.deployment_impact(tuning.proposed_config, days=1.0)
        assert impact.capacity_gain > 0
        assert impact.throughput.relative_effect > 0
        assert impact.latency.relative_effect < 0.02

    def test_adopt_changes_baseline(self):
        fresh = Kea(fleet_spec=small_fleet_spec(), seed=5)
        proposed = fresh.current_config.copy()
        from repro.cluster.config import GroupLimits
        from repro.cluster.software import MachineGroupKey

        key = MachineGroupKey("SC2", "Gen 4.1")
        proposed.set_group(key, GroupLimits(max_running_containers=44))
        fresh.adopt(proposed)
        cluster = fresh.build_cluster()
        gen41 = cluster.machines_by_group()[key]
        assert all(m.max_running_containers == 44 for m in gen41)

    def test_full_campaign_runs(self):
        fresh = Kea(fleet_spec=small_fleet_spec(), seed=31)
        campaign = ObservationalTuning(fresh)
        outcome = campaign.run(observe_days=1.0, flight_hours=6.0,
                               deploy_days=1.0)
        assert outcome.tuning.config_deltas
        assert "capacity" in outcome.summary()


class TestHypotheticalLoop:
    def test_sku_design_produces_interior_sweet_spot(self):
        fresh = Kea(fleet_spec=small_fleet_spec(), seed=19)
        campaign = HypotheticalTuning(fresh)
        outcome = campaign.run_sku_design(
            observe_days=0.5,
            sample_period_s=120.0,
            sample_machines=12,
            ram_candidates_gb=[32.0, 64.0, 128.0, 256.0, 512.0],
            ssd_candidates_gb=[200.0, 600.0, 1200.0, 2400.0, 4800.0],
        )
        assert outcome.design.best_cost < np.inf
        assert outcome.design.best_ram_gb in (64.0, 128.0, 256.0, 512.0)
        assert len(outcome.design.surface_rows()) == 25

    def test_required_modules_documented(self):
        assert "flighting" not in HypotheticalTuning.required_modules
        assert "deployment" not in HypotheticalTuning.required_modules


class TestExperimentalGate:
    def test_justification(self):
        assert ExperimentalTuning.justify("software_configuration")
        assert ExperimentalTuning.justify("power_capping")
        assert not ExperimentalTuning.justify("max_num_running_containers")


class TestBenchmarkImpact:
    def test_benchmark_runtimes_before_after(self, kea, observation):
        engine = kea.calibrate(observation.monitor)
        tuning = kea.tune("yarn-config", observation=observation, engine=engine).details
        results = kea.benchmark_impact(tuning.proposed_config, days=0.5,
                                       benchmark_period_hours=3.0)
        assert results
        for _template, (before, after) in results.items():
            assert before.size > 0 and after.size > 0


class TestWorkloadTagFreshness:
    """Regression: paired evaluations must draw a fresh workload per call.

    ``deployment_impact`` and ``benchmark_impact`` used to build their tag
    from ``_run_counter`` without advancing it, so two consecutive calls
    silently replayed the identical workload.
    """

    def test_consecutive_impact_calls_use_distinct_tags(self, monkeypatch):
        instance = Kea(fleet_spec=small_fleet_spec(), seed=3)
        tags = []
        original = instance.simulate

        def spy(days, **kwargs):
            tags.append(kwargs.get("workload_tag"))
            return original(days, **kwargs)

        monkeypatch.setattr(instance, "simulate", spy)
        config = instance.current_config.copy()
        instance.benchmark_impact(config, days=0.125, benchmark_period_hours=3.0)
        instance.benchmark_impact(config, days=0.125, benchmark_period_hours=3.0)
        instance.deployment_impact(config, days=0.125, benchmark_period_hours=3.0)
        instance.deployment_impact(config, days=0.125, benchmark_period_hours=3.0)
        # Within each evaluation, before/after share one tag (paired design) …
        paired = [tags[i : i + 2] for i in range(0, len(tags), 2)]
        assert all(before == after for before, after in paired)
        # … but across evaluations every tag is a fresh draw.
        distinct = {pair[0] for pair in paired}
        assert len(distinct) == len(paired)

    def test_explicit_workload_tag_is_honored(self):
        instance = Kea(fleet_spec=small_fleet_spec(), seed=3)
        config = instance.current_config.copy()
        first = instance.benchmark_impact(
            config, days=0.125, benchmark_period_hours=3.0, workload_tag="pin"
        )
        second = instance.benchmark_impact(
            config, days=0.125, benchmark_period_hours=3.0, workload_tag="pin"
        )
        for template in first:
            np.testing.assert_allclose(first[template][0], second[template][0])
