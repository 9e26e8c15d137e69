"""Tests for builds, flights, the flighting tool, and safety gates."""

import pytest

from repro.cluster import build_cluster, small_fleet_spec
from repro.cluster.software import SC1, SC2
from repro.flighting import (
    FeatureBuild,
    Flight,
    LatencyRegressionGate,
    PowerCapBuild,
    SoftwareBuild,
    YarnLimitsBuild,
)
from repro.utils.errors import ConfigurationError


@pytest.fixture()
def cluster():
    return build_cluster(small_fleet_spec())


class TestBuilds:
    def test_yarn_limits_apply_and_revert(self, cluster):
        machines = cluster.machines[:5]
        original = [m.max_running_containers for m in machines]
        build = YarnLimitsBuild(max_running_containers=3)
        build.apply(cluster, machines)
        assert all(m.max_running_containers == 3 for m in machines)
        build.revert(cluster, machines)
        assert [m.max_running_containers for m in machines] == original

    def test_yarn_limits_scoped_to_selection(self, cluster):
        build = YarnLimitsBuild(max_running_containers=3)
        build.apply(cluster, cluster.machines[:2])
        untouched = cluster.machines[2]
        assert untouched.max_running_containers != 3 or (
            untouched.max_running_containers
            == cluster.yarn_config.for_group(untouched.group_key).max_running_containers
        )

    def test_software_build_flips_and_restores(self, cluster):
        sc1_machines = [m for m in cluster.machines if m.software is SC1][:4]
        build = SoftwareBuild(software_name="SC2")
        build.apply(cluster, sc1_machines)
        assert all(m.software is SC2 for m in sc1_machines)
        build.revert(cluster, sc1_machines)
        assert all(m.software is SC1 for m in sc1_machines)

    def test_software_build_validates_name(self):
        with pytest.raises(ValueError):
            SoftwareBuild(software_name="SC3")

    def test_power_cap_build_is_chassis_wide(self, cluster):
        target = cluster.machines[0]
        build = PowerCapBuild(capping_level=0.2)
        build.apply(cluster, [target])
        chassis_peers = [m for m in cluster.machines if m.chassis == target.chassis]
        assert all(m.cap_watts is not None for m in chassis_peers)
        build.revert(cluster, [target])
        assert all(m.cap_watts is None for m in chassis_peers)

    def test_feature_build_ignores_incapable_skus(self, cluster):
        gen11 = [m for m in cluster.machines if m.sku.name == "Gen 1.1"][:3]
        build = FeatureBuild(enabled=True)
        build.apply(cluster, gen11)
        assert all(not m.feature_enabled for m in gen11)

    def test_feature_build_toggles_capable(self, cluster):
        gen41 = [m for m in cluster.machines if m.sku.name == "Gen 4.1"][:3]
        build = FeatureBuild(enabled=True)
        build.apply(cluster, gen41)
        assert all(m.feature_enabled for m in gen41)
        build.revert(cluster, gen41)
        assert all(not m.feature_enabled for m in gen41)


class TestFlight:
    def test_validation(self, cluster):
        build = YarnLimitsBuild(max_running_containers=5)
        with pytest.raises(ConfigurationError):
            Flight(name="empty", build=build, machines=[], start_hour=0.0)
        with pytest.raises(ConfigurationError):
            Flight(name="backwards", build=build,
                   machines=cluster.machines[:2], start_hour=5.0, end_hour=4.0)

    def test_machine_ids(self, cluster):
        flight = Flight(
            name="f", build=YarnLimitsBuild(max_running_containers=5),
            machines=cluster.machines[:3], start_hour=0.0, end_hour=2.0,
        )
        assert flight.machine_ids == {0, 1, 2}

    def test_queued_work_starts_when_a_flight_raises_limits(self):
        """Applying a flight starts the flighted machines' queued tasks at once."""
        from repro.cluster import ClusterSimulator
        from repro.cluster.config import GroupLimits, YarnConfig
        from repro.utils.rng import RngStreams
        from repro.workload import WorkloadGenerator, default_templates

        config = YarnConfig(default_limits=GroupLimits(max_running_containers=2))
        cluster = build_cluster(small_fleet_spec(), config)
        workload = WorkloadGenerator(
            default_templates(), jobs_per_hour=400.0, streams=RngStreams(5)
        ).generate(2.0)
        simulator = ClusterSimulator(cluster, workload, streams=RngStreams(6))
        machines = cluster.machines[:12]
        Flight(
            name="wider", build=YarnLimitsBuild(max_running_containers=6),
            machines=machines, start_hour=1.0,
        ).schedule_on(simulator)
        seen = {}

        def probe(sim):  # registered after the flight: runs right after it
            seen["idle_slots_with_queue"] = sum(
                1 for m in machines if m.queue and m.has_free_slot
            )
            seen["running"] = sum(m.n_running for m in machines)

        simulator.schedule_action(3600.0, probe)
        simulator.run(1.5)
        assert seen["running"] > 2 * len(machines)
        assert seen["idle_slots_with_queue"] == 0


class TestSafetyGate:
    def test_gate_passes_without_history(self, cluster):
        from repro.cluster import ClusterSimulator
        from repro.utils.rng import RngStreams
        from repro.workload import Workload

        simulator = ClusterSimulator(cluster, Workload(), streams=RngStreams(0))
        gate = LatencyRegressionGate(window_hours=2)
        verdict = gate.evaluate(simulator)
        assert verdict.passed

    def test_gate_parameters_validated(self):
        with pytest.raises(ValueError):
            LatencyRegressionGate(window_hours=0)
        with pytest.raises(ValueError):
            LatencyRegressionGate(allowance=-0.1)
