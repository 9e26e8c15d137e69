"""Golden digests for simulator branches the perf benchmark never reaches.

Each scenario runs one small, fully seeded simulation and hashes everything
it produced: the machine-hour frame's column bytes, the job records, the
task log, the resource samples and the :class:`SimulationResult` counters.
The stored digests in ``tests/golden/simulator.json`` pin those outputs bit
for bit, so a refactor of the event loop, the machine model or the scheduler
that changes any output — however slightly — fails here.

The scenarios cover a mid-run power cap with the processor Feature (the
throttle path and the per-machine constant refresh), a mid-run SC1 → SC2
re-image (the I/O capacity refresh), queue overload with the RM-pending
FIFO and the scheduler's fallback draw, the ``straggler-tail`` and
``az-outage`` fault scenarios (crash/requeue with carried queue waits), and
an :class:`ObservationSpec` run with a dense task log and resource samples.

A deliberate behaviour change re-baselines the file, from the repo root::

    PYTHONPATH=src python -m tests.test_golden --write
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import pstats
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    build_cluster,
    small_application_fleet_spec,
    small_fleet_spec,
)
from repro.cluster.config import GroupLimits, YarnConfig
from repro.cluster.simulator import ObservationSpec
from repro.cluster.software import SC2
from repro.faults import FaultInjector
from repro.obs import Tracer, activate
from repro.service.scenarios import default_catalog
from repro.utils.rng import RngStreams
from repro.workload import WorkloadGenerator, default_templates

GOLDEN_PATH = Path(__file__).parent / "golden" / "simulator.json"

#: Frame columns the digest covers, named explicitly so that a column added
#: later does not silently change every stored digest.
NUMERIC_COLUMNS = (
    "machine_id", "rack", "row", "subcluster", "hour", "tasks_finished",
    "max_running_containers", "queue_enqueued", "queue_dequeued",
    "cpu_utilization", "avg_running_containers", "total_data_read_bytes",
    "total_cpu_seconds", "total_task_seconds", "avg_cores_in_use",
    "avg_ram_gb_in_use", "avg_ssd_gb_in_use", "avg_power_watts",
    "power_cap_watts", "queue_avg_length", "available_fraction",
    "feature_enabled", "faulted",
)
CATEGORICAL_COLUMNS = ("machine_name", "sku", "software")

COUNTERS = (
    "jobs_submitted",
    "jobs_completed",
    "tasks_started",
    "tasks_queued",
    "tasks_deferred",
    "machines_crashed",
    "machines_recovered",
    "tasks_requeued",
    "duration_hours",
)


# ----------------------------------------------------------------------
# Canonical digest
# ----------------------------------------------------------------------
def _feed(update, value) -> None:
    if value is None:
        update(b"N")
    elif isinstance(value, bool):
        update(b"T" if value else b"F")
    elif isinstance(value, int):
        update(b"i%d;" % value)
    elif isinstance(value, float):
        update(b"f" + struct.pack("<d", value))
    elif isinstance(value, str):
        encoded = value.encode()
        update(b"s%d:" % len(encoded) + encoded)
    elif isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        update(f"a{array.dtype.str}{array.shape}:".encode())
        update(array.tobytes())
    elif isinstance(value, (list, tuple)):
        update(b"[%d" % len(value))
        for item in value:
            _feed(update, item)
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def result_digest(result) -> str:
    """sha256 over every output of one run, floats by their IEEE-754 bytes."""
    digest = hashlib.sha256()
    update = digest.update
    frame = result.frame
    _feed(update, len(frame))
    for name in NUMERIC_COLUMNS:
        _feed(update, [name, frame.column(name)])
    for name in CATEGORICAL_COLUMNS:
        _feed(update, [name, frame.codes(name), list(frame.categories(name))])
    _feed(update, [frame.wait_offsets(), frame.waits_flat()])
    _feed(update, [
        [j.job_id, j.template, j.submit_time, j.finish_time, j.n_tasks,
         j.total_task_seconds, j.is_benchmark]
        for j in result.jobs
    ])
    log = result.task_log
    _feed(update, [
        log.sample_rate, log.sku, log.software, log.rack, log.op, log.duration,
        log.data_bytes, log.cpu_seconds, log.start, log.queue_wait,
        log.critical, log.job_template,
    ])
    _feed(update, [
        [s.machine_id, s.sku, s.software, s.time, s.cores_in_use,
         s.ram_gb_in_use, s.ssd_gb_in_use]
        for s in result.resource_samples
    ])
    _feed(update, [[name, getattr(result, name)] for name in COUNTERS])
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Scenarios: each returns a ready-to-run simulator plus its horizon (hours)
# ----------------------------------------------------------------------
def _simulator(spec, hours, jobs_per_hour, seed, config=None, sim_config=None):
    cluster = build_cluster(spec, config)
    workload = WorkloadGenerator(
        default_templates(), jobs_per_hour=jobs_per_hour, streams=RngStreams(seed)
    ).generate(hours)
    simulator = ClusterSimulator(
        cluster, workload, streams=RngStreams(seed + 1), config=sim_config
    )
    return simulator


def power_cap_feature():
    """Cap half the chassis 30% below provision with the Feature on at hour
    1, then lift the caps on Gen 4.1 and the Feature fleet-wide at hour 2."""
    simulator = _simulator(small_application_fleet_spec(), 3.0, 260.0, seed=21)

    def cap(sim):
        half = sim.cluster.machines[::2]
        sim.cluster.apply_power_cap(0.30, machines=half)
        sim.cluster.set_feature(True)

    def lift(sim):
        gen4 = [m for m in sim.cluster.machines if m.sku.name == "Gen 4.1"]
        sim.cluster.clear_power_caps(gen4)
        sim.cluster.set_feature(False)

    simulator.schedule_action(3600.0, cap)
    simulator.schedule_action(7200.0, lift)
    return simulator, 3.0


def sc_migration():
    """Re-image every SC1 machine to SC2 at hour 1.5 (I/O capacity refresh)."""
    simulator = _simulator(small_fleet_spec(), 3.0, 220.0, seed=31)

    def migrate(sim):
        sc1 = [m for m in sim.cluster.machines if m.software.name == "SC1"]
        sim.cluster.set_software(SC2, sc1)

    simulator.schedule_action(5400.0, migrate)
    return simulator, 3.0


def queue_overload():
    """Every queue saturated: the RM-pending FIFO and the queue-space fallback."""
    config = YarnConfig(
        default_limits=GroupLimits(max_running_containers=2, max_queued_containers=2)
    )
    simulator = _simulator(
        small_fleet_spec(), 1.0, 300.0, seed=41, config=config
    )
    return simulator, 1.0


def _scenario_faults(name: str, hours: float, jobs_per_hour: float, seed: int,
                     config=None):
    simulator = _simulator(small_fleet_spec(), hours, jobs_per_hour, seed,
                           config=config)
    FaultInjector(default_catalog().get(name).fault_plan).schedule_on(simulator)
    return simulator, hours


def straggler_tail():
    return _scenario_faults("straggler-tail", 6.0, 180.0, seed=51)


def az_outage():
    """Long queues when sub-cluster 0 dies: queued tasks carry their waits."""
    config = YarnConfig(
        default_limits=GroupLimits(max_running_containers=4, max_queued_containers=1000)
    )
    return _scenario_faults("az-outage", 10.0, 80.0, seed=61, config=config)


def observation_dense():
    spec = ObservationSpec(
        task_log_sample_rate=1.0,
        resource_sample_period_s=300.0,
        resource_sample_machines=10,
    )
    simulator = _simulator(small_fleet_spec(), 3.0, 200.0, seed=71,
                           sim_config=spec.to_sim_config())
    return simulator, 3.0


SCENARIOS = {
    "power-cap-feature": power_cap_feature,
    "sc-migration": sc_migration,
    "queue-overload": queue_overload,
    "straggler-tail": straggler_tail,
    "az-outage": az_outage,
    "observation-dense": observation_dense,
}


def run_scenario(name: str):
    simulator, hours = SCENARIOS[name]()
    return simulator, simulator.run(hours)


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_every_scenario_has_a_golden_digest(golden):
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulator_output_matches_golden_digest(name, golden):
    _, result = run_scenario(name)
    assert result_digest(result) == golden[name]


def test_traced_run_matches_golden_digest(golden):
    """Profiling a run (a recording tracer is active) changes no output."""
    with activate(Tracer()):
        _, result = run_scenario("az-outage")
    assert result.profile.events > 0
    assert result_digest(result) == golden["az-outage"]


class TestScenariosReachTheirBranches:
    """Guard the fixtures: each scenario must exercise what it claims to."""

    def test_power_cap_binds_and_lifts(self):
        _, result = run_scenario("power-cap-feature")
        capped = result.frame.column("power_cap_watts")
        power = result.frame.column("avg_power_watts")
        hours = result.frame.column("hour")
        assert np.isnan(capped[hours == 0]).all()
        bound = ~np.isnan(capped)
        assert bound.any()
        assert np.isclose(power[bound], capped[bound]).any()
        assert result.frame.column("feature_enabled")[hours == 1].any()
        assert not result.frame.column("feature_enabled")[hours == 2].any()

    def test_migration_moves_every_machine_to_sc2(self):
        simulator, result = run_scenario("sc-migration")
        assert all(m.software.name == "SC2" for m in simulator.cluster.machines)
        software = result.frame.labels("software")
        hours = result.frame.column("hour")
        assert (software[hours == 0] == "SC1").any()
        assert (software[hours == 2] == "SC2").all()

    def test_overload_defers_and_uses_the_fallback_draw(self):
        simulator, hours = SCENARIOS["queue-overload"]()
        # The queue-space fallback draws from its own stream; any draw moves it.
        before = simulator.scheduler._fallback_rng.getstate()
        result = simulator.run(hours)
        assert result.tasks_deferred > 0
        assert result.tasks_queued > 0
        assert simulator.scheduler._fallback_rng.getstate() != before

    def test_outage_requeues_queued_and_running_work(self):
        _, result = run_scenario("az-outage")
        assert result.machines_crashed > 0
        assert 0 < result.machines_recovered <= result.machines_crashed
        assert result.tasks_requeued > 0
        assert result.tasks_queued > 0

    def test_stragglers_slow_the_victims(self):
        simulator, _ = run_scenario("straggler-tail")
        slowed = [m for m in simulator.cluster.machines if m.slowdown == 2.5]
        assert slowed and all(m.sku.name == "Gen 1.1" for m in slowed)

    def test_observation_run_logs_every_task(self):
        _, result = run_scenario("observation-dense")
        assert len(result.task_log) == result.tasks_started
        assert len(result.resource_samples) > 0


class TestProfiledSaturatedWindows:
    """A profiled window that queues or defers stays off the per-task clock.

    Every pool window is profiled. The placements ``capacity_changed`` makes
    when a slot frees are one task each; they are counted in
    ``profile.placements`` but not timed. Timing them read ``perf_counter``
    4.46 times per started task on ``queue-overload`` and 1.83 on
    ``az-outage``; the counts below are the ones recorded while they were.
    """

    @pytest.mark.parametrize(
        "name, bound, events, placements",
        [("queue-overload", 1.0, 1140, 990), ("az-outage", 0.5, 14304, 16883)],
    )
    def test_clock_reads_per_started_task(self, name, bound, events, placements, golden):
        simulator, hours = SCENARIOS[name]()
        profiler = cProfile.Profile()
        with activate(Tracer()):
            profiler.enable()
            try:
                result = simulator.run(hours)
            finally:
                profiler.disable()
        clock_calls = sum(
            calls
            for (_file, _line, func), (_prim, calls, *_rest) in pstats.Stats(profiler).stats.items()
            if "perf_counter" in func
        )
        assert 0 < clock_calls / result.tasks_started <= bound
        assert (result.profile.events, result.profile.placements) == (events, placements)
        assert result_digest(result) == golden[name]


def _write() -> None:
    digests = {}
    for name in sorted(SCENARIOS):
        _, result = run_scenario(name)
        digests[name] = result_digest(result)
        print(f"{name}: {digests[name]}")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python -m tests.test_golden --write")
    _write()

