"""Two-window requests: a paired request runs as two independent windows.

A ``rollout``, ``resume`` or ``impact`` request simulates a baseline window
and a treatment window. The process-pool backend runs them as two pool
tasks, the queue backend as two spooled tasks drained by two workers, and
the shared batch loop assembles the request's outcome once both return.
These tests pin what that must preserve:

* on either backend, the outcome is the one the inline (``max_workers=1``)
  run produces — the same impact, waves and checkpoint, the same pickled
  size, and the same span tree — while the two windows overlap in time;
* failures stay per request: an invalid plan fails before any window is
  dispatched, a raising window fails only its own request (its sibling
  window's result is dropped), and the rest of the batch still returns
  under the :class:`~repro.service.pool.SimulationBatchError` contract;
* the ops metrics a window records in its worker reach the orchestrator,
  from a pool worker and a queue worker alike.
"""

import pickle
from collections import Counter

import pytest

from repro.cluster import small_fleet_spec
from repro.cluster.config import YarnConfig
from repro.flighting.build import FlightPlan
from repro.flighting.deployment import RolloutPolicy
from repro.flighting.safety import GateVerdict, SafetyGate
from repro.obs.metrics import OPS_METRICS, MetricsRegistry, capture
from repro.service import (
    LocalQueueBackend,
    ProcessPoolBackend,
    SimulationBatchError,
    SimulationRequest,
    TenantSpec,
    default_catalog,
)
from repro.utils.errors import ConfigurationError

SPEC = TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5)
DAYS = 0.25
#: The (baseline, treatment) window span names per paired kind.
WINDOW_SPANS = {
    "rollout": ("window.baseline", "window.rollout"),
    "resume": ("window.baseline", "window.rollout"),
    "impact": ("window.before", "window.after"),
}
DEPLOY_METRICS = ("deploy.apply_seconds", "deploy.gate_seconds", "deploy.soak_hours")


class HaltAtFirstGate(SafetyGate):
    def evaluate(self, simulator) -> GateVerdict:
        return GateVerdict(passed=False, reason="rigged halt")


def _flight_plan() -> FlightPlan:
    group = sorted(SPEC.build().current_config.limits)[0]
    return FlightPlan.from_container_deltas({group: 1})


def _request(kind: str, tag: str, days: float = DAYS, **fields) -> SimulationRequest:
    return SimulationRequest(
        tenant="probe",
        kind=kind,
        spec=SPEC,
        scenario=default_catalog().get("diurnal-baseline"),
        config=SPEC.build().current_config.copy(),
        workload_tag=tag,
        days=days,
        **fields,
    )


def _paired_requests() -> dict[str, SimulationRequest]:
    kea = SPEC.build()
    flight_plan = _flight_plan()
    halted = kea.staged_rollout(
        flight_plan, days=DAYS, workload_tag="paired/halt", gate=HaltAtFirstGate()
    )
    checkpoint = halted.checkpoint
    assert checkpoint is not None
    group = sorted(kea.current_config.limits)[0]
    return {
        "rollout": _request(
            "rollout", "paired/rollout", rollout=RolloutPolicy().plan(flight_plan)
        ),
        "resume": _request(
            "resume",
            "paired/resume",
            rollout=RolloutPolicy(
                resume_from_wave=checkpoint.halted_before_wave, gate_allowance=10.0
            ).plan(flight_plan),
            checkpoint=checkpoint,
        ),
        "impact": _request(
            "impact",
            "paired/impact",
            proposed=kea.current_config.with_container_delta({group: 1}),
        ),
    }


def _observe(tag: str, days: float = 1.0 / 24.0) -> SimulationRequest:
    return _request("observe", tag, days=days)


def _deploy_counts() -> dict[str, int]:
    counts = {}
    for name in DEPLOY_METRICS:
        metric = OPS_METRICS.get(name)
        counts[name] = metric.count if metric is not None else 0
    return counts


@pytest.fixture(scope="module")
def pool():
    """A 2-worker pool whose workers are already started and warm."""
    with ProcessPoolBackend(max_workers=2) as backend:
        backend.run([_observe("paired/warm-0"), _observe("paired/warm-1")])
        yield backend


@pytest.fixture(scope="module")
def queue(tmp_path_factory):
    """A 2-worker spool queue (it starts its drain workers per batch)."""
    with LocalQueueBackend(tmp_path_factory.mktemp("spool"), workers=2) as backend:
        yield backend


@pytest.fixture(scope="module")
def paired():
    return _paired_requests()


@pytest.fixture(scope="module")
def runs(pool, queue, paired):
    """Per (backend, paired kind): (inline outcome, that backend's outcome,
    (inline deploy.* deltas, that backend's deploy.* deltas))."""
    results = {}
    with ProcessPoolBackend(max_workers=1) as inline:
        for kind, request in paired.items():
            before = _deploy_counts()
            (serial,) = inline.run([request])
            after = _deploy_counts()
            serial_deltas = {k: after[k] - before[k] for k in before}
            for name, backend in (("pool", pool), ("queue", queue)):
                before = _deploy_counts()
                (parallel,) = backend.run([request])
                after = _deploy_counts()
                deltas = {k: after[k] - before[k] for k in before}
                results[name, kind] = (serial, parallel, (serial_deltas, deltas))
    return results


def _tree(outcome) -> Counter:
    names = {span.span_id: span.name for span in outcome.timing.trace}
    return Counter(
        (span.name, names.get(span.parent_id), span.attributes)
        for span in outcome.timing.trace
    )


#: Every paired kind on both parallel backends; the pool legs keep their
#: bare kind ids.
BACKEND_KINDS = [
    pytest.param(backend, kind, id=kind if backend == "pool" else f"{backend}-{kind}")
    for backend in ("pool", "queue")
    for kind in ("rollout", "resume", "impact")
]


@pytest.mark.parametrize(("backend", "kind"), BACKEND_KINDS)
class TestInlineAndPooledWindowsAgree:
    def test_same_impact_waves_and_checkpoint(self, runs, backend, kind):
        serial, parallel, _deltas = runs[backend, kind]
        assert repr(parallel.impact) == repr(serial.impact)
        assert parallel.rollout_waves == serial.rollout_waves
        assert parallel.rollout_checkpoint == serial.rollout_checkpoint
        if kind != "impact":
            assert parallel.rollout_waves

    def test_same_pickled_size(self, runs, backend, kind):
        serial, parallel, _deltas = runs[backend, kind]
        assert len(pickle.dumps(parallel)) == len(pickle.dumps(serial))

    def test_same_span_tree(self, runs, backend, kind):
        serial, parallel, _deltas = runs[backend, kind]
        ids = {span.span_id for span in serial.timing.trace}
        assert ids == {f"s{n}" for n in range(1, len(ids) + 1)}
        assert {span.span_id for span in parallel.timing.trace} == ids
        assert _tree(parallel) == _tree(serial)
        root = [span for span in serial.timing.trace if span.parent_id is None]
        assert [span.name for span in root] == [f"request.{kind}"]

    def test_windows_overlap_on_the_pool(self, runs, backend, kind):
        _serial, parallel, _deltas = runs[backend, kind]
        spans = {span.name: span for span in parallel.timing.trace}
        baseline, treatment = (spans[name] for name in WINDOW_SPANS[kind])
        assert baseline.start < treatment.end and treatment.start < baseline.end
        request = spans[f"request.{kind}"]
        assert request.start <= min(baseline.start, treatment.start)
        assert request.end >= max(baseline.end, treatment.end)

    def test_worker_deploy_metrics_reach_the_orchestrator(self, runs, backend, kind):
        _serial, _parallel, (serial_deltas, deltas) = runs[backend, kind]
        assert deltas == serial_deltas
        if kind != "impact":
            assert serial_deltas["deploy.apply_seconds"] > 0


def test_a_duplicated_request_on_the_queue_records_its_metrics_once(runs, queue, paired):
    """Duplicates within a batch spool (and run) each window once, so the
    orchestrator records that work once."""
    serial_deltas = runs["queue", "rollout"][2][0]
    before = _deploy_counts()
    first, second = queue.run([paired["rollout"], paired["rollout"]])
    after = _deploy_counts()
    assert {k: after[k] - before[k] for k in before} == serial_deltas
    assert first.rollout_waves == second.rollout_waves


class TestWindowFailures:
    def test_invalid_plan_fails_before_any_window_is_dispatched(self, pool):
        invalid = _request(
            "rollout",
            "paired/invalid",
            rollout=RolloutPolicy(resume_from_wave=1).plan(_flight_plan()),
        )
        siblings = [_observe("paired/sibling-0"), _observe("paired/sibling-1")]
        submitted = []
        executor = pool._executor
        real_submit = executor.submit

        def spy(fn, request, index):
            submitted.append((request.workload_tag, index))
            return real_submit(fn, request, index)

        executor.submit = spy
        try:
            with pytest.raises(SimulationBatchError) as excinfo:
                pool.run([siblings[0], invalid, siblings[1]])
        finally:
            del executor.submit
        error = excinfo.value
        assert submitted == [("paired/sibling-0", 0), ("paired/sibling-1", 0)]
        assert [o is None for o in error.outcomes] == [False, True, False]
        ((request, exc),) = error.failures
        assert request is invalid
        assert isinstance(exc, ConfigurationError)
        assert "no rollout checkpoint" in str(exc)

    def test_a_raising_window_fails_only_its_own_request(self, pool):
        # The treatment window materializes the proposed config, which has
        # no default limits; the baseline window runs the current config.
        poisoned = _request(
            "impact", "paired/poison", proposed=YarnConfig(default_limits=None)
        )
        rollout = _paired_requests()["rollout"]
        observe = _observe("paired/poison-sibling")
        with pytest.raises(SimulationBatchError, match="kind='impact'") as excinfo:
            pool.run([observe, poisoned, rollout])
        error = excinfo.value
        assert [o is None for o in error.outcomes] == [False, True, False]
        assert [request for request, _exc in error.failures] == [poisoned]
        assert isinstance(error.failures[0][1], AttributeError)
        with ProcessPoolBackend(max_workers=1) as inline:
            reference = inline.run([observe, rollout])
        got_observe, _none, got_rollout = error.outcomes
        assert got_observe.frame == reference[0].frame
        assert got_rollout.rollout_waves == reference[1].rollout_waves
        assert repr(got_rollout.impact) == repr(reference[1].impact)


class TestMetricsCapture:
    def test_capture_keeps_updates_out_until_merged(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(2)
        with capture() as window:
            registry.counter("requests").inc(3)
            registry.histogram("wave", kind="apply").observe(4.0)
            registry.histogram("wave", kind="apply").observe(1.0)
            registry.gauge("depth").set(7)
        assert registry.counter("requests").value == 2
        assert registry.get("wave", kind="apply") is None
        shipped = pickle.loads(pickle.dumps(window))
        registry.histogram("wave", kind="apply").observe(9.0)
        registry.merge(shipped)
        assert registry.counter("requests").value == 5
        wave = registry.histogram("wave", kind="apply")
        assert (wave.count, wave.total, wave.min, wave.max) == (3, 14.0, 1.0, 9.0)
        assert registry.gauge("depth").value == 7
