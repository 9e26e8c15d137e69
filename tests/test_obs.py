"""Tests for the runtime observability plane (:mod:`repro.obs`).

Covers span tracing (nesting, error capture, JSONL round-trip, cross-process
merge), ops metrics, simulator phase profiling, the cost-of-tuning ledger,
and — most importantly — that observability is out-of-band: a pooled traced
campaign run is bit-identical to a serial traced run, and outcome timings
ride on the outcome without entering cache keys.
"""

import itertools
import pickle
import sys
import threading

import pytest

from repro.cluster import small_fleet_spec
from repro.cluster.cluster import default_yarn_config
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    OPS_METRICS,
    SimulatorProfile,
    SpanRecord,
    Tracer,
    activate,
    attach_profile_spans,
    current_tracer,
    read_trace_jsonl,
    span,
)
from repro.obs.ledger import TuningCostLedger
from repro.service import (
    DEFAULT_CATALOG,
    ContinuousTuningService,
    FleetRegistry,
    OutcomeTiming,
    ProcessPoolBackend,
    Scenario,
    SimulationBatchError,
    SimulationCache,
    SimulationOutcome,
    SimulationRequest,
    TenantSpec,
    execute_request,
)

CAMPAIGN_KW = dict(observe_days=0.25, impact_days=0.25, flight_hours=2.0)


def make_clock():
    """A deterministic clock: 0.0, 1.0, 2.0, ... one tick per reading."""
    counter = itertools.count()
    return lambda: float(next(counter))


def make_request(tag="obs/tag", days=0.25):
    return SimulationRequest(
        tenant="probe",
        kind="observe",
        spec=TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5),
        scenario=DEFAULT_CATALOG.get("diurnal-baseline"),
        config=default_yarn_config(),
        workload_tag=tag,
        days=days,
    )


def make_poisoned_request():
    """Valid to construct, fails inside the worker (nonexistent SKU drain)."""
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


# ----------------------------------------------------------------------
# Span tracing
# ----------------------------------------------------------------------
class TestSpanTracing:
    def test_nesting_follows_with_nesting(self):
        tracer = Tracer(clock=make_clock(), trace_id="t")
        with tracer.span("outer", tenant="east") as outer_handle:
            with tracer.span("inner"):
                pass
            outer_handle.set(rounds=2)
        # Spans finish inner-first; ids and times come from the fake clock.
        assert [r.name for r in tracer.spans] == ["inner", "outer"]
        inner, outer = tracer.spans[0], tracer.spans[1]
        assert outer.span_id == "s1" and outer.parent_id is None
        assert inner.span_id == "s2" and inner.parent_id == outer.span_id
        assert (outer.start, outer.end) == (0.0, 3.0)
        assert (inner.start, inner.end) == (1.0, 2.0)
        assert inner.duration == pytest.approx(1.0)
        assert outer.attribute("tenant") == "east"
        assert outer.attribute("rounds") == 2
        assert outer.attribute("missing", "fallback") == "fallback"
        # Export orders by start: the outer span leads even though it
        # finished last.
        first_line = tracer.to_jsonl().splitlines()[0]
        assert '"name": "outer"' in first_line

    def test_exception_marks_error_status_and_propagates(self):
        tracer = Tracer(clock=make_clock())
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("fails"):
                raise ValueError("boom")
        (record,) = tracer.spans
        assert record.status == "error"
        assert record.error == "ValueError: boom"

    def test_record_event_and_non_scalar_attributes(self):
        tracer = Tracer(clock=make_clock(), trace_id="t")
        with tracer.span("parent") as parent:
            direct = tracer.record("measured", 10.0, 12.5, scenario=object())
            marker = tracer.event("marker", hits=3)
        assert direct.parent_id == parent.span_id
        assert direct.duration == pytest.approx(2.5)
        # Non-scalar attribute values are stringified, keeping records
        # picklable and JSON-clean.
        assert isinstance(direct.attribute("scenario"), str)
        assert marker.duration == 0.0
        assert marker.attribute("hits") == 3

    def test_merge_grafts_worker_spans_into_the_parent_trace(self):
        worker = Tracer(clock=make_clock(), trace_id="worker")
        with worker.span("request.observe"):
            with worker.span("kea.simulate"):
                pass
        parent = Tracer(clock=make_clock(), trace_id="parent")
        with parent.span("pool.batch") as batch:
            adopted = parent.merge(
                tuple(worker.spans), align_to=batch.start + 100.0
            )
        by_name = {r.name: r for r in adopted}
        root = by_name["request.observe"]
        child = by_name["kea.simulate"]
        # Fresh ids, this trace's id, internal links preserved, foreign root
        # re-parented under the live span.
        assert all(r.trace_id == "parent" for r in adopted)
        assert root.parent_id == batch.span_id
        assert child.parent_id == root.span_id
        # The subtree is time-shifted so its earliest start lands at
        # align_to, relative offsets intact.
        assert root.start == pytest.approx(batch.start + 100.0)
        assert child.start - root.start == pytest.approx(1.0)
        assert parent.merge((), align_to=0.0) == []

    def test_null_tracer_is_the_default_and_records_nothing(self):
        assert current_tracer() is NULL_TRACER
        with span("untracked") as handle:
            handle.set(ignored=True)  # same surface as a live handle
        assert NULL_TRACER.spans == []
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.event("nothing") is None
        assert NULL_TRACER.merge([1, 2, 3]) == []

        tracer = Tracer(clock=make_clock())
        with activate(tracer):
            assert current_tracer() is tracer
            with span("tracked"):
                pass
        assert current_tracer() is NULL_TRACER
        assert [r.name for r in tracer.spans] == ["tracked"]

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer(clock=make_clock(), trace_id="t")
        with tracer.span("outer", tenant="east"):
            with tracer.span("inner"):
                pass
            tracer.event("cache.hit", kind="observe")
        path = tracer.export_jsonl(tmp_path / "trace.jsonl")
        records = read_trace_jsonl(path)
        assert {r.name for r in records} == {"outer", "inner", "cache.hit"}
        by_name = {r.name: r for r in records}
        assert by_name["outer"] == [r for r in tracer.spans if r.name == "outer"][0]
        assert by_name["inner"].parent_id == by_name["outer"].span_id

    def test_broken_trace_fails_loudly(self, tmp_path):
        orphan = SpanRecord(
            trace_id="t",
            span_id="s1",
            parent_id="s99",
            name="orphan",
            start=0.0,
            end=1.0,
        )
        path = tmp_path / "broken.jsonl"
        path.write_text(orphan.to_json() + "\n")
        with pytest.raises(ValueError, match="unknown parent"):
            read_trace_jsonl(path)

    def test_records_pickle_cleanly(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("worker", tenant="east"):
            pass
        restored = pickle.loads(pickle.dumps(tuple(tracer.spans)))
        assert restored == tuple(tracer.spans)


# ----------------------------------------------------------------------
# Ops metrics
# ----------------------------------------------------------------------
class TestOpsMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        counter = registry.counter("backend.batches")
        counter.inc()
        counter.inc(2.0)
        assert registry.counter("backend.batches") is counter
        assert counter.value == 3.0
        with pytest.raises(ValueError):
            counter.inc(-1.0)

        gauge = registry.gauge("cache.size")
        gauge.set(5)
        gauge.add(-2)
        assert gauge.value == 3.0

        histogram = registry.histogram("backend.request_seconds")
        assert histogram.mean == 0.0
        for value in (1.0, 3.0):
            histogram.observe(value)
        assert (histogram.count, histogram.total) == (2, 4.0)
        assert (histogram.min, histogram.max) == (1.0, 3.0)
        assert histogram.mean == pytest.approx(2.0)

    def test_labels_partition_and_type_clashes_fail(self):
        registry = MetricsRegistry()
        observe = registry.counter("backend.failures", kind="observe")
        flight = registry.counter("backend.failures", kind="flight")
        assert observe is not flight
        observe.inc()
        assert registry.get("backend.failures", kind="observe").value == 1.0
        assert registry.get("backend.failures", kind="flight").value == 0.0
        assert registry.get("backend.failures", kind="impact") is None
        with pytest.raises(TypeError):
            registry.gauge("backend.failures", kind="observe")
        assert "backend.failures{kind=flight}" in registry.names()

    def test_snapshot_and_summary(self):
        registry = MetricsRegistry()
        registry.counter("beats").inc(4)
        registry.histogram("seconds").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["beats"] == {"value": 4.0}
        assert snapshot["seconds"]["count"] == 1.0
        assert snapshot["seconds"]["mean"] == pytest.approx(0.5)
        text = registry.summary()
        assert "beats" in text and "histogram" in text
        registry.clear()
        assert registry.names() == []

    def test_concurrent_updates_lose_nothing(self):
        """Shards update metrics from threads: get-or-create and every update
        must be atomic, or racing threads lose counts (a thread still holding
        a metric another thread replaced updates an orphan)."""
        threads, keys = 16, 3000

        def work(registry, start):
            start.wait(timeout=60)
            for k in range(keys):
                registry.counter("shard.beats", shard=str(k)).inc()
                registry.histogram("shard.seconds").observe(1.0)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for _ in range(3):
                registry = MetricsRegistry()
                start = threading.Barrier(threads)
                pool = [
                    threading.Thread(target=work, args=(registry, start))
                    for _ in range(threads)
                ]
                for thread in pool:
                    thread.start()
                for thread in pool:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in pool)
                counted = [registry.get("shard.beats", shard=str(k)).value for k in range(keys)]
                assert counted == [float(threads)] * keys
                assert registry.histogram("shard.seconds").count == threads * keys
        finally:
            sys.setswitchinterval(old_interval)


# ----------------------------------------------------------------------
# Simulator profiling
# ----------------------------------------------------------------------
class TestSimulatorProfile:
    def test_phases_are_disjoint_and_merge(self):
        profile = SimulatorProfile(
            placement_seconds=0.2,
            placements=10,
            event_seconds=0.5,
            events=40,
            telemetry_seconds=0.1,
            telemetry_events=4,
        )
        phases = profile.as_phases()
        # Placement time is nested inside event dispatch; the decomposition
        # subtracts it so the three phases are disjoint.
        assert phases["placement"] == pytest.approx(0.2)
        assert phases["event_processing"] == pytest.approx(0.3)
        assert phases["telemetry_rollup"] == pytest.approx(0.1)
        assert profile.total_seconds == pytest.approx(0.6)
        other = SimulatorProfile(event_seconds=0.5, events=10)
        profile.merge(other)
        assert profile.event_seconds == pytest.approx(1.0)
        assert profile.events == 50

    def test_attach_profile_spans_tiles_the_parent(self):
        tracer = Tracer(clock=make_clock())
        profile = SimulatorProfile(
            placement_seconds=1.0,
            placements=3,
            event_seconds=3.0,
            events=7,
            telemetry_seconds=0.5,
            telemetry_events=2,
        )
        with tracer.span("kea.simulate") as sim:
            sim.end = sim.start + 10.0  # pretend the window took 10s
            spans = attach_profile_spans(tracer, sim, profile)
        names = [r.name for r in spans]
        assert names == [
            "simulator.placement",
            "simulator.event_processing",
            "simulator.telemetry_rollup",
            "simulator.overhead",
        ]
        assert all(r.parent_id == sim.span_id for r in spans)
        # Phase spans tile the parent end-to-end: each starts where the
        # previous ended, and the overhead remainder closes the gap.
        assert spans[0].start == pytest.approx(sim.start)
        for previous, current in zip(spans, spans[1:], strict=False):
            assert current.start == pytest.approx(previous.end)
        assert sum(r.duration for r in spans) == pytest.approx(10.0)
        assert spans[0].attribute("count") == 3

    def test_disabled_tracer_records_nothing(self):
        profile = SimulatorProfile(event_seconds=1.0, events=1)
        handle = object()
        assert attach_profile_spans(None, handle, profile) == []
        assert attach_profile_spans(NULL_TRACER, handle, profile) == []
        tracer = Tracer(clock=make_clock())
        with tracer.span("sim") as sim:
            assert attach_profile_spans(tracer, sim, None) == []

    def test_simulator_fills_the_profile_when_traced(self):
        spec = TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5)
        kea = spec.build(scenario=DEFAULT_CATALOG.get("diurnal-baseline"))
        with activate(Tracer(trace_id="probe")):
            observation = kea.observe(days=0.1, workload_tag="probe/profiled")
        profile = observation.result.profile
        assert profile.events > 0 and profile.placements > 0
        assert profile.telemetry_events > 0
        assert profile.event_seconds > 0.0
        phases = observation.result.profile.as_phases()
        assert all(seconds >= 0.0 for seconds in phases.values())

    def test_untraced_run_skips_profiling_entirely(self):
        # Zero-overhead gate: with no recording tracer active, the event
        # loop must not touch perf_counter — the profile stays empty.
        spec = TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5)
        kea = spec.build(scenario=DEFAULT_CATALOG.get("diurnal-baseline"))
        observation = kea.observe(days=0.1, workload_tag="probe/unprofiled")
        profile = observation.result.profile
        assert profile.events == 0 and profile.placements == 0
        assert profile.telemetry_events == 0
        assert profile.event_seconds == 0.0
        assert profile.placement_seconds == 0.0
        assert profile.telemetry_seconds == 0.0


# ----------------------------------------------------------------------
# Cost ledger
# ----------------------------------------------------------------------
class TestCostLedger:
    def test_charge_totals_and_merge(self):
        ledger = TuningCostLedger(tenant="east")
        ledger.charge("observe", 720.0, 1.5)
        ledger.charge("observe", 720.0, 1.4)
        ledger.charge("tune", 0.0, 0.05)
        assert ledger.phases["observe"].charges == 2
        assert ledger.total_machine_hours == pytest.approx(1440.0)
        assert ledger.total_wall_seconds == pytest.approx(2.95)

        other = TuningCostLedger(tenant="west")
        other.charge("observe", 100.0, 0.5)
        other.charge("flight", 50.0, 0.2)
        ledger.merge(other)
        assert ledger.phases["observe"].simulated_machine_hours == pytest.approx(1540.0)
        assert ledger.phases["flight"].charges == 1
        rows = ledger.rows()
        assert [phase for phase, *_ in rows] == ["observe", "tune", "flight"]
        text = ledger.summary()
        assert "east" in text and "TOTAL" in text


# ----------------------------------------------------------------------
# Pool timing: construction-time timing, cross-process spans, salvage
# ----------------------------------------------------------------------
class TestPoolTiming:
    def test_outcome_timing_populated_at_construction(self):
        outcome = execute_request(make_request(tag="timing/direct"))
        assert isinstance(outcome.timing, OutcomeTiming)
        assert outcome.timing.elapsed_seconds > 0.0
        names = [record.name for record in outcome.timing.trace]
        assert "request.observe" in names
        assert "kea.simulate" in names
        assert "simulator.placement" in names

    def test_worker_spans_cross_the_process_boundary(self):
        requests = [make_request(tag="xproc/a"), make_request(tag="xproc/b")]
        with ProcessPoolBackend(max_workers=2) as pool:
            assert pool.max_workers > 1
            outcomes = pool.run(requests)
        tracer = Tracer(trace_id="beat")
        with tracer.span("pool.batch") as batch:
            for outcome in outcomes:
                trace = outcome.timing.trace
                assert trace and all(isinstance(r, SpanRecord) for r in trace)
                roots = [r for r in trace if r.parent_id is None]
                assert [r.name for r in roots] == ["request.observe"]
                assert outcome.timing.elapsed_seconds > 0.0
                tracer.merge(trace, align_to=batch.start)
        # The merged beat trace is a closed tree: every parent reference
        # resolves, and the adopted subtrees sit under the batch span.
        known = {r.span_id for r in tracer.spans}
        assert all(
            r.parent_id is None or r.parent_id in known for r in tracer.spans
        )
        merged_roots = [r for r in tracer.spans if r.name == "request.observe"]
        assert len(merged_roots) == 2
        batch_record = [r for r in tracer.spans if r.name == "pool.batch"][0]
        assert all(r.parent_id == batch_record.span_id for r in merged_roots)

    def test_salvaged_siblings_carry_timing(self):
        siblings = [make_request(tag=f"salvage/{i}") for i in range(2)]
        batch = [siblings[0], make_poisoned_request(), siblings[1]]
        with ProcessPoolBackend(max_workers=1) as pool:
            with pytest.raises(SimulationBatchError) as excinfo:
                pool.run(batch)
        salvaged = [o for o in excinfo.value.outcomes if o is not None]
        assert len(salvaged) == 2
        for outcome in salvaged:
            assert outcome.timing.elapsed_seconds > 0.0
            assert any(
                r.name == "request.observe" for r in outcome.timing.trace
            )

    def test_cache_delta_snapshot_per_beat(self):
        cache = SimulationCache()
        request = make_request(tag="delta/a")
        assert cache.lookup(request) is None
        cache.store(
            request,
            SimulationOutcome(tenant="probe", kind="observe", workload_tag="delta/a"),
        )
        cache.lookup(request)
        first = cache.delta_snapshot()
        assert (first.hits, first.misses, first.size) == (1, 1, 1)
        cache.lookup(request)
        second = cache.delta_snapshot()
        # Counters are per-beat deltas; size stays absolute.
        assert (second.hits, second.misses, second.size) == (1, 0, 1)
        third = cache.delta_snapshot()
        assert (third.hits, third.misses) == (0, 0)


# ----------------------------------------------------------------------
# Traced campaigns: decomposition, bit-identity, cost accounting
# ----------------------------------------------------------------------
def run_traced_campaign(max_workers: int):
    registry = FleetRegistry()
    registry.add(TenantSpec(name="east", fleet_spec=small_fleet_spec(), seed=11))
    registry.add(TenantSpec(name="west", fleet_spec=small_fleet_spec(), seed=23))
    tracer = Tracer(trace_id=f"campaign/workers-{max_workers}")
    with ContinuousTuningService(
        registry, backend=ProcessPoolBackend(max_workers=max_workers), tracer=tracer
    ) as service:
        result = service.run_campaigns(scenario="diurnal-baseline", **CAMPAIGN_KW)
    return tracer, result


@pytest.fixture(scope="module")
def traced_serial():
    return run_traced_campaign(max_workers=1)


@pytest.fixture(scope="module")
def traced_pooled():
    return run_traced_campaign(max_workers=2)


class TestTracedCampaign:
    def test_trace_decomposes_observe_into_simulator_phases(self, traced_serial):
        tracer, _result = traced_serial
        names = {r.name for r in tracer.spans}
        for expected in (
            "service.run_campaigns",
            "service.beat",
            "pool.batch",
            "request.observe",
            "kea.simulate",
            "simulator.placement",
            "simulator.event_processing",
            "simulator.telemetry_rollup",
            "campaign.calibrate",
            "campaign.tune",
            "campaign.advance",
            "cache.beat_delta",
        ):
            assert expected in names, f"missing span {expected!r}"
        simulates = [r for r in tracer.spans if r.name == "kea.simulate"]
        assert simulates
        for sim in simulates:
            children = [
                r
                for r in tracer.spans
                if r.parent_id == sim.span_id and r.name.startswith("simulator.")
            ]
            assert {c.name for c in children} == {
                "simulator.placement",
                "simulator.event_processing",
                "simulator.telemetry_rollup",
                "simulator.overhead",
            }
            # The phase spans tile the simulate span: its duration fully
            # decomposes into placement/event/telemetry/overhead.
            total = sum(c.duration for c in children)
            assert total == pytest.approx(sim.duration, abs=1e-6)

    def test_trace_exports_valid_jsonl(self, traced_serial, tmp_path):
        tracer, _result = traced_serial
        path = tracer.export_jsonl(tmp_path / "campaign_trace.jsonl")
        records = read_trace_jsonl(path)  # raises on a broken tree
        assert len(records) == len(tracer.spans)
        roots = [r for r in records if r.parent_id is None]
        assert [r.name for r in roots] == ["service.run_campaigns"]

    def test_pooled_traced_run_is_bit_identical_to_serial(
        self, traced_serial, traced_pooled
    ):
        _, serial = traced_serial
        _, pooled = traced_pooled
        assert set(pooled.reports) == set(serial.reports)
        for name, serial_report in serial.reports.items():
            pooled_report = pooled.reports[name]
            assert pooled_report.final_phase == serial_report.final_phase
            assert pooled_report.capacity_after == serial_report.capacity_after
            assert [
                (e.round, e.phase, e.detail) for e in pooled_report.history
            ] == [(e.round, e.phase, e.detail) for e in serial_report.history]
            assert pooled_report.rollout_waves == serial_report.rollout_waves

    def test_cost_ledger_accrues_per_phase(self, traced_serial):
        _, result = traced_serial
        for report in result.reports.values():
            ledger = report.cost_ledger
            observe = ledger.phases["observe"]
            assert observe.simulated_machine_hours > 0.0
            assert observe.wall_seconds > 0.0
            # Analytical phases cost wall-clock but no fleet time.
            assert ledger.phases["tune"].simulated_machine_hours == 0.0
            assert ledger.phases["tune"].wall_seconds > 0.0
        fleet = result.fleet_cost_ledger()
        assert fleet.total_machine_hours == pytest.approx(
            sum(r.cost_ledger.total_machine_hours for r in result.reports.values())
        )

    def test_ops_report_renders(self, traced_serial):
        _, result = traced_serial
        text = result.ops_report()
        assert "Tuning cost" in text
        assert "east" in text and "west" in text
        assert "beat 1:" in text

    def test_beat_cache_deltas_cover_the_run(self, traced_serial):
        _, result = traced_serial
        assert result.beat_cache_deltas
        assert sum(d.hits for d in result.beat_cache_deltas) == result.cache_stats.hits
        assert (
            sum(d.misses for d in result.beat_cache_deltas)
            == result.cache_stats.misses
        )

    def test_ops_metrics_populated_by_the_run(self, traced_serial):
        _tracer, _result = traced_serial
        assert (
            OPS_METRICS.counter("backend.batches", backend="process-pool").value
            >= 1
        )
        assert (
            OPS_METRICS.histogram(
                "backend.batch_fanout", backend="process-pool"
            ).count
            >= 1
        )
        assert OPS_METRICS.histogram("campaign.phase_seconds", phase="observe").count >= 1
