"""Observability tour: trace, profile, and cost-account one campaign run.

The service's other readouts say what the tuner *decided*; the observability
plane (:mod:`repro.obs`) says what the tuning *did* at runtime. This
walkthrough drives a two-tenant campaign under a :class:`~repro.obs.Tracer`
and then reads every layer of the plane back out:

1. the span tree — ``service.run_campaigns`` → ``service.beat`` →
   ``pool.batch`` → each worker's ``request.*`` subtree, merged across the
   process boundary;
2. the simulator phase decomposition — every ``kea.simulate`` span splits
   into placement / event-processing / telemetry-rollup children, so the
   observe window's wall-clock is no longer one opaque number;
3. the ops-metrics registry — cache traffic, pool fan-out, campaign phase
   durations as counters/gauges/histograms;
4. the cost-of-tuning ledger — per phase, the simulated machine-hours the
   windows covered and the service wall-clock they burned;
5. the exported JSONL trace, read back and validated.

Tracing is out-of-band: the traced run is bit-identical to an untraced one.

Run:  python examples/observability_tour.py
"""

import tempfile
from pathlib import Path

from repro import (
    OPS_METRICS,
    ContinuousTuningService,
    FleetRegistry,
    ProcessPoolBackend,
    TenantSpec,
    Tracer,
    read_trace_jsonl,
)
from repro.cluster import small_fleet_spec


def print_span_tree(spans) -> None:
    """Indent-render the trace tree (children under parents, by start)."""
    by_parent: dict = {}
    for record in spans:
        by_parent.setdefault(record.parent_id, []).append(record)

    def walk(parent_id, depth):
        for record in sorted(
            by_parent.get(parent_id, ()), key=lambda r: (r.start, r.span_id)
        ):
            marker = "" if record.status == "ok" else "  !! " + (record.error or "")
            print(f"{'  ' * depth}{record.name}  {record.duration:.3f}s{marker}")
            walk(record.span_id, depth + 1)

    walk(None, 0)


def main() -> None:
    registry = FleetRegistry()
    for name, seed in (("cosmos-east", 11), ("cosmos-west", 23)):
        registry.add(TenantSpec(name=name, fleet_spec=small_fleet_spec(), seed=seed))

    tracer = Tracer(trace_id="tour/diurnal-baseline")
    with ContinuousTuningService(
        registry, backend=ProcessPoolBackend(max_workers=2), tracer=tracer
    ) as service:
        result = service.run_campaigns(
            scenario="diurnal-baseline",
            observe_days=0.5,
            impact_days=0.5,
            flight_hours=4.0,
        )

    print("=== 1. The campaign itself ===")
    print(result.summary())

    print("\n=== 2. The span tree (worker subtrees merged across processes) ===")
    print_span_tree(tracer.spans)

    print("\n=== 3. Where the observe windows actually went ===")
    simulates = [r for r in tracer.spans if r.name == "kea.simulate"]
    for sim in simulates:
        children = [r for r in tracer.spans if r.parent_id == sim.span_id]
        parts = ", ".join(
            f"{c.name.removeprefix('simulator.')}={c.duration:.3f}s"
            for c in children
        )
        print(f"kea.simulate {sim.duration:.3f}s → {parts}")

    print("\n=== 4. Ops metrics the run populated ===")
    print(OPS_METRICS.summary())

    print("\n=== 5. What the tuning cost ===")
    print(result.ops_report())

    print("\n=== 6. Export + read-back ===")
    path = Path(tempfile.gettempdir()) / "observability_tour_trace.jsonl"
    tracer.export_jsonl(path)
    records = read_trace_jsonl(path)  # raises if the tree were broken
    print(f"wrote {len(records)} spans to {path}; tree validates")


if __name__ == "__main__":
    main()
