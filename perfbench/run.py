"""KEA reproduction benchmark: one closed-loop workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-nominal --seed 0 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``sim-nominal`` — ``build_cluster`` → ``WorkloadGenerator.generate`` →
  ``ClusterSimulator.run``: one 2-hour window on the default 432-machine
  fleet at nominal diurnal load, no faults;
* ``campaign-faults`` — a two-tenant ``ContinuousTuningService`` campaign on
  the ``az-outage`` scenario at 2 pool workers, driven beat by beat through
  ``launch`` + ``step``, then a warm re-run that must be all cache hits;
* ``tune-observational`` — unpickle an observe outcome → snapshot → daily
  aggregates → calibrate → propose (yarn-config, queue-tuning) → frame cost.

The loop is closed: one client, and the next operation starts when the
previous one returns. Operations start while the elapsed time plus the
median operation so far fits in ``--seconds``.

``--seed`` selects one of the variants stored in ``expected.json`` (seed
modulo the number of variants); a variant fixes every input seed, and its
stored sha256 output digests and exact counters check each operation. A
mismatch, or an operation that raises, counts as failed.

``--trace 0`` prints the end-to-end metrics; every operation is untraced.
``setup_s`` is the median import time (this process and four fresh
interpreters) plus the median of three set-up repetitions; ``op_s`` and
``mh_per_s`` (machine-hours simulated or analysed per second) are read at
the fastest tenth of the run's operations, because contention from other
tenants of a shared host only ever adds time; ``peak_rss_mb`` is this
process's peak resident set over the timed operations (set-up's peak is
cleared; pool workers are other processes and are not counted). Every
time is reported at a fixed host speed: it is scaled by the time of a
fixed reference loop sampled right before and after it (see
``measure.HostSpeed``), which damps the slow spells of a shared host.
``--trace 1`` alternates untraced and traced operations and prints the
per-layer metrics: externally timed layer calls (medians of untraced ops),
self times from the traced ops' span trees, exact counts, and the tracing
overhead. It also writes the last traced op's spans as JSONL under
``perfbench/out/`` and prints its self-time table to stderr.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from measure import (  # noqa: E402
    HostSpeed,
    fast,
    median,
    peak_rss_mb,
    render_table,
    reset_peak_rss,
    self_times,
    span_count_sum,
    span_total,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected.json"
SETUP_REPS = 3
#: Fresh interpreters that time the program's import, besides this one.
IMPORT_REPS = 4
IMPORT_PROBE = (
    "from time import perf_counter; started = perf_counter(); import sys; "
    "sys.path[:0] = sys.argv[1:]; import workloads; print(perf_counter() - started)"
)


def import_program():
    """Import the workloads from this checkout's ``src``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    import workloads

    return workloads


def import_seconds() -> float:
    """How long a fresh interpreter takes to import the workloads."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH_DIR)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(probe.stdout.split()[-1])


def set_up(workload, import_s: float, host: HostSpeed) -> float:
    """Time the import and the workload's set-up several times each.

    Returns the median import time plus the median set-up repetition, each
    piece scaled to reference host speed on its own.
    """
    imports = [host.scaled(import_s)]
    for _ in range(IMPORT_REPS):
        imports.append(host.scaled(import_seconds()))
    reps = []
    for rep in range(SETUP_REPS):
        started = perf_counter()
        workload.prepare(rep)
        reps.append(host.scaled(perf_counter() - started))
    return median(imports) + median(reps)


def load_variant(workload: str, seed: int) -> tuple[int, dict]:
    """(variant index, variant) the seed selects from ``expected.json``."""
    variants = json.loads(EXPECTED_PATH.read_text())[workload]
    index = seed % len(variants)
    return index, variants[index]


def check(result, expect: dict | None, traced: bool) -> list[str]:
    """Mismatches between an op's outputs and the stored expectation."""
    if expect is None:
        return [f"no expected output stored for {result.key!r}"]
    problems = []
    if result.digest != expect["digest"]:
        problems.append(f"digest {result.digest} != {expect['digest']}")
    wanted = dict(expect["counts"])
    if traced:
        wanted.update(expect["traced_counts"])
    got = dict(result.counts)
    if traced:
        got.update(traced_counts(result.spans))
    for name, value in wanted.items():
        if got.get(name) != value:
            problems.append(f"{name} = {got.get(name)} != {value}")
    return problems


def traced_counts(spans) -> dict[str, int]:
    """Exact counts read off a traced op's span tree."""
    return {
        "cluster.events": span_count_sum(spans, "simulator.event_processing"),
        "cluster.placements": span_count_sum(spans, "simulator.placement"),
        # attach_profile_spans closes every profiled simulator run with one
        # overhead span, so these count simulated windows.
        "service.windows_simulated": sum(
            1 for s in spans if s.name == "simulator.overhead"
        ),
        "obs.spans": len(spans),
    }


def traced_layers(spans) -> dict[str, float]:
    """Per-layer seconds read off a traced op's span tree."""
    table = self_times(spans)

    def own(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    simulated = span_total(spans, "kea.simulate") + span_total(spans, "kea.flight")
    simulated += span_total(spans, "cluster.run")
    placements = traced_counts(spans)["cluster.placements"]
    return {
        "cluster.event_processing_s": own("simulator.event_processing"),
        "cluster.placement_s": own("simulator.placement"),
        "cluster.telemetry_rollup_s": own("simulator.telemetry_rollup"),
        "cluster.overhead_s": own("simulator.overhead"),
        "cluster.us_per_placement": (
            simulated / placements * 1e6 if placements else 0.0
        ),
        "flighting.flight_s": span_total(spans, "request.flight"),
        "flighting.baseline_window_s": span_total(spans, "window.baseline"),
        "flighting.rollout_window_s": span_total(spans, "window.rollout"),
        "flighting.gate_s": span_total(spans, "rollout.gate"),
    }


def measure(workload, seconds: float, trace: bool, expect: dict, label: str,
            host: HostSpeed):
    """Run closed-loop ops for ``seconds``; returns (ops, attempted, failed).

    ``host`` samples the reference loop after every op, outside its timing,
    and each op's ``scaled_s`` is its time at the reference host speed.
    """
    from repro.obs import Tracer

    ops: list[tuple[bool, object]] = []
    attempted = failed = 0
    started = perf_counter()
    index = 0
    while True:
        walls = [result.wall_s for _traced, result in ops]
        estimate = sorted(walls)[len(walls) // 2] if walls else 0.0
        # A traced run attempts at least one op of each kind; past that the
        # time limit applies whether or not the ops pass their checks.
        missing_kind = trace and index < 2
        if index and perf_counter() - started + estimate > seconds and not missing_kind:
            break
        if index >= 2 and not ops:
            break  # nothing succeeds: stop rather than spin for the whole run
        traced = trace and index % 2 == 1
        gc.collect()
        attempted += 1
        op_started = perf_counter()
        try:
            result = workload.run_op(
                index, Tracer(trace_id=f"{label}/op-{index}") if traced else None
            )
        except Exception:
            failed += 1
            traceback.print_exc(file=sys.stderr)
            host.scaled(perf_counter() - op_started)
            index += 1
            continue
        result.scaled_s = host.scaled(result.wall_s)
        problems = check(result, expect.get(result.key), traced)
        if problems:
            failed += 1
            print(f"op {index} ({result.key}) output mismatch:", *problems,
                  sep="\n  ", file=sys.stderr)
        else:
            ops.append((traced, result))
        index += 1
    return ops, attempted, failed


def end_to_end(ops, setup_s: float, peak_rss_mb: float) -> dict:
    plain = [result for traced, result in ops if not traced]
    seconds_per_mh = fast(r.scaled_s / r.machine_hours for r in plain)
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (fast(r.scaled_s for r in plain), "s"),
        "mh_per_s": (1.0 / seconds_per_mh if seconds_per_mh else 0.0, "mh/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(ops, names_units: dict[str, str], label: str) -> dict:
    plain = [result for traced, result in ops if not traced]
    traced = [result for was_traced, result in ops if was_traced]
    values: dict[str, float] = {}
    if plain:
        for name in plain[0].layers:
            values[name] = median(r.layers[name] for r in plain)
        values.update(plain[-1].counts)
    if traced:
        derived = [traced_layers(r.spans) for r in traced]
        for name in derived[0]:
            values[name] = median(d[name] for d in derived)
        values.update(traced_counts(traced[-1].spans))
        if plain:
            untraced_wall = fast(r.scaled_s for r in plain)
            traced_wall = fast(r.scaled_s for r in traced)
            values["obs.trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
        last = traced[-1]
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{label}.trace.jsonl").write_text(
            "".join(span.to_json() + "\n" for span in last.spans)
        )
        table = self_times(last.spans)
        root = next(s for s in last.spans if s.parent_id is None and s.name == "bench.op")
        accounted = sum(row["self_s"] for row in table.values())
        print(f"self times of one traced {label} op "
              f"(span wall {root.duration:.4f}s, self times sum {accounted:.4f}s, "
              f"untraced fastest tenth {fast(r.wall_s for r in plain):.4f}s)",
              render_table(table, root.duration), sep="\n", file=sys.stderr)
    # Layers a workload bypasses did no work on it: report them as 0.
    return {name: (values.get(name, 0.0), unit) for name, unit in names_units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = import_program()
    import_s = perf_counter() - _PROCESS_START
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    variant_index, variant = load_variant(args.workload, args.seed)
    label = f"{args.workload}-seed{args.seed}"

    host = HostSpeed()
    workload = workloads.WORKLOADS[args.workload](variant["inputs"])
    try:
        setup_s = set_up(workload, import_s, host)
        gc.collect()
        reset_peak_rss()
        ops, attempted, failed = measure(
            workload, args.seconds, bool(args.trace), variant["expect"], label, host
        )
        peak_mb = peak_rss_mb()
    finally:
        workload.close()

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(ops, units, label)
    else:
        metrics = end_to_end(ops, setup_s, peak_mb)
    print(f"{args.workload}: variant {variant_index} {variant['inputs']}, "
          f"{len(ops)} op(s) ok of {attempted}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and bool(ops),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
