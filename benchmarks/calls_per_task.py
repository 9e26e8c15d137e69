"""Python calls per started task: the simulator's host-independent cost figure.

Builds the ``sim-nominal`` window (the default 432-machine fleet for 2 h at
nominal diurnal load, seeded like perfbench's variant of the same seed),
runs ``ClusterSimulator.run`` under :mod:`cProfile`, and prints the total
call count, the calls per started task, and the functions with the most
calls and the most self time. Only the run is profiled: cluster build and
workload generation happen before the profiler starts.

It then runs the same window again with ``profile=True``, as every pool
window runs (a recording tracer is always active there), and prints the
``perf_counter`` calls per started task that the simulator's phase
profiling adds. Last, it prints the same clock figure on a saturated
window that queues and defers: the inputs of the ``queue-overload`` golden
scenario (small fleet, 1 h, 300 jobs/h, seed 41, limits 2 running / 2
queued), where placements happen one task at a time as slots free.

The count is deterministic for a given seed and interpreter, so it does not
depend on host speed; the self times do.

Run from the repository root::

    PYTHONPATH=src python benchmarks/calls_per_task.py --seed 0 --top 15
"""

from __future__ import annotations

import argparse
import cProfile
import pstats

from repro.cluster import ClusterSimulator, build_cluster, default_fleet_spec, small_fleet_spec
from repro.cluster.config import GroupLimits, YarnConfig
from repro.utils.rng import RngStreams
from repro.workload import WorkloadGenerator, default_templates, estimate_jobs_per_hour
from repro.workload.seasonality import SeasonalityProfile

HOURS = 2.0
OCCUPANCY = 0.62
MEAN_TASK_S = 420.0


def profile_window(seed: int, profile: bool | None = None) -> tuple[pstats.Stats, int]:
    """Profile one ``sim-nominal`` run; returns (stats, tasks started).

    ``profile`` is passed to :class:`ClusterSimulator` (None: off here, as
    no tracer is active).
    """
    spec = default_fleet_spec()
    templates = default_templates()
    jobs_per_hour = estimate_jobs_per_hour(
        build_cluster(spec).total_container_slots,
        OCCUPANCY,
        templates,
        mean_task_duration_s=MEAN_TASK_S,
    )
    streams = RngStreams(seed)
    cluster = build_cluster(spec)
    workload = WorkloadGenerator(
        templates,
        jobs_per_hour=jobs_per_hour,
        seasonality=SeasonalityProfile(),
        streams=streams.spawn("workload"),
    ).generate(HOURS)
    simulator = ClusterSimulator(
        cluster, workload, streams=streams.spawn("sim"), profile=profile
    )
    return _profiled_run(simulator, HOURS)


def profile_saturated_window() -> tuple[pstats.Stats, int]:
    """Profile the ``queue-overload`` golden scenario's run with ``profile=True``."""
    config = YarnConfig(
        default_limits=GroupLimits(max_running_containers=2, max_queued_containers=2)
    )
    workload = WorkloadGenerator(
        default_templates(), jobs_per_hour=300.0, streams=RngStreams(41)
    ).generate(1.0)
    simulator = ClusterSimulator(
        build_cluster(small_fleet_spec(), config), workload,
        streams=RngStreams(42), profile=True,
    )
    return _profiled_run(simulator, 1.0)


def _profiled_run(simulator: ClusterSimulator, hours: float) -> tuple[pstats.Stats, int]:
    profiler = cProfile.Profile()
    profiler.enable()
    result = simulator.run(hours)
    profiler.disable()
    return pstats.Stats(profiler), result.tasks_started


def _clock_calls(stats: pstats.Stats) -> int:
    return sum(
        calls
        for func, (_prim, calls, _self_s, _cum_s, _callers) in stats.stats.items()
        if func[2].endswith("perf_counter>")
    )


def _label(func: tuple[str, int, str]) -> str:
    filename, line, name = func
    if filename == "~":  # builtins and C methods
        return name
    return f"{filename.rsplit('/', 2)[-1]}:{line}({name})"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=12, help="rows per table")
    args = parser.parse_args(argv)

    stats, tasks = profile_window(args.seed)
    print(f"sim-nominal seed {args.seed}: {stats.total_calls:,} calls, "
          f"{tasks:,} tasks started, {stats.total_calls / tasks:.2f} calls per task")
    rows = [
        (func, calls, self_s, cum_s)
        for func, (_prim, calls, self_s, cum_s, _callers) in stats.stats.items()
    ]
    for title, key in (("most calls", 1), ("most self time", 2)):
        print(f"\n{title}:")
        print(f"{'calls':>10} {'per task':>9} {'self s':>8} {'cum s':>8}  function")
        for func, calls, self_s, cum_s in sorted(rows, key=lambda r: -r[key])[: args.top]:
            print(f"{calls:>10,} {calls / tasks:>9.2f} {self_s:>8.3f} {cum_s:>8.3f}  "
                  f"{_label(func)}")

    stats, tasks = profile_window(args.seed, profile=True)
    clock_calls = _clock_calls(stats)
    print(f"\nprofile=True: {stats.total_calls / tasks:.2f} calls per task, "
          f"{clock_calls:,} perf_counter calls, {clock_calls / tasks:.2f} per task")

    stats, tasks = profile_saturated_window()
    clock_calls = _clock_calls(stats)
    print(f"saturated window (queue-overload inputs), profile=True: {tasks:,} tasks "
          f"started, {clock_calls:,} perf_counter calls, {clock_calls / tasks:.2f} per task")


if __name__ == "__main__":
    main()
