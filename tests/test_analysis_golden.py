"""Golden digests and per-row references for the columnar analysis plane.

The perf benchmark's frames hold no queue waits and only full 24-hour
machine-days, so its digests cannot vouch for the waits path, partial days
or a machine that changes group mid-window. This module runs four of
``tests/test_golden.py``'s scenarios — ``queue-overload`` and ``az-outage``
(queue waits), ``sc-migration`` (an SC1 → SC2 flip inside one day) and
``straggler-tail`` — and pins, bit for bit:

* :meth:`PerformanceMonitor.daily_aggregates` at ``min_hours`` 1, 2 and 12
  (every scenario is shorter than 12 hours, so 12 drops every machine-day;
  2 drops only the one-hour SC1 buckets of ``sc-migration``);
* :meth:`QueueTuner.measure`;
* the :meth:`WhatIfEngine.calibrate` coefficients and operating points.

It also keeps the historical per-row loops for ``daily_aggregates`` and
``QueueTuner.measure`` as references (over :func:`tests.conftest.rows_of`), and asserts the column code equals
them exactly, on those scenarios and on randomized frames whose buckets are
ragged and wider than 8 rows (the scenarios' buckets within one run all have
the same size or fewer than 8 rows). A deliberate behaviour change re-baselines the file, from the
repo root::

    PYTHONPATH=src python -m tests.test_analysis_golden --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.applications.queue_tuning import QueueGroupStats, QueueTuner
from repro.core.whatif import WhatIfEngine
from repro.ml import huber
from repro.telemetry.monitor import MachineDayRecord, PerformanceMonitor
from tests.conftest import frame_of, rows_of
from tests.test_frame import random_rows
from tests.test_golden import _feed, run_scenario

GOLDEN_PATH = Path(__file__).parent / "golden" / "analysis.json"

SCENARIOS = ("queue-overload", "az-outage", "sc-migration", "straggler-tail")
MIN_HOURS = (1, 2, 12)

DAY_FIELDS = (
    "machine_id", "sku", "software", "day", "cpu_utilization",
    "avg_running_containers", "total_data_read_bytes", "tasks_finished",
    "total_task_seconds", "total_cpu_seconds", "hours_observed",
)
QUEUE_FIELDS = (
    "group", "avg_queue_length", "p99_wait_seconds", "mean_wait_seconds",
    "dequeue_rate_per_hour",
)


# ----------------------------------------------------------------------
# Per-row references (the loops the column code replaced)
# ----------------------------------------------------------------------
def reference_daily_aggregates(frame, min_hours: int = 1) -> list[MachineDayRecord]:
    """Bucket rows by (machine, group, day) and reduce each bucket."""
    buckets: dict[tuple[int, str, int], list] = {}
    for row in rows_of(frame):
        key = (row.machine_id, row.group, row.hour // 24)
        buckets.setdefault(key, []).append(row)
    aggregates = []
    for (machine_id, _group, day), rows in sorted(buckets.items()):
        if len(rows) < min_hours:
            continue
        aggregates.append(
            MachineDayRecord(
                machine_id=machine_id,
                sku=rows[0].sku,
                software=rows[0].software,
                day=day,
                cpu_utilization=float(np.mean([r.cpu_utilization for r in rows])),
                avg_running_containers=float(
                    np.mean([r.avg_running_containers for r in rows])
                ),
                total_data_read_bytes=float(
                    np.sum([r.total_data_read_bytes for r in rows])
                ),
                tasks_finished=int(np.sum([r.tasks_finished for r in rows])),
                total_task_seconds=float(np.sum([r.total_task_seconds for r in rows])),
                total_cpu_seconds=float(np.sum([r.total_cpu_seconds for r in rows])),
                hours_observed=len(rows),
            )
        )
    return aggregates


def reference_queue_measure(frame) -> list[QueueGroupStats]:
    """Per-group queue stats from one row list per group."""
    all_rows = rows_of(frame)
    stats = []
    for group in sorted({r.group for r in all_rows}):
        rows = [r for r in all_rows if r.group == group]
        waits: list[float] = []
        for row in rows:
            waits.extend(row.queue_waits)
        stats.append(
            QueueGroupStats(
                group=group,
                avg_queue_length=float(np.mean([r.queue_avg_length for r in rows])),
                p99_wait_seconds=float(np.percentile(waits, 99)) if waits else 0.0,
                mean_wait_seconds=float(np.mean(waits)) if waits else 0.0,
                dequeue_rate_per_hour=float(np.mean([r.tasks_finished for r in rows])),
            )
        )
    return stats


# ----------------------------------------------------------------------
# Canonical rows and digests
# ----------------------------------------------------------------------
def day_rows(aggregates) -> list[list]:
    return [[getattr(a, name) for name in DAY_FIELDS] for a in aggregates]


def queue_rows(stats) -> list[list]:
    return [[getattr(s, name) for name in QUEUE_FIELDS] for s in stats]


def calibration_rows(frame) -> list[list]:
    engine = WhatIfEngine()
    report = engine.calibrate(PerformanceMonitor(frame))
    coefficients = [
        [c.group, c.relation.name, c.model.slope, c.model.intercept]
        for c in report.calibrated
    ]
    points = [
        [p.group, p.n_observations, p.containers, p.utilization,
         p.tasks_per_hour, p.task_latency]
        for p in (engine.operating_point(g) for g in engine.groups())
    ]
    skipped = [list(item) for item in sorted(report.skipped_groups.items())]
    return [coefficients, points, skipped]


def digest(rows) -> str:
    """sha256 over ``rows``, floats by their IEEE-754 bytes."""
    h = hashlib.sha256()
    _feed(h.update, rows)
    return h.hexdigest()


@functools.cache
def scenario_frame(name: str):
    _, result = run_scenario(name)
    return result.frame


def analysis_digests(frame) -> dict:
    """Every pinned analysis output of one frame, with readable counts."""
    monitor = PerformanceMonitor(frame)
    out: dict = {"rows": len(frame), "waits": len(frame.waits_flat())}
    for min_hours in MIN_HOURS:
        aggregates = monitor.daily_aggregates(min_hours=min_hours)
        out[f"machine_days_min{min_hours}"] = len(aggregates)
        out[f"daily_aggregates_min{min_hours}"] = digest(day_rows(aggregates))
    out["queue_measure"] = digest(queue_rows(QueueTuner().measure(monitor)))
    calibration = calibration_rows(frame)
    out["relations_calibrated"] = len(calibration[0])
    out["calibrate"] = digest(calibration)
    return out


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())


def test_every_scenario_has_a_golden_entry(golden):
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", SCENARIOS)
def test_analysis_matches_golden_digest(name, golden):
    assert analysis_digests(scenario_frame(name)) == golden[name]


@pytest.mark.parametrize("min_hours", MIN_HOURS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_daily_aggregates_equal_per_record_reference(name, min_hours):
    frame = scenario_frame(name)
    columnar = PerformanceMonitor(frame).daily_aggregates(min_hours=min_hours)
    reference = reference_daily_aggregates(frame, min_hours)
    assert digest(day_rows(columnar)) == digest(day_rows(reference))
    assert columnar == reference


@pytest.mark.parametrize("name", SCENARIOS)
def test_queue_measure_equals_per_record_reference(name):
    frame = scenario_frame(name)
    columnar = QueueTuner().measure(PerformanceMonitor(frame))
    reference = reference_queue_measure(frame)
    assert digest(queue_rows(columnar)) == digest(queue_rows(reference))


@pytest.mark.parametrize("seed", [3, 11])
def test_ragged_random_buckets_equal_per_record_reference(seed):
    # Buckets of 1 to ~15 rows, out of hour order, with groups interleaved:
    # widths above 8 reach numpy's unrolled pairwise kernel, where reducing
    # a zero-padded row would re-associate the sum.
    frame = frame_of(random_rows(n=3000, seed=seed))
    monitor = PerformanceMonitor(frame)
    for min_hours in (1, 5, 9):
        columnar = monitor.daily_aggregates(min_hours=min_hours)
        reference = reference_daily_aggregates(frame, min_hours)
        assert columnar and digest(day_rows(columnar)) == digest(day_rows(reference))
    columnar = QueueTuner().measure(monitor)
    assert digest(queue_rows(columnar)) == digest(queue_rows(reference_queue_measure(frame)))


class TestFixturesReachTheirBranches:
    """The scenarios must exercise what the module docstring claims."""

    def test_queue_scenarios_carry_waits(self):
        for name in ("queue-overload", "az-outage"):
            assert len(scenario_frame(name).waits_flat()) > 0, name

    def test_min_hours_drops_some_partial_days(self):
        monitor = PerformanceMonitor(scenario_frame("sc-migration"))
        everything = monitor.daily_aggregates(min_hours=1)
        kept = monitor.daily_aggregates(min_hours=2)
        assert 0 < len(kept) < len(everything)
        assert monitor.daily_aggregates(min_hours=12) == []

    def test_sc_flip_splits_a_machine_day(self):
        aggregates = PerformanceMonitor(scenario_frame("sc-migration")).daily_aggregates()
        days = [(a.machine_id, a.day) for a in aggregates]
        assert len(days) > len(set(days))


_finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(_finite, min_size=1, max_size=64),
    ties=st.integers(min_value=0, max_value=8),
)
def test_huber_median_equals_numpy_median(values, ties):
    # Repeat a prefix so ties (and even-size middles that tie) are common.
    array = np.array((values + values[:ties])[:64])
    assert huber._median(array) == float(np.median(array))


def _write() -> None:
    entries = {}
    for name in SCENARIOS:
        entries[name] = analysis_digests(scenario_frame(name))
        print(f"{name}: {entries[name]}")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python -m tests.test_analysis_golden --write")
    _write()
