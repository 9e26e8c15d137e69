"""Service bench: multi-tenant campaign wall-clock across execution backends.

Runs the same four-tenant campaign three times — once inline (serial) on a
:class:`~repro.service.ProcessPoolBackend`, once on a process pool, and once on
the file-spooled :class:`~repro.service.LocalQueueBackend` — and reports the
wall-clock of each mode. Tenant simulations are independent, so on a machine
with N ≥ 2 cores the parallel run approaches the slowest tenant's time
rather than the sum; the queue mode pays the same fan-out plus the spool's
pickle round-trips (its durability tax, which this bench quantifies). The
JSON payload records per-mode wall-clock (gated by
``check_bench_regression.py`` against ``baselines/BENCH_service.json``) and
the measured speedup with the core count it was measured on. Results are
asserted bit-identical across all modes (a backend must never change
outcomes, only timing and durability).
"""

import os
import shutil
import tempfile
import time

from benchmarks.common import emit, emit_json
from repro.cluster import small_fleet_spec
from repro.service import (
    ContinuousTuningService,
    FleetRegistry,
    LocalQueueBackend,
    ProcessPoolBackend,
    TenantSpec,
)
from repro.utils.tables import TextTable

N_TENANTS = 4
SCENARIO = "diurnal-baseline"
CAMPAIGN_KW = dict(observe_days=0.5, impact_days=0.5, flight_hours=4.0)


def _registry() -> FleetRegistry:
    registry = FleetRegistry()
    for i in range(N_TENANTS):
        registry.add(
            TenantSpec(
                name=f"tenant-{i}", fleet_spec=small_fleet_spec(), seed=100 + i
            )
        )
    return registry


def _run(max_workers: int):
    with ContinuousTuningService(
        _registry(), backend=ProcessPoolBackend(max_workers=max_workers)
    ) as service:
        started = time.perf_counter()
        result = service.run_campaigns(scenario=SCENARIO, **CAMPAIGN_KW)
        elapsed = time.perf_counter() - started
    return result, elapsed


def _run_queue(workers: int):
    spool = tempfile.mkdtemp(prefix="bench-spool-")
    try:
        with ContinuousTuningService(
            _registry(), backend=LocalQueueBackend(spool, workers=workers)
        ) as service:
            started = time.perf_counter()
            result = service.run_campaigns(scenario=SCENARIO, **CAMPAIGN_KW)
            elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    return result, elapsed


def _histories(result):
    return {
        name: [(e.round, e.phase, e.detail) for e in report.history]
        for name, report in result.reports.items()
    }


def test_bench_service_campaign(benchmark):
    cpu_count = os.cpu_count() or 1
    workers = max(2, min(N_TENANTS, cpu_count))

    # Warm up interpreter/numpy state so the first timed mode isn't charged
    # for one-time costs (worker processes fork the warmed parent).
    warmup = FleetRegistry()
    warmup.add(TenantSpec(name="warmup", fleet_spec=small_fleet_spec(), seed=1))
    with ContinuousTuningService(
        warmup, backend=ProcessPoolBackend(max_workers=1)
    ) as service:
        service.run_campaigns(
            scenario=SCENARIO, observe_days=0.25, impact_days=0.25, flight_hours=2.0
        )

    serial_result, serial_s = _run(max_workers=1)
    parallel_result, parallel_s = _run(max_workers=workers)
    queue_result, queue_s = _run_queue(workers=workers)

    # A backend must change timing only, never outcomes.
    reference = _histories(serial_result)
    identical = (
        _histories(parallel_result) == reference
        and _histories(queue_result) == reference
    )
    assert identical, "a backend's campaign diverged from the serial reference"

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    queue_speedup = serial_s / queue_s if queue_s > 0 else float("inf")
    if cpu_count >= 2:
        # With real cores available, fanning independent tenants out must
        # beat the serial loop by a sane margin.
        assert speedup > 1.3, f"speedup {speedup:.2f}x on {cpu_count} cores"

    table = TextTable(
        ["mode", "workers", "seconds", "speedup"],
        title=f"{N_TENANTS}-tenant campaign over {SCENARIO!r}",
    )
    table.add_row(["serial", "1", f"{serial_s:.2f}", "1.00x"])
    table.add_row(["parallel", str(workers), f"{parallel_s:.2f}", f"{speedup:.2f}x"])
    table.add_row(
        ["queue-backend", str(workers), f"{queue_s:.2f}", f"{queue_speedup:.2f}x"]
    )
    note = (
        f"cpu cores available: {cpu_count}; outcomes bit-identical: {identical}"
        + (
            "\nNOTE: <2 cores — worker processes cannot beat serial on this host;"
            " the speedup criterion needs a multi-core machine."
            if cpu_count < 2
            else ""
        )
    )
    emit("bench_service_campaign", table.render() + "\n" + note)
    emit_json(
        "bench_service_campaign",
        {
            "n_tenants": N_TENANTS,
            "scenario": SCENARIO,
            "observe_days": CAMPAIGN_KW["observe_days"],
            "impact_days": CAMPAIGN_KW["impact_days"],
            "cpu_count": cpu_count,
            "parallel_workers": workers,
            "serial_seconds": round(serial_s, 3),
            "parallel_seconds": round(parallel_s, 3),
            "queue_seconds": round(queue_s, 3),
            "speedup": round(speedup, 3),
            "queue_speedup": round(queue_speedup, 3),
            "outcomes_identical": identical,
            "deployments": serial_result.deployments,
            "rollbacks": serial_result.rollbacks,
        },
    )
    # The regression-gated rows: one wall-clock row per execution mode,
    # compared against baselines/BENCH_service.json by
    # check_bench_regression.py.
    emit_json(
        "BENCH_service",
        {
            "n_tenants": N_TENANTS,
            "scenario": SCENARIO,
            "cpu_count": cpu_count,
            "service": {
                "serial": {"total_seconds": round(serial_s, 3)},
                "parallel": {
                    "total_seconds": round(parallel_s, 3),
                    "workers": workers,
                },
                "queue-backend": {
                    "total_seconds": round(queue_s, 3),
                    "workers": workers,
                },
            },
        },
    )

    # The timed harness target: fleet-report assembly over the finished runs
    # (simulations are measured once above; re-simulating per-iteration would
    # swamp the harness).
    benchmark(lambda: serial_result.summary())
