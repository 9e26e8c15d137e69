"""CSV export of telemetry.

The paper's Performance Monitor runs "an end-to-end data orchestration
pipeline ... deployed in production on Cosmos itself" that lands daily metric
batches for every downstream analysis. The simulator keeps telemetry in
memory; this module persists it in a stable, analysis-friendly CSV layout so
runs can be archived and diffed, and external tools (pandas, spreadsheets)
can consume them.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.telemetry.frame import CATEGORICAL_COLUMNS, MachineHourFrame
from repro.telemetry.records import JobRecord

__all__ = ["write_machine_hours_csv", "write_jobs_csv", "read_machine_hours_csv"]

_MACHINE_HOUR_FIELDS = (
    "machine_id",
    "machine_name",
    "sku",
    "software",
    "rack",
    "row",
    "subcluster",
    "hour",
    "cpu_utilization",
    "avg_running_containers",
    "total_data_read_bytes",
    "tasks_finished",
    "total_cpu_seconds",
    "total_task_seconds",
    "avg_cores_in_use",
    "avg_ram_gb_in_use",
    "avg_ssd_gb_in_use",
    "avg_power_watts",
    "power_cap_watts",
    "feature_enabled",
    "max_running_containers",
    "available_fraction",
    "faulted",
    "queue_avg_length",
    "queue_enqueued",
    "queue_dequeued",
)


def write_machine_hours_csv(frame: MachineHourFrame, path: str | Path) -> int:
    """Write a machine-hour frame to ``path``; returns the row count.

    Queue wait samples are summarized (mean, p99) rather than exploded — the
    CSV stays one row per machine-hour. A missing power cap is an empty cell.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [
        (frame.labels(name) if name in CATEGORICAL_COLUMNS else frame.column(name)).tolist()
        for name in _MACHINE_HOUR_FIELDS
    ]
    cap = _MACHINE_HOUR_FIELDS.index("power_cap_watts")
    columns[cap] = [None if watts != watts else watts for watts in columns[cap]]
    columns.append(frame.queue_mean_wait().tolist())
    columns.append(frame.queue_p99_wait().tolist())
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_MACHINE_HOUR_FIELDS + ("queue_mean_wait", "queue_p99_wait"))
        writer.writerows(zip(*columns, strict=True))
    return len(frame)


def write_jobs_csv(jobs: list[JobRecord], path: str | Path) -> int:
    """Write job records to ``path``; returns the row count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ("job_id", "template", "submit_time", "finish_time", "runtime",
             "n_tasks", "total_task_seconds", "is_benchmark")
        )
        for job in jobs:
            writer.writerow(
                (job.job_id, job.template, job.submit_time, job.finish_time,
                 job.runtime, job.n_tasks, job.total_task_seconds,
                 job.is_benchmark)
            )
    return len(jobs)


def read_machine_hours_csv(path: str | Path) -> MachineHourFrame:
    """Read a machine-hour frame back from a CSV written by this module.

    Queue wait samples are not round-tripped (the CSV stores summaries); the
    rebuilt rows carry no waits but keep the queue length and counters.
    """
    frame = MachineHourFrame()
    with Path(path).open(newline="") as handle:
        for row in csv.DictReader(handle):
            cap = row["power_cap_watts"]
            frame.append_hour(
                machine_id=int(row["machine_id"]),
                machine_name=row["machine_name"],
                sku=row["sku"],
                software=row["software"],
                rack=int(row["rack"]),
                row=int(row["row"]),
                subcluster=int(row["subcluster"]),
                hour=int(row["hour"]),
                cpu_utilization=float(row["cpu_utilization"]),
                avg_running_containers=float(row["avg_running_containers"]),
                total_data_read_bytes=float(row["total_data_read_bytes"]),
                tasks_finished=int(row["tasks_finished"]),
                total_cpu_seconds=float(row["total_cpu_seconds"]),
                total_task_seconds=float(row["total_task_seconds"]),
                avg_cores_in_use=float(row["avg_cores_in_use"]),
                avg_ram_gb_in_use=float(row["avg_ram_gb_in_use"]),
                avg_ssd_gb_in_use=float(row["avg_ssd_gb_in_use"]),
                avg_power_watts=float(row["avg_power_watts"]),
                power_cap_watts=float(cap) if cap not in ("", "None") else None,
                feature_enabled=row["feature_enabled"] == "True",
                max_running_containers=int(row["max_running_containers"]),
                queue_avg_length=float(row["queue_avg_length"]),
                queue_enqueued=int(row["queue_enqueued"]),
                queue_dequeued=int(row["queue_dequeued"]),
                queue_waits=[],
                available_fraction=float(row.get("available_fraction") or 1.0),
                faulted=row.get("faulted") == "True",
            )
    return frame
