"""Measurement helpers: output digests, span self-times and summary statistics.

Nothing here imports the program under test, so the benchmark can report a
missing or broken checkout before it touches ``repro``.
"""

from __future__ import annotations

import hashlib
import statistics
import struct
from collections import defaultdict
from time import perf_counter

import numpy as np

#: Frame columns the telemetry digest covers, named explicitly so a column
#: added later does not silently change every stored digest.
FRAME_NUMERIC_COLUMNS = (
    "machine_id",
    "rack",
    "row",
    "subcluster",
    "hour",
    "tasks_finished",
    "max_running_containers",
    "queue_enqueued",
    "queue_dequeued",
    "cpu_utilization",
    "avg_running_containers",
    "total_data_read_bytes",
    "total_cpu_seconds",
    "total_task_seconds",
    "avg_cores_in_use",
    "avg_ram_gb_in_use",
    "avg_ssd_gb_in_use",
    "avg_power_watts",
    "power_cap_watts",
    "queue_avg_length",
    "available_fraction",
    "feature_enabled",
    "faulted",
)
FRAME_CATEGORICAL_COLUMNS = ("machine_name", "sku", "software")


class Digest:
    """sha256 over a canonical encoding of nested plain values.

    Floats are hashed by their IEEE-754 bytes and arrays by dtype, shape and
    raw bytes, so the digest changes exactly when an output changes bit-wise.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *values) -> "Digest":
        for value in values:
            self._feed(value)
        return self

    def _feed(self, value) -> None:
        update = self._hash.update
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
        elif isinstance(value, bytes):
            update(b"b%d:" % len(value) + value)
        elif isinstance(value, np.ndarray):
            array = np.ascontiguousarray(value)
            update(f"a{array.dtype.str}{array.shape}:".encode())
            update(array.tobytes())
        elif isinstance(value, np.generic):
            self._feed(value.item())
        elif isinstance(value, dict):
            update(b"{%d" % len(value))
            for key in sorted(value):
                self._feed(key)
                self._feed(value[key])
        elif isinstance(value, (list, tuple)):
            update(b"[%d" % len(value))
            for item in value:
                self._feed(item)
        else:
            raise TypeError(f"cannot digest {type(value).__name__}")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def frame_parts(frame) -> list:
    """A machine-hour frame as digestible parts: columns, labels, waits."""
    parts: list = [len(frame)]
    for name in FRAME_NUMERIC_COLUMNS:
        parts.extend((name, frame.column(name)))
    for name in FRAME_CATEGORICAL_COLUMNS:
        parts.extend((name, frame.codes(name), list(frame.categories(name))))
    parts.extend((frame.wait_offsets(), frame.waits_flat()))
    return parts


def frame_digest(frame) -> str:
    return Digest().add(*frame_parts(frame)).hexdigest()


def faulted_machine_hours(frame) -> int:
    """Machine-hour rows flagged as faulted (a crash touched the hour)."""
    return int(np.count_nonzero(frame.column("faulted"))) if len(frame) else 0


# ----------------------------------------------------------------------
# Span trees
# ----------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: count, summed duration, summed self time.

    A span's self time is its duration minus the part of its interval that
    its children cover (children clipped to the parent, overlaps counted
    once), so parallel worker requests merged under one batch do not drive
    the batch's self time negative.
    """
    children: dict[str | None, list] = defaultdict(list)
    for span in spans:
        children[span.parent_id].append(span)
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children[span.span_id]
            if child.end > span.start and child.start < span.end
        ]
        row = table[span.name]
        row["count"] += 1
        row["total_s"] += span.duration
        row["self_s"] += span.duration - _covered(clipped)
    return dict(table)


def span_count_sum(spans, name: str, attribute: str = "count") -> int:
    """Sum of an integer attribute over every span called ``name``."""
    return sum(int(s.attribute(attribute, 0)) for s in spans if s.name == name)


def span_total(spans, name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(s.duration for s in spans if s.name == name)


def render_table(table: dict[str, dict[str, float]], wall_s: float) -> str:
    """The self-time table, slowest layer first, with its share of the op."""
    lines = [f"{'span':<34}{'count':>7}{'total s':>11}{'self s':>11}{'self %':>8}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"{name:<34}{int(row['count']):>7}{row['total_s']:>11.4f}"
            f"{row['self_s']:>11.4f}{share:>8.1%}"
        )
    return "\n".join(lines)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def fast(values) -> float:
    """The 10th percentile by nearest rank (the minimum below 11 samples).

    On a shared host, contention from other tenants only ever adds time to
    an operation, so the fastest tenth of a run's operations is the least
    disturbed reading of the program's own cost.
    """
    values = sorted(values)
    return values[(len(values) - 1) // 10] if values else 0.0


def reset_peak_rss() -> None:
    """Restart this process's peak resident-set count at its current size."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def peak_rss_mb() -> float:
    """This process's peak resident set since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def reference_loop() -> float:
    """Seconds one pass of a fixed pure-Python loop takes on this host now."""
    started = perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return perf_counter() - started


class HostSpeed:
    """Tracks how fast a shared host runs Python while the benchmark runs.

    Other tenants of a shared host slow every process on it for spells that
    last minutes, longer than a run, so no statistic over one run's own
    operations can remove them. :func:`reference_loop` samples taken right
    before and after an operation measure the host's speed at that time;
    scaling the operation's time by :data:`REFERENCE_S` over their median
    reports it at a fixed host speed, which damps those spells. The
    reference does not touch the program, so a change to the program moves
    only the operation's time.
    """

    #: The reference loop's time on an uncontended host (2-vCPU x86-64 VM,
    #: Python 3.11): the speed every reported time is scaled to.
    REFERENCE_S = 0.0050
    #: Reference-loop time sampled after a measurement, as a share of it.
    BUDGET = 0.1

    def __init__(self) -> None:
        self.before = self.sample(0.0)

    @staticmethod
    def sample(budget_s: float) -> list[float]:
        """Run the reference loop for about ``budget_s`` (at least 5 passes)."""
        taken: list[float] = []
        while len(taken) < 5 or sum(taken) < budget_s:
            taken.append(reference_loop())
        return taken

    def scaled(self, seconds: float) -> float:
        """``seconds``, measured just now, at reference speed.

        Samples the host after the measurement and scales by the median of
        that sample and the one before it; the next measurement starts from
        this sample.
        """
        after = self.sample(self.BUDGET * seconds)
        speed = statistics.median(self.before + after)
        self.before = after
        return seconds * self.REFERENCE_S / speed
