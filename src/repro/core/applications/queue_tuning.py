"""Container-queue tuning (the Section 5.3 discussion, Figure 12).

When the whole cluster reaches its container limits, low-priority containers
queue on individual machines. Queue length and latency "vary significantly
for machines with different SKUs and SCs"; faster machines drain faster, so
they can safely hold longer queues. This application measures per-group queue
behaviour and recommends per-group maximum queue lengths that equalize
expected queueing delay — the same observational-tuning methodology applied
to a second knob.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.config import GroupLimits, YarnConfig
from repro.core.application import (
    ParameterSpec,
    TuningApplication,
    TuningOutcome,
    TuningProposal,
    register_application,
)
from repro.cluster.software import MachineGroupKey
from repro.flighting.build import FlightPlan, PlannedFlight, YarnLimitsBuild
from repro.telemetry.monitor import PerformanceMonitor
from repro.utils.errors import TelemetryError
from repro.utils.tables import TextTable

__all__ = [
    "QueueGroupStats",
    "QueueTuningResult",
    "QueueTuner",
    "QueueTuningApplication",
]


@dataclass(frozen=True, slots=True)
class QueueGroupStats:
    """Observed queueing behaviour of one machine group (Figure 12 bars)."""

    group: str
    avg_queue_length: float
    p99_wait_seconds: float
    mean_wait_seconds: float
    dequeue_rate_per_hour: float  # tasks finished per machine-hour ≈ drain rate


@dataclass
class QueueTuningResult:
    """Per-group stats plus the recommended queue limits."""

    stats: list[QueueGroupStats]
    recommended_limits: dict[MachineGroupKey, int]
    target_wait_seconds: float

    def summary(self) -> str:
        """Figure 12-style table plus the recommendation."""
        table = TextTable(
            ["group", "avg queue len", "p99 wait (s)", "drain rate (/h)",
             "recommended max queue"],
            title="Per-group container queueing",
        )
        recs = {k.label: v for k, v in self.recommended_limits.items()}
        for stat in sorted(self.stats, key=lambda s: s.group):
            table.add_row(
                [
                    stat.group,
                    f"{stat.avg_queue_length:.2f}",
                    f"{stat.p99_wait_seconds:.0f}",
                    f"{stat.dequeue_rate_per_hour:.0f}",
                    recs.get(stat.group, "-"),
                ]
            )
        return table.render()


class QueueTuner:
    """Derive per-group queue limits from saturated-cluster telemetry."""

    def __init__(self, target_wait_seconds: float = 300.0, min_limit: int = 1,
                 max_limit: int = 64):
        if target_wait_seconds <= 0:
            raise ValueError("target_wait_seconds must be positive")
        if not 1 <= min_limit <= max_limit:
            raise ValueError("need 1 <= min_limit <= max_limit")
        self.target_wait_seconds = target_wait_seconds
        self.min_limit = min_limit
        self.max_limit = max_limit

    def measure(self, monitor: PerformanceMonitor) -> list[QueueGroupStats]:
        """Aggregate queue telemetry per machine group (masks keep row order)."""
        frame = monitor.frame
        combined, labels = frame.group_codes()
        wait_group = np.repeat(combined, np.diff(frame.wait_offsets()))
        flat_waits = frame.waits_flat()
        stats: list[QueueGroupStats] = []
        for code in sorted(np.unique(combined).tolist(), key=labels.__getitem__):
            rows = combined == code
            waits = flat_waits[wait_group == code]
            stats.append(
                QueueGroupStats(
                    group=labels[code],
                    avg_queue_length=float(np.mean(frame.column("queue_avg_length")[rows])),
                    p99_wait_seconds=float(np.percentile(waits, 99)) if len(waits) else 0.0,
                    mean_wait_seconds=float(np.mean(waits)) if len(waits) else 0.0,
                    dequeue_rate_per_hour=float(np.mean(frame.column("tasks_finished")[rows])),
                )
            )
        if not stats:
            raise TelemetryError("no telemetry to measure queue behaviour from")
        return stats

    def tune(self, monitor: PerformanceMonitor) -> QueueTuningResult:
        """Recommend per-group queue limits equalizing expected drain time.

        A queue of length L on a machine draining d tasks/hour waits ≈
        L·3600/d seconds to clear; solving for L at the target wait gives the
        per-group limit (clamped to [min_limit, max_limit]).
        """
        stats = self.measure(monitor)
        limits: dict[MachineGroupKey, int] = {}
        for stat in stats:
            drain_per_second = stat.dequeue_rate_per_hour / 3600.0
            raw = self.target_wait_seconds * drain_per_second
            limit = int(np.clip(round(raw), self.min_limit, self.max_limit))
            limits[MachineGroupKey.from_label(stat.group)] = limit
        return QueueTuningResult(
            stats=stats,
            recommended_limits=limits,
            target_wait_seconds=self.target_wait_seconds,
        )

    def apply_to_config(
        self, config: YarnConfig, result: QueueTuningResult
    ) -> YarnConfig:
        """Return a new YarnConfig carrying the recommended queue limits."""
        new = config.copy()
        for key, limit in result.recommended_limits.items():
            current = new.for_group(key)
            new.set_group(
                key,
                GroupLimits(
                    max_running_containers=current.max_running_containers,
                    max_queued_containers=limit,
                ),
            )
        return new


@register_application
class QueueTuningApplication(TuningApplication):
    """Per-group queue limits through the unified lifecycle (Section 5.3).

    Purely observational and engine-free: ``propose`` reads queue telemetry
    off the observation's monitor and emits a deployable config carrying the
    recommended per-group ``max_queued_containers``. Queue limits are not a
    container delta, but they *are* flightable: :meth:`flight_plan` pilots
    a :class:`~repro.flighting.build.YarnLimitsBuild` per changed group (new
    queue bound, running limit untouched), validated on the direct metric —
    capping a queue must visibly change observed queue length.
    """

    name = "queue-tuning"
    mode = "observational"
    requires_engine = False
    primary_metric = "MeanQueueWaitSeconds"  # derived, not a registry metric
    higher_is_better = False
    flight_metrics = ("QueueLength", "QueueWaitP99", "AverageTaskSeconds")
    flight_metric = "QueueLength"

    def __init__(
        self,
        target_wait_seconds: float = 300.0,
        min_limit: int = 1,
        max_limit: int = 64,
    ):
        self.tuner = QueueTuner(
            target_wait_seconds=target_wait_seconds,
            min_limit=min_limit,
            max_limit=max_limit,
        )

    def parameter_space(self) -> tuple[ParameterSpec, ...]:
        return (
            ParameterSpec(
                name="max_queued_containers",
                description="per-group cap on low-priority containers queued "
                "on a machine, equalizing expected drain time",
                kind="int",
                lower=float(self.tuner.min_limit),
                upper=float(self.tuner.max_limit),
                per_group=True,
                unit="containers",
            ),
        )

    def propose(self, observation, engine=None) -> TuningProposal:
        result = self.tuner.tune(observation.monitor)
        proposed = self.tuner.apply_to_config(
            observation.cluster.yarn_config, result
        )
        mean_p99 = float(
            np.mean([stat.p99_wait_seconds for stat in result.stats])
        )
        return TuningProposal(
            application=self.name,
            summary=(
                f"{len(result.recommended_limits)} per-group queue limit(s) "
                f"targeting {result.target_wait_seconds:.0f}s expected drain"
            ),
            proposed_config=proposed,
            config_deltas={},
            baseline_config=observation.cluster.yarn_config.copy(),
            metrics={
                "target_wait_seconds": result.target_wait_seconds,
                "observed_mean_p99_wait_s": mean_p99,
            },
            details=result,
        )

    def flight_plan(self, proposal) -> FlightPlan:
        """Pilot the new queue bound on every group whose limit changes.

        Each entry is a :class:`~repro.flighting.build.YarnLimitsBuild`
        carrying the group's *unchanged* running-container limit plus the
        recommended queue bound, so the pilot isolates the queue knob.
        """
        result: QueueTuningResult = proposal.details
        baseline = proposal.baseline_config
        entries = []
        for key, limit in sorted(result.recommended_limits.items()):
            current = proposal.proposed_config.for_group(key)
            if (
                baseline is not None
                and baseline.for_group(key).max_queued_containers == limit
            ):
                continue  # nothing changes for this group; nothing to pilot
            entries.append(
                PlannedFlight(
                    build=YarnLimitsBuild(
                        max_running_containers=current.max_running_containers,
                        max_queued_containers=limit,
                    ),
                    group=key,
                    name=f"pilot-{key.label}-queue{limit}",
                )
            )
        return FlightPlan(entries=tuple(entries))

    @staticmethod
    def _mean_wait(observation) -> float:
        waits = observation.monitor.frame.waits_flat()
        return float(np.mean(waits)) if len(waits) else 0.0

    def evaluate(self, before, after) -> TuningOutcome:
        """Observed queueing delay must not grow under the new limits."""
        before_wait = self._mean_wait(before)
        after_wait = self._mean_wait(after)
        return TuningOutcome(
            application=self.name,
            metric=self.primary_metric,
            before=before_wait,
            after=after_wait,
            improved=after_wait <= before_wait,
            detail=(
                f"mean observed queue wait {before_wait:.1f}s → "
                f"{after_wait:.1f}s (lower is better)"
            ),
        )
