"""Phase attribution for the simulator hot path.

:class:`SimulatorProfile` is the accumulator
:class:`~repro.cluster.simulator.ClusterSimulator` fills while its event loop
runs, splitting the run's wall-clock into three phases:

* **placement** — the placement loop for arrivals, stage starts and crash
  requeues: one ``_place`` call starts, queues or defers a batch of tasks;
* **event processing** — the rest of the event loop (heap pops included),
  *excluding* that placement work. It includes the one-task placements
  ``capacity_changed`` makes when a slot or queue space frees (a machine's
  queue drain, the RM-pending FIFO), like the FINISH that freed the slot:
  timing them would read the clock per task on a saturated window;
* **telemetry rollup** — hourly machine-record flushes and utilization
  sampling.

The simulator reads the clock around the event loop, each telemetry
dispatch and each timed ``_place`` call, never per event or placement;
set-up outside the loop is left to the ``simulator.overhead`` remainder.

The profile is plain data (picklable, mergeable); it crosses the pool
boundary on ``SimulationResult`` and :func:`attach_profile_spans` renders it
as synthetic child spans under a trace's simulate span, so the JSONL trace
decomposes the same number the benchmark JSON reports.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SimulatorProfile", "attach_profile_spans"]

#: Ordered phase keys every decomposition reports.
PHASES = ("placement", "event_processing", "telemetry_rollup")


@dataclass(slots=True)
class SimulatorProfile:
    """Wall-clock attribution of one simulator run, by phase.

    ``event_seconds`` is the event loop outside telemetry dispatches,
    placement included — :meth:`as_phases` subtracts the nested (timed)
    placement time so the three reported phases are disjoint.
    ``placements`` counts every ``scheduler.place`` call, timed or not;
    ``events`` counts dispatched non-telemetry events, cancelled FINISH
    entries included.
    """

    placement_seconds: float = 0.0
    placements: int = 0
    event_seconds: float = 0.0
    events: int = 0
    telemetry_seconds: float = 0.0
    telemetry_events: int = 0

    @property
    def total_seconds(self) -> float:
        """All attributed wall-clock (phases are disjoint within this)."""
        return self.event_seconds + self.telemetry_seconds

    def as_phases(self) -> dict[str, float]:
        """Disjoint ``{phase: seconds}`` decomposition (keys = :data:`PHASES`)."""
        event_only = max(0.0, self.event_seconds - self.placement_seconds)
        return {
            "placement": self.placement_seconds,
            "event_processing": event_only,
            "telemetry_rollup": self.telemetry_seconds,
        }

    def merge(self, other: "SimulatorProfile") -> None:
        """Fold another run's attribution into this one (multi-window calls)."""
        self.placement_seconds += other.placement_seconds
        self.placements += other.placements
        self.event_seconds += other.event_seconds
        self.events += other.events
        self.telemetry_seconds += other.telemetry_seconds
        self.telemetry_events += other.telemetry_events


def attach_profile_spans(tracer, parent, profile: SimulatorProfile):
    """Render a profile as synthetic child spans under ``parent``.

    The simulator accumulates phase totals rather than per-event spans (a
    half-day window dispatches tens of thousands of events — tracing each
    would be the overhead the <5% budget forbids), so the trace shows each
    phase as one span laid end-to-end from ``parent.start``, plus a
    ``simulator.overhead`` remainder so the children always sum to the
    parent. Returns the recorded spans.
    """
    if tracer is None or not tracer.enabled or profile is None:
        return []
    spans = []
    cursor = parent.start
    phases = profile.as_phases()
    counts = {
        "placement": profile.placements,
        "event_processing": profile.events,
        "telemetry_rollup": profile.telemetry_events,
    }
    for phase in PHASES:
        seconds = phases[phase]
        spans.append(
            tracer.record(
                f"simulator.{phase}",
                cursor,
                cursor + seconds,
                parent=parent,
                count=counts[phase],
            )
        )
        cursor += seconds
    remainder = max(0.0, parent.end - cursor)
    spans.append(
        tracer.record("simulator.overhead", cursor, cursor + remainder, parent=parent)
    )
    return spans
