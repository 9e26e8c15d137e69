"""Flights: deploying a build to named machines for a time window.

Mirrors the paper's internal flighting tool (Section 4.1): "users can specify
the machine names and the starting/ending time of each flighting and create
new builds to deploy to the selected machines."
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.cluster.machine import Machine
from repro.cluster.simulator import ClusterSimulator
from repro.flighting.build import ConfigBuild
from repro.utils.errors import ConfigurationError
from repro.utils.units import hours

__all__ = ["Flight"]


@dataclass
class Flight:
    """One flighting window: build × machines × [start, end) hours."""

    name: str
    build: ConfigBuild
    machines: list[Machine]
    start_hour: float
    end_hour: float | None = None  # None = until the end of the simulation
    applied: bool = field(default=False, init=False)
    control_groups: frozenset[str] = field(default=frozenset(), init=False)

    def __post_init__(self) -> None:
        if not self.machines:
            raise ConfigurationError(f"flight {self.name!r} selects no machines")
        if self.start_hour < 0:
            raise ConfigurationError(f"flight {self.name!r} starts before time zero")
        if self.end_hour is not None and self.end_hour <= self.start_hour:
            raise ConfigurationError(
                f"flight {self.name!r} ends at {self.end_hour}h, "
                f"not after its start {self.start_hour}h"
            )
        # Control matching must use the *pre-build* group labels: a software
        # build changes the flighted machines' group mid-run, so reading
        # groups at evaluation time would match controls against the wrong
        # population. Snapshot them before anything is applied.
        self.control_groups = frozenset(m.group_key.label for m in self.machines)

    @property
    def machine_ids(self) -> set[int]:
        """Ids of the flighted machines (for telemetry filtering)."""
        return {m.machine_id for m in self.machines}

    def schedule_on(self, simulator: ClusterSimulator) -> None:
        """Register apply/revert actions on a simulator (before ``run``)."""

        def switch(apply: bool) -> Callable[[ClusterSimulator], None]:
            def action(sim: ClusterSimulator) -> None:
                change = self.build.apply if apply else self.build.revert
                change(sim.cluster, self.machines)
                self.applied = apply
                for machine in self.machines:
                    machine.advance(sim.now)
                sim.capacity_changed(self.machines)

            return action

        simulator.schedule_action(hours(self.start_hour), switch(True))
        if self.end_hour is not None:
            simulator.schedule_action(hours(self.end_hour), switch(False))
