"""The flighting tool: run flights and measure their impact.

The flighting module "is one of the most important components for KEA that
leads to its applicability to large production systems" (Section 5.2.2): it
deploys a candidate configuration to a machine subset and compares the
flighted machines against matched unflighted peers over the same window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.simulator import ClusterSimulator
from repro.flighting.flight import Flight
from repro.stats.ttest import TTestResult, welch_t_test
from repro.telemetry.monitor import PerformanceMonitor
from repro.utils.errors import ExperimentError

__all__ = ["FlightImpact", "FlightReport", "FlightingTool"]


@dataclass(frozen=True, slots=True)
class FlightImpact:
    """Impact of a flight on one metric (flighted vs control machines)."""

    metric: str
    flighted_mean: float
    control_mean: float
    test: TTestResult

    @property
    def relative_change(self) -> float:
        """Flighted vs control, as a fraction."""
        if self.control_mean == 0:
            return 0.0
        return (self.flighted_mean - self.control_mean) / abs(self.control_mean)


@dataclass
class FlightReport:
    """All measured impacts for one flight."""

    flight_name: str
    impacts: list[FlightImpact]
    n_flighted_records: int
    n_control_records: int

    def impact(self, metric: str) -> FlightImpact:
        """Look up the impact on one metric."""
        for entry in self.impacts:
            if entry.metric == metric:
                return entry
        raise KeyError(f"metric {metric!r} was not measured for {self.flight_name!r}")


class FlightingTool:
    """Registers flights on a simulator and evaluates them afterwards."""

    def __init__(self, simulator: ClusterSimulator):
        self.simulator = simulator
        self.flights: list[Flight] = []

    def add_flight(self, flight: Flight) -> None:
        """Schedule a flight (must happen before the simulation runs)."""
        self.flights.append(flight)
        flight.schedule_on(self.simulator)

    def evaluate(
        self,
        flight: Flight,
        monitor: PerformanceMonitor,
        metrics: tuple[str, ...] = ("TotalDataRead", "AverageTaskSeconds"),
        control_ids: set[int] | None = None,
    ) -> FlightReport:
        """Compare flighted machines against controls during the flight window.

        Controls default to all same-group machines that were not flighted —
        the matching the hybrid experiment setting prescribes (Section 7).
        """
        flight_ids = flight.machine_ids
        end_hour = flight.end_hour
        if end_hour is None:
            end_hour = int(monitor.frame.column("hour").max(initial=0)) + 1
        window = (int(flight.start_hour), int(end_hour))
        in_window = monitor.filter(hour_range=window)

        flighted = in_window.filter(machine_ids=flight_ids)
        if control_ids is None:
            ids = in_window.frame.column("machine_id")
            candidates = np.isin(
                in_window.frame.group_labels(), list(flight.control_groups)
            ) & ~np.isin(ids, list(flight_ids))
            control_ids = set(ids[candidates].tolist())
        control = in_window.filter(machine_ids=control_ids)
        if len(flighted) < 2 or len(control) < 2:
            raise ExperimentError(
                f"flight {flight.name!r}: not enough telemetry to evaluate "
                f"({len(flighted)} flighted, {len(control)} control records)"
            )

        impacts = []
        for metric in metrics:
            f_values = flighted.metric(metric)
            c_values = control.metric(metric)
            test = welch_t_test(c_values, f_values)
            impacts.append(
                FlightImpact(
                    metric=metric,
                    flighted_mean=float(np.mean(f_values)),
                    control_mean=float(np.mean(c_values)),
                    test=test,
                )
            )
        return FlightReport(
            flight_name=flight.name,
            impacts=impacts,
            n_flighted_records=len(flighted),
            n_control_records=len(control),
        )
