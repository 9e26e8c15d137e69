"""Software-configuration selection — experimental tuning (Section 7.1, Table 4).

Compares SC1 (local temp store on HDD) against SC2 (temp store on SSD) in the
*ideal* experiment setting: two rows of racks, every other machine in each
rack flipped to SC2, run over consecutive workdays, then Student's t-tests on
Total Data Read and Average Task Execution Time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import Cluster, build_cluster
from repro.cluster.simulator import ClusterSimulator
from repro.core.application import (
    ParameterSpec,
    TuningApplication,
    TuningProposal,
    register_application,
)
from repro.experiment.ab import ABReport, compare_groups
from repro.experiment.design import GroupAssignment, ideal_setting
from repro.flighting.build import FlightPlan, PlannedFlight, SoftwareBuild
from repro.telemetry.frame import MachineHourFrame
from repro.telemetry.monitor import PerformanceMonitor
from repro.utils.errors import ExperimentError
from repro.utils.rng import RngStreams
from repro.utils.tables import TextTable
from repro.utils.units import bytes_to_pb
from repro.workload.generator import WorkloadGenerator, estimate_jobs_per_hour

__all__ = ["ScSelectionExperiment", "ScSelectionResult", "ScSelectionApplication"]


@dataclass
class ScSelectionResult:
    """The Table 4 comparison plus the winner call."""

    report: ABReport
    assignment: GroupAssignment
    n_days: float

    def winner(self) -> str:
        """'SC2' when the experiment arm dominates, 'SC1' when control does,
        'tie' otherwise."""
        throughput = self.report.winner("TotalDataRead", higher_is_better=True)
        latency = self.report.winner("AverageTaskSeconds", higher_is_better=False)
        if throughput == "experiment" and latency in ("experiment", "tie"):
            return "SC2"
        if throughput == "control" and latency in ("control", "tie"):
            return "SC1"
        if latency == "experiment" and throughput == "tie":
            return "SC2"
        if latency == "control" and throughput == "tie":
            return "SC1"
        return "tie"

    def summary(self) -> str:
        """Render the Table 4 layout (SC1, SC2, % change, t-value)."""
        data_read = self.report.comparison("TotalDataRead")
        task_time = self.report.comparison("AverageTaskSeconds")
        table = TextTable(
            ["Name", "SC1", "SC2", "% Changes", "t-value"],
            title="Performance metrics for different software configurations",
        )
        # Total Data Read reported as PB per machine-day scaled to the arm.
        scale = len(self.assignment.experiment) * max(self.n_days, 1.0)
        table.add_row(
            [
                "Total Data Read (PB)",
                f"{bytes_to_pb(data_read.control_mean * scale):.3f}",
                f"{bytes_to_pb(data_read.experiment_mean * scale):.3f}",
                f"{data_read.pct_change:+.1%}",
                f"{data_read.test.t_value:.1f}",
            ]
        )
        table.add_row(
            [
                "Average Task Execution Time (s)",
                f"{task_time.control_mean:.1f}",
                f"{task_time.experiment_mean:.1f}",
                f"{task_time.pct_change:+.1%}",
                f"{task_time.test.t_value:.1f}",
            ]
        )
        return table.render()


class ScSelectionExperiment:
    """Run the ideal-setting SC1 vs SC2 experiment on a cluster."""

    def __init__(self, cluster: Cluster, sku: str | None = None):
        """``sku`` restricts candidate racks; default picks the largest SC1 SKU."""
        self.cluster = cluster
        self.sku = sku

    def select_racks(self, n_racks: int) -> list[int]:
        """Pick ``n_racks`` homogeneous SC1 racks (two "rows" in the paper)."""
        candidates: list[int] = []
        for rack in self.cluster.racks():
            machines = self.cluster.machines_in_rack(rack)
            groups = {(m.sku.name, m.software.name) for m in machines}
            if len(groups) != 1:
                continue
            sku_name, sc_name = next(iter(groups))
            if sc_name != "SC1":
                continue
            if self.sku is not None and sku_name != self.sku:
                continue
            candidates.append(rack)
        if len(candidates) < n_racks:
            raise ExperimentError(
                f"only {len(candidates)} homogeneous SC1 racks available, "
                f"need {n_racks}"
            )
        return candidates[:n_racks]

    def prepare(self, n_racks: int = 4) -> GroupAssignment:
        """Split the selected racks into interleaved control/experiment arms
        and flip the experiment arm to SC2."""
        racks = self.select_racks(n_racks)
        assignment = ideal_setting(self.cluster, racks)
        build = SoftwareBuild(software_name="SC2")
        build.apply(self.cluster, assignment.experiment)
        return assignment

    def analyze(
        self,
        frame: MachineHourFrame,
        assignment: GroupAssignment,
        n_days: float,
    ) -> ScSelectionResult:
        """Produce the Table 4 report from collected telemetry."""
        monitor = PerformanceMonitor(frame)
        report = compare_groups(
            name="SC1-vs-SC2",
            monitor=monitor,
            assignment=assignment,
            metrics=("TotalDataRead", "AverageTaskSeconds", "BytesPerSecond"),
        )
        return ScSelectionResult(report=report, assignment=assignment, n_days=n_days)

    def run(
        self,
        simulator: ClusterSimulator,
        days: float = 5.0,
        n_racks: int = 4,
    ) -> ScSelectionResult:
        """Prepare arms, simulate ``days`` workdays, and analyze."""
        assignment = self.prepare(n_racks=n_racks)
        result = simulator.run(days * 24.0)
        return self.analyze(result.frame, assignment, n_days=days)


@register_application
class ScSelectionApplication(TuningApplication):
    """SC1-vs-SC2 selection through the unified lifecycle (Section 7.1).

    Experimental and advisory: ``propose`` runs the ideal-setting A/B on a
    fresh cluster built from the bound host environment and reports the
    winning software configuration. There is no deployable YARN config — the
    decision and the full Table 4 report ride in ``details`` — but the
    decision *is* flightable: when the challenger (SC2) wins,
    :meth:`flight_plan` pilots a
    :class:`~repro.flighting.build.SoftwareBuild` re-image on a slice of the
    incumbent population, the production safety check before any rack-scale
    rollout.
    """

    name = "sc-selection"
    mode = "experimental"
    requires_engine = False
    primary_metric = "BytesPerSecond"
    higher_is_better = True
    flight_metrics = ("BytesPerSecond", "AverageTaskSeconds")
    flight_metric = "BytesPerSecond"

    def __init__(
        self,
        sku: str | None = None,
        n_racks: int = 2,
        days: float = 1.0,
        occupancy: float = 0.7,
        seed: int = 4242,
    ):
        self.sku = sku
        self.n_racks = n_racks
        self.days = days
        self.occupancy = occupancy
        self.seed = seed

    def parameter_space(self) -> tuple[ParameterSpec, ...]:
        return (
            ParameterSpec(
                name="software_configuration",
                description="local temp store placement: SC1 keeps it on "
                "HDD, SC2 moves it to SSD",
                kind="choice",
                choices=("SC1", "SC2"),
                per_group=True,
            ),
        )

    def propose(self, observation, engine=None) -> TuningProposal:
        host = self.host
        cluster = build_cluster(host.fleet_spec, host.current_config.copy())
        experiment = ScSelectionExperiment(cluster, sku=self.sku)
        rate = estimate_jobs_per_hour(
            cluster.total_container_slots,
            self.occupancy,
            host.templates,
            mean_task_duration_s=420.0,
        )
        workload = WorkloadGenerator(
            host.templates,
            jobs_per_hour=rate,
            streams=RngStreams(self.seed),
        ).generate(self.days * 24.0)
        simulator = ClusterSimulator(
            cluster, workload, streams=RngStreams(self.seed + 1)
        )
        result = experiment.run(simulator, days=self.days, n_racks=self.n_racks)
        data_read = result.report.comparison("TotalDataRead")
        return TuningProposal(
            application=self.name,
            summary=(
                f"ideal-setting A/B over {self.n_racks} rack(s): winner "
                f"{result.winner()} (Total Data Read "
                f"{data_read.pct_change:+.1%}, t={data_read.test.t_value:.1f})"
            ),
            proposed_config=None,
            config_deltas={},
            metrics={
                "total_data_read_pct_change": data_read.pct_change,
                "t_value": data_read.test.t_value,
            },
            details=result,
        )

    def flight_plan(self, proposal) -> FlightPlan:
        """Pilot the winning re-image on the incumbent (SC1) population.

        Only a challenger win plans a flight: an SC1 win or a tie keeps the
        fleet as it is, so there is nothing to deploy — and nothing to
        pilot.
        """
        result: ScSelectionResult = proposal.details
        if result.winner() != "SC2":
            return FlightPlan()
        label = self.sku if self.sku is not None else "fleet"
        return FlightPlan(
            entries=(
                PlannedFlight(
                    build=SoftwareBuild(software_name="SC2"),
                    sku=self.sku,
                    software="SC1",
                    name=f"pilot-SC2-{label}",
                ),
            )
        )
