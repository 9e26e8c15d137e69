"""The KEA facade: one object wiring all modules of Figure 7.

:class:`Kea` owns the simulated "production" environment (fleet spec, current
YARN config, workload mix) and exposes the architecture's modules as methods:

* Performance Monitor — :meth:`observe` runs production and returns telemetry;
* Modeling — :meth:`calibrate` fits the What-if Engine; :meth:`tune` /
  :meth:`run_application` drive any registered
  :class:`~repro.core.application.TuningApplication` (Table 3) through the
  unified observe → calibrate → propose lifecycle;
* Flighting — :meth:`flight_validate` deploys a proposal to a machine subset;
* Deployment — :meth:`deployment_impact` measures a before/after rollout with
  treatment effects, and :meth:`adopt` makes a config the new production
  baseline.

Every simulation draws from named, derived RNG streams, so a `Kea` instance
is fully reproducible from its seed. ``deployment_impact`` reuses one
workload seed for the before and after runs: the comparison measures the
configuration change, not workload luck.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cluster import (
    Cluster,
    FleetSpec,
    build_cluster,
    default_fleet_spec,
    default_yarn_config,
)
from repro.cluster.config import YarnConfig
from repro.cluster.simulator import ClusterSimulator, SimulationConfig, SimulationResult
from repro.core.application import (
    APPLICATIONS,
    TuningApplication,
    TuningProposal,
)

# Importing any applications submodule runs the package __init__, which
# registers all five Table 3 applications in APPLICATIONS.
from repro.core.applications.yarn_config import YarnTuningResult
from repro.core.whatif import WhatIfEngine
from repro.flighting.build import FlightPlan, PlannedFlight
from repro.flighting.deployment import (
    DeploymentModule,
    RolloutCheckpoint,
    RolloutPlan,
    RolloutPolicy,
    RolloutWaveRecord,
)
from repro.flighting.flight import Flight
from repro.flighting.tool import FlightingTool, FlightReport
from repro.ml.huber import HuberRegressor
from repro.ml.model import LinearModelBase
from repro.obs.profile import attach_profile_spans
from repro.obs.trace import current_tracer
from repro.flighting.safety import GateVerdict, SafetyGate
from repro.stats.treatment import TreatmentEffect, paired_effect
from repro.telemetry.frame import MachineHourFrame
from repro.telemetry.monitor import PerformanceMonitor
from repro.utils.errors import ApplicationError, ConfigurationError
from repro.utils.rng import RngStreams
from repro.workload.generator import WorkloadGenerator, estimate_jobs_per_hour
from repro.workload.seasonality import SeasonalityProfile, SpikeProfile
from repro.workload.template import JobTemplate, default_templates

__all__ = [
    "Observation",
    "PairedWindow",
    "DeploymentImpact",
    "FlightValidation",
    "ApplicationRun",
    "StagedRollout",
    "Kea",
    "pair_rollout",
    "paired_impact",
]


@dataclass
class Observation:
    """One production observation window: cluster, telemetry, raw results."""

    cluster: Cluster
    monitor: PerformanceMonitor
    result: SimulationResult
    days: float


@dataclass
class PairedWindow:
    """One window of a paired before/after evaluation, as pairing reads it:
    its telemetry, its benchmark jobs' runtimes per template and the
    cluster's capacity. A rollout's treatment window also carries the wave
    records (impacts attached) and the rollout's halt state. Any process
    may simulate it."""

    frame: MachineHourFrame
    benchmark_runtimes: dict[str, list[float]]
    capacity: int
    waves: tuple[RolloutWaveRecord, ...] = ()
    machines_touched: int = 0
    completed: bool = False
    reverted: bool = False
    checkpoint: RolloutCheckpoint | None = None


@dataclass
class DeploymentImpact:
    """Before/after evaluation of a config rollout (Section 5.2.2)."""

    throughput: TreatmentEffect  # on machine-day Total Data Read
    latency: TreatmentEffect  # on machine-day average task seconds
    capacity_before: int
    capacity_after: int
    benchmark_runtime_change: dict[str, float]  # per-template relative change

    @property
    def capacity_gain(self) -> float:
        """Relative sellable-capacity change (container slots)."""
        if self.capacity_before <= 0:
            return 0.0
        return (self.capacity_after - self.capacity_before) / self.capacity_before

    def summary(self) -> str:
        """The paper's deployment readout."""
        lines = [
            f"throughput (Total Data Read): {self.throughput.relative_effect:+.1%} "
            f"(t={self.throughput.test.t_value:.2f})",
            f"task latency: {self.latency.relative_effect:+.1%} "
            f"(t={self.latency.test.t_value:.2f})",
            f"sellable capacity: {self.capacity_gain:+.1%} "
            f"({self.capacity_before} → {self.capacity_after} containers)",
        ]
        if self.benchmark_runtime_change:
            mean_change = float(np.mean(list(self.benchmark_runtime_change.values())))
            lines.append(f"benchmark job runtime: {mean_change:+.1%} on average")
        return "\n".join(lines)


@dataclass
class FlightValidation:
    """Outcome of one flighting window: per-flight reports plus, when a
    safety gate was supplied, its verdict on the flighted run."""

    reports: list[FlightReport]
    gate: GateVerdict | None = None


@dataclass
class StagedRollout:
    """Outcome of one wave-based fleet rollout (:meth:`Kea.staged_rollout`).

    ``waves`` are the per-wave impact records in execution order — fraction
    reached, machines newly covered, the safety-gate verdict that let the
    wave proceed (or halted it), and the wave's own treatment effect
    (flighted-so-far vs not-yet-covered machines inside its soak window).
    ``impact`` is the §5.2.2 before/after treatment-effect evaluation of the
    whole rollout window against an identical-workload baseline window.
    ``checkpoint`` is non-None exactly when a gate halted the rollout: pass
    it (with a ``resume_from_wave`` policy) to a later
    :meth:`Kea.staged_rollout` to re-enter at the failed wave.
    """

    waves: tuple[RolloutWaveRecord, ...]
    impact: DeploymentImpact
    machines_touched: int = 0
    #: Mirrors :attr:`~repro.flighting.deployment.RolloutExecution.completed`
    #: / ``reverted`` — the execution is the single source of these verdicts.
    completed: bool = False
    reverted: bool = False
    checkpoint: RolloutCheckpoint | None = None

    @property
    def failed_wave(self) -> RolloutWaveRecord | None:
        """The wave whose gate halted the rollout, when one did."""
        for wave in self.waves:
            if wave.gate is not None and not wave.gate.passed:
                return wave
        return None

    def summary(self) -> str:
        """Per-wave audit trail plus the rollout's measured impact."""
        lines = [wave.summary() for wave in self.waves]
        lines.append(self.impact.summary())
        return "\n".join(lines)


@dataclass
class ApplicationRun:
    """One application driven through the unified lifecycle by the facade."""

    application: str
    observation: Observation
    engine: WhatIfEngine | None
    proposal: TuningProposal

    def summary(self) -> str:
        """One-line operator readout of what the application proposed."""
        return f"[{self.application}] {self.proposal.summary}"


class Kea:
    """KEA wired to a simulated Cosmos-like production environment."""

    def __init__(
        self,
        fleet_spec: FleetSpec,
        yarn_config: YarnConfig | None = None,
        templates: tuple[JobTemplate, ...] | None = None,
        seasonality: SeasonalityProfile | SpikeProfile | None = None,
        jobs_per_hour: float | None = None,
        seed: int = 0,
        mean_task_duration_hint_s: float = 420.0,
        target_occupancy: float = 0.62,
    ):
        self.fleet_spec = fleet_spec
        self.current_config = (
            yarn_config.copy() if yarn_config is not None else default_yarn_config()
        )
        self.templates = templates if templates is not None else default_templates()
        self.seasonality = (
            seasonality if seasonality is not None else SeasonalityProfile()
        )
        self.streams = RngStreams(seed)
        self._run_counter = 0
        if jobs_per_hour is None:
            reference = build_cluster(fleet_spec, self.current_config.copy())
            jobs_per_hour = estimate_jobs_per_hour(
                reference.total_container_slots,
                target_occupancy,
                self.templates,
                mean_task_duration_s=mean_task_duration_hint_s,
            )
        self.jobs_per_hour = jobs_per_hour

    @classmethod
    def default(cls, seed: int = 0, scale: float = 1.0, **kwargs) -> "Kea":
        """A KEA instance over the default Figure 2-shaped fleet."""
        return cls(fleet_spec=default_fleet_spec(scale=scale), seed=seed, **kwargs)

    # ------------------------------------------------------------------
    # Production environment
    # ------------------------------------------------------------------
    def build_cluster(self, config: YarnConfig | None = None) -> Cluster:
        """A fresh cluster materialized with the given (default: current) config."""
        chosen = config if config is not None else self.current_config
        return build_cluster(self.fleet_spec, chosen.copy())

    def _next_streams(self, tag: str, reuse_tag: str | None = None) -> RngStreams:
        if reuse_tag is not None:
            return self.streams.spawn(reuse_tag)
        return self.streams.spawn(f"{tag}-{self._reserve_run()}")

    def _reserve_run(self) -> int:
        """Claim the next run number (each simulated window is a new draw)."""
        self._run_counter += 1
        return self._run_counter

    def _fresh_tag(self, prefix: str) -> str:
        """A workload tag no previous run of this instance has used.

        Paired evaluations (``deployment_impact``, ``benchmark_impact``) pin
        their before/after runs to one tag; the tag itself must advance the
        run counter, otherwise two consecutive evaluations would silently
        replay the identical workload.
        """
        return f"{prefix}-{self._reserve_run()}"

    def simulate(
        self,
        days: float,
        config: YarnConfig | None = None,
        sim_config: SimulationConfig | None = None,
        benchmark_period_hours: float = 0.0,
        workload_tag: str | None = None,
        load_multiplier: float = 1.0,
        actions: Callable[[ClusterSimulator], None] | None = None,
    ) -> Observation:
        """Run one production window and return its telemetry.

        ``workload_tag`` pins the workload RNG so two runs (e.g. before/after
        a config change) see the identical arrival sequence. ``actions`` may
        register scheduled actions on the simulator before it runs.
        """
        if days <= 0:
            raise ConfigurationError("days must be positive")
        cluster = self.build_cluster(config)
        streams = self._next_streams("run", reuse_tag=workload_tag)
        generator = WorkloadGenerator(
            self.templates,
            jobs_per_hour=self.jobs_per_hour * load_multiplier,
            seasonality=self.seasonality,
            streams=streams.spawn("workload"),
            benchmark_period_hours=benchmark_period_hours,
        )
        workload = generator.generate(days * 24.0)
        simulator = ClusterSimulator(
            cluster,
            workload,
            streams=streams.spawn("sim"),
            config=sim_config if sim_config is not None else SimulationConfig(),
        )
        if actions is not None:
            actions(simulator)
        tracer = current_tracer()
        with tracer.span(
            "kea.simulate", days=days, load_multiplier=load_multiplier
        ) as sim_span:
            result = simulator.run(days * 24.0)
        # Decompose the window's wall-clock into simulator phases so the
        # trace explains the same seconds the benchmarks report.
        attach_profile_spans(tracer, sim_span, result.profile)
        return Observation(
            cluster=cluster,
            monitor=PerformanceMonitor(result.frame),
            result=result,
            days=days,
        )

    def observe(self, days: float = 3.0, **kwargs) -> Observation:
        """Performance-Monitor entry point: observe current production."""
        return self.simulate(days, config=self.current_config, **kwargs)

    # ------------------------------------------------------------------
    # Modeling + optimization
    # ------------------------------------------------------------------
    def calibrate(
        self,
        monitor: PerformanceMonitor,
        model_factory: Callable[[], LinearModelBase] = HuberRegressor,
    ) -> WhatIfEngine:
        """Fit the What-if Engine on observed telemetry."""
        engine = WhatIfEngine(model_factory=model_factory)
        engine.calibrate(monitor)
        return engine

    # ------------------------------------------------------------------
    # Unified application lifecycle
    # ------------------------------------------------------------------
    def application(
        self, application: str | TuningApplication, **application_kwargs
    ) -> TuningApplication:
        """Resolve an application (registry name or instance) bound to this
        environment. Constructor kwargs only apply to names."""
        if isinstance(application, TuningApplication):
            if application_kwargs:
                raise ApplicationError(
                    "constructor kwargs only apply when the application is "
                    "given by name; configure the instance directly"
                )
            return application.bind(self)
        return APPLICATIONS.create(application, **application_kwargs).bind(self)

    def tune(
        self,
        application: str | TuningApplication = "yarn-config",
        observation: Observation | None = None,
        engine: WhatIfEngine | None = None,
        observe_days: float = 3.0,
        **application_kwargs,
    ) -> TuningProposal:
        """Run one application's observe → calibrate → propose lifecycle.

        The generic entry point behind all of Table 3: ``application`` names
        any registered :class:`~repro.core.application.TuningApplication`
        (or is an instance). A missing ``observation`` is collected with the
        application's observation overrides (e.g. resource sampling for SKU
        design); a missing ``engine`` is calibrated only when the
        application requires one.
        """
        app = self.application(application, **application_kwargs)
        return self._run_lifecycle(app, observation, engine, observe_days).proposal

    def run_application(
        self,
        name: str | TuningApplication,
        observe_days: float = 3.0,
        **application_kwargs,
    ) -> ApplicationRun:
        """Full lifecycle of one named application, with its artifacts.

        Like :meth:`tune`, but returns the observation and engine alongside
        the proposal so callers can flight/evaluate/deploy from one record::

            run = kea.run_application("queue-tuning")
            kea.adopt(run.proposal.proposed_config)
        """
        app = self.application(name, **application_kwargs)
        return self._run_lifecycle(app, None, None, observe_days)

    def _run_lifecycle(
        self,
        app: TuningApplication,
        observation: Observation | None,
        engine: WhatIfEngine | None,
        observe_days: float,
    ) -> ApplicationRun:
        """The shared observe → calibrate → propose body of :meth:`tune` and
        :meth:`run_application`."""
        tracer = current_tracer()
        if observation is None:
            with tracer.span("app.observe", application=app.name):
                observation = self.observe(
                    days=observe_days, **app.observation_overrides()
                )
        if engine is None and app.requires_engine:
            with tracer.span("app.calibrate", application=app.name):
                engine = self.calibrate(observation.monitor)
        with tracer.span("app.propose", application=app.name):
            proposal = app.propose(observation, engine)
        return ApplicationRun(
            application=app.name,
            observation=observation,
            engine=engine,
            proposal=proposal,
        )

    # ------------------------------------------------------------------
    # Flighting + deployment
    # ------------------------------------------------------------------
    def flight_validate(
        self,
        tuning: YarnTuningResult | TuningProposal,
        hours: float = 24.0,
        machines_per_group: int = 8,
        metrics: tuple[str, ...] = ("AverageRunningContainers", "CpuUtilization"),
        load_multiplier: float = 1.6,
    ) -> list[FlightReport]:
        """Pilot flights: verify the new limits actually move the direct metrics.

        Mirrors the paper's first pilot flights, which confirmed that changing
        ``max_num_running_containers`` changes observed running containers.
        Flights run in the demand-bound regime (``load_multiplier`` > 1): a
        raised limit can only show up in *observed* running containers when
        there is queued work ready to fill the new slots.
        """
        return self.flight_campaign(
            FlightPlan.from_container_deltas(tuning.config_deltas),
            hours=hours,
            machines_per_group=machines_per_group,
            metrics=metrics,
            load_multiplier=load_multiplier,
        ).reports

    def flight_campaign(
        self,
        plan: FlightPlan,
        hours: float = 24.0,
        machines_per_group: int = 8,
        metrics: tuple[str, ...] = ("AverageRunningContainers", "CpuUtilization"),
        load_multiplier: float = 1.6,
        workload_tag: str | None = None,
        safety_gate: SafetyGate | None = None,
        actions: Callable[[ClusterSimulator], None] | None = None,
    ) -> FlightValidation:
        """Campaign-grade flighting: pilot flights plus an optional safety gate.

        ``plan`` is a :class:`~repro.flighting.build.FlightPlan` of arbitrary
        config builds (YARN limits, container deltas, software re-images,
        power caps, composites) with declarative machine selectors (the
        classic per-group container-delta pilot is
        :meth:`~repro.flighting.build.FlightPlan.from_container_deltas`).
        Each entry flights at most half its selected population (capped at
        ``machines_per_group``) so the unflighted half remains the control.

        The continuous tuning service drives this hook directly: it pins the
        flight window to an explicit ``workload_tag`` (so re-running the same
        campaign round replays the same arrivals, in any process) and asks a
        :class:`~repro.flighting.safety.SafetyGate` to judge the flighted run
        before the rollout may proceed. ``actions`` registers extra
        scheduled actions (e.g. a scenario's fault plan) on the flight
        window's simulator before it runs.
        """
        reports: list[FlightReport] = []
        cluster = self.build_cluster()

        flights: list[Flight] = []
        for entry in plan:
            machines = _pick_pilot_machines(entry, cluster, machines_per_group)
            if len(machines) < 2:
                continue
            flights.append(
                Flight(
                    name=entry.name,
                    build=entry.build,
                    machines=machines,
                    start_hour=0.0,
                    end_hour=hours,
                )
            )
        if not flights:
            return FlightValidation(reports=reports, gate=None)

        # Run the flights against a demand-bound window on this cluster. One
        # FlightingTool both schedules the flights (before the run) and
        # evaluates them (after).
        streams = self._next_streams("flight", reuse_tag=workload_tag)
        generator = WorkloadGenerator(
            self.templates,
            jobs_per_hour=self.jobs_per_hour * load_multiplier,
            seasonality=self.seasonality,
            streams=streams.spawn("workload"),
        )
        workload = generator.generate(hours)
        simulator = ClusterSimulator(cluster, workload, streams=streams.spawn("sim"))
        tool = FlightingTool(simulator)
        for flight in flights:
            tool.add_flight(flight)
        if actions is not None:
            actions(simulator)
        tracer = current_tracer()
        with tracer.span(
            "kea.flight", hours=hours, flights=len(flights)
        ) as flight_span:
            result = simulator.run(hours)
        attach_profile_spans(tracer, flight_span, result.profile)
        monitor = PerformanceMonitor(result.frame)
        for flight in flights:
            reports.append(tool.evaluate(flight, monitor, metrics=metrics))
        verdict = safety_gate.evaluate(simulator) if safety_gate is not None else None
        return FlightValidation(reports=reports, gate=verdict)

    def deployment_impact(
        self,
        proposed: YarnConfig,
        days: float = 2.0,
        benchmark_period_hours: float = 6.0,
        load_multiplier: float = 1.6,
        workload_tag: str | None = None,
        actions: Callable[[ClusterSimulator], None] | None = None,
    ) -> DeploymentImpact:
        """Before/after rollout evaluation with treatment effects (§5.2.2).

        Both runs replay the identical workload arrival sequence, so the
        paired per-machine effects isolate the configuration change. The
        default ``load_multiplier`` pushes the cluster into the demand-bound
        regime Cosmos operates in (there is always queued work), where extra
        well-placed containers convert into throughput. Pass ``workload_tag``
        to pin the window explicitly (campaign replay/caching); otherwise a
        fresh tag is reserved per call, so consecutive evaluations never
        silently replay the same workload. ``actions`` (e.g. a scenario's
        fault plan) is applied to *both* windows, so the pairing stays fair
        under injected faults.
        """
        tag = workload_tag if workload_tag is not None else self._fresh_tag("deploy")
        window = dict(
            benchmark_period_hours=benchmark_period_hours,
            load_multiplier=load_multiplier,
            actions=actions,
        )
        with current_tracer().span("kea.deployment_impact", days=days, workload_tag=tag):
            before = self.paired_window("window.before", days, tag, **window)
            after = self.paired_window("window.after", days, tag, config=proposed, **window)
        return paired_impact(before, after)

    def staged_rollout(
        self,
        plan: RolloutPlan | FlightPlan,
        policy: RolloutPolicy | None = None,
        days: float = 1.0,
        benchmark_period_hours: float = 0.0,
        load_multiplier: float = 1.6,
        workload_tag: str | None = None,
        gate: SafetyGate | None = None,
        checkpoint: RolloutCheckpoint | None = None,
        actions: Callable[[ClusterSimulator], None] | None = None,
    ) -> StagedRollout:
        """Ship a validated plan across the fleet in gated waves (§5.2.2).

        ``plan`` is a staged :class:`~repro.flighting.deployment.RolloutPlan`,
        or a :class:`~repro.flighting.build.FlightPlan` to stage under
        ``policy`` (default: pilot → 10% → 50% → fleet). The rollout
        executes inside one ``days``-long production window: each wave widens every build's
        coverage to its fleet fraction, the policy's latency gate (or the
        ``gate`` override) is evaluated between waves, and a failing gate
        reverts every already-deployed wave — the fleet ends bit-identical
        to its pre-rollout configuration, and the returned rollout carries
        the halt's :class:`~repro.flighting.deployment.RolloutCheckpoint`.

        Passing that ``checkpoint`` back (with the plan's policy set to
        ``resume_from_wave``) *resumes* the rollout in this window: the
        checkpointed coverage is restored at window start — the pilot and
        other already-proven waves are not re-run — and execution re-enters
        at the failed wave, gates included.

        The returned :class:`StagedRollout` carries the per-wave records —
        each deployed wave annotated with its own treatment effect
        (flighted-so-far vs not-yet-covered machines in the wave's soak
        window) — plus a :class:`DeploymentImpact` pairing the rollout
        window against a baseline window replaying the identical workload
        arrivals. ``actions`` (e.g. a scenario's fault plan) is applied to
        both the baseline and the rollout window, so a mid-rollout fault
        degrades the rollout's gates without biasing the paired impact.

        The two windows are independent: the tuning service runs the same
        two :meth:`paired_window` calls in separate worker processes and
        pairs them with the same :func:`pair_rollout`.
        """
        plan = self.rollout_plan(plan, policy, days=days, checkpoint=checkpoint)
        tag = workload_tag if workload_tag is not None else self._fresh_tag("rollout")
        window = dict(
            benchmark_period_hours=benchmark_period_hours,
            load_multiplier=load_multiplier,
            actions=actions,
        )
        with current_tracer().span(
            "kea.staged_rollout",
            days=days,
            workload_tag=tag,
            resuming=checkpoint is not None,
        ):
            baseline = self.paired_window("window.baseline", days, tag, **window)
            treatment = self.paired_window(
                "window.rollout", days, tag, rollout=plan, gate=gate,
                checkpoint=checkpoint, **window,
            )
        return pair_rollout(baseline, treatment)

    def rollout_plan(
        self,
        plan: RolloutPlan | FlightPlan,
        policy: RolloutPolicy | None = None,
        days: float = 1.0,
        checkpoint: RolloutCheckpoint | None = None,
    ) -> RolloutPlan:
        """Stage ``plan``, failing an invalid one (bad schedule, overlapping
        selectors, empty selections, a resume without its checkpoint) before
        any window is paid for."""
        if isinstance(plan, FlightPlan):
            plan = RolloutPlan.from_flight_plan(plan, policy)
        elif policy is not None:
            raise ConfigurationError(
                "policy only applies when staging a FlightPlan; the RolloutPlan "
                "already carries one"
            )
        if not plan:
            raise ConfigurationError("staged rollout needs a non-empty plan")
        DeploymentModule.resolve_resume(plan, checkpoint)
        plan.validate(self.build_cluster())
        plan.policy.schedule(days * 24.0)
        return plan

    def paired_window(
        self,
        span: str,
        days: float,
        workload_tag: str,
        rollout: RolloutPlan | None = None,
        gate: SafetyGate | None = None,
        checkpoint: RolloutCheckpoint | None = None,
        actions: Callable[[ClusterSimulator], None] | None = None,
        **simulate,
    ) -> PairedWindow:
        """One side of a paired evaluation, traced as a ``span`` span: the
        workload pinned to ``workload_tag``, simulated with the
        :meth:`simulate` keywords (``config`` defaults to the current one),
        with ``rollout``'s waves deployed in gated steps when given
        (``rollout`` must have passed :meth:`rollout_plan`)."""
        executions: list = []

        def register(sim: ClusterSimulator) -> None:
            if actions is not None:
                actions(sim)
            if rollout is not None:
                executions.append(
                    DeploymentModule(sim.cluster).schedule(
                        sim, rollout, days * 24.0, gate=gate, checkpoint=checkpoint
                    )
                )

        with current_tracer().span(span):
            observation = self.simulate(
                days,
                workload_tag=workload_tag,
                actions=register if rollout is not None else actions,
                **simulate,
            )
        window = PairedWindow(
            frame=observation.monitor.frame,
            benchmark_runtimes=_benchmark_runtimes(observation),
            capacity=observation.cluster.total_container_slots,
        )
        if executions:
            (execution,) = executions
            DeploymentModule.attach_wave_impacts(window.frame, execution)
            window.waves = tuple(execution.records)
            window.machines_touched = execution.machines_touched
            window.completed = execution.completed
            window.reverted = execution.reverted
            window.checkpoint = execution.checkpoint
        return window

    def benchmark_impact(
        self,
        proposed: YarnConfig,
        days: float = 1.0,
        benchmark_period_hours: float = 3.0,
        load_multiplier: float = 1.0,
        workload_tag: str | None = None,
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Before/after runtimes of the benchmark jobs (Figure 11).

        Returns, per benchmark template, the (before, after) runtime arrays —
        ready for ECDF plotting and mean-change computation. Runs at normal
        production load by default: job runtimes at deep saturation are
        dominated by queueing noise, which is not what Figure 11 measures.
        """
        tag = workload_tag if workload_tag is not None else self._fresh_tag("bench")
        window = dict(
            benchmark_period_hours=benchmark_period_hours, load_multiplier=load_multiplier
        )
        before = self.paired_window("window.before", days, tag, **window).benchmark_runtimes
        after = self.paired_window(
            "window.after", days, tag, config=proposed, **window
        ).benchmark_runtimes
        return {
            template: (np.asarray(before[template]), np.asarray(after[template]))
            for template in sorted(set(before) & set(after))
        }

    def adopt(self, config: YarnConfig) -> None:
        """Make ``config`` the production baseline for subsequent runs."""
        self.current_config = config.copy()


def _pick_pilot_machines(
    entry: PlannedFlight, cluster: Cluster, machines_per_group: int
) -> list:
    """The pilot population for one planned flight.

    At most half the selected machines (capped at ``machines_per_group``) so
    the other half stays as the control arm. Chassis-aligned flights take
    whole chassis — a chassis-wide build (power cap) deployed to part of a
    chassis would silently cap its own controls.
    """
    candidates = entry.select_machines(cluster)
    max_flighted = len(candidates) // 2
    n_flighted = min(machines_per_group, max_flighted)
    if n_flighted < 2:
        return []
    if not entry.chassis_aligned:
        return candidates[:n_flighted]
    # Whole chassis only, and never more than half the candidates: a chassis
    # that would eat into the control arm is skipped (a smaller later
    # chassis may still fit). A population living in one big chassis simply
    # cannot host a controlled pilot and the flight is skipped.
    chassis_groups: dict[int, list] = {}
    for machine in candidates:
        chassis_groups.setdefault(machine.chassis, []).append(machine)
    machines: list = []
    for group in chassis_groups.values():
        if len(machines) >= n_flighted:
            break
        if len(machines) + len(group) > max_flighted:
            continue
        machines.extend(group)
    return machines if len(machines) >= 2 else []


def pair_rollout(baseline: PairedWindow, treatment: PairedWindow) -> StagedRollout:
    """A staged rollout's outcome from its two windows (the pure pairing step)."""
    return StagedRollout(
        waves=treatment.waves,
        impact=paired_impact(baseline, treatment),
        machines_touched=treatment.machines_touched,
        completed=treatment.completed,
        reverted=treatment.reverted,
        checkpoint=treatment.checkpoint,
    )


def paired_impact(before: PairedWindow, after: PairedWindow) -> DeploymentImpact:
    """§5.2.2 treatment-effect evaluation of two identical-workload windows."""
    before_days = PerformanceMonitor(before.frame).daily_aggregates()
    after_days = PerformanceMonitor(after.frame).daily_aggregates()

    def paired_machine_day(field: str) -> tuple[np.ndarray, np.ndarray]:
        before_vals = {(a.machine_id, a.day): getattr(a, field) for a in before_days}
        after_vals = {(a.machine_id, a.day): getattr(a, field) for a in after_days}
        keys = sorted(set(before_vals) & set(after_vals))
        return (
            np.array([before_vals[k] for k in keys]),
            np.array([after_vals[k] for k in keys]),
        )

    throughput = paired_effect(*paired_machine_day("total_data_read_bytes"))
    latency = paired_effect(*paired_machine_day("avg_task_seconds"))

    benchmark_change: dict[str, float] = {}
    before_bench = before.benchmark_runtimes
    after_bench = after.benchmark_runtimes
    for template in sorted(set(before_bench) & set(after_bench)):
        b = float(np.mean(before_bench[template]))
        a = float(np.mean(after_bench[template]))
        if b > 0:
            benchmark_change[template] = (a - b) / b

    return DeploymentImpact(
        throughput=throughput,
        latency=latency,
        capacity_before=before.capacity,
        capacity_after=after.capacity,
        benchmark_runtime_change=benchmark_change,
    )


def _benchmark_runtimes(observation: Observation) -> dict[str, list[float]]:
    runtimes: dict[str, list[float]] = {}
    for job in observation.result.jobs:
        if job.is_benchmark:
            runtimes.setdefault(job.template, []).append(job.runtime)
    return runtimes
