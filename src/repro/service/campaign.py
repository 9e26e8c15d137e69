"""The campaign state machine: one tenant's continuous tuning loop.

A :class:`Campaign` steps a tenant through the paper's full loop —

    OBSERVE → CALIBRATE → TUNE → FLIGHT → DEPLOY / ROLLBACK

— with significance gates between the risky transitions, for *any*
registered :class:`~repro.core.application.TuningApplication` (the tenant's
or scenario's choice; YARN config tuning by default). Simulation-heavy
phases (OBSERVE, FLIGHT, DEPLOY evaluation) are exposed as
:class:`~repro.service.pool.SimulationRequest` values so an orchestrator can
fan them out, cache them, or run them inline; the cheap analytical phases
(CALIBRATE, TUNE) execute inside :meth:`advance` by driving the
application's lifecycle.

The FLIGHT phase is **build-native**: whatever
:meth:`~repro.core.application.TuningApplication.flight_plan` returns —
container-delta builds for YARN tuning, queue-bound
:class:`~repro.flighting.build.YarnLimitsBuild` pilots for queue tuning, an
SC2 :class:`~repro.flighting.build.SoftwareBuild` re-image for SC selection,
a Feature+cap composite for power capping — is deployed to pilot machines
and measured on the application's own direct metrics. Observation windows
carry the application's
:class:`~repro.cluster.simulator.ObservationSpec`, so per-application
telemetry (sku-design's resource samples) flows through the pool and cache
with everything else. Advisory applications (power capping, SKU design, SC
selection) still converge on a recommendation — after their pilot flight
validates it, when they planned one. Guardrails reuse the library's
deployment machinery: pilot-flight significance tests
(:mod:`repro.flighting.tool`), the in-flight latency gate and
:class:`~repro.flighting.safety.DeploymentGuardrail`
(:mod:`repro.flighting.safety`), and the treatment effects of
:mod:`repro.stats.treatment` carried by
:class:`~repro.core.kea.DeploymentImpact`. A rollout that regresses is
rolled back: the proposed config is discarded and the baseline stands.

The DEPLOY phase is **staged**: a proposal whose flight plan validated ships
as a wave-based rollout
(:meth:`~repro.core.application.TuningApplication.rollout_plan` — pilot →
10% → 50% → fleet under the default
:class:`~repro.flighting.deployment.RolloutPolicy`), with the safety gate
re-evaluated between waves and every deployed wave reverted if a gate fails
mid-rollout; each wave's verdict — and its measured per-wave treatment
effect — lands in ``CampaignReport.rollout_waves``. Only build-less
proposals fall back to the legacy all-at-once ``impact`` evaluation.

Halted rollouts are **resumable**: a mid-rollout gate failure ends the round
``ROLLED_BACK`` with the baseline standing, but the halt's
:class:`~repro.flighting.deployment.RolloutCheckpoint` is persisted (on the
campaign and its :class:`CampaignReport`), and the *next* round re-enters at
the failed wave through a ``resume`` request — the checkpointed coverage is
restored at window start instead of re-running the pilot. A campaign that
ends while a checkpoint is still pending reports it, so an operator (or a
follow-up campaign) can pick the rollout up where it stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from time import perf_counter

from repro.cluster.cluster import build_cluster, default_yarn_config
from repro.cluster.config import YarnConfig
from repro.cluster.simulator import SimulationResult
from repro.core.application import APPLICATIONS, TuningApplication, TuningProposal
from repro.core.kea import DeploymentImpact, FlightValidation, Observation
from repro.core.whatif import WhatIfEngine
from repro.cost import PriceBook, default_price_book, frame_cost, window_cost
from repro.flighting.build import FlightPlan
from repro.flighting.deployment import (
    RolloutCheckpoint,
    RolloutPlan,
    RolloutPolicy,
    RolloutWaveRecord,
)
from repro.flighting.safety import DeploymentGuardrail
from repro.obs.ledger import TuningCostLedger
from repro.obs.metrics import OPS_METRICS
from repro.obs.trace import span as trace_span
from repro.service.pool import SimulationOutcome, SimulationRequest
from repro.service.registry import TenantSpec
from repro.service.scenarios import Scenario
from repro.telemetry.monitor import MonitorSnapshot, PerformanceMonitor
from repro.utils.errors import ServiceError

__all__ = [
    "CampaignPhase",
    "CampaignEvent",
    "CampaignGuardrails",
    "CampaignReport",
    "Campaign",
]


class CampaignPhase(Enum):
    """Where a campaign stands; the last three are terminal."""

    OBSERVE = "observe"
    CALIBRATE = "calibrate"
    TUNE = "tune"
    FLIGHT = "flight"
    DEPLOY = "deploy"
    DEPLOYED = "deployed"
    ROLLED_BACK = "rolled_back"
    CONVERGED = "converged"


TERMINAL_PHASES = frozenset(
    {CampaignPhase.DEPLOYED, CampaignPhase.ROLLED_BACK, CampaignPhase.CONVERGED}
)

#: Which request kind each simulation-heavy phase waits on. DEPLOY is
#: resolved dynamically (:meth:`Campaign._request_kind`): a pending halt
#: checkpoint re-enters the rollout as a ``resume``, a proposal with a
#: flight plan ships as a staged ``rollout``, and one without falls back to
#: the legacy all-at-once ``impact`` evaluation.
_REQUEST_KIND = {
    CampaignPhase.OBSERVE: "observe",
    CampaignPhase.FLIGHT: "flight",
}


@dataclass(frozen=True)
class _HaltedRollout:
    """Everything a resume round needs, kept in lockstep by construction.

    The checkpoint is meaningless without the plan it indexes into and the
    proposal it would adopt, so the four travel as one value: either a halt
    is pending (all fields valid) or it is not (the campaign holds None).
    """

    checkpoint: RolloutCheckpoint
    plan: RolloutPlan
    flight_plan: FlightPlan | None
    tuning: TuningProposal


@dataclass(frozen=True, slots=True)
class CampaignEvent:
    """One line of a campaign's audit trail."""

    round: int
    phase: CampaignPhase
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"r{self.round} {self.phase.value}: {self.detail}"


@dataclass
class CampaignGuardrails:
    """Everything that may stop a rollout before or after it ships.

    * pilot flights must move the direct metric significantly (the paper's
      first validation: changing the container limit must visibly change
      running containers) — unless ``require_flight_significance`` is off.
      ``flight_metric`` of None uses the application's own
      :attr:`~repro.core.application.TuningApplication.flight_metric`
      (queue tuning gates on queue length, SC selection on throughput);
      set it to a metric name to override for every application;
    * the in-flight latency gate (window/allowance) must pass;
    * the measured rollout must pass ``deployment``
      (:class:`~repro.flighting.safety.DeploymentGuardrail`), else the
      config is rolled back.
    """

    deployment: DeploymentGuardrail = field(default_factory=DeploymentGuardrail)
    require_flight_significance: bool = True
    flight_metric: str | None = None
    flight_alpha: float = 0.05
    flight_gate_window_hours: int = 2
    flight_gate_allowance: float = 0.10


@dataclass
class CampaignReport:
    """Final readout of one tenant's campaign."""

    tenant: str
    scenario: str
    application: str
    final_phase: CampaignPhase
    rounds_run: int
    deployments: int
    rollbacks: int
    capacity_before: int
    capacity_after: int
    history: tuple[CampaignEvent, ...]
    last_impact: DeploymentImpact | None
    #: One entry per executed FLIGHT phase: the pilot-flight reports and the
    #: in-flight safety-gate verdict, in round order.
    flight_validations: tuple[FlightValidation, ...] = ()
    #: One entry per rollout wave the DEPLOY phases executed, in wave order:
    #: fraction reached, machines covered, the guardrail verdict that let
    #: the wave proceed (or halted the rollout), and the wave's measured
    #: treatment effect.
    rollout_waves: tuple[RolloutWaveRecord, ...] = ()
    #: Non-None when the campaign ended with a halted rollout not yet
    #: resumed: the coverage checkpoint a later round (or a follow-up
    #: campaign) can re-enter the rollout from.
    rollout_checkpoint: RolloutCheckpoint | None = None
    #: What the campaign itself cost: simulated machine-hours the tuning
    #: windows occupied plus the service wall-clock spent simulating them,
    #: accrued per phase (out-of-band — never consulted by tuning logic).
    cost_ledger: TuningCostLedger = field(default_factory=TuningCostLedger)

    @property
    def capacity_gain(self) -> float:
        """Relative sellable-capacity change over the whole campaign."""
        if self.capacity_before <= 0:
            return 0.0
        return (self.capacity_after - self.capacity_before) / self.capacity_before

    def summary(self) -> str:
        """Multi-line operator readout."""
        lines = [
            f"campaign {self.tenant!r} running {self.application!r} on "
            f"scenario {self.scenario!r}: "
            f"{self.final_phase.value} after {self.rounds_run} round(s) "
            f"({self.deployments} deployed, {self.rollbacks} rolled back)",
            f"sellable capacity: {self.capacity_before} → {self.capacity_after} "
            f"containers ({self.capacity_gain:+.1%})",
        ]
        lines.extend(f"  {event}" for event in self.history)
        return "\n".join(lines)


class Campaign:
    """Drives one tenant through OBSERVE → … → DEPLOY/ROLLBACK rounds.

    The campaign is a pull-based state machine: :meth:`pending_request`
    describes the simulation it is waiting on (or None when terminal), and
    :meth:`advance` consumes that simulation's outcome, runs any cheap
    analytical phases, and moves on. Workload tags are deterministic
    functions of (scenario, round, step), so a campaign replays identically
    wherever its requests are executed.

    ``application`` selects which registered
    :class:`~repro.core.application.TuningApplication` the TUNE phase runs
    (a name or an instance). When omitted, the tenant spec's choice wins,
    then the scenario's, then the default ``"yarn-config"``.
    """

    def __init__(
        self,
        spec: TenantSpec,
        scenario: Scenario,
        guardrails: CampaignGuardrails | None = None,
        rounds: int = 1,
        observe_days: float = 1.0,
        impact_days: float = 1.0,
        flight_hours: float = 8.0,
        machines_per_group: int = 8,
        initial_config: YarnConfig | None = None,
        application: str | TuningApplication | None = None,
        rollout_policy: RolloutPolicy | None = None,
        require_flight_validation: bool = False,
        resume_halted_rollouts: bool = True,
        resume_checkpoint: RolloutCheckpoint | None = None,
        price_book: PriceBook | None = None,
    ):
        if rounds < 1:
            raise ServiceError("a campaign needs at least one round")
        self.spec = spec
        self.scenario = scenario
        self.guardrails = guardrails if guardrails is not None else CampaignGuardrails()
        self.rounds = rounds
        self.observe_days = observe_days
        self.impact_days = impact_days
        self.flight_hours = flight_hours
        self.machines_per_group = machines_per_group
        self.config = (
            initial_config.copy() if initial_config is not None else default_yarn_config()
        )
        self._initial_config = self.config.copy()
        self.application = self._resolve_application(application)
        #: Wave schedule the DEPLOY phase ships validated proposals under
        #: (None: the application's default pilot → 10% → 50% → fleet).
        self.rollout_policy = rollout_policy
        #: When set, an advisory recommendation whose pilot flight was
        #: inconclusive is withheld (the round rolls back) instead of
        #: converging with the verdict merely recorded.
        self.require_flight_validation = require_flight_validation
        #: When set (the default), a mid-rollout halt persists its coverage
        #: checkpoint and the next round re-enters at the failed wave
        #: through a ``resume`` request instead of restarting from OBSERVE.
        self.resume_halted_rollouts = resume_halted_rollouts

        #: Prices consumed windows into dollars (per-SKU machine-hour rates
        #: plus power). Every consumed outcome gets a CostReport attached
        #: and its total accrued in the ledger.
        self.price_book = (
            price_book if price_book is not None else default_price_book()
        )

        self.round = 1
        self.phase = CampaignPhase.OBSERVE
        #: Per-phase cost accounting (simulated machine-hours + wall-clock).
        self.cost_ledger = TuningCostLedger(tenant=spec.name)
        self.history: list[CampaignEvent] = []
        self.deployments = 0
        self.rollbacks = 0
        self.snapshots: list[MonitorSnapshot] = []
        self.engine: WhatIfEngine | None = None
        self.tuning: TuningProposal | None = None
        self.last_impact: DeploymentImpact | None = None
        self.flight_validations: list[FlightValidation] = []
        self.rollout_waves: list[RolloutWaveRecord] = []
        self._flight_plan: FlightPlan | None = None
        self._staged_plan: RolloutPlan | None = None
        #: Pending resume state: the halted rollout's checkpoint together
        #: with the plan/proposal it belongs to (None once resumed).
        self._halted: _HaltedRollout | None = None
        #: Cross-campaign resume seed: a checkpoint harvested from an
        #: *earlier* campaign (same tenant, same knobs — e.g. pulled from a
        #: :class:`~repro.service.store.CampaignStore` after a service was
        #: retired). Consumed by the first DEPLOY entry: instead of staging
        #: the rollout from the pilot, the campaign re-enters at the
        #: checkpoint's halted wave, exactly as an in-campaign halt would.
        self._seed_checkpoint = resume_checkpoint

    @property
    def rollout_checkpoint(self) -> RolloutCheckpoint | None:
        """The pending halt's checkpoint (None when no resume is due)."""
        return self._halted.checkpoint if self._halted is not None else None

    def _resolve_application(
        self, application: str | TuningApplication | None
    ) -> TuningApplication:
        """Campaign arg > tenant spec > scenario > the yarn-config default."""
        candidate = application
        if candidate is None:
            candidate = self.spec.application
        if candidate is None:
            candidate = self.scenario.application
        if candidate is None:
            candidate = "yarn-config"
        if isinstance(candidate, str):
            return APPLICATIONS.create(candidate)
        return candidate

    # ------------------------------------------------------------------
    # State machine surface
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once the campaign reached a terminal phase."""
        return self.phase in TERMINAL_PHASES

    def workload_tag(self, step: str) -> str:
        """The deterministic tag for this round's ``step`` window."""
        return f"campaign/{self.scenario.name}/r{self.round}/{step}"

    def _request_kind(self) -> str | None:
        """The request kind the current phase waits on (None: analytical)."""
        if self.phase is CampaignPhase.DEPLOY:
            # A pending checkpoint means this DEPLOY re-enters the halted
            # rollout at its failed wave instead of staging afresh.
            if self.rollout_checkpoint is not None:
                return "resume"
            # Keyed on the *rollout* plan, not the flight plan: an
            # application may pilot builds yet stage nothing (an empty
            # rollout_plan() means "nothing is deployable in waves"), and
            # that proposal must fall back to the all-at-once impact path.
            return "rollout" if self._deploy_plan() else "impact"
        return _REQUEST_KIND.get(self.phase)

    def _deploy_plan(self) -> RolloutPlan | None:
        """The staged rollout the DEPLOY phase executes (memoized per round)."""
        if not self._flight_plan or self.tuning is None:
            return None
        if self._staged_plan is None:
            self._staged_plan = self.application.rollout_plan(
                self.tuning, policy=self.rollout_policy
            )
        return self._staged_plan

    def pending_request(self) -> SimulationRequest | None:
        """The simulation this campaign waits on, or None when terminal."""
        if self.done:
            return None
        kind = self._request_kind()
        if kind is None:  # pragma: no cover - CALIBRATE/TUNE never persist
            raise ServiceError(
                f"campaign {self.spec.name!r} is mid-{self.phase.value}; "
                "analytical phases resolve inside advance()"
            )
        common = dict(
            tenant=self.spec.name,
            kind=kind,
            spec=self.spec,
            scenario=self.scenario,
            config=self.config.copy(),
            workload_tag=self.workload_tag(kind),
        )
        if kind == "observe":
            # The application's telemetry needs travel with the window, so
            # pool workers record them and the cache keys on them.
            return SimulationRequest(
                days=self.observe_days,
                observation=self.application.observation_spec(),
                **common,
            )
        if kind == "flight":
            assert self.tuning is not None
            plan = (
                self._flight_plan
                if self._flight_plan is not None
                else self.application.flight_plan(self.tuning)
            )
            return SimulationRequest(
                flights=tuple(plan),
                flight_metrics=self._flight_metrics(),
                flight_hours=self.flight_hours,
                machines_per_group=self.machines_per_group,
                gate_window_hours=self.guardrails.flight_gate_window_hours,
                gate_allowance=self.guardrails.flight_gate_allowance,
                **common,
            )
        assert self.tuning is not None
        if kind == "resume":
            # Re-enter the halted rollout at its failed wave: the staged
            # plan (policy pinned to the checkpoint's wave) plus the
            # checkpoint whose coverage the window restores at start.
            return SimulationRequest(
                days=self.impact_days,
                rollout=self._staged_plan,
                checkpoint=self.rollout_checkpoint,
                **common,
            )
        if kind == "rollout":
            # The validated flight plan drives a staged fleet rollout: the
            # same builds the pilot exercised, widening wave by wave.
            return SimulationRequest(
                days=self.impact_days,
                rollout=self._deploy_plan(),
                **common,
            )
        return SimulationRequest(
            days=self.impact_days,
            proposed=self.tuning.proposed_config.copy(),
            **common,
        )

    def _gate_metric(self) -> str:
        """The direct metric pilot flights are gated on: the guardrails'
        override when set, else the application's own choice."""
        override = self.guardrails.flight_metric
        return override if override is not None else self.application.flight_metric

    def _flight_metrics(self) -> tuple[str, ...]:
        """Metrics the flight request measures; always includes the gate
        metric."""
        metrics = tuple(self.application.flight_metrics)
        gate = self._gate_metric()
        if gate not in metrics:
            metrics = (gate, *metrics)
        return metrics

    def advance(self, outcome: SimulationOutcome) -> None:
        """Consume the outcome of :meth:`pending_request` and move on."""
        expected = None if self.done else self._request_kind()
        if self.done or expected is None:
            raise ServiceError(
                f"campaign {self.spec.name!r} ({self.phase.value}) "
                "is not waiting on a simulation"
            )
        if outcome.tenant != self.spec.name or outcome.kind != expected:
            raise ServiceError(
                f"campaign {self.spec.name!r} expected a {expected!r} outcome, "
                f"got {outcome.kind!r} for tenant {outcome.tenant!r}"
            )
        outcome = self._charge(outcome)
        if self.phase is CampaignPhase.OBSERVE:
            self._after_observe(outcome)
        elif self.phase is CampaignPhase.FLIGHT:
            self._after_flight(outcome)
        else:
            self._after_deploy(outcome)

    # ------------------------------------------------------------------
    # Phase handlers
    # ------------------------------------------------------------------
    def _log(self, phase: CampaignPhase, detail: str) -> None:
        self.history.append(CampaignEvent(round=self.round, phase=phase, detail=detail))

    def _charge(self, outcome: SimulationOutcome) -> SimulationOutcome:
        """Accrue one consumed window's cost against the ledger and metrics;
        return a priced copy (``outcome`` may be the cache's shared entry).

        Machine-hours are the *simulated* fleet time the window covered —
        what the paper's production observation would actually occupy — so a
        cached replay charges the same machine-hours (the decision still
        rests on that much fleet time) while its wall-clock stays the
        original run's. Paired before/after evaluations cover two windows.
        """
        machines = self.spec.fleet_spec.total_machines
        if outcome.kind == "observe":
            window_hours = self.observe_days * 24.0
        elif outcome.kind == "flight":
            window_hours = self.flight_hours
        else:  # rollout / resume / impact: a baseline window plus the change
            window_hours = self.impact_days * 24.0 * 2
        # Price the window. Observation windows carry telemetry and are
        # priced exactly off the frame's SKU/availability/power columns;
        # the other kinds summarize into effects, so their spend is the
        # provisioned-rate estimate for the window.
        if len(outcome.frame):
            cost = frame_cost(outcome.frame, self.price_book)
        else:
            cost = window_cost(self.spec.fleet_spec, self.price_book, window_hours)
        self.cost_ledger.charge(
            outcome.kind,
            machines * window_hours,
            outcome.timing.elapsed_seconds,
            dollars=cost.total_dollars,
        )
        OPS_METRICS.histogram("campaign.phase_seconds", phase=outcome.kind).observe(
            outcome.timing.elapsed_seconds
        )
        return replace(outcome, cost=cost)

    def _after_observe(self, outcome: SimulationOutcome) -> None:
        monitor = PerformanceMonitor(outcome.frame)
        snapshot = outcome.snapshot if outcome.snapshot is not None else monitor.snapshot()
        self.snapshots.append(snapshot)
        self._log(CampaignPhase.OBSERVE, snapshot.summary())

        # CALIBRATE and TUNE are analytical for the observational
        # applications (milliseconds next to the simulated windows), so they
        # resolve inline rather than round-trip through the pool;
        # experimental applications run their own deterministic experiment
        # rounds here through the bound host environment.
        app = self.application
        self.phase = CampaignPhase.CALIBRATE
        # repro: allow[REP001] out-of-band phase timing for the cost ledger; never enters tuning state
        tick = perf_counter()
        with trace_span("campaign.calibrate", tenant=self.spec.name):
            if app.requires_engine:
                engine = WhatIfEngine()
                engine.calibrate(monitor)
                self.engine = engine
                self._log(
                    CampaignPhase.CALIBRATE,
                    f"what-if engine calibrated on {len(engine.groups())} machine groups",
                )
            else:
                engine = None
                self.engine = None
                self._log(
                    CampaignPhase.CALIBRATE,
                    f"skipped: {app.name!r} does not use the what-if engine",
                )
        # repro: allow[REP001] out-of-band phase timing for the cost ledger; never enters tuning state
        calibrate_seconds = perf_counter() - tick
        self.cost_ledger.charge("calibrate", 0.0, calibrate_seconds)
        OPS_METRICS.histogram("campaign.phase_seconds", phase="calibrate").observe(
            calibrate_seconds
        )

        self.phase = CampaignPhase.TUNE
        # repro: allow[REP001] out-of-band phase timing for the cost ledger; never enters tuning state
        tick = perf_counter()
        cluster = build_cluster(self.spec.fleet_spec, self.config.copy())
        # The outcome's telemetry — including any per-application extras the
        # observation spec requested (resource samples) — is the whole
        # observation; applications never re-observe through a side channel.
        observation = Observation(
            cluster=cluster,
            monitor=monitor,
            result=SimulationResult(
                frame=outcome.frame,
                resource_samples=outcome.resource_samples,
            ),
            days=self.observe_days,
        )
        # Deferred binding: only applications that actually reach through
        # `host` (experiment rounds) pay for building the tenant's Kea
        # environment.
        config = self.config.copy()
        app.bind_deferred(
            lambda: self.spec.build(config=config, scenario=self.scenario)
        )
        with trace_span(
            "campaign.tune", tenant=self.spec.name, application=app.name
        ):
            self.tuning = app.propose(observation, engine)
            self._flight_plan = app.flight_plan(self.tuning)
        # repro: allow[REP001] out-of-band phase timing for the cost ledger; never enters tuning state
        tune_seconds = perf_counter() - tick
        self.cost_ledger.charge("tune", 0.0, tune_seconds)
        OPS_METRICS.histogram("campaign.phase_seconds", phase="tune").observe(
            tune_seconds
        )

        if self.tuning.is_advisory and not self._flight_plan:
            # Decision-only output with nothing to pilot (a SKU to buy):
            # record the recommendation, nothing ships.
            self._log(CampaignPhase.TUNE, self.tuning.summary)
            self.phase = CampaignPhase.CONVERGED
            self._log(
                CampaignPhase.CONVERGED,
                f"advisory application {app.name!r}: recommendation recorded, "
                "nothing to deploy",
            )
            return
        if (
            not self.tuning.is_advisory
            and not self._flight_plan
            and self.tuning.proposed_config == self.config
        ):
            self._log(CampaignPhase.TUNE, "optimizer proposes no material change")
            self.phase = CampaignPhase.CONVERGED
            self._log(
                CampaignPhase.CONVERGED,
                "baseline already optimal within the conservative step bound",
            )
            return
        self._log(CampaignPhase.TUNE, self.tuning.summary)
        if self._flight_plan:
            # Every knob class gets a genuine pilot: the planned builds are
            # deployed to pilot machines in the next simulation window.
            self.phase = CampaignPhase.FLIGHT
        else:
            self._log(
                CampaignPhase.FLIGHT,
                f"skipped: {app.name!r} plans no pilot builds for this "
                "proposal",
            )
            self._enter_deploy()

    def _judge_flight(
        self, outcome: SimulationOutcome, gate_metric: str
    ) -> tuple[bool, bool, str]:
        """Shared flight judgement: (gate_ok, moved significantly, gate note)."""
        gate_ok = outcome.gate is None or outcome.gate.passed
        moved = any(
            report.impact(gate_metric).test.significant(
                self.guardrails.flight_alpha
            )
            for report in outcome.flight_reports
        )
        gate_note = (
            f"; gate: {outcome.gate.reason}" if outcome.gate is not None else ""
        )
        return gate_ok, moved, gate_note

    def _after_flight(self, outcome: SimulationOutcome) -> None:
        rails = self.guardrails
        gate_metric = self._gate_metric()
        self.flight_validations.append(
            FlightValidation(reports=outcome.flight_reports, gate=outcome.gate)
        )
        gate_ok, moved, gate_note = self._judge_flight(outcome, gate_metric)
        if self.tuning is not None and self.tuning.is_advisory:
            # Advisory recommendations converge either way; the pilot
            # flight's verdict is recorded alongside the recommendation so
            # the operator knows whether the decision was validated.
            self._converge_advisory(outcome, gate_metric, gate_ok, moved, gate_note)
            return
        if not gate_ok:
            self._end_round(
                CampaignPhase.ROLLED_BACK,
                f"flight safety gate failed: {outcome.gate.reason}",
            )
            return
        if rails.require_flight_significance:
            if not outcome.flight_reports:
                # No group was large enough to host a flight: the proposal
                # was never validated, so it must not ship.
                self._end_round(
                    CampaignPhase.ROLLED_BACK,
                    "no pilot flight could be placed; unvalidated proposal withdrawn",
                )
                return
            if not moved:
                self._end_round(
                    CampaignPhase.ROLLED_BACK,
                    f"pilot flights show no significant effect on "
                    f"{gate_metric} (α={rails.flight_alpha})",
                )
                return
        self._log(
            CampaignPhase.FLIGHT,
            f"{len(outcome.flight_reports)} pilot flight(s) validated{gate_note}",
        )
        self._enter_deploy()

    def _enter_deploy(self) -> None:
        """Move into DEPLOY, consuming a cross-campaign seed checkpoint.

        The single entry point to the DEPLOY phase (flight-validated and
        flight-skipped paths both land here). When the campaign was
        launched with ``resume_checkpoint=``, the first entry validates the
        seed against this round's staged plan — a checkpoint's covered
        counts are only meaningful against the exact waves that produced
        it — and re-stages the rollout to re-enter at the halted wave,
        identically to how an in-campaign halt resumes.
        """
        self.phase = CampaignPhase.DEPLOY
        if self._seed_checkpoint is None:
            return
        checkpoint = self._seed_checkpoint
        self._seed_checkpoint = None
        plan = self._deploy_plan()
        if plan is None:
            raise ServiceError(
                f"campaign {self.spec.name!r} was launched with a resume "
                "checkpoint, but this round's proposal stages no rollout "
                "plan to resume into"
            )
        if checkpoint.plan_fingerprint != plan.waves_fingerprint():
            raise ServiceError(
                f"campaign {self.spec.name!r}: seeded checkpoint was taken "
                f"against different rollout waves "
                f"(checkpoint {checkpoint.plan_fingerprint!r} != staged "
                f"{plan.waves_fingerprint()!r}); a checkpoint only seeds a "
                "campaign that stages the same plan"
            )
        assert self.tuning is not None
        self._halted = _HaltedRollout(
            checkpoint=checkpoint,
            plan=plan,
            flight_plan=self._flight_plan,
            tuning=self.tuning,
        )
        self._staged_plan = self.application.resume_rollout_plan(plan, checkpoint)
        OPS_METRICS.counter("campaign.rollout_resumes").inc()
        self._log(
            CampaignPhase.DEPLOY,
            f"resuming seeded rollout at wave {checkpoint.halted_wave!r} "
            f"(wave {checkpoint.halted_before_wave + 1}/"
            f"{len(self._staged_plan)}; "
            f"{checkpoint.machines_deployed} machine(s) restored from a "
            "prior campaign's checkpoint)",
        )

    def _converge_advisory(
        self,
        outcome: SimulationOutcome,
        gate_metric: str,
        gate_ok: bool,
        moved: bool,
        gate_note: str,
    ) -> None:
        """Terminal bookkeeping for an advisory proposal's pilot flight."""
        validated = gate_ok and bool(outcome.flight_reports) and moved
        self._log(
            CampaignPhase.FLIGHT,
            f"{len(outcome.flight_reports)} advisory pilot flight(s) "
            f"measured on {gate_metric}{gate_note}",
        )
        if not validated and self.require_flight_validation:
            # The knob demands a conclusive pilot before the recommendation
            # may stand: an inconclusive flight withdraws it.
            self._end_round(
                CampaignPhase.ROLLED_BACK,
                f"advisory recommendation withheld: pilot flight inconclusive "
                f"on {gate_metric} and flight validation is required",
            )
            return
        verdict = (
            "validated by pilot flight"
            if validated
            else "pilot flight inconclusive"
        )
        self.phase = CampaignPhase.CONVERGED
        self._log(
            CampaignPhase.CONVERGED,
            f"advisory application {self.application.name!r}: recommendation "
            f"recorded ({verdict}), nothing to deploy",
        )

    def _after_deploy(self, outcome: SimulationOutcome) -> None:
        assert outcome.impact is not None and self.tuning is not None
        self.last_impact = outcome.impact
        if outcome.kind in ("rollout", "resume"):
            # This window consumed any pending resume state; a re-halt below
            # persists the *new* (wider) checkpoint.
            resumed_plan = self._staged_plan
            self._halted = None
            self.rollout_waves.extend(outcome.rollout_waves)
            failed = next(
                (
                    r
                    for r in outcome.rollout_waves
                    if r.gate is not None and not r.gate.passed
                ),
                None,
            )
            if failed is not None:
                OPS_METRICS.counter("campaign.rollout_halts").inc()
                if (
                    self.resume_halted_rollouts
                    and outcome.rollout_checkpoint is not None
                    and resumed_plan is not None
                ):
                    self._halted = _HaltedRollout(
                        checkpoint=outcome.rollout_checkpoint,
                        plan=resumed_plan,
                        flight_plan=self._flight_plan,
                        tuning=self.tuning,
                    )
                reverted = sum(1 for r in outcome.rollout_waves if r.reverted)
                checkpointed = (
                    (
                        f"; checkpoint at "
                        f"{self._halted.checkpoint.machines_deployed}"
                        " machine(s) kept for resume"
                    )
                    if self._halted is not None
                    else ""
                )
                self._end_round(
                    CampaignPhase.ROLLED_BACK,
                    f"rollout halted before wave {failed.wave!r}: "
                    f"{failed.gate.reason}; {reverted} deployed wave(s) "
                    f"reverted{checkpointed}",
                )
                return
            shipped = [r for r in outcome.rollout_waves if r.applied or r.resumed]
            self._log(
                CampaignPhase.DEPLOY,
                f"{len(shipped)} wave(s) shipped "
                f"({' → '.join(r.wave for r in shipped)})",
            )
            # Annotate widening steps whose measured effect regressed: the
            # rollout completed (the crater tripwire passed), but a wave
            # with a significant throughput drop deserves an audit line —
            # the full-window guardrail below still has the final word.
            for record in shipped:
                if record.impact is None:
                    continue
                wave_verdict = self.guardrails.deployment.judge_wave_impact(
                    record.impact
                )
                if not wave_verdict.passed:
                    self._log(
                        CampaignPhase.DEPLOY,
                        f"wave {record.wave!r} impact regressed: "
                        f"{wave_verdict.reason}",
                    )
            cost_failure = self._judge_wave_costs(shipped, outcome)
            if cost_failure is not None:
                self._end_round(CampaignPhase.ROLLED_BACK, cost_failure)
                return
        verdict = self.guardrails.deployment.judge(outcome.impact)
        if verdict.passed:
            self.config = self.application.apply(self.config, self.tuning)
            self._end_round(CampaignPhase.DEPLOYED, f"adopted: {verdict.reason}")
        else:
            self._end_round(CampaignPhase.ROLLED_BACK, f"rolled back: {verdict.reason}")

    def _judge_wave_costs(self, shipped, outcome: SimulationOutcome) -> str | None:
        """Apply the opt-in dollars-for-value gate to every shipped wave.

        The window's priced spend (``outcome.cost``) is apportioned to waves
        by machine count, and each wave's measured throughput gain must buy
        its share. Returns a rollback reason on the first veto, None when
        every wave passes (or the gate/ledger is disabled).
        """
        if self.guardrails.deployment.dollars_per_point is None:
            return None
        if outcome.cost is None:
            return None
        total_machines = sum(r.machines for r in shipped)
        if total_machines <= 0:
            return None
        for record in shipped:
            if record.impact is None or record.machines <= 0:
                continue
            wave_dollars = (
                outcome.cost.total_dollars * record.machines / total_machines
            )
            verdict = self.guardrails.deployment.judge_wave_cost(
                record.impact, wave_dollars
            )
            if not verdict.passed:
                return (
                    f"wave {record.wave!r} not worth its spend: "
                    f"{verdict.reason}"
                )
        return None

    def _end_round(self, result: CampaignPhase, detail: str) -> None:
        self._log(result, detail)
        OPS_METRICS.counter("campaign.rounds").inc()
        if result is CampaignPhase.DEPLOYED:
            self.deployments += 1
            OPS_METRICS.counter("campaign.deployments").inc()
        elif result is CampaignPhase.ROLLED_BACK:
            self.rollbacks += 1
            OPS_METRICS.counter("campaign.rollbacks").inc()
        if self.round >= self.rounds:
            self.phase = result
            return
        self.round += 1
        self.engine = None
        self.tuning = None
        self._flight_plan = None
        self._staged_plan = None
        if self._halted is not None:
            # A halted rollout's checkpoint is pending: this round re-enters
            # the rollout at the failed wave instead of re-observing — the
            # proposal was already validated; only its widening was
            # interrupted.
            checkpoint = self._halted.checkpoint
            self.tuning = self._halted.tuning
            self._flight_plan = self._halted.flight_plan
            self._staged_plan = self.application.resume_rollout_plan(
                self._halted.plan, checkpoint
            )
            self.phase = CampaignPhase.DEPLOY
            OPS_METRICS.counter("campaign.rollout_resumes").inc()
            self._log(
                CampaignPhase.DEPLOY,
                f"resuming halted rollout at wave {checkpoint.halted_wave!r} "
                f"(wave {checkpoint.halted_before_wave + 1}/"
                f"{len(self._staged_plan)}; "
                f"{checkpoint.machines_deployed} machine(s) restored from "
                "checkpoint)",
            )
            return
        # Next round observes the (possibly newly adopted) baseline afresh.
        self.phase = CampaignPhase.OBSERVE

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> CampaignReport:
        """The campaign's final (or current) readout."""
        before = build_cluster(
            self.spec.fleet_spec, self._initial_config.copy()
        ).total_container_slots
        after = build_cluster(
            self.spec.fleet_spec, self.config.copy()
        ).total_container_slots
        return CampaignReport(
            tenant=self.spec.name,
            scenario=self.scenario.name,
            application=self.application.name,
            final_phase=self.phase,
            rounds_run=self.round,
            deployments=self.deployments,
            rollbacks=self.rollbacks,
            capacity_before=before,
            capacity_after=after,
            history=tuple(self.history),
            last_impact=self.last_impact,
            flight_validations=tuple(self.flight_validations),
            rollout_waves=tuple(self.rollout_waves),
            rollout_checkpoint=self.rollout_checkpoint,
            cost_ledger=self.cost_ledger,
        )
