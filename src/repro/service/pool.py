"""The wire types of simulation execution for multi-tenant campaigns.

Simulation dominates a campaign's wall-clock (the paper's analogue: waiting
on production observation windows). Tenants are independent, so their
windows can run concurrently. The unit of execution is the *window*: an
observe or flight request is one window; a rollout, resume or impact request
is two independent windows, a baseline and a treatment replaying the same
workload tag, so they may run in different workers at the same time.

Every :class:`SimulationRequest` is a self-contained, picklable recipe —
tenant spec, scenario, config, explicit workload tag. Every
:class:`~repro.service.backend.ExecutionBackend` runs a window with
:func:`execute_window`, which rebuilds the tenant's
:class:`~repro.core.kea.Kea` inside the worker and returns a
:class:`WindowOutcome` (result, span tree, ops metrics); its batch loop calls
:func:`check_request` first and :func:`assemble` last, which pairs a
request's windows and rebuilds the span tree of the request run inline.
Nothing depends on live mutable state, so a parallel run is bit-identical
to a serial run of the same requests, which ``tests/test_service.py``
asserts. :func:`execute_request` runs a request's windows in order in the
calling process.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from hashlib import sha256

from repro.cluster.config import YarnConfig
from repro.cluster.simulator import ObservationSpec
from repro.core.kea import DeploymentImpact, Kea, PairedWindow, pair_rollout, paired_impact
from repro.cost import CostReport
from repro.flighting.build import FlightPlan, PlannedFlight
from repro.flighting.deployment import (
    RolloutCheckpoint,
    RolloutPlan,
    RolloutWaveRecord,
)
from repro.flighting.safety import GateVerdict, LatencyRegressionGate
from repro.flighting.tool import FlightReport
from repro.obs.metrics import OPS_METRICS, MetricsRegistry, capture
from repro.obs.trace import SpanRecord, Tracer, activate
from repro.service.registry import TenantSpec
from repro.service.scenarios import Scenario
from repro.telemetry.monitor import MonitorSnapshot
from repro.telemetry.frame import MachineHourFrame
from repro.telemetry.records import ResourceSample
from repro.utils.errors import ServiceError

__all__ = [
    "SimulationRequest",
    "SimulationOutcome",
    "OutcomeTiming",
    "SimulationBatchError",
    "WindowOutcome",
    "window_count",
    "check_request",
    "execute_window",
    "assemble",
    "execute_request",
    "config_fingerprint",
]


class SimulationBatchError(ServiceError):
    """A batch ran to completion, but at least one request failed.

    Raised by an execution backend's ``run`` *after* every sibling finished:
    ``outcomes`` holds the batch's results in input order (None at each
    failed slot) and ``failures`` the (request, exception) pairs, so callers
    can salvage the completed work — the orchestrator caches the surviving
    outcomes before propagating — instead of re-simulating it.
    """

    def __init__(
        self,
        message: str,
        outcomes: list["SimulationOutcome | None"],
        failures: list[tuple["SimulationRequest", Exception]],
    ):
        super().__init__(message)
        self.outcomes = outcomes
        self.failures = failures

_KINDS = ("observe", "flight", "impact", "rollout", "resume")
#: Per two-window kind, the spans :class:`~repro.core.kea.Kea` traces it
#: under: the pairing span, then the baseline and treatment window spans.
_PAIRED_SPANS = {
    "impact": ("kea.deployment_impact", "window.before", "window.after"),
    "rollout": ("kea.staged_rollout", "window.baseline", "window.rollout"),
    "resume": ("kea.staged_rollout", "window.baseline", "window.rollout"),
}


def config_fingerprint(config: YarnConfig) -> str:
    """A stable short hash of a YARN config's full contents."""
    parts = [
        f"{key.label}={limits.max_running_containers}/{limits.max_queued_containers}"
        for key, limits in sorted(config.limits.items())
    ]
    parts.append(
        f"default={config.default_limits.max_running_containers}"
        f"/{config.default_limits.max_queued_containers}"
    )
    return sha256("|".join(parts).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SimulationRequest:
    """One simulation-heavy campaign step, as a self-contained recipe.

    ``kind`` selects the step: ``observe`` (one production window, recorded
    per the ``observation`` spec), ``flight`` (pilot flights of the planned
    ``flights`` builds plus a latency safety gate), ``rollout`` (the staged
    wave-by-wave deployment of the ``rollout`` plan, paired against an
    identical-workload baseline window), ``resume`` (re-entry of a halted
    rollout at its failed wave — the ``rollout`` plan plus the halted run's
    ``checkpoint``), or ``impact`` (the legacy all-at-once before/after
    evaluation of ``proposed``). The explicit ``workload_tag`` pins the
    arrival sequence, making the request replayable and cacheable;
    ``observation``, the builds, the rollout plan, and the checkpoint fold
    into the cache key, so two windows that record different telemetry — or
    deploy (or restore) different waves — never alias.
    """

    tenant: str
    kind: str
    spec: TenantSpec
    scenario: Scenario
    config: YarnConfig
    workload_tag: str
    days: float = 1.0
    observation: ObservationSpec = ObservationSpec()
    proposed: YarnConfig | None = None
    rollout: RolloutPlan | None = None
    checkpoint: RolloutCheckpoint | None = None
    flights: tuple[PlannedFlight, ...] = ()
    flight_metrics: tuple[str, ...] = ("AverageRunningContainers", "CpuUtilization")
    flight_hours: float = 8.0
    machines_per_group: int = 8
    gate_window_hours: int = 2
    gate_allowance: float = 0.10

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ServiceError(
                f"unknown request kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.kind == "impact" and self.proposed is None:
            raise ServiceError("an impact request needs a proposed config")
        if self.kind == "flight" and not self.flights:
            raise ServiceError("a flight request needs planned flights")
        if self.kind in ("rollout", "resume") and not self.rollout:
            raise ServiceError(f"a {self.kind} request needs a non-empty rollout plan")
        if self.kind == "resume" and self.checkpoint is None:
            raise ServiceError(
                "a resume request needs the halted rollout's checkpoint"
            )
        if self.days <= 0 or self.flight_hours <= 0:
            raise ServiceError("request windows must be positive")

    def cache_key(self) -> tuple[str, str, str]:
        """(tenant, config hash, workload tag) — the engine-cache key.

        The config hash folds in everything that shapes the simulation
        besides the workload draw: kind, baseline and proposed configs, the
        observation spec, planned flight builds, window lengths, scenario,
        and the tenant's seed. Two requests with equal keys are guaranteed
        to simulate identically.
        """
        material = [
            self.kind,
            config_fingerprint(self.config),
            config_fingerprint(self.proposed) if self.proposed else "-",
            self.observation.fingerprint(),
            self.rollout.describe() if self.rollout is not None else "-",
            self.checkpoint.describe() if self.checkpoint is not None else "-",
            ";".join(flight.describe() for flight in self.flights),
            ",".join(self.flight_metrics),
            f"{self.days}:{self.flight_hours}:{self.machines_per_group}",
            f"{self.gate_window_hours}:{self.gate_allowance}",
            # Full scenario contents, not just the name: a same-named
            # scenario with different parameters must never share a key.
            repr(self.scenario),
            repr(self.spec),
        ]
        digest = sha256("|".join(material).encode()).hexdigest()[:16]
        return (self.tenant, digest, self.workload_tag)


@dataclass(frozen=True, slots=True)
class OutcomeTiming:
    """Out-of-band execution timing of one request, fixed at construction.

    ``trace`` is the worker-side span tree (picklable
    :class:`~repro.obs.trace.SpanRecord` tuples) that the orchestrator merges
    into its own trace; ``elapsed_seconds`` is the worker seconds the request
    took (summed over both windows of a two-window request). Neither enters
    :meth:`SimulationRequest.cache_key` or any tuning decision — a cached
    replay keeps the timing of the run that produced it.
    """

    elapsed_seconds: float = 0.0
    trace: tuple[SpanRecord, ...] = ()


@dataclass
class SimulationOutcome:
    """What one executed request produced (only the ``kind``'s fields set)."""

    tenant: str
    kind: str
    workload_tag: str
    #: Machine-hour telemetry, columnar. Pickles compactly across the pool
    #: boundary.
    frame: MachineHourFrame = field(default_factory=MachineHourFrame)
    snapshot: MonitorSnapshot | None = None
    resource_samples: list[ResourceSample] = field(default_factory=list)
    flight_reports: list[FlightReport] = field(default_factory=list)
    gate: GateVerdict | None = None
    impact: DeploymentImpact | None = None
    rollout_waves: list[RolloutWaveRecord] = field(default_factory=list)
    #: Set when a rollout/resume window halted mid-rollout: the coverage
    #: checkpoint a later ``resume`` request re-enters from.
    rollout_checkpoint: RolloutCheckpoint | None = None
    #: Dollar cost of the window, priced by the campaign's PriceBook.
    #: Attached orchestrator-side (cost is derived data: pricing must be
    #: re-derivable under a new book without invalidating cached frames).
    cost: CostReport | None = None
    timing: OutcomeTiming = field(default_factory=OutcomeTiming)


@dataclass
class WindowOutcome:
    """One window's result as it crosses the process boundary: the whole
    outcome of a one-window request or one side of a two-window request,
    the window's own timing, and the ops metrics it recorded (merged by
    whoever collects it)."""

    result: SimulationOutcome | PairedWindow
    timing: OutcomeTiming
    metrics: MetricsRegistry


def window_count(request: SimulationRequest) -> int:
    """How many independent windows ``request`` simulates (1 or 2)."""
    return 2 if request.kind in _PAIRED_SPANS else 1


def check_request(request: SimulationRequest) -> None:
    """Fail an invalid rollout plan before any window is dispatched."""
    if request.kind in ("rollout", "resume"):
        kea = request.spec.build(config=request.config, scenario=request.scenario)
        kea.rollout_plan(request.rollout, days=request.days, checkpoint=request.checkpoint)


def execute_window(request: SimulationRequest, index: int) -> WindowOutcome:
    """Run window ``index`` of ``request`` (worker-process entry point).

    Builds the tenant's KEA instance from the declarative spec, so execution
    is independent of which process — or how many — run the batch. The
    window's spans and ops metrics are recorded locally and ride back on
    the result. A one-window request's window is the whole request.
    """
    # repro: allow[REP001] out-of-band worker wall-clock: rides OutcomeTiming, never a cache key or decision
    started = time.perf_counter()
    tracer = Tracer(trace_id=f"{request.tenant}/{request.workload_tag}")
    paired = request.kind in _PAIRED_SPANS
    with capture() as metrics, activate(tracer), (
        nullcontext() if paired else _request_span(tracer, request)
    ):
        kea = request.spec.build(config=request.config, scenario=request.scenario)
        result = _paired_window(kea, request, index) if paired else _single_window(kea, request)
    timing = OutcomeTiming(
        # repro: allow[REP001] out-of-band worker wall-clock: rides OutcomeTiming, never a cache key or decision
        elapsed_seconds=time.perf_counter() - started,
        trace=tuple(tracer.spans),
    )
    if not paired:
        result = SimulationOutcome(
            tenant=request.tenant,
            kind=request.kind,
            workload_tag=request.workload_tag,
            timing=timing,
            **result,
        )
    return WindowOutcome(result=result, timing=timing, metrics=metrics)


def assemble(request: SimulationRequest, windows: list[WindowOutcome]) -> SimulationOutcome:
    """The request's outcome from its windows, in window order.

    A two-window request pairs its windows with the same code
    :meth:`Kea.staged_rollout` uses; its elapsed seconds are the worker
    seconds of both windows.
    """
    if request.kind not in _PAIRED_SPANS:
        (window,) = windows
        return window.result
    before, after = (window.result for window in windows)
    if request.kind == "impact":
        produced = {"impact": paired_impact(before, after)}
    else:
        staged = pair_rollout(before, after)
        produced = {
            "rollout_waves": list(staged.waves),
            "rollout_checkpoint": staged.checkpoint,
            "impact": staged.impact,
        }
    return SimulationOutcome(
        tenant=request.tenant,
        kind=request.kind,
        workload_tag=request.workload_tag,
        timing=OutcomeTiming(
            elapsed_seconds=sum(w.timing.elapsed_seconds for w in windows),
            trace=_request_trace(request, [w.timing.trace for w in windows]),
        ),
        **produced,
    )


def execute_request(request: SimulationRequest) -> SimulationOutcome:
    """Run one request in this process: check it, run its windows in
    order, merge their ops metrics and assemble the outcome."""
    check_request(request)
    windows = [execute_window(request, index) for index in range(window_count(request))]
    for window in windows:
        OPS_METRICS.merge(window.metrics)
    return assemble(request, windows)


def _single_window(kea: Kea, request: SimulationRequest) -> dict[str, object]:
    """The outcome fields of an ``observe`` or ``flight`` request."""
    scenario = request.scenario
    if request.kind == "observe":
        spec = request.observation
        benchmark_period = (
            spec.benchmark_period_hours
            if spec.benchmark_period_hours is not None
            else scenario.benchmark_period_hours
        )
        observation = kea.simulate(
            request.days,
            sim_config=spec.to_sim_config(),
            benchmark_period_hours=benchmark_period,
            workload_tag=request.workload_tag,
            load_multiplier=scenario.load_multiplier,
            actions=scenario.actions(),
        )
        return {
            "frame": observation.monitor.frame,
            "snapshot": observation.monitor.snapshot(),
            "resource_samples": observation.result.resource_samples,
        }
    validation = kea.flight_campaign(
        FlightPlan(entries=request.flights),
        hours=request.flight_hours,
        machines_per_group=request.machines_per_group,
        metrics=request.flight_metrics,
        load_multiplier=scenario.stress_load_multiplier,
        workload_tag=request.workload_tag,
        safety_gate=LatencyRegressionGate(
            window_hours=request.gate_window_hours,
            allowance=request.gate_allowance,
        ),
        actions=scenario.fault_actions(),
    )
    return {"flight_reports": validation.reports, "gate": validation.gate}


def _paired_window(kea: Kea, request: SimulationRequest, index: int) -> PairedWindow:
    """Window 0 (the baseline) or 1 (the treatment) of a two-window request."""
    treatment = (
        {"config": request.proposed}
        if request.kind == "impact"
        else {"rollout": request.rollout, "checkpoint": request.checkpoint}
    )
    return kea.paired_window(
        _PAIRED_SPANS[request.kind][index + 1],
        request.days,
        request.workload_tag,
        benchmark_period_hours=request.scenario.benchmark_period_hours,
        load_multiplier=request.scenario.stress_load_multiplier,
        actions=request.scenario.fault_actions(),
        **(treatment if index else {}),
    )


def _request_trace(
    request: SimulationRequest, windows: list[tuple[SpanRecord, ...]]
) -> tuple[SpanRecord, ...]:
    """The span tree one tracer records for a two-window request run inline:
    ``request.<kind>`` › ``kea.staged_rollout`` (or ``kea.deployment_impact``)
    › each window's subtree. The outer spans cover both windows
    (``perf_counter`` is system-wide, so workers share one clock)."""
    roots = [window[-1] for window in windows]  # a subtree's root finishes last
    start, end = min(r.start for r in roots), max(r.end for r in roots)
    ticks = iter((start, start, end, end))
    tracer = Tracer(clock=ticks.__next__, trace_id=f"{request.tenant}/{request.workload_tag}")
    resuming = {} if request.kind == "impact" else {"resuming": request.checkpoint is not None}
    with _request_span(tracer, request), tracer.span(
        _PAIRED_SPANS[request.kind][0],
        days=request.days,
        workload_tag=request.workload_tag,
        **resuming,
    ):
        for window in windows:
            tracer.merge(window)
    return tuple(tracer.spans)


def _request_span(tracer: Tracer, request: SimulationRequest):
    return tracer.span(
        f"request.{request.kind}",
        tenant=request.tenant,
        workload_tag=request.workload_tag,
        days=request.days,
    )
