"""The Deployment Module: conservative, staged production roll-outs.

Section 2: "changes must be rolled-out progressively across the fleet,
mistakes are costly as performance may crater." Section 5.2.2: "The
production roll-out process is very conservative where we only modify the
configuration by a small margin."

The rollout API is **build-native**: a validated
:class:`~repro.flighting.build.FlightPlan` — reversible
:class:`~repro.flighting.build.ConfigBuild` × machine-selector entries —
drives a wave-based fleet rollout. A :class:`RolloutWave` carries a fleet
*fraction* plus the builds/selectors to extend to that fraction; a
:class:`RolloutPolicy` captures the wave schedule (pilot → 10% → 50% → fleet
by default), the per-wave :class:`~repro.flighting.safety.SafetyGate`
thresholds, and the conservative ``max_step`` clamp;
:meth:`DeploymentModule.execute` applies each wave on the simulator,
evaluates the gate between waves, and reverts every already-deployed wave
via ``build.revert`` on a gate failure — so queue-bound, software re-image,
and power-cap builds all roll out progressively, not just container limits.

Rollouts are **resumable** and **impact-measured**: a halted rollout leaves a
serializable :class:`RolloutCheckpoint` (per-entry covered counts — the
applied-build state at the moment the gate failed), and a policy with
``resume_from_wave`` re-enters at the failed wave in a later window instead of
restarting from the pilot — the checkpointed coverage is restored at window
start, never re-run as gated waves. Every applied wave additionally records a
treatment effect (:attr:`RolloutWaveRecord.impact`): machines flighted so far
vs machines not yet covered, measured on machine-hour throughput inside the
wave's soak window via :func:`repro.stats.treatment.population_effect`.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from time import perf_counter

from repro.cluster.cluster import Cluster
from repro.cluster.machine import Machine
from repro.cluster.simulator import ClusterSimulator
from repro.flighting.build import (
    ContainerDeltaBuild,
    FlightPlan,
    PlannedFlight,
)
from repro.flighting.safety import GateVerdict, LatencyRegressionGate, SafetyGate
from repro.obs.metrics import OPS_METRICS
from repro.obs.trace import current_tracer
import numpy as np

from repro.stats.treatment import TreatmentEffect, population_effect
from repro.telemetry.frame import MachineHourFrame
from repro.utils.errors import ConfigurationError
from repro.utils.units import hours

__all__ = [
    "DEFAULT_WAVE_FRACTIONS",
    "RolloutPolicy",
    "RolloutWave",
    "RolloutPlan",
    "RolloutCheckpoint",
    "RolloutWaveRecord",
    "RolloutExecution",
    "DeploymentModule",
]

#: The default wave schedule: a pilot slice, then 10%, 50%, and the fleet.
DEFAULT_WAVE_FRACTIONS = (0.02, 0.10, 0.50, 1.0)


@dataclass(frozen=True)
class RolloutPolicy:
    """How a staged rollout widens its blast radius, and what gates it.

    ``fractions`` are *cumulative* fleet-coverage targets per wave (each
    entry's selected population is covered up to the wave's fraction, in
    fleet order); they must be strictly increasing and end at 1.0 — a rollout
    that never reaches the fleet is a pilot, not a deployment.

    ``wave_gap_hours`` of None spreads the waves evenly over whatever
    execution window :meth:`schedule` is given (one extra gap soaks after the
    fleet wave); an explicit gap must fit the window.

    ``gate_allowance`` is the latency-regression allowance of the
    :class:`~repro.flighting.safety.LatencyRegressionGate` evaluated before
    each wave after the first — a float for every wave, or one value per wave
    (index 0 is never used: the pilot wave is ungated). The default is
    deliberately coarse: a within-window gate also sees workload seasonality
    as "regression", so it is a crater tripwire — the precise judgement is
    the post-rollout paired treatment effect
    (:class:`~repro.flighting.safety.DeploymentGuardrail`), which replays
    the identical workload and cancels seasonality out.

    ``max_step`` clamps relative container-delta builds to the paper's
    conservative ±step rule at plan time (None disables clamping).

    ``resume_from_wave`` re-enters a previously halted rollout at that wave
    index instead of restarting from the pilot: execution restores the
    halted run's :class:`RolloutCheckpoint` coverage at window start (the
    earlier waves are *not* re-run as gated waves) and then applies waves
    ``resume_from_wave`` onward, gates included. The index must name a
    gated wave (1 … len(fractions) − 1), and execution requires the
    checkpoint the halted run produced.
    """

    fractions: tuple[float, ...] = DEFAULT_WAVE_FRACTIONS
    names: tuple[str, ...] = ()
    start_hour: float = 0.0
    wave_gap_hours: float | None = None
    gate_window_hours: int = 2
    gate_allowance: float | tuple[float, ...] = 0.25
    max_step: int | None = 1
    resume_from_wave: int | None = None

    def __post_init__(self) -> None:
        # Accept any sequence literal for the tuple-typed fields; a list
        # here must not surface later as an opaque TypeError.
        for name in ("fractions", "names", "gate_allowance"):
            value = getattr(self, name)
            if isinstance(value, list):
                object.__setattr__(self, name, tuple(value))
        if not self.fractions:
            raise ConfigurationError("a rollout policy needs at least one wave")
        last = 0.0
        for fraction in self.fractions:
            if not last < fraction <= 1.0:
                raise ConfigurationError(
                    "wave fractions must be strictly increasing in (0, 1]; "
                    f"got {self.fractions}"
                )
            last = fraction
        if self.fractions[-1] != 1.0:
            raise ConfigurationError(
                f"the final wave must cover the fleet (fraction 1.0); "
                f"got {self.fractions[-1]}"
            )
        if self.names and len(self.names) != len(self.fractions):
            raise ConfigurationError(
                f"{len(self.names)} wave name(s) for {len(self.fractions)} wave(s)"
            )
        if self.start_hour < 0:
            raise ConfigurationError("start_hour must be non-negative")
        if self.wave_gap_hours is not None and self.wave_gap_hours <= 0:
            raise ConfigurationError("wave_gap_hours must be positive (or None)")
        if self.gate_window_hours < 1:
            raise ConfigurationError("gate_window_hours must be >= 1")
        allowances = (
            self.gate_allowance
            if isinstance(self.gate_allowance, tuple)
            else (self.gate_allowance,)
        )
        if isinstance(self.gate_allowance, tuple) and len(
            self.gate_allowance
        ) != len(self.fractions):
            raise ConfigurationError(
                "per-wave gate_allowance needs one value per wave; got "
                f"{len(self.gate_allowance)} for {len(self.fractions)} wave(s)"
            )
        if any(a < 0 for a in allowances):
            raise ConfigurationError("gate allowances must be non-negative")
        if self.max_step is not None and self.max_step < 1:
            raise ConfigurationError("max_step must be >= 1 (or None)")
        if self.resume_from_wave is not None and not (
            1 <= self.resume_from_wave < len(self.fractions)
        ):
            raise ConfigurationError(
                f"resume_from_wave must name a gated wave in "
                f"[1, {len(self.fractions) - 1}]; got {self.resume_from_wave}"
            )

    def wave_name(self, index: int) -> str:
        """The wave's display name (``pilot`` → percentages → ``fleet``).

        The fleet check runs first: a single-wave policy
        (``fractions=(1.0,)``) covers the whole fleet at once and must be
        labelled ``fleet``, not ``pilot`` — wave 0 is only a pilot when
        later waves exist to widen it.
        """
        if self.names:
            return self.names[index]
        fraction = self.fractions[index]
        if fraction >= 1.0:
            return "fleet"
        if index == 0:
            return "pilot"
        return f"{fraction:.0%}"

    def allowance_for(self, index: int) -> float:
        """The latency allowance gating entry *into* wave ``index``."""
        if isinstance(self.gate_allowance, tuple):
            return self.gate_allowance[index]
        return self.gate_allowance

    def gate_for(self, index: int) -> SafetyGate:
        """The safety gate evaluated just before wave ``index`` applies."""
        return LatencyRegressionGate(
            window_hours=self.gate_window_hours,
            allowance=self.allowance_for(index),
        )

    def schedule(self, window_hours: float) -> tuple[float, ...]:
        """Wave start hours inside an execution window of ``window_hours``.

        An explicit ``wave_gap_hours`` must leave one trailing gap after the
        fleet wave (the final soak the last gate-less wave still deserves);
        ``None`` divides the window evenly into ``len(fractions) + 1`` gaps.
        """
        if window_hours <= 0:
            raise ConfigurationError("rollout window must be positive")
        n = len(self.fractions)
        gap = (
            self.wave_gap_hours
            if self.wave_gap_hours is not None
            else (window_hours - self.start_hour) / (n + 1)
        )
        if gap <= 0:
            raise ConfigurationError(
                f"start_hour {self.start_hour:.1f}h leaves no room for waves "
                f"inside a {window_hours:.1f}h rollout window"
            )
        starts = tuple(self.start_hour + i * gap for i in range(n))
        if starts[-1] + gap > window_hours + 1e-9:
            raise ConfigurationError(
                f"wave schedule (last start {starts[-1]:.1f}h + {gap:.1f}h soak) "
                f"does not fit the {window_hours:.1f}h rollout window"
            )
        return starts

    def plan(self, flight_plan: FlightPlan) -> "RolloutPlan":
        """Stage a validated flight plan's builds across the fleet.

        Every wave carries the same build × selector entries; the wave's
        fraction decides how much of each entry's population it reaches.
        Relative container-delta builds are clamped to ±``max_step``.
        """
        entries = tuple(self._clamped(entry) for entry in flight_plan)
        if not entries:
            return RolloutPlan(waves=(), policy=self)
        waves = tuple(
            RolloutWave(fraction=fraction, entries=entries, name=self.wave_name(i))
            for i, fraction in enumerate(self.fractions)
        )
        return RolloutPlan(waves=waves, policy=self)

    def _clamped(self, entry: PlannedFlight) -> PlannedFlight:
        build = entry.build
        if self.max_step is None or not isinstance(build, ContainerDeltaBuild):
            return entry
        clamped = max(-self.max_step, min(self.max_step, build.delta))
        if clamped == build.delta:
            return entry
        # replace() keeps the build's concrete type and name; only the
        # delta is conservatively narrowed.
        return replace(entry, build=replace(build, delta=clamped))


@dataclass(frozen=True)
class RolloutWave:
    """One wave: extend each entry's coverage to ``fraction`` of its fleet.

    ``entries`` pair a reversible build with the declarative machine selector
    it deploys to (the same vocabulary pilot flights use); ``fraction`` is
    the cumulative share of each entry's selected population this wave
    reaches.
    """

    fraction: float
    entries: tuple[PlannedFlight, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(
                f"wave fraction must be in (0, 1]; got {self.fraction}"
            )
        if not self.entries:
            raise ConfigurationError(f"wave {self.name!r} deploys no builds")

    def describe(self) -> str:
        """Stable fingerprint (cache-key material)."""
        inner = ";".join(entry.describe() for entry in self.entries)
        return f"{self.name}@{self.fraction}[{inner}]"


@dataclass(frozen=True)
class RolloutPlan:
    """A staged, build-native rollout: waves plus the policy that gates them.

    Falsy when empty (nothing to roll out), so callers can branch with
    ``if plan:`` exactly like :class:`~repro.flighting.build.FlightPlan`.
    """

    waves: tuple[RolloutWave, ...] = ()
    policy: RolloutPolicy = field(default_factory=RolloutPolicy)

    def __bool__(self) -> bool:
        return bool(self.waves)

    def __len__(self) -> int:
        return len(self.waves)

    def __iter__(self):
        return iter(self.waves)

    @classmethod
    def from_flight_plan(
        cls, flight_plan: FlightPlan, policy: RolloutPolicy | None = None
    ) -> "RolloutPlan":
        """Stage ``flight_plan`` under ``policy`` (default: pilot → fleet)."""
        return (policy if policy is not None else RolloutPolicy()).plan(flight_plan)

    def validate(self, cluster: Cluster) -> dict[str, list[Machine]]:
        """Check wave ordering and selector coverage against ``cluster``.

        Partial-fleet (fractional) waves are the normal case — validation
        demands strictly widening fractions ending at the full fleet, that
        every entry selects at least one machine, and that no two entries of
        one wave select overlapping machine populations (two builds racing
        for the same machine would make the rollout's end state
        order-dependent, and revert ambiguous).

        Returns the per-entry machine selections it computed (keyed by
        entry fingerprint), so executors can reuse them as the population
        snapshot instead of re-scanning the fleet.
        """
        selections: dict[str, list[Machine]] = {}
        last_fraction = 0.0
        checked_entries: set[tuple[str, ...]] = set()
        for wave in self.waves:
            if wave.fraction <= last_fraction:
                raise ConfigurationError(
                    "rollout waves must widen strictly: fraction "
                    f"{wave.fraction} after {last_fraction}"
                )
            last_fraction = wave.fraction
            # Policy-built plans repeat the same entries across all waves;
            # scanning the fleet once per distinct entry list keeps
            # validation O(fleet), not O(fleet × waves). Dedup is by the
            # entries' describe() fingerprints — equal-valued lists made of
            # distinct objects dedup too, and (unlike the id()-based dedup
            # this replaces) a recycled object id can never skip the
            # validation of a genuinely different wave.
            entries_key = tuple(entry.describe() for entry in wave.entries)
            if entries_key in checked_entries:
                continue
            checked_entries.add(entries_key)
            # Overlap is keyed by entry *position*, not name: auto-generated
            # names collide for same-selector builds of one type, and two
            # builds racing for a machine is the hazard regardless of names.
            seen: dict[int, int] = {}
            for index, entry in enumerate(wave.entries):
                selected = entry.select_machines(cluster)
                if not selected:
                    raise ConfigurationError(
                        f"rollout entry {entry.name!r} selects no machines"
                    )
                for machine in selected:
                    other = seen.get(machine.machine_id)
                    if other is not None and other != index:
                        raise ConfigurationError(
                            f"overlapping selectors in wave {wave.name!r}: "
                            f"entries {wave.entries[other].describe()!r} and "
                            f"{entry.describe()!r} both select machine "
                            f"{machine.name}"
                        )
                    seen[machine.machine_id] = index
                selections.setdefault(entry.describe(), selected)
        if self.waves and self.waves[-1].fraction != 1.0:
            raise ConfigurationError(
                "the final wave must reach the whole selected fleet "
                f"(fraction 1.0); got {self.waves[-1].fraction}"
            )
        return selections

    def waves_fingerprint(self) -> str:
        """Stable fingerprint of the waves alone, policy excluded.

        Resume plans re-stage the *same* waves under a policy that differs
        only in ``resume_from_wave``; checkpoints bind to this fingerprint so
        a halted rollout can be resumed under the adjusted policy while a
        checkpoint from a different plan is still rejected loudly.
        """
        return ";".join(wave.describe() for wave in self.waves)

    def describe(self) -> str:
        """Stable fingerprint over policy and waves (cache-key material)."""
        return f"{self.policy!r}|{self.waves_fingerprint()}"


@dataclass(frozen=True)
class RolloutCheckpoint:
    """Where a halted rollout stopped, as a serializable, resumable value.

    ``covered`` is the applied-build state per plan entry — (entry
    fingerprint, machines covered) pairs at the moment the gate failed,
    *before* the halt reverted the deployed waves. Together with the plan
    (whose entries and populations are re-derivable in any process) this is
    everything a later window needs to restore coverage and re-enter at
    ``halted_before_wave``. Checkpoints pickle cleanly, ride on campaign
    ``resume`` requests through the simulation pool, and fold into cache
    keys via :meth:`describe`.
    """

    plan_fingerprint: str
    halted_before_wave: int
    halted_wave: str
    covered: tuple[tuple[str, int], ...]
    machines_deployed: int

    def __post_init__(self) -> None:
        if self.halted_before_wave < 1:
            raise ConfigurationError(
                "a checkpoint halts before a gated wave (index >= 1); "
                f"got {self.halted_before_wave}"
            )

    def covered_counts(self) -> dict[str, int]:
        """The per-entry covered counts as a lookup dict."""
        return dict(self.covered)

    def describe(self) -> str:
        """Stable fingerprint (cache-key material)."""
        inner = ",".join(f"{key}={count}" for key, count in self.covered)
        return (
            f"ckpt@{self.halted_before_wave}:{self.halted_wave}"
            f"[{inner}]|{self.plan_fingerprint}"
        )


@dataclass(frozen=True, slots=True)
class RolloutWaveRecord:
    """What one wave actually did: the staged rollout's per-wave readout.

    ``gate`` is the safety-gate verdict evaluated just before this wave
    (None for the ungated pilot wave and for waves skipped after a halt);
    ``machines`` counts the machines newly covered by this wave. ``resumed``
    marks a wave whose coverage was restored from a halted run's checkpoint
    at window start rather than applied as a gated wave. ``impact`` is the
    wave's measured treatment effect — machines flighted so far vs machines
    not yet covered, on machine-hour throughput inside the wave's soak
    window (filled for every wave that deployed builds; None for skipped
    and gate-failed waves).
    """

    wave: str
    fraction: float
    start_hour: float
    machines: int
    gate: GateVerdict | None
    applied: bool
    reverted: bool
    resumed: bool = False
    impact: TreatmentEffect | None = None

    def summary(self) -> str:
        """One line of the rollout audit trail."""
        state = "applied" if self.applied else "skipped"
        if self.resumed:
            state = "restored from checkpoint"
        if self.reverted:
            state = "reverted"
        gate = f"; gate: {self.gate.reason}" if self.gate is not None else ""
        impact = (
            f"; impact: {self.impact.relative_effect:+.1%} throughput "
            f"(t={self.impact.test.t_value:.2f})"
            if self.impact is not None
            else ""
        )
        return (
            f"wave {self.wave!r} ({self.fraction:.0%}) at {self.start_hour:.1f}h: "
            f"{state}, {self.machines} machine(s){gate}{impact}"
        )


@dataclass(frozen=True, slots=True)
class _WaveImpactWindow:
    """Where one deployed wave's impact contrast lives in the telemetry.

    ``record_index`` points at the wave's :class:`RolloutWaveRecord`;
    ``start``/``end`` bound the wave's soak window in hours; ``covered_ids``
    snapshots the machines covered once the wave applied; ``new_ids`` are
    the machines this wave newly covered; ``previous_start`` opens the prior
    wave's window (the fleet wave's before/after fallback).
    """

    record_index: int
    start: float
    end: float
    covered_ids: frozenset[int]
    new_ids: frozenset[int]
    previous_start: float
    #: Explicit control arm. None: everything outside ``covered_ids``. A
    #: checkpoint restoration applies several waves' coverage at once, so a
    #: restored wave's control must exclude the *other* restored machines
    #: too — they carry the build even though this wave's cumulative
    #: coverage does not include them.
    control_ids: frozenset[int] | None = None


def _full_hours(start: float, end: float) -> tuple[int, int]:
    """The fully-contained hour range [lo, hi) inside ``[start, end)``.

    Machine-hour records are hourly; an hour straddling a wave boundary
    mixes pre- and post-treatment telemetry, so only hours entirely inside
    the window count. A sub-hour window keeps its (partially treated)
    first hour rather than measuring nothing.
    """
    lo = math.ceil(start - 1e-9)
    hi = math.floor(end + 1e-9)
    if hi <= lo:
        lo, hi = math.floor(start + 1e-9), math.floor(start + 1e-9) + 1
    return lo, hi


@dataclass
class RolloutExecution:
    """Live state of one staged rollout; fills in while the simulator runs."""

    records: list[RolloutWaveRecord] = field(default_factory=list)
    halted: bool = False
    machines_touched: int = 0
    #: Checkpoint of the coverage at the moment a gate halted the rollout
    #: (None while the rollout is live or when it completed).
    checkpoint: RolloutCheckpoint | None = None
    #: Cumulative covered machine count per entry fingerprint.
    _covered: dict[str, int] = field(default_factory=dict)
    #: (applied build copy, machines) in application order, for revert.
    _applied: list[tuple[object, list[Machine]]] = field(default_factory=list)
    #: Machine ids covered so far (all entries), for wave-impact contrasts.
    _covered_ids: set[int] = field(default_factory=set)
    #: Every machine id any plan entry selects (the rollout's universe).
    _population_ids: frozenset[int] = frozenset()
    #: One impact-contrast window per deployed wave.
    _impact_meta: list[_WaveImpactWindow] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        """True when every wave deployed (applied, or restored from a resume
        checkpoint) and nothing was reverted."""
        return bool(self.records) and not self.halted and all(
            (r.applied or r.resumed) and not r.reverted for r in self.records
        )

    @property
    def reverted(self) -> bool:
        """True when a failed gate rolled the deployed waves back."""
        return self.halted


class DeploymentModule:
    """Executes staged rollouts on one cluster.

    The conservative ±step rule is applied when the plan is built
    (:attr:`RolloutPolicy.max_step`), not here.
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    # ------------------------------------------------------------------
    # Execution on a simulator
    # ------------------------------------------------------------------
    @staticmethod
    def resolve_resume(
        plan: RolloutPlan, checkpoint: RolloutCheckpoint | None
    ) -> int | None:
        """The wave index a resumed execution re-enters at (None: fresh).

        Cross-validates the policy's ``resume_from_wave`` against the
        checkpoint: a resumable policy without the halted run's checkpoint,
        a checkpoint from a different plan, or a disagreeing wave index all
        fail loudly *before* any window simulates.
        """
        resume_from = plan.policy.resume_from_wave
        if checkpoint is None:
            if resume_from is not None:
                raise ConfigurationError(
                    f"policy resumes from wave {resume_from} but no rollout "
                    "checkpoint was supplied; pass the halted run's checkpoint"
                )
            return None
        if checkpoint.plan_fingerprint != plan.waves_fingerprint():
            raise ConfigurationError(
                "rollout checkpoint does not belong to this plan "
                "(the staged waves differ); resume the plan that halted"
            )
        if resume_from is None:
            resume_from = checkpoint.halted_before_wave
        elif resume_from != checkpoint.halted_before_wave:
            raise ConfigurationError(
                f"policy resumes from wave {resume_from} but the checkpoint "
                f"halted before wave {checkpoint.halted_before_wave}"
            )
        if not 1 <= resume_from < len(plan.waves):
            raise ConfigurationError(
                f"resume wave {resume_from} is out of range for a "
                f"{len(plan.waves)}-wave plan"
            )
        return resume_from

    def schedule(
        self,
        simulator: ClusterSimulator,
        plan: RolloutPlan,
        window_hours: float,
        gate: SafetyGate | None = None,
        checkpoint: RolloutCheckpoint | None = None,
    ) -> RolloutExecution:
        """Register the plan's waves as simulator actions (before ``run``).

        Returns the :class:`RolloutExecution` whose records fill in as the
        simulation runs. The policy's per-wave latency gate (or the ``gate``
        override) is evaluated just before each wave after the first; a
        failing gate halts the rollout, reverts every already-deployed
        wave's builds newest first, and leaves the coverage checkpoint on
        :attr:`RolloutExecution.checkpoint`.

        With ``checkpoint`` (and a policy whose ``resume_from_wave`` names
        the halted wave), the execution *resumes*: the checkpointed coverage
        is restored at window start — not re-run as gated waves — and only
        waves from the resume index onward are scheduled, gates included.
        """
        if not plan.waves:
            raise ConfigurationError("empty rollout plan: nothing to deploy")
        resume_from = self.resolve_resume(plan, checkpoint)
        # Validation's per-entry selections double as the population
        # snapshot: a software build changes the flighted machines' selector
        # attributes mid-run, so re-selecting at wave time would silently
        # shrink later waves.
        populations = plan.validate(self.cluster)
        starts = plan.policy.schedule(window_hours)
        execution = RolloutExecution()
        execution._population_ids = frozenset(
            machine.machine_id
            for population in populations.values()
            for machine in population
        )

        def wave_action(index: int, wave: RolloutWave, start: float):
            def action(sim: ClusterSimulator) -> None:
                if execution.halted:
                    execution.records.append(
                        RolloutWaveRecord(
                            wave=wave.name,
                            fraction=wave.fraction,
                            start_hour=start,
                            machines=0,
                            gate=None,
                            applied=False,
                            reverted=False,
                        )
                    )
                    return
                verdict = None
                tracer = current_tracer()
                if index > 0:
                    wave_gate = gate if gate is not None else plan.policy.gate_for(index)
                    with tracer.span("rollout.gate", wave=wave.name):
                        tick = perf_counter()
                        verdict = wave_gate.evaluate(sim)
                        OPS_METRICS.histogram("deploy.gate_seconds").observe(
                            perf_counter() - tick
                        )
                    if not verdict.passed:
                        execution.checkpoint = RolloutCheckpoint(
                            plan_fingerprint=plan.waves_fingerprint(),
                            halted_before_wave=index,
                            halted_wave=wave.name,
                            covered=tuple(sorted(execution._covered.items())),
                            machines_deployed=execution.machines_touched,
                        )
                        self._revert(sim, execution)
                        execution.records.append(
                            RolloutWaveRecord(
                                wave=wave.name,
                                fraction=wave.fraction,
                                start_hour=start,
                                machines=0,
                                gate=verdict,
                                applied=False,
                                reverted=False,
                            )
                        )
                        return
                with tracer.span("rollout.apply", wave=wave.name):
                    tick = perf_counter()
                    machines, new_ids = self._apply_wave(
                        sim, wave, execution, populations
                    )
                    OPS_METRICS.histogram("deploy.apply_seconds").observe(
                        perf_counter() - tick
                    )
                execution.records.append(
                    RolloutWaveRecord(
                        wave=wave.name,
                        fraction=wave.fraction,
                        start_hour=start,
                        machines=machines,
                        gate=verdict,
                        applied=True,
                        reverted=False,
                    )
                )
                boundary = starts[index + 1] if index + 1 < len(starts) else window_hours
                # Soak is *simulated* hours — how long the wave bakes before
                # the next gate — not service wall-clock.
                OPS_METRICS.histogram("deploy.soak_hours").observe(boundary - start)
                execution._impact_meta.append(
                    _WaveImpactWindow(
                        record_index=len(execution.records) - 1,
                        start=start,
                        end=boundary,
                        covered_ids=frozenset(execution._covered_ids),
                        new_ids=frozenset(new_ids),
                        previous_start=starts[index - 1] if index > 0 else 0.0,
                    )
                )

            return action

        if resume_from is not None:
            simulator.schedule_action(
                0.0,
                self._restore_action(
                    plan, checkpoint, resume_from, populations, starts, execution
                ),
            )
        for index, (wave, start) in enumerate(zip(plan.waves, starts, strict=True)):
            if resume_from is not None and index < resume_from:
                continue
            simulator.schedule_action(hours(start), wave_action(index, wave, start))
        return execution

    def _restore_action(
        self,
        plan: RolloutPlan,
        checkpoint: RolloutCheckpoint,
        resume_from: int,
        populations: dict[str, list[Machine]],
        starts: tuple[float, ...],
        execution: RolloutExecution,
    ):
        """The window-start action restoring a checkpoint's coverage.

        The halted run's covered slice gets its builds re-applied in one
        shot — no gates, no soak gaps — and one ``resumed`` record per
        skipped wave documents the restored coverage. Each restored wave is
        measured over the idle hours before the resumed wave: its
        cumulative coverage (as the original waves would have widened it)
        vs the still-untreated rest of the fleet, so restored waves carry
        their own per-step impacts.
        """
        counts = checkpoint.covered_counts()

        def restore(sim: ClusterSimulator) -> None:
            # The union of every wave's entries, in first-appearance order:
            # policy-built plans share one entries tuple, but a hand-built
            # plan may introduce an entry only in a later wave, and its
            # checkpointed coverage must be restored too.
            entries_by_key: dict[str, PlannedFlight] = {}
            for wave in plan.waves:
                for entry in wave.entries:
                    entries_by_key.setdefault(entry.describe(), entry)
            restored_ids: list[int] = []
            for entry in entries_by_key.values():
                key = entry.describe()
                population = populations[key]
                target = min(counts.get(key, 0), len(population))
                if target <= 0:
                    continue
                increment = population[:target]
                self._deploy_build(sim, entry, increment, execution)
                execution._covered[key] = target
                restored_ids.extend(machine.machine_id for machine in increment)
            execution._covered_ids.update(restored_ids)
            execution.machines_touched += len(restored_ids)
            restored = frozenset(restored_ids)
            untreated = execution._population_ids - restored
            resume_start = starts[resume_from]
            previous_targets = {key: 0 for key in populations}
            cumulative: set[int] = set()
            for index in range(resume_from):
                wave = plan.waves[index]
                newly: list[int] = []
                for entry in wave.entries:
                    key = entry.describe()
                    population = populations[key]
                    target = min(
                        self._wave_target(wave.fraction, len(population)),
                        execution._covered.get(key, 0),
                    )
                    increment = population[previous_targets[key]:target]
                    newly.extend(machine.machine_id for machine in increment)
                    previous_targets[key] = max(previous_targets[key], target)
                cumulative.update(newly)
                execution.records.append(
                    RolloutWaveRecord(
                        wave=wave.name,
                        fraction=wave.fraction,
                        start_hour=0.0,
                        machines=len(newly),
                        gate=None,
                        applied=False,
                        reverted=False,
                        resumed=True,
                    )
                )
                execution._impact_meta.append(
                    _WaveImpactWindow(
                        record_index=len(execution.records) - 1,
                        start=0.0,
                        end=resume_start,
                        covered_ids=frozenset(cumulative),
                        new_ids=frozenset(newly),
                        previous_start=0.0,
                        control_ids=untreated,
                    )
                )

        return restore

    def execute(
        self,
        simulator: ClusterSimulator,
        plan: RolloutPlan,
        window_hours: float,
        gate: SafetyGate | None = None,
        checkpoint: RolloutCheckpoint | None = None,
    ) -> RolloutExecution:
        """Schedule the plan, run the simulator, and return the execution.

        Wave impacts are attached from the run's telemetry before returning,
        so every deployed wave's record carries its treatment effect.
        """
        execution = self.schedule(
            simulator, plan, window_hours, gate=gate, checkpoint=checkpoint
        )
        simulator.run(window_hours)
        self.attach_wave_impacts(simulator.result.frame, execution)
        return execution

    # ------------------------------------------------------------------
    # Wave mechanics
    # ------------------------------------------------------------------
    @staticmethod
    def _wave_target(fraction: float, population: int) -> int:
        """Machines covered once a wave at ``fraction`` has applied."""
        if fraction >= 1.0:
            return population
        return min(population, max(1, math.ceil(fraction * population)))

    @staticmethod
    def _deploy_build(
        sim: ClusterSimulator,
        entry: PlannedFlight,
        machines: list[Machine],
        execution: RolloutExecution,
    ) -> None:
        """Apply one entry's build to ``machines`` mid-run, revertibly.

        The single machine-mutation ritual both fresh waves and checkpoint
        restoration go through — resume correctness depends on restoring
        coverage exactly the way a wave would have applied it. Each
        deployment applies its own copy of the build: ``apply`` resets the
        build's saved revert-state, so sharing one instance across waves
        would lose every earlier deployment's ability to revert.
        """
        build = copy.deepcopy(entry.build)
        for machine in machines:
            machine.advance(sim.now)
        build.apply(sim.cluster, machines)
        sim.capacity_changed(machines)
        execution._applied.append((build, list(machines)))

    def _apply_wave(
        self,
        sim: ClusterSimulator,
        wave: RolloutWave,
        execution: RolloutExecution,
        populations: dict[str, list[Machine]],
    ) -> tuple[int, list[int]]:
        applied = 0
        new_ids: list[int] = []
        for entry in wave.entries:
            key = entry.describe()
            population = populations[key]
            covered = execution._covered.get(key, 0)
            target = self._wave_target(wave.fraction, len(population))
            if target <= covered:
                continue
            increment = population[covered:target]
            self._deploy_build(sim, entry, increment, execution)
            execution._covered[key] = target
            new_ids.extend(machine.machine_id for machine in increment)
            applied += len(increment)
        execution._covered_ids.update(new_ids)
        execution.machines_touched += applied
        return applied, new_ids

    def _revert(self, sim: ClusterSimulator, execution: RolloutExecution) -> None:
        """Undo every deployed wave's builds, newest first."""
        for build, machines in reversed(execution._applied):
            for machine in machines:
                machine.advance(sim.now)
            build.revert(sim.cluster, machines)
            sim.capacity_changed(machines)
        execution._applied.clear()
        # Checkpoint-restored waves are as deployed as applied ones: their
        # re-applied builds were just undone too, and the audit trail (and
        # the campaign's reverted-wave tally) must say so.
        execution.records[:] = [
            replace(record, reverted=True)
            if record.applied or record.resumed
            else record
            for record in execution.records
        ]
        execution.halted = True

    # ------------------------------------------------------------------
    # Per-wave impact measurement
    # ------------------------------------------------------------------
    @staticmethod
    def attach_wave_impacts(
        frame: MachineHourFrame,
        execution: RolloutExecution,
    ) -> None:
        """Fill every deployed wave record's ``impact`` from run telemetry.

        Each deployed wave is judged on machine-hour throughput (Total Data
        Read) inside its soak window — the hours between the wave and the
        next boundary (the next wave's start, or the window's end):

        * machines **flighted so far** (covered through this wave) are the
          treated arm, machines **not yet covered** the control, compared
          with :func:`repro.stats.treatment.population_effect`;
        * the fleet wave has no control population left, so it falls back to
          a time contrast on its newly covered machines: their telemetry in
          the previous wave's window vs this wave's window.

        Only hours lying entirely inside a window count (an hour straddling
        a wave boundary mixes pre- and post-treatment telemetry), so a wave
        starting mid-hour never dilutes its own treated arm.

        Waves that never deployed (skipped after a halt, gate-failed) keep
        ``impact`` None. Reverted waves keep the impact measured while their
        builds were live. Called automatically by :meth:`execute`; callers
        driving :meth:`schedule` + ``run`` directly (the facade) invoke it
        once the simulation finishes.
        """

        # One stable sort of the telemetry columns by hour: each window then
        # slices its own hour span with searchsorted and masks by membership
        # instead of rescanning rows per arm. The stable sort preserves
        # within-hour row order (and matches the old hour-bucketing even
        # for out-of-order input), so the contrast arms see exactly the
        # value sequences a linear row scan produced.
        order = np.argsort(frame.column("hour"), kind="stable")
        hours_sorted = frame.column("hour")[order]
        machine_ids = frame.column("machine_id")[order]
        values = frame.column("total_data_read_bytes")[order]
        faulted = frame.column("faulted")
        if faulted.any():
            # Crashed machine-hours are neither treatment nor control: a
            # machine that spent part of the hour dark reads low for reasons
            # no config change caused, and would bias whichever arm it
            # landed in. Masking after the sort keeps the no-fault path on
            # the exact arrays it always used.
            live = ~faulted[order]
            hours_sorted = hours_sorted[live]
            machine_ids = machine_ids[live]
            values = values[live]

        def window_values(ids: frozenset[int], lo: int, hi: int) -> np.ndarray:
            if hi <= lo or not ids:
                return np.empty(0)
            lo_i = np.searchsorted(hours_sorted, lo, side="left")
            hi_i = np.searchsorted(hours_sorted, hi, side="left")
            if hi_i <= lo_i:
                return np.empty(0)
            wanted = np.fromiter(ids, dtype=np.int64, count=len(ids))
            selected = np.isin(machine_ids[lo_i:hi_i], wanted)
            return values[lo_i:hi_i][selected]

        for window in execution._impact_meta:
            hour_lo, hour_hi = _full_hours(window.start, window.end)
            treated = window_values(window.covered_ids, hour_lo, hour_hi)
            uncovered_ids = (
                window.control_ids
                if window.control_ids is not None
                else execution._population_ids - window.covered_ids
            )
            if uncovered_ids:
                control = window_values(uncovered_ids, hour_lo, hour_hi)
            else:
                # Fleet wave: contrast the newly covered machines against
                # their own pre-wave window instead. No fallback hour here —
                # a rollout with no pre-wave history (a single wave at the
                # window start) has nothing untreated to compare against,
                # and population_effect degrades gracefully on an empty arm.
                prev_lo = math.ceil(window.previous_start - 1e-9)
                prev_hi = math.floor(window.start + 1e-9)
                control = (
                    window_values(window.new_ids, prev_lo, prev_hi)
                    if prev_hi > prev_lo
                    else []
                )
                treated = window_values(window.new_ids, hour_lo, hour_hi)
            effect = population_effect(control, treated)
            execution.records[window.record_index] = replace(
                execution.records[window.record_index], impact=effect
            )
