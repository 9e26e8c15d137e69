"""The continuous tuning service: campaigns over a fleet of fleets.

:class:`ContinuousTuningService` is the top of the subsystem: it owns a
:class:`~repro.service.registry.FleetRegistry` of tenants, a
:class:`~repro.service.scenarios.ScenarioCatalog`, an
:class:`~repro.service.backend.ExecutionBackend` (inline by default; a
process pool or a file-spooled queue plugs in the same way), a
:class:`~repro.service.cache.SimulationCache`, and optionally a
:class:`~repro.service.store.CampaignStore`. One call to
:meth:`~ContinuousTuningService.run_campaigns` drives every selected tenant
through its campaign rounds, batching whichever simulations the campaigns
are simultaneously waiting on into one backend dispatch — so a multi-tenant
campaign's wall-clock approaches that of its slowest tenant, not the sum.

The service is also a **non-blocking front-end**: :meth:`submit` shards the
selected tenants by tenant id and drives each shard on its own thread, so
one slow tenant stalls only its shard, never the fleet's beat;
:meth:`poll` returns a :class:`FleetCampaignReport` snapshot without
blocking on simulation, and :meth:`drain` joins the shards, merges their
traces into the service tracer, and surfaces the first shard failure.

With a store attached, every campaign is persisted after every state
change. A replacement service pointed at the same store calls
:meth:`resume_campaigns` to reconstruct every tenant mid-round and run them
to completion — bit-identical to the run that was never interrupted.

The service is application-agnostic: each campaign runs whatever registered
:class:`~repro.core.application.TuningApplication` its tenant spec,
scenario, or an explicit ``application=`` launch kwarg selects, so one
``run_campaigns`` call can tune YARN limits for one tenant while another
tunes queue lengths or evaluates a power-capping level.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from hashlib import sha256

from repro.flighting.deployment import RolloutCheckpoint
from repro.obs.ledger import TuningCostLedger
from repro.obs.metrics import OPS_METRICS
from repro.obs.trace import NULL_TRACER, Tracer, activate
from repro.service.backend import ExecutionBackend, ProcessPoolBackend
from repro.service.cache import CacheStats, SimulationCache
from repro.service.campaign import Campaign, CampaignGuardrails, CampaignReport
from repro.service.pool import (
    SimulationBatchError,
    SimulationOutcome,
    SimulationRequest,
)
from repro.service.registry import FleetRegistry
from repro.service.scenarios import Scenario, ScenarioCatalog, default_catalog
from repro.service.store import CampaignStore
from repro.utils.errors import ServiceError
from repro.utils.tables import TextTable

__all__ = ["FleetCampaignReport", "ContinuousTuningService"]


@dataclass
class FleetCampaignReport:
    """Everything one multi-tenant campaign run produced."""

    scenario: str
    reports: dict[str, CampaignReport]
    cache_stats: CacheStats
    simulations_executed: int
    #: Per-beat cache traffic in beat order (one
    #: :class:`~repro.service.cache.CacheStats` delta per scheduling beat).
    #: Empty for sharded (submit/poll) runs: shard beats interleave, so
    #: per-beat attribution belongs to the trace, not the report.
    beat_cache_deltas: tuple[CacheStats, ...] = ()
    #: Which execution backend ran the campaigns ("process-pool", "queue").
    #: Out-of-band: never part of a bit-identity comparison.
    backend: str = ""
    #: False while a sharded run still has live shards (a :meth:`poll`
    #: snapshot); drained and synchronous reports are always complete.
    complete: bool = True

    @property
    def deployments(self) -> int:
        """Rounds adopted across all tenants."""
        return sum(r.deployments for r in self.reports.values())

    @property
    def rollbacks(self) -> int:
        """Rounds rolled back across all tenants."""
        return sum(r.rollbacks for r in self.reports.values())

    def summary(self) -> str:
        """Fleet-wide table plus cache/pool accounting."""
        table = TextTable(
            ["tenant", "application", "outcome", "rounds", "deployed",
             "rolled back", "capacity"],
            title=f"Campaign over scenario {self.scenario!r}",
        )
        for name in sorted(self.reports):
            report = self.reports[name]
            table.add_row(
                [
                    name,
                    report.application,
                    report.final_phase.value,
                    str(report.rounds_run),
                    str(report.deployments),
                    str(report.rollbacks),
                    f"{report.capacity_before} → {report.capacity_after} "
                    f"({report.capacity_gain:+.1%})",
                ]
            )
        footer = (
            f"\nsimulations executed: {self.simulations_executed}; "
            f"cache: {self.cache_stats.hits} hit(s), "
            f"{self.cache_stats.misses} miss(es) "
            f"({self.cache_stats.hit_rate:.0%} hit rate)"
        )
        return table.render() + footer

    def fleet_cost_ledger(self) -> TuningCostLedger:
        """Every tenant's tuning cost merged into one fleet-wide ledger."""
        fleet = TuningCostLedger(tenant=f"fleet/{self.scenario}")
        for name in sorted(self.reports):
            fleet.merge(self.reports[name].cost_ledger)
        return fleet

    def ops_report(self) -> str:
        """Operator dashboard: what tuning the fleet *cost* this run.

        Per-tenant simulated machine-hours and service wall-clock, the
        merged per-phase fleet ledger, and per-beat cache traffic — the
        cost-of-tuning readout Tuneful argues a tuner must account for.
        """
        table = TextTable(
            [
                "tenant",
                "sim machine-hours",
                "wall seconds",
                "$ spend",
                "dominant phase",
            ],
            title=f"Tuning cost over scenario {self.scenario!r}",
        )
        for name in sorted(self.reports):
            ledger = self.reports[name].cost_ledger
            dominant = max(
                ledger.phases.values(),
                key=lambda cost: cost.wall_seconds,
                default=None,
            )
            table.add_row(
                [
                    name,
                    f"{ledger.total_machine_hours:,.1f}",
                    f"{ledger.total_wall_seconds:.3f}",
                    f"{ledger.total_dollars:,.2f}",
                    dominant.phase if dominant is not None else "-",
                ]
            )
        beats = "; ".join(
            f"beat {i}: {d.hits}h/{d.misses}m/{d.evictions}e"
            for i, d in enumerate(self.beat_cache_deltas, start=1)
        )
        parts = [table.render(), self.fleet_cost_ledger().summary()]
        if beats:
            parts.append(f"cache per beat (hits/misses/evictions): {beats}")
        return "\n\n".join(parts)


@dataclass
class _Shard:
    """One tenant-sharded drive thread of a submitted run."""

    index: int
    tenants: tuple[str, ...]
    tracer: Tracer
    thread: threading.Thread | None = None


@dataclass
class _FleetRun:
    """Book-keeping of one non-blocking :meth:`submit` run."""

    token: str
    scenario: str
    rounds: int
    campaigns: dict[str, Campaign]
    executed_before: int
    stats_before: CacheStats
    shards: list[_Shard] = field(default_factory=list)
    errors: list[Exception] = field(default_factory=list)
    merged: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def complete(self) -> bool:
        return all(
            shard.thread is None or not shard.thread.is_alive()
            for shard in self.shards
        )


def _shard_key(tenant: str, shards: int) -> int:
    """Stable tenant-id shard assignment (hash-mod, process-independent)."""
    return int(sha256(tenant.encode()).hexdigest(), 16) % shards


class ContinuousTuningService:
    """Long-running orchestrator of tuning campaigns across tenants."""

    def __init__(
        self,
        registry: FleetRegistry,
        catalog: ScenarioCatalog | None = None,
        cache: SimulationCache | None = None,
        guardrails: CampaignGuardrails | None = None,
        tracer: Tracer | None = None,
        backend: ExecutionBackend | None = None,
        store: CampaignStore | None = None,
    ):
        self.registry = registry
        #: The observability tracer every beat records to. The default
        #: NULL_TRACER disables tracing at near-zero cost; pass a
        #: :class:`~repro.obs.trace.Tracer` to capture the run as a trace.
        #: Out-of-band either way: traced and untraced runs are bit-identical.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Per-beat cache-traffic deltas (one entry per step() call).
        self.beat_cache_deltas: list[CacheStats] = []
        self._beats = 0
        self._lock = threading.Lock()
        # A fresh catalog per service: ScenarioCatalog is mutable, and two
        # services must not see each other's registered scenarios.
        self.catalog = catalog if catalog is not None else default_catalog()
        #: Where simulation batches execute; inline by default.
        self.backend: ExecutionBackend = (
            backend if backend is not None else ProcessPoolBackend(max_workers=1)
        )
        #: Durable campaign state. When set, every campaign is persisted at
        #: launch and after every advance, and :meth:`resume_campaigns`
        #: reconstructs a prior service's tenants mid-round.
        self.store = store
        #: Memo of simulated windows, bounded by the bytes it holds.
        self.cache = cache if cache is not None else SimulationCache()
        self.guardrails = guardrails
        self._runs: dict[str, _FleetRun] = {}
        self._run_seq = 0

    def resolve_scenario(self, scenario: str | Scenario) -> Scenario:
        """Accept a scenario by name (via the catalog) or by value."""
        if isinstance(scenario, Scenario):
            return scenario
        return self.catalog.get(scenario)

    def launch(
        self,
        scenario: str | Scenario = "diurnal-baseline",
        tenants: list[str] | None = None,
        rounds: int = 1,
        resume_checkpoint: (
            RolloutCheckpoint | dict[str, RolloutCheckpoint] | None
        ) = None,
        **campaign_kwargs,
    ) -> dict[str, Campaign]:
        """Create (but do not run) one campaign per selected tenant.

        ``campaign_kwargs`` pass through to :class:`Campaign` — including
        ``application=`` to force one registered application for every
        selected tenant (otherwise each tenant spec's or the scenario's
        choice applies). ``resume_checkpoint`` seeds campaigns with a
        checkpoint harvested from an earlier run (e.g.
        ``store.checkpoint(tenant)``): a single checkpoint applies to every
        selected tenant, a dict applies per tenant name. With a store
        attached, every created campaign is persisted immediately, so even
        a service killed before its first beat resumes cleanly.
        """
        resolved = self.resolve_scenario(scenario)
        names = tenants if tenants is not None else self.registry.names()
        if not names:
            raise ServiceError("no tenants selected; register some first")

        def _seed(name: str) -> RolloutCheckpoint | None:
            if isinstance(resume_checkpoint, dict):
                return resume_checkpoint.get(name)
            return resume_checkpoint

        campaigns = {
            name: Campaign(
                spec=self.registry.get(name),
                scenario=resolved,
                guardrails=self.guardrails,
                rounds=rounds,
                resume_checkpoint=_seed(name),
                **campaign_kwargs,
            )
            for name in names
        }
        if self.store is not None:
            for campaign in campaigns.values():
                self.store.save(campaign)
        return campaigns

    def step(
        self,
        campaigns: dict[str, Campaign],
        *,
        tracer: Tracer | None = None,
    ) -> int:
        """One scheduling beat: batch, execute, and apply pending requests.

        Collects every active campaign's pending simulation, serves what it
        can from the cache, fans the rest out over the execution backend in
        one batch, and advances each campaign with its outcome. Returns the
        number of campaigns advanced (0 when all are terminal). With a
        store attached, each campaign is re-persisted right after it
        advances, so the durable state always reflects the last completed
        transition.

        ``tracer`` overrides the service tracer for this beat — sharded
        front-ends pass a per-shard tracer, because one tracer's span stack
        is not safe to interleave across threads.

        When one request of the batch fails, the siblings' completed
        outcomes are cached before the
        :class:`~repro.service.pool.SimulationBatchError` propagates, so a
        retried beat re-simulates only the failing request.
        """
        waiting: list[tuple[Campaign, SimulationRequest]] = []
        for campaign in campaigns.values():
            if campaign.done:
                continue
            request = campaign.pending_request()
            if request is not None:
                waiting.append((campaign, request))
        if not waiting:
            return 0

        with self._lock:
            self._beats += 1
            beat = self._beats
        if tracer is None:
            tracer = self.tracer
        with activate(tracer), tracer.span(
            "service.beat", beat=beat, waiting=len(waiting)
        ):
            outcomes: dict[int, SimulationOutcome] = {}
            to_execute: list[tuple[int, SimulationRequest]] = []
            for index, (_campaign, request) in enumerate(waiting):
                cached = self.cache.lookup(request)
                if cached is not None:
                    outcomes[index] = cached
                    # A hit replays the stored outcome; its original worker
                    # trace is NOT re-merged (those seconds were not spent
                    # this beat) — the event marks the short-circuit instead.
                    tracer.event(
                        "cache.hit", tenant=request.tenant, kind=request.kind
                    )
                else:
                    to_execute.append((index, request))

            with tracer.span(
                "pool.batch",
                requests=len(to_execute),
                backend=self.backend.name,
            ) as batch_span:
                try:
                    fresh = self.backend.run(
                        [request for _, request in to_execute]
                    )
                except SimulationBatchError as error:
                    # The whole batch ran; keep what completed so a retry only
                    # pays for the request that actually failed. Salvaged
                    # siblings carry their worker traces and timings too.
                    for (_index, request), outcome in zip(
                        to_execute, error.outcomes, strict=True
                    ):
                        if outcome is not None:
                            self.cache.store(request, outcome)
                            tracer.merge(
                                outcome.timing.trace, align_to=batch_span.start
                            )
                    self._log_beat_cache_delta(tracer)
                    raise
                for (index, request), outcome in zip(to_execute, fresh, strict=True):
                    self.cache.store(request, outcome)
                    outcomes[index] = outcome
                    # Graft the worker's span tree into this beat's trace,
                    # time-aligned to the batch (worker clocks are
                    # process-local).
                    tracer.merge(outcome.timing.trace, align_to=batch_span.start)

            for index, (campaign, _request) in enumerate(waiting):
                with tracer.span(
                    "campaign.advance",
                    tenant=campaign.spec.name,
                    phase=campaign.phase.value,
                ):
                    campaign.advance(outcomes[index])
                if self.store is not None:
                    self.store.save(campaign)
            self._log_beat_cache_delta(tracer)
        return len(waiting)

    def _log_beat_cache_delta(self, tracer: Tracer) -> None:
        """Record this beat's cache traffic (delta, not lifetime totals)."""
        delta = self.cache.delta_snapshot()
        self.beat_cache_deltas.append(delta)
        OPS_METRICS.histogram("cache.beat_hits").observe(delta.hits)
        OPS_METRICS.histogram("cache.beat_misses").observe(delta.misses)
        tracer.event(
            "cache.beat_delta",
            hits=delta.hits,
            misses=delta.misses,
            evictions=delta.evictions,
            size=delta.size,
        )

    def run_campaigns(
        self,
        scenario: str | Scenario = "diurnal-baseline",
        tenants: list[str] | None = None,
        rounds: int = 1,
        **campaign_kwargs,
    ) -> FleetCampaignReport:
        """Run campaigns for the selected tenants to completion."""
        campaigns = self.launch(
            scenario=scenario, tenants=tenants, rounds=rounds, **campaign_kwargs
        )
        resolved = self.resolve_scenario(scenario)
        return self._drive(campaigns, resolved.name, rounds)

    def _drive(
        self,
        campaigns: dict[str, Campaign],
        scenario_name: str,
        rounds: int,
    ) -> FleetCampaignReport:
        """Step ``campaigns`` to completion and assemble the fleet report."""
        executed_before = self.backend.executed
        stats_before = self.cache.stats
        deltas_before = len(self.beat_cache_deltas)
        with activate(self.tracer), self.tracer.span(
            "service.run_campaigns",
            scenario=scenario_name,
            tenants=len(campaigns),
            rounds=rounds,
        ):
            while self.step(campaigns):
                pass
        return FleetCampaignReport(
            scenario=scenario_name,
            reports={name: c.report() for name, c in campaigns.items()},
            # This run's cache traffic, not the service's lifetime totals.
            cache_stats=self.cache.stats.delta(stats_before),
            simulations_executed=self.backend.executed - executed_before,
            beat_cache_deltas=tuple(self.beat_cache_deltas[deltas_before:]),
            backend=self.backend.name,
        )

    # ------------------------------------------------------------------
    # Durability: recover a prior service's campaigns from the store
    # ------------------------------------------------------------------
    def recover(self, tenants: list[str] | None = None) -> dict[str, Campaign]:
        """Reconstruct persisted campaigns from the attached store.

        ``tenants`` of None recovers every campaign the store holds. The
        recovered campaigns are live mid-round state machines — pass them
        to :meth:`step` or let :meth:`resume_campaigns` drive them.
        """
        if self.store is None:
            raise ServiceError(
                "service has no campaign store; pass store=CampaignStore(...) "
                "to persist and recover campaigns"
            )
        names = tenants if tenants is not None else self.store.tenants()
        if not names:
            raise ServiceError(
                f"campaign store at {self.store.root} holds no campaigns"
            )
        return {name: self.store.load(name) for name in names}

    def resume_campaigns(
        self, tenants: list[str] | None = None
    ) -> FleetCampaignReport:
        """Recover persisted campaigns and run them to completion.

        The restart story: a service killed mid-beat leaves every campaign's
        last completed transition in the store; a fresh service pointed at
        the same store resumes each tenant exactly there. Campaigns are
        deterministic functions of their state, so the resumed fleet report
        is bit-identical to the uninterrupted run's.
        """
        campaigns = self.recover(tenants)
        scenario_name = "+".join(
            sorted({c.scenario.name for c in campaigns.values()})
        )
        rounds = max(c.rounds for c in campaigns.values())
        return self._drive(campaigns, scenario_name, rounds)

    # ------------------------------------------------------------------
    # Non-blocking front-end: submit / poll / drain
    # ------------------------------------------------------------------
    def submit(
        self,
        scenario: str | Scenario = "diurnal-baseline",
        tenants: list[str] | None = None,
        rounds: int = 1,
        shards: int | None = None,
        **campaign_kwargs,
    ) -> str:
        """Launch campaigns and drive them in the background; returns a token.

        Tenants are sharded by tenant id (``shards`` of None gives every
        tenant its own shard) and each shard advances on its own thread, so
        one slow or failing tenant stalls only its shard. The call returns
        as soon as the shard threads are running; use :meth:`poll` for a
        non-blocking snapshot and :meth:`drain` to join and collect.
        """
        campaigns = self.launch(
            scenario=scenario, tenants=tenants, rounds=rounds, **campaign_kwargs
        )
        resolved = self.resolve_scenario(scenario)
        with self._lock:
            self._run_seq += 1
            token = f"run-{self._run_seq}"
        shard_count = shards if shards is not None else len(campaigns)
        if shard_count < 1:
            raise ServiceError(f"shards must be >= 1, got {shard_count}")
        buckets: dict[int, dict[str, Campaign]] = {}
        for name, campaign in campaigns.items():
            buckets.setdefault(_shard_key(name, shard_count), {})[name] = campaign
        run = _FleetRun(
            token=token,
            scenario=resolved.name,
            rounds=rounds,
            campaigns=campaigns,
            executed_before=self.backend.executed,
            stats_before=self.cache.stats,
        )
        for index in sorted(buckets):
            bucket = buckets[index]
            shard_tracer = (
                NULL_TRACER
                if self.tracer is NULL_TRACER
                else Tracer(trace_id=f"{token}/shard-{index}")
            )
            shard = _Shard(
                index=index, tenants=tuple(sorted(bucket)), tracer=shard_tracer
            )
            shard.thread = threading.Thread(
                target=self._drive_shard,
                args=(bucket, shard_tracer, run),
                name=f"tuning-{token}-shard-{index}",
                daemon=True,
            )
            run.shards.append(shard)
        self._runs[token] = run
        OPS_METRICS.counter("service.submits").inc()
        OPS_METRICS.histogram("service.submit_shards").observe(len(run.shards))
        for shard in run.shards:
            shard.thread.start()
        return token

    def _drive_shard(
        self, bucket: dict[str, Campaign], tracer: Tracer, run: _FleetRun
    ) -> None:
        """Thread target: step one shard's campaigns until all are terminal."""
        try:
            with activate(tracer), tracer.span(
                "service.shard", token=run.token, tenants=len(bucket)
            ):
                while self.step(bucket, tracer=tracer):
                    pass
        except Exception as exc:  # surfaced by drain(); shard dies alone
            with run.lock:
                run.errors.append(exc)
            OPS_METRICS.counter("service.shard_failures").inc()

    def _run_for(self, token: str) -> _FleetRun:
        run = self._runs.get(token)
        if run is None:
            known = ", ".join(sorted(self._runs)) or "(none)"
            raise ServiceError(f"unknown run token {token!r}; known: {known}")
        return run

    def poll(self, token: str) -> FleetCampaignReport:
        """A non-blocking snapshot of a submitted run's campaign state.

        Never waits on simulation: reports reflect each campaign's last
        completed transition. ``report.complete`` turns True once every
        shard thread has finished (successfully or not).
        """
        run = self._run_for(token)
        return FleetCampaignReport(
            scenario=run.scenario,
            reports={name: c.report() for name, c in run.campaigns.items()},
            cache_stats=self.cache.stats.delta(run.stats_before),
            simulations_executed=self.backend.executed - run.executed_before,
            backend=self.backend.name,
            complete=run.complete,
        )

    def drain(
        self, token: str | None = None
    ) -> "FleetCampaignReport | dict[str, FleetCampaignReport]":
        """Join a submitted run's shards and return its final report.

        Merges every shard's trace into the service tracer (under one
        ``service.drain`` span), then raises the first shard failure, if
        any — healthy shards' campaigns still completed and their state is
        in the returned report (and the store, when attached). ``token`` of
        None drains every submitted run, keyed by token.
        """
        if token is None:
            return {t: self.drain(t) for t in sorted(self._runs)}
        run = self._run_for(token)
        for shard in run.shards:
            if shard.thread is not None:
                shard.thread.join()
        with run.lock:
            merge_needed = not run.merged
            run.merged = True
        if merge_needed and self.tracer is not NULL_TRACER:
            with activate(self.tracer), self.tracer.span(
                "service.drain", token=token, shards=len(run.shards)
            ) as drain_span:
                for shard in run.shards:
                    self.tracer.merge(
                        tuple(shard.tracer.spans), align_to=drain_span.start
                    )
        if run.errors:
            raise run.errors[0]
        return self.poll(token)

    def close(self) -> None:
        """Join any background shards and release the backend's workers."""
        for run in list(self._runs.values()):
            for shard in run.shards:
                if shard.thread is not None and shard.thread.is_alive():
                    shard.thread.join()
        self.backend.shutdown()

    def __enter__(self) -> "ContinuousTuningService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
