"""The three benchmark workloads, each driven from outside through public calls.

A workload is built from one *variant* — the seeds stored for it in
``expected.json`` — and exposes:

* ``prepare(rep)``: one set-up repetition (the benchmark times several and
  reports the median);
* ``run_op(index, tracer)``: one closed-loop operation, optionally under a
  :class:`repro.obs.Tracer`, returning an :class:`OpResult`;
* ``close()``: stop every worker process the workload started.

Each op times the layers it calls with ``perf_counter`` around the public
function, and when traced wraps those calls in spans of the same names, so
the program's own spans (``service.beat``, ``request.*``, ``simulator.*``
...) nest under them.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from time import perf_counter

from measure import Digest, faulted_machine_hours, frame_digest, frame_parts
from repro.cluster import (
    ClusterSimulator,
    build_cluster,
    default_fleet_spec,
    default_yarn_config,
    small_application_fleet_spec,
)
from repro.cluster.simulator import SimulationResult
from repro.core import APPLICATIONS
from repro.core.kea import Observation
from repro.core.whatif import WhatIfEngine
from repro.cost import default_price_book, frame_cost
from repro.obs import NULL_TRACER, Tracer, activate
from repro.obs.profile import attach_profile_spans
from repro.service import (
    ContinuousTuningService,
    FleetRegistry,
    ProcessPoolBackend,
    SimulationCache,
    TenantSpec,
)
from repro.service.campaign import CampaignPhase
from repro.service.pool import SimulationRequest, config_fingerprint, execute_request
from repro.service.scenarios import default_catalog
from repro.telemetry import PerformanceMonitor
from repro.utils.rng import RngStreams
from repro.workload import WorkloadGenerator, default_templates, estimate_jobs_per_hour
from repro.workload.seasonality import SeasonalityProfile


@dataclass
class OpResult:
    """What one operation measured and produced.

    ``key`` names the expected-output entry the op is checked against;
    ``counts`` are host-independent and must match it exactly; ``layers``
    are host timings and ratios of single layers. ``run.py`` fills in
    ``scaled_s``, the op's time at the reference host speed.
    """

    key: str
    wall_s: float
    machine_hours: float
    digest: str
    counts: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    scaled_s: float = 0.0


def _observe_request(spec, scenario, tag: str, days: float) -> SimulationRequest:
    """An observe window exactly as a campaign's OBSERVE phase requests it."""
    return SimulationRequest(
        tenant=spec.name,
        kind="observe",
        spec=spec,
        scenario=scenario,
        config=default_yarn_config(),
        workload_tag=tag,
        days=days,
    )


# ----------------------------------------------------------------------
# sim-nominal
# ----------------------------------------------------------------------
class SimNominal:
    """One window on the default Figure-2 fleet at nominal diurnal load."""

    name = "sim-nominal"
    HOURS = 2.0
    OCCUPANCY = 0.62
    MEAN_TASK_S = 420.0

    def __init__(self, variant: dict):
        self.seed = int(variant["seed"])
        self.spec = default_fleet_spec()

    def prepare(self, rep: int) -> None:
        self.templates = default_templates()
        reference = build_cluster(self.spec)
        self.jobs_per_hour = estimate_jobs_per_hour(
            reference.total_container_slots,
            self.OCCUPANCY,
            self.templates,
            mean_task_duration_s=self.MEAN_TASK_S,
        )

    def run_op(self, index: int, tracer: Tracer | None) -> OpResult:
        tracer = tracer if tracer is not None else NULL_TRACER
        streams = RngStreams(self.seed)
        with activate(tracer), tracer.span("bench.op", workload=self.name):
            started = perf_counter()
            with tracer.span("cluster.build"):
                cluster = build_cluster(self.spec)
            built = perf_counter()
            with tracer.span("workload.generate"):
                workload = WorkloadGenerator(
                    self.templates,
                    jobs_per_hour=self.jobs_per_hour,
                    seasonality=SeasonalityProfile(),
                    streams=streams.spawn("workload"),
                ).generate(self.HOURS)
            generated = perf_counter()
            simulator = ClusterSimulator(cluster, workload, streams=streams.spawn("sim"))
            with tracer.span("cluster.run") as run_span:
                result = simulator.run(self.HOURS)
            finished = perf_counter()
            attach_profile_spans(tracer, run_span, result.profile)

        frame = result.frame
        counters = (
            result.jobs_submitted,
            result.jobs_completed,
            result.tasks_started,
            result.tasks_queued,
            result.tasks_deferred,
            result.machines_crashed,
            result.machines_recovered,
            result.tasks_requeued,
            len(result.jobs),
        )
        run_s = finished - generated
        return OpResult(
            key="window",
            wall_s=finished - started,
            machine_hours=len(cluster.machines) * self.HOURS,
            digest=Digest().add(*frame_parts(frame), counters).hexdigest(),
            counts={
                "workload.jobs": len(workload),
                "cluster.tasks_started": result.tasks_started,
                "cluster.tasks_queued": result.tasks_queued,
                "cluster.tasks_deferred": result.tasks_deferred,
                "telemetry.rows": len(frame),
                "telemetry.frame_bytes": frame.nbytes,
                "faults.faulted_machine_hours": faulted_machine_hours(frame),
            },
            layers={
                "cluster.build_s": built - started,
                "workload.generate_s": generated - built,
                "cluster.run_s": run_s,
                "cluster.us_per_task": run_s / max(1, result.tasks_started) * 1e6,
            },
            spans=list(tracer.spans) if tracer.enabled else [],
        )

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# campaign-faults
# ----------------------------------------------------------------------
@dataclass
class _Batch:
    requests: list
    outcomes: list
    wall_s: float


class _RecordingBackend(ProcessPoolBackend):
    """The process-pool backend, keeping each batch's requests and outcomes.

    Lets the benchmark read per-request ``OutcomeTiming``, pickled sizes and
    observe frames without reaching into the service's cache.
    """

    def __init__(self, max_workers: int):
        super().__init__(max_workers=max_workers)
        self.batches: list[_Batch] = []

    def run(self, requests):
        started = perf_counter()
        outcomes = super().run(requests)
        if requests:
            self.batches.append(
                _Batch(list(requests), list(outcomes), perf_counter() - started)
            )
        return outcomes

    def take(self) -> list[_Batch]:
        batches, self.batches = self.batches, []
        return batches


class CampaignFaults:
    """A two-tenant campaign on the catalog ``az-outage`` scenario."""

    name = "campaign-faults"
    SCENARIO = "az-outage"
    WORKERS = 2
    CAMPAIGN_KW = dict(observe_days=0.5, impact_days=0.25, flight_hours=4.0)
    #: Window lengths of the pool warm-up requests run in set-up.
    WARM_DAYS = 1.0 / 24.0

    def __init__(self, variant: dict):
        fleet = small_application_fleet_spec()
        self.registry = FleetRegistry()
        self.registry.add(
            TenantSpec(
                name="yarn-config",
                fleet_spec=fleet,
                seed=int(variant["yarn_seed"]),
                application="yarn-config",
            )
        )
        self.registry.add(
            TenantSpec(
                name="queue-tuning",
                fleet_spec=fleet,
                seed=int(variant["queue_seed"]),
                application="queue-tuning",
            )
        )
        self.scenario = default_catalog().get(self.SCENARIO)
        self.backend: _RecordingBackend | None = None

    def prepare(self, rep: int) -> None:
        """Start a fresh 2-worker pool and warm both workers and this process."""
        self.close()
        self.backend = _RecordingBackend(max_workers=self.WORKERS)
        warm = [
            _observe_request(spec, self.scenario, f"bench/warm-{rep}", self.WARM_DAYS)
            for spec in self.registry
        ]
        self.backend.pool.run(warm)
        execute_request(warm[0])

    def _drive(self, service, campaigns):
        """Step ``campaigns`` to completion; returns per-beat records and the
        wall-clock end of the last beat that advanced a campaign."""
        beats = []
        last_end = perf_counter()
        while True:
            deploy = any(
                c.phase is CampaignPhase.DEPLOY for c in campaigns.values() if not c.done
            )
            started = perf_counter()
            advanced = service.step(campaigns)
            ended = perf_counter()
            if not advanced:
                return beats, last_end
            beats.append((ended - started, deploy, self.backend.take()))
            last_end = ended

    def run_op(self, index: int, tracer: Tracer | None) -> OpResult:
        backend = self.backend
        backend.take()
        service = ContinuousTuningService(
            self.registry, backend=backend, cache=SimulationCache(), tracer=tracer
        )
        trace = tracer if tracer is not None else NULL_TRACER
        executed_before = backend.executed
        with activate(trace), trace.span("bench.op", workload=self.name):
            started = perf_counter()
            campaigns = service.launch(self.SCENARIO, **self.CAMPAIGN_KW)
            beats, last_end = self._drive(service, campaigns)
        campaign_s = last_end - started
        executed = backend.executed - executed_before
        cold = service.cache.stats

        # Warm re-run on the same service: every request must be a cache hit.
        service.tracer = NULL_TRACER
        rerun_started = perf_counter()
        rerun = service.launch(self.SCENARIO, **self.CAMPAIGN_KW)
        self._drive(service, rerun)
        rerun_s = perf_counter() - rerun_started
        rerun_stats = service.cache.stats.delta(cold)
        rerun_executed = backend.executed - executed_before - executed

        batches = [batch for _wall, _deploy, taken in beats for batch in taken]
        pairs = [
            (request, outcome)
            for batch in batches
            for request, outcome in zip(batch.requests, batch.outcomes, strict=True)
        ]
        observe_frames = {
            request.tenant: outcome.frame
            for request, outcome in pairs
            if request.kind == "observe"
        }
        digest = self._digest(campaigns, observe_frames)
        if self._digest(rerun, observe_frames) != digest:
            raise RuntimeError("warm re-run produced different campaign reports")
        if rerun_executed:
            raise RuntimeError(f"warm re-run simulated {rerun_executed} request(s)")

        dispatch = 0.0
        for wall, _deploy, taken in beats:
            longest = max(
                (o.timing.elapsed_seconds for b in taken for o in b.outcomes),
                default=0.0,
            )
            dispatch += wall - longest
        busy = sum(o.timing.elapsed_seconds for _r, o in pairs)
        batch_wall = sum(b.wall_s for b in batches)
        reports = {name: c.report() for name, c in campaigns.items()}
        frames = list(observe_frames.values())
        lookups = rerun_stats.hits + rerun_stats.misses
        return OpResult(
            key="campaign",
            wall_s=campaign_s,
            machine_hours=sum(
                r.cost_ledger.total_machine_hours for r in reports.values()
            ),
            digest=digest,
            counts={
                "service.beats": len(beats),
                "service.requests": executed,
                "service.cache_hits": cold.hits + rerun_stats.hits,
                "service.cache_misses": cold.misses + rerun_stats.misses,
                "service.request_bytes": sum(len(pickle.dumps(r)) for r, _o in pairs),
                # Sized as returned by the backend, before the campaign
                # attached its orchestrator-side cost report.
                "service.outcome_bytes": sum(
                    len(pickle.dumps(replace(o, cost=None))) for _r, o in pairs
                ),
                "flighting.waves_shipped": sum(
                    1
                    for r in reports.values()
                    for w in r.rollout_waves
                    if w.applied or w.resumed
                ),
                "telemetry.rows": sum(len(f) for f in frames),
                "telemetry.frame_bytes": sum(f.nbytes for f in frames),
                "faults.faulted_machine_hours": sum(
                    faulted_machine_hours(f) for f in frames
                ),
            },
            layers={
                "service.deploy_beat_s": sum(w for w, deploy, _t in beats if deploy),
                "service.dispatch_overhead_s": dispatch,
                "service.worker_busy_frac": (
                    busy / (self.WORKERS * batch_wall) if batch_wall > 0 else 0.0
                ),
                "service.rerun_s": rerun_s,
                "service.rerun_hit_ratio": (
                    rerun_stats.hits / lookups if lookups else 0.0
                ),
            },
            spans=list(trace.spans) if trace.enabled else [],
        )

    @staticmethod
    def _digest(campaigns, observe_frames) -> str:
        digest = Digest()
        for name in sorted(campaigns):
            campaign = campaigns[name]
            report = campaign.report()
            digest.add(
                name,
                report.application,
                report.final_phase.value,
                report.rounds_run,
                report.deployments,
                report.rollbacks,
                report.capacity_before,
                report.capacity_after,
                [(e.round, e.phase.value, e.detail) for e in report.history],
                config_fingerprint(campaign.config),
                [repr(wave) for wave in report.rollout_waves],
                frame_digest(observe_frames[name]),
            )
        return digest.hexdigest()

    def close(self) -> None:
        if self.backend is not None:
            self.backend.shutdown()
            self.backend = None


# ----------------------------------------------------------------------
# tune-observational
# ----------------------------------------------------------------------
class TuneObservational:
    """Observational analysis passes over observe frames simulated in set-up.

    Each set-up repetition simulates one more one-day observe window of the
    tenant (as a pool worker would) and keeps it pickled; pass ``i`` analyses
    window ``i mod windows``.
    """

    name = "tune-observational"
    DAYS = 1.0
    SCENARIO = "diurnal-baseline"

    def __init__(self, variant: dict):
        self.spec = TenantSpec(
            name="observed",
            fleet_spec=small_application_fleet_spec(),
            seed=int(variant["seed"]),
        )
        self.scenario = default_catalog().get(self.SCENARIO)
        self.price_book = default_price_book()
        self.blobs: list[bytes] = []

    def prepare(self, rep: int) -> None:
        request = _observe_request(
            self.spec, self.scenario, f"bench/observe-{rep}", self.DAYS
        )
        self.blobs.append(pickle.dumps(execute_request(request)))

    def run_op(self, index: int, tracer: Tracer | None) -> OpResult:
        window = index % len(self.blobs)
        blob = self.blobs[window]
        tracer = tracer if tracer is not None else NULL_TRACER
        marks = []
        with activate(tracer), tracer.span("bench.op", workload=self.name):
            marks.append(perf_counter())
            with tracer.span("telemetry.unpickle"):
                outcome = pickle.loads(blob)
            marks.append(perf_counter())
            with tracer.span("telemetry.snapshot"):
                monitor = PerformanceMonitor(outcome.frame)
                snapshot = monitor.snapshot()
            marks.append(perf_counter())
            with tracer.span("telemetry.daily_aggregates"):
                aggregates = monitor.daily_aggregates()
            marks.append(perf_counter())
            with tracer.span("core.calibrate"):
                engine = WhatIfEngine()
                calibration = engine.calibrate(monitor)
            marks.append(perf_counter())
            with tracer.span("cluster.build"):
                observation = Observation(
                    cluster=build_cluster(self.spec.fleet_spec, default_yarn_config()),
                    monitor=monitor,
                    result=SimulationResult(frame=outcome.frame),
                    days=self.DAYS,
                )
            marks.append(perf_counter())
            with tracer.span("core.propose_yarn_config"):
                yarn = APPLICATIONS.create("yarn-config").propose(observation, engine)
            marks.append(perf_counter())
            with tracer.span("core.propose_queue_tuning"):
                queue = APPLICATIONS.create("queue-tuning").propose(observation, engine)
            marks.append(perf_counter())
            with tracer.span("cost.frame_cost"):
                cost = frame_cost(outcome.frame, self.price_book)
            marks.append(perf_counter())

        frame = outcome.frame
        coefficients = [
            (c.group, c.relation.name, c.model.slope, c.model.intercept)
            for c in calibration.calibrated
        ]
        digest = Digest().add(
            config_fingerprint(yarn.proposed_config),
            yarn.summary,
            config_fingerprint(queue.proposed_config),
            queue.summary,
            coefficients,
            sorted(calibration.skipped_groups.items()),
            repr(snapshot),
            repr(cost),
            len(aggregates),
        )
        steps = (
            "telemetry.unpickle_s",
            "telemetry.snapshot_s",
            "telemetry.daily_aggregates_s",
            "core.calibrate_s",
            "cluster.build_s",
            "core.propose_yarn_config_s",
            "core.propose_queue_tuning_s",
            "cost.frame_cost_s",
        )
        return OpResult(
            key=f"window-{window}",
            wall_s=marks[-1] - marks[0],
            machine_hours=float(len(frame)),
            digest=digest.hexdigest(),
            counts={
                "core.groups_calibrated": len(engine.groups()),
                "telemetry.rows": len(frame),
                "telemetry.frame_bytes": frame.nbytes,
                "faults.faulted_machine_hours": faulted_machine_hours(frame),
            },
            layers={
                name: end - start
                for name, start, end in zip(steps, marks[:-1], marks[1:], strict=True)
            },
            spans=list(tracer.spans) if tracer.enabled else [],
        )

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (SimNominal, CampaignFaults, TuneObservational)}
