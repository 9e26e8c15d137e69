"""Event-driven cluster simulator.

Drives a :class:`~repro.cluster.cluster.Cluster` under a
:class:`~repro.workload.generator.Workload` and produces exactly the
telemetry the paper's Performance Monitor exposes: a machine-hour frame, job
records, an (optionally sampled) task log, and fine-grained resource samples.

Event kinds, in priority order at equal timestamps:

* ``HOUR`` — telemetry flush for every machine. Runs first so a config
  change scheduled exactly at an hour boundary does not leak into the
  previous hour's telemetry.
* ``ACTION`` — a scheduled callback (flighting deployments, config changes,
  power-cap changes). Runs before arrivals/finishes of the same instant.
* ``ARRIVAL`` — a job arrives; its first stage's tasks are placed.
* ``FINISH`` — a task finishes; stage/job bookkeeping, queue draining.
* ``CRASH`` / ``RECOVER`` / ``SLOW`` — fault-plane events (machine dies,
  comes back, or becomes a straggler). Scheduled only by explicit fault
  injection (:mod:`repro.faults`), so a fault-free run never dispatches
  them — the no-fault hot loop is bit-identical with the plane compiled in.

When no machine has a free slot or queue space (possible once per-group
``max_queued_containers`` limits are tuned down), the task joins one
cluster-wide RM-pending FIFO, as a YARN ResourceManager holds outstanding
container requests, and no event is scheduled. Whenever machines gain
capacity (a finish at the slot limit, ``RECOVER``, a config change, a build
rollout), :meth:`ClusterSimulator.capacity_changed` serves the FIFO, and the
time a task spent there joins its recorded queue wait.

The simulator is deterministic for a given seed (all randomness flows through
named :class:`~repro.utils.rng.RngStreams`).
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from time import perf_counter

from repro.cluster.cluster import Cluster
from repro.cluster.machine import Machine
from repro.cluster.scheduler import YarnScheduler
from repro.obs.profile import SimulatorProfile
from repro.obs.trace import current_tracer
from repro.telemetry.frame import MachineHourFrame
from repro.telemetry.records import JobRecord, ResourceSample, TaskLog
from repro.utils.rng import RngStreams
from repro.utils.units import SECONDS_PER_HOUR
from repro.workload.generator import Workload
from repro.workload.job import JobRuntime, normal_stream
from repro.workload.task import Task

__all__ = [
    "SimulationConfig",
    "ObservationSpec",
    "SimulationResult",
    "ClusterSimulator",
]

# Only the relative order matters (it breaks equal-timestamp ties), and
# fault-plane kinds sort after the others so fault-free runs keep the order
# they had before the plane existed.
_HOUR, _ACTION, _ARRIVAL, _FINISH, _SAMPLE, _CRASH, _RECOVER, _SLOW = range(8)


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Knobs controlling what the simulation records.

    ``task_log_sample_rate`` of 0 disables the per-task log entirely;
    1.0 logs every task (needed for critical-path analyses).
    ``resource_sample_period_s`` > 0 samples (cores, RAM, SSD) usage of up to
    ``resource_sample_machines`` machines at that period (Figure 13 data).
    """

    task_log_sample_rate: float = 0.0
    resource_sample_period_s: float = 0.0
    resource_sample_machines: int = 0
    resource_sample_sku: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.task_log_sample_rate <= 1.0:
            raise ValueError("task_log_sample_rate must be in [0, 1]")
        # Rejects NaN (samples stamped at time NaN) and inf (none recorded).
        period = self.resource_sample_period_s
        if not 0.0 <= period < math.inf or self.resource_sample_machines < 0:
            raise ValueError("resource sampling knobs must be finite and non-negative")


@dataclass(frozen=True, slots=True)
class ObservationSpec:
    """What one observation window must *record* for its consumer.

    Applications have different telemetry needs — SKU design wants
    fine-grained resource samples (Figure 13), critical-path analyses want a
    dense task log, rollout evaluations want benchmark jobs on a cadence.
    An ``ObservationSpec`` is the declarative, picklable statement of those
    needs: it rides on a :class:`~repro.service.pool.SimulationRequest`
    through pool workers and into the cache key, so an application's
    observation plane fans out and memoizes like every other simulation
    (no side-channel re-observation).

    ``benchmark_period_hours`` of None defers to the caller's default (a
    campaign scenario's cadence, or no benchmarks for a plain observe).
    """

    task_log_sample_rate: float = 0.0
    resource_sample_period_s: float = 0.0
    resource_sample_machines: int = 0
    resource_sample_sku: str | None = None
    benchmark_period_hours: float | None = None

    def __post_init__(self) -> None:
        self.to_sim_config()  # validates the knobs the two share
        period = self.benchmark_period_hours
        if period is not None and not 0.0 <= period < math.inf:
            raise ValueError("benchmark_period_hours must be finite and non-negative")

    @property
    def is_default(self) -> bool:
        """True when the spec asks for nothing beyond baseline telemetry."""
        return self == ObservationSpec()

    def to_sim_config(self) -> SimulationConfig:
        """The :class:`SimulationConfig` realizing this spec."""
        return SimulationConfig(
            task_log_sample_rate=self.task_log_sample_rate,
            resource_sample_period_s=self.resource_sample_period_s,
            resource_sample_machines=self.resource_sample_machines,
            resource_sample_sku=self.resource_sample_sku,
        )

    def fingerprint(self) -> str:
        """Stable cache-key material (two equal specs fingerprint equally)."""
        return (
            f"log={self.task_log_sample_rate}"
            f"|rs={self.resource_sample_period_s}"
            f"/{self.resource_sample_machines}"
            f"/{self.resource_sample_sku or '-'}"
            f"|bench={self.benchmark_period_hours}"
        )


@dataclass
class SimulationResult:
    """Everything a simulation run produced.

    Machine-hour telemetry lives in a columnar
    :class:`~repro.telemetry.frame.MachineHourFrame`.
    """

    frame: MachineHourFrame = field(default_factory=MachineHourFrame)
    jobs: list[JobRecord] = field(default_factory=list)
    task_log: TaskLog = field(default_factory=TaskLog)
    resource_samples: list[ResourceSample] = field(default_factory=list)
    jobs_submitted: int = 0
    jobs_completed: int = 0
    tasks_started: int = 0
    tasks_queued: int = 0
    tasks_deferred: int = 0  # placements that joined the RM-pending FIFO
    # Fault-plane counters (all zero on fault-free runs).
    machines_crashed: int = 0
    machines_recovered: int = 0
    tasks_requeued: int = 0  # tasks displaced by a crash (running or queued)
    duration_hours: float = 0.0
    # Wall-clock attribution of the run itself (placement / event processing
    # / telemetry rollup). Out-of-band: never read by simulation logic.
    profile: SimulatorProfile = field(default_factory=SimulatorProfile)

    @property
    def tasks_per_day(self) -> float:
        """Realized task throughput (Table 1 scale metric)."""
        if self.duration_hours <= 0:
            return 0.0
        return self.tasks_started * 24.0 / self.duration_hours

    @property
    def jobs_per_day(self) -> float:
        """Realized job throughput (Table 1 scale metric)."""
        if self.duration_hours <= 0:
            return 0.0
        return self.jobs_submitted * 24.0 / self.duration_hours


class ClusterSimulator:
    """Runs one workload against one cluster, collecting telemetry."""

    def __init__(
        self,
        cluster: Cluster,
        workload: Workload,
        streams: RngStreams | None = None,
        config: SimulationConfig | None = None,
        profile: bool | None = None,
    ):
        self.cluster = cluster
        self.workload = workload
        # Wall-clock profiling gate. None means auto: profile exactly when a
        # recording tracer is active at run start, so traced runs keep full
        # phase attribution while plain runs pay zero perf_counter() calls.
        self._profile = profile
        self._profiling = bool(profile)
        self.streams = streams if streams is not None else RngStreams(0)
        self.config = config if config is not None else SimulationConfig()
        self.scheduler = YarnScheduler(
            cluster, seed=self.streams.get("scheduler-seed").integers(0, 2**31).item()
        )
        self.result = SimulationResult(task_log=TaskLog(self.config.task_log_sample_rate))
        self.now = 0.0
        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = 0  # sequence number of the next event pushed
        # The stream owns the "stages" generator: nothing else draws from it.
        self._stages = normal_stream(self.streams.get("stages"))
        self._log_rng = random.Random(
            self.streams.get("tasklog-seed").integers(0, 2**31).item()
        )
        self._sampled_machines: list[Machine] = []
        # (task, time deferred) for placements that found the cluster saturated.
        self.rm_pending: deque[tuple[Task, float]] = deque()
        self._pending_actions: list[tuple[float, Callable[[ClusterSimulator], None]]] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def schedule_action(
        self, time: float, action: Callable[["ClusterSimulator"], None]
    ) -> None:
        """Register a callback to run at simulation time ``time`` (seconds).

        Must be called before :meth:`run`. Used by flighting/deployment and
        experiment designs to change configuration mid-run.
        """
        self._pending_actions.append((time, action))

    def schedule_crash(self, time: float, machine: Machine) -> None:
        """Schedule ``machine`` to crash at simulation time ``time`` (seconds).

        Running containers are requeued through the normal placement path
        (hitting backpressure if the rest of the fleet is full); queued
        containers carry their accrued wait to the next placement. Crashing
        an already-faulted machine is a no-op.
        """
        self._push(time, _CRASH, machine)

    def schedule_recover(self, time: float, machine: Machine) -> None:
        """Schedule a crashed ``machine`` to rejoin the fleet at ``time``."""
        self._push(time, _RECOVER, machine)

    def schedule_slowdown(
        self, time: float, machine: Machine, factor: float
    ) -> None:
        """Scale ``machine``'s task durations by ``factor`` from ``time`` on.

        ``factor`` > 1 makes a straggler; 1.0 restores nominal speed. Only
        tasks *started* after the event are affected (in-flight durations
        were fixed at start, like a real per-task placement decision).
        """
        if factor <= 0.0:
            raise ValueError(f"slowdown factor must be positive, got {factor}")
        self._push(time, _SLOW, (machine, factor))

    def apply_yarn_config(self, config) -> None:
        """Apply a new YARN config now and refresh scheduler bookkeeping."""
        machines = self.cluster.machines
        self.cluster.apply_yarn_config(config)
        for machine in machines:
            machine.advance(self.now)
        self.capacity_changed(machines)
        # Membership in cluster order, as a scheduler built on this config has.
        self.scheduler.rebuild()

    def capacity_changed(self, machines: Iterable[Machine]) -> None:
        """Hand out whatever slots or queue space ``machines`` just gained.

        Call after anything that changes a machine's limits or availability
        mid-run, with the machines already advanced to ``now``. Each machine
        starts its own queued work in its free slots and has its scheduler
        membership refreshed; then the RM-pending FIFO is served oldest
        first, through the normal uniform placement, until it is empty or
        the cluster is saturated again.
        """
        scheduler = self.scheduler
        now = self.now
        # One task per _place call: counted, not timed (see SimulatorProfile).
        for machine in machines:
            while machine.queue and machine.has_free_slot:
                task, task.carried_wait = machine.dequeue(now)
                self._place((task,), machine, timed=False)
            scheduler.refresh_machine(machine)
        pending = self.rm_pending
        while pending and not scheduler.saturated:
            task, deferred_at = pending.popleft()
            task.carried_wait += now - deferred_at
            self._place((task,), timed=False)

    def run(self, duration_hours: float) -> SimulationResult:
        """Simulate ``duration_hours`` hours and return the collected telemetry."""
        if duration_hours <= 0:
            raise ValueError("duration_hours must be positive")
        horizon = duration_hours * SECONDS_PER_HOUR
        self._push(0.0, _HOUR, 0)
        for time, action in self._pending_actions:
            if 0.0 <= time < horizon:
                self._push(time, _ACTION, action)
        self._pending_actions.clear()
        self._setup_resource_sampling(horizon)

        arrivals = self.workload.arrivals
        arrival_index = 0
        if arrivals and arrivals[0].time < horizon:
            self._push(arrivals[0].time, _ARRIVAL, arrivals[0].template)

        heap, heappop = self._heap, heapq.heappop
        profiling = (
            current_tracer().enabled if self._profile is None else self._profile
        )
        self._profiling = profiling
        if profiling:  # per loop, telemetry dispatch and _place call, not per event
            seq0, pending0 = self._seq, len(heap)
            telemetry_seconds, telemetry_events = 0.0, 0
            loop_start = perf_counter()  # repro: allow[REP001] obs-gated profiling
        while heap:
            time, kind, seq, payload = heappop(heap)
            if time > horizon:
                # Put it back: at the horizon the heap still holds every
                # running task's FINISH.
                heapq.heappush(heap, (time, kind, seq, payload))
                break
            self.now = time
            if kind == _FINISH:
                # Inline: once per task. An entry whose seq is not the task's
                # finish_seq was cancelled by a crash (the task was requeued).
                if payload.finish_seq == seq:
                    machine, job, duration = payload.machine, payload.job, payload.duration
                    # Only a machine at its slot limit or with a queue can
                    # change its scheduler-set membership by finishing a task.
                    refresh = machine.n_running >= machine.max_running_containers or machine.queue
                    machine.finish_task(
                        time, payload.cpu_fraction, payload.ram_gb, payload.ssd_gb,
                        payload.data_bytes, duration,
                    )
                    if job.on_task_finish(time, duration, payload.log_row):
                        self._finish_stage(job)
                    if refresh:
                        self.capacity_changed((machine,))
            elif kind == _ARRIVAL:
                self._handle_arrival(payload)
                arrival_index += 1
                if arrival_index < len(arrivals) and arrivals[arrival_index].time < horizon:
                    self._push(
                        arrivals[arrival_index].time, _ARRIVAL,
                        arrivals[arrival_index].template,
                    )
            elif kind == _HOUR or kind == _SAMPLE:
                if profiling:
                    tick = perf_counter()  # repro: allow[REP001] obs-gated profiling
                if kind == _SAMPLE:
                    self._handle_sample(payload, horizon)
                else:
                    hour = payload
                    if hour > 0:
                        self._flush_hour(hour - 1)
                    if hour * SECONDS_PER_HOUR < horizon:
                        self._push((hour + 1) * SECONDS_PER_HOUR, _HOUR, hour + 1)
                if profiling:
                    # repro: allow[REP001] obs-gated profiling: attribution only, never enters simulation state
                    telemetry_seconds += perf_counter() - tick
                    telemetry_events += 1
            elif kind == _ACTION:
                payload(self)
            elif kind == _CRASH:
                self._handle_crash(payload)
            elif kind == _RECOVER:
                self._handle_recover(payload)
            else:  # _SLOW
                machine, factor = payload
                machine.slowdown = factor
        if profiling:
            profile = self.result.profile  # placement nests in event_seconds
            # repro: allow[REP001] obs-gated profiling: attribution only, never enters simulation state
            profile.event_seconds += perf_counter() - loop_start - telemetry_seconds
            # Every push moved _seq on; the entry put back at the horizon moved neither.
            profile.events += (self._seq - seq0) - (len(heap) - pending0) - telemetry_events
            profile.telemetry_seconds += telemetry_seconds
            profile.telemetry_events += telemetry_events

        self.now = horizon
        self.result.duration_hours = duration_hours
        return self.result

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _push(self, time: float, kind: int, payload: object) -> None:
        """Schedule an event."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, kind, seq, payload))

    def _handle_arrival(self, template) -> None:
        job = JobRuntime(self.result.jobs_submitted, template, self.now, self._stages)
        self.result.jobs_submitted += 1
        self._place(job.start_next_stage(self._stages))

    def _place(
        self, tasks: Iterable[Task], host: Machine | None = None, timed: bool = True
    ) -> None:
        """The one placement loop: start, queue or defer each task in order.

        Without ``host`` each task starts on a uniformly drawn free machine,
        joins a random machine's queue, or, when no machine has either,
        joins the RM-pending FIFO with no event. With ``host`` the tasks were
        just dequeued from it (the wait in ``carried_wait``) and start there.
        A profiled run reads the clock around the call only when ``timed``.
        """
        now = self.now
        result = self.result
        scheduler = self.scheduler
        place = scheduler.place
        # The scheduler's membership lists, read in place: checking
        # ``saturated`` per task would cost a call per task.
        free, queue_space = scheduler._available, scheduler._queue_space
        heap, heappush = self._heap, heapq.heappush
        seq = self._seq
        task_log = result.task_log
        rate = task_log.sample_rate
        profiling = self._profiling
        if profiling:
            queued0 = result.tasks_queued
            if timed:
                tick = perf_counter()  # repro: allow[REP001] obs-gated profiling
        started = 0
        for task in tasks:
            wait = task.carried_wait
            machine = host
            if machine is None:
                if not free and not queue_space:
                    result.tasks_deferred += 1
                    self.rm_pending.append((task, now))
                    continue
                machine = place(task, now, wait)
                if machine is None:
                    # A queued task's enqueue is backdated by its carried wait.
                    task.carried_wait = 0.0
                    result.tasks_queued += 1
                    continue
                if wait > 0.0:
                    # The wait was served RM-pending or on a machine that
                    # died; the machine that runs the task samples it, so
                    # frame telemetry sees the end-to-end figure.
                    machine.note_carried_wait(wait)
            if wait > 0.0:
                task.carried_wait = 0.0
            duration = machine.start_task(
                now, task.cpu_fraction, task.ram_gb, task.ssd_gb, task.data_bytes,
                task.work_seconds,
            )
            started += 1
            log_row = -1
            if rate > 0.0 and (rate >= 1.0 or self._log_rng.random() < rate):
                log_row = task_log.append(
                    sku=machine.sku.name,
                    software=machine.software.name,
                    rack=machine.rack,
                    op=task.operator,
                    duration=duration,
                    data_bytes=task.data_bytes,
                    cpu_seconds=task.cpu_fraction * duration,
                    start=now,
                    queue_wait=wait,
                    job_template=task.job.template.name,
                )
            task.machine = machine
            task.duration = duration
            task.log_row = log_row
            task.finish_seq = seq
            heappush(heap, (now + duration, _FINISH, seq, task))
            seq += 1
        self._seq = seq
        result.tasks_started += started
        if profiling:
            if timed:
                # repro: allow[REP001] obs-gated profiling: attribution only, never enters simulation state
                result.profile.placement_seconds += perf_counter() - tick
            if host is None:  # every task not deferred went through scheduler.place
                result.profile.placements += started + result.tasks_queued - queued0

    def _finish_stage(self, job: JobRuntime) -> None:
        """A stage's last task finished: start the next stage or close the job."""
        if job.last_finish_log_row >= 0:
            self.result.task_log.mark_critical(job.last_finish_log_row)
        if job.has_next_stage:
            self._place(job.start_next_stage(self._stages))
        else:
            job.finished = True
            self.result.jobs_completed += 1
            self.result.jobs.append(
                JobRecord(
                    job_id=job.job_id,
                    template=job.template.name,
                    submit_time=job.submit_time,
                    finish_time=self.now,
                    n_tasks=job.n_tasks_total,
                    total_task_seconds=job.total_task_seconds,
                    is_benchmark=job.template.is_benchmark,
                )
            )

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _handle_crash(self, machine: Machine) -> None:
        if machine.faulted:
            return
        self.result.machines_crashed += 1
        machine.advance(self.now)
        # Displaced work, in deterministic order: queued tasks first (they
        # carry their accrued wait), then running tasks from the heap scan.
        displaced: list[Task] = []
        while machine.queue:
            queued = machine.queue.popleft()
            queued.task.carried_wait = self.now - queued.enqueue_time
            displaced.append(queued.task)
        # O(heap) scan per crash: crashes are rare events, and lazily
        # cancelling beats restructuring the heap on the hot path. An entry
        # is live only while its seq is the task's finish_seq, so a task
        # restarted elsewhere never revives an entry cancelled here.
        for _time, kind, seq, task in self._heap:
            if kind == _FINISH and task.finish_seq == seq and task.machine is machine:
                task.finish_seq = -1
                displaced.append(task)
        machine.crash(self.now)
        # Faulted machines report no free slot / queue space, so the
        # refresh evicts the machine from both scheduler sets.
        self.scheduler.refresh_machine(machine)
        self.result.tasks_requeued += len(displaced)
        self._place(displaced)

    def _handle_recover(self, machine: Machine) -> None:
        if not machine.faulted:
            return
        self.result.machines_recovered += 1
        machine.recover(self.now)
        # Readmit the machine (its queue is empty post-crash) and let it
        # serve RM-pending work.
        self.capacity_changed((machine,))

    def _flush_hour(self, hour: int) -> None:
        end = (hour + 1) * SECONDS_PER_HOUR
        frame = self.result.frame
        for machine in self.cluster.machines:
            machine.flush_hour_into(end, hour, frame)

    # ------------------------------------------------------------------
    # Resource sampling (Figure 13 data)
    # ------------------------------------------------------------------
    def _setup_resource_sampling(self, horizon: float) -> None:
        cfg = self.config
        if cfg.resource_sample_period_s <= 0 or cfg.resource_sample_machines <= 0:
            return
        candidates = [
            m
            for m in self.cluster.machines
            if cfg.resource_sample_sku is None or m.sku.name == cfg.resource_sample_sku
        ]
        self._sampled_machines = candidates[: cfg.resource_sample_machines]
        if self._sampled_machines:
            self._push(cfg.resource_sample_period_s, _SAMPLE, None)

    def _handle_sample(self, _payload: object, horizon: float) -> None:
        for machine in self._sampled_machines:
            self.result.resource_samples.append(
                ResourceSample(
                    machine_id=machine.machine_id,
                    sku=machine.sku.name,
                    software=machine.software.name,
                    time=self.now,
                    cores_in_use=min(machine.active_cores, machine.sku.cores),
                    ram_gb_in_use=machine.ram_gb_in_use,
                    ssd_gb_in_use=machine.ssd_gb_in_use,
                )
            )
        next_time = self.now + self.config.resource_sample_period_s
        if next_time < horizon:
            self._push(next_time, _SAMPLE, None)
