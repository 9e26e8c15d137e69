"""A single simulated machine (compute node).

The machine owns all *local* runtime state — running containers, the
low-priority container queue, power state — and all telemetry accounting.
Telemetry uses exact time integrals: every state change first advances the
integrals with the old state (``advance``), then applies the change, so the
hourly averages are exact regardless of event spacing. ``start_task`` and
``finish_task``, which run once per task, inline the healthy uncapped case
of ``advance`` (and ``start_task`` inlines ``task_duration``) with the same
float operations in the same order. At every hour boundary
the simulator calls :meth:`flush_hour_into`, which appends the machine-hour to
the run's :class:`~repro.telemetry.frame.MachineHourFrame` and resets the
accumulators.

Task-duration model (Level IV abstraction — machines matter, individual
task-to-task interference does not):

``duration = work / (speed · feature · throttle) · (1 + beta·util) · io_penalty``

where ``speed`` is the SKU per-core speed, ``throttle`` the power-capping
frequency factor, ``beta`` the SKU contention sensitivity, ``util`` the CPU
utilization at task start, and ``io_penalty`` grows with the machine's
current I/O rate against the temp-store medium (HDD for SC1, SSD for SC2).

Everything in that formula that depends only on configuration — cores,
``speed · feature``, ``beta``, the temp-store I/O capacity and the software's
I/O coefficient — is cached in slots and refreshed whenever ``software`` or
``feature_enabled`` is assigned, so the per-event paths read plain
attributes instead of recomputing them. A power cap enters only through the
throttle factor, which depends on the utilization at task start.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.cluster import power as power_model
from repro.cluster.config import GroupLimits
from repro.cluster.power import UTILIZATION_EXPONENT
from repro.cluster.sku import Sku
from repro.cluster.software import MachineGroupKey, SoftwareConfig

__all__ = ["Machine", "QueuedTask", "RAM_BASE_GB", "SSD_BASE_GB"]

RAM_BASE_GB = 6.0
"""OS / agent / cache RAM footprint with zero containers (intercept of Eq. 12)."""

SSD_BASE_GB = 40.0
"""Base SSD footprint (system images, logs) with zero containers (Eq. 11)."""


@dataclass(slots=True)
class QueuedTask:
    """A container waiting in a machine's low-priority queue."""

    task: object  # repro.workload.task.Task; typed loosely to avoid a cycle
    enqueue_time: float


class Machine:
    """One compute node: identity, configuration, runtime state, telemetry."""

    __slots__ = (
        "machine_id",
        "name",
        "sku",
        "_software",
        "rack",
        "chassis",
        "row",
        "subcluster",
        "max_running_containers",
        "max_queued_containers",
        "cap_watts",
        "_feature_enabled",
        "faulted",
        "slowdown",
        "n_running",
        "active_cores",
        "io_rate_bytes_per_s",
        "ram_gb_in_use",
        "ssd_gb_in_use",
        "queue",
        "_last_update",
        "_int_active_cores",
        "_int_containers",
        "_int_io_bytes",
        "_int_ram",
        "_int_ssd",
        "_int_power",
        "_int_queue_len",
        "_tasks_finished",
        "_cpu_seconds",
        "_task_seconds",
        "_queue_waits",
        "_queue_enqueued",
        "_queue_dequeued",
        "_uncapped_seconds",
        "_uncapped_util_pow_seconds",
        "_fault_seconds",
        "_peak_running",
        "_window_start",
        # Configuration constants of the duration model (see _refresh).
        "_cores",
        "_speed",
        "_beta",
        "_io_capacity",
        "_io_coeff",
    )

    def __init__(
        self,
        machine_id: int,
        sku: Sku,
        software: SoftwareConfig,
        rack: int,
        chassis: int,
        row: int,
        subcluster: int,
        limits: GroupLimits,
    ):
        self.machine_id = machine_id
        self.name = f"m{machine_id:06d}"
        self.sku = sku
        self._software = software
        self.rack = rack
        self.chassis = chassis
        self.row = row
        self.subcluster = subcluster
        self.max_running_containers = limits.max_running_containers
        self.max_queued_containers = limits.max_queued_containers
        self.cap_watts: float | None = None
        self._feature_enabled = False
        self._refresh()
        # Fault-plane state: a faulted (crashed) machine accepts no work and
        # draws no power; ``slowdown`` > 1 models a straggler (degraded node).
        self.faulted = False
        self.slowdown = 1.0
        # Runtime state.
        self.n_running = 0
        self.active_cores = 0.0
        self.io_rate_bytes_per_s = 0.0
        self.ram_gb_in_use = RAM_BASE_GB
        self.ssd_gb_in_use = SSD_BASE_GB
        self.queue: deque[QueuedTask] = deque()
        # Telemetry integrals for the current hour.
        self._last_update = 0.0
        self._reset_accumulators()

    # ------------------------------------------------------------------
    # Configuration (each write refreshes the cached constants)
    # ------------------------------------------------------------------
    @property
    def software(self) -> SoftwareConfig:
        """The machine's software configuration (SC)."""
        return self._software

    @software.setter
    def software(self, software: SoftwareConfig) -> None:
        self._software = software
        self._refresh()

    @property
    def feature_enabled(self) -> bool:
        """Whether the processor Feature is on."""
        return self._feature_enabled

    @feature_enabled.setter
    def feature_enabled(self, enabled: bool) -> None:
        self._feature_enabled = enabled
        self._refresh()

    def _refresh(self) -> None:
        """Recompute the duration model's configuration constants."""
        sku = self.sku
        software = self._software
        self._cores = sku.cores
        speed = sku.speed_factor
        if self._feature_enabled:
            speed *= power_model.FEATURE_SPEED_BOOST
        self._speed = speed
        self._beta = sku.contention_beta
        mbps = sku.ssd_io_mbps if software.temp_store_on_ssd else sku.hdd_io_mbps
        self._io_capacity = mbps * 1e6
        self._io_coeff = software.io_contention_coeff

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    @property
    def group_key(self) -> MachineGroupKey:
        """The SC–SKU machine-group this machine belongs to."""
        return MachineGroupKey(software=self._software.name, sku=self.sku.name)

    @property
    def has_free_slot(self) -> bool:
        """True when another container may start right now."""
        return self.n_running < self.max_running_containers and not self.faulted

    @property
    def has_queue_space(self) -> bool:
        """True when another container may be queued."""
        return len(self.queue) < self.max_queued_containers and not self.faulted

    @property
    def cpu_utilization(self) -> float:
        """Instantaneous CPU utilization in [0, 1]."""
        return min(1.0, self.active_cores / self._cores)

    # ------------------------------------------------------------------
    # Task-duration model
    # ------------------------------------------------------------------
    def io_penalty(self) -> float:
        """Duration multiplier from temp-store I/O contention (≥ 1).

        SC1 (temp store on HDD) divides the current I/O rate by the slow HDD
        bandwidth, SC2 by the much larger SSD bandwidth, so the same load
        penalizes SC1 far more — the mechanism behind Table 4.
        """
        return 1.0 + self._io_coeff * (self.io_rate_bytes_per_s / self._io_capacity)

    def task_duration(self, work_seconds: float) -> float:
        """Execution time of ``work_seconds`` of normalized work started now.

        The one duration formula, shared by capped and uncapped machines: the
        throttle factor is exactly 1.0 without a cap and ``slowdown`` exactly
        1.0 on healthy machines, and multiplying by 1.0 is a bitwise no-op.
        """
        utilization = self.active_cores / self._cores
        if utilization > 1.0:
            utilization = 1.0
        cap = self.cap_watts
        throttle = 1.0 if cap is None else power_model.throttle_factor(
            self.sku, utilization, self._feature_enabled, cap
        )
        return (
            work_seconds / (self._speed * throttle)
            * (1.0 + self._beta * utilization)
            * (1.0 + self._io_coeff * (self.io_rate_bytes_per_s / self._io_capacity))
            * self.slowdown
        )

    def power_draw(self) -> float:
        """Current power draw in watts (post-capping)."""
        return power_model.power_draw_watts(
            self.sku, self.cpu_utilization, self._feature_enabled, self.cap_watts
        )

    # ------------------------------------------------------------------
    # State transitions (the simulator calls these)
    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Integrate telemetry up to ``now`` with the current state.

        Power draw is affine in utilization when no cap is set, so for
        uncapped machines (the common case) the power integral is derived
        from the active-core integral at flush time instead of per event.
        """
        dt = now - self._last_update
        if dt <= 0.0:  # already integrated up to (or past) ``now``
            return
        active = self.active_cores
        cores = self._cores
        self._int_active_cores += (active if active < cores else cores) * dt
        self._int_containers += self.n_running * dt
        self._int_io_bytes += self.io_rate_bytes_per_s * dt
        self._int_ram += self.ram_gb_in_use * dt
        self._int_ssd += self.ssd_gb_in_use * dt
        if self.faulted:
            # A crashed machine is powered off: no power integral, and the
            # downtime itself is accumulated for the availability column.
            self._fault_seconds += dt
        elif self.cap_watts is not None:
            self._int_power += self.power_draw() * dt
        else:
            utilization = active / cores if active < cores else 1.0
            self._uncapped_seconds += dt
            self._uncapped_util_pow_seconds += utilization**UTILIZATION_EXPONENT * dt
        if self.queue:
            self._int_queue_len += len(self.queue) * dt
        self._last_update = now

    def start_task(self, now: float, cpu_fraction: float, ram_gb: float,
                   ssd_gb: float, data_bytes: float, work_seconds: float) -> float:
        """Admit one container now; return its execution duration in seconds.

        Inlines :meth:`advance` (healthy, uncapped) and :meth:`task_duration`.
        """
        dt = now - self._last_update
        if dt > 0.0 and (self.faulted or self.cap_watts is not None):
            self.advance(now)
        elif dt > 0.0:
            active = self.active_cores
            cores = self._cores
            self._int_active_cores += (active if active < cores else cores) * dt
            self._int_containers += self.n_running * dt
            self._int_io_bytes += self.io_rate_bytes_per_s * dt
            self._int_ram += self.ram_gb_in_use * dt
            self._int_ssd += self.ssd_gb_in_use * dt
            utilization = active / cores if active < cores else 1.0
            self._uncapped_seconds += dt
            self._uncapped_util_pow_seconds += utilization**UTILIZATION_EXPONENT * dt
            if self.queue:
                self._int_queue_len += len(self.queue) * dt
            self._last_update = now
        running = self.n_running + 1
        self.n_running = running
        if running > self._peak_running:
            self._peak_running = running
        active = self.active_cores + cpu_fraction
        self.active_cores = active
        self.ram_gb_in_use += ram_gb
        self.ssd_gb_in_use += ssd_gb
        utilization = active / self._cores
        if utilization > 1.0:
            utilization = 1.0
        cap = self.cap_watts
        throttle = 1.0 if cap is None else power_model.throttle_factor(
            self.sku, utilization, self._feature_enabled, cap
        )
        io_rate = self.io_rate_bytes_per_s
        duration = (
            work_seconds / (self._speed * throttle)
            * (1.0 + self._beta * utilization)
            * (1.0 + self._io_coeff * (io_rate / self._io_capacity))
            * self.slowdown
        )
        self.io_rate_bytes_per_s = io_rate + data_bytes / duration
        return duration

    def finish_task(self, now: float, cpu_fraction: float, ram_gb: float,
                    ssd_gb: float, data_bytes: float, duration: float) -> None:
        """Release one container's resources and account its totals."""
        dt = now - self._last_update
        if dt > 0.0 and (self.faulted or self.cap_watts is not None):
            self.advance(now)
        elif dt > 0.0:
            active = self.active_cores
            cores = self._cores
            self._int_active_cores += (active if active < cores else cores) * dt
            self._int_containers += self.n_running * dt
            self._int_io_bytes += self.io_rate_bytes_per_s * dt
            self._int_ram += self.ram_gb_in_use * dt
            self._int_ssd += self.ssd_gb_in_use * dt
            utilization = active / cores if active < cores else 1.0
            self._uncapped_seconds += dt
            self._uncapped_util_pow_seconds += utilization**UTILIZATION_EXPONENT * dt
            if self.queue:
                self._int_queue_len += len(self.queue) * dt
            self._last_update = now
        self.n_running -= 1
        # Clamped at the idle baseline against float drift; conditionals
        # rather than max() because this runs once per task.
        cores = self.active_cores - cpu_fraction
        self.active_cores = cores if cores > 0.0 else 0.0
        ram = self.ram_gb_in_use - ram_gb
        self.ram_gb_in_use = ram if ram > RAM_BASE_GB else RAM_BASE_GB
        ssd = self.ssd_gb_in_use - ssd_gb
        self.ssd_gb_in_use = ssd if ssd > SSD_BASE_GB else SSD_BASE_GB
        io_rate = self.io_rate_bytes_per_s - data_bytes / duration
        self.io_rate_bytes_per_s = io_rate if io_rate > 0.0 else 0.0
        self._tasks_finished += 1
        self._cpu_seconds += cpu_fraction * duration
        self._task_seconds += duration

    def enqueue(self, now: float, task: object, waited: float = 0.0) -> None:
        """Queue a low-priority container on this machine.

        ``waited`` is queue time the task already served on a machine that
        crashed; it backdates the enqueue so the eventual dequeue reports the
        joined cross-machine wait.
        """
        self.advance(now)
        self.queue.append(QueuedTask(task=task, enqueue_time=now - waited))
        self._queue_enqueued += 1

    def dequeue(self, now: float) -> tuple[object, float] | None:
        """Pop the oldest queued container; returns (task, wait) or None."""
        if not self.queue:
            return None
        self.advance(now)
        queued = self.queue.popleft()
        wait = now - queued.enqueue_time
        self._queue_waits.append(wait)
        self._queue_dequeued += 1
        return queued.task, wait

    # ------------------------------------------------------------------
    # Fault lifecycle
    # ------------------------------------------------------------------
    def crash(self, now: float) -> None:
        """Take the machine down hard at ``now``.

        Running containers vanish instantly (the simulator requeues them
        elsewhere) and runtime state drops to the powered-off baseline. The
        caller must have drained ``queue`` first — queued tasks carry their
        accrued wait to their next placement.
        """
        self.advance(now)
        self.faulted = True
        self.n_running = 0
        self.active_cores = 0.0
        self.io_rate_bytes_per_s = 0.0
        self.ram_gb_in_use = RAM_BASE_GB
        self.ssd_gb_in_use = SSD_BASE_GB

    def recover(self, now: float) -> None:
        """Bring a crashed machine back into service at ``now``."""
        self.advance(now)
        self.faulted = False

    def note_carried_wait(self, wait: float) -> None:
        """Record a queue wait inherited from a crashed machine's queue.

        Keeps the frame's wait samples end-to-end when a queued task's
        machine dies and the task starts immediately at its next placement
        (a queued re-placement folds the carry into ``enqueue_time`` instead).
        """
        self._queue_waits.append(wait)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def flush_hour_into(self, now: float, hour: int, frame) -> None:
        """Close the hour ending at ``now``, append it to ``frame``, and reset.

        The simulator hot path: the hour's values land directly in the
        frame's column buffers, computed from the exact time integrals.
        """
        self.advance(now)
        seconds = 3600.0
        if self._uncapped_seconds > 0.0:
            # Uncapped draw = idle + dynamic·util^exp; both terms were
            # integrated piecewise in advance(), so this is exact.
            dynamic = power_model.dynamic_power_watts(self.sku, self.feature_enabled)
            self._int_power += (
                self.sku.power_idle_watts * self._uncapped_seconds
                + dynamic * self._uncapped_util_pow_seconds
            )
        # Summing n·dt pieces can round a window spent entirely at its peak
        # container count a few ulps past peak × window; the exact integral
        # never exceeds that product, so an overshoot is rounding: cut it.
        containers = min(
            self._int_containers,
            self._peak_running * (self._last_update - self._window_start),
        )
        # Positional call in append_hour's declared order: this runs once
        # per machine-hour, and keyword packing is measurable at fleet scale.
        frame.append_hour(
            self.machine_id,
            self.name,
            self.sku.name,
            self.software.name,
            self.rack,
            self.row,
            self.subcluster,
            hour,
            self._int_active_cores / (self.sku.cores * seconds),
            containers / seconds,
            self._int_io_bytes,
            self._tasks_finished,
            self._cpu_seconds,
            self._task_seconds,
            self._int_active_cores / seconds,
            self._int_ram / seconds,
            self._int_ssd / seconds,
            self._int_power / seconds,
            self.cap_watts,
            self.feature_enabled,
            self.max_running_containers,
            self._int_queue_len / seconds,
            self._queue_enqueued,
            self._queue_dequeued,
            self._queue_waits,
            # 0.0 fault-seconds divides to exactly 0.0, so the no-fault
            # availability is the literal 1.0 every consumer expects.
            1.0 - self._fault_seconds / seconds,
            self._fault_seconds > 0.0,
        )
        self._reset_accumulators()

    def apply_limits(self, limits: GroupLimits) -> None:
        """Apply new YARN limits (running tasks are never killed)."""
        self.max_running_containers = limits.max_running_containers
        self.max_queued_containers = limits.max_queued_containers

    def _reset_accumulators(self) -> None:
        self._uncapped_seconds = 0.0
        self._uncapped_util_pow_seconds = 0.0
        self._int_active_cores = 0.0
        self._int_containers = 0.0
        self._int_io_bytes = 0.0
        self._int_ram = 0.0
        self._int_ssd = 0.0
        self._int_power = 0.0
        self._int_queue_len = 0.0
        self._tasks_finished = 0
        self._cpu_seconds = 0.0
        self._task_seconds = 0.0
        self._queue_waits = []
        self._queue_enqueued = 0
        self._queue_dequeued = 0
        self._fault_seconds = 0.0
        self._peak_running = self.n_running
        self._window_start = self._last_update

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine({self.name}, {self.group_key.label}, "
            f"running={self.n_running}/{self.max_running_containers})"
        )
