"""YARN-like resource manager: uniform-random container placement + queueing.

The paper's Level IV abstraction rests on an observed scheduler property:
"the scheduler randomizes tasks uniformly across nodes" (Figure 6). This
scheduler reproduces that contract:

* A ready task is placed on a machine drawn **uniformly at random among
  machines with a free container slot** (free slot = running containers below
  the group's ``max_num_running_containers``).
* When no machine has a free slot, the container is queued on a random
  machine with queue space (Section 5.3: "low priority containers will be
  queued on each machine when all machines in the cluster reach the maximum
  number of running containers"). Faster machines free slots more often and
  therefore drain their queues faster — the asymmetry behind Figure 12.

Both the free-slot set and the queue-space set use a swap-pop list +
position map so placement — started *or* queued — is O(1) even with
hundreds of thousands of placements per simulated day and fleets of
thousands of machines.
"""

from __future__ import annotations

import random

from repro.cluster.cluster import Cluster
from repro.cluster.machine import Machine
from repro.utils.errors import SchedulingError
from repro.workload.task import Task

__all__ = ["YarnScheduler"]


def _add(members: list[Machine], pos: dict[int, int], machine: Machine) -> None:
    """Add ``machine`` to a swap-pop set (``members`` + its position map)."""
    if machine.machine_id not in pos:
        pos[machine.machine_id] = len(members)
        members.append(machine)


def _remove(members: list[Machine], pos: dict[int, int], machine: Machine) -> None:
    """Drop ``machine`` from a swap-pop set: the last member takes its slot."""
    index = pos.pop(machine.machine_id, None)
    if index is not None:
        last = members.pop()
        if last.machine_id != machine.machine_id:
            members[index] = last
            pos[last.machine_id] = index


class YarnScheduler:
    """Uniform-random placement with per-machine low-priority queues."""

    # How many random probes to try before the queue-space-set fallback.
    _QUEUE_PROBES = 8

    def __init__(self, cluster: Cluster, seed: int = 0):
        self.cluster = cluster
        self._rng = random.Random(seed)
        # The queue-space fallback draws from its own stream: the legacy
        # fallback was a deterministic scan that consumed nothing from the
        # placement stream, so the O(1) replacement must not perturb it
        # either — every simulation keeps its exact placement sequence.
        self._fallback_rng = random.Random(seed ^ 0x5EED5EED)
        self._available: list[Machine] = []
        self._pos: dict[int, int] = {}
        self._queue_space: list[Machine] = []
        self._queue_pos: dict[int, int] = {}
        self.queued_placements = 0
        self.rebuild()

    # ------------------------------------------------------------------
    # Free-slot / queue-space set maintenance
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Recompute both membership sets from machine state (after config changes)."""
        self._available = [m for m in self.cluster.machines if m.has_free_slot]
        self._pos = {m.machine_id: i for i, m in enumerate(self._available)}
        self._queue_space = [m for m in self.cluster.machines if m.has_queue_space]
        self._queue_pos = {m.machine_id: i for i, m in enumerate(self._queue_space)}

    def refresh_machine(self, machine: Machine) -> None:
        """Re-evaluate one machine's set memberships (after limit/queue change)."""
        (_add if machine.has_free_slot else _remove)(self._available, self._pos, machine)
        (_add if machine.has_queue_space else _remove)(
            self._queue_space, self._queue_pos, machine
        )

    @property
    def free_slot_machines(self) -> int:
        """How many machines currently have at least one free slot."""
        return len(self._available)

    @property
    def queue_space_machines(self) -> int:
        """How many machines currently have container-queue space."""
        return len(self._queue_space)

    @property
    def saturated(self) -> bool:
        """True when no machine has a free slot or queue space."""
        return not self._available and not self._queue_space

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place(self, task: Task, now: float, waited: float = 0.0) -> Machine | None:
        """Place ``task``: pick a random free machine, else queue it.

        Returns the machine the caller must start ``task`` on, or None when
        every slot was busy and ``task`` went into a random machine's queue
        (``waited`` backdates that enqueue: see :meth:`Machine.enqueue`).
        A machine whose last free slot this start takes leaves the free-slot
        set here, so the caller must start ``task`` before placing again.
        Raises :class:`SchedulingError` when the scheduler is
        :attr:`saturated`; callers check that first.
        """
        available = self._available
        n = len(available)
        if n:
            # randrange(n) unrolled: _randbelow_with_getrandbits's rejection
            # loop over the bound getrandbits, so the stream is identical.
            rng = self._rng
            k = n.bit_length()
            r = rng.getrandbits(k)
            while r >= n:
                r = rng.getrandbits(k)
            machine = available[r]
            if machine.n_running + 1 >= machine.max_running_containers:
                _remove(available, self._pos, machine)
            return machine
        machine = self._pick_queue_machine()
        machine.enqueue(now, task, waited)
        if not machine.has_queue_space:
            _remove(self._queue_space, self._queue_pos, machine)
        self.queued_placements += 1
        return None

    def _pick_queue_machine(self) -> Machine:
        machines = self.cluster.machines
        for _ in range(self._QUEUE_PROBES):
            candidate = machines[self._rng.randrange(len(machines))]
            if candidate.has_queue_space:
                return candidate
        # Queues are nearly everywhere full: pick uniformly among the
        # machines that still have space — O(1) via the queue-space set,
        # where the old fallback was an O(n) min() scan per queued
        # placement under overload.
        if not self._queue_space:
            raise SchedulingError(
                "every machine's container queue is full; the cluster is "
                "overloaded beyond its configured queueing capacity"
            )
        return self._queue_space[
            self._fallback_rng.randrange(len(self._queue_space))
        ]
