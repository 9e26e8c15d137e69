"""Tests for the YARN-like scheduler: placement, slot tracking, queueing."""

import random
from types import SimpleNamespace

import pytest

from repro.cluster import build_cluster, small_fleet_spec
from repro.cluster.config import GroupLimits, YarnConfig
from repro.cluster.scheduler import YarnScheduler
from repro.utils.errors import SchedulingError
from repro.workload.task import Task


def make_task():
    return Task(
        job=None, operator="Process", work_seconds=100.0,
        data_bytes=1e9, cpu_fraction=0.8, ram_gb=2.0, ssd_gb=10.0,
    )


def queue_host(cluster, task):
    """The one machine whose container queue holds ``task``."""
    (machine,) = [
        m for m in cluster.machines if any(q.task is task for q in m.queue)
    ]
    return machine


def tiny_cluster(max_containers=2, queue_limit=1_000_000):
    config = YarnConfig(
        default_limits=GroupLimits(
            max_running_containers=max_containers,
            max_queued_containers=queue_limit,
        )
    )
    return build_cluster(small_fleet_spec(), config)


class TestPlacement:
    def test_places_on_free_machine(self):
        cluster = tiny_cluster()
        scheduler = YarnScheduler(cluster, seed=1)
        task = make_task()
        machine = scheduler.place(task, now=0.0)
        assert machine is not None and not machine.queue
        assert scheduler.queued_placements == 0

    def test_placement_spreads_across_machines(self):
        """With everything free, placements should hit many machines."""
        cluster = tiny_cluster(max_containers=50)
        scheduler = YarnScheduler(cluster, seed=1)
        hits = set()
        for _ in range(300):
            machine = scheduler.place(make_task(), now=0.0)
            hits.add(machine.machine_id)
        assert len(hits) > len(cluster.machines) * 0.9

    def test_full_machine_leaves_available_set(self):
        cluster = tiny_cluster(max_containers=1)
        scheduler = YarnScheduler(cluster, seed=1)
        n = len(cluster.machines)
        for _ in range(n):
            machine = scheduler.place(make_task(), now=0.0)
            assert machine is not None
            machine.start_task(0.0, 0.8, 2.0, 10.0, 1e9, 100.0)
        assert scheduler.free_slot_machines == 0

    def test_saturated_cluster_queues(self):
        cluster = tiny_cluster(max_containers=1)
        scheduler = YarnScheduler(cluster, seed=1)
        for _ in range(len(cluster.machines)):
            machine = scheduler.place(make_task(), now=0.0)
            machine.start_task(0.0, 0.8, 2.0, 10.0, 1e9, 100.0)
        assert not scheduler.saturated  # no free slot, but queue space
        overflow = make_task()
        assert scheduler.place(overflow, now=0.0) is None
        assert queue_host(cluster, overflow).queue[-1].enqueue_time == 0.0
        assert scheduler.queued_placements == 1

    def test_full_queues_everywhere_raises(self):
        cluster = tiny_cluster(max_containers=1, queue_limit=0)
        scheduler = YarnScheduler(cluster, seed=1)
        for _ in range(len(cluster.machines)):
            machine = scheduler.place(make_task(), now=0.0)
            machine.start_task(0.0, 0.8, 2.0, 10.0, 1e9, 100.0)
        assert scheduler.saturated
        with pytest.raises(SchedulingError):
            scheduler.place(make_task(), now=0.0)


class TestSlotSetMaintenance:
    def test_refresh_after_limit_increase(self):
        cluster = tiny_cluster(max_containers=1)
        scheduler = YarnScheduler(cluster, seed=1)
        machine = cluster.machines[0]
        machine.start_task(0.0, 0.8, 2.0, 10.0, 1e9, 100.0)
        scheduler.refresh_machine(machine)
        assert machine.machine_id not in scheduler._pos
        machine.apply_limits(GroupLimits(max_running_containers=4))
        scheduler.refresh_machine(machine)
        assert scheduler.free_slot_machines == len(cluster.machines)

    def test_refresh_after_limit_decrease(self):
        cluster = tiny_cluster(max_containers=5)
        scheduler = YarnScheduler(cluster, seed=1)
        machine = cluster.machines[0]
        machine.apply_limits(GroupLimits(max_running_containers=1))
        machine.start_task(0.0, 0.8, 2.0, 10.0, 1e9, 100.0)
        scheduler.refresh_machine(machine)
        assert machine.machine_id not in scheduler._pos

    def test_rebuild_reflects_current_state(self):
        cluster = tiny_cluster(max_containers=1)
        scheduler = YarnScheduler(cluster, seed=1)
        for machine in cluster.machines[:5]:
            machine.start_task(0.0, 0.8, 2.0, 10.0, 1e9, 100.0)
        scheduler.rebuild()
        assert scheduler.free_slot_machines == len(cluster.machines) - 5

    def test_deterministic_given_seed(self):
        cluster_a = tiny_cluster()
        cluster_b = tiny_cluster()
        sched_a = YarnScheduler(cluster_a, seed=9)
        sched_b = YarnScheduler(cluster_b, seed=9)
        picks_a = [sched_a.place(make_task(), 0.0).machine_id for _ in range(20)]
        picks_b = [sched_b.place(make_task(), 0.0).machine_id for _ in range(20)]
        assert picks_a == picks_b


def saturate(cluster, scheduler):
    """Start one task on every machine of a max_containers=1 cluster."""
    for _ in range(len(cluster.machines)):
        machine = scheduler.place(make_task(), now=0.0)
        assert machine is not None
        machine.start_task(0.0, 0.8, 2.0, 10.0, 1e9, 100.0)


class TestQueueSpaceSet:
    def test_note_finished_dead_code_is_gone(self):
        # _handle_finish always used refresh_machine; the stale
        # note_finished path must not linger as a second, subtly different
        # way to re-admit machines.
        assert not hasattr(YarnScheduler, "note_finished")

    def test_machine_draining_queue_rejoins_free_slot_set(self):
        cluster = tiny_cluster(max_containers=1)
        scheduler = YarnScheduler(cluster, seed=3)
        saturate(cluster, scheduler)
        queued = make_task()
        assert scheduler.place(queued, now=0.0) is None
        machine = queue_host(cluster, queued)
        assert scheduler.free_slot_machines == 0
        # The running task finishes; the simulator's finish path drains the
        # queue (the queued task starts, refilling the slot) and refreshes.
        machine.finish_task(10.0, 0.8, 2.0, 10.0, 1e9, 100.0)
        task, _wait = machine.dequeue(10.0)
        machine.start_task(10.0, 0.8, 2.0, 10.0, 1e9, 100.0)
        scheduler.refresh_machine(machine)
        assert machine.machine_id not in scheduler._pos  # slot refilled
        # The drained task finishes with an empty queue: one refresh — the
        # exact call _handle_finish makes — puts the machine back in the
        # free-slot set.
        machine.finish_task(20.0, 0.8, 2.0, 10.0, 1e9, 100.0)
        scheduler.refresh_machine(machine)
        assert machine.machine_id in scheduler._pos
        assert scheduler.free_slot_machines == 1

    def test_queue_space_set_tracks_fills_and_drains(self):
        cluster = tiny_cluster(max_containers=1, queue_limit=1)
        scheduler = YarnScheduler(cluster, seed=2)
        n = len(cluster.machines)
        assert scheduler.queue_space_machines == n
        saturate(cluster, scheduler)
        # Queue one task everywhere: each placement consumes the target's
        # only queue slot (probes or the O(1) fallback, never an O(n) scan).
        for _ in range(n):
            assert scheduler.place(make_task(), now=0.0) is None
        assert scheduler.queue_space_machines == 0
        assert scheduler.saturated
        with pytest.raises(SchedulingError):
            scheduler.place(make_task(), now=0.0)
        # Draining one queue re-admits exactly that machine.
        machine = cluster.machines[0]
        machine.dequeue(5.0)
        scheduler.refresh_machine(machine)
        assert scheduler.queue_space_machines == 1
        assert not scheduler.saturated
        follow_up = make_task()
        assert scheduler.place(follow_up, now=5.0) is None
        assert queue_host(cluster, follow_up) is machine

    def test_fallback_draw_leaves_placement_stream_untouched(self):
        # The legacy fallback was a deterministic scan consuming nothing
        # from the placement RNG; the O(1) replacement draws from its own
        # stream. Snapshot the main RNG before each queued placement and
        # replay only the probe draws on a clone: however the fallback
        # fired, the main stream must have advanced by exactly the probes.
        cluster = tiny_cluster(max_containers=1, queue_limit=1)
        scheduler = YarnScheduler(cluster, seed=17)
        saturate(cluster, scheduler)
        machines = cluster.machines
        fallback_fired = 0
        for _ in range(len(machines)):
            clone = random.Random()
            clone.setstate(scheduler._rng.getstate())
            task = make_task()
            assert scheduler.place(task, now=0.0) is None
            chosen = queue_host(cluster, task)
            for _probe in range(YarnScheduler._QUEUE_PROBES):
                candidate = machines[clone.randrange(len(machines))]
                # The chosen machine had space at probe time (its queue
                # filled only after the pick); everyone else's state is
                # unchanged since the probe.
                if candidate is chosen or candidate.has_queue_space:
                    break
            else:
                fallback_fired += 1
            assert scheduler._rng.getstate() == clone.getstate()
        assert fallback_fired > 0  # the O(1) fallback was actually exercised


class _StubMachine:
    """Just enough of a machine for the scheduler's free-slot draw."""

    def __init__(self, machine_id):
        self.machine_id = machine_id
        self.n_running = 0
        self.max_running_containers = 1_000_000
        self.has_free_slot = True
        self.has_queue_space = True


class TestUniformDraw:
    """``place`` unrolls ``randrange(n)`` into a rejection loop over
    ``getrandbits``; every digest depends on that stream staying identical."""

    @pytest.mark.parametrize("seed", [0, 1, 17, 2**31 - 1])
    def test_draw_matches_randrange_for_every_set_size(self, seed):
        machines = [_StubMachine(i) for i in range(4096)]
        scheduler = YarnScheduler(SimpleNamespace(machines=machines), seed=seed)
        reference = random.Random(seed)
        task = make_task()
        # One continuous stream across every n in 1..4096 (n = 1 and every
        # power of two included), so a rejection that consumed a different
        # number of bits would shift every later draw.
        for n in range(1, 4097):
            scheduler._available = machines[:n]
            for _ in range(3):
                picked = scheduler.place(task, now=0.0)
                assert picked.machine_id == reference.randrange(n)
        assert scheduler._rng.getstate() == reference.getstate()

    def test_place_drops_a_machine_whose_last_slot_it_hands_out(self):
        cluster = tiny_cluster(max_containers=2)
        scheduler = YarnScheduler(cluster, seed=4)
        machine = scheduler.place(make_task(), now=0.0)
        assert machine.machine_id in scheduler._pos  # its second slot is free
        machine.start_task(0.0, 0.8, 2.0, 10.0, 1e9, 100.0)
        while scheduler.place(make_task(), now=0.0) is not machine:
            pass
        # That placement handed out the last slot: the machine left the
        # free-slot set before the caller started the task.
        assert machine.machine_id not in scheduler._pos
        assert machine.n_running == 1
