"""Tests for the durable execution plane (:mod:`repro.service`).

Covers the pluggable execution backends (process-pool and queue: salvage
contract, one metric family, spool reuse, worker-crash redrain), the persistent
campaign store (atomic versioned records, round trips, checkpoint harvest),
crash-resume bit-identity across every backend, the non-blocking
submit/poll/drain front-end with tenant-sharded dispatch, seeding a fresh
campaign from a harvested checkpoint, and the pool's idempotent shutdown.
"""

import os
import pickle
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

from repro.cluster import small_fleet_spec
from repro.cluster.cluster import default_yarn_config
from repro.core.application import TuningProposal
from repro.flighting.build import FlightPlan
from repro.flighting.deployment import RolloutCheckpoint
from repro.obs.metrics import OPS_METRICS
from repro.service import (
    CAMPAIGN_STATE_VERSION,
    Campaign,
    CampaignPhase,
    CampaignStore,
    ContinuousTuningService,
    FleetRegistry,
    LocalQueueBackend,
    ProcessPoolBackend,
    Scenario,
    SimulationBatchError,
    SimulationRequest,
    TenantSpec,
    config_fingerprint,
    default_catalog,
    queue_task_id,
)
from repro.service.campaign import TERMINAL_PHASES
from repro.service.pool import execute_window
from repro.utils.errors import ServiceError

CAMPAIGN_KW = dict(observe_days=0.5, impact_days=0.5, flight_hours=4.0)
TENANT_SEEDS = (("east", 11), ("west", 23))


def make_registry(extra: tuple[tuple[str, int], ...] = ()) -> FleetRegistry:
    registry = FleetRegistry()
    for name, seed in TENANT_SEEDS + extra:
        registry.add(TenantSpec(name=name, fleet_spec=small_fleet_spec(), seed=seed))
    return registry


def observe_request(tag: str = "probe/tag") -> SimulationRequest:
    return SimulationRequest(
        tenant="probe",
        kind="observe",
        spec=TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5),
        scenario=default_catalog().get("diurnal-baseline"),
        config=default_yarn_config(),
        workload_tag=tag,
        days=0.25,
    )


def poisoned_request() -> SimulationRequest:
    """Valid to construct, fails inside the worker: the scenario drains a
    SKU the fleet does not have."""
    poison = Scenario(
        name="poison",
        description="decommissions a SKU that does not exist",
        decommission_sku="Gen 99.9",
        decommission_hour=1.0,
    )
    return SimulationRequest(
        tenant="poison",
        kind="observe",
        spec=TenantSpec(name="poison", fleet_spec=small_fleet_spec(), seed=5),
        scenario=poison,
        config=default_yarn_config(),
        workload_tag="poison/tag",
        days=0.25,
    )


def assert_fleet_reports_identical(got, want):
    """Field-wise bit-identity (report metadata like ``backend`` and
    wall-clock ledger seconds are out-of-band and legitimately differ)."""
    assert set(got.reports) == set(want.reports)
    for name, want_report in want.reports.items():
        got_report = got.reports[name]
        assert got_report.final_phase == want_report.final_phase
        assert got_report.capacity_after == want_report.capacity_after
        assert [
            (e.round, e.phase, e.detail) for e in got_report.history
        ] == [(e.round, e.phase, e.detail) for e in want_report.history]
        assert got_report.rollout_waves == want_report.rollout_waves
        assert got_report.rollout_checkpoint == want_report.rollout_checkpoint
        if want_report.last_impact is not None:
            assert got_report.last_impact is not None
            for field in ("throughput", "latency"):
                g = getattr(got_report.last_impact, field)
                w = getattr(want_report.last_impact, field)
                assert g.effect == w.effect
                assert g.test.p_value == w.test.p_value


def run_on_threads(
    backend,
    batches,
    stagger: float = 0.0,
    timeout: float = 120.0,
    return_exceptions: bool = False,
):
    """Run each batch through ``backend`` on its own daemon thread, started
    ``stagger`` seconds apart, and return their outcomes in batch order (a
    batch that raised is re-raised here, or returned in its slot with
    ``return_exceptions``). A batch still waiting after ``timeout`` fails the
    test instead of hanging the suite."""
    results: list = [None] * len(batches)

    def run(slot: int) -> None:
        try:
            results[slot] = backend.run(batches[slot])
        except Exception as exc:  # re-raised on the test's thread
            results[slot] = exc

    threads = [
        threading.Thread(target=run, args=(slot,), daemon=True)
        for slot in range(len(batches))
    ]
    for thread in threads:
        thread.start()
        time.sleep(stagger)
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    assert not any(thread.is_alive() for thread in threads), "a batch never finished"
    for result in results:
        if isinstance(result, Exception) and not return_exceptions:
            raise result
    return results


def make_backend(kind: str, tmp_path_factory):
    if kind == "serial":
        return ProcessPoolBackend(max_workers=1)
    if kind == "pool":
        return ProcessPoolBackend(max_workers=2)
    return LocalQueueBackend(tmp_path_factory.mktemp("spool"), workers=2)


@pytest.fixture(scope="module")
def reference_run():
    """The uninterrupted serial run every durable/sharded run must match."""
    with ContinuousTuningService(
        make_registry(), backend=ProcessPoolBackend(max_workers=1)
    ) as service:
        yield service.run_campaigns(scenario="diurnal-baseline", **CAMPAIGN_KW)


# ----------------------------------------------------------------------
# Backend contract: construction, empty batches, the salvage contract
# ----------------------------------------------------------------------
class TestBackendContract:
    def test_construction_validation(self, tmp_path):
        with pytest.raises(ServiceError, match="workers"):
            LocalQueueBackend(tmp_path / "spool", workers=0)
        with pytest.raises(ServiceError, match="max_attempts"):
            LocalQueueBackend(tmp_path / "spool", max_attempts=0)

    @pytest.mark.parametrize("kind", ["serial", "pool", "queue"])
    def test_empty_batch_runs_nowhere(self, kind, tmp_path_factory):
        with make_backend(kind, tmp_path_factory) as backend:
            assert backend.run([]) == []
            assert backend.executed == 0

    @pytest.mark.parametrize("kind", ["serial", "queue"])
    def test_one_failing_request_does_not_destroy_its_siblings(
        self, kind, tmp_path_factory
    ):
        """The pool's salvage contract holds on the other backends too:
        the batch runs to completion, the error names the failed request,
        and the siblings' outcomes ride along at their original slots."""
        siblings = [observe_request(tag=f"sibling/{kind}/{i}") for i in range(2)]
        batch = [siblings[0], poisoned_request(), siblings[1]]
        with make_backend(kind, tmp_path_factory) as backend:
            with pytest.raises(SimulationBatchError) as err:
                backend.run(batch)
            assert backend.executed == 3
            error = err.value
            assert "tenant='poison'" in str(error)
            assert len(error.outcomes) == 3
            assert error.outcomes[0] is not None and error.outcomes[2] is not None
            assert error.outcomes[1] is None
            [(failed, exc)] = error.failures
            assert failed.tenant == "poison"
            assert isinstance(exc, Exception)
            # The backend survives its failed batch: re-running a salvaged
            # sibling reproduces the same simulation bit for bit.
            (again,) = backend.run([siblings[0]])
            salvaged = error.outcomes[0]
            assert again.workload_tag == salvaged.workload_tag
            assert again.frame == salvaged.frame

    @pytest.mark.parametrize("kind", ["serial", "pool", "queue"])
    def test_every_backend_records_one_metric_family(self, kind, tmp_path_factory):
        """Inline, pooled and queued batches record the same four
        ``backend.*`` series under their own ``backend=`` label, and
        nothing under a second family."""
        batch = [observe_request(tag=f"metrics/{kind}"), poisoned_request()]
        before = OPS_METRICS.snapshot()
        with make_backend(kind, tmp_path_factory) as backend:
            with pytest.raises(SimulationBatchError):
                backend.run(batch)
        after = OPS_METRICS.snapshot()
        moved = {key for key, value in after.items() if before.get(key) != value}
        label = backend.name
        assert {key for key in moved if key.startswith("backend.")} == {
            f"backend.batches{{backend={label}}}",
            f"backend.batch_fanout{{backend={label}}}",
            f"backend.request_seconds{{backend={label},kind=observe}}",
            f"backend.failures{{backend={label},kind=observe}}",
        }
        assert not any(key.startswith("pool.") for key in moved)


# ----------------------------------------------------------------------
# The queue backend's spool: durable results, restart reuse, redrains
# ----------------------------------------------------------------------
class TestQueueSpool:
    def test_task_ids_are_deterministic_and_key_complete(self):
        request = observe_request()
        clone = pickle.loads(pickle.dumps(request))
        assert queue_task_id(request, 0) == queue_task_id(clone, 0)
        assert queue_task_id(request, 1) == queue_task_id(clone, 1)
        assert queue_task_id(request, 0) != queue_task_id(request, 1)
        assert queue_task_id(request, 0) != queue_task_id(
            observe_request(tag="probe/b"), 0
        )

    def test_restart_reuses_results_a_prior_drain_landed(self, tmp_path):
        """The restartability story: a window already in ``done/`` is reused
        verbatim — not re-simulated — when the same batch is re-run."""
        done_first = observe_request(tag="spool/keep")
        fresh_only = observe_request(tag="spool/fresh")
        seeded = execute_window(done_first, 0)
        backend = LocalQueueBackend(tmp_path / "spool", workers=1)
        done_path = backend._done_path(queue_task_id(done_first, 0))
        done_path.write_bytes(pickle.dumps(seeded, protocol=pickle.HIGHEST_PROTOCOL))
        with backend:
            reused, executed = backend.run([done_first, fresh_only])
        # Only the missing window was executed; the seeded outcome is the
        # spooled record itself (its worker wall-clock proves it: a re-run
        # could never reproduce those exact seconds).
        assert backend.executed == 1
        assert reused.workload_tag == done_first.workload_tag
        assert reused.timing.elapsed_seconds == seeded.timing.elapsed_seconds
        assert executed.workload_tag == fresh_only.workload_tag
        # Collected results are cleared: the spool never grows unboundedly.
        assert not done_path.exists()

    def test_duplicate_requests_spool_once(self, tmp_path):
        request = observe_request(tag="spool/dup")
        with LocalQueueBackend(tmp_path / "spool", workers=2) as backend:
            first, second = backend.run([request, request])
        assert backend.executed == 1
        assert first.timing.elapsed_seconds == second.timing.elapsed_seconds

    def test_dead_workers_are_requeued_then_given_up_on(
        self, tmp_path, monkeypatch
    ):
        """Workers that die without producing results trigger a redrain;
        ``max_attempts`` bounds the retries and the spool is kept for
        post-mortem."""
        import repro.service.backend as backend_mod

        monkeypatch.setattr(
            backend_mod, "_drain_worker", lambda spool: os._exit(1)
        )
        backend = LocalQueueBackend(tmp_path / "spool", workers=1, max_attempts=2)
        request = observe_request(tag="spool/doomed")
        with pytest.raises(ServiceError, match="gave up"):
            backend.run([request])
        # The unexecuted task is still spooled for inspection/retry.
        assert backend._pending_path(queue_task_id(request, 0)).exists()
        backend.shutdown()

    def test_worker_crash_mid_batch_recovers_by_redrain(
        self, tmp_path, monkeypatch
    ):
        """First worker dies before producing anything; the collector
        requeues and a respawned worker completes the batch."""
        import repro.service.backend as backend_mod

        real_worker = backend_mod._drain_worker
        crash_flag = tmp_path / "crashed-once"

        def crash_once(spool):
            if not crash_flag.exists():
                crash_flag.touch()
                os._exit(1)
            real_worker(spool)

        monkeypatch.setattr(backend_mod, "_drain_worker", crash_once)
        redrains_before = OPS_METRICS.counter("queue.redrains").value
        with LocalQueueBackend(
            tmp_path / "spool", workers=1, max_attempts=3
        ) as backend:
            (outcome,) = backend.run([observe_request(tag="spool/crashy")])
        assert outcome.kind == "observe"
        assert OPS_METRICS.counter("queue.redrains").value > redrains_before

    def test_window_that_kills_its_workers_fails_only_its_own_request(
        self, tmp_path, monkeypatch
    ):
        """A window that kills every worker claiming it (an OOM kill, a
        native crash) is charged those deaths alone: after ``max_attempts``
        its request fails, while a batch waiting at the same moment and a
        later batch on the same backend both succeed.

        The poisoned window's id sorts first, so a worker always claims it
        before the healthy ones; counting deaths per backend instead of per
        task gave up on every batch waiting while it cycled."""
        import repro.service.backend as backend_mod

        real_execute = backend_mod.execute_window

        def deadly_execute(request, index):
            if request.workload_tag.startswith("poison/"):
                os._exit(1)
            return real_execute(request, index)

        monkeypatch.setattr(backend_mod, "execute_window", deadly_execute)
        poison = observe_request(tag="poison/0")
        healthy = replace(observe_request(tag="healthy/0"), days=0.1)
        later = replace(observe_request(tag="later/0"), days=0.1)
        poison_id = queue_task_id(poison, 0)
        assert poison_id < queue_task_id(healthy, 0)
        assert poison_id < queue_task_id(later, 0)
        redrains_before = OPS_METRICS.counter("queue.redrains").value
        with LocalQueueBackend(tmp_path / "spool", workers=1, max_attempts=2) as backend:
            failed, (got_healthy,) = run_on_threads(
                backend, [[poison], [healthy]], stagger=0.05, return_exceptions=True
            )
            (got_later,) = backend.run([later])
        assert isinstance(failed, SimulationBatchError)
        ((request, error),) = failed.failures
        assert request is poison
        assert isinstance(error, ServiceError) and "gave up" in str(error)
        assert OPS_METRICS.counter("queue.redrains").value - redrains_before == 2
        assert got_healthy.frame == real_execute(healthy, 0).result.frame
        assert got_later.frame == real_execute(later, 0).result.frame
        assert [p.name for p in (tmp_path / "spool").rglob("*") if p.is_file()] == []

    def test_concurrent_batches_share_one_worker_set(self, tmp_path, monkeypatch):
        """Two batches driven from two threads through one ``workers=1``
        backend: both are drained by the backend's one worker, and neither
        takes, kills or re-runs the other's windows.

        The tags put the spool in the order short A, long A, B. With a
        worker per batch, B's worker claimed A's long window, A's own worker
        ran out of work and exited, and A redrained the window it still
        waited on, so the long window ran twice."""
        import repro.service.backend as backend_mod

        real_execute = backend_mod.execute_window
        markers = tmp_path / "markers"
        markers.mkdir()

        def counted_execute(request, index):
            stamp = f"{os.getpid()}.{time.monotonic_ns()}"
            (markers / f"{queue_task_id(request, index)}.{stamp}").touch()
            return real_execute(request, index)

        monkeypatch.setattr(backend_mod, "execute_window", counted_execute)
        short_a = observe_request(tag="race/a-short/10")
        long_a = replace(observe_request(tag="race/a-long/10"), days=1.5)
        only_b = observe_request(tag="race/b/10")
        ids = [queue_task_id(request, 0) for request in (short_a, long_a, only_b)]
        assert ids == sorted(ids), "re-pick tags: the spool must list short A, long A, B"
        counters = ("queue.redrains", "queue.workers_spawned")
        before = [OPS_METRICS.counter(name).value for name in counters]
        with LocalQueueBackend(tmp_path / "spool", workers=1) as backend:
            got_a, got_b = run_on_threads(
                backend, [[short_a, long_a], [only_b]], stagger=0.05
            )
        after = [OPS_METRICS.counter(name).value for name in counters]
        assert [a - b for a, b in zip(after, before, strict=True)] == [0, 1]
        ran = Counter(path.name.split(".")[0] for path in markers.iterdir())
        assert ran == dict.fromkeys(ids, 1)
        for got, batch in ((got_a, (short_a, long_a)), (got_b, (only_b,))):
            assert [outcome.frame for outcome in got] == [
                real_execute(request, 0).result.frame for request in batch
            ]

    def test_workers_claim_windows_in_spool_order(self, tmp_path, monkeypatch):
        """A batch spooled later waits behind an earlier one, wherever its
        task ids sort: with ids in the order A1 < B < A2, one worker runs A1,
        A2, B. Claiming in id order ran B before A2."""
        import repro.service.backend as backend_mod

        real_execute = backend_mod.execute_window
        markers = tmp_path / "markers"
        markers.mkdir()

        def stamped_execute(request, index):
            stamp = f"{time.monotonic_ns():020d}"
            (markers / f"{stamp}.{queue_task_id(request, index)}").touch()
            return real_execute(request, index)

        monkeypatch.setattr(backend_mod, "execute_window", stamped_execute)
        a1 = replace(observe_request(tag="order/a1/0"), days=0.5)
        a2 = observe_request(tag="order/a2/0")
        only_b = observe_request(tag="order/b/0")
        a1_id, a2_id, b_id = (queue_task_id(r, 0) for r in (a1, a2, only_b))
        assert a1_id < b_id < a2_id, "re-pick tags: ids must sort A1, B, A2"
        with LocalQueueBackend(tmp_path / "spool", workers=1) as backend:
            run_on_threads(backend, [[a1, a2], [only_b]], stagger=0.05)
        ran = [path.name.split(".")[1] for path in sorted(markers.iterdir())]
        assert ran == [a1_id, a2_id, b_id]

    def test_overlapping_batches_from_many_threads_empty_the_spool(self, tmp_path):
        """Four threads run batches that share windows on three workers: every
        batch gets the inline frames, and once all have collected, nothing is
        left in ``pending/``, ``claimed/`` or ``done/`` — a window two batches
        wait on is spooled once and cleared by the last to collect it."""
        requests = [
            replace(observe_request(tag=f"stress/{i}"), days=0.1) for i in range(3)
        ]
        batches = [[requests[i % 3], requests[(i + 1) % 3]] for i in range(4)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with LocalQueueBackend(tmp_path / "spool", workers=3) as backend:
                got = run_on_threads(backend, batches)
        finally:
            sys.setswitchinterval(switch)
        frames = {r.workload_tag: execute_window(r, 0).result.frame for r in requests}
        for outcomes, batch in zip(got, batches, strict=True):
            assert [o.frame for o in outcomes] == [frames[r.workload_tag] for r in batch]
        assert [p.name for p in (tmp_path / "spool").rglob("*") if p.is_file()] == []


# ----------------------------------------------------------------------
# The campaign store: atomic versioned records
# ----------------------------------------------------------------------
class TestCampaignStore:
    def _store_with_one_beat(self, tmp_path) -> tuple[CampaignStore, Campaign]:
        """A store holding 'east' exactly one beat into its campaign."""
        store = CampaignStore(tmp_path / "store")
        service = ContinuousTuningService(
            make_registry(), backend=ProcessPoolBackend(max_workers=1), store=store
        )
        campaigns = service.launch(
            scenario="diurnal-baseline", tenants=["east"], **CAMPAIGN_KW
        )
        service.step(campaigns)
        service.close()
        return store, campaigns["east"]

    def test_round_trip_restores_mid_round_state(self, tmp_path):
        store, live = self._store_with_one_beat(tmp_path)
        assert store.tenants() == ["east"]
        loaded = store.load("east")
        assert loaded.phase is live.phase
        assert loaded.phase is not CampaignPhase.OBSERVE  # genuinely mid-round
        assert loaded.round == live.round
        assert config_fingerprint(loaded.config) == config_fingerprint(live.config)
        assert [(e.round, e.phase, e.detail) for e in loaded.history] == [
            (e.round, e.phase, e.detail) for e in live.history
        ]
        assert loaded.application.name == live.application.name
        assert loaded.spec == live.spec
        assert loaded.engine is None  # the what-if engine never crosses beats

    def test_load_is_loud_on_missing_and_foreign_records(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        with pytest.raises(ServiceError, match="no persisted campaign"):
            store.load("ghost")
        store.record_path("ghost").write_bytes(
            pickle.dumps({"version": 99, "state": {}})
        )
        with pytest.raises(
            ServiceError, match=f"reads version {CAMPAIGN_STATE_VERSION}"
        ):
            store.load("ghost")

    def test_tenants_discard_and_clear(self, tmp_path):
        store, _live = self._store_with_one_beat(tmp_path)
        # A torn/foreign sidecar is skipped, not fatal.
        (store.root / "junk.campaign.json").write_text("{not json")
        assert store.tenants() == ["east"]
        store.discard("never-saved")  # no-op
        store.discard("east")
        assert store.tenants() == []
        assert not store.record_path("east").exists()
        store.clear()  # idempotent on an empty store

    def test_slugs_keep_hostile_tenant_names_on_the_filesystem(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        hostile = "../we st/ρ:1"
        spec = TenantSpec(name=hostile, fleet_spec=small_fleet_spec(), seed=3)
        campaign = Campaign(spec, default_catalog().get("diurnal-baseline"))
        path = store.save(campaign)
        assert path.parent == store.root  # no traversal out of the root
        assert store.tenants() == [hostile]
        assert store.load(hostile).spec.name == hostile
        # Distinct hostile names never collide on one slug.
        other = TenantSpec(name="../we st/ρ:2", fleet_spec=small_fleet_spec())
        assert store.record_path(other.name) != store.record_path(hostile)


# ----------------------------------------------------------------------
# Crash-resume: kill the service mid-beat, restart, bit-identical report
# ----------------------------------------------------------------------
class TestCrashResume:
    @pytest.mark.parametrize("kind", ["serial", "pool", "queue"])
    def test_resumed_run_is_bit_identical_to_uninterrupted(
        self, kind, tmp_path_factory, reference_run
    ):
        store = CampaignStore(tmp_path_factory.mktemp("store"))
        crashed = ContinuousTuningService(
            make_registry(),
            backend=make_backend(kind, tmp_path_factory),
            store=store,
        )
        # Kill the service mid-beat: the third campaign.advance of the run
        # dies before mutating its campaign, exactly like a SIGKILL between
        # a batch landing and the beat completing.
        original_advance = Campaign.advance
        calls = {"n": 0}

        def dying_advance(self, outcome):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("injected mid-beat crash")
            return original_advance(self, outcome)

        Campaign.advance = dying_advance
        try:
            with pytest.raises(RuntimeError, match="injected"):
                crashed.run_campaigns(scenario="diurnal-baseline", **CAMPAIGN_KW)
        finally:
            Campaign.advance = original_advance
        crashed.close()
        assert calls["n"] == 3  # the crash actually landed mid-run

        # A replacement service pointed at the same store resumes every
        # tenant from its last persisted transition and finishes the run.
        resumed_service = ContinuousTuningService(
            make_registry(),
            backend=make_backend(kind, tmp_path_factory),
            store=store,
        )
        with resumed_service:
            resumed = resumed_service.resume_campaigns()
        assert resumed.scenario == "diurnal-baseline"
        assert_fleet_reports_identical(resumed, reference_run)

    def test_recover_requires_a_store_with_records(self, tmp_path):
        storeless = ContinuousTuningService(make_registry(), backend=ProcessPoolBackend(max_workers=1))
        with pytest.raises(ServiceError, match="no campaign store"):
            storeless.recover()
        empty = ContinuousTuningService(
            make_registry(),
            backend=ProcessPoolBackend(max_workers=1),
            store=CampaignStore(tmp_path / "store"),
        )
        with pytest.raises(ServiceError, match="holds no campaigns"):
            empty.recover()


# ----------------------------------------------------------------------
# The non-blocking front-end: submit / poll / drain, sharded by tenant
# ----------------------------------------------------------------------
class TestNonBlockingFrontEnd:
    def test_submit_poll_drain_matches_the_synchronous_run(self, reference_run):
        with ContinuousTuningService(
            make_registry(), backend=ProcessPoolBackend(max_workers=1)
        ) as service:
            token = service.submit(scenario="diurnal-baseline", **CAMPAIGN_KW)
            # poll() never blocks on simulation: it snapshots immediately,
            # whether or not the shards have finished.
            snapshot = service.poll(token)
            assert set(snapshot.reports) == {"east", "west"}
            assert isinstance(snapshot.complete, bool)
            final = service.drain(token)
        assert final.complete
        assert final.backend == "process-pool"
        assert_fleet_reports_identical(final, reference_run)
        # Draining again is a cheap no-op returning the same final state.
        assert service.drain(token).complete

    def test_unknown_token_is_rejected(self):
        with ContinuousTuningService(
            make_registry(), backend=ProcessPoolBackend(max_workers=1)
        ) as service:
            with pytest.raises(ServiceError, match="unknown run token"):
                service.poll("run-999")

    def test_one_failing_shard_does_not_stall_the_fleet(self):
        """Tenant-sharded dispatch: the doomed tenant's shard dies alone;
        every healthy shard still runs its campaign to a terminal phase,
        and drain surfaces the failure only after joining them all."""
        original_advance = Campaign.advance

        def doomed_advance(self, outcome):
            if self.spec.name == "doomed":
                raise RuntimeError("doomed tenant's shard dies")
            return original_advance(self, outcome)

        Campaign.advance = doomed_advance
        try:
            with ContinuousTuningService(
                make_registry(extra=(("doomed", 7),)), backend=ProcessPoolBackend(max_workers=1)
            ) as service:
                token = service.submit(scenario="diurnal-baseline", **CAMPAIGN_KW)
                with pytest.raises(RuntimeError, match="doomed tenant"):
                    service.drain(token)
                survivors = service.poll(token)
        finally:
            Campaign.advance = original_advance
        assert survivors.complete
        for name in ("east", "west"):
            assert survivors.reports[name].final_phase in TERMINAL_PHASES
        assert survivors.reports["doomed"].final_phase not in TERMINAL_PHASES

    def test_drain_without_token_collects_every_run(self, reference_run):
        with ContinuousTuningService(
            make_registry(), backend=ProcessPoolBackend(max_workers=1)
        ) as service:
            first = service.submit(
                scenario="diurnal-baseline", tenants=["east"], **CAMPAIGN_KW
            )
            second = service.submit(
                scenario="diurnal-baseline", tenants=["west"], **CAMPAIGN_KW
            )
            everything = service.drain()
        assert set(everything) == {first, second}
        assert set(everything[first].reports) == {"east"}
        assert set(everything[second].reports) == {"west"}
        for token in (first, second):
            for name, report in everything[token].reports.items():
                assert (
                    report.final_phase
                    == reference_run.reports[name].final_phase
                )


# ----------------------------------------------------------------------
# Seeding a fresh campaign from a harvested checkpoint
# ----------------------------------------------------------------------
class TestResumeSeed:
    def _campaign_with_proposal(self, resume_checkpoint=None) -> Campaign:
        spec = TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5)
        campaign = Campaign(
            spec,
            default_catalog().get("diurnal-baseline"),
            resume_checkpoint=resume_checkpoint,
        )
        group = next(iter(campaign.config.limits))
        campaign.tuning = TuningProposal(
            application="yarn-config",
            summary="fabricated",
            proposed_config=campaign.config.with_container_delta({group: 1}),
            config_deltas={group: 1},
        )
        campaign._flight_plan = FlightPlan.from_container_deltas({group: 1})
        return campaign

    def _harvestable_checkpoint(self) -> RolloutCheckpoint:
        """A checkpoint whose fingerprint matches the plan a fabricated
        probe campaign stages."""
        plan = self._campaign_with_proposal()._deploy_plan()
        return RolloutCheckpoint(
            plan_fingerprint=plan.waves_fingerprint(),
            halted_before_wave=2,
            halted_wave="50%",
            covered=tuple((e.describe(), 2) for e in plan.waves[0].entries),
            machines_deployed=2 * len(plan.waves[0].entries),
        )

    def test_seed_checkpoint_resumes_at_the_halted_wave(self, tmp_path):
        checkpoint = self._harvestable_checkpoint()
        campaign = self._campaign_with_proposal(resume_checkpoint=checkpoint)
        campaign._enter_deploy()
        assert campaign.phase is CampaignPhase.DEPLOY
        assert campaign._seed_checkpoint is None  # consumed, never re-armed
        assert campaign.rollout_checkpoint == checkpoint
        request = campaign.pending_request()
        assert request.kind == "resume"
        assert request.checkpoint == checkpoint
        assert (
            request.rollout.policy.resume_from_wave
            == checkpoint.halted_before_wave
        )
        assert any("resuming seeded rollout" in e.detail for e in campaign.history)
        # The pending halt is harvestable through a store, closing the loop:
        # retire this service, seed the next campaign from its checkpoint.
        store = CampaignStore(tmp_path / "store")
        store.save(campaign)
        assert store.checkpoint("probe") == checkpoint

    def test_seed_against_different_waves_is_rejected(self):
        checkpoint = RolloutCheckpoint(
            plan_fingerprint="waves-from-someone-else",
            halted_before_wave=2,
            halted_wave="50%",
            covered=(),
            machines_deployed=0,
        )
        campaign = self._campaign_with_proposal(resume_checkpoint=checkpoint)
        with pytest.raises(ServiceError, match="different rollout waves"):
            campaign._enter_deploy()

    def test_seed_with_nothing_to_resume_into_is_rejected(self):
        checkpoint = self._harvestable_checkpoint()
        spec = TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5)
        bare = Campaign(
            spec,
            default_catalog().get("diurnal-baseline"),
            resume_checkpoint=checkpoint,
        )
        with pytest.raises(ServiceError, match="stages no rollout plan"):
            bare._enter_deploy()

    def test_launch_threads_seeds_per_tenant(self):
        checkpoint = self._harvestable_checkpoint()
        with ContinuousTuningService(
            make_registry(), backend=ProcessPoolBackend(max_workers=1)
        ) as service:
            per_tenant = service.launch(
                scenario="diurnal-baseline",
                resume_checkpoint={"east": checkpoint},
                **CAMPAIGN_KW,
            )
            assert per_tenant["east"]._seed_checkpoint == checkpoint
            assert per_tenant["west"]._seed_checkpoint is None
            fleet_wide = service.launch(
                scenario="diurnal-baseline",
                resume_checkpoint=checkpoint,
                **CAMPAIGN_KW,
            )
            assert all(
                c._seed_checkpoint == checkpoint for c in fleet_wide.values()
            )


# ----------------------------------------------------------------------
# Pool shutdown: idempotent, safe after a failed batch
# ----------------------------------------------------------------------
class TestPoolShutdown:
    def test_shutdown_is_idempotent_and_safe_after_a_failed_batch(self):
        pool = ProcessPoolBackend(max_workers=2)
        with pytest.raises(SimulationBatchError):
            pool.run([observe_request(tag="shutdown/a"), poisoned_request()])
        pool.shutdown()
        pool.shutdown()  # second release must be a no-op, not a crash
        pool.close()
        # The pool stays usable: the executor is rebuilt lazily.
        (outcome,) = pool.run([observe_request(tag="shutdown/b")])
        assert outcome.kind == "observe"
        assert pool.executed == 3
        with pool:
            pass  # context-manager exit after an explicit close is safe
        pool.shutdown()

    def test_backend_close_aliases_are_idempotent(self, tmp_path):
        for backend in (
            ProcessPoolBackend(max_workers=1),
            ProcessPoolBackend(max_workers=2),
            LocalQueueBackend(tmp_path / "spool"),
        ):
            backend.shutdown()
            backend.close()
            backend.shutdown()
