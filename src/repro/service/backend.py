"""Pluggable execution backends: where a beat's simulation windows run.

Production KEA dispatches the same work to whatever substrate the
deployment offers — an in-process loop, a process pool, a durable task
queue drained by restartable workers — so the service schedules through an
:class:`ExecutionBackend`.

The unit of execution is the *window*: an observe or flight request is one
window, a rollout, resume or impact request two (a baseline and a treatment
replaying one workload tag). :meth:`ExecutionBackend.run` is the one batch
loop: it checks each request, runs the batch's windows through the backend,
merges the ops metrics each window recorded in its worker, pairs every
request's windows into its outcome, and keeps the salvage contract — a
failing request never destroys its siblings. A backend implements only
:meth:`ExecutionBackend._run_windows`:

* :class:`ProcessPoolBackend` — a batch of one window, or any batch at
  ``max_workers=1`` (the bit-identity reference and the service default),
  runs inline in the calling process; otherwise every window is its own
  pool task;
* :class:`LocalQueueBackend` — persists every window as a file in a spool
  directory drained by the backend's own set of worker *processes*, which
  live until :meth:`~ExecutionBackend.shutdown` and claim tasks by atomic
  rename into a claim file that names the worker. Concurrent batches share
  the workers and each waits only for its own windows. A dead worker's
  claims are requeued and the worker replaced; a window that keeps killing
  its workers fails alone, its request only. After a whole-service crash,
  re-running the batch reuses every window that already landed in
  ``done/`` and re-executes only what is missing.

Every window is a self-contained picklable recipe run by
:func:`~repro.service.pool.execute_window`, so every execution is
bit-identical wherever it ran, and its span tree rides back on
``outcome.timing.trace``. Both backends record one ``backend.*`` ops-metric
family, labelled by :attr:`ExecutionBackend.name`.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import pickle
import threading
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import replace
from functools import partial
from hashlib import sha256
from pathlib import Path

from repro.obs.metrics import OPS_METRICS, MetricsRegistry
from repro.service.pool import (
    SimulationBatchError,
    SimulationOutcome,
    SimulationRequest,
    WindowOutcome,
    assemble,
    check_request,
    execute_window,
    window_count,
)
from repro.utils.errors import ServiceError

__all__ = [
    "ExecutionBackend",
    "ProcessPoolBackend",
    "LocalQueueBackend",
    "queue_task_id",
]


class ExecutionBackend(abc.ABC):
    """Where the service's simulation batches execute.

    :meth:`run` is the one batch loop; a backend implements only window
    execution, :meth:`_run_windows`. ``executed`` counts requests actually
    simulated (cache hits never reach a backend; a queue backend reusing a
    spooled result does not re-count it).
    """

    #: Stable identifier ("process-pool", "queue") used as the
    #: ``backend`` metric label and surfaced on fleet reports.
    name: str = "backend"

    _executed = 0  # subclasses add to it under their own lock

    @property
    def executed(self) -> int:
        """Requests this backend actually simulated (lifetime total)."""
        return self._executed

    @abc.abstractmethod
    def _run_windows(
        self, requests: list[SimulationRequest], tasks: list[tuple[int, int]]
    ) -> list[WindowOutcome | Exception]:
        """Run window ``index`` of ``requests[slot]`` for every
        ``(slot, index)`` task; return, in task order, each window's
        outcome or the exception it raised."""

    def run(self, requests: list[SimulationRequest]) -> list[SimulationOutcome]:
        """Execute a batch, preserving input order in the outcomes.

        Every request is checked before any window runs. A window that
        raises fails only its own request, and every request runs to
        completion before a :class:`~repro.service.pool.SimulationBatchError`
        carries the siblings' outcomes (None at failed slots) and the
        (request, exception) pairs.
        """
        if not requests:
            return []
        OPS_METRICS.counter("backend.batches", backend=self.name).inc()
        OPS_METRICS.histogram("backend.batch_fanout", backend=self.name).observe(
            len(requests)
        )
        errors: dict[int, Exception] = {}
        tasks: list[tuple[int, int]] = []  # (request slot, window index)
        for slot, request in enumerate(requests):
            try:
                check_request(request)
            except Exception as exc:
                errors[slot] = exc
                continue
            tasks.extend((slot, index) for index in range(window_count(request)))
        windows: dict[int, list[WindowOutcome]] = defaultdict(list)
        for (slot, _index), window in zip(
            tasks, self._run_windows(requests, tasks), strict=True
        ):
            if isinstance(window, Exception):
                errors.setdefault(slot, window)
                continue
            OPS_METRICS.merge(window.metrics)
            windows[slot].append(window)
        outcomes: list[SimulationOutcome | None] = []
        failures: list[tuple[SimulationRequest, Exception]] = []
        for slot, request in enumerate(requests):
            try:
                if slot in errors:
                    raise errors[slot]
                outcome = assemble(request, windows[slot])
            except Exception as exc:  # re-raised below, with the siblings
                outcomes.append(None)
                failures.append((request, exc))
                OPS_METRICS.counter(
                    "backend.failures", backend=self.name, kind=request.kind
                ).inc()
                continue
            outcomes.append(outcome)
            OPS_METRICS.histogram(
                "backend.request_seconds", backend=self.name, kind=outcome.kind
            ).observe(outcome.timing.elapsed_seconds)
        if failures:
            request, exc = failures[0]
            raise SimulationBatchError(
                f"simulation request failed (tenant={request.tenant!r}, "
                f"kind={request.kind!r}): {exc}",
                outcomes=outcomes,
                failures=failures,
            ) from exc
        return outcomes  # type: ignore[return-value]

    def shutdown(self) -> None:
        """Release any workers/resources (idempotent)."""

    def close(self) -> None:
        """Alias for :meth:`shutdown` (file-like convention)."""
        self.shutdown()

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class ProcessPoolBackend(ExecutionBackend):
    """Runs a batch's windows inline or fans them out over worker processes.

    ``max_workers=1`` — or a one-window batch — executes inline in the
    calling process: the serial reference every other backend must match
    bit for bit. ``None`` uses every available core. The executor is created
    lazily on the first parallel batch, gets one future per window, and is
    released by :meth:`shutdown`; a later batch rebuilds it.
    """

    name = "process-pool"

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._executor: ProcessPoolExecutor | None = None
        # Guards the counter and lazy executor creation and release: sharded
        # front-ends drive one backend from several threads.
        self._lock = threading.Lock()

    @property
    def pool(self) -> "ProcessPoolBackend":
        """Alias of ``self``, kept only for ``perfbench/workloads.py``,
        which warms its workers with ``backend.pool.run(...)``."""
        return self

    def _run_windows(
        self, requests: list[SimulationRequest], tasks: list[tuple[int, int]]
    ) -> list[WindowOutcome | Exception]:
        with self._lock:
            self._executed += len(requests)
        # One call per window, yielding its result: an inline run, or the
        # result of a future already submitted to the pool.
        if self.max_workers == 1 or len(tasks) <= 1:
            calls = [partial(execute_window, requests[slot], index) for slot, index in tasks]
        else:
            with self._lock:
                if self._executor is None:
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.max_workers
                    )
                executor = self._executor
            calls = [
                executor.submit(execute_window, requests[slot], index).result
                for slot, index in tasks
            ]
        windows: list[WindowOutcome | Exception] = []
        for call in calls:
            try:
                windows.append(call())
            except Exception as exc:  # fails only this window's request
                windows.append(exc)
        return windows

    def shutdown(self) -> None:
        """Release the worker processes (idempotent and thread-safe).

        The executor is detached *before* its release runs, so a second
        call — from another thread, or after a first release that raised
        partway through — is a no-op.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown()


def queue_task_id(request: SimulationRequest, index: int) -> str:
    """Deterministic spool filename stem for window ``index`` of a request.

    Derived from the request's complete cache key, so a re-enqueued window
    (a retried batch, a restarted service) lands on the same task file and
    can reuse a result an earlier drain already produced.
    """
    tenant, digest, tag = request.cache_key()
    return sha256(f"{tenant}|{digest}|{tag}|{index}".encode()).hexdigest()[:24]


def _atomic_write(path: Path, blob: bytes) -> None:
    """Write-then-rename so readers only ever see complete files."""
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    tmp.write_bytes(blob)
    os.replace(tmp, path)


#: Seconds between looks at the spool, in idle workers and waiting batches.
_POLL_INTERVAL = 0.02


def _drain_worker(spool: str) -> None:
    """Worker-process entry point: claim and execute spooled tasks until the
    backend stops this worker (or its parent process is gone).

    Claims by atomically renaming ``pending/<id>.pkl`` to
    ``claimed/<id>.<pid>.pkl`` (the rename succeeds for exactly one worker,
    and the claim names the worker that holds it), executes the spooled
    ``(request, window index)`` with
    :func:`~repro.service.pool.execute_window`, and lands the pickled
    :class:`~repro.service.pool.WindowOutcome` in ``done/<id>.out.pkl`` — or
    the pickled exception in ``done/<id>.err.pkl`` — via write-then-rename.
    An empty ``pending/`` is polled again after a short sleep. A worker
    killed mid-task leaves its claim behind; the backend's liveness check
    requeues exactly that worker's claims (execution is deterministic, so a
    replay is indistinguishable from the first run).
    """
    spool_dir = Path(spool)
    pending = spool_dir / "pending"
    claimed = spool_dir / "claimed"
    done = spool_dir / "done"
    parent, pid = os.getppid(), os.getpid()
    while os.getppid() == parent:
        for entry in sorted(pending.glob("*.pkl")):
            task_id = entry.stem
            claim = claimed / f"{task_id}.{pid}.pkl"
            try:
                os.rename(entry, claim)
            except OSError:
                continue  # a sibling worker claimed it first
            try:
                request, index = pickle.loads(claim.read_bytes())
                window = execute_window(request, index)
                blob = pickle.dumps(window, protocol=pickle.HIGHEST_PROTOCOL)
                _atomic_write(done / f"{task_id}.out.pkl", blob)
            except Exception as exc:
                try:
                    blob = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
                except Exception:
                    blob = pickle.dumps(ServiceError(repr(exc)))
                _atomic_write(done / f"{task_id}.err.pkl", blob)
            finally:
                claim.unlink(missing_ok=True)
            break  # list again: windows spooled meanwhile join the queue
        else:
            time.sleep(_POLL_INTERVAL)


class LocalQueueBackend(ExecutionBackend):
    """File-spooled task queue drained by the backend's worker processes.

    Every window is persisted to ``<spool>/pending/<task_id>.pkl`` before it
    runs, so the batch survives the orchestrator: a service killed
    mid-drain leaves the spool behind, and the re-run of the same batch
    (task ids are deterministic — :func:`queue_task_id`) reuses every
    ``done/`` window and re-executes only what is missing.

    The backend owns one set of ``workers`` drain processes, started by the
    first batch that has to wait for a window and kept until
    :meth:`shutdown` (a later batch starts a new set). Any number of batches — a sharded
    front-end drives one backend from several threads — spool into the
    same ``pending/`` and each waits only for its own task ids in ``done/``.
    Workers claim tasks by atomic rename into ``claimed/<task_id>.<pid>.pkl``,
    so a claim names the worker holding it. The batches' wait loops call one
    liveness check: a dead worker is replaced and each of its claims is
    charged to its task, which goes back to ``pending/`` until it has
    killed ``max_attempts`` workers and then fails alone — a "gave up"
    error lands in ``done/`` for its request, and every other window runs
    on. Workers that die holding no claim cannot run at all: a batch gives
    up (keeping the spool) once ``max_attempts`` of them have died while it
    waited. Claims left by an
    earlier set of workers (a killed service, a shut-down backend) are
    requeued when a set starts. ``executed`` counts a request when at least
    one of its windows was freshly spooled.
    """

    name = "queue"

    def __init__(
        self, spool_dir: str | Path, workers: int = 1, max_attempts: int = 3
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise ServiceError(f"max_attempts must be >= 1, got {max_attempts}")
        self.spool = Path(spool_dir)
        self.workers = workers
        self.max_attempts = max_attempts
        # Guards the worker set, the death counts, the waiter counts and the
        # spooling of fresh windows.
        self._lock = threading.Lock()
        self._procs: list[multiprocessing.Process] = []
        self._idle_deaths = 0  # workers found dead holding no claim (lifetime)
        # Workers each in-flight task id has killed while holding it.
        self._attempts: dict[str, int] = defaultdict(int)
        # Batches waiting on each in-flight task id: a window two concurrent
        # batches share is spooled once and cleared by the last to collect.
        self._waiters: dict[str, int] = defaultdict(int)
        for sub in ("pending", "claimed", "done"):
            (self.spool / sub).mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Spool paths
    # ------------------------------------------------------------------
    def _pending_path(self, task_id: str) -> Path:
        return self.spool / "pending" / f"{task_id}.pkl"

    def _done_path(self, task_id: str) -> Path:
        return self.spool / "done" / f"{task_id}.out.pkl"

    def _error_path(self, task_id: str) -> Path:
        return self.spool / "done" / f"{task_id}.err.pkl"

    # ------------------------------------------------------------------
    # The worker set
    # ------------------------------------------------------------------
    def _requeue_claims(self) -> None:
        for claim in (self.spool / "claimed").glob("*.pkl"):
            with suppress(FileNotFoundError):  # its worker finished it meanwhile
                os.replace(claim, self._pending_path(claim.name.split(".")[0]))

    def _charge_claim(self, claim: Path) -> None:
        """A worker died holding ``claim``: requeue its task, or fail it
        alone once it has killed ``max_attempts`` workers."""
        task_id = claim.name.split(".")[0]
        self._attempts[task_id] += 1
        if self._attempts[task_id] < self.max_attempts:
            os.replace(claim, self._pending_path(task_id))
            return
        error = ServiceError(
            f"queue backend gave up on task {task_id}: it killed "
            f"{self.max_attempts} drain worker(s)"
        )
        _atomic_write(self._error_path(task_id), pickle.dumps(error))
        claim.unlink()

    def _start_worker(self) -> multiprocessing.Process:
        # ``_drain_worker`` is looked up here, at spawn time, so it can be
        # replaced (the crash tests do).
        proc = multiprocessing.Process(
            target=_drain_worker, args=(str(self.spool),), daemon=True
        )
        proc.start()
        OPS_METRICS.counter("queue.workers_spawned").inc()
        return proc

    def _check_workers(self) -> int:
        """Keep the worker set whole; return how many workers have died
        holding no claim (lifetime total).

        Starts the set if there is none (requeueing every claim left in
        ``claimed/``: no worker of this set holds one yet), and replaces each
        dead worker after charging exactly its claims to their tasks.
        """
        with self._lock:
            if not self._procs:
                self._requeue_claims()
                self._procs = [self._start_worker() for _ in range(self.workers)]
            for slot, proc in enumerate(self._procs):
                if proc.is_alive():
                    continue
                proc.join()
                claims = list((self.spool / "claimed").glob(f"*.{proc.pid}.pkl"))
                for claim in claims:
                    self._charge_claim(claim)
                if not claims:
                    self._idle_deaths += 1
                self._procs[slot] = self._start_worker()
                OPS_METRICS.counter("queue.redrains").inc()
            return self._idle_deaths

    def shutdown(self) -> None:
        """Stop the worker set (idempotent and thread-safe)."""
        with self._lock:
            procs, self._procs = self._procs, []
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()

    # ------------------------------------------------------------------
    # Window execution
    # ------------------------------------------------------------------
    def _run_windows(
        self, requests: list[SimulationRequest], tasks: list[tuple[int, int]]
    ) -> list[WindowOutcome | Exception]:
        ids = [queue_task_id(requests[slot], index) for slot, index in tasks]
        # A duplicate request within the batch shares its first copy's task.
        first: dict[str, tuple[int, int]] = {}
        for task, task_id in zip(tasks, ids, strict=True):
            first.setdefault(task_id, task)

        # Spool every window that no earlier drain landed and no concurrent
        # batch already waits on; a stale error file and attempt count are
        # cleared so the window is retried fresh.
        fresh = 0
        spooled_slots: set[int] = set()
        # Task ids whose metrics another copy carries: a window in flight for
        # another batch, and every duplicate after a window's first copy.
        carried: set[str] = set()
        with self._lock:
            for task_id, (slot, index) in first.items():
                if self._waiters[task_id]:
                    carried.add(task_id)  # in flight for another batch
                elif self._done_path(task_id).exists():
                    OPS_METRICS.counter("queue.reused").inc()
                else:
                    self._error_path(task_id).unlink(missing_ok=True)
                    self._attempts.pop(task_id, None)
                    blob = pickle.dumps(
                        (requests[slot], index), protocol=pickle.HIGHEST_PROTOCOL
                    )
                    _atomic_write(self._pending_path(task_id), blob)
                    fresh += 1
                    spooled_slots.add(slot)
                self._waiters[task_id] += 1
            self._executed += len(spooled_slots)
            idle_deaths = self._idle_deaths
        if fresh:
            OPS_METRICS.counter("queue.enqueued").inc(fresh)

        # Wait for this batch's task ids to land, keeping the workers alive.
        landed: dict[str, WindowOutcome | Exception] = {}
        unresolved = set(first)
        try:
            while True:
                for task_id in sorted(unresolved):
                    for path in (self._done_path(task_id), self._error_path(task_id)):
                        if path.exists():
                            landed[task_id] = pickle.loads(path.read_bytes())
                            unresolved.discard(task_id)
                            break
                if not unresolved:
                    break
                if self._check_workers() - idle_deaths >= self.max_attempts:
                    raise ServiceError(
                        f"queue backend gave up on {len(unresolved)} task(s): "
                        f"{self.max_attempts} drain worker(s) died holding no "
                        f"window; spool kept at {self.spool}"
                    )
                time.sleep(_POLL_INTERVAL)
        finally:
            # The last batch to collect a window clears its result files:
            # collected windows now live with the caller (cache, campaign
            # state), and a future retry of a *failed* window must
            # re-execute it rather than replay its pickled exception.
            with self._lock:
                for task_id in first:
                    self._waiters[task_id] -= 1
                    if self._waiters[task_id]:
                        continue
                    del self._waiters[task_id]
                    self._attempts.pop(task_id, None)
                    if not unresolved:
                        self._done_path(task_id).unlink(missing_ok=True)
                        self._error_path(task_id).unlink(missing_ok=True)
        windows = []
        for task_id in ids:
            window = landed[task_id]
            if isinstance(window, WindowOutcome) and task_id in carried:
                # The window ran once: one copy brings its metrics to a batch loop.
                window = replace(window, metrics=MetricsRegistry())
            carried.add(task_id)
            windows.append(window)
        return windows
