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
  directory and drains it with restartable worker *processes* that claim
  tasks by atomic rename. A worker (or the whole service) can die
  mid-batch; re-running the batch reuses every window that already landed
  in ``done/`` and re-executes only what is missing.

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


def _drain_worker(spool: str) -> None:
    """Worker-process entry point: claim and execute spooled tasks.

    Claims by atomically renaming ``pending/<id>.pkl`` to
    ``claimed/<id>.pkl`` (the rename either succeeds for exactly one worker
    or raises), executes the spooled ``(request, window index)`` with
    :func:`~repro.service.pool.execute_window`, and lands the pickled
    :class:`~repro.service.pool.WindowOutcome` in ``done/<id>.out.pkl`` — or
    the pickled exception in ``done/<id>.err.pkl`` — via write-then-rename.
    Exits when the pending directory is empty. A worker killed mid-task leaves its claim file behind; the collector
    requeues the task and a fresh worker re-executes it (execution is
    deterministic, so a replay is indistinguishable from the first run).
    """
    spool_dir = Path(spool)
    pending = spool_dir / "pending"
    claimed = spool_dir / "claimed"
    done = spool_dir / "done"
    while True:
        entries = sorted(p for p in pending.iterdir() if p.suffix == ".pkl")
        if not entries:
            return
        progressed = False
        for entry in entries:
            claim = claimed / entry.name
            try:
                os.rename(entry, claim)
            except OSError:
                continue  # a sibling worker claimed it first
            progressed = True
            task_id = entry.stem
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
        if not progressed:
            # Everything visible was claimed by siblings; nothing left here.
            return


class LocalQueueBackend(ExecutionBackend):
    """File-spooled task queue drained by restartable worker processes.

    Every window is persisted to ``<spool>/pending/<task_id>.pkl`` before
    any worker starts, so the batch survives the orchestrator: a service
    killed mid-drain leaves the spool behind, and the re-run of the same
    batch (task ids are deterministic — :func:`queue_task_id`) reuses every
    ``done/`` window and re-executes only what is missing. Workers claim
    tasks by atomic rename, so any number of them can drain one spool
    without coordination (a two-window request's windows run in two
    workers at once); a worker that dies mid-task is detected by the
    collector, its task requeued, and a replacement spawned (bounded by
    ``max_attempts``). ``executed`` counts a request when at least one of
    its windows was freshly spooled.
    """

    name = "queue"

    def __init__(
        self,
        spool_dir: str | Path,
        workers: int = 1,
        poll_interval: float = 0.02,
        max_attempts: int = 3,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise ServiceError(f"max_attempts must be >= 1, got {max_attempts}")
        self.spool = Path(spool_dir)
        self.workers = workers
        self.poll_interval = poll_interval
        self.max_attempts = max_attempts
        self._lock = threading.Lock()
        # Live workers across all in-flight batches (a sharded front-end
        # may drain several batches concurrently); each run() manages its
        # own workers and deregisters them here when they finish.
        self._procs: list[multiprocessing.Process] = []
        for sub in ("pending", "claimed", "done"):
            (self.spool / sub).mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Spool paths
    # ------------------------------------------------------------------
    def _pending_path(self, task_id: str) -> Path:
        return self.spool / "pending" / f"{task_id}.pkl"

    def _claimed_path(self, task_id: str) -> Path:
        return self.spool / "claimed" / f"{task_id}.pkl"

    def _done_path(self, task_id: str) -> Path:
        return self.spool / "done" / f"{task_id}.out.pkl"

    def _error_path(self, task_id: str) -> Path:
        return self.spool / "done" / f"{task_id}.err.pkl"

    # ------------------------------------------------------------------
    # Worker management
    # ------------------------------------------------------------------
    def _spawn_workers(
        self, count: int, procs: list[multiprocessing.Process]
    ) -> None:
        """Start ``count`` drain workers, tracking them in ``procs``."""
        count = max(1, count)
        for _ in range(count):
            proc = multiprocessing.Process(
                target=_drain_worker, args=(str(self.spool),), daemon=True
            )
            proc.start()
            procs.append(proc)
        with self._lock:
            self._procs.extend(procs[-count:])
        OPS_METRICS.counter("queue.workers_spawned").inc(count)

    def _release_workers(self, procs: list[multiprocessing.Process]) -> None:
        """Join (then force-stop) one batch's workers and deregister them."""
        for proc in procs:
            proc.join(timeout=5.0)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join()
        with self._lock:
            self._procs = [p for p in self._procs if p not in procs]

    def shutdown(self) -> None:
        """Stop any workers still draining (idempotent and thread-safe)."""
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

        # Enqueue: spool every window not already satisfied by a prior
        # drain. A stale claim (a dead run's half-executed task) or error
        # file is cleared so this run retries it fresh.
        fresh: dict[str, bytes] = {}
        reused: set[str] = set()
        spooled_slots: set[int] = set()
        for (slot, index), task_id in zip(tasks, ids, strict=True):
            if task_id in fresh or task_id in reused:
                continue  # duplicate request within the batch
            if self._done_path(task_id).exists():
                reused.add(task_id)
                OPS_METRICS.counter("queue.reused").inc()
                continue
            self._error_path(task_id).unlink(missing_ok=True)
            self._claimed_path(task_id).unlink(missing_ok=True)
            blob = pickle.dumps((requests[slot], index), protocol=pickle.HIGHEST_PROTOCOL)
            fresh[task_id] = blob
            spooled_slots.add(slot)
            _atomic_write(self._pending_path(task_id), blob)
        procs: list[multiprocessing.Process] = []
        if fresh:
            with self._lock:
                self._executed += len(spooled_slots)
            OPS_METRICS.counter("queue.enqueued").inc(len(fresh))
            self._spawn_workers(min(self.workers, len(fresh)), procs)

        # Collect: poll for each task's result file; if every worker died
        # with results still missing, requeue the stragglers and respawn.
        landed: dict[str, WindowOutcome | Exception] = {}
        unresolved = set(fresh) | reused
        attempts = 1
        while unresolved:
            for task_id in sorted(unresolved):
                for path in (self._done_path(task_id), self._error_path(task_id)):
                    if path.exists():
                        landed[task_id] = pickle.loads(path.read_bytes())
                        unresolved.discard(task_id)
                        break
            if not unresolved:
                break
            if not any(proc.is_alive() for proc in procs):
                # This batch's workers are gone but tasks remain: a crash
                # mid-task (or a kill between spawn and claim). Requeue the
                # stragglers and retry, bounded by max_attempts.
                attempts += 1
                if attempts > self.max_attempts:
                    self._release_workers(procs)
                    raise ServiceError(
                        f"queue backend gave up on {len(unresolved)} task(s) "
                        f"after {self.max_attempts} drain attempt(s); spool "
                        f"kept at {self.spool}"
                    )
                OPS_METRICS.counter("queue.redrains").inc()
                for task_id in sorted(unresolved):
                    self._claimed_path(task_id).unlink(missing_ok=True)
                    if task_id in fresh and not self._pending_path(task_id).exists():
                        _atomic_write(self._pending_path(task_id), fresh[task_id])
                self._spawn_workers(min(self.workers, len(unresolved)), procs)
            time.sleep(self.poll_interval)

        # Workers exit on their own once the pending directory drains.
        self._release_workers(procs)

        # Clear the batch's result files: collected windows now live with
        # the caller (cache, campaign state), and a future retry of a
        # *failed* window must re-execute it rather than replay its
        # pickled exception.
        for task_id in set(ids):
            self._done_path(task_id).unlink(missing_ok=True)
            self._error_path(task_id).unlink(missing_ok=True)
        windows = []
        for task_id in ids:
            windows.append(landed[task_id])
            if isinstance(landed[task_id], WindowOutcome):
                # Duplicate requests share one window that ran once: only
                # the first copy carries its metrics to the batch loop.
                landed[task_id] = replace(landed[task_id], metrics=MetricsRegistry())
        return windows
