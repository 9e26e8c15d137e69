"""Ops metrics for the tuning service itself.

Distinct from :mod:`repro.telemetry.metrics`, which defines *fleet* metric
extractors over machine-hour records (the paper's observation plane). This
registry counts what the *service* does at runtime — cache hits, pool
requests, campaign phase durations, rollout wave timings — as conventional
counters, gauges, and histograms.

Histograms are bounded: they keep ``count/total/min/max`` rather than raw
samples, so a long-running service cannot grow memory with traffic. The
module-global :data:`OPS_METRICS` registry is what the instrumented modules
write to; tests and dashboards either read it or swap in a private
:class:`MetricsRegistry`.

``submit()`` drives shards from threads, so one module lock guards every
registry's get-or-create and every metric update (reset in forked workers).

A pool worker records each task under :func:`capture`; the captured
registry rides back with the result and :meth:`MetricsRegistry.merge` folds
it in, so a pooled run reports the same counts as an inline one.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.utils.tables import TextTable

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "OPS_METRICS", "capture"]

_LOCK = threading.Lock()
os.register_at_fork(after_in_child=_LOCK._at_fork_reinit)
_CAPTURE: ContextVar[MetricsRegistry | None] = ContextVar("repro-metrics", default=None)


def _labeled(name: str, labels: dict[str, str]) -> str:
    """Canonical registry key: ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


@dataclass(slots=True)
class Counter:
    """Monotonically increasing count of events."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        with _LOCK:
            self.value += amount


@dataclass(slots=True)
class Gauge:
    """Point-in-time value that can move in either direction."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)

    def add(self, amount: float) -> None:
        """Shift the gauge by ``amount`` (may be negative)."""
        with _LOCK:
            self.value += amount


@dataclass(slots=True)
class Histogram:
    """Bounded distribution summary: count, total, min, max.

    Deliberately keeps no raw samples — the summary is O(1) memory however
    many observations arrive, which is what a per-request hot path needs.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with _LOCK:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 before any arrive)."""
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Label-aware get-or-create store of service metrics.

    ``counter("backend.failures", kind="observe")`` returns the same
    :class:`Counter` on every call with the same name and labels; asking for
    an existing name with a different metric type is an error rather than a
    silent shadow.
    """

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s metrics in: counters add, gauges take ``other``'s
        value, histograms combine count/total/min/max."""
        for key, metric in other._metrics.items():
            mine = self._get_or_create(type(metric), key)
            if isinstance(metric, Histogram):
                with _LOCK:
                    mine.count += metric.count
                    mine.total += metric.total
                    mine.min = min(mine.min, metric.min)
                    mine.max = max(mine.max, metric.max)
            elif isinstance(metric, Counter):
                mine.inc(metric.value)
            else:
                mine.set(metric.value)

    def _get_or_create(self, cls, key: str):
        captured = _CAPTURE.get()
        if captured is not None and captured is not self:
            return captured._get_or_create(cls, key)
        with _LOCK:
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = cls(name=key)
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {key!r} already registered as {type(metric).__name__}, "
                f"not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        """The counter for ``name`` + labels, created on first use."""
        return self._get_or_create(Counter, _labeled(name, labels))

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge for ``name`` + labels, created on first use."""
        return self._get_or_create(Gauge, _labeled(name, labels))

    def histogram(self, name: str, **labels: str) -> Histogram:
        """The histogram for ``name`` + labels, created on first use."""
        return self._get_or_create(Histogram, _labeled(name, labels))

    def get(self, name: str, **labels: str) -> Counter | Gauge | Histogram | None:
        """The metric under ``name`` + labels, or None if never touched."""
        return self._metrics.get(_labeled(name, labels))

    def names(self) -> list[str]:
        """Sorted registry keys (``name{labels}`` form)."""
        with _LOCK:
            return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Plain-dict dump of every metric, keyed by registry key."""
        out: dict[str, dict[str, float]] = {}
        for key in self.names():
            metric = self._metrics[key]
            if isinstance(metric, Histogram):
                out[key] = {
                    "count": float(metric.count),
                    "total": metric.total,
                    "mean": metric.mean,
                    "min": metric.min if metric.count else 0.0,
                    "max": metric.max if metric.count else 0.0,
                }
            else:
                out[key] = {"value": metric.value}
        return out

    def summary(self) -> str:
        """Operator-readable table of every metric in the registry."""
        table = TextTable(("metric", "type", "value"))
        for key in self.names():
            metric = self._metrics[key]
            if isinstance(metric, Histogram):
                value = (
                    f"n={metric.count} mean={metric.mean:.4f} "
                    f"min={metric.min if metric.count else 0.0:.4f} "
                    f"max={metric.max if metric.count else 0.0:.4f}"
                )
            else:
                value = f"{metric.value:g}"
            table.add_row((key, type(metric).__name__.lower(), value))
        return table.render()

    def clear(self) -> None:
        """Drop every metric (tests; a fresh service run)."""
        with _LOCK:
            self._metrics.clear()


#: The process-wide registry instrumented service modules write to.
OPS_METRICS = MetricsRegistry()


@contextmanager
def capture() -> Iterator[MetricsRegistry]:
    """Redirect every registry update in this context into a fresh registry,
    which the block receives; merge it back with :meth:`MetricsRegistry.merge`."""
    captured = MetricsRegistry()
    token = _CAPTURE.set(captured)
    try:
        yield captured
    finally:
        _CAPTURE.reset(token)
