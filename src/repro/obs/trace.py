"""Lightweight span tracing for the tuning service's own runtime.

The reproduction observes the *fleet* through the Performance Monitor; this
module observes the *service*: every campaign beat, pool request, simulated
window, and simulator phase can record a :class:`SpanRecord` — a named,
timed, attributed interval with parent/child nesting — and export the run as
a JSONL trace an operator (or a test) can read back.

Design constraints, in order:

* **Out-of-band.** Tracing never influences tuning decisions: spans are
  written after the fact, never read by the code under observation, and
  nothing about them enters simulation state or cache keys. A traced run is
  bit-identical to an untraced one.
* **Deterministic when asked.** The clock is injectable
  (``Tracer(clock=...)``), and span/trace ids are sequential counters rather
  than random draws, so a test driving a fake clock gets a byte-stable
  trace.
* **Cross-process.** A :class:`Tracer` in a pool worker records its spans
  locally; the finished :class:`SpanRecord` tuples pickle cleanly, ride back
  on the request's outcome, and :meth:`Tracer.merge` grafts them into the
  parent trace (fresh ids, re-parented under the current span, optionally
  time-aligned) — one trace for a beat that spanned many processes.
* **Near-zero cost when off.** The default active tracer is
  :data:`NULL_TRACER`, whose ``span`` is a no-op context manager; the
  instrumented hot paths pay one context-variable read.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

from repro.obs.profile import PHASES

__all__ = [
    "SpanRecord",
    "SpanHandle",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "activate",
    "span",
    "read_trace_jsonl",
]

#: Attribute values a span may carry (anything else is stringified).
_SCALARS = (str, int, float, bool, type(None))
#: Span names :func:`~repro.obs.profile.attach_profile_spans` formats per
#: call, so one tracer holds a separate string for each. Every other span
#: name is a code constant, one string however many spans carry it.
_PER_CALL_NAMES = frozenset(f"simulator.{phase}" for phase in PHASES)


def _coerce_attributes(attributes: dict) -> tuple[tuple[str, object], ...]:
    """Attributes as a hashable, picklable, JSON-clean tuple of pairs."""
    return tuple(
        (key, value if isinstance(value, _SCALARS) else str(value))
        for key, value in attributes.items()
    )


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One finished span: a named, timed interval of the trace tree.

    ``status`` is ``"ok"`` or ``"error"`` (the span body raised; ``error``
    holds ``ExcType: message``). ``parent_id`` of None marks a root span.
    Records are immutable, picklable, and serialize to one JSONL line each.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    end: float
    status: str = "ok"
    error: str | None = None
    attributes: tuple[tuple[str, object], ...] = ()

    @property
    def duration(self) -> float:
        """Wall-clock seconds the span covered."""
        return self.end - self.start

    def attribute(self, key: str, default=None):
        """One attribute's value (attributes are stored as pairs)."""
        for name, value in self.attributes:
            if name == key:
                return value
        return default

    def to_json(self) -> str:
        """The span as one JSONL line."""
        return json.dumps(
            {
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "name": self.name,
                "start": self.start,
                "end": self.end,
                "status": self.status,
                "error": self.error,
                "attributes": dict(self.attributes),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "SpanRecord":
        """Parse one JSONL line back into a record."""
        raw = json.loads(line)
        return cls(
            trace_id=raw["trace_id"],
            span_id=raw["span_id"],
            parent_id=raw["parent_id"],
            name=raw["name"],
            start=raw["start"],
            end=raw["end"],
            status=raw["status"],
            error=raw["error"],
            attributes=tuple(sorted(raw["attributes"].items())),
        )


class SpanHandle:
    """The live span a ``with tracer.span(...)`` block yields.

    Mutable while the block runs (``set`` adds attributes); ``start``/``end``
    and :attr:`duration` stay readable after the block exits, so callers can
    report the measured interval without re-timing it — the span *is* the
    stopwatch.
    """

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "attributes")

    def __init__(self, name: str, span_id: str, parent_id: str | None, start: float):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = start
        self.attributes: dict[str, object] = {}

    def set(self, **attributes) -> None:
        """Attach attributes to the span before it finishes."""
        self.attributes.update(attributes)

    @property
    def duration(self) -> float:
        """Seconds covered so far (final once the span closed)."""
        return self.end - self.start


class Tracer:
    """Records a tree of spans with an injectable clock.

    ``clock`` is any zero-argument callable returning seconds (default
    ``time.perf_counter``); span and trace identifiers are deterministic
    sequences, so two runs driving the same fake clock produce identical
    traces. Finished spans accumulate on :attr:`spans` in finish order;
    :meth:`to_jsonl` exports them start-ordered.
    """

    def __init__(self, clock=time.perf_counter, trace_id: str = "trace"):
        self.clock = clock
        self.trace_id = trace_id
        self.spans: list[SpanRecord] = []
        self._stack: list[SpanHandle] = []
        self._ids = itertools.count(1)
        self._names: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True for recording tracers (False on :class:`NullTracer`)."""
        return True

    @property
    def current(self) -> SpanHandle | None:
        """The innermost live span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def _next_id(self) -> str:
        return f"s{next(self._ids)}"

    @contextmanager
    def span(self, name: str, **attributes):
        """Open a span around the block; nesting follows ``with`` nesting.

        An exception raised by the block marks the span ``status="error"``
        with the exception rendered into ``error``, then propagates.
        """
        handle = SpanHandle(
            name=name,
            span_id=self._next_id(),
            parent_id=self._stack[-1].span_id if self._stack else None,
            start=self.clock(),
        )
        handle.attributes.update(attributes)
        self._stack.append(handle)
        status, error = "ok", None
        try:
            yield handle
        except BaseException as exc:
            status = "error"
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            handle.end = self.clock()
            self._stack.pop()
            self.spans.append(
                SpanRecord(
                    trace_id=self.trace_id,
                    span_id=handle.span_id,
                    parent_id=handle.parent_id,
                    name=name,
                    start=handle.start,
                    end=handle.end,
                    status=status,
                    error=error,
                    attributes=_coerce_attributes(handle.attributes),
                )
            )

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: SpanHandle | str | None = None,
        **attributes,
    ) -> SpanRecord:
        """Append an already-measured span (profile-derived decompositions).

        ``parent`` accepts a handle, a span id, or None (which parents under
        the innermost live span, a root span outside any).
        """
        if parent is None:
            parent_id = self._stack[-1].span_id if self._stack else None
        elif isinstance(parent, SpanHandle):
            parent_id = parent.span_id
        else:
            parent_id = parent
        record = SpanRecord(
            trace_id=self.trace_id,
            span_id=self._next_id(),
            parent_id=parent_id,
            name=name,
            start=start,
            end=end,
            attributes=_coerce_attributes(attributes),
        )
        self.spans.append(record)
        return record

    def event(self, name: str, **attributes) -> SpanRecord:
        """A zero-duration marker span at the current clock reading."""
        now = self.clock()
        return self.record(name, now, now, **attributes)

    def merge(
        self, spans: tuple[SpanRecord, ...] | list[SpanRecord], align_to: float | None = None
    ) -> list[SpanRecord]:
        """Graft foreign finished spans (e.g. a pool worker's) into this trace.

        Every span gets a fresh id from this tracer's sequence, in the order
        the foreign tracer allocated them, and this tracer's ``trace_id``;
        internal parent/child links are preserved, and the foreign roots are
        re-parented under the innermost live span. Names, attribute keys and
        statuses are shared as this tracer shares its own, so a tree merged
        from several processes pickles like one recorded in one.
        ``align_to`` shifts the whole subtree so its earliest start lands
        there — worker clocks are process-local, so without alignment a
        merged subtree would float at an unrelated offset.
        """
        if not spans:
            return []
        parent_id = self._stack[-1].span_id if self._stack else None
        offset = 0.0
        if align_to is not None:
            offset = align_to - min(span.start for span in spans)
        mapping = {
            span.span_id: self._next_id()
            for span in sorted(spans, key=lambda span: int(span.span_id[1:]))
        }
        adopted: list[SpanRecord] = []
        for span in spans:
            name = span.name
            if name not in _PER_CALL_NAMES:
                name = self._names.setdefault(name, name)
            adopted.append(
                SpanRecord(
                    trace_id=self.trace_id,
                    span_id=mapping[span.span_id],
                    parent_id=mapping.get(span.parent_id, parent_id),
                    name=name,
                    start=span.start + offset,
                    end=span.end + offset,
                    status=sys.intern(span.status),
                    error=span.error,
                    attributes=tuple((sys.intern(k), v) for k, v in span.attributes),
                )
            )
        self.spans.extend(adopted)
        return adopted

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _ordered(self) -> list[SpanRecord]:
        """Spans start-ordered (ties broken by allocation order)."""
        return sorted(self.spans, key=lambda s: (s.start, int(s.span_id[1:])))

    def to_jsonl(self) -> str:
        """The whole trace as JSONL text (one span per line, start-ordered)."""
        return "".join(span.to_json() + "\n" for span in self._ordered())

    def export_jsonl(self, path: str | Path) -> Path:
        """Write the trace to ``path`` as JSONL and return the path."""
        path = Path(path)
        path.write_text(self.to_jsonl())
        return path

    def clear(self) -> None:
        """Drop recorded spans (live spans keep running)."""
        self.spans.clear()


class NullTracer(Tracer):
    """The disabled tracer: same surface, records nothing.

    ``span`` still yields a handle (so instrumentation can read
    ``handle.duration`` unconditionally) but nothing is stored, and the
    shared handle is reused to avoid per-call allocation.
    """

    def __init__(self):
        super().__init__(clock=lambda: 0.0, trace_id="null")
        self._handle = SpanHandle("null", "s0", None, 0.0)

    @property
    def enabled(self) -> bool:
        return False

    @contextmanager
    def span(self, name: str, **attributes):
        yield self._handle

    def record(self, name, start, end, parent=None, **attributes):
        return None

    def event(self, name, **attributes):
        return None

    def merge(self, spans, align_to=None):
        return []


#: The process-wide disabled tracer instrumented code sees by default.
NULL_TRACER = NullTracer()

_ACTIVE: ContextVar[Tracer] = ContextVar("repro-obs-tracer", default=NULL_TRACER)


def current_tracer() -> Tracer:
    """The tracer instrumented code should record to right now."""
    return _ACTIVE.get()


@contextmanager
def activate(tracer: Tracer):
    """Make ``tracer`` the active tracer inside the block."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


def span(name: str, **attributes):
    """Open a span on whatever tracer is active (no-op when none is)."""
    return current_tracer().span(name, **attributes)


def read_trace_jsonl(path: str | Path) -> list[SpanRecord]:
    """Parse a JSONL trace file back into records (validation, tooling).

    Raises ``ValueError`` when a span references a parent that is not in the
    file — a trace whose tree is broken should fail loudly, not render as a
    forest of orphans.
    """
    records = [
        SpanRecord.from_json(line)
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]
    known = {record.span_id for record in records}
    for record in records:
        if record.parent_id is not None and record.parent_id not in known:
            raise ValueError(
                f"span {record.span_id!r} ({record.name!r}) references "
                f"unknown parent {record.parent_id!r}"
            )
    return records
