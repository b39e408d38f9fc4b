"""Structured-event tracing with a zero-overhead-when-disabled guard.

The tracer answers the question the static ``--stats`` table cannot:
*where does the time go* across the three execution tiers and the compiler
pipeline.  It records two event shapes:

* **spans** — named intervals with wall-clock start/duration, emitted by
  the evaluator (top-level evaluations), the compiler pipeline (one span
  per pass, with IR node-count deltas), the WVM (per run), and the hotspot
  profiler (promotion attempts);
* **instant events** — point occurrences such as ``tier.promote``,
  ``tier.demote``, and ``guard.trip``, carrying structured ``args``.

Hot-path contract
-----------------

The module-level :data:`TRACER` is the *only* thing instrumentation sites
touch when tracing is off: one module-attribute load and a ``None`` test,
the same disarmed-cost discipline :mod:`repro.testing.faults` uses for its
injection sites.  No formatting, no allocation, no clock read happens
unless a tracer is installed.  Sites look like::

    from repro.observe import trace as _trace
    ...
    tracer = _trace.TRACER
    if tracer is not None:
        tracer.metrics.count("eval.rule_applications")

Export
------

:meth:`Tracer.chrome_trace` renders the recorded events in the Chrome
trace-event JSON format (the ``[{"ph": "X", "ts": ..., "dur": ...}, ...]``
array form), loadable in ``chrome://tracing`` and Perfetto;
:meth:`Tracer.write_chrome_trace` writes it to a file.  Timestamps are
microseconds relative to tracer creation.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.observe import context as _context
from repro.observe.metrics import MetricsRegistry

#: default span-buffer bound — generous (a traced bench run records a few
#: thousand events), but a *bound*: before PR 9 a long traced session grew
#: ``Tracer.events`` without limit
DEFAULT_MAX_SPANS = 100_000


@dataclass
class SpanRecord:
    """One finished interval (or instant, when ``duration`` is ``None``)."""

    name: str
    category: str
    #: seconds since the tracer's origin
    start: float
    #: seconds; ``None`` marks an instant event
    duration: Optional[float]
    #: structured payload (symbol names, counts, IR sizes, ...)
    args: dict = field(default_factory=dict)
    #: name of the enclosing span on the same thread, "" at top level
    parent: str = ""
    #: nesting depth at emission time (0 = top level)
    depth: int = 0
    thread: int = 0
    #: owning request / distributed trace, "" outside any request scope
    #: (stamped from :mod:`repro.observe.context` at creation time)
    request: str = ""
    trace_id: str = ""

    def is_span(self) -> bool:
        return self.duration is not None

    def to_dict(self) -> dict:
        """The wire form the server's ``events``/``trace`` ops return."""
        payload = {
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "duration": self.duration,
            "args": _jsonable(self.args),
            "thread": self.thread,
            "depth": self.depth,
        }
        if self.request:
            payload["request"] = self.request
        if self.trace_id:
            payload["trace_id"] = self.trace_id
        return payload


class Tracer:
    """Collects spans, instant events, and metrics for one tracing session."""

    #: background tracers (the flight recorder) yield the ``TRACER`` slot
    #: to an explicit ``with_tracing`` block instead of making it raise
    background = False

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 max_spans: int = DEFAULT_MAX_SPANS):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: bounded record stream: deque.append is atomic under the GIL, so
        #: the hot path takes no lock; eviction past ``max_spans`` runs
        #: under ``_evict_lock`` so concurrent emitters cannot double-pop
        self.events: deque[SpanRecord] = deque()
        self.max_spans = max_spans
        #: spans evicted oldest-first once the buffer filled
        self.dropped_spans = 0
        self._evict_lock = threading.Lock()
        self._origin = time.perf_counter()
        self._tls = threading.local()

    # -- clock ---------------------------------------------------------------

    def now(self) -> float:
        """Seconds since tracer creation (the span timebase)."""
        return time.perf_counter() - self._origin

    def since(self, perf_counter_value: float) -> float:
        """Convert a raw ``time.perf_counter()`` reading to the timebase."""
        return perf_counter_value - self._origin

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _record(self, name: str, category: str, start: float,
                duration: Optional[float], args: dict) -> SpanRecord:
        """Build one record, stamped with the active request context."""
        stack = self._stack()
        record = SpanRecord(
            name=name,
            category=category,
            start=start,
            duration=duration,
            args=args,
            parent=stack[-1].name if stack else "",
            depth=len(stack),
            thread=threading.get_ident(),
        )
        context = _context.CURRENT.get()
        if context is not None:
            record.request = context.request_id
            record.trace_id = context.trace_id
        return record

    def _emit(self, record: SpanRecord) -> None:
        """Append one finished record; evict oldest-first past the bound."""
        events = self.events
        events.append(record)
        if len(events) > self.max_spans:
            with self._evict_lock:
                while len(events) > self.max_spans:
                    try:
                        events.popleft()
                    except IndexError:  # pragma: no cover - racing eviction
                        break
                    self.dropped_spans += 1

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str, category: str = "repro", **args) -> Iterator[SpanRecord]:
        """Record a named interval around the block (nesting-aware)."""
        record = self._record(name, category, self.now(), None, dict(args))
        stack = self._stack()
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record.duration = self.now() - record.start
            self._emit(record)

    def complete(
        self, name: str, category: str, start: float, **args
    ) -> SpanRecord:
        """Record an already-finished interval begun at ``start`` (a value
        from :meth:`now`); for sites where a ``with`` block is awkward."""
        record = self._record(name, category, start,
                              self.now() - start, dict(args))
        self._emit(record)
        return record

    # -- instants and counters ----------------------------------------------

    def event(self, name: str, category: str = "repro", **args) -> SpanRecord:
        """Record an instant event (``tier.promote``, ``guard.trip``, ...)."""
        record = self._record(name, category, self.now(), None, dict(args))
        self._emit(record)
        return record

    def count(self, name: str, delta: int = 1) -> None:
        self.metrics.count(name, delta)

    # -- queries -------------------------------------------------------------

    def spans(self, name: Optional[str] = None,
              category: Optional[str] = None,
              request: Optional[str] = None) -> list[SpanRecord]:
        found = [e for e in self.events if e.is_span()]
        if name is not None:
            found = [e for e in found if e.name == name]
        if category is not None:
            found = [e for e in found if e.category == category]
        if request is not None:
            found = [e for e in found if e.request == request]
        return found

    def instants(self, name: Optional[str] = None,
                 request: Optional[str] = None) -> list[SpanRecord]:
        found = [e for e in self.events if not e.is_span()]
        if name is not None:
            found = [e for e in found if e.name == name]
        if request is not None:
            found = [e for e in found if e.request == request]
        return found

    def categories(self) -> set[str]:
        return {e.category for e in self.events}

    # -- Chrome-trace export --------------------------------------------------

    def chrome_trace(self) -> list[dict]:
        """The trace-event array (``chrome://tracing`` / Perfetto JSON)."""
        out = []
        for record in list(self.events):
            args = _jsonable(record.args)
            if record.request:
                args["request"] = record.request
                args["trace_id"] = record.trace_id
            entry = {
                "name": record.name,
                "cat": record.category,
                "ts": record.start * 1e6,
                "pid": 1,
                "tid": record.thread % 100000,
                "args": args,
            }
            if record.is_span():
                entry["ph"] = "X"
                entry["dur"] = record.duration * 1e6
            else:
                entry["ph"] = "i"
                entry["s"] = "t"  # thread-scoped instant
            out.append(entry)
        return out

    def write_chrome_trace(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, indent=1)
        return path


def _jsonable(args: dict) -> dict:
    """Chrome-trace ``args`` must be JSON-serializable; stringify the rest."""
    out = {}
    for key, value in args.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = str(value)
    return out


# -- the module-level guard flag ----------------------------------------------------

#: the active tracer; ``None`` when tracing is disabled (the common case).
#: Hot paths load this attribute and test ``is not None`` — nothing else.
TRACER: Optional[Tracer] = None


def active_tracer() -> Optional[Tracer]:
    return TRACER


def enable_tracing(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) the process-wide tracer."""
    global TRACER
    if tracer is None:
        tracer = Tracer()
    TRACER = tracer
    return tracer


def disable_tracing() -> Optional[Tracer]:
    """Remove the active tracer and return it (for inspection/export)."""
    global TRACER
    tracer = TRACER
    TRACER = None
    return tracer


@contextmanager
def with_tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Scope tracing to a block — the test/benchmark entry point.

    Not reentrant: nested ``with_tracing`` blocks would silently splice
    streams, so a second activation raises while one is live (mirroring
    :func:`repro.testing.faults.inject_faults`).  The always-on flight
    recorder is the one exception — a *background* tracer steps aside for
    the explicit block and is reinstalled afterwards, so ``--trace`` and
    the recorder coexist.
    """
    global TRACER
    stashed = TRACER
    if stashed is not None and not stashed.background:
        raise RuntimeError("tracing is already enabled")
    active = enable_tracing(tracer)
    try:
        yield active
    finally:
        TRACER = stashed
