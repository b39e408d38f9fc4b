"""The always-on flight recorder: bounded, sampled, safe to leave on.

The PR 3 tracer answers "where did the time go" for an *opt-in* run; a
production server needs the question answered for the request that went
wrong **last Tuesday**, which means telemetry that is always armed and
still bounded in memory and overhead.  :class:`FlightRecorder` is a
:class:`~repro.observe.trace.Tracer` whose record stream is routed, not
merely appended:

* records stamped with a request id accumulate in a **per-request
  buffer** (bounded per request and in the number of open requests);
* when the server finishes the request, :meth:`finish_request` either
  flushes the buffer into the bounded **ring** or drops it, according to
  **head sampling** (the ``sample`` rate, decided at mint time)
  plus **tail retention**: every failed, shed, retried, slow, or
  demotion/guard-trip/breaker-touching request is kept regardless of the
  sampling decision — the interesting 1% never depends on the dice;
* records outside any request scope (REPL evaluation, AOT warm-up,
  background promotion) go straight to the ring.

Snapshots
---------

:meth:`auto_snapshot` freezes the ring plus all open buffers into a
bounded list of named snapshots.  The recorder arms itself: a
``server.breaker`` transition to ``open`` and a ``server.pressure``
transition to ``CRITICAL`` trigger a snapshot from inside the event
stream, whichever subsystem emitted it — no server plumbing required.
:meth:`write_snapshots` dumps each one as a Chrome-trace JSON file.

State machine (per request)::

    mint ──► buffering ──► finish ──► retained (ring)      [sampled or
                 │                                           interesting]
                 │                └──► dropped (counted)    [otherwise]
                 └──► overflow: oldest open buffer evicted to the ring
                      decision (counted as truncated)

Overhead: the buffer/ring paths cost one routing branch and one deque or
list append over the plain tracer; CI gates the whole always-on recorder
at ≤5% over the fully-disabled path (``benchmarks/bench_trace_overhead.py
--trace-overhead``, widened by the samples' own noise).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque

from repro.observe import context as _context
from repro.observe.trace import SpanRecord, Tracer

DEFAULT_RING_EVENTS = 8192
DEFAULT_SAMPLE = 1.0
DEFAULT_SNAPSHOTS = 4
DEFAULT_SLOW_SECONDS = 0.25
#: per-request buffer bound — a single request recording more spans than
#: this keeps the newest ones counted but not stored
MAX_REQUEST_EVENTS = 2048
#: open-request bound — buffers past this are force-flushed oldest-first
MAX_OPEN_REQUESTS = 1024

#: instant events that may freeze a snapshot (see ``_maybe_auto_snapshot``)
SNAPSHOT_TRIGGERS = frozenset({"server.breaker", "server.pressure"})

#: event names whose presence makes an unsampled request worth keeping
NOTABLE_EVENTS = frozenset({
    "guard.trip",
    "tier.demote",
    "server.retry",
    "server.breaker",
    "server.pressure",
    "server.shed",
})


def telemetry_enabled() -> bool:
    """``REPRO_TELEMETRY`` master switch (default: on)."""
    raw = os.environ.get("REPRO_TELEMETRY", "").strip().lower()
    return raw not in {"0", "off", "false", "no", "disabled"}


class FlightRecorder(Tracer):
    """A bounded, sampling, self-snapshotting tracer for production use."""

    background = True

    def __init__(
        self,
        max_events: int = DEFAULT_RING_EVENTS,
        sample: float = DEFAULT_SAMPLE,
        max_snapshots: int = DEFAULT_SNAPSHOTS,
        slow_seconds: float = DEFAULT_SLOW_SECONDS,
    ):
        super().__init__()
        self.max_events = max_events
        self.sample = sample
        self.max_snapshots = max_snapshots
        self.slow_seconds = slow_seconds
        #: the ring of retained records — ``self.events`` so every base
        #: Tracer query (``spans``/``instants``/``chrome_trace``) reads it
        self.events = deque()
        self._buffers: dict[str, list] = {}
        self._lock = threading.Lock()
        self._sample_accumulator = 0.0
        self.retained_requests = 0
        self.dropped_requests = 0
        self.truncated_requests = 0
        self.dropped_events = 0
        self.snapshots: list[dict] = []

    # -- head sampling --------------------------------------------------------

    def sample_next(self) -> bool:
        """The head-sampling decision for the next minted request.

        Deterministic error-diffusion stride instead of a random draw: a
        rate of 0.25 retains exactly every fourth healthy request, so
        tests and replayed workloads see stable retention.
        """
        rate = self.sample
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        with self._lock:
            self._sample_accumulator += rate
            if self._sample_accumulator >= 1.0:
                self._sample_accumulator -= 1.0
                return True
            return False

    # -- record routing -------------------------------------------------------

    def _emit(self, record: SpanRecord) -> None:
        request = record.request
        if request:
            # an open buffer is appended to without the lock: only the
            # request's own thread records under its id, and list.append
            # is atomic; opening, overflowing and closing take the lock
            buffer = self._buffers.get(request)
            if buffer is None or len(buffer) >= MAX_REQUEST_EVENTS:
                with self._lock:
                    buffer = self._buffers.get(request)
                    if buffer is None:
                        if len(self._buffers) >= MAX_OPEN_REQUESTS:
                            # a leaked/forgotten request must not pin
                            # memory: force the oldest open buffer
                            # through retention
                            oldest = next(iter(self._buffers))
                            stale = self._buffers.pop(oldest)
                            self._retain_locked(stale)
                        buffer = self._buffers[request] = []
                    if len(buffer) >= MAX_REQUEST_EVENTS:
                        self.dropped_events += 1
                        buffer = None
            if buffer is not None:
                buffer.append(record)
        else:
            with self._lock:
                self._retain_locked([record])
        if record.duration is None and record.name in SNAPSHOT_TRIGGERS:
            self._maybe_auto_snapshot(record)

    def _retain_locked(self, records: list) -> None:
        ring = self.events
        ring.extend(records)
        while len(ring) > self.max_events:
            ring.popleft()
            self.dropped_events += 1

    # -- request lifecycle ----------------------------------------------------

    def finish_request(
        self,
        context: "_context.TraceContext",
        ok: bool = True,
        rejected: bool = False,
        retries: int = 0,
        latency: float = 0.0,
    ) -> bool:
        """Close the request's buffer: flush to the ring or drop.

        Returns whether the request was retained.  Tail retention keeps
        every request that failed, was shed, retried, ran slow (past
        ``slow_seconds``), or whose buffer carries a notable event
        (guard trip, tier demotion, breaker/pressure transition).
        """
        keep = (
            context.sampled
            or not ok
            or rejected
            or retries > 0
            or latency >= self.slow_seconds
        )
        with self._lock:
            buffer = self._buffers.pop(context.request_id, None) or []
            if not keep:
                for record in buffer:
                    if record.name in NOTABLE_EVENTS:
                        keep = True
                        break
            if not keep:
                self.dropped_requests += 1
                return False
            self._retain_locked(buffer)
            self.retained_requests += 1
            if len(buffer) >= MAX_REQUEST_EVENTS:
                self.truncated_requests += 1
        return True

    def open_requests(self) -> int:
        with self._lock:
            return len(self._buffers)

    # -- timeline reconstruction ----------------------------------------------

    def timeline(self, request_id: str) -> list:
        """Every retained record of one request, oldest first.

        Searches the ring, any still-open buffer, and the frozen
        snapshots, deduplicating records that appear in both a snapshot
        and the live ring.
        """
        with self._lock:
            candidates = list(self.events)
            buffer = self._buffers.get(request_id)
            if buffer is not None:
                candidates.extend(buffer)
            for snapshot in self.snapshots:
                candidates.extend(snapshot["events"])
        seen = set()
        found = []
        for record in candidates:
            if record.request == request_id and id(record) not in seen:
                seen.add(id(record))
                found.append(record)
        found.sort(key=lambda record: record.start)
        return found

    def timeline_dict(self, request_id: str) -> list:
        return [record.to_dict() for record in self.timeline(request_id)]

    # -- snapshots ------------------------------------------------------------

    def _maybe_auto_snapshot(self, record: SpanRecord) -> None:
        if record.name == "server.breaker" and \
                record.args.get("to") == "open":
            self.auto_snapshot(
                f"breaker-open:{record.args.get('scope', '?')}"
            )
        elif record.name == "server.pressure" and \
                record.args.get("to") == "CRITICAL":
            self.auto_snapshot("pressure-critical")

    def auto_snapshot(self, reason: str) -> dict:
        """Freeze the ring plus all open buffers under ``reason``."""
        with self._lock:
            events = list(self.events)
            for buffer in self._buffers.values():
                events.extend(buffer)
            snapshot = {
                "reason": reason,
                "at": time.time(),
                "events": events,
            }
            self.snapshots.append(snapshot)
            while len(self.snapshots) > self.max_snapshots:
                self.snapshots.pop(0)
        return snapshot

    def write_snapshots(self, directory: str) -> list:
        """Dump every snapshot (and the live ring) as Chrome-trace files."""
        os.makedirs(directory, exist_ok=True)
        written = []
        with self._lock:
            snapshots = list(self.snapshots)
            ring = list(self.events)
        for index, snapshot in enumerate(snapshots):
            slug = "".join(
                ch if ch.isalnum() or ch in "-_" else "-"
                for ch in snapshot["reason"]
            )
            path = os.path.join(directory, f"flight-{index}-{slug}.json")
            self._write_chrome(path, snapshot["events"])
            written.append(path)
        path = os.path.join(directory, "flight-ring.json")
        self._write_chrome(path, ring)
        written.append(path)
        return written

    def _write_chrome(self, path: str, records: list) -> None:
        from repro.observe.trace import _jsonable

        out = []
        for record in records:
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
                entry["s"] = "t"
            out.append(entry)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(out, handle, indent=1)

    # -- reporting ------------------------------------------------------------

    def recent(self, limit: int = 50) -> list:
        """The newest ``limit`` retained records, oldest first."""
        with self._lock:
            ring = list(self.events)
        return ring[-max(0, limit):]

    def stats(self) -> dict:
        with self._lock:
            return {
                "sample": self.sample,
                "slow_seconds": self.slow_seconds,
                "ring_events": len(self.events),
                "ring_capacity": self.max_events,
                "open_requests": len(self._buffers),
                "retained_requests": self.retained_requests,
                "dropped_requests": self.dropped_requests,
                "truncated_requests": self.truncated_requests,
                "dropped_events": self.dropped_events,
                "snapshots": [
                    {"reason": s["reason"], "at": s["at"],
                     "events": len(s["events"])}
                    for s in self.snapshots
                ],
            }
