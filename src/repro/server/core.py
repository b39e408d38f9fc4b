"""``EngineServer`` — the multi-session engine front-end.

``submit`` is synchronous and runs on the caller's thread: the wire
server calls it on the thread that read the request line, so a request
is decoded, admitted, evaluated and answered without changing threads.
The request path is a small state machine (DESIGN.md §10)::

    admit ──► queue ──► evaluate ──► (retry) ──► respond
      │         │           │
      ▼         ▼           ▼
    breaker   shed       degrade

* **admit** — the per-tenant breaker is checked first (the wider scope),
  then the per-session breaker; an open breaker refuses in microseconds
  with a ``retry_after`` hint.  A session flooding its own serial queue
  past ``session_queue_limit`` is shed without consuming global capacity.
* **queue** — the bounded admission queue
  (:class:`~repro.server.admission.AdmissionController`): saturated means
  shed, not wait-forever.
* **evaluate** — the request runs under an
  :class:`~repro.runtime.guard.ExecutionGuard` derived from the admission
  budget (scaled down under memory pressure).  Each session's requests
  are serialized by a per-session lock, so a session never races itself.
* **retry** — transient soft failures re-run with exponential backoff and
  full jitter (:class:`~repro.server.retry.RetryPolicy`), never past the
  attempt bound, never for guard expiries.  Each attempt acquires its own
  admission slot: a backoff sleep never pins an evaluation slot, and a
  retry arriving into a saturated queue is shed like any other request.
* **degrade** — every request ticks the
  :class:`~repro.server.degrade.DegradationManager`: under pressure
  sessions step compiled → interpreter, and at critical pressure cold
  session overlays are evicted entirely.

Shared bookkeeping — totals, the session table, per-session pending
counts and locks, the pressure sweep — sits under one short server lock
that is never held across ``Session.execute``.

Failure isolation invariants the chaos suite pins:

* no request — slow, aborted, poisoned, or memory-hungry — ever crashes
  the server or any other session;
* a misbehaving session trips *its* breaker, and a misbehaving tenant
  *its* breaker, while healthy sessions keep completing;
* no definition written in one session is ever observable from another
  (copy-on-write overlays over the shared base image).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro import observe as _observe
from repro.observe import context as _obs_context
from repro.observe import trace as _obs_trace
from repro.observe.flight import (
    DEFAULT_SAMPLE,
    DEFAULT_SLOW_SECONDS,
    FlightRecorder,
    telemetry_enabled,
)
from repro.errors import RejectedError
from repro.server.admission import AdmissionController, RequestBudget
from repro.server.base import BaseImage
from repro.server.breakers import BreakerBoard
from repro.server.degrade import DegradationManager
from repro.server.retry import RetryPolicy
from repro.server.session import Session, SessionState

STATS_SCHEMA = 1


@dataclass
class ServerConfig:
    """Every knob of the engine server, with serving-sized defaults."""

    # sessions
    max_sessions: int = 256
    session_queue_limit: int = 8
    prelude: tuple = ()
    #: path to an AOT warm image (``python -m repro aot``); when set, the
    #: base image boots from it — prelude and artifacts come from the
    #: manifest and ``prelude`` above is ignored
    image_path: Optional[str] = None
    recursion_limit: int = 1024
    iteration_limit: int = 4096
    compile_support: bool = True
    # admission
    max_concurrent: int = 4
    queue_limit: int = 32
    budget: RequestBudget = field(default_factory=RequestBudget)
    # breakers
    breaker_threshold: int = 3
    tenant_breaker_threshold: int = 9
    breaker_window: float = 30.0
    breaker_cooldown: float = 1.0
    breaker_max_cooldown: float = 30.0
    # retries
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    # degradation
    soft_limit_bytes: int = 256 * 1024 * 1024
    hard_limit_bytes: int = 512 * 1024 * 1024
    idle_ttl: float = 60.0
    # telemetry — the always-on flight recorder (DESIGN.md §7.5).  None
    #: defers to the ``REPRO_TELEMETRY`` master switch
    telemetry: Optional[bool] = None
    #: head-sampling rate for healthy requests (failed, slow and notable
    #: ones are always kept)
    telemetry_sample: float = DEFAULT_SAMPLE


@dataclass
class Response:
    """The structured reply to one ``submit``."""

    ok: bool
    session: str
    tenant: Optional[str] = None
    result: Optional[str] = None
    error: Optional[dict] = None
    rejected: bool = False
    retry_after: Optional[float] = None
    retries: int = 0
    latency_seconds: float = 0.0
    #: telemetry identity — the key ``{"op": "trace"}`` timelines hang off
    request_id: str = ""
    trace_id: str = ""

    def to_dict(self) -> dict:
        payload = {
            "ok": self.ok,
            "session": self.session,
            "tenant": self.tenant,
            "latency_seconds": self.latency_seconds,
            "request_id": self.request_id,
            "trace_id": self.trace_id,
        }
        if self.ok:
            payload["result"] = self.result
        else:
            payload["error"] = self.error
        if self.rejected:
            payload["rejected"] = True
            payload["retry_after"] = self.retry_after
        if self.retries:
            payload["retries"] = self.retries
        return payload


class EngineServer:
    """A resilient multi-session engine over one shared base image."""

    def __init__(self, config: Optional[ServerConfig] = None,
                 base_image: Optional[BaseImage] = None,
                 memory_probe=None, clock=time.monotonic):
        self.config = config if config is not None else ServerConfig()
        if base_image is not None:
            self.base_image = base_image
        elif self.config.image_path:
            self.base_image = BaseImage.from_image(self.config.image_path)
        else:
            self.base_image = BaseImage(prelude=self.config.prelude)
        self.clock = clock
        self.sessions: dict[str, Session] = {}
        self.admission = AdmissionController(
            max_concurrent=self.config.max_concurrent,
            queue_limit=self.config.queue_limit,
        )
        self.breakers = BreakerBoard(
            session_threshold=self.config.breaker_threshold,
            tenant_threshold=self.config.tenant_breaker_threshold,
            window=self.config.breaker_window,
            cooldown=self.config.breaker_cooldown,
            max_cooldown=self.config.breaker_max_cooldown,
            clock=clock,
        )
        self.degrade = DegradationManager(
            soft_limit_bytes=self.config.soft_limit_bytes,
            hard_limit_bytes=self.config.hard_limit_bytes,
            idle_ttl=self.config.idle_ttl,
            memory_probe=memory_probe,
        )
        self.started = self.clock()
        self.totals = {"requests": 0, "ok": 0, "failed": 0, "shed": 0,
                       "retries": 0, "aborted": 0, "evicted": 0}
        #: the server lock: held for bookkeeping, never across ``execute``
        self._lock = threading.Lock()
        self._locks: dict[str, threading.Lock] = {}
        self._pending: dict[str, int] = {}
        self._evicted_ids: list[str] = []
        # the always-on flight recorder: installed as the process tracer
        # unless telemetry is off or an explicit tracer is already active
        # (--trace, with_tracing) — explicit tracing wins
        # and still records every server event, just unbounded/unsampled
        self.flight: Optional[FlightRecorder] = None
        self._owns_flight = False
        use_telemetry = (self.config.telemetry
                         if self.config.telemetry is not None
                         else telemetry_enabled())
        active = _obs_trace.TRACER
        if use_telemetry and active is None:
            self.flight = FlightRecorder(
                sample=self.config.telemetry_sample,
                slow_seconds=self._slow_threshold(),
            )
            _obs_trace.enable_tracing(self.flight)
            self._owns_flight = True
        elif isinstance(active, FlightRecorder):
            self.flight = active

    def _slow_threshold(self) -> float:
        """Tail-retention slow bound: half the deadline, if there is one."""
        deadline = self.config.budget.deadline_seconds
        if deadline is not None:
            return max(0.05, 0.5 * deadline)
        return DEFAULT_SLOW_SECONDS

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._owns_flight and _obs_trace.TRACER is self.flight:
            _obs_trace.disable_tracing()
            self._owns_flight = False

    # -- the request path ---------------------------------------------------

    def submit(self, source: str, session_id: str = "default",
               tenant: Optional[str] = None,
               trace_id: Optional[str] = None) -> Response:
        """Admit, queue, evaluate (with retries), respond, on the calling
        thread.  Never raises."""
        start = self.clock()
        flight = self.flight
        with self._lock:
            self.totals["requests"] += 1
            sampled = flight.sample_next() if flight is not None else True
        _observe.count("server.requests")
        ctx = _obs_context.mint_context(
            session=session_id, tenant=tenant or "", trace_id=trace_id,
            sampled=sampled,
        )
        # every span/instant emitted below this point — admission, session
        # execution, tier events, cache lookups — is stamped with this
        # request's identity via the contextvar, reconstructable later as
        # one timeline under ``{"op": "trace", "request": ctx.request_id}``
        token = _obs_context.CURRENT.set(ctx)
        try:
            with _observe.span("server.request", "server",
                               session=session_id, tenant=tenant or ""):
                try:
                    response = self._submit_inner(
                        source, session_id, tenant, start
                    )
                except RejectedError as rejection:
                    response = self._rejected(
                        rejection, session_id, tenant, start
                    )
                except Exception as error:
                    # the no-crash invariant holds at the protocol boundary
                    # even for faults the request path never classifies
                    with self._lock:
                        self.totals["failed"] += 1
                    _observe.count("server.failures")
                    response = Response(
                        ok=False, session=session_id, tenant=tenant,
                        error={
                            "kind": "InternalError",
                            "message": f"{type(error).__name__}: {error}",
                        },
                        latency_seconds=self.clock() - start,
                    )
        finally:
            _obs_context.CURRENT.reset(token)
        response.request_id = ctx.request_id
        response.trace_id = ctx.trace_id
        tracer = _obs_trace.TRACER
        if tracer is not None:
            tracer.metrics.observe(
                "server.latency_seconds", response.latency_seconds
            )
        if flight is not None:
            flight.finish_request(
                ctx, ok=response.ok, rejected=response.rejected,
                retries=response.retries, latency=response.latency_seconds,
            )
        return response

    def _submit_inner(self, source: str, session_id: str,
                      tenant: Optional[str], start: float) -> Response:
        probes = self.breakers.admit(session_id, tenant)
        try:
            with self._lock:
                session = self._session(session_id, tenant)
                pending = self._pending.get(session_id, 0)
                if pending >= self.config.session_queue_limit:
                    self.admission.count_shed()
                    raise RejectedError(
                        "session-queue-full",
                        f"session {session_id!r} already has {pending} "
                        "requests queued",
                        retry_after=self.config.budget.deadline_seconds,
                        scope=session_id,
                    )
                self._pending[session_id] = pending + 1
                lock = self._locks.get(session_id)
                if lock is None:
                    lock = self._locks[session_id] = threading.Lock()
            try:
                with lock:
                    outcome, retries = self._run_with_retries(
                        session, source
                    )
            finally:
                with self._lock:
                    remaining = self._pending.get(session_id, 1) - 1
                    if remaining:
                        self._pending[session_id] = remaining
                    else:
                        self._pending.pop(session_id, None)
        except BaseException:
            # rejected (or crashed) before the breakers could see an
            # outcome: any half-open probe slot this request holds must be
            # handed back, or the scope stays locked out forever
            for breaker in probes:
                breaker.abandon_probe()
            raise

        latency = self.clock() - start
        # aborts are client-initiated, not server failures: they complete
        # the request cleanly and must not trip the breaker
        healthy = outcome.ok or outcome.aborted
        self.breakers.record(session_id, tenant, ok=healthy,
                             kind=outcome.error_kind or "failure")
        with self._lock:
            if outcome.ok:
                self.totals["ok"] += 1
            else:
                if outcome.aborted:
                    self.totals["aborted"] += 1
                self.totals["failed"] += 1
        _observe.count("server.ok" if outcome.ok else "server.failures")
        return Response(
            ok=outcome.ok, session=session_id, tenant=tenant,
            result=outcome.value,
            error=(None if outcome.ok else {
                "kind": outcome.error_kind,
                "message": outcome.error_message,
            }),
            retries=retries, latency_seconds=latency,
        )

    def _run_with_retries(self, session: Session, source: str):
        policy = self.config.retry
        attempt = 1
        while True:
            # the admission slot is held only while the attempt actually
            # runs: a backoff sleep must not pin an evaluation slot during
            # exactly the overload that made the attempt fail.  Each
            # attempt re-reads the pressure controls, so a retry admitted
            # into a degraded server gets the degraded budget.
            with self.admission.slot():
                with self._lock:
                    control = self.degrade.evaluate(self.sessions)
                    self._apply_evictions(control["evict"], keep=session.id)
                budget = self.config.budget.scaled(control["budget_scale"])
                outcome = session.execute(source, budget)
            retryable = (
                not outcome.ok
                and not outcome.aborted
                and outcome.transient
                and outcome.error_kind in policy.transient_kinds
                and attempt < policy.attempts
            )
            if not retryable:
                return outcome, attempt - 1
            delay = policy.delay(attempt)
            session.stats.retries += 1
            with self._lock:
                self.totals["retries"] += 1
            _observe.count("server.retries")
            _observe.event("server.retry", "server", session=session.id,
                           attempt=attempt, delay=delay,
                           kind=outcome.error_kind)
            time.sleep(delay)
            attempt += 1

    def _rejected(self, rejection: RejectedError, session_id: str,
                  tenant: Optional[str], start: float) -> Response:
        with self._lock:
            self.totals["shed"] += 1
            session = self.sessions.get(session_id)
            if session is not None:
                session.stats.rejected += 1
        _observe.event("server.shed", "server", session=session_id,
                       reason=rejection.reason, scope=rejection.scope)
        return Response(
            ok=False, session=session_id, tenant=tenant,
            error=rejection.to_dict(), rejected=True,
            retry_after=rejection.retry_after,
            latency_seconds=self.clock() - start,
        )

    # -- session management -------------------------------------------------

    def _session(self, session_id: str, tenant: Optional[str]) -> Session:
        """The session for ``session_id``, created on first use (server
        lock held)."""
        session = self.sessions.get(session_id)
        if session is not None:
            if tenant is not None and session.tenant != tenant:
                raise RejectedError(
                    "tenant-mismatch",
                    f"session {session_id!r} belongs to tenant "
                    f"{session.tenant!r}",
                    scope=session_id,
                )
            return session
        if len(self.sessions) >= self.config.max_sessions:
            raise RejectedError(
                "session-limit",
                f"server is at its {self.config.max_sessions}-session "
                "capacity",
                retry_after=self.config.idle_ttl,
            )
        evaluator = self.base_image.create_evaluator(
            recursion_limit=self.config.recursion_limit,
            iteration_limit=self.config.iteration_limit,
            compile_support=self.config.compile_support,
        )
        session = Session(session_id, tenant, evaluator)
        self.sessions[session_id] = session
        _observe.event("server.session", "server", session=session_id,
                       tenant=tenant or "", action="created")
        return session

    def _apply_evictions(self, evict: dict, keep: str = "") -> None:
        """Drop cold sessions (server lock held)."""
        for session_id, session in evict.items():
            if session_id == keep or session.state is SessionState.RUNNING:
                continue
            if self._pending.get(session_id):
                continue  # requests admitted or queued behind its lock
            session.state = SessionState.EVICTED
            self.sessions.pop(session_id, None)
            self._locks.pop(session_id, None)
            self.breakers.drop_session(session_id)
            self._evicted_ids.append(session_id)
            self.totals["evicted"] += 1
            _observe.event("server.session", "server", session=session_id,
                           action="evicted")

    def abort_session(self, session_id: str) -> bool:
        """Request a mid-evaluation abort of the session's running request
        (the server-side F3); thread-safe, returns whether the id exists.

        An abort only makes sense against a *running* evaluation: setting
        the flag on an idle session would linger until its next request
        starts and spuriously abort that unrelated work, so it is dropped.
        """
        session = self.sessions.get(session_id)
        if session is None:
            return False
        if session.state is SessionState.RUNNING:
            session.evaluator.request_abort()
        return True

    # -- reporting ----------------------------------------------------------

    def shed_rate(self) -> float:
        total = self.totals["requests"]
        return self.totals["shed"] / total if total else 0.0

    def stats(self) -> dict:
        with self._lock:
            totals = dict(self.totals)
            sessions = list(self.sessions.items())
            evicted = list(self._evicted_ids)
        return {
            "schema": STATS_SCHEMA,
            "kind": "repro-server-stats",
            "uptime_seconds": self.clock() - self.started,
            "requests": totals,
            "shed_rate": self.shed_rate(),
            "admission": self.admission.snapshot(),
            "pressure": self.degrade.snapshot(),
            "breakers": self.breakers.snapshot(),
            "sessions": {
                session_id: session.snapshot()
                for session_id, session in sessions
            },
            "evicted_sessions": evicted,
            "base_image_definitions": len(self.base_image),
            "telemetry": self.flight.stats() if self.flight else {},
        }

    # -- live introspection (the ``metrics``/``events``/``trace`` ops) ------

    def timeline(self, request_id: str) -> list:
        """The retained per-request timeline, as wire-ready dicts."""
        if self.flight is None:
            return []
        return self.flight.timeline_dict(request_id)

    def recent_events(self, limit: int = 50) -> list:
        """The newest retained records across all requests."""
        if self.flight is None:
            return []
        return [record.to_dict() for record in self.flight.recent(limit)]

    def metrics_dict(self) -> dict:
        """Counters and quantile histograms from the active recorder."""
        tracer = _obs_trace.TRACER if self.flight is None else self.flight
        if tracer is None:
            return {"counters": {}, "histograms": {}}
        return tracer.metrics.as_dict()

    def dump_stats(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.stats(), handle, indent=2)
            handle.write("\n")
