"""Request-level circuit breakers, scoped per session and per tenant.

:class:`~repro.runtime.guard.CircuitBreaker` (PR 1) governs *tier choice*
for one function: failures take it off its native tier to the interpreter.  A
server needs the other classic breaker too — one that governs *admission*:
a session (or a whole tenant, across all its sessions) that keeps failing
stops being allowed to consume worker slots at all, so a runaway tenant
cannot starve healthy neighbours.

:class:`RequestBreaker` is the textbook three-state machine:

``closed``
    requests flow; failures inside the rolling ``window`` are counted, and
    reaching ``threshold`` trips the breaker **open**;
``open``
    requests are refused outright (:class:`~repro.errors.RejectedError`
    with ``retry_after`` = the remaining cooldown) until the cooldown
    elapses; each consecutive trip doubles the cooldown up to ``max_cooldown``
    (exponential backoff at the breaker level);
``half-open``
    after the cooldown one *probe* request is admitted; success closes the
    breaker and resets the backoff, failure re-opens it.  A probe that is
    admitted here but then rejected downstream (queue full, session limit,
    tenant mismatch) reports neither success nor failure — the caller must
    :meth:`~RequestBreaker.abandon_probe` it, or the breaker would stay
    half-open with a phantom probe forever.

The clock is injectable so tests drive the state machine deterministically.
All transitions emit ``server.breaker`` events through :mod:`repro.observe`.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro import observe as _observe
from repro.errors import RejectedError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class RequestBreaker:
    """One admission breaker for one scope (a session id or a tenant id)."""

    def __init__(
        self,
        scope: str,
        kind: str = "session",
        threshold: int = 3,
        window: float = 30.0,
        cooldown: float = 1.0,
        max_cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.scope = scope
        self.kind = kind
        self.threshold = threshold
        self.window = window
        self.cooldown = cooldown
        self.max_cooldown = max_cooldown
        self.clock = clock
        self.state = CLOSED
        self.times_opened = 0
        self._failures: list[float] = []
        self._opened_until = 0.0
        self._consecutive_opens = 0
        self._probe_in_flight = False
        self._lock = threading.Lock()

    # -- admission ----------------------------------------------------------

    def admit(self) -> bool:
        """Raise :class:`RejectedError` unless a request may proceed.

        Returns whether this caller holds the half-open probe slot; a
        probe-holding request that never reaches ``record_success`` /
        ``record_failure`` (rejected downstream, internal error) must call
        :meth:`abandon_probe` to hand the slot back.
        """
        with self._lock:
            now = self.clock()
            if self.state == OPEN:
                if now < self._opened_until:
                    raise RejectedError(
                        f"{self.kind}-breaker-open",
                        f"{self.kind} {self.scope!r} breaker is open",
                        retry_after=self._opened_until - now,
                        scope=self.scope,
                    )
                self._transition(HALF_OPEN)
                self._probe_in_flight = True
                return True  # this caller is the probe
            if self.state == HALF_OPEN:
                if self._probe_in_flight:
                    raise RejectedError(
                        f"{self.kind}-breaker-open",
                        f"{self.kind} {self.scope!r} is half-open with a "
                        "probe in flight",
                        retry_after=self.cooldown,
                        scope=self.scope,
                    )
                self._probe_in_flight = True
                return True
            return False

    def abandon_probe(self) -> None:
        """Release a held probe slot without recording an outcome.

        The probe request was rejected before it could run, so it proved
        nothing about the scope's health: stay half-open and let the next
        admitted request become the probe instead.
        """
        with self._lock:
            if self.state == HALF_OPEN and self._probe_in_flight:
                self._probe_in_flight = False

    # -- outcome reporting --------------------------------------------------

    def record_success(self) -> None:
        with self._lock:
            if self.state == HALF_OPEN:
                self._probe_in_flight = False
                self._failures.clear()
                self._consecutive_opens = 0
                self._transition(CLOSED)
            elif self.state == CLOSED and self._failures:
                # a success inside the window ages out nothing by itself —
                # the rolling window does — but it does prove liveness
                self._prune(self.clock())

    def record_failure(self, kind: str = "failure") -> None:
        with self._lock:
            now = self.clock()
            if self.state == HALF_OPEN:
                self._probe_in_flight = False
                self._open(now, kind)
                return
            self._failures.append(now)
            self._prune(now)
            if self.state == CLOSED and len(self._failures) >= self.threshold:
                self._open(now, kind)

    # -- introspection ------------------------------------------------------

    def retry_after(self) -> Optional[float]:
        with self._lock:
            if self.state != OPEN:
                return None
            return max(0.0, self._opened_until - self.clock())

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "scope": self.scope,
                "kind": self.kind,
                "state": self.state,
                "failures_in_window": len(self._failures),
                "threshold": self.threshold,
                "times_opened": self.times_opened,
                "retry_after": (
                    max(0.0, self._opened_until - self.clock())
                    if self.state == OPEN else None
                ),
            }

    # -- internals (lock held) ----------------------------------------------

    def _prune(self, now: float) -> None:
        cutoff = now - self.window
        while self._failures and self._failures[0] < cutoff:
            self._failures.pop(0)

    def _open(self, now: float, kind: str) -> None:
        backoff = min(
            self.max_cooldown, self.cooldown * (2 ** self._consecutive_opens)
        )
        self._consecutive_opens += 1
        self.times_opened += 1
        self._opened_until = now + backoff
        self._failures.clear()
        self._transition(OPEN, kind=kind, cooldown=backoff)

    def _transition(self, state: str, **args) -> None:
        previous, self.state = self.state, state
        _observe.event(
            "server.breaker", "server", scope=self.scope,
            breaker=self.kind, **{"from": previous, "to": state}, **args,
        )


class BreakerBoard:
    """The server's breaker registry: one per session, one per tenant.

    A tenant breaker aggregates failures across *all* the tenant's
    sessions, with a proportionally higher threshold — one poisoned
    session trips only itself, a tenant-wide pattern of abuse trips the
    tenant.
    """

    def __init__(
        self,
        session_threshold: int = 3,
        tenant_threshold: int = 9,
        window: float = 30.0,
        cooldown: float = 1.0,
        max_cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._make = dict(window=window, cooldown=cooldown,
                          max_cooldown=max_cooldown, clock=clock)
        self.session_threshold = session_threshold
        self.tenant_threshold = tenant_threshold
        self.sessions: dict[str, RequestBreaker] = {}
        self.tenants: dict[str, RequestBreaker] = {}
        self._lock = threading.Lock()

    def session(self, session_id: str) -> RequestBreaker:
        with self._lock:
            breaker = self.sessions.get(session_id)
            if breaker is None:
                breaker = self.sessions[session_id] = RequestBreaker(
                    session_id, kind="session",
                    threshold=self.session_threshold, **self._make,
                )
            return breaker

    def tenant(self, tenant_id: str) -> RequestBreaker:
        with self._lock:
            breaker = self.tenants.get(tenant_id)
            if breaker is None:
                breaker = self.tenants[tenant_id] = RequestBreaker(
                    tenant_id, kind="tenant",
                    threshold=self.tenant_threshold, **self._make,
                )
            return breaker

    def admit(self, session_id: str,
              tenant_id: Optional[str]) -> list[RequestBreaker]:
        """Tenant breaker first (the wider scope), then the session's.

        Returns the breakers whose half-open probe slot this request now
        holds; the caller must either report an outcome through
        :meth:`record` or :meth:`RequestBreaker.abandon_probe` each of
        them.  If the session breaker refuses after the tenant breaker
        granted its probe, the tenant probe is released here — otherwise
        the tenant would stay half-open with a phantom probe.
        """
        probes: list[RequestBreaker] = []
        if tenant_id is not None:
            tenant = self.tenant(tenant_id)
            if tenant.admit():
                probes.append(tenant)
        session = self.session(session_id)
        try:
            if session.admit():
                probes.append(session)
        except RejectedError:
            for breaker in probes:
                breaker.abandon_probe()
            raise
        return probes

    def record(self, session_id: str, tenant_id: Optional[str],
               ok: bool, kind: str = "failure") -> None:
        session = self.session(session_id)
        tenant = self.tenant(tenant_id) if tenant_id is not None else None
        if ok:
            session.record_success()
            if tenant is not None:
                tenant.record_success()
        else:
            session.record_failure(kind)
            if tenant is not None:
                tenant.record_failure(kind)

    def drop_session(self, session_id: str) -> None:
        with self._lock:
            self.sessions.pop(session_id, None)

    def snapshot(self) -> dict:
        with self._lock:
            sessions = list(self.sessions.values())
            tenants = list(self.tenants.values())
        return {
            "sessions": {b.scope: b.snapshot() for b in sessions},
            "tenants": {b.scope: b.snapshot() for b in tenants},
        }
