"""One tenant session: an isolated evaluator plus its health bookkeeping.

A session owns a copy-on-write overlay over the server's shared
:class:`~repro.server.base.BaseImage`, so its definitions are private by
construction; everything else here is the robustness envelope — request
execution under an :class:`~repro.runtime.guard.ExecutionGuard`, outcome
classification, a private bounded failure log, and the degradation lever
(:meth:`apply_tier_cap`) the memory-pressure manager pulls.

``execute`` runs on the connection thread that read the request (the
engine is synchronous); the server serializes each session's requests
with a per-session lock, so a session never races itself — the remaining
shared state (breakers, hotspot tables, the global failure log) is
lock-protected in its own modules.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro import observe as _observe
from repro.engine.evaluator import Evaluator
from repro.errors import (
    GUARD_EXCEPTIONS,
    ReproError,
    WolframRuntimeError,
)
from repro.mexpr import full_form, parse
from repro.runtime.guard import FailureLog, Tier, guard_scope
from repro.server.admission import RequestBudget

#: per-session failure logs stay small: the server aggregates many of them
SESSION_LOG_CAPACITY = 128


class SessionState(Enum):
    IDLE = "idle"
    RUNNING = "running"
    EVICTED = "evicted"
    #: an exception escaped every handler — must never happen; tracked so
    #: the chaos suite can assert exactly that
    CRASHED = "crashed"


@dataclass
class Outcome:
    """What one request did, as the server core consumes it."""

    ok: bool
    value: Optional[str] = None          # FullForm of the result
    error_kind: Optional[str] = None
    error_message: Optional[str] = None
    aborted: bool = False
    #: transient soft failure, eligible for retry
    transient: bool = False


@dataclass
class SessionStats:
    requests: int = 0
    ok: int = 0
    soft_failures: int = 0
    rejected: int = 0
    retries: int = 0
    aborted: int = 0
    failure_kinds: dict = field(default_factory=dict)

    def record_kind(self, kind: str) -> None:
        self.failure_kinds[kind] = self.failure_kinds.get(kind, 0) + 1


class Session:
    """One tenant's isolated engine session inside the server."""

    def __init__(
        self,
        session_id: str,
        tenant: Optional[str],
        evaluator: Evaluator,
    ):
        self.id = session_id
        self.tenant = tenant
        self.evaluator = evaluator
        self.state = SessionState.IDLE
        self.tier_cap = Tier.COMPILED
        self.created = time.monotonic()
        self.last_active = self.created
        self.stats = SessionStats()
        #: private bounded log: per-session breaker/failure tables in the
        #: stats dump come from here, not the process-wide ring
        self.failure_log = FailureLog(capacity=SESSION_LOG_CAPACITY)
        #: high-water mark of guard-charged memory across requests
        self.peak_memory_charged = 0

    # -- execution (the request's thread) -----------------------------------

    def execute(self, source: str, budget: RequestBudget) -> Outcome:
        """Parse and evaluate one request under its admission budget.

        Never lets an exception escape: every failure — syntax, guard
        expiry, soft runtime failure, recursion blowup — classifies into a
        structured :class:`Outcome`, because §2.3's "sessions cannot
        crash" is the server's core invariant.
        """
        self.state = SessionState.RUNNING
        self.stats.requests += 1
        guard = budget.make_guard(label=f"session:{self.id}")
        with _observe.span("session.execute", "server", session=self.id,
                           tier_cap=self.tier_cap.value):
            return self._execute_guarded(source, guard)

    def _execute_guarded(self, source: str, guard) -> Outcome:
        try:
            expression = parse(source)
            with guard_scope(guard):
                value = self.evaluator.evaluate_protected(expression)
            self.peak_memory_charged = max(
                self.peak_memory_charged, guard.memory_used
            )
            rendered = full_form(value)
            if rendered == "$Aborted":
                self.stats.aborted += 1
                return Outcome(ok=False, aborted=True, error_kind="Aborted",
                               error_message="evaluation aborted")
            self.stats.ok += 1
            return Outcome(ok=True, value=rendered)
        except GUARD_EXCEPTIONS as error:
            return self._soft_failure(error.kind, str(error), transient=False)
        except WolframRuntimeError as error:
            return self._soft_failure(error.kind, str(error), transient=True)
        except ReproError as error:
            return self._soft_failure(type(error).__name__, str(error),
                                      transient=False)
        except Exception as error:  # pragma: no cover - must never happen
            self.state = SessionState.CRASHED
            return Outcome(ok=False, error_kind="Crash",
                           error_message=f"{type(error).__name__}: {error}")
        finally:
            if self.state is not SessionState.CRASHED:
                self.state = SessionState.IDLE
            self.last_active = time.monotonic()
            # a request must not leak abort state into the next one
            self.evaluator.clear_abort()

    def _soft_failure(self, kind: str, message: str,
                      transient: bool) -> Outcome:
        self.stats.soft_failures += 1
        self.stats.record_kind(kind)
        self.failure_log.record(
            f"session:{self.id}", self.tier_cap, kind, message
        )
        return Outcome(ok=False, error_kind=kind, error_message=message,
                       transient=transient)

    # -- degradation levers -------------------------------------------------

    def apply_tier_cap(self, cap: Tier, reason: str = "degradation") -> int:
        """Demote this session's execution tier; returns withdrawn count."""
        if cap is self.tier_cap:
            return 0
        self.tier_cap = cap
        hotspot = getattr(self.evaluator, "hotspot", None)
        if hotspot is None:
            return 0
        return hotspot.demote_all(cap, reason=reason)

    def idle_seconds(self, now: Optional[float] = None) -> float:
        return (now if now is not None else time.monotonic()) - self.last_active

    def memory_estimate(self) -> int:
        """A deterministic session-footprint proxy for the pressure probe:
        overlay entries dominate long-lived footprint, the guard high-water
        mark captures transient evaluation spikes."""
        overlay = self.evaluator.state.overlay_size()
        return overlay * 1024 + self.peak_memory_charged

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> dict:
        hotspot = getattr(self.evaluator, "hotspot", None)
        return {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state.value,
            "tier_cap": self.tier_cap.value,
            "requests": self.stats.requests,
            "ok": self.stats.ok,
            "soft_failures": self.stats.soft_failures,
            "rejected": self.stats.rejected,
            "retries": self.stats.retries,
            "aborted": self.stats.aborted,
            "failure_kinds": dict(self.stats.failure_kinds),
            "overlay_definitions": self.evaluator.state.overlay_size(),
            "memory_estimate": self.memory_estimate(),
            "idle_seconds": self.idle_seconds(),
            "promoted_functions": (
                sorted(hotspot.promoted) if hotspot is not None else []
            ),
            "failures": [
                {
                    "sequence": record.sequence,
                    "function": record.function,
                    "tier": record.tier.value,
                    "kind": record.kind,
                    "message": record.message,
                }
                for record in self.failure_log.records()
            ],
        }
