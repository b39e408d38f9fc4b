"""Graceful degradation under memory pressure.

A long-running multi-tenant engine cannot simply crash when memory runs
short — it sheds *quality* before it sheds *availability*:

=============  ==========================================================
pressure       response
=============  ==========================================================
``NORMAL``     full service: hotspot promotion up to the compiled tier
``ELEVATED``   sessions demote to the **interpreter** (compiled
               artifacts are withdrawn — generated code and its compile
               caches are the most memory-hungry tier, so pressure sheds
               them before it sheds a session), new admissions get
               proportionally tighter budgets
``CRITICAL``   as ``ELEVATED`` with tighter budgets still, and cold
               session overlays (idle past ``idle_ttl``) are evicted
               entirely, freeing their definitions
=============  ==========================================================

Pressure is read from an injectable probe (tests drive transitions
deterministically); the default probe is the sum of the sessions'
deterministic footprint estimates, which the server keeps as a running
total (each session updates its share after its own request), so a
control step is O(1) in the number of sessions.  Thresholds use
hysteresis — the level steps down only below ``ratio - hysteresis`` — so
the server doesn't flap between tiers at a boundary.  Every transition
emits a ``server.pressure`` event and caps every session; a session
created later takes the cap in force (:attr:`DegradationManager.cap`).
"""

from __future__ import annotations

import time
from enum import IntEnum
from typing import Callable, Iterable, Optional

from repro import observe as _observe
from repro.runtime.guard import Tier


class PressureLevel(IntEnum):
    NORMAL = 0
    ELEVATED = 1
    CRITICAL = 2


#: tier cap applied to every session at each pressure level
TIER_CAPS = {
    PressureLevel.NORMAL: Tier.COMPILED,
    PressureLevel.ELEVATED: Tier.INTERPRETER,
    PressureLevel.CRITICAL: Tier.INTERPRETER,
}

#: admission-budget scale factor at each pressure level
BUDGET_SCALE = {
    PressureLevel.NORMAL: 1.0,
    PressureLevel.ELEVATED: 0.5,
    PressureLevel.CRITICAL: 0.25,
}


class DegradationManager:
    """Maps a memory-pressure reading onto tier caps and overlay eviction."""

    def __init__(
        self,
        soft_limit_bytes: int = 256 * 1024 * 1024,
        hard_limit_bytes: int = 512 * 1024 * 1024,
        idle_ttl: float = 60.0,
        hysteresis: float = 0.1,
        memory_probe: Optional[Callable[[], int]] = None,
    ):
        self.soft_limit_bytes = soft_limit_bytes
        self.hard_limit_bytes = hard_limit_bytes
        self.idle_ttl = idle_ttl
        self.hysteresis = hysteresis
        self.memory_probe = memory_probe
        self.level = PressureLevel.NORMAL
        self.transitions = 0
        self.demotions = 0

    # -- the pressure reading -----------------------------------------------

    def pressure_bytes(self, sessions: Iterable,
                       footprint: Optional[int] = None) -> int:
        """The probe's reading; else ``footprint``, the caller's running
        total of the sessions' estimates; else that sum, walked."""
        if self.memory_probe is not None:
            return self.memory_probe()
        if footprint is not None:
            return footprint
        return sum(session.memory_estimate() for session in sessions)

    @property
    def cap(self) -> Tier:
        """The tier cap in force at the current level."""
        return TIER_CAPS[self.level]

    def _classify(self, used: int) -> PressureLevel:
        down = 1.0 - self.hysteresis
        if used >= self.hard_limit_bytes:
            return PressureLevel.CRITICAL
        if used >= self.soft_limit_bytes:
            # at CRITICAL, stay there until below hard_limit * down
            if (self.level is PressureLevel.CRITICAL
                    and used >= self.hard_limit_bytes * down):
                return PressureLevel.CRITICAL
            return PressureLevel.ELEVATED
        if (self.level >= PressureLevel.ELEVATED
                and used >= self.soft_limit_bytes * down):
            return self.level if self.level is PressureLevel.ELEVATED \
                else PressureLevel.ELEVATED
        return PressureLevel.NORMAL

    # -- the control action -------------------------------------------------

    def evaluate(self, sessions: dict, now: Optional[float] = None,
                 footprint: Optional[int] = None) -> dict:
        """One control step: read pressure; on a level change cap every
        session; at CRITICAL, pick the cold overlays to evict.

        ``sessions`` is the server's live ``id -> Session`` dict, and
        ``footprint`` its running total of their estimates (see
        :meth:`pressure_bytes`); the cold ids are *proposed* (returned
        with their sessions) rather than deleted here: the server core
        keeps the requester and any busy session, and counts only the
        evictions it applies.
        """
        used = self.pressure_bytes(sessions.values(), footprint)
        level = self._classify(used)
        changed = level is not self.level
        if changed:
            previous, self.level = self.level, level
            self.transitions += 1
            _observe.event(
                "server.pressure", "server", used_bytes=used,
                **{"from": previous.name, "to": level.name},
            )
            cap = TIER_CAPS[level]
            for session in sessions.values():
                self.demotions += session.apply_tier_cap(
                    cap, reason=f"memory pressure {level.name}"
                )
        evicted = {}
        if level is PressureLevel.CRITICAL:
            if now is None:
                now = time.monotonic()
            for session_id, session in list(sessions.items()):
                if session.idle_seconds(now) >= self.idle_ttl:
                    evicted[session_id] = session
        return {
            "level": level,
            "used_bytes": used,
            "changed": changed,
            "budget_scale": BUDGET_SCALE[level],
            "evict": evicted,
        }

    def snapshot(self) -> dict:
        return {
            "level": self.level.name,
            "soft_limit_bytes": self.soft_limit_bytes,
            "hard_limit_bytes": self.hard_limit_bytes,
            "transitions": self.transitions,
            "demotions": self.demotions,
        }
