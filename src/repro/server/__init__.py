"""``repro.server`` — the resilient multi-session engine front-end.

A threaded server over the synchronous engine, each request evaluated on
the thread of the connection that sent it: a shared warmed
:class:`BaseImage` with per-session copy-on-write overlays, bounded-queue
admission control with load shedding, per-session and per-tenant circuit
breakers, retry-with-jitter for transient failures, and graceful
degradation (tier demotion, overlay eviction) under memory pressure.
See DESIGN.md §10.
"""

from repro.server.admission import AdmissionController, RequestBudget
from repro.server.base import BaseImage, BaseImageError
from repro.server.breakers import BreakerBoard, RequestBreaker
from repro.server.chaos import ChaosReport, ChaosSpec, run_chaos, unleash
from repro.server.core import EngineServer, Response, ServerConfig
from repro.server.degrade import (
    BUDGET_SCALE,
    TIER_CAPS,
    DegradationManager,
    PressureLevel,
)
from repro.server.loadgen import LoadReport, LoadSpec, generate, run_load
from repro.server.retry import DEFAULT_TRANSIENT_KINDS, RetryPolicy
from repro.server.session import Outcome, Session, SessionState, SessionStats

__all__ = [
    "AdmissionController",
    "BaseImage",
    "BaseImageError",
    "BreakerBoard",
    "BUDGET_SCALE",
    "ChaosReport",
    "ChaosSpec",
    "DEFAULT_TRANSIENT_KINDS",
    "DegradationManager",
    "EngineServer",
    "LoadReport",
    "LoadSpec",
    "Outcome",
    "PressureLevel",
    "RequestBreaker",
    "RequestBudget",
    "Response",
    "RetryPolicy",
    "ServerConfig",
    "Session",
    "SessionState",
    "SessionStats",
    "TIER_CAPS",
    "generate",
    "run_chaos",
    "run_load",
    "unleash",
]
