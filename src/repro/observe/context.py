"""Request-scoped trace context, propagated via :mod:`contextvars`.

Every span and instant event the tracer records is stamped with the
:class:`TraceContext` active at emission time, so a production trace can
be sliced back into per-request timelines — *which* request compiled,
hit the artifact cache, tripped a guard, or got demoted, not just that
somebody did.

The context is minted once per request at the server's front door
(:meth:`repro.server.core.EngineServer.submit`), carried over the
newline-JSON protocol (clients may supply their own ``trace`` id to join
a distributed trace; the ``request`` id is always server-minted), and
active on the connection thread that evaluates the request — so the
evaluator/VM/pipeline spans it emits land under the owning request
automatically.  Work handed to another thread carries it by running in a
``contextvars.copy_context()``.

Hot-path contract: instrumentation reads one ``ContextVar`` per record
*creation* (never on the disabled path — the ``TRACER`` guard in
:mod:`repro.observe.trace` short-circuits first), which is a single
dict-free lookup on the current context object.
"""

from __future__ import annotations

import itertools
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True)
class TraceContext:
    """Identity of one request as the telemetry plane sees it.

    ``trace_id`` groups causally related requests (a client may thread its
    own through the protocol); ``request_id`` names exactly one
    ``submit`` call and is the key per-request timelines are
    reconstructed under.  ``sampled`` is the head-sampling decision made
    at mint time — the flight recorder retains unsampled requests only
    when they turn out to be *interesting* (slow, failed, shed, retried,
    or demoted).
    """

    trace_id: str
    request_id: str
    session: str = ""
    tenant: str = ""
    sampled: bool = True


#: the active request context; ``None`` outside any request scope
CURRENT: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_trace_context", default=None
)

#: process-wide request sequence — request ids stay unique and ordered
#: within one server process; the trace id carries cross-process identity
_SEQUENCE = itertools.count(1)


def current_context() -> Optional[TraceContext]:
    """The request context active on this thread/task, or ``None``."""
    return CURRENT.get()


def mint_context(
    session: str = "",
    tenant: str = "",
    trace_id: Optional[str] = None,
    sampled: bool = True,
) -> TraceContext:
    """Mint the context for one request (server-side, one per submit)."""
    sequence = next(_SEQUENCE)
    request_id = f"req-{sequence:08d}"
    if not trace_id:
        trace_id = f"tr-{uuid.uuid4().hex[:12]}"
    return TraceContext(
        trace_id=trace_id,
        request_id=request_id,
        session=session,
        tenant=tenant,
        sampled=sampled,
    )


@contextmanager
def activate(context: Optional[TraceContext]) -> Iterator[
        Optional[TraceContext]]:
    """Make ``context`` current for the block (and restore on exit)."""
    token = CURRENT.set(context)
    try:
        yield context
    finally:
        CURRENT.reset(token)
