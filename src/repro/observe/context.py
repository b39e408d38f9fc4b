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
import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, NamedTuple, Optional


class TraceContext(NamedTuple):
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



def _draw_trace_prefix() -> None:
    """Once per process (a forked child draws its own): a minted trace id
    is this prefix plus the request's sequence number, unique across
    processes without a random draw per request."""
    global _TRACE_PREFIX
    _TRACE_PREFIX = os.urandom(4).hex()


_draw_trace_prefix()
os.register_at_fork(after_in_child=_draw_trace_prefix)


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
    return TraceContext(
        trace_id or f"tr-{_TRACE_PREFIX}{sequence:08x}",
        f"req-{sequence:08d}", session, tenant, sampled,
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
