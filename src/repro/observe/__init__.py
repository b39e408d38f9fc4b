"""``repro.observe`` — the unified observability layer.

One structured-event tracing and metrics surface threaded through all
three execution tiers and the compiler pipeline (see DESIGN.md §7 for the
full taxonomy and how spans map onto the paper's Figure 1/2 measurements):

==============================  =================================================
event / metric                  emitted by
==============================  =================================================
``eval.evaluate`` (span)        top-level ``Evaluator.evaluate_protected``
``eval.fixed_point_iterations`` the evaluator's fixed-point loop (counter)
``eval.rule_applications``      each DownValue rule firing (counter)
``eval.dispatch_index.hits``    literal-discriminated dispatch lookups (counter)
``eval.dispatch_index.misses``  dispatch lookups that fell to the scan (counter)
``vm.run`` (span)               one WVM invocation, with instruction count
``vm.instructions``             WVM instructions dispatched (counter)
``vm.dispatches``               WVM invocations (counter)
``pipeline.pass`` (spans)       ``CompilerPipeline._timed`` — one span per pass,
                                named ``pass:<name>``, with IR node-count deltas
``pipeline.pass.<name>``        per-pass wall time (histogram, seconds)
``analysis.checks_elided.int64``  overflow guards deleted by dataflow facts
                                (counter); ``.bounds`` for Part bounds
                                checks, ``.checkpoints`` for coalesced
                                loop abort checkpoints alongside
``hotspot.promote`` (span)      one promotion attempt
``tier.promote``                successful promotion (instant, ``symbol=``)
``tier.demote``                 breaker demotion / promotion withdrawal
                                (instant, ``symbol=``, ``from=``, ``to=``)
``tier.invalidate``             promotion dropped on redefinition (instant)
``tier.blocked``                definition failed the promotion gate (instant)
``guard.trip``                  deadline/step/memory budget expiry (instant)
``artifact.cache`` (span)       one persistent-cache lookup or store
                                (``op=`` get/put, ``key=`` digest prefix)
``artifact.cache.hits``         persistent-cache outcomes (counters);
                                ``.misses``, ``.stores``, ``.evictions``,
                                ``.corrupt``, ``.unstorable`` (an artifact
                                with no wire form, recompiled every time)
                                alongside
``server.request`` (span)       one engine-server request, ``session=``,
                                ``tenant=``
``server.requests``             requests received (counter); ``server.ok``,
                                ``server.failures``, ``server.retries``,
                                ``server.shed``, ``server.admitted`` alongside
``server.queue_depth``          admission queue depth at each enqueue
                                (histogram)
``server.retry``                one backoff retry (instant, ``attempt=``,
                                ``delay=``)
``server.breaker``              request-breaker transition (instant,
                                ``scope=``, ``from=``, ``to=``)
``server.pressure``             memory-pressure level change (instant,
                                ``from=``, ``to=``, ``used_bytes=``)
``server.session``              session lifecycle (instant, ``action=``
                                created/evicted)
``server.admit``                admission slot granted (instant,
                                ``queue_depth=``)
``server.shed``                 request rejected/shed (instant,
                                ``reason=``)
``server.latency_seconds``      end-to-end request latency (quantile
                                histogram: p50/p95/p99)
``session.execute``             one request's evaluation, on its
                                connection's thread (span, ``session=``,
                                ``tier_cap=``)
``compile.function``            one ``FunctionCompile`` call (span,
                                ``cache=`` hit/miss/off)
``hotspot.promotions.<tier>``   promotions by landing tier (counters)
==============================  =================================================

Every record is stamped with the active request context
(:mod:`repro.observe.context`) when one is set, so the server's flight
recorder (:mod:`repro.observe.flight`) can reconstruct the full
per-request timeline — ``{"op": "trace", "request": "req-..."}`` on the
serve protocol, or ``python -m repro top`` for the live overview.

Usage::

    from repro.observe import with_tracing

    with with_tracing() as tracer:
        session.run("fib[19]")
    tracer.write_chrome_trace("out.json")      # chrome://tracing / Perfetto
    print(tracer.metrics.to_json())            # counters + histograms

or process-wide from the CLI: ``python -m repro --trace out.json --metrics``.

When tracing is disabled — the default — every instrumentation site costs
one module-attribute load and a ``None`` test; no event objects, clock
reads, or metric updates happen at all.
"""

from repro.observe.context import (
    TraceContext,
    activate,
    current_context,
    mint_context,
)
from repro.observe.flight import FlightRecorder, telemetry_enabled
from repro.observe.metrics import Histogram, MetricsRegistry
from repro.observe.trace import (
    SpanRecord,
    Tracer,
    active_tracer,
    disable_tracing,
    enable_tracing,
    with_tracing,
)
from repro.observe import trace as _trace
from contextlib import contextmanager

__all__ = [
    "FlightRecorder", "Histogram", "MetricsRegistry", "SpanRecord",
    "TraceContext", "Tracer", "activate", "active_tracer",
    "current_context", "disable_tracing", "enable_tracing",
    "mint_context", "telemetry_enabled", "with_tracing",
    "event", "span", "count",
]


def event(name: str, category: str = "repro", **args) -> None:
    """Record an instant event on the active tracer; noop when disabled.

    Convenience wrapper for cold sites (promotion, breaker transitions);
    hot loops should cache ``trace.TRACER`` in a local instead.
    """
    tracer = _trace.TRACER
    if tracer is not None:
        tracer.event(name, category, **args)


@contextmanager
def span(name: str, category: str = "repro", **args):
    """Span the block on the active tracer; a plain passthrough when off."""
    tracer = _trace.TRACER
    if tracer is None:
        yield None
    else:
        with tracer.span(name, category, **args) as record:
            yield record


def count(name: str, delta: int = 1) -> None:
    """Bump a counter on the active tracer's registry; noop when disabled."""
    tracer = _trace.TRACER
    if tracer is not None:
        tracer.metrics.count(name, delta)
