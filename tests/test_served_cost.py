"""A served request costs its evaluation plus a small constant — by count.

Calls are counted with ``sys.setprofile``: every Python-level call and
every call of a C function (``c_call``), like
``tests/test_evaluator_fastpath.py`` but with the C calls in, since the
request path's bookkeeping is as much ``dict.get`` and lock exits as it is
Python frames.  Counts are deterministic, so these pins are immune to the
timing noise of a served benchmark.  The numbers in the comments are the
counts before the armed step became a countdown and the request path did
its bookkeeping in one pass (CPython 3.11; the pins are upper bounds).

The two pins split one served request in two:

* **the harness** — everything ``EngineServer.submit`` does outside
  ``Evaluator.evaluate_protected``: decode, breakers, admission, the
  session lock, the guard, telemetry, the response;
* **the armed evaluation** — ``evaluate_protected`` itself, under the
  default ``RequestBudget`` guard with the flight recorder tracing,
  against the same line in a bare session (no guard, no tracer) that
  has run the same traffic.  Arming an evaluation has a fixed cost — its
  ``eval.evaluate`` span, the settle of the first poll under the new
  guard, the fold of its ``eval.*`` counters — which a one-step
  evaluation measures; past that, and past the one call each poll of
  generated code makes into the shared slow path (the emitted
  ``if _armed[0]: _check_abort()`` stencil is untouched), the armed
  evaluation makes at most 1.15x the calls of the bare one.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.engine.evaluator import Evaluator
from repro.mexpr import parse
from repro.observe import trace as _trace
from repro.runtime import guard as _guard
from repro.server import BaseImage, EngineServer
from repro.server.admission import RequestBudget
from repro.server.core import ServerConfig

#: one line of each ``server_mix`` request kind (``bench/programs/
#: traffic.py``), and the definitions every session starts with
KINDS = {
    "define": "f3[x_] := x + 3",
    "call": "f0[5]",
    "table": "Total[Table[i + 3, {i, 40}]]",
    "map": "Map[Function[x, x*x + 3], Range[12]]",
    "fold": "Fold[Plus, 3, Range[25]]",
    "string": 'StringJoin["client", "-", "3"]',
    "tierup": "hot[28] + 3",
}
PRELUDE = [f"f{j}[x_] := x + {j}" for j in range(8)] + [
    "hot[0] = 0", "hot[n_] := n*n + hot[n-1]",
]
#: a one-step evaluation: what arming an evaluation costs by itself
TRIVIAL = "Hold[0]"
WARM_PASSES = 20

_EVALUATE_PROTECTED = Evaluator.evaluate_protected.__code__
_CHECKPOINT = _guard.checkpoint.__code__


class _Count:
    """Calls made while profiling, split at ``evaluate_protected``."""

    def __init__(self):
        self.inside = 0
        self.outside = 0
        #: polls of generated code that reached the slow path
        self.compiled_polls = 0
        self._depth = 0

    def __call__(self, frame, event, _argument):
        if event == "call":
            code = frame.f_code
            if code is _EVALUATE_PROTECTED:
                self._depth += 1
            elif code is _CHECKPOINT and frame.f_back.f_code.co_filename \
                    .startswith("<wolfram-compiled"):
                self.compiled_polls += 1
        elif event == "return":
            if frame.f_code is _EVALUATE_PROTECTED:
                self._depth -= 1
            return
        elif event != "c_call":
            return
        if self._depth:
            self.inside += 1
        else:
            self.outside += 1


def _count(function) -> _Count:
    """Count ``function()``'s calls; the collector is held off so that no
    finalizer of earlier garbage runs inside the count."""
    counter = _Count()
    gc.collect()
    gc.disable()
    sys.setprofile(counter)
    try:
        function()
    finally:
        sys.setprofile(None)
        gc.enable()
    counter.outside -= 1  # the c_call that turned the profiler off
    return counter


def _traced_by(tracer, function):
    """``function()`` with ``tracer`` (or nothing) as the process tracer."""
    saved = _trace.TRACER
    _trace.TRACER = tracer
    try:
        return function()
    finally:
        _trace.TRACER = saved


@pytest.fixture(scope="module")
def served():
    """A served session that has run the prelude and the whole mix; its
    always-on flight recorder traces whatever the tests run through it."""
    server = EngineServer(ServerConfig(telemetry=True))
    flight = server.flight
    server.close()  # the tests install the recorder where they count

    def warm():
        for line in PRELUDE:
            assert server.submit(line, session_id="s").ok
        for _ in range(WARM_PASSES):
            for line in KINDS.values():
                assert server.submit(line, session_id="s").ok, line

    _traced_by(flight, warm)
    return server


@pytest.fixture(scope="module")
def bare(served):
    """The same kind of session and traffic, never guarded or traced."""
    evaluator = served.base_image.create_evaluator()

    def warm():
        for line in PRELUDE:
            evaluator.run(line)
        for _ in range(WARM_PASSES):
            for line in KINDS.values():
                evaluator.run(line)

    _traced_by(None, warm)
    return evaluator


def _bare_calls(evaluator, line: str) -> int:
    expression = parse(line)
    return _traced_by(None, lambda: _count(
        lambda: evaluator.evaluate_protected(expression)
    )).inside


def _armed_calls(server, line: str) -> _Count:
    expression = parse(line)
    evaluator = server.sessions["s"].evaluator
    guard = _guard.push_guard(RequestBudget().make_guard(label="session:s"))
    try:
        return _traced_by(server.flight, lambda: _count(
            lambda: evaluator.evaluate_protected(expression)
        ))
    finally:
        _guard.pop_guard(guard)


def test_a_served_call_costs_its_evaluation_plus_a_constant(served):
    def served_once():
        served.submit("f0[5]", session_id="s")
        return _count(lambda: served.submit("f0[5]", session_id="s"))

    counted = _traced_by(served.flight, served_once)
    # 288 (142 Python, 146 C) before; 162 while each request also bumped
    # the registry's server.* counters, 158 once they are read from the
    # request ledger
    assert counted.outside <= 158, counted.outside


def test_arming_an_evaluation_has_a_small_fixed_cost(served, bare):
    armed = _armed_calls(served, TRIVIAL).inside
    # 47 before: the span's generator context manager, a check and a
    # clock read per poll, a counter call per fixed-point trip
    assert armed - _bare_calls(bare, TRIVIAL) <= 24


@pytest.mark.parametrize("kind", list(KINDS))
def test_armed_evaluation_costs_at_most_115_percent(served, bare, kind):
    line = KINDS[kind]
    fixed = _armed_calls(served, TRIVIAL).inside - _bare_calls(bare, TRIVIAL)
    bare_calls = _bare_calls(bare, line)
    armed = _armed_calls(served, line)
    per_step = armed.inside - fixed - armed.compiled_polls
    # table 2,866 armed against 1,453 bare before (1.97x)
    assert per_step <= 1.15 * bare_calls, (
        f"{kind}: {armed.inside} armed ({fixed} fixed, "
        f"{armed.compiled_polls} compiled polls) against {bare_calls} bare"
    )


def test_a_compiled_poll_is_one_call(served):
    """Generated code polls through the shared slow path: one call each,
    the settle included once a quantum (a check and a clock read per
    poll before)."""
    armed = _armed_calls(served, KINDS["tierup"])
    assert armed.compiled_polls >= 28
    assert armed.inside - _armed_calls(served, "hot[0] + 3").inside \
        <= 2 * armed.compiled_polls + 2


def test_the_pressure_step_does_not_walk_idle_sessions():
    """A served ``1+1`` costs the same with 1 session as with 1,000 idle
    ones: caps move on a level change, the pressure reading is a running
    total."""
    config = ServerConfig(max_sessions=2048, compile_support=False,
                          telemetry=False)
    server = EngineServer(config, base_image=BaseImage())
    try:
        def served_once() -> int:
            server.submit("1+1", session_id="s")
            counted = _count(lambda: server.submit("1+1", session_id="s"))
            return counted.inside + counted.outside

        alone = served_once()
        for index in range(1000):
            assert server.submit("1", session_id=f"idle{index}").ok
        assert len(server.sessions) == 1001
        assert served_once() == alone
    finally:
        server.close()
