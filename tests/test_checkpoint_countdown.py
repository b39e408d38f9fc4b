"""The checkpoint countdown is exact (DESIGN §5, ``repro.runtime.guard``).

A poll takes one step from its thread's grant and only the poll that
spends the grant settles it on the guard chain.  The reference is how
every checkpoint ran before the countdown: a grant of a single poll (a
quantum of one), settled by a frozen copy of the per-poll chain walk
(:func:`_per_poll_check`), so every poll is charged and checked on its
own.  These properties run random step budgets, nested guard scopes
pushed and popped mid-run, and interpreted or compiled loop bodies under
both, and require the same trip on the same poll and the same
``steps_used`` on every guard.  Deadlines and aborts are checked against
the poll count directly.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import FunctionCompile, install_engine_support
from repro.engine import Evaluator
from repro.errors import WolframAbort, WolframBudgetError, WolframTimeoutError
from repro.mexpr import parse
from repro.runtime import guard as _guard
from repro.runtime.guard import (
    CHECKPOINT,
    QUANTUM,
    AbortFlag,
    ExecutionGuard,
    checkpoint,
    guard_scope,
)

_SESSION = Evaluator()
install_engine_support(_SESSION)
_LOOP = FunctionCompile(
    'Function[{Typed[n, "MachineInteger"]}, '
    "Module[{i = 0}, While[i < n, i = i + 1]; i]]",
    evaluator=_SESSION,
)


def _interpreted(n: int) -> None:
    _SESSION.evaluate(parse(f"Module[{{i = 0}}, While[i < {n}, i = i + 1]]"))


def _compiled(n: int) -> None:
    _LOOP(n)


BODIES = {"interpreted": _interpreted, "compiled": _compiled}

budgets = st.one_of(st.none(), st.integers(min_value=0, max_value=700))
runs = st.integers(min_value=0, max_value=60)


def _scenario(body, outer_budget, inner_budget, before, inside, after):
    """Polls under an outer guard, then under an inner one as well, then
    under the outer one again; what tripped and what each guard was
    charged."""
    outer = ExecutionGuard(step_budget=outer_budget, label="outer")
    inner = ExecutionGuard(step_budget=inner_budget, label="inner")
    tripped = None
    try:
        with guard_scope(outer):
            body(before)
            with guard_scope(inner):
                body(inside)
            body(after)
    except WolframBudgetError as error:
        tripped = error.guard.label
    return tripped, outer.steps_used, inner.steps_used


def _per_poll_check(self, steps=1):
    """The checkpoint's chain walk before the countdown (frozen): charge
    the poll innermost-out and raise at the first guard it trips."""
    guard = self
    now = None
    while guard is not None:
        if steps:
            guard.steps_used += steps
            if (
                guard.step_budget is not None
                and guard.steps_used > guard.step_budget
            ):
                raise WolframBudgetError(
                    "steps",
                    f"evaluation-step budget of {guard.step_budget} "
                    "exhausted",
                    guard=guard,
                )
        if guard.deadline is not None:
            if now is None:
                now = time.monotonic()
            if now > guard.deadline:
                raise WolframTimeoutError(guard=guard)
        guard = guard.parent
    return 1  # the next grant: one poll


def _per_poll(monkeypatch, function):
    """``function()`` polled the way it was before the countdown."""
    with monkeypatch.context() as patch:
        patch.setattr(_guard, "QUANTUM", 1)
        patch.setattr(ExecutionGuard, "check", _per_poll_check)
        return function()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(BODIES)), outer_budget=budgets,
       inner_budget=budgets, before=runs, inside=runs, after=runs)
def test_the_countdown_charges_and_trips_like_a_per_poll_count(
        monkeypatch, kind, outer_budget, inner_budget, before, inside, after):
    body = BODIES[kind]

    def scenario():
        return _scenario(body, outer_budget, inner_budget,
                         before, inside, after)

    expected = _per_poll(monkeypatch, scenario)
    assert scenario() == expected
    assert _guard.active_guard() is None
    assert CHECKPOINT[0] == 0


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(BODIES)), n=st.integers(0, 400))
def test_steps_used_is_the_number_of_polls(monkeypatch, kind, n):
    def polls():
        with guard_scope() as guard:
            BODIES[kind](n)
        return guard.steps_used

    reference = _per_poll(monkeypatch, polls)
    assert polls() == reference
    assert reference >= n  # at least one poll per loop iteration


@settings(max_examples=40, deadline=None)
@given(before=st.integers(0, 3 * QUANTUM))
def test_an_expired_deadline_is_seen_within_one_quantum(before):
    with guard_scope(time_limit=60.0) as guard:
        for _ in range(before):
            checkpoint()
        guard.deadline = time.monotonic() - 1.0
        polls = 0
        with pytest.raises(WolframTimeoutError) as info:
            for _ in range(QUANTUM + 1):
                polls += 1
                checkpoint()
        assert info.value.guard is guard
    assert 1 <= polls <= QUANTUM
    assert guard.steps_used == before + polls


def test_a_deadline_is_read_on_the_first_poll_under_a_new_guard():
    with guard_scope(time_limit=60.0):
        for _ in range(QUANTUM // 2):
            checkpoint()
        inner = ExecutionGuard(deadline=time.monotonic() - 1.0)
        with guard_scope(inner):
            with pytest.raises(WolframTimeoutError) as info:
                checkpoint()
        assert info.value.guard is inner


@settings(max_examples=40, deadline=None)
@given(before=st.integers(0, 3 * QUANTUM))
def test_a_pending_abort_is_seen_at_the_next_poll(before):
    flag = AbortFlag()
    with guard_scope(step_budget=10 ** 9) as guard:
        for _ in range(before):
            checkpoint(flag)
        flag.set(True)
        try:
            with pytest.raises(WolframAbort):
                checkpoint(flag)
        finally:
            flag.set(False)
    # the aborted poll is not charged, as before the countdown
    assert guard.steps_used == before


@pytest.mark.parametrize("kind", sorted(BODIES))
def test_an_abort_stops_an_armed_loop_at_its_next_poll(kind):
    with guard_scope(step_budget=10 ** 9):
        _SESSION.request_abort()
        try:
            with pytest.raises(WolframAbort):
                BODIES[kind](10 ** 9)
        finally:
            _SESSION.clear_abort()
    assert CHECKPOINT[0] == 0


def test_memory_charges_trip_on_the_same_charge():
    """Memory grants are capped by every budget's headroom: the charge
    that overdraws a budget trips it, and the guards outside it are not
    charged for it."""
    outer = ExecutionGuard(memory_budget=1000, label="outer")
    inner = ExecutionGuard(memory_budget=300, label="inner")
    with guard_scope(outer):
        _guard.charge_memory(100)
        with guard_scope(inner):
            _guard.charge_memory(200)
            _guard.charge_memory(100)
            with pytest.raises(WolframBudgetError) as info:
                _guard.charge_memory(1)
            assert info.value.guard is inner
        _guard.charge_memory(600)
        with pytest.raises(WolframBudgetError) as info:
            _guard.charge_memory(1)
        assert info.value.guard is outer
    assert inner.memory_used == 301
    assert outer.memory_used == 100 + 300 + 600 + 1
