"""Guarded execution: resource budgets, deadlines, and tier governance.

The paper's robustness story (§2.3, §4.5) rests on two mechanisms: soft
runtime failure with interpreter fallback (F2) and user-initiated aborts
(F3).  This module generalises both into an *execution guard* that every
tier — the tree-walking interpreter, the bytecode VM, and compiled code —
polls at its existing abort checkpoints:

* :class:`ExecutionGuard` carries a wall-clock **deadline**, an
  **evaluation-step budget**, and a **memory budget**.  Guards nest
  (``TimeConstrained`` inside ``TimeConstrained``); a checkpoint walks the
  chain innermost-out so the tightest constraint fires first, and the
  raised error names the guard that expired so the right handler catches it.
* Deadline expiry raises :class:`~repro.errors.WolframTimeoutError` and
  budget exhaustion :class:`~repro.errors.WolframBudgetError` — both
  subclasses of :class:`~repro.errors.WolframRuntimeError`, so the existing
  soft-failure channel unwinds them cleanly without corrupting session
  state.
* Every callable artifact is a **two-state machine**: its native tier
  (compiled, template, or the legacy ``Compile`` VM) or the interpreter —
  the paper's contract (F2) is that compiled code which fails softly
  reverts to the interpreter, nothing in between.  :class:`CircuitBreaker`
  holds the state: after ``threshold`` soft failures the function stops
  re-attempting its native tier.  :class:`GovernedFunction` is the one
  definition of the call protocol around it; an artifact supplies only its
  native runner, boundary conversion, soft-exception set and warning text.
  Every failure and the one possible transition are recorded as
  :class:`FailureRecord` rows in the global :data:`FAILURE_LOG` — a
  bounded, thread-safe ring buffer (:data:`DEFAULT_FAILURE_LOG_MAX`, 1024
  records) queryable from ``repro.compiler.api``.

Guards are thread-local: the REPL evaluates on a worker thread and each
engine session polls only the guards its own thread entered.

The checkpoint protocol (§4.5, DESIGN §5) — one definition for every tier.
Each polling site (evaluator step, WVM backward jump, template and compiled
loop header/prologue, hosted or exported) is ``if CHECKPOINT[0]: <slow path>``
emitted inline:

* :data:`CHECKPOINT`, the **checkpoint word**, is non-zero iff some
  checkpoint could have work to do: a guard is installed on *any* thread
  (:func:`push_guard`), a host's abort is requested and not yet cleared
  (:class:`AbortFlag`; attaching an engine arms nothing), or a fault
  injector is armed.  It is a count, maintained under one lock.
* :func:`checkpoint`, the **slow path**, is the only definition of what a
  checkpoint does.  Tiers bind their host's abort flag into it with
  ``functools.partial`` — per artifact, so concurrent sessions never share
  or detach each other's.  Standalone-exported code binds none ("abortable
  code [is] disabled, since [it] depend[s] on the Wolfram Engine", §4.6);
  guard polling is pure wall clock / counters and keeps working.

Arming is process-wide: while any thread holds a guard or a pending abort,
*every* thread's checkpoints take the slow path — correct for them (it reads
their own guard stack and abort flag), merely not free.  Unarmed, a
checkpoint is a list subscript and a truth test.

Event vocabulary (emitted through :mod:`repro.observe` when tracing is
enabled; emission sits on the raise/transition paths only, so the per-step
checkpoint cost is unchanged):

``guard.trip``
    a constraint expired; args: ``kind`` ("deadline" | "steps" | "memory"),
    ``label`` (the guard's label, e.g. "TimeConstrained"), and the
    used/budget pair for budget kinds;
``tier.demote``
    a :class:`CircuitBreaker` tripped; args: ``symbol`` (the function the
    breaker is attributed to), ``from`` (its native tier), ``to``
    (always "interpreter"), and ``kind`` (the failure class that tripped
    it).  The same
    transition is always recorded as a :class:`FailureRecord` in
    :data:`FAILURE_LOG` whether or not tracing is on.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

from repro import observe as _observe
from repro.errors import (
    GUARD_EXCEPTIONS,
    SOFT_FAILURE_EXCEPTIONS,
    WolframAbort,
    WolframBudgetError,
    WolframRuntimeError,
    WolframTimeoutError,
    classify_runtime_error,
)
from repro.testing import faults as _faults


class _GuardStack(threading.local):
    #: class-level default: a thread that never installed a guard reads
    #: ``None`` by an attribute hit, not an AttributeError miss (~7x dearer)
    top: Optional["ExecutionGuard"] = None


_tls = _GuardStack()

#: the checkpoint word: ``CHECKPOINT[0]`` counts installed guards (all
#: threads), pending abort requests and armed fault injectors
CHECKPOINT = [0]
_word_lock = threading.Lock()


def arm(delta: int) -> None:
    """Add ``delta`` reasons for checkpoints to take the slow path."""
    with _word_lock:
        CHECKPOINT[0] += delta


class AbortFlag:
    """A host engine's abort request (F3); arms the word while pending."""

    __slots__ = ("pending",)

    def __init__(self) -> None:
        self.pending = False

    def set(self, pending: bool) -> None:
        with _word_lock:
            if self.pending != pending:
                self.pending = pending
                CHECKPOINT[0] += 1 if pending else -1

# -- the guard itself ------------------------------------------------------------------


class ExecutionGuard:
    """One nested scope of resource constraints.

    ``deadline`` is an absolute ``time.monotonic()`` instant; ``step_budget``
    counts evaluation steps / VM instructions charged through
    :func:`checkpoint`; ``memory_budget`` counts bytes charged through
    :func:`charge_memory` (packed/boxed tensor allocations and interpreter
    expression construction).
    """

    __slots__ = (
        "deadline", "step_budget", "memory_budget",
        "steps_used", "memory_used", "parent", "label",
    )

    def __init__(
        self,
        deadline: Optional[float] = None,
        step_budget: Optional[int] = None,
        memory_budget: Optional[int] = None,
        label: str = "",
    ):
        self.deadline = deadline
        self.step_budget = step_budget
        self.memory_budget = memory_budget
        self.steps_used = 0
        self.memory_used = 0
        self.parent: Optional[ExecutionGuard] = None
        self.label = label

    @classmethod
    def with_time_limit(cls, seconds: float, label: str = "") -> "ExecutionGuard":
        return cls(deadline=time.monotonic() + seconds, label=label)

    @classmethod
    def with_step_budget(cls, steps: int, label: str = "") -> "ExecutionGuard":
        return cls(step_budget=steps, label=label)

    @classmethod
    def with_memory_budget(cls, nbytes: int, label: str = "") -> "ExecutionGuard":
        return cls(memory_budget=nbytes, label=label)

    def remaining_time(self) -> Optional[float]:
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def check(self, steps: int = 1) -> None:
        """Charge ``steps`` against this guard and every enclosing one."""
        guard: Optional[ExecutionGuard] = self
        now: Optional[float] = None
        while guard is not None:
            if steps:
                guard.steps_used += steps
                if (
                    guard.step_budget is not None
                    and guard.steps_used > guard.step_budget
                ):
                    _observe.event(
                        "guard.trip", "guard", kind="steps",
                        label=guard.label, used=guard.steps_used,
                        budget=guard.step_budget,
                    )
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
                    _observe.event(
                        "guard.trip", "guard", kind="deadline",
                        label=guard.label,
                    )
                    raise WolframTimeoutError(guard=guard)
            guard = guard.parent

    def charge_memory(self, nbytes: int) -> None:
        guard: Optional[ExecutionGuard] = self
        while guard is not None:
            if guard.memory_budget is not None:
                guard.memory_used += nbytes
                if guard.memory_used > guard.memory_budget:
                    _observe.event(
                        "guard.trip", "guard", kind="memory",
                        label=guard.label, used=guard.memory_used,
                        budget=guard.memory_budget,
                    )
                    raise WolframBudgetError(
                        "memory",
                        f"memory budget of {guard.memory_budget} bytes "
                        "exhausted",
                        guard=guard,
                    )
            guard = guard.parent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline:.3f}")
        if self.step_budget is not None:
            parts.append(f"steps={self.steps_used}/{self.step_budget}")
        if self.memory_budget is not None:
            parts.append(f"memory={self.memory_used}/{self.memory_budget}")
        label = f" {self.label!r}" if self.label else ""
        return f"<ExecutionGuard{label} {' '.join(parts) or 'unconstrained'}>"


# -- the thread-local guard stack ------------------------------------------------------


def active_guard() -> Optional[ExecutionGuard]:
    """The innermost guard on this thread, or ``None``."""
    return _tls.top


def push_guard(guard: ExecutionGuard) -> ExecutionGuard:
    guard.parent = _tls.top
    _tls.top = guard
    arm(1)
    return guard


def pop_guard(guard: ExecutionGuard) -> None:
    """Unwind this thread's stack through ``guard`` (the whole stack when
    ``guard`` is not on it: unwound out of order, nearest consistent
    state), disarming once per guard removed."""
    removed = 0
    current = _tls.top
    while current is not None:
        removed += 1
        if current is guard:
            break
        current = current.parent
    _tls.top = current.parent if current is not None else None
    arm(-removed)


@contextmanager
def guard_scope(
    guard: Optional[ExecutionGuard] = None,
    *,
    time_limit: Optional[float] = None,
    step_budget: Optional[int] = None,
    memory_budget: Optional[int] = None,
    label: str = "",
) -> Iterator[ExecutionGuard]:
    """Run a block under a (new or given) :class:`ExecutionGuard`."""
    if guard is None:
        guard = ExecutionGuard(
            deadline=(
                time.monotonic() + time_limit if time_limit is not None else None
            ),
            step_budget=step_budget,
            memory_budget=memory_budget,
            label=label,
        )
    push_guard(guard)
    try:
        yield guard
    finally:
        pop_guard(guard)


def checkpoint(abort: Optional[AbortFlag] = None,
               abort_site: Optional[str] = None,
               guard_site: Optional[str] = "guard.checkpoint") -> None:
    """The checkpoint slow path; a noop when nothing applies to the caller.

    Compiled code binds the ``abort.check`` fault site; the interpreter's
    per-step poll binds no site at all, so a scheduled
    ``Fault(site, after=N)`` counts compiled-tier checkpoints only.
    """
    injector = _faults._INJECTOR
    if injector is not None and abort_site is not None:
        injector.fire(abort_site)
    if abort is not None and abort.pending:
        raise WolframAbort()
    if injector is not None and guard_site is not None:
        injector.fire(guard_site)
    guard = _tls.top
    if guard is not None:
        guard.check(1)


def charge_memory(nbytes: int) -> None:
    """Charge an allocation against the active guard; noop when unguarded."""
    guard = _tls.top
    if guard is not None:
        guard.charge_memory(nbytes)


# -- execution tiers -------------------------------------------------------------------


class Tier(Enum):
    """Where a call can run, fastest first.

    ``COMPILED`` (the full pipeline, and the hotspot ladder's one rung
    above the interpreter), ``TEMPLATE`` (the standalone copy-and-patch
    baseline of :mod:`repro.template_jit`) and ``BYTECODE`` (the legacy
    ``Compile`` VM) are each the *native* tier of one artifact class
    only.  An artifact runs there or on ``INTERPRETER``; no tier falls
    back to another compiled tier.
    """

    COMPILED = "compiled"
    TEMPLATE = "template"
    BYTECODE = "bytecode"
    INTERPRETER = "interpreter"


@dataclass(frozen=True)
class FailureRecord:
    """One soft failure or tier transition, as observed by the guard layer."""

    sequence: int
    function: str
    tier: Tier
    kind: str
    message: str = ""
    #: set on demotion records: (from_tier, to_tier)
    transition: Optional[tuple[Tier, Tier]] = None


#: ring-buffer capacity of the process-wide failure log; bounded so a
#: long-running multi-tenant server cannot leak memory through it
DEFAULT_FAILURE_LOG_MAX = 1024


class FailureLog:
    """A bounded, thread-safe, queryable ring of :class:`FailureRecord`.

    The ring (``collections.deque(maxlen=capacity)``) drops the *oldest*
    records once full, so ``failure_records()`` always reflects the most
    recent failures and the log's footprint is O(capacity) no matter how
    long the process serves.  Capacity defaults to
    :data:`DEFAULT_FAILURE_LOG_MAX`.  All access is serialized by a lock:
    sessions on concurrent server worker threads record into the same
    process-wide log.
    """

    def __init__(self, capacity: int = DEFAULT_FAILURE_LOG_MAX):
        self.capacity = capacity
        self._records: deque[FailureRecord] = deque(maxlen=self.capacity)
        self._sequence = 0  # counts every record ever made, past evictions
        self._lock = threading.Lock()

    def record(
        self,
        function: str,
        tier: Tier,
        kind: str,
        message: str = "",
        transition: Optional[tuple[Tier, Tier]] = None,
    ) -> FailureRecord:
        with self._lock:
            self._sequence += 1
            entry = FailureRecord(
                sequence=self._sequence,
                function=function,
                tier=tier,
                kind=kind,
                message=message,
                transition=transition,
            )
            self._records.append(entry)  # deque maxlen evicts the oldest
        return entry

    def records(
        self,
        function: Optional[str] = None,
        tier: Optional[Tier] = None,
        kind: Optional[str] = None,
    ) -> list[FailureRecord]:
        with self._lock:
            found: list[FailureRecord] = list(self._records)
        if function is not None:
            found = [r for r in found if r.function == function]
        if tier is not None:
            found = [r for r in found if r.tier == tier]
        if kind is not None:
            found = [r for r in found if r.kind == kind]
        return found

    def transitions(
        self, function: Optional[str] = None
    ) -> list[FailureRecord]:
        return [
            r for r in self.records(function) if r.transition is not None
        ]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


#: the process-wide failure log (queryable via ``repro.compiler.api``)
FAILURE_LOG = FailureLog()


class CircuitBreaker:
    """Per-function tier governor: native tier until ``threshold`` soft
    failures, then the interpreter until :meth:`reset`.
    """

    def __init__(
        self,
        function: str,
        threshold: int = 3,
        start: Tier = Tier.COMPILED,
        log: Optional[FailureLog] = None,
    ):
        self.function = function
        self.threshold = threshold
        self.start = start
        self.tier = start
        self.failures: dict[Tier, int] = {t: 0 for t in Tier}
        self.log = log if log is not None else FAILURE_LOG
        #: serializes counters and the tier transition: concurrent server
        #: sessions may fail the same function on different worker threads,
        #: and exactly one racing failure must carry the transition record
        self._lock = threading.Lock()

    def record_failure(self, tier: Tier, kind: str, message: str = "") -> Tier:
        """Count one soft failure; returns the (possibly tripped) tier."""
        self.log.record(self.function, tier, kind, message)
        with self._lock:
            self.failures[tier] += 1
            if (
                tier is self.tier
                and tier is not Tier.INTERPRETER
                and self.failures[tier] >= self.threshold
            ):
                self.log.record(
                    self.function, tier, f"CircuitOpen:{kind}",
                    transition=(tier, Tier.INTERPRETER),
                )
                self.tier = Tier.INTERPRETER
                _observe.event(
                    "tier.demote", "guard", symbol=self.function,
                    kind=f"CircuitOpen:{kind}",
                    **{"from": tier.value, "to": Tier.INTERPRETER.value},
                )
            return self.tier

    def tripped(self, tier: Tier) -> bool:
        return self.failures[tier] >= self.threshold

    def reset(self) -> None:
        with self._lock:
            self.tier = self.start
            self.failures = {t: 0 for t in Tier}


@dataclass
class FallbackStats:
    """Inspection/reset API for a compiled function's fallback behaviour.

    Replaces the old bare ``fallback_count`` integer: per-tier call and
    failure counters, failure kinds, and the breaker's current tier.
    Surfaced through ``.stats()`` on every compiled artifact and
    the ``python -m repro --stats`` CLI.
    """

    calls: dict[str, int] = field(default_factory=dict)
    failures: dict[str, int] = field(default_factory=dict)
    kinds: dict[str, int] = field(default_factory=dict)
    interpreter_reruns: int = 0
    current_tier: str = Tier.COMPILED.value

    def record_call(self, tier: Tier) -> None:
        # ``_value_``, not ``value``: the public name is a Python-level
        # descriptor on 3.11 (two frames a read), and this runs on every
        # governed call
        name = tier._value_
        self.calls[name] = self.calls.get(name, 0) + 1

    def record_failure(self, tier: Tier, kind: str) -> None:
        name = tier.value
        self.failures[name] = self.failures.get(name, 0) + 1
        self.kinds[kind] = self.kinds.get(kind, 0) + 1

    def record_rerun(self) -> None:
        self.interpreter_reruns += 1

    @property
    def fallback_total(self) -> int:
        return self.interpreter_reruns

    def reset(self) -> None:
        self.calls.clear()
        self.failures.clear()
        self.kinds.clear()
        self.interpreter_reruns = 0
        self.current_tier = Tier.COMPILED.value

    def summary(self) -> str:
        calls = ", ".join(f"{t}={n}" for t, n in sorted(self.calls.items()))
        kinds = ", ".join(f"{k}={n}" for k, n in sorted(self.kinds.items()))
        return (
            f"tier={self.current_tier} calls[{calls or 'none'}] "
            f"reruns={self.interpreter_reruns} kinds[{kinds or 'none'}]"
        )


class GovernedFunction:
    """The call protocol of every compiled artifact, defined once.

    An artifact is a two-state machine: it runs on its ``native_tier``
    until the breaker trips, then on the interpreter.  A subclass supplies

    * ``native_tier``, ``breaker`` (started there) and ``fallback_stats``;
    * ``evaluator`` — the host engine, ``None`` for a standalone artifact;
    * ``_to_native(arguments)`` — the boundary check/conversion (§4.5),
      raising :class:`WolframRuntimeError` on a mismatch, and
      ``soft_boundary``: whether a hosted mismatch is rerun by the
      interpreter (uncounted) or raised to the caller;
    * ``_native(*converted)`` — the native run, result already caller-facing;
    * ``soft_exceptions`` (and ``classify`` for its non-Wolfram members);
    * ``warning`` — the F2 message, formatted with ``kind``;
    * ``_interpreter_form(arguments)`` — the call as the interpreter sees it.

    A standalone artifact has no interpreter to revert to: its failures are
    recorded and re-raised, never counted, and its tier never changes.
    """

    native_tier: Tier
    soft_boundary = False
    soft_exceptions: tuple = SOFT_FAILURE_EXCEPTIONS
    classify = staticmethod(classify_runtime_error)
    warning: str

    def __call__(self, *arguments):
        # only a hosted breaker ever leaves its native tier, so the tier
        # test alone decides the common case
        if self.breaker.tier is not self.native_tier \
                and self.evaluator is not None:
            # tripped: the failing tier is not re-attempted
            return self._reevaluate(self.evaluator, arguments)
        try:
            converted = self._to_native(arguments)
        except WolframRuntimeError as error:
            if not self.soft_boundary:
                raise
            # a boundary mismatch is not the native code's fault
            return self._soft_failure(self.evaluator, arguments, error,
                                      False)
        return self.call_converted(converted, arguments)

    def call_converted(self, converted, arguments):
        """The protocol past the boundary check: ``converted`` is
        ``arguments`` as the native code takes them.  The hotspot gate
        enters here with values its own check already converted, after
        finding the breaker on the native tier."""
        native = self.native_tier
        self.fallback_stats.record_call(native)
        try:
            if _faults._INJECTOR is not None:
                _faults.fire(f"{native.value}.call")
            return self._native(*converted)
        except WolframAbort:
            raise
        except GUARD_EXCEPTIONS as error:
            # an expired deadline/budget stays expired on every tier:
            # recorded, never retried, never counted
            self._record(error, False)
            raise
        except self.soft_exceptions as error:
            if not isinstance(error, WolframRuntimeError):
                error = self.classify(error)
            return self._soft_failure(self.evaluator, arguments, error, True)

    def _record(self, error: WolframRuntimeError, counted: bool) -> None:
        native = self.native_tier
        self.fallback_stats.record_failure(native, error.kind)
        if counted:
            self.breaker.record_failure(native, error.kind, str(error))
        else:
            self.breaker.log.record(
                self.breaker.function, native, error.kind, str(error)
            )

    def _soft_failure(self, evaluator, arguments, error, counted: bool):
        """F2: record, print the paper's warning, revert to the interpreter."""
        self._record(error, counted and evaluator is not None)
        if evaluator is None:
            raise error
        evaluator.message(self.warning.format(kind=error.kind))
        self.fallback_stats.record_rerun()
        return self._reevaluate(evaluator, arguments)

    def _reevaluate(self, evaluator, arguments):
        """The always-correct tier: arbitrary-precision interpretation."""
        self.fallback_stats.record_call(Tier.INTERPRETER)
        result = evaluator.evaluate(self._interpreter_form(arguments))
        try:
            return result.to_python()
        except ValueError:
            return result

    # -- inspection of the fallback machinery ----------------------------------

    def stats(self) -> FallbackStats:
        """Per-tier call/failure counters; see :class:`FallbackStats`."""
        self.fallback_stats.current_tier = self.breaker.tier.value
        return self.fallback_stats

    @property
    def fallback_count(self) -> int:
        """Number of interpreter re-evaluations (F2)."""
        return self.fallback_stats.interpreter_reruns

    @property
    def current_tier(self) -> Tier:
        """The tier the next call runs on."""
        return self.breaker.tier

    def reset_tiers(self) -> None:
        """Re-arm the circuit breaker and zero the fallback statistics."""
        self.breaker.reset()
        self.fallback_stats.reset()


class SpecTypedFunction(GovernedFunction):
    """A governed artifact over ``Compile``-style argument specs:
    ``argument_types`` type chars (``"i"``, ``"r"``, ``"c"``, ``"b"``,
    ``"T<char>"``), ``argument_names`` and a ``source_body``;
    ``_box_tensor(value, element_char)`` makes the private copy of a tensor
    argument (copy-on-read, F5).  A boundary mismatch is the caller's
    error, hosted or not: it raises."""

    warning = (
        "CompiledFunction: CompiledFunction operation encountered a "
        "runtime error ({kind}); reverting to uncompiled evaluation."
    )

    def _to_native(self, arguments) -> list:
        if len(arguments) != len(self.argument_types):
            raise WolframRuntimeError(
                "ArgumentCount",
                f"expected {len(self.argument_types)} arguments, "
                f"got {len(arguments)}",
            )
        checked = []
        for value, type_char in zip(arguments, self.argument_types):
            if type_char.startswith("T"):
                if not isinstance(value, (list, tuple)):
                    raise WolframRuntimeError("TypeMismatch", "expected a list")
                checked.append(self._box_tensor(value, type_char[1:]))
            elif type_char == "i":
                if isinstance(value, bool) or not isinstance(value, int):
                    raise WolframRuntimeError(
                        "TypeMismatch", f"{value!r} is not a machine integer"
                    )
                checked.append(value)
            elif type_char == "r":
                if not isinstance(value, (int, float)):
                    raise WolframRuntimeError(
                        "TypeMismatch", f"{value!r} is not a real"
                    )
                checked.append(float(value))
            elif type_char == "c":
                checked.append(complex(value))
            elif type_char == "b":
                checked.append(bool(value))
            else:  # pragma: no cover
                checked.append(value)
        return checked

    def _interpreter_form(self, arguments):
        from repro.engine.patterns import substitute
        from repro.mexpr.symbols import to_mexpr

        return substitute(self.source_body, {
            name: to_mexpr(value)
            for name, value in zip(self.argument_names, arguments)
        })
