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
  reverts to the interpreter, nothing in between.  Each artifact's
  :class:`CircuitBreaker` is its one health ledger: after ``threshold``
  counted soft failures the function stops re-attempting its native tier,
  and ``stats()`` is a :class:`FallbackStats` view of it built on read.
  :class:`GovernedFunction` is the one definition of the call protocol
  around it; an artifact supplies only its native runner, boundary
  conversion, soft-exception set and warning text.  Every failure and the
  one possible transition are recorded, under the breaker's lock, as
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

The slow path is a **countdown**.  Each thread's :class:`_Ledger` holds its
guard stack and a grant of polls (and of memory bytes): a poll checks the
abort flag and the fault sites, then takes one poll from the grant.  Only
when the grant is spent does the poll *settle* — charge the spent polls to
every guard on the chain, read the clock once, trip what expired, and take
the next grant of at most :data:`QUANTUM` polls.  A grant never covers
more polls than any guard's step budget has left (``step_budget −
steps_used + 1``), so a budget trips on exactly the poll a per-poll count
would trip it on; memory grants are capped the same way by every memory
budget's headroom.  :func:`push_guard` and :func:`pop_guard` settle first,
so polls land on the chain they ran under, and ``steps_used`` /
``memory_used`` are exact once a guard is popped.  The first poll under a
changed stack settles, so a deadline is read on the first poll inside a
new scope and then at least once per quantum.

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
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from repro import observe as _observe
from repro.errors import (
    GUARD_EXCEPTIONS,
    SOFT_FAILURE_EXCEPTIONS,
    WolframAbort,
    WolframBudgetError,
    WolframRecursionError,
    WolframRuntimeError,
    WolframTimeoutError,
    classify_runtime_error,
)
from repro.testing import faults as _faults


#: the most polls one grant covers: a guard's deadline is read at least
#: once per this many polls
QUANTUM = 128
#: the memory grant while no guard on the chain has a memory budget
_UNMETERED = 1 << 62


class _Ledger:
    """One thread's guard stack and its countdown (see the module doc).

    A plain object reached through :data:`_thread` once per poll: its own
    fields are read and written at slot speed, where every access to a
    ``threading.local`` attribute costs a per-thread dict lookup.
    """

    __slots__ = ("top", "steps", "step_grant", "memory", "memory_grant")

    def __init__(self) -> None:
        self.top: Optional[ExecutionGuard] = None
        #: polls left in the current grant, and how many it covered
        self.steps = self.step_grant = 1
        #: memory bytes left in the current grant, and how many it covered
        self.memory = self.memory_grant = _UNMETERED


class _Thread(threading.local):
    """Each thread's :class:`_Ledger` (made on the thread's first poll)."""

    def __init__(self) -> None:
        self.ledger = _Ledger()


_thread = _Thread()

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

    def check(self, steps: int = 1) -> int:
        """Charge ``steps`` polls to this guard and every enclosing one;
        returns how many polls the chain can take before the next check
        (a quantum, or less where a step budget runs out sooner).

        The last poll may trip: the chain is walked innermost-out, and a
        guard that trips has been charged all ``steps``, while the guards
        outside it are charged all but the tripping poll — what polling
        one step at a time would have charged them.
        """
        guard: Optional[ExecutionGuard] = self
        now: Optional[float] = None
        grant = QUANTUM
        while guard is not None:
            guard.steps_used += steps
            budget = guard.step_budget
            if budget is not None:
                if guard.steps_used > budget:
                    _charge_steps(guard.parent, steps - 1)
                    _observe.event(
                        "guard.trip", "guard", kind="steps",
                        label=guard.label, used=guard.steps_used,
                        budget=budget,
                    )
                    raise WolframBudgetError(
                        "steps",
                        f"evaluation-step budget of {budget} exhausted",
                        guard=guard,
                    )
                if budget - guard.steps_used < grant:
                    grant = budget - guard.steps_used + 1
            if guard.deadline is not None:
                if now is None:
                    now = time.monotonic()
                if now > guard.deadline:
                    _charge_steps(guard.parent, steps - 1)
                    _observe.event(
                        "guard.trip", "guard", kind="deadline",
                        label=guard.label,
                    )
                    raise WolframTimeoutError(guard=guard)
            guard = guard.parent
        return grant

    def charge_memory(self, nbytes: int) -> None:
        """Charge an allocation against this guard and every enclosing
        one, past this thread's memory grant (which is settled first and
        granted afresh after)."""
        ledger = _thread.ledger
        _charge_bytes(ledger.top, ledger.memory_grant - ledger.memory)
        try:
            self._charge_memory(nbytes, nbytes)
        finally:
            _grant_memory(ledger)

    def _charge_memory(self, nbytes: int, last: int) -> None:
        """Charge ``nbytes`` to every guard on the chain with a memory
        budget; of them only the final ``last`` may trip, so the guards
        outside a tripping one are charged the rest."""
        guard: Optional[ExecutionGuard] = self
        while guard is not None:
            if guard.memory_budget is not None:
                guard.memory_used += nbytes
                if guard.memory_used > guard.memory_budget:
                    _charge_bytes(guard.parent, nbytes - last)
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


# -- the thread-local guard stack and its countdown -----------------------------------


def _charge_steps(guard: Optional[ExecutionGuard], steps: int) -> None:
    while guard is not None:
        guard.steps_used += steps
        guard = guard.parent


def _charge_bytes(guard: Optional[ExecutionGuard], nbytes: int) -> None:
    while guard is not None:
        if guard.memory_budget is not None:
            guard.memory_used += nbytes
        guard = guard.parent


def _grant_memory(ledger: _Ledger) -> None:
    """The next memory grant: the least headroom of any memory budget on
    the chain (negative when one is already over: any charge trips)."""
    memory = _UNMETERED
    guard = ledger.top
    while guard is not None:
        if guard.memory_budget is not None:
            left = guard.memory_budget - guard.memory_used
            if left < memory:
                memory = left
        guard = guard.parent
    ledger.memory = ledger.memory_grant = memory


def _restack(ledger: _Ledger, top: Optional[ExecutionGuard]) -> None:
    """Settle what the old chain spent (no trips: they are the polls'
    business), make ``top`` the innermost guard, and start fresh grants;
    the first poll under the new chain settles."""
    steps = ledger.step_grant - ledger.steps
    nbytes = ledger.memory_grant - ledger.memory
    guard = ledger.top
    while guard is not None:
        guard.steps_used += steps
        if guard.memory_budget is not None:
            guard.memory_used += nbytes
        guard = guard.parent
    ledger.top = top
    ledger.steps = ledger.step_grant = 1
    _grant_memory(ledger)


def _settle_memory(last: int) -> None:
    """The memory grant ran out on a charge of ``last`` bytes."""
    ledger = _thread.ledger
    try:
        top = ledger.top
        if top is not None:
            top._charge_memory(ledger.memory_grant - ledger.memory, last)
    finally:
        _grant_memory(ledger)


def active_guard() -> Optional[ExecutionGuard]:
    """The innermost guard on this thread, or ``None``."""
    return _thread.ledger.top


def push_guard(guard: ExecutionGuard) -> ExecutionGuard:
    ledger = _thread.ledger
    guard.parent = ledger.top
    _restack(ledger, guard)
    with _word_lock:
        CHECKPOINT[0] += 1
    return guard


def pop_guard(guard: ExecutionGuard) -> None:
    """Unwind this thread's stack through ``guard`` (the whole stack when
    ``guard`` is not on it: unwound out of order, nearest consistent
    state), disarming once per guard removed."""
    ledger = _thread.ledger
    removed = 0
    current = ledger.top
    while current is not None:
        removed += 1
        if current is guard:
            break
        current = current.parent
    _restack(ledger, current.parent if current is not None else None)
    with _word_lock:
        CHECKPOINT[0] -= removed


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
               guard_site: Optional[str] = "guard.checkpoint",
               polls: int = 1) -> None:
    """The checkpoint slow path; a noop when nothing applies to the caller.

    Every poll checks the abort flag and fires the bound fault sites, then
    takes one poll from this thread's grant; the poll that spends it
    settles.  Compiled code binds the ``abort.check`` fault site; the
    interpreter's per-step poll binds no site at all, so a scheduled
    ``Fault(site, after=N)`` counts compiled-tier checkpoints only.
    ``polls`` above one is work whose size is known before it runs (a
    packed ``Range``): taken in one subtraction, and settled at once when
    it overdraws the grant, so a budget it exhausts trips before the work.
    """
    injector = _faults._INJECTOR
    if injector is not None and abort_site is not None:
        injector.fire(abort_site)
    if abort is not None and abort.pending:
        raise WolframAbort()
    if injector is not None and guard_site is not None:
        injector.fire(guard_site)
    ledger = _thread.ledger
    ledger.steps -= polls
    if ledger.steps > 0:
        return
    # the grant is spent: settle it on the chain, which trips what expired
    # and sizes the next grant
    top = ledger.top
    if top is None:
        ledger.steps = ledger.step_grant = QUANTUM
        return
    try:
        grant = top.check(ledger.step_grant - ledger.steps)
    except BaseException:
        # charged and tripped: the next poll settles afresh (and trips
        # again while a budget stays exhausted, as a per-poll count would)
        ledger.steps = ledger.step_grant = 1
        raise
    ledger.steps = ledger.step_grant = grant


def charge_memory(nbytes: int) -> None:
    """Charge an allocation against this thread's guards: one subtraction
    from the memory grant, unless the charge overdraws it."""
    ledger = _thread.ledger
    ledger.memory -= nbytes
    if ledger.memory < 0:
        _settle_memory(nbytes)


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
    """A compiled function's one health ledger and tier governor: native
    tier until ``threshold`` counted soft failures, then the interpreter
    until :meth:`reset`.

    The per-call counts are plain ints the call protocol bumps without a
    lock (racing calls may lose one); failures are counted under the lock
    by :meth:`record_failure` and are exact.
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
        self.log = log if log is not None else FAILURE_LOG
        self.native_calls = self.interpreter_calls = self.reruns = 0
        #: every recorded failure by kind, and the counted ones since the
        #: last reset: written under the lock
        self.kinds: dict[str, int] = {}
        self.strikes = 0
        #: serializes failures and the tier transition: concurrent server
        #: sessions may fail the same function on different worker threads,
        #: and exactly one racing failure must carry the transition record
        self._lock = threading.Lock()

    def record_failure(self, kind: str, message: str = "",
                       counted: bool = True) -> Tier:
        """Record one failure on the native tier; a ``counted`` one is a
        strike, and the ``threshold``-th trips the breaker.  Returns the
        (possibly tripped) tier."""
        start = self.start
        with self._lock:
            self.log.record(self.function, start, kind, message)
            self.kinds[kind] = self.kinds.get(kind, 0) + 1
            if counted:
                self.strikes += 1
                if self.tier is start and self.strikes >= self.threshold:
                    self.log.record(
                        self.function, start, f"CircuitOpen:{kind}",
                        transition=(start, Tier.INTERPRETER),
                    )
                    self.tier = Tier.INTERPRETER
                    _observe.event(
                        "tier.demote", "guard", symbol=self.function,
                        kind=f"CircuitOpen:{kind}",
                        **{"from": start.value,
                           "to": Tier.INTERPRETER.value},
                    )
            return self.tier

    def reset(self) -> None:
        """Back to the native tier, every count zeroed."""
        with self._lock:
            self.tier = self.start
            self.native_calls = self.interpreter_calls = self.reruns = 0
            self.strikes = 0
            self.kinds = {}

    def stats(self) -> FallbackStats:
        """A snapshot of the ledger; later calls do not change it."""
        native = self.start.value
        with self._lock:
            counts = ((native, self.native_calls),
                      (Tier.INTERPRETER.value, self.interpreter_calls))
            kinds = dict(self.kinds)
            return FallbackStats(
                calls={tier: n for tier, n in counts if n},
                failures={native: sum(kinds.values())} if kinds else {},
                kinds=kinds,
                interpreter_reruns=self.reruns,
                current_tier=self.tier.value,
            )


@dataclass(frozen=True)
class FallbackStats:
    """A compiled function's fallback behaviour, as
    :meth:`CircuitBreaker.stats` reads it: calls per tier (zero entries
    omitted), failures on the native tier, failure kinds, interpreter
    reruns and the breaker's current tier.  Surfaced through ``.stats()``
    on every compiled artifact and the ``python -m repro --stats`` CLI.
    """

    calls: dict[str, int]
    failures: dict[str, int]
    kinds: dict[str, int]
    interpreter_reruns: int
    current_tier: str

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

    * ``native_tier`` and ``breaker`` (started there: the function's one
      health ledger);
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
        self.breaker.native_calls += 1
        try:
            if _faults._INJECTOR is not None:
                _faults.fire(f"{self.native_tier.value}.call")
            return self._native(*converted)
        except WolframAbort:
            raise
        except GUARD_EXCEPTIONS as error:
            # an expired deadline/budget stays expired on every tier:
            # recorded, never retried, never counted
            self.breaker.record_failure(error.kind, str(error), False)
            raise
        except self.soft_exceptions as error:
            if not isinstance(error, WolframRuntimeError):
                error = self.classify(error)
            return self._soft_failure(self.evaluator, arguments, error, True)
        except RecursionError:
            # unbounded native recursion exhausts the host stack: the
            # evaluator's classified error, never a raw crash
            raise WolframRecursionError(
                f"$RecursionLimit exceeded: {self.breaker.function} ran "
                "out of host stack in compiled code"
            ) from None

    def _soft_failure(self, evaluator, arguments, error, counted: bool):
        """F2: record, print the paper's warning, revert to the interpreter."""
        self.breaker.record_failure(error.kind, str(error),
                                    counted and evaluator is not None)
        if evaluator is None:
            raise error
        evaluator.message(self.warning.format(kind=error.kind))
        self.breaker.reruns += 1
        return self._reevaluate(evaluator, arguments)

    def _reevaluate(self, evaluator, arguments):
        """The always-correct tier: arbitrary-precision interpretation."""
        self.breaker.interpreter_calls += 1
        result = evaluator.evaluate(self._interpreter_form(arguments))
        try:
            return result.to_python()
        except ValueError:
            return result

    # -- inspection of the fallback machinery ----------------------------------

    def stats(self) -> FallbackStats:
        """A snapshot of the breaker's ledger; see :class:`FallbackStats`."""
        return self.breaker.stats()

    @property
    def fallback_count(self) -> int:
        """Number of interpreter re-evaluations (F2)."""
        return self.breaker.reruns

    @property
    def current_tier(self) -> Tier:
        """The tier the next call runs on."""
        return self.breaker.tier

    def reset_tiers(self) -> None:
        """Re-arm the circuit breaker and zero its counts."""
        self.breaker.reset()


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
