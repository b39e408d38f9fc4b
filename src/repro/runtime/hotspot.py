"""Profile-guided tier-up: promote hot DownValue functions to the compiled
tier.

:class:`~repro.runtime.guard.CircuitBreaker` takes a failing artifact off
its native tier, back to the interpreter.  This module is the *promotion*
half (Titzer 2023: a tiered runtime needs both directions), a **two-rung
ladder**:

1. **interpreter** — every symbol starts here; a lightweight profiler
   counts DownValue applications per symbol *and definition*: a count
   belongs to the ``Definition.rules_version`` it was taken against, so
   any write to the rules (``Set``, ``Clear``, ``Block`` entry or restore)
   restarts it, whether or not the symbol was ever promoted;
2. **full pipeline** (``threshold``, default 16): a definition applied
   that many times is synthesized into a typed plan and compiled through
   ``FunctionCompile``.  If the compiled tier declines, the definition
   stays interpreted, blocked until it changes.

The rung is durable: ``FunctionCompile`` consults the persistent artifact
cache (:mod:`repro.artifacts`), so a function promoted in one process
promotes from a cache hit in the next — no pipeline passes run.
:meth:`HotspotProfiler.preload` is the AOT entry point — a warm image's
manifest replays hot definitions through the same rung at boot, before
any call is dispatched.

Governance invariants:

* a promoted artifact keeps its own ``CircuitBreaker`` (renamed to the
  symbol for attribution); when soft failures trip it to the interpreter
  tier the promotion is withdrawn entirely and re-promotion is blocked
  until the definition changes;
* any change to the symbol's rules — ``Set``, ``Clear``, ``Block`` restore —
  invalidates the promotion in the same ``state_version`` bump: every
  promoted dispatch compares the entry's ``rules_version`` with the
  definition's (no lock), a stale entry is dropped, and the call falls
  through to ordinary rule dispatch;
* argument gating is exact: a call whose arguments do not match the
  promoted signature (class and int64 range) is evaluated interpretively,
  never coerced;
* the server's degradation cap (:meth:`HotspotProfiler.demote_all`) is
  the compiled tier or the interpreter, and a promotion re-checks it
  before installing an artifact.

Event vocabulary (emitted through :mod:`repro.observe` when tracing is
enabled; every event carries ``symbol=<name>``):

``hotspot.promote`` (span)
    one promotion attempt — synthesis, compilability gating, and
    compilation — timed end to end;
``tier.promote``
    promotion succeeded; args add ``tier`` ("compiled") and
    ``applications`` (the profile count that triggered it);
``tier.demote``
    a promoted artifact's breaker tripped and the promotion was withdrawn,
    or the degradation cap withdrew it; args add ``from``/``to`` tier names
    (the breaker's own trip is emitted by :mod:`repro.runtime.guard` under
    the same event name);
``tier.invalidate``
    the promotion was dropped because the definition changed (``Set``,
    ``Clear``, ``Block`` restore) or was explicitly invalidated;
``tier.blocked``
    the definition failed the promotion gate; args add ``reason``.

The same transitions are always recorded as :class:`PromotionEvent` audit
rows (``--stats``) whether or not tracing is on.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro import observe as _observe
from repro.engine.definitions import _PATTERN_HEADS
from repro.errors import WolframAbort, WolframRuntimeError
from repro.mexpr.atoms import MInteger, MReal, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.symbols import S, to_mexpr
from repro.runtime.guard import Tier

DEFAULT_THRESHOLD = 16

#: control heads usable in a promoted body beyond pure numeric calls
_CONTROL_HEADS = frozenset({"If", "And", "Or", "Not"})

#: exact integer semantics diverge from machine arithmetic for these heads
#: (``5/2`` is ``Rational[5, 2]``, ``2^-1`` is ``1/2``): block promotion of
#: integer-typed definitions that use them
_INT_UNSAFE_HEADS = frozenset({"Divide", "Power", "Sqrt"})

_TYPE_NAMES = {"i": "MachineInteger", "r": "Real64"}

#: promotion synthesizes one branch per non-general rule; past this many
#: rules the If chain stops paying for itself
_MAX_RULES = 8


@dataclass
class PromotedFunction:
    """One symbol's live promotion: artifact + validity + type gate."""

    name: str
    artifact: object
    tier_kind: str  # "compiled"
    kinds: tuple[str, ...]
    #: ``Definition.rules_version`` of the rule list behind the promotion;
    #: the entry is valid while the definition still has it
    rules_version: int
    #: the arguments' check and conversion (see :func:`_gate`)
    gate: Optional[Callable] = None
    hits: int = 0

    def artifact_tier(self) -> Tier:
        return self.artifact.breaker.tier


@dataclass
class PromotionEvent:
    """Audit record surfaced by ``--stats`` and the tests."""

    name: str
    action: str  # "promoted" | "invalidated" | "demoted" | "blocked"
    tier: str
    detail: str = ""


@dataclass
class _Plan:
    """A synthesized, compilable view of one symbol's DownValues."""

    parameters: tuple[str, ...]
    kinds: tuple[str, ...]
    gate_types: tuple[type, ...]
    body: MExpr


#: read on every promoted call and every profiled rule application: an
#: enum member is a descriptor lookup (~100 ns on CPython 3.11), a global
#: is not
_COMPILED, _INTERPRETER = Tier.COMPILED, Tier.INTERPRETER


class HotspotProfiler:
    """Counts DownValue applications and promotes past the threshold.

    The promotion table is shared mutable state when a session's requests
    run on changing server worker threads, so every structural mutation
    (promotion, withdrawal, invalidation) happens under an ``RLock``; the
    per-dispatch counter bumps stay lock-free — a lost increment only
    shifts promotion by one application.
    """

    def __init__(self, threshold: int = DEFAULT_THRESHOLD):
        self.threshold = threshold
        #: applications of each symbol's current definition
        self.counts: dict[str, int] = {}
        #: the ``Definition.rules_version`` each count was taken against: a
        #: count restarts when the rules change, promoted or not
        self._counted: dict[str, int] = {}
        self.promoted: dict[str, PromotedFunction] = {}
        self.events: list[PromotionEvent] = []
        #: cumulative wall-clock compile cost and promotion count (surfaced
        #: by the ``--stats`` hot-function report)
        self.compile_seconds = 0.0
        self.compile_count = 0
        #: ``COMPILED``, or ``INTERPRETER`` when the server's
        #: graceful-degradation path has switched promotion off (see
        #: :meth:`demote_all`)
        self.max_tier: Tier = Tier.COMPILED
        #: definitions that failed the gate, keyed to the
        #: ``Definition.rules_version`` that failed — any redefinition
        #: (even to equal rules) takes a new version and retries once
        self._blocked: dict[str, int] = {}
        self._in_progress: set[str] = set()
        self._lock = threading.RLock()

    # -- dispatch-side API (called from the evaluator step) -----------------

    def dispatch(self, evaluator, name, definition, arguments):
        """Run ``name[arguments...]`` (evaluated, in canonical order) on the
        promoted tier, or ``None`` to decline.

        The read path takes no lock.  An entry is valid while its
        ``rules_version`` is the definition's — every write to the rule
        list takes a new one, so a redefinition inside a running loop
        drops the promotion at its next call — and while its breaker is
        on the native tier; otherwise :meth:`_withdraw` takes the lock.
        The gate converts each argument once, with the compiled tier's
        boundary check for the parameter's machine type, and enters the
        artifact's call protocol past its own (:meth:`~repro.runtime.guard
        .GovernedFunction.call_converted`).
        """
        entry = self.promoted.get(name)
        if entry is None:
            return None
        artifact = entry.artifact
        if (
            entry.rules_version != definition.rules_version
            or artifact.breaker.tier is _INTERPRETER
        ):
            self._withdraw(name, definition, entry)
            return None
        try:
            values = entry.gate(arguments)
        except WolframRuntimeError:
            return None  # outside the machine range: the interpreter's
        if values is None:
            return None
        entry.hits += 1
        return _rebox(artifact.call_converted(values, arguments))

    def record(self, evaluator, name, definition, expression) -> None:
        """Count one interpreted rule application; maybe promote.

        The count is of applications of *this* definition: a new
        ``rules_version`` starts it over, so a symbol redefined more often
        than every ``threshold`` calls never promotes.  At the threshold
        the full pipeline runs — unless the degradation cap has switched
        promotion off.
        """
        version = definition.rules_version
        if self._counted.get(name) == version:
            # ``get``: a racing first count may have stamped the version
            # before storing its count
            count = self.counts.get(name, 0) + 1
        else:
            self._counted[name] = version
            count = 1
        self.counts[name] = count
        if (
            count < self.threshold
            or name in self.promoted
            or self.max_tier is not _COMPILED
            or self._blocked.get(name) == version
        ):
            return  # not hot, promoted, capped, or failed the gate
        with self._lock:
            if (
                name in self.promoted
                or name in self._in_progress
                or self._blocked.get(name) == version
            ):
                return
            self._in_progress.add(name)
        try:
            self._attempt_promotion(evaluator, name, definition, expression)
        finally:
            self._in_progress.discard(name)

    def preload(self, evaluator, name: str) -> bool:
        """AOT warm boot: promote ``name`` straight to the compiled tier
        before any call is ever dispatched.

        The manifest of a warm image (:mod:`repro.artifacts.aot`) lists the
        definitions that were hot when the image was built; at boot the
        server replays them through this method.  The plan synthesis and
        the compiled-tier gate are exactly the runtime promotion path —
        ``FunctionCompile`` inside :meth:`_compile_compiled_tier` hits the
        persistent artifact cache, so a warm preload costs a cache probe
        instead of a pipeline run.  Definitions that synthesis cannot type
        without an observed call (undeclared argument positions) are left
        to runtime profiling; returns ``True`` only when an artifact was
        installed.
        """
        definition = evaluator.state.lookup(name)
        if definition is None or not definition.down_values:
            return False
        if self.max_tier is not _COMPILED:
            return False
        with self._lock:
            if name in self.promoted or name in self._in_progress:
                return False
            self._in_progress.add(name)
        try:
            with _observe.span("hotspot.promote", "hotspot", symbol=name,
                               preload=True):
                plan = self._synthesize(name, definition, None)
                if plan is None or plan is _RETRY_LATER:
                    return False
                started = time.perf_counter()
                artifact = self._compile_compiled_tier(evaluator, name, plan)
                elapsed = time.perf_counter() - started
                if artifact is None:
                    return False
                with self._lock:
                    self.promoted[name] = PromotedFunction(
                        name=name,
                        artifact=artifact,
                        tier_kind="compiled",
                        kinds=plan.kinds,
                        rules_version=definition.rules_version,
                        gate=_gate(plan),
                    )
                    self._charge_compile(elapsed)
                    self.events.append(
                        PromotionEvent(name, "promoted", "compiled",
                                       "AOT preload")
                    )
            _observe.event("tier.promote", "hotspot", symbol=name,
                           tier="compiled", applications=0, preload=True)
            _observe.count("hotspot.promotions.compiled")
            return True
        finally:
            self._in_progress.discard(name)

    # -- bookkeeping ---------------------------------------------------------

    def _withdraw(self, name, definition, entry) -> None:
        """Drop ``entry``, which :meth:`dispatch` found stale or tripped."""
        with self._lock:
            if self.promoted.get(name) is not entry:
                return  # a racer invalidated or withdrew it
            del self.promoted[name]
            if entry.rules_version != definition.rules_version:
                # the rules behind the promotion changed (the next
                # application starts the new definition's count)
                self.events.append(
                    PromotionEvent(name, "invalidated", entry.tier_kind,
                                   "definition changed")
                )
                _observe.event("tier.invalidate", "hotspot", symbol=name,
                               reason="definition changed")
                return
            # the breaker tripped: interpreting *through* the artifact adds
            # pure overhead, so withdraw the promotion and block
            # re-promotion until the rules change
            self._blocked[name] = entry.rules_version
            self.events.append(
                PromotionEvent(name, "demoted", Tier.INTERPRETER.value,
                               "circuit breaker tripped")
            )
            _observe.event(
                "tier.demote", "hotspot", symbol=name,
                reason="promotion withdrawn: circuit breaker tripped",
                **{"from": entry.tier_kind, "to": Tier.INTERPRETER.value},
            )

    def invalidate(self, name: str) -> None:
        """Explicitly drop a promotion (test/tooling hook)."""
        with self._lock:
            entry = self.promoted.pop(name, None)
            if entry is not None:
                self.counts[name] = 0
                self.events.append(
                    PromotionEvent(name, "invalidated", entry.tier_kind,
                                   "explicit invalidation")
                )
                _observe.event("tier.invalidate", "hotspot", symbol=name,
                               reason="explicit invalidation")

    def demote_all(self, cap: Tier, reason: str = "degradation") -> int:
        """Cap promotion at ``cap`` and withdraw hotter live promotions.

        The graceful-degradation hook of the multi-tenant server: under
        memory pressure sessions step down from the compiled tier to the
        interpreter (``cap`` is one of those two).  Returns the number of
        promotions withdrawn.  Raising the cap back re-enables promotion,
        and withdrawn functions re-promote once they get hot again — their
        profile counts restart from zero.
        """
        with self._lock:
            self.max_tier = cap
            if cap is _COMPILED:
                return 0
            withdrawn = 0
            for name, entry in list(self.promoted.items()):
                del self.promoted[name]
                self.counts[name] = 0
                withdrawn += 1
                self.events.append(
                    PromotionEvent(name, "demoted", cap.value, reason)
                )
                _observe.event(
                    "tier.demote", "hotspot", symbol=name, reason=reason,
                    **{"from": entry.tier_kind, "to": cap.value},
                )
            return withdrawn

    def table(self) -> list[tuple]:
        """Rows for the ``--stats`` report: hottest functions first."""
        rows = []
        for name, count in sorted(
            self.counts.items(), key=lambda item: -item[1]
        ):
            entry = self.promoted.get(name)
            if entry is not None:
                status = f"promoted:{entry.tier_kind}"
                tier = entry.artifact_tier().value
                hits = entry.hits
            else:
                blocked = self._blocked.get(name) == self._counted.get(name)
                status = "blocked" if blocked else "profiling"
                tier = Tier.INTERPRETER.value
                hits = 0
            rows.append((name, count, status, tier, hits))
        return rows

    def compile_time_table(self) -> list[tuple[str, int, float]]:
        """``(tier, promotions, cumulative compile seconds)`` rows for the
        ``--stats`` report: one row, once anything was promoted."""
        if not self.compile_count:
            return []
        return [("compiled", self.compile_count, self.compile_seconds)]

    # -- promotion -----------------------------------------------------------

    def _attempt_promotion(self, evaluator, name, definition, expression):
        with _observe.span("hotspot.promote", "hotspot", symbol=name):
            self._attempt_promotion_inner(
                evaluator, name, definition, expression
            )

    def _attempt_promotion_inner(self, evaluator, name, definition,
                                 expression):
        plan = self._synthesize(name, definition, expression)
        if plan is None:
            self._block(name, definition, "definition is not promotable")
            return
        if plan is _RETRY_LATER:
            # e.g. symbolic arguments this call: stay hot, try again next time
            self.counts[name] = self.threshold - 1
            return
        started = time.perf_counter()
        artifact = self._compile_compiled_tier(evaluator, name, plan)
        elapsed = time.perf_counter() - started
        if artifact is None:
            self._block(name, definition, "the compiled tier declined the definition")
            return
        with self._lock:
            # compilation ran outside the lock; the server's degradation
            # path may have lowered the cap meanwhile (``demote_all`` only
            # withdraws entries already in the table).  Installing an
            # over-cap artifact now would stick until the *next* cap
            # change, so re-check and drop it instead.
            if self.max_tier is not _COMPILED:
                self.events.append(
                    PromotionEvent(name, "blocked", self.max_tier.value,
                                   "tier cap lowered during promotion")
                )
                _observe.event("tier.blocked", "hotspot", symbol=name,
                               reason="tier cap lowered during promotion")
                return
            self.promoted[name] = PromotedFunction(
                name=name,
                artifact=artifact,
                tier_kind="compiled",
                kinds=plan.kinds,
                rules_version=definition.rules_version,
                gate=_gate(plan),
            )
            self._charge_compile(elapsed)
            self.events.append(
                PromotionEvent(name, "promoted", "compiled",
                               f"after {self.counts[name]} applications")
            )
        _observe.event("tier.promote", "hotspot", symbol=name,
                       tier="compiled", applications=self.counts[name])
        _observe.count("hotspot.promotions.compiled")

    def _charge_compile(self, seconds: float) -> None:
        self.compile_seconds += seconds
        self.compile_count += 1

    def _block(self, name, definition, reason: str) -> None:
        with self._lock:
            self._blocked[name] = definition.rules_version
            self.events.append(
                PromotionEvent(name, "blocked", Tier.INTERPRETER.value,
                               reason)
            )
        _observe.event("tier.blocked", "hotspot", symbol=name, reason=reason)

    def _compile_compiled_tier(self, evaluator, name, plan):
        typed_params = [
            MExprNormal(S.Typed, [MSymbol(p), to_mexpr(_TYPE_NAMES[k])])
            for p, k in zip(plan.parameters, plan.kinds)
        ]
        function = MExprNormal(
            S.Function, [MExprNormal(S.List, list(typed_params)), plan.body]
        )
        try:
            from repro.compiler.api import FunctionCompile

            artifact = FunctionCompile(function, evaluator=evaluator)
            # attribute breaker records to the engine-level symbol, so
            # failure_records() reads naturally in --stats
            artifact.breaker.function = name
            return artifact
        except WolframAbort:
            raise
        except Exception:
            return None

    # -- plan synthesis ------------------------------------------------------

    def _synthesize(self, name, definition, expression):
        """Turn the symbol's DownValues into one typed, branching body.

        Shape accepted: every rule is ``name[args...]`` at one fixed arity;
        each argument is either a numeric literal or a (possibly typed)
        blank; exactly one rule — ordered last — is fully general (all
        blanks). Literal rules become an ``If`` chain in rule order, so
        dispatch semantics are preserved exactly.
        """
        rules = definition.down_values
        if not rules or len(rules) > _MAX_RULES:
            return None
        parsed = []
        arity = None
        for rule in rules:
            lhs = rule.lhs
            if lhs.is_atom() or not isinstance(lhs.head, MSymbol) \
                    or lhs.head.name != name:
                return None
            if arity is None:
                arity = len(lhs.args)
            elif len(lhs.args) != arity:
                return None
            slots = []
            for argument in lhs.args:
                slot = _parse_slot(argument)
                if slot is None:
                    return None
                slots.append(slot)
            parsed.append((slots, rule.rhs))
        if arity == 0:
            return None

        general = [
            index for index, (slots, _) in enumerate(parsed)
            if all(kind == "blank" for kind, _, _ in slots)
        ]
        if len(general) != 1 or general[0] != len(parsed) - 1:
            return None
        general_slots, general_rhs = parsed[-1]

        # one declared type per position, consistent across rules
        kinds: list[Optional[str]] = [None] * arity
        for slots, _ in parsed:
            for position, (kind, _, declared) in enumerate(slots):
                if kind != "blank" or declared is None:
                    continue
                if kinds[position] is None:
                    kinds[position] = declared
                elif kinds[position] != declared:
                    return None

        # undeclared positions take the class observed on the hot call;
        # non-numeric arguments mean "not now", not "never".  AOT preload
        # has no observed call (``expression is None``), so a definition
        # with any undeclared position is deferred to runtime profiling.
        gate_types: list[type] = [None] * arity  # type: ignore[list-item]
        for position in range(arity):
            if kinds[position] == "i":
                gate_types[position] = MInteger
            elif kinds[position] == "r":
                gate_types[position] = MReal
            elif expression is None:
                return _RETRY_LATER
            else:
                observed = expression.args[position]
                if type(observed) is MInteger:
                    kinds[position] = "i"
                    gate_types[position] = MInteger
                elif type(observed) is MReal:
                    kinds[position] = "r"
                    gate_types[position] = MReal
                else:
                    return _RETRY_LATER

        # canonical parameter names come from the general rule
        parameters = []
        for position, (kind, payload, _) in enumerate(general_slots):
            if payload:
                parameters.append(payload)
            else:
                parameters.append(f"$hot{position + 1}")

        # rename + compilability-check every rhs, then fold the If chain
        integer_typed = "i" in kinds
        body = self._rewrite_rhs(
            name, general_rhs, general_slots, parameters, integer_typed
        )
        if body is None:
            return None
        for slots, rhs in reversed(parsed[:-1]):
            branch = self._rewrite_rhs(
                name, rhs, slots, parameters, integer_typed
            )
            if branch is None:
                return None
            conditions = [
                MExprNormal(S.Equal, [MSymbol(parameters[position]), literal])
                for position, (kind, literal, _) in enumerate(slots)
                if kind == "literal"
            ]
            if not conditions:
                return None
            condition = (
                conditions[0] if len(conditions) == 1
                else MExprNormal(S.And, conditions)
            )
            body = MExprNormal(S.If, [condition, branch, body])
        return _Plan(
            parameters=tuple(parameters),
            kinds=tuple(kinds),  # type: ignore[arg-type]
            gate_types=tuple(gate_types),
            body=body,
        )

    def _rewrite_rhs(self, name, rhs, slots, parameters, integer_typed):
        """Rename rule-local pattern names to the canonical parameters and
        verify every call in the body is compilable."""
        from repro.engine.patterns import substitute

        renames = {}
        bound = set(parameters)
        for position, (kind, payload, _) in enumerate(slots):
            if kind == "blank" and payload:
                renames[payload] = MSymbol(parameters[position])
        if renames:
            rhs = substitute(rhs, renames)
        if not _body_compilable(rhs, name, bound, integer_typed):
            return None
        return rhs


#: sentinel: promotion not possible with *these* arguments, retry later
_RETRY_LATER = object()


def _gate(plan: _Plan):
    """:attr:`PromotedFunction.gate` of ``plan``: ``gate(arguments)`` is
    the arguments' values as the native code takes them, or ``None`` when
    one is not of its parameter's exact atom class.  Each value goes
    through the compiled tier's boundary unpacker for its machine type —
    the one check it gets — which raises for an integer outside int64.
    One and two parameters, the common arities, get the loop unrolled."""
    from repro.compiler.api import unpacker
    from repro.compiler.types.specifier import ty

    unpackers = {kind: unpacker(ty(_TYPE_NAMES[kind]))
                 for kind in set(plan.kinds)}
    checks = tuple((atom, unpackers[kind])
                   for atom, kind in zip(plan.gate_types, plan.kinds))
    if len(checks) == 1:
        ((atom, unpack),) = checks

        def gate(arguments):
            if len(arguments) == 1 and type(arguments[0]) is atom:
                return [unpack(arguments[0].value)]
            return None

    elif len(checks) == 2:
        (atom1, unpack1), (atom2, unpack2) = checks

        def gate(arguments):
            if len(arguments) == 2:
                first, second = arguments
                if type(first) is atom1 and type(second) is atom2:
                    return [unpack1(first.value), unpack2(second.value)]
            return None

    else:

        def gate(arguments):
            if len(arguments) != len(checks):
                return None
            values = []
            for argument, (atom, unpack) in zip(arguments, checks):
                if type(argument) is not atom:
                    return None
                values.append(unpack(argument.value))
            return values

    return gate


def _rebox(result) -> MExpr:
    """A promoted call's result as the engine takes it back: the one atom
    constructor of a machine integer or real, and ``to_mexpr`` only for
    what else arrives (a rerun's bignum is an ``int`` too; its unevaluated
    expression is already an ``MExpr``)."""
    kind = type(result)
    if kind is int:
        return MInteger(result)
    if kind is float:
        return MReal(result)
    return to_mexpr(result)


def _parse_slot(argument: MExpr):
    """Classify one lhs argument.

    Returns ``("literal", literal_node, None)``,
    ``("blank", pattern_name_or_empty, declared_kind_or_None)``, or ``None``
    when the argument is outside the promotable shape.
    """
    if isinstance(argument, (MInteger, MReal)):
        return ("literal", argument, None)
    if argument.is_atom():
        return None
    head = argument.head
    if not isinstance(head, MSymbol):
        return None
    if head.name == "Pattern" and len(argument.args) == 2:
        pattern_name = argument.args[0]
        if not isinstance(pattern_name, MSymbol):
            return None
        inner = _parse_slot(argument.args[1])
        if inner is None or inner[0] != "blank":
            return None
        return ("blank", pattern_name.name, inner[2])
    if head.name == "Blank":
        if not argument.args:
            return ("blank", "", None)
        required = argument.args[0]
        if isinstance(required, MSymbol):
            if required.name == "Integer":
                return ("blank", "", "i")
            if required.name == "Real":
                return ("blank", "", "r")
        return None
    return None


def _body_compilable(
    body: MExpr, self_name: str, bound: set[str], integer_typed: bool
) -> bool:
    """Conservative gate: every head in ``body`` must be a function the
    bytecode table declares supported (or a control head, or a self-call),
    and every bare symbol must be a bound parameter or True/False/Null."""
    from repro.bytecode.supported import supported_function_names

    allowed = supported_function_names() | _CONTROL_HEADS | {self_name}
    stack = [body]
    while stack:
        node = stack.pop()
        if isinstance(node, MSymbol):
            if node.name not in bound and node.name not in (
                "True", "False", "Null"
            ):
                return False
            continue
        if isinstance(node, (MInteger, MReal)):
            continue
        if node.is_atom():  # strings, complexes: outside the numeric tiers
            return False
        head = node.head
        if not isinstance(head, MSymbol):
            return False
        if head.name in _PATTERN_HEADS:
            return False
        if head.name not in allowed:
            return False
        if integer_typed and head.name in _INT_UNSAFE_HEADS:
            return False
        stack.extend(node.args)
    return True


def enable_hotspot(evaluator, threshold: int = DEFAULT_THRESHOLD):
    """Attach a profiler to an engine session (idempotent)."""
    if getattr(evaluator, "hotspot", None) is None:
        evaluator.hotspot = HotspotProfiler(threshold=threshold)
    return evaluator.hotspot


def disable_hotspot(evaluator) -> None:
    evaluator.hotspot = None
