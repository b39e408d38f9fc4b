"""The tree-walking evaluator — our stand-in for the Wolfram Engine kernel.

Implements the evaluation semantics §2.1 describes:

* **infinite evaluation** — expressions are re-evaluated until a fixed point
  or ``$IterationLimit`` is reached, so ``y = x; x = 1; y`` yields ``1``;
* **hold attributes** — arguments are evaluated unless the head holds them;
* **Flat / Orderless / Listable** — structural canonicalisation before
  builtin dispatch;
* **OwnValues / DownValues** — user definitions applied by pattern matching
  in specificity order;
* **abortability (F3)** — every evaluation step is a checkpoint of the
  shared protocol (:mod:`repro.runtime.guard`) bound to this session's abort
  flag; an abort unwinds to the top level and returns ``$Aborted`` with
  session state intact (possibly mutated by the aborted computation, as the
  paper specifies);
* **guarded execution** — the same slow path polls the active
  :class:`~repro.runtime.guard.ExecutionGuard`, enforcing
  ``TimeConstrained`` deadlines, step budgets, and (via a small per-node
  allocation charge) ``MemoryConstrained`` budgets.

Fully-evaluated subtrees are stamped with the kernel ``state_version`` so
fixed-point re-walks of large data are O(1); any ``Set``/``Clear`` bumps the
version and invalidates the stamps.
"""

from __future__ import annotations

from functools import lru_cache, partial
from operator import attrgetter
from typing import Callable, Optional

from repro.errors import (
    WolframAbort,
    WolframIterationError,
    WolframRecursionError,
)
from repro.engine.attributes import (
    FLAT,
    HOLD_ALL,
    HOLD_ALL_COMPLETE,
    HOLD_FIRST,
    HOLD_REST,
    LISTABLE,
    ORDERLESS,
    SEQUENCE_HOLD,
)
from repro.engine.controlflow import ReturnSignal, ThrowSignal
from repro.engine.definitions import KernelState
from repro.engine.patterns import match, substitute
from repro.mexpr.atoms import MComplex, MInteger, MReal, MString, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.parser import parse
from repro.mexpr.symbols import S, head_name, is_head
from repro.observe import trace as _trace
from repro.runtime.guard import CHECKPOINT as _CHECKPOINT, AbortFlag
from repro.runtime.guard import _tls as _guard_tls, checkpoint as _checkpoint

_EVALUATED_STAMP = "$evalv"
_OVERFLOW_MESSAGE = "General::ovfl: Overflow occurred in computation."

#: nominal bytes charged per evaluated expression node (head + arg slots);
#: only an accounting unit for MemoryConstrained, not real allocation
_NODE_BYTES = 32
_SLOT_BYTES = 16


class _Plan:
    """What an attribute set (and a builtin's numeric fold) asks of one
    evaluation step, resolved once.

    The step reads these fields instead of putting the same membership
    questions to the frozenset for every node it visits.
    """

    __slots__ = ("hold_first", "hold_rest", "pierce", "flat", "orderless",
                 "listable", "splice", "fold")

    def __init__(self, attributes: frozenset[str], fold=None):
        #: the builtin's numeric core over machine-number arguments, or
        #: ``None`` (see the fold in :meth:`Evaluator.evaluate`)
        self.fold = fold
        hold_all = HOLD_ALL in attributes or HOLD_ALL_COMPLETE in attributes
        #: is the first / is every later argument left unevaluated?
        self.hold_first = hold_all or HOLD_FIRST in attributes
        self.hold_rest = hold_all or HOLD_REST in attributes
        #: does ``Evaluate[x]`` pierce the hold?
        self.pierce = HOLD_ALL_COMPLETE not in attributes
        self.flat = FLAT in attributes
        self.orderless = ORDERLESS in attributes
        self.listable = LISTABLE in attributes
        #: are ``Sequence`` arguments spliced in?
        self.splice = not (
            SEQUENCE_HOLD in attributes or HOLD_ALL_COMPLETE in attributes
        )


#: one plan per distinct (attribute set, fold) in the process (a pure
#: function of the pair; at most a few dozen ever exist)
_plan_for = lru_cache(maxsize=None)(_Plan)

_NO_ATTRIBUTES = _plan_for(frozenset())

#: the concrete self-evaluating atom classes, for one set probe where a
#: subclass-proof ``isinstance`` would be a call per leaf
_LEAF_TYPES = frozenset({MInteger, MReal, MString, MComplex})
#: what is *not* a leaf, subclasses included
_NODE_TYPES = (MSymbol, MExprNormal)

#: the canonical order of numbers (see :func:`canonical_order_key`)
_NUMBER_VALUE = attrgetter("value")


class Evaluator:
    """One interpreter session over a :class:`KernelState`."""

    def __init__(
        self,
        recursion_limit: int = 1024,
        iteration_limit: int = 4096,
        state: Optional[KernelState] = None,
    ):
        #: ``state`` lets a host supply a prepared table — the multi-tenant
        #: server passes an overlay over its shared warmed base image
        self.state = state if state is not None else KernelState()
        self.recursion_limit = recursion_limit
        self.iteration_limit = iteration_limit
        self._depth = 0
        #: the user abort interrupt (F3), bound into the checkpoints of this
        #: session and of every compiled tier it hosts
        self.abort_flag = AbortFlag()
        # evaluation steps are not fault-injection sites
        self._check_abort = partial(_checkpoint, self.abort_flag, None, None)
        self._messages: list[str] = []
        #: hook the compiler installs so ``FunctionCompile`` etc. work inline
        self.extensions: dict[str, Callable] = {}
        #: profile-guided tier-up profiler; ``None`` on bare evaluators, set
        #: by :func:`repro.compiler.install_engine_support`
        self.hotspot = None
        #: head name -> :class:`_Plan`, valid for one
        #: ``state.attributes_version`` (only ``SetAttributes``/``ClearAll``
        #: move it).  Held here, not on the ``Definition``: base-image
        #: definitions are shared by every session of a server
        self._plans: dict[str, _Plan] = {}
        self._plans_version = self.state.attributes_version
        #: the last fixed-point copy :meth:`evaluate` returned for the very
        #: node it was given (see there); how a parent step learns that an
        #: argument came back unchanged without comparing structures
        self._unchanged: Optional[MExpr] = None
        from repro.engine.builtins import BUILTINS, HEAD_APPLICATORS
        from repro.engine.builtins.functional import apply_function

        self._builtins = BUILTINS
        self._head_applicators = HEAD_APPLICATORS
        self._apply_function = apply_function

    # -- public API ----------------------------------------------------------

    def run(self, source: str) -> MExpr:
        """Parse and evaluate Wolfram source text (one expression)."""
        return self.evaluate_protected(parse(source))

    def evaluate_protected(self, expression: MExpr) -> MExpr:
        """Evaluate, converting an abort into the ``$Aborted`` sentinel."""
        tracer = _trace.TRACER
        if tracer is None:
            return self._evaluate_protected(expression)
        with tracer.span(
            "eval.evaluate",
            "evaluator",
            head=head_name(expression) or type(expression).__name__,
        ):
            return self._evaluate_protected(expression)

    def _evaluate_protected(self, expression: MExpr) -> MExpr:
        try:
            return self.evaluate(expression)
        except WolframAbort:
            self.abort_flag.set(False)
            return MSymbol("$Aborted")
        except (ReturnSignal, ThrowSignal) as signal:
            return signal.value

    def request_abort(self) -> None:
        """Trigger the user abort interrupt (feature F3); thread-safe."""
        self.abort_flag.set(True)

    def abort_pending(self) -> bool:
        return self.abort_flag.pending

    def clear_abort(self) -> None:
        self.abort_flag.set(False)

    def message(self, text: str) -> None:
        self._messages.append(text)

    @property
    def messages(self) -> list[str]:
        return self._messages

    # -- the evaluation loop ---------------------------------------------------

    def evaluate(self, expression: MExpr) -> MExpr:
        """Evaluate ``expression`` to its fixed point.

        One frame per node in the common case.  The cost model (DESIGN §4):

        * every node the seed evaluator would have entered ``evaluate`` for
          is still **one checkpoint poll** — a guard is charged the same
          steps — but a leaf (a non-symbol atom, a symbol without an
          OwnValue) is polled inline by its parent's step and never gets a
          frame, a depth count or a trip round the fixed-point loop;
        * what a head's attributes ask of the step is a :class:`_Plan`
          looked up by name; one pass over the arguments evaluates them and
          notes what it saw, so flattening, ``Sequence`` splicing and
          ``Listable`` threading run only when there is something to do;
        * a node whose head and arguments all came back unchanged *is* a
          fixed point — no hash, no structural comparison.  Its evaluated
          copy is stamped and returned (never the caller's own node:
          stamping that would change which later evaluations stop at a
          stamp), and ``self._unchanged`` names that copy so the parent's
          step can tell "an equal copy" from "something else".
        """
        if _CHECKPOINT[0]:
            self._check_abort()
        kind = type(expression)
        if kind is not MExprNormal and kind is not MSymbol and (
            kind in _LEAF_TYPES or not isinstance(expression, _NODE_TYPES)
        ):
            return expression  # a non-symbol atom is its own value
        if self._depth >= self.recursion_limit:
            raise self._recursion_limit_exceeded()
        state = self.state
        lookup = state.lookup
        if kind is MSymbol:
            definition = lookup(expression.name)
            if definition is None or not definition.has_own_value:
                return expression
        self._depth += 1
        #: an inline leaf at this depth is where the seed's own
        #: ``evaluate`` frame would have tripped $RecursionLimit
        at_limit = self._depth >= self.recursion_limit
        tracer = _trace.TRACER  # one attribute load; None on the fast path
        try:
            current = expression
            for _ in range(self.iteration_limit):
                if type(current) is not MExprNormal:
                    if not isinstance(current, MSymbol):
                        if current.is_atom():
                            return current
                    else:
                        name = current.name
                        definition = lookup(name)
                        if definition is None or not definition.has_own_value:
                            return current
                        if tracer is not None:
                            tracer.metrics.count("eval.fixed_point_iterations")
                        # the next trip evaluates the OwnValue
                        result = definition.own_value
                        if isinstance(result, MSymbol):
                            if result.name == name:
                                return result  # ``x = x``
                        elif result.is_atom():
                            return result
                        current = result
                        continue

                properties = current._properties
                if (
                    properties is not None
                    and properties.get(_EVALUATED_STAMP) == state.state_version
                ):
                    if current is not expression:
                        self._unchanged = None
                    return current
                if tracer is not None:
                    tracer.metrics.count("eval.fixed_point_iterations")

                # -- the head ------------------------------------------------
                unchanged = True  # head and arguments all came back as given
                head = given = current.head
                kind = type(head)
                name = None
                if kind is MSymbol:
                    name = head.name
                    definition = lookup(name)
                    if definition is None or not definition.has_own_value:
                        if _CHECKPOINT[0]:
                            self._check_abort()
                        if at_limit:
                            raise self._recursion_limit_exceeded()
                    else:
                        head = self.evaluate(head)
                        unchanged = False
                        name = head.name if type(head) is MSymbol else None
                elif kind in _LEAF_TYPES or not isinstance(head, _NODE_TYPES):
                    if _CHECKPOINT[0]:
                        self._check_abort()
                else:
                    head = self.evaluate(head)
                    if head is not given and head is not self._unchanged:
                        unchanged = False
                    if isinstance(head, MSymbol):
                        name = head.name

                if name is None:
                    plan = _NO_ATTRIBUTES
                else:
                    if state.attributes_version != self._plans_version:
                        self._plans.clear()
                        self._plans_version = state.attributes_version
                    plan = self._plans.get(name)
                    if plan is None:
                        builtin = self._builtins.get(name)
                        plan = self._plans[name] = _plan_for(
                            self._attributes_of(head),
                            builtin.fold if builtin is not None else None,
                        )

                # -- one pass over the arguments -------------------------------
                # evaluates the unheld ones and records what it saw
                values: list[MExpr] = []
                append = values.append
                held, hold_rest = plan.hold_first, plan.hold_rest
                saw_sequence = saw_list = saw_nested = False
                for argument in current.args:
                    kind = type(argument)
                    value = argument
                    if held:
                        if (
                            kind is MExprNormal
                            and plan.pierce
                            and len(argument.args) == 1
                            and isinstance(argument.head, MSymbol)
                            and argument.head.name == "Evaluate"
                        ):
                            # Evaluate[...] pierces holds (but not
                            # HoldAllComplete)
                            value = self.evaluate(argument.args[0])
                            unchanged = False
                    elif kind is MSymbol:
                        definition = lookup(argument.name)
                        if definition is None or not definition.has_own_value:
                            if _CHECKPOINT[0]:
                                self._check_abort()
                            if at_limit:
                                raise self._recursion_limit_exceeded()
                        else:
                            value = self.evaluate(argument)
                            unchanged = False
                    elif kind in _LEAF_TYPES or (
                        kind is not MExprNormal
                        and not isinstance(argument, _NODE_TYPES)
                    ):
                        if _CHECKPOINT[0]:
                            self._check_abort()
                    else:
                        value = self.evaluate(argument)
                        if value is not argument and (
                            value is not self._unchanged
                        ):
                            unchanged = False
                    held = hold_rest
                    append(value)
                    if type(value) is MExprNormal:
                        value_head = value.head
                        if type(value_head) is MSymbol:
                            value_name = value_head.name
                            if value_name == "Sequence":
                                saw_sequence = True
                            elif value_name == "List":
                                saw_list = True
                            if value_name == name:
                                saw_nested = True

                # -- machine numbers: the builtin's numeric core, here --------
                # every argument exactly an MInteger or MReal and no user
                # DownValues: the atom the builtin would return, without the
                # order keys, the sort, the rebuilt node and the dispatch it
                # took to get there (flattening, splicing and threading have
                # nothing to do on such arguments).  IEEE + and * commute, so
                # only three or more operands with a real among them are put
                # in canonical order — for numbers, a stable sort by value.
                charged = False
                fold = plan.fold
                if fold is not None:
                    reals = False
                    for value in values:
                        kind = type(value)
                        if kind is MReal:
                            reals = True
                        elif kind is not MInteger:
                            break
                    else:
                        definition = lookup(name)
                        if definition is None or not definition.down_values:
                            guard = _guard_tls.top
                            if guard is not None:
                                guard.charge_memory(
                                    _NODE_BYTES + _SLOT_BYTES * len(values)
                                )
                                charged = True
                            try:
                                result = fold(
                                    sorted(values, key=_NUMBER_VALUE)
                                    if reals and plan.orderless
                                    and len(values) > 2
                                    else values
                                )
                            except OverflowError:
                                result = None  # the builtin reports it
                            if result is not None:
                                if type(result) is not MSymbol:
                                    return result
                                current = result  # True, False: one more trip
                                continue

                # -- canonical form, only where the pass saw a reason ---------
                if saw_nested and plan.flat:
                    values = self._flatten(name, values)
                    unchanged = False
                    # the spliced-in arguments were not seen by the pass
                    saw_sequence = saw_list = True
                if plan.orderless and len(values) > 1:
                    keys = [
                        value._okey or _build_order_key(value)
                        for value in values
                    ]
                    order = sorted(range(len(keys)), key=keys.__getitem__)
                    if order != list(range(len(keys))):
                        values = [values[index] for index in order]
                        unchanged = False
                if saw_sequence and plan.splice:
                    spliced = self._splice_sequences(values)
                    if spliced is not values:
                        values = spliced
                        unchanged = False
                        saw_list = True

                guard = _guard_tls.top
                if guard is not None and not charged:
                    guard.charge_memory(
                        _NODE_BYTES + _SLOT_BYTES * len(values)
                    )

                # -- a promoted definition: the gate and the native call, on
                # the arguments as they stand (no node is built for them)
                result = rebuilt = None
                hotspot = self.hotspot
                if (
                    hotspot is not None
                    and name in hotspot.promoted
                    and not (saw_list and plan.listable)
                ):
                    definition = lookup(name)
                    if definition is not None and definition.down_values:
                        result = hotspot.dispatch(
                            self, name, definition, values
                        )

                if result is None:
                    rebuilt = MExprNormal(head, values)
                    if saw_list and plan.listable:
                        result = self._thread_listable(rebuilt)
                if result is None and name is not None:
                    # User DownValues take precedence over builtins, so users
                    # can redefine (unprotected) behaviour — and the engine's
                    # own library functions (FindRoot's method steps etc.)
                    # are definable in-language.
                    definition = lookup(name)
                    if definition is not None and definition.down_values:
                        result = self._apply_down_values(
                            name, definition, rebuilt
                        )
                    if result is None:
                        builtin = self._builtins.get(name)
                        if builtin is not None:
                            try:
                                result = builtin.func(self, rebuilt)
                            except OverflowError:
                                # past the machine range: stays unevaluated
                                self.message(_OVERFLOW_MESSAGE)
                elif result is None and not head.is_atom():
                    head_head = head.head
                    if isinstance(head_head, MSymbol):
                        # a Function head beta-reduces; CompiledFunction[k],
                        # CompiledCodeFunction[k] and friends have registered
                        # applicators — how both compilers integrate with
                        # the interpreter (F1)
                        if head_head.name == "Function":
                            result = self._apply_function(self, head, values)
                        if result is None:
                            applicator = self._head_applicators.get(
                                head_head.name
                            )
                            if applicator is not None:
                                result = applicator(self, head, values)

                if result is None or result is rebuilt:
                    # inert: nothing rewrote the node this trip
                    result = rebuilt
                    fixed = unchanged
                else:
                    fixed = False
                if not fixed:
                    # type and arity decide most inequalities before a hash
                    # has to build either structure key
                    kind = type(result)
                    if kind is not MExprNormal:
                        if kind in _LEAF_TYPES or (
                            not isinstance(result, MSymbol)
                            and result.is_atom()
                        ):
                            return result  # ``3`` is ``3``: no second trip
                    elif (
                        len(result.args) == len(current.args)
                        and hash(result) == hash(current)
                        and result == current
                    ):
                        fixed = True
                if fixed:
                    if result._properties is None:
                        result._properties = {
                            _EVALUATED_STAMP: state.state_version
                        }
                    else:
                        result._properties[_EVALUATED_STAMP] = (
                            state.state_version
                        )
                    self._unchanged = (
                        result if current is expression else None
                    )
                    return result
                current = result
            raise WolframIterationError(
                f"$IterationLimit of {self.iteration_limit} exceeded while "
                f"evaluating {head_name(expression) or expression}"
            )
        finally:
            self._depth -= 1

    def _recursion_limit_exceeded(self) -> WolframRecursionError:
        return WolframRecursionError(
            f"$RecursionLimit of {self.recursion_limit} exceeded"
        )

    def _attributes_of(self, head: MExpr) -> frozenset[str]:
        """The attribute set in force for ``head`` (user-set attributes
        shadow a builtin's)."""
        if not isinstance(head, MSymbol):
            return frozenset()
        definition = self.state.lookup(head.name)
        if definition is not None and definition.attributes:
            return definition.attributes
        builtin = self._builtins.get(head.name)
        return builtin.attributes if builtin is not None else frozenset()

    # -- the flagged branches of the step ----------------------------------------

    @staticmethod
    def _flatten(head_name_: str, arguments: list[MExpr]) -> list[MExpr]:
        flat: list[MExpr] = []
        for argument in arguments:
            if is_head(argument, head_name_):
                flat.extend(argument.args)
            else:
                flat.append(argument)
        return flat

    @staticmethod
    def _splice_sequences(arguments: list[MExpr]) -> list[MExpr]:
        """``arguments`` itself when it holds no ``Sequence``."""
        if not any(is_head(a, "Sequence") for a in arguments):
            return arguments
        spliced: list[MExpr] = []
        for argument in arguments:
            if is_head(argument, "Sequence"):
                spliced.extend(argument.args)
            else:
                spliced.append(argument)
        return spliced

    def _thread_listable(self, expression: MExprNormal) -> Optional[MExpr]:
        lengths = {
            len(a.args) for a in expression.args if is_head(a, "List")
        }
        if not lengths:
            return None
        if len(lengths) != 1:
            self.message("Thread: lists of unequal length")
            return None
        (length,) = lengths
        rows: list[MExpr] = []
        for index in range(length):
            row_args = [
                a.args[index] if is_head(a, "List") else a
                for a in expression.args
            ]
            rows.append(MExprNormal(expression.head, row_args))
        return self.evaluate(MExprNormal(S.List, rows))

    def _apply_down_values(
        self, name: str, definition, expression: MExprNormal
    ) -> Optional[MExpr]:
        hotspot = self.hotspot
        for down_value in definition.dispatch_index().candidates(expression):
            bindings = match(down_value.lhs, expression, evaluator=self)
            if bindings is not None:
                if hotspot is not None:
                    hotspot.record(self, name, definition, expression)
                tracer = _trace.TRACER
                if tracer is not None:
                    tracer.metrics.count("eval.rule_applications")
                return substitute(down_value.rhs, bindings)
        return None


def _build_order_key(expression: MExpr) -> tuple:
    """Build, cache on the node and return the canonical ordering key; see
    :func:`canonical_order_key` for its shape."""
    if isinstance(expression, (MInteger, MReal)):
        key = (0, expression.value, "", ())
    elif isinstance(expression, MString):
        key = (1, 0, expression.value, ())
    elif isinstance(expression, MSymbol):
        key = (2, 0, expression.name, ())
    elif isinstance(expression, MComplex):  # tier 3, ordered by (re, im)
        value = expression.value
        key = (
            3,
            -1,
            "",
            ((0, value.real, "", ()), (0, value.imag, "", ())),
        )
    elif expression.is_atom():  # future atom types: by structure key text
        key = (3, -2, repr(expression.structure_key()), ())
    else:
        key = (
            3,
            len(expression.args),
            "",
            (
                canonical_order_key(expression.head),
                *(canonical_order_key(a) for a in expression.args),
            ),
        )
    expression._okey = key
    return key


def canonical_order_key(expression: MExpr) -> tuple:
    """Canonical (Orderless) ordering: numbers, strings, symbols, normals.

    Keys are structural, cached per node, and shape-uniform —
    ``(tier, numeric, text, children)`` — so comparing any two keys never
    mixes types within a tuple slot.  Numbers sort by value (exact integer
    values, no lossy ``float`` conversion), then strings, then symbols by
    name, then normal expressions by argument count and recursively by
    head/argument keys.  Unlike the historical ``full_form``-string
    comparator this orders ``f[2]`` before ``f[10]``.
    """
    return expression._okey or _build_order_key(expression)


#: historical name, still imported by builtins (Sort, SortBy)
_canonical_order_key = canonical_order_key
