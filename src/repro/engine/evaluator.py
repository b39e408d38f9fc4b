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

from functools import partial
from typing import Callable, Optional

from repro.errors import (
    WolframAbort,
    WolframIterationError,
    WolframRecursionError,
)
from repro.engine.attributes import (
    FLAT,
    HOLD_ALL_COMPLETE,
    LISTABLE,
    ORDERLESS,
    held_argument_indices,
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

#: nominal bytes charged per evaluated expression node (head + arg slots);
#: only an accounting unit for MemoryConstrained, not real allocation
_NODE_BYTES = 32
_SLOT_BYTES = 16


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
        #: per-``state_version`` attribute lookup cache (symbol name ->
        #: attribute set); definitions change rarely relative to dispatches
        self._attr_cache: dict[str, frozenset[str]] = {}
        self._attr_version = -1
        from repro.engine.builtins import BUILTINS

        self._builtins = BUILTINS

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
        if _CHECKPOINT[0]:
            self._check_abort()
        # Non-symbol atoms are self-evaluating; skip the fixed-point loop
        # entirely.  (Symbols may have OwnValues, so they take the full path.)
        # This sits after the checkpoint so step budgets charge as before.
        if expression.is_atom() and not isinstance(expression, MSymbol):
            return expression
        if self._depth >= self.recursion_limit:
            raise WolframRecursionError(
                f"$RecursionLimit of {self.recursion_limit} exceeded"
            )
        self._depth += 1
        tracer = _trace.TRACER  # one attribute load; None on the fast path
        try:
            current = expression
            for _ in range(self.iteration_limit):
                if self._is_stamped(current):
                    return current
                if tracer is not None:
                    tracer.metrics.count("eval.fixed_point_iterations")
                result = self._evaluate_once(current)
                # cheap checks first: identity, then (cached) hashes — a hash
                # mismatch proves inequality without walking either tree
                if result is current or (
                    hash(result) == hash(current) and result == current
                ):
                    self._stamp(result)
                    return result
                current = result
            raise WolframIterationError(
                f"$IterationLimit of {self.iteration_limit} exceeded while "
                f"evaluating {head_name(expression) or expression}"
            )
        finally:
            self._depth -= 1

    def _is_stamped(self, expression: MExpr) -> bool:
        return (
            expression.get_property(_EVALUATED_STAMP) == self.state.state_version
        )

    def _stamp(self, expression: MExpr) -> None:
        if not expression.is_atom():
            expression.set_property(_EVALUATED_STAMP, self.state.state_version)

    def _evaluate_once(self, expression: MExpr) -> MExpr:
        if isinstance(expression, MSymbol):
            return self._evaluate_symbol(expression)
        if expression.is_atom():
            return expression

        head = self.evaluate(expression.head)
        attributes = self._attributes_of(head)

        arguments = self._evaluate_arguments(expression.args, attributes)
        if FLAT in attributes and isinstance(head, MSymbol):
            arguments = self._flatten(head.name, arguments)
        if ORDERLESS in attributes:
            arguments = sorted(arguments, key=canonical_order_key)
        arguments = self._splice_sequences(head, attributes, arguments)

        rebuilt = MExprNormal(head, arguments)
        guard = _guard_tls.top
        if guard is not None:
            guard.charge_memory(_NODE_BYTES + _SLOT_BYTES * len(arguments))

        if LISTABLE in attributes:
            threaded = self._thread_listable(rebuilt)
            if threaded is not None:
                return threaded

        # User DownValues take precedence over builtins, so users can
        # redefine (unprotected) behaviour — and the engine's own library
        # functions (FindRoot's method steps etc.) are definable in-language.
        if isinstance(head, MSymbol):
            applied = self._apply_down_values(head.name, rebuilt)
            if applied is not None:
                return applied
            builtin = self._builtins.get(head.name)
            if builtin is not None:
                result = builtin.func(self, rebuilt)
                if result is not None:
                    return result

        # Expression with a Function head: beta-reduce.
        if is_head(head, "Function") or (
            not head.is_atom() and is_head(head.head, "Function")
        ):
            from repro.engine.builtins.functional import apply_function

            reduced = apply_function(self, head, arguments)
            if reduced is not None:
                return reduced

        # Non-symbol heads with registered applicators: CompiledFunction[k],
        # CompiledCodeFunction[k] — this is how both compilers integrate with
        # the interpreter (F1).
        if not head.is_atom():
            from repro.engine.builtins import HEAD_APPLICATORS

            applicator = HEAD_APPLICATORS.get(head_name(head))
            if applicator is not None:
                result = applicator(self, head, arguments)
                if result is not None:
                    return result

        return rebuilt

    def _evaluate_symbol(self, symbol: MSymbol) -> MExpr:
        definition = self.state.lookup(symbol.name)
        if definition is not None and definition.has_own_value:
            return definition.own_value  # next fixed-point pass re-evaluates
        return symbol

    def _attributes_of(self, head: MExpr) -> frozenset[str]:
        if not isinstance(head, MSymbol):
            return frozenset()
        version = self.state.state_version
        if version != self._attr_version:
            self._attr_cache.clear()
            self._attr_version = version
        name = head.name
        cached = self._attr_cache.get(name)
        if cached is not None:
            return cached
        definition = self.state.lookup(name)
        if definition is not None and definition.attributes:
            attributes = definition.attributes
        else:
            builtin = self._builtins.get(name)
            attributes = (
                builtin.attributes if builtin is not None else frozenset()
            )
        self._attr_cache[name] = attributes
        return attributes

    def _evaluate_arguments(
        self, arguments: tuple[MExpr, ...], attributes: frozenset[str]
    ) -> list[MExpr]:
        held = held_argument_indices(attributes, len(arguments))
        out: list[MExpr] = []
        for index, argument in enumerate(arguments):
            if index in held:
                # Evaluate[...] pierces holds (but not HoldAllComplete).
                if (
                    HOLD_ALL_COMPLETE not in attributes
                    and is_head(argument, "Evaluate")
                    and len(argument.args) == 1
                ):
                    out.append(self.evaluate(argument.args[0]))
                else:
                    out.append(argument)
            else:
                out.append(self.evaluate(argument))
        return out

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
    def _splice_sequences(
        head: MExpr, attributes: frozenset[str], arguments: list[MExpr]
    ) -> list[MExpr]:
        if "SequenceHold" in attributes or HOLD_ALL_COMPLETE in attributes:
            return arguments
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
        self, name: str, expression: MExprNormal
    ) -> Optional[MExpr]:
        definition = self.state.lookup(name)
        if definition is None or not definition.down_values:
            return None
        hotspot = self.hotspot
        if hotspot is not None:
            promoted = hotspot.dispatch(self, name, definition, expression)
            if promoted is not None:
                return promoted
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
    """Build the canonical ordering key (uncached); see below for shape."""
    if isinstance(expression, MInteger):
        return (0, expression.value, "", ())
    if isinstance(expression, MReal):
        return (0, expression.value, "", ())
    if isinstance(expression, MString):
        return (1, 0, expression.value, ())
    if isinstance(expression, MSymbol):
        return (2, 0, expression.name, ())
    if isinstance(expression, MComplex):  # tier 3, ordered by (re, im)
        value = expression.value
        return (
            3,
            -1,
            "",
            ((0, value.real, "", ()), (0, value.imag, "", ())),
        )
    if expression.is_atom():  # future atom types: order by structure key text
        return (3, -2, repr(expression.structure_key()), ())
    return (
        3,
        len(expression.args),
        "",
        (
            canonical_order_key(expression.head),
            *(canonical_order_key(a) for a in expression.args),
        ),
    )


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
    key = expression._okey
    if key is None:
        key = expression._okey = _build_order_key(expression)
    return key


#: historical name, still imported by builtins (Sort, SortBy)
_canonical_order_key = canonical_order_key
