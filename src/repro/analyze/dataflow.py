"""Worklist abstract interpretation over the WIR CFG/SSA.

The compiled tier pays for safety instruction-by-instruction: every
Integer64 ``Plus`` carries a two-comparison overflow guard, every ``Part``
a sign/range predicate, every loop iteration an abort checkpoint.  This
module computes facts strong enough to *delete* those checks soundly,
with three abstract domains over one engine:

**Int64 intervals with overflow tracking**
    every SSA value gets an :class:`Interval` ``[lo, hi]`` over the
    mathematical integers (``None`` = unbounded).  Checked arithmetic
    traps on overflow (and unchecked arithmetic is unchecked because it
    was proven not to), so its *result* is clamped into the Integer64
    range; the *unclamped* abstract result of an operation decides
    whether the check can go — ``fits_int64`` on the exact sum/product
    is precisely "this guard can never fire".

**Tensor shape/rank facts**
    constant packed arrays carry their exact dims; ``tensor_length`` of
    a shape-known tensor folds to a constant interval, and any length is
    bounded by :data:`LENGTH_BOUND` (a tensor with more than 2^48
    elements does not fit in memory — the same argument the paper's
    redundant-check removal leans on).

**Purity/effect lattice**
    ``pure < local < effectful`` per function: pure primitives only,
    local allocation/mutation, or calls whose effects we cannot see.
    Statically bounded loops of local effect are the ones whose abort
    checkpoints may be coalesced into the enclosing checkpoint.

The engine is an optimistic ascending Kleene iteration in reverse
postorder with per-value widening (a bound that keeps moving is dropped
to infinity after :data:`WIDEN_AFTER` updates), followed by a *branch
refinement* pass: a block whose single predecessor branches into it on a
comparison inherits the comparison as a fact, both numerically and
symbolically (``i <= Length[v] - 1`` records the base value and offset,
so ``v[[i + 1]]`` later proves ``index <= Length[v]``).  Refinements are
valid throughout the refined block's dominator subtree — SSA values are
immutable, so a fact learned on an edge holds wherever that edge
dominates.

Facts are exposed as a :class:`FunctionFacts` per function, collected
into a :class:`FactMap` attached to ``program.metadata["dataflow"]`` by
the pipeline.  Consumers: the check-elision and checkpoint-coalescing
passes (:mod:`repro.compiler.twir.check_elision`), the verifier's
fact-consistency rules (:mod:`repro.analyze.verify`), and the lint
interval checks (:mod:`repro.analyze.lint`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.compiler.wir.analysis import CFG
from repro.compiler.wir.function_module import FunctionModule, ProgramModule
from repro.compiler.wir.instructions import (
    BranchInstr,
    BuildListInstr,
    CallFunctionInstr,
    CallIndirectInstr,
    CallPrimitiveInstr,
    ConstantInstr,
    CopyInstr,
    KernelCallInstr,
    LoadArgumentInstr,
    PhiInstr,
    Value,
)
from repro.runtime.checked import INT64_MAX, INT64_MIN

#: no packed array holds more than 2^48 elements (memory argument); any
#: length-like value is bounded by this even when its tensor is unknown
LENGTH_BOUND = 1 << 48

#: a value whose interval is still tightening after this many updates is
#: widened (the moving bound drops to unbounded)
WIDEN_AFTER = 12

#: statically bounded loops below this trip count may coalesce their
#: abort checkpoint into the enclosing one (the prologue checkpoint and
#: any outer loop's checkpoint still poll)
COALESCE_TRIP_LIMIT = 1 << 14

EFFECT_PURE = "pure"
EFFECT_LOCAL = "local"
EFFECT_EFFECTFUL = "effectful"
_EFFECT_ORDER = {EFFECT_PURE: 0, EFFECT_LOCAL: 1, EFFECT_EFFECTFUL: 2}


# -- the interval domain -----------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A closed integer interval; ``None`` bounds are unbounded."""

    lo: Optional[int] = None
    hi: Optional[int] = None

    @staticmethod
    def const(value: int) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def top() -> "Interval":
        return TOP

    @property
    def is_top(self) -> bool:
        return self.lo is None and self.hi is None

    @property
    def is_empty(self) -> bool:
        return (
            self.lo is not None and self.hi is not None and self.lo > self.hi
        )

    @property
    def is_constant(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, value: int) -> bool:
        if self.is_empty:
            return False
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def fits_int64(self) -> bool:
        """Every concrete value this interval admits is an Integer64 —
        i.e. a checked operation producing it can never trap."""
        if self.is_empty:
            return True
        return (
            self.lo is not None and self.hi is not None
            and self.lo >= INT64_MIN and self.hi <= INT64_MAX
        )

    def clamp_int64(self) -> "Interval":
        """The result of a *checked* op: values outside Integer64 trap,
        so the surviving result is the intersection with the range."""
        return self.intersect(Interval(INT64_MIN, INT64_MAX))

    # -- arithmetic transfer -------------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY
        lo = (
            self.lo + other.lo
            if self.lo is not None and other.lo is not None else None
        )
        hi = (
            self.hi + other.hi
            if self.hi is not None and other.hi is not None else None
        )
        return Interval(lo, hi)

    def subtract(self, other: "Interval") -> "Interval":
        return self.add(other.negate())

    def negate(self) -> "Interval":
        if self.is_empty:
            return EMPTY
        return Interval(
            -self.hi if self.hi is not None else None,
            -self.lo if self.lo is not None else None,
        )

    def multiply(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY
        inf = float("inf")

        def ext(bound, sign):
            return sign * inf if bound is None else bound

        def mul(a, b):
            # bound candidates: inf * 0 contributes 0 (the finite factor
            # pins the product when the other side's mass sits at zero)
            if a in (inf, -inf) and b == 0:
                return 0
            if b in (inf, -inf) and a == 0:
                return 0
            return a * b

        candidates = [
            mul(a, b)
            for a in (ext(self.lo, -1), ext(self.hi, 1))
            for b in (ext(other.lo, -1), ext(other.hi, 1))
        ]
        lo, hi = min(candidates), max(candidates)
        return Interval(
            None if lo == -inf else int(lo),
            None if hi == inf else int(hi),
        )

    def bit_and(self, other: "Interval") -> "Interval":
        """``a & b`` keeps only bits of a non-negative operand, so it lies
        between 0 and the smaller such operand; with a negative on both
        sides nothing is known."""
        if self.is_empty or other.is_empty:
            return EMPTY
        his = [i.hi for i in (self, other) if i.lo is not None and i.lo >= 0]
        if not his:
            return TOP
        known = [hi for hi in his if hi is not None]
        return Interval(0, min(known) if known else None)

    def bit_xor(self, other: "Interval") -> "Interval":
        """Non-negative ``a ^ b`` sets no bit above the highest bit of
        either: it stays below the next power of two."""
        if self.is_empty or other.is_empty:
            return EMPTY
        if (
            self.lo is None or self.lo < 0 or other.lo is None
            or other.lo < 0 or self.hi is None or other.hi is None
        ):
            return TOP
        return Interval(0, (1 << max(self.hi, other.hi).bit_length()) - 1)

    def mod(self, divisor: "Interval") -> "Interval":
        """``Mod[a, b]`` for ``b >= 1`` lies in ``[0, b - 1]``."""
        if divisor.lo is not None and divisor.lo >= 1 \
                and divisor.hi is not None:
            return Interval(0, divisor.hi - 1)
        return TOP

    def quotient(self, divisor: "Interval") -> "Interval":
        """``Quotient[a, b]`` of ``a >= 0`` by ``b >= 1`` is at most ``a``."""
        if self.lo is not None and self.lo >= 0 \
                and divisor.lo is not None and divisor.lo >= 1:
            return Interval(0, self.hi)
        return TOP

    def minimum(self, other: "Interval") -> "Interval":
        # lo: min of lows (-inf absorbs); hi: min of his (+inf neutral)
        lo = None if self.lo is None or other.lo is None \
            else min(self.lo, other.lo)
        his = [h for h in (self.hi, other.hi) if h is not None]
        return Interval(lo, min(his) if his else None)

    def maximum(self, other: "Interval") -> "Interval":
        los = [x for x in (self.lo, other.lo) if x is not None]
        hi = None if self.hi is None or other.hi is None \
            else max(self.hi, other.hi)
        return Interval(max(los) if los else None, hi)

    def absolute(self) -> "Interval":
        if self.lo is None or self.hi is None:
            return Interval(0, None)
        return Interval(
            max(0, self.lo) if self.lo >= 0 else (
                0 if self.hi >= 0 else -self.hi
            ),
            max(abs(self.lo), abs(self.hi)),
        )

    def sign(self) -> "Interval":
        return Interval(-1, 1)

    # -- lattice operations --------------------------------------------------

    def union(self, other: "Interval") -> "Interval":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        lo = (
            min(self.lo, other.lo)
            if self.lo is not None and other.lo is not None else None
        )
        hi = (
            max(self.hi, other.hi)
            if self.hi is not None and other.hi is not None else None
        )
        return Interval(lo, hi)

    def intersect(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY
        if self.lo is None:
            lo = other.lo
        elif other.lo is None:
            lo = self.lo
        else:
            lo = max(self.lo, other.lo)
        if self.hi is None:
            hi = other.hi
        elif other.hi is None:
            hi = self.hi
        else:
            hi = min(self.hi, other.hi)
        if lo is not None and hi is not None and lo > hi:
            return EMPTY
        return Interval(lo, hi)

    def widen(self, newer: "Interval") -> "Interval":
        """Standard interval widening: a bound ``newer`` moved past drops
        to unbounded; a stable bound survives."""
        if self.is_empty:
            return newer
        if newer.is_empty:
            return self
        lo = (
            self.lo
            if self.lo is not None and newer.lo is not None
            and newer.lo >= self.lo else None
        )
        hi = (
            self.hi
            if self.hi is not None and newer.hi is not None
            and newer.hi <= self.hi else None
        )
        return Interval(lo, hi)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


TOP = Interval(None, None)
EMPTY = Interval(1, 0)
INT64_RANGE = Interval(INT64_MIN, INT64_MAX)
LENGTH_RANGE = Interval(0, LENGTH_BOUND)


# -- shape and loop facts ----------------------------------------------------


@dataclass(frozen=True)
class ShapeFact:
    """Rank and (partially) known dims of a packed-array value."""

    rank: Optional[int] = None
    dims: Optional[tuple] = None  # tuple[Optional[int], ...]

    def length(self) -> Optional[int]:
        if self.dims and self.dims[0] is not None:
            return self.dims[0]
        return None


@dataclass
class LoopFact:
    """A natural loop's statically derived execution facts."""

    header: str
    body: frozenset
    counter: Optional[int] = None  # SSA id of the governing counter phi
    trip_bound: Optional[int] = None  # max iterations, when provable
    innermost: bool = False
    effect_local: bool = True  # no calls with unknown effects inside


# -- per-function fact bundle ------------------------------------------------

#: the transfers of Integer64 ``Plus``/``Subtract``, checked or unchecked:
#: what symbolic bounds and loop counters shift by a constant
_ADDITIVE = ("add", "subtract")
#: and with ``Times``: what :meth:`FunctionFacts.interval_at` re-evaluates
#: over refined operands
_ARITHMETIC = (*_ADDITIVE, "multiply")
_COMPARISONS = {
    "compare_less", "compare_less_equal",
    "compare_greater", "compare_greater_equal", "compare_equal",
}


def underlying(value: Value) -> Value:
    """Resolve Copy/identity chains to the originating SSA value, so a
    fact about a tensor survives copy insertion."""
    seen = set()
    while value.id not in seen:
        seen.add(value.id)
        definition = value.definition
        if isinstance(definition, CopyInstr):
            value = definition.operands[0]
        elif isinstance(definition, CallPrimitiveInstr) and (
            definition.primitive.runtime_name == "identity"
        ):
            value = definition.operands[0]
        else:
            break
    return value


def _dims_roots(function: FunctionModule) -> dict[int, int]:
    """``{value id: root id}`` for :meth:`FunctionFacts.dims_of`.  Phis
    resolve optimistically: one whose other operands all come from one
    root has that root (its own loop-carried stores come back to it), one
    that merges two roots is its own."""
    source: dict[int, int] = {}
    phis: list[PhiInstr] = []
    for instruction in function.instructions():
        if instruction.result is None:
            continue
        if isinstance(instruction, PhiInstr):
            phis.append(instruction)
        elif isinstance(instruction, CopyInstr) or (
            isinstance(instruction, CallPrimitiveInstr) and (
                instruction.primitive.mutates
                or instruction.primitive.runtime_name == "identity"
            )
        ):
            source[instruction.result.id] = instruction.operands[0].id
    #: phi id -> its root, ``None`` while no operand has one yet
    merged: dict[int, Optional[int]] = {phi.result.id: None for phi in phis}

    def root(value_id: int) -> Optional[int]:
        seen = set()
        while value_id in source and value_id not in seen:
            seen.add(value_id)
            value_id = source[value_id]
        return merged[value_id] if value_id in merged else value_id

    changed = bool(phis)
    while changed:
        changed = False
        for phi in phis:
            own = phi.result.id
            if merged[own] == own:
                continue  # merges two tensors: settled
            roots = {root(v.id) for v in phi.operands if v.id != own}
            roots.discard(None)
            new = own if len(roots) > 1 else (roots.pop() if roots else None)
            if new != merged[own]:
                merged[own] = new
                changed = True
    resolved = {}
    for value_id in (*source, *merged):
        found = root(value_id)
        resolved[value_id] = value_id if found is None else found
    return resolved


class FunctionFacts:
    """Everything the analysis proved about one function.

    Queries take a *block name* because refinements are path facts: the
    same SSA value can be known tighter inside a guarded region than at
    the function level.
    """

    def __init__(self, function: FunctionModule):
        self.function_name = function.name
        self._function = function
        #: flow-insensitive interval per SSA value id
        self.intervals: dict[int, Interval] = {}
        #: per-block numeric refinements (local to the block; inherited
        #: down the dominator tree by the resolved environments below)
        self.refinements: dict[str, dict[int, Interval]] = {}
        #: per-block symbolic upper bounds: value <= base + offset
        self.bounds: dict[str, dict[int, dict[int, int]]] = {}
        self.shapes: dict[int, ShapeFact] = {}
        self.effect: str = EFFECT_PURE
        self.loops: dict[str, LoopFact] = {}
        #: value id -> the tensors (by :meth:`dims_of`) it is the length
        #: (row count) of: a ``tensor_length`` result, the ``r`` of a
        #: ``matrix_create(r, c, _)``
        self.length_of: dict[int, set[int]] = {}
        #: value id -> the rank-2 tensors (by :meth:`dims_of`) it is the
        #: column count of: a ``tensor_row_length(t, k)`` result, the ``c``
        #: of a ``matrix_create(r, c, _)``
        self.columns_of: dict[int, set[int]] = {}
        self._dims_roots: Optional[dict[int, int]] = None
        # resolved (inherited) per-block environments
        self._env: dict[str, dict[int, Interval]] = {}
        self._ub: dict[str, dict[int, dict[int, int]]] = {}

    # -- queries -------------------------------------------------------------

    def interval_of(self, value: Value) -> Interval:
        return self.intervals.get(value.id, TOP)

    def interval_at(self, value: Value, block: str,
                    _depth: int = 6) -> Interval:
        """The tightest interval for ``value`` valid inside ``block``:
        the global interval, narrowed by every branch refinement on the
        dominator path, by symbolic upper bounds, and (for arithmetic)
        by re-evaluating the operation over refined operands."""
        result = self.intervals.get(value.id, TOP)
        env = self._env.get(block)
        if env is not None and value.id in env:
            result = result.intersect(env[value.id])
        for base_id, offset in self.upper_bounds_at(value, block).items():
            base = self.intervals.get(base_id, TOP)
            if env is not None and base_id in env:
                base = base.intersect(env[base_id])
            if base.hi is not None:
                result = result.intersect(Interval(None, base.hi + offset))
        if _depth > 0:
            definition = value.definition
            if isinstance(definition, CallPrimitiveInstr):
                op = definition.primitive.interval
                if op in _ARITHMETIC:
                    a = self.interval_at(
                        definition.operands[0], block, _depth - 1)
                    b = self.interval_at(
                        definition.operands[1], block, _depth - 1)
                    recomputed = getattr(a, op)(b)
                    result = result.intersect(recomputed.clamp_int64())
        return result

    def upper_bounds_at(self, value: Value, block: str,
                        _depth: int = 6) -> dict[int, int]:
        """Symbolic bounds ``{base id: offset}`` meaning
        ``value <= base + offset``, valid inside ``block``.  Constant
        additions shift the bound, so ``i <= n - 1`` proves
        ``i + 1 <= n``."""
        found = dict(self._ub.get(block, {}).get(value.id, {}))
        if _depth <= 0:
            return found
        definition = value.definition
        if isinstance(definition, CallPrimitiveInstr):
            op = definition.primitive.interval
            if op in _ADDITIVE:
                a, b = definition.operands
                sign = 1 if op == "add" else -1
                const = _constant_of(b)
                if const is not None:
                    for base, offset in self.upper_bounds_at(
                        a, block, _depth - 1
                    ).items():
                        shifted = offset + sign * const
                        if base not in found or shifted < found[base]:
                            found[base] = shifted
                elif op == "add":
                    const = _constant_of(a)
                    if const is not None:
                        for base, offset in self.upper_bounds_at(
                            b, block, _depth - 1
                        ).items():
                            shifted = offset + const
                            if base not in found or shifted < found[base]:
                                found[base] = shifted
            elif op == "minimum":
                for operand in definition.operands:
                    for base, offset in self.upper_bounds_at(
                        operand, block, _depth - 1
                    ).items():
                        if base not in found or offset < found[base]:
                            found[base] = offset
            if op == "count":
                # a length is trivially bounded by itself
                if value.id not in found or found[value.id] > 0:
                    found[value.id] = 0
        return found

    def proves_part_in_range(self, index: Value, tensor: Value,
                             block: str) -> bool:
        """Is ``index`` provably in ``[1, Length[tensor]]`` at ``block``?
        For a rank-2 tensor that is the row index; its column index is
        :meth:`proves_column_in_range`'s."""
        shape = self.shapes.get(underlying(tensor).id)
        return self._within(index, tensor, block, self.length_of,
                            None if shape is None else shape.length())

    def proves_column_in_range(self, index: Value, tensor: Value,
                               block: str) -> bool:
        """Is ``index`` provably in ``[1, columns of tensor]`` at
        ``block``, for the column of a rank-2 ``Part``?"""
        shape = self.shapes.get(underlying(tensor).id)
        columns = None
        if shape is not None and shape.rank == 2 and shape.dims is not None \
                and len(shape.dims) == 2:
            columns = shape.dims[1]
        return self._within(index, tensor, block, self.columns_of, columns)

    def index_proof(self, index: Value, tensor: Value, block: str,
                    column: bool = False) -> Optional[str]:
        """Why ``index`` needs no check as a ``Part`` index of ``tensor``
        at ``block``: ``"part-bounds"`` when it is proven within its
        axis's count; ``"part-positive"`` when one past the count cannot
        read another element but traps — a row or rank-1 index ``>= 1``
        lands past the end of the flat data, column 1 is in every row
        unless there is no element at all; else ``None``.  A larger
        column has no such fallback: it lands in the next row."""
        if column:
            if self.proves_column_in_range(index, tensor, block):
                return "part-bounds"
            interval = self.interval_at(index, block)
            return "part-positive" if interval.lo == interval.hi == 1 \
                else None
        if self.proves_part_in_range(index, tensor, block):
            return "part-bounds"
        if self.proves_positive_index(index, block):
            return "part-positive"
        return None

    def _within(self, index: Value, tensor: Value, block: str,
                counts: dict[int, set[int]], known: Optional[int]) -> bool:
        """``1 <= index <= n`` at ``block``, where ``n`` is ``known`` or a
        value that ``counts`` names as ``tensor``'s count on that axis."""
        interval = self.interval_at(index, block)
        if interval.lo is None or interval.lo < 1:
            return False
        if known is not None and interval.hi is not None \
                and interval.hi <= known:
            return True
        tensor_id = self.dims_of(tensor)
        for base, offset in self.upper_bounds_at(index, block).items():
            if offset <= 0 and tensor_id in counts.get(base, ()):
                return True
        return False

    def dims_of(self, tensor: Value) -> int:
        """The id of the value whose dims ``tensor`` has on every path:
        through copies, element stores (each returns the tensor it wrote
        into, dims unchanged) and phis that merge versions of that one
        tensor only — so a matrix written in a loop is still the one
        ``matrix_create`` made."""
        if self._dims_roots is None:
            self._dims_roots = _dims_roots(self._function)
        tensor = underlying(tensor)
        return self._dims_roots.get(tensor.id, tensor.id)

    def proves_positive_index(self, index: Value, block: str) -> bool:
        """The legacy (weaker) Part criterion: index >= 1, so negative-
        index predication is dead and a residual too-large index is a
        trapped runtime error handled by the soft-failure path."""
        interval = self.interval_at(index, block)
        return interval.lo is not None and interval.lo >= 1

    def fact_counts(self) -> dict[str, int]:
        """How much the analysis actually proved (for ``pass_report``)."""
        bounded = sum(
            1 for i in self.intervals.values()
            if not i.is_top and not i.is_empty
        )
        return {
            "intervals": bounded,
            "shapes": len(self.shapes),
            "refined_blocks": len(
                [b for b, r in self.refinements.items() if r]
            ),
            "symbolic_bounds": sum(
                len(entries) for per_block in self.bounds.values()
                for entries in per_block.values()
            ),
            "bounded_loops": sum(
                1 for loop in self.loops.values()
                if loop.trip_bound is not None
            ),
        }


class FactMap(dict):
    """``{function name: FunctionFacts}`` attached to program metadata."""

    def summary(self) -> dict[str, dict[str, int]]:
        return {name: facts.fact_counts() for name, facts in self.items()}


# -- the engine --------------------------------------------------------------


def _constant_of(value: Value) -> Optional[int]:
    definition = value.definition
    if isinstance(definition, ConstantInstr):
        constant = definition.value
        if isinstance(constant, int) and not isinstance(constant, bool):
            return constant
    return None


def _result_values(function: FunctionModule) -> dict[int, object]:
    table: dict[int, object] = {}
    for block in function.ordered_blocks():
        for instruction in block.all_instructions():
            if instruction.result is not None:
                table[instruction.result.id] = instruction
    return table


def analyze_function(function: FunctionModule,
                     program: Optional[ProgramModule] = None,
                     callee_effects: Optional[dict[str, str]] = None,
                     cfg: Optional[CFG] = None) -> FunctionFacts:
    """Run all three domains over one function.  ``cfg`` is where block
    order, predecessors, dominators and loops are read from: the
    function's shared facts unless the caller (the verifier) brings its
    own."""
    if cfg is None:
        cfg = function.cfg()
    facts = FunctionFacts(function)
    _interval_fixpoint(function, facts, cfg)
    _shape_pass(function, facts)
    # shapes can sharpen length results to constants; one cheap re-run of
    # the interval fixpoint folds those through dependent arithmetic
    if any(s.length() is not None for s in facts.shapes.values()):
        _interval_fixpoint(function, facts, cfg)
    _derive_refinements(function, facts, cfg)
    _resolve_environments(function, facts, cfg)
    facts.effect = _effect_of(function, callee_effects or {})
    facts.loops = loop_facts(function, facts, cfg)
    return facts


def analyze_program(program: ProgramModule) -> FactMap:
    """Analyze every function; callee effects resolve through a short
    fixpoint so ``analyze_program`` is safe on mutually recursive
    programs (unknown callees default to effectful)."""
    effects: dict[str, str] = {}
    fact_map = FactMap()
    for _ in range(3):
        changed = False
        for name, function in program.functions.items():
            facts = analyze_function(function, program, effects)
            fact_map[name] = facts
            if effects.get(name) != facts.effect:
                effects[name] = facts.effect
                changed = True
        if not changed:
            break
    return fact_map


def _transfer(instruction, of, facts: FunctionFacts) -> Optional[Interval]:
    """The interval transfer function; ``None`` = not yet computable."""
    if isinstance(instruction, ConstantInstr):
        constant = instruction.value
        if isinstance(constant, int) and not isinstance(constant, bool):
            return Interval.const(constant)
        return TOP
    if isinstance(instruction, PhiInstr):
        joined: Optional[Interval] = None
        for _pred, value in instruction.incoming:
            if value is instruction.result:
                continue
            incoming = of(value)
            if incoming is None:
                continue  # edge not reached yet: optimistic
            joined = incoming if joined is None else joined.union(incoming)
        return joined
    if isinstance(instruction, CopyInstr):
        return of(instruction.operands[0])
    if isinstance(instruction, LoadArgumentInstr):
        return _argument_range(instruction.result)
    if isinstance(instruction, CallPrimitiveInstr):
        primitive = instruction.primitive
        name = primitive.runtime_name
        operands = instruction.operands
        op = primitive.interval
        if op == "count":
            if name == "tensor_length":
                facts.length_of.setdefault(
                    instruction.result.id, set()).add(
                        facts.dims_of(operands[0]))
                shape = facts.shapes.get(underlying(operands[0]).id)
                if shape is not None and shape.length() is not None:
                    return Interval.const(shape.length())
            elif name == "tensor_row_length":
                # every row of a rank-2 tensor has its column count
                facts.columns_of.setdefault(
                    instruction.result.id, set()).add(
                        facts.dims_of(operands[0]))
            return LENGTH_RANGE
        if name == "matrix_create":
            rows, columns = operands[0].id, operands[1].id
            facts.length_of.setdefault(rows, set()).add(
                instruction.result.id)
            facts.columns_of.setdefault(columns, set()).add(
                instruction.result.id)
            return TOP
        if op == "element":
            # an element of a tensor the runtime itself filled
            producer = underlying(operands[0]).definition
            if isinstance(producer, CallPrimitiveInstr) and (
                producer.primitive.element_range is not None
            ):
                return Interval(*producer.primitive.element_range)
            return TOP
        if op is not None:
            intervals = [of(operand) for operand in operands]
            if not all(intervals):  # an operand not computed yet
                return None
            a, *rest = intervals
            result = getattr(a, op)(*rest)
            # a checked op traps outside Integer64, and an unchecked one
            # is unchecked because it was proven to stay inside (the
            # verifier re-proves it from its operands): either way what
            # comes out is an Integer64.  By induction over execution, no
            # proof leans on the result of an operation yet to run.
            return result.clamp_int64() if primitive.overflow_checked \
                else result
        if name == "identity":
            return of(operands[0])
        return TOP
    return TOP


def _argument_range(value: Value) -> Interval:
    """What the call boundary lets through for a parameter of this type:
    every ``Integer*`` argument is range-checked as an Integer64."""
    name = getattr(value.type, "name", "")
    return INT64_RANGE if name.startswith("Integer") else TOP


def _widen(old: Interval, new: Interval) -> Interval:
    """Widening with one threshold, the Integer64 range: a bound still
    moving inside the range stops at the range's end — where the clamped
    result of a checked operation stops — and goes to unbounded only if it
    moves again from there.  So a counter that a checked ``k - 2`` feeds
    back keeps ``[MIN, MAX]``, and a guard ``k > 0`` then proves the
    ``k - 1`` under it."""
    widened = old.widen(new)
    lo, hi = widened.lo, widened.hi
    if lo is None and new.lo is not None and new.lo >= INT64_MIN:
        lo = INT64_MIN
    if hi is None and new.hi is not None and new.hi <= INT64_MAX:
        hi = INT64_MAX
    return Interval(lo, hi)


def _interval_fixpoint(function: FunctionModule, facts: FunctionFacts,
                       cfg: CFG) -> None:
    table = _result_values(function)
    intervals: dict[int, Interval] = {}
    for parameter in function.parameters:
        intervals[parameter.id] = _argument_range(parameter)
    updates: dict[int, int] = {}

    def of(value: Value) -> Optional[Interval]:
        return intervals.get(value.id)

    # Round-robin sweeps over the value-defining instructions in reverse
    # postorder, of which a sweep evaluates only those with an operand that
    # moved since they were last evaluated: the others would read the same
    # operands, get the same interval and change nothing, so the result
    # (widening counts included) is that of the dense sweeps.
    schedule = [
        instruction
        for name in cfg.reverse_postorder
        if name in function.blocks
        for instruction in function.blocks[name].all_instructions()
        if instruction.result is not None
    ]
    users: dict[int, list[int]] = {}
    for position, instruction in enumerate(schedule):
        for operand in instruction.operands:
            users.setdefault(operand.id, []).append(position)
    sweep = list(range(len(schedule)))  # a heap: sorted, so already one
    for _round in range(64):
        if not sweep:
            break
        queued = set(sweep)
        later: set[int] = set()
        while sweep:
            position = heapq.heappop(sweep)
            instruction = schedule[position]
            result = instruction.result
            new = _transfer(instruction, of, facts)
            if new is None:
                continue
            old = intervals.get(result.id)
            if old is not None:
                new = old.union(new)
                if new != old:
                    updates[result.id] = updates.get(result.id, 0) + 1
                    if updates[result.id] > WIDEN_AFTER:
                        new = _widen(old, new)
            if new != old:
                intervals[result.id] = new
                for user in users.get(result.id, ()):
                    if user <= position:
                        later.add(user)  # its turn in this sweep is over
                    elif user not in queued:
                        queued.add(user)
                        heapq.heappush(sweep, user)
        sweep = sorted(later)
    # anything never reached stays unanalyzed: queries default to TOP
    for value_id in table:
        intervals.setdefault(value_id, TOP)
    facts.intervals = intervals


def _declared_rank(value: Value) -> Optional[int]:
    from repro.compiler.types.specifier import CompoundType, TypeLiteral

    type_ = value.type
    if isinstance(type_, CompoundType) and type_.constructor == "Tensor":
        for argument in type_.params:
            if isinstance(argument, TypeLiteral) and isinstance(
                argument.value, int
            ):
                return argument.value
    return None


_UNDERIVED = object()


def _primitive_named(instruction, name: str) -> bool:
    return isinstance(instruction, CallPrimitiveInstr) and (
        instruction.primitive.runtime_name == name
    )


def _holds_rows(value: Value) -> bool:
    """Is ``value`` a tensor whose elements are tensors?"""
    inner = getattr(value.type, "params", None)
    return bool(inner) and getattr(inner[0], "constructor", None) == "Tensor"


def static_lengths(function: FunctionModule) -> dict[int, int]:
    """``{value id: n}`` for the rank-1 tensors that have ``n`` elements
    on every path — and the matrices that have ``n`` columns: a list
    display, a constant array, a matrix created with a constant column
    count, a row of such a matrix, a tensor of rows that all have one
    length (its "length" is theirs), and whatever copies, stores into,
    merges (phi) or combines element-wise only such tensors of one
    length.  Optimistic over phis, so a loop-carried ``acc = acc + step``
    that starts as ``{0., 0.}`` has length 2."""
    if not any(
        isinstance(i, BuildListInstr) or (
            isinstance(i, ConstantInstr) and hasattr(i.value, "dims")
        ) or _primitive_named(i, "matrix_create")
        for i in function.instructions()
    ):
        return {}
    candidates = []
    #: rows stored in place (after alias collapse a store has no result):
    #: they are sources of the tensor of rows they went into
    stored_rows: dict[int, list[Value]] = {}
    for i in function.instructions():
        if i.result is not None:
            if _declared_rank(i.result) in (1, 2):
                candidates.append(i)
        elif isinstance(i, CallPrimitiveInstr) and i.primitive.mutates and (
            _holds_rows(i.operands[0])
        ):
            stored_rows.setdefault(i.operands[0].id, []).append(
                i.operands[-1])
    #: absent = nothing derived yet, None = no single length
    lengths: dict[int, Optional[int]] = {}

    def derive(instruction):
        """The length of ``instruction``'s result; ``_UNDERIVED`` while
        none of what it depends on has a length yet."""
        if isinstance(instruction, BuildListInstr):
            if _declared_rank(instruction.result) == 1:
                return len(instruction.operands)
            sources = instruction.operands  # a display of rows
        elif isinstance(instruction, ConstantInstr):
            dims = getattr(instruction.value, "dims", None)
            return (
                dims[-1] if dims is not None and len(dims) in (1, 2) else None
            )
        elif isinstance(instruction, PhiInstr):
            sources = [v for v in instruction.operands
                       if v is not instruction.result]
        elif isinstance(instruction, CopyInstr):
            sources = instruction.operands
        elif isinstance(instruction, CallPrimitiveInstr):
            name = instruction.primitive.runtime_name
            if name == "matrix_create":
                return _constant_of(instruction.operands[1])
            tensor = instruction.operands[0] if instruction.operands else None
            if name == "tensor_create_uninit":
                sources = []  # no row yet: whatever gets stored
            elif tensor is not None and _holds_rows(tensor):
                # a tensor of rows has the length of its rows: the ones
                # stored into it, and so the ones read back out
                sources = {
                    "tensor_part1": [tensor],
                    "tensor_part1_set": [tensor, instruction.operands[-1]],
                }.get(name.removesuffix("_unchecked"), [])
            else:
                elementwise = instruction.primitive.elementwise
                sources = instruction.operands[
                    :1 if instruction.primitive.mutates
                    or name == "tensor_row"
                    else elementwise[1] if elementwise else 0
                ]
        else:
            sources = []
        if not sources and not _primitive_named(
            instruction, "tensor_create_uninit"
        ):
            return None  # made by something that says nothing of lengths
        sources = [*sources, *stored_rows.get(instruction.result.id, ())]
        known = {lengths[v.id] for v in sources if v.id in lengths}
        if None in known or len(known) > 1:
            return None
        return known.pop() if known else _UNDERIVED

    changed = True
    while changed:
        changed = False
        for instruction in candidates:
            new = derive(instruction)
            if new is not _UNDERIVED and (
                lengths.get(instruction.result.id, _UNDERIVED) != new
            ):
                lengths[instruction.result.id] = new
                changed = True
    return {i: n for i, n in lengths.items() if n is not None}


def _shape_pass(function: FunctionModule, facts: FunctionFacts) -> None:
    for block in function.ordered_blocks():
        for instruction in block.all_instructions():
            result = instruction.result
            if result is None:
                continue
            if isinstance(instruction, ConstantInstr):
                dims = getattr(instruction.value, "dims", None)
                if dims is not None:
                    facts.shapes[result.id] = ShapeFact(
                        rank=len(dims), dims=tuple(dims)
                    )
                continue
            if isinstance(instruction, BuildListInstr):
                facts.shapes[result.id] = ShapeFact(
                    rank=_declared_rank(result) or 1,
                    dims=(len(instruction.operands),),
                )
                continue
            rank = _declared_rank(result)
            if rank is not None and result.id not in facts.shapes:
                if isinstance(instruction, CopyInstr):
                    source = facts.shapes.get(
                        underlying(instruction.operands[0]).id
                    )
                    if source is not None:
                        facts.shapes[result.id] = source
                        continue
                if isinstance(instruction, CallPrimitiveInstr) and (
                    instruction.primitive.mutates
                ):
                    source = facts.shapes.get(
                        underlying(instruction.operands[0]).id
                    )
                    if source is not None:
                        facts.shapes[result.id] = source
                        continue
                facts.shapes[result.id] = ShapeFact(rank=rank)
    for value_id, length in static_lengths(function).items():
        known = facts.shapes.get(value_id)
        if known is None or known.dims is None:
            # of a matrix this is the column count: its length is unknown
            facts.shapes[value_id] = (
                ShapeFact(rank=1, dims=(length,))
                if known is None or known.rank in (None, 1)
                else ShapeFact(rank=known.rank, dims=(None, length))
            )


def _comparison_facts(guard: CallPrimitiveInstr, sense: bool, facts):
    """Numeric and symbolic refinements a comparison edge implies."""
    name = guard.primitive.runtime_name
    x, y = guard.operands
    # normalize greater forms onto less forms
    if name == "compare_greater":
        name, x, y = "compare_less", y, x
    elif name == "compare_greater_equal":
        name, x, y = "compare_less_equal", y, x
    numeric: list[tuple[Value, Interval]] = []
    symbolic: list[tuple[Value, Value, int]] = []  # value <= base + offset
    gx = facts.intervals.get(x.id, TOP)
    gy = facts.intervals.get(y.id, TOP)
    if name == "compare_less":
        if sense:  # x < y
            if gy.hi is not None:
                numeric.append((x, Interval(None, gy.hi - 1)))
            if gx.lo is not None:
                numeric.append((y, Interval(gx.lo + 1, None)))
            symbolic.append((x, y, -1))
        else:  # x >= y
            if gy.lo is not None:
                numeric.append((x, Interval(gy.lo, None)))
            if gx.hi is not None:
                numeric.append((y, Interval(None, gx.hi)))
            symbolic.append((y, x, 0))
    elif name == "compare_less_equal":
        if sense:  # x <= y
            if gy.hi is not None:
                numeric.append((x, Interval(None, gy.hi)))
            if gx.lo is not None:
                numeric.append((y, Interval(gx.lo, None)))
            symbolic.append((x, y, 0))
        else:  # x > y
            if gy.lo is not None:
                numeric.append((x, Interval(gy.lo + 1, None)))
            if gx.hi is not None:
                numeric.append((y, Interval(None, gx.hi - 1)))
            symbolic.append((y, x, -1))
    elif name == "compare_equal" and sense:
        meet = gx.intersect(gy)
        numeric.append((x, meet))
        numeric.append((y, meet))
        symbolic.append((x, y, 0))
        symbolic.append((y, x, 0))
    return numeric, symbolic


def _derive_refinements(function: FunctionModule, facts: FunctionFacts,
                        cfg: CFG) -> None:
    predecessors = cfg.predecessors
    for name, block in function.blocks.items():
        preds = list(predecessors.get(name, ()))
        if len(preds) != 1:
            continue
        pred = function.blocks.get(preds[0])
        if pred is None or not isinstance(pred.terminator, BranchInstr):
            continue
        terminator = pred.terminator
        takes_true = terminator.true_target == name
        takes_false = terminator.false_target == name
        if takes_true == takes_false:
            continue  # both edges (degenerate) or neither
        conditions = [(terminator.condition, takes_true)]
        refinement: dict[int, Interval] = {}
        bounds: dict[int, dict[int, int]] = {}
        while conditions:
            condition, sense = conditions.pop()
            guard = condition.definition
            if not isinstance(guard, CallPrimitiveInstr):
                continue
            guard_name = guard.primitive.runtime_name
            if guard_name == "boolean_and" and sense:
                conditions.append((guard.operands[0], True))
                conditions.append((guard.operands[1], True))
                continue
            if guard_name == "boolean_or" and not sense:
                conditions.append((guard.operands[0], False))
                conditions.append((guard.operands[1], False))
                continue
            if guard_name == "boolean_not":
                conditions.append((guard.operands[0], not sense))
                continue
            if guard_name not in _COMPARISONS:
                continue
            numeric, symbolic = _comparison_facts(guard, sense, facts)
            for value, interval in numeric:
                existing = refinement.get(value.id, TOP)
                refinement[value.id] = existing.intersect(interval)
            for value, base, offset in symbolic:
                entry = bounds.setdefault(value.id, {})
                # unfold constant additions in the base: i <= n - 1
                # also records i's bound against n itself
                current: Value = base
                shift = offset
                for _ in range(4):
                    if (
                        current.id not in entry
                        or shift < entry[current.id]
                    ):
                        entry[current.id] = shift
                    base_def = current.definition
                    if not isinstance(base_def, CallPrimitiveInstr):
                        break
                    base_op = base_def.primitive.interval
                    if base_op not in _ADDITIVE:
                        break
                    constant = _constant_of(base_def.operands[1])
                    if constant is None:
                        break
                    shift += constant if base_op == "add" else -constant
                    current = base_def.operands[0]
        if refinement:
            facts.refinements[name] = refinement
        if bounds:
            facts.bounds[name] = bounds


def _resolve_environments(function: FunctionModule, facts: FunctionFacts,
                          cfg: CFG) -> None:
    """Inherit refinements down the dominator tree: a fact learned on an
    edge holds in every block that edge dominates."""
    idom = cfg.idom
    children: dict[str, list[str]] = {}
    for name, parent in idom.items():
        if parent is not None:
            children.setdefault(parent, []).append(name)
    entry = function.entry
    if entry is None or entry not in function.blocks:
        return
    stack: list[tuple[str, dict[int, Interval], dict[int, dict[int, int]]]]
    stack = [(entry, {}, {})]
    while stack:
        name, env, ub = stack.pop()
        local = facts.refinements.get(name)
        if local:
            env = dict(env)
            for value_id, interval in local.items():
                env[value_id] = env.get(value_id, TOP).intersect(interval)
        local_bounds = facts.bounds.get(name)
        if local_bounds:
            ub = {vid: dict(entries) for vid, entries in ub.items()}
            for value_id, entries in local_bounds.items():
                target = ub.setdefault(value_id, {})
                for base, offset in entries.items():
                    if base not in target or offset < target[base]:
                        target[base] = offset
        facts._env[name] = env
        facts._ub[name] = ub
        survived = _survived_checks(function.blocks[name], facts)
        if survived:
            env = dict(env)
            for value_id, interval in survived:
                env[value_id] = env.get(value_id, TOP).intersect(interval)
        for child in sorted(children.get(name, ())):
            stack.append((child, env, ub))


PART_INDEX_RANGE = Interval(-LENGTH_BOUND, LENGTH_BOUND)


def _survived_checks(block, facts: FunctionFacts):
    """What the checks in ``block`` say about their operands wherever
    control gets past them — in every block ``block`` strictly dominates.
    A checked ``a + b`` / ``a - b`` did not overflow, so ``a <= MAX - b``;
    a ``Part`` found its element, so its index is no longer than the
    longest list (:data:`LENGTH_BOUND`), either way round.

    Which checks: the rows whose ``error`` says so.  A ``Part`` that
    returned had each index inside the tensor when a too-large one raises
    ``PartOutOfRange`` — the checked forms, and the rank-1 unchecked ones
    (index proven >= 1) through ``IndexError``; a rank-2 unchecked form
    raises nothing, since a column past the row's end reads the next
    row.  Of arithmetic, only the checked ``Plus``/``Subtract`` trap."""
    found = []
    for instruction in block.instructions:
        if not isinstance(instruction, CallPrimitiveInstr):
            continue
        primitive = instruction.primitive
        if primitive.index_axes:
            if primitive.error == "PartOutOfRange":
                for position, _axis in primitive.index_axes:
                    found.append((instruction.operands[position].id,
                                  PART_INDEX_RANGE))
            continue
        op = primitive.interval
        if op not in _ADDITIVE or primitive.error != "IntegerOverflow":
            continue
        a, b = instruction.operands
        ia, ib = facts.interval_of(a), facts.interval_of(b)
        if op == "subtract":
            # a - b is a + (-b); what is learnt about -b is negated back
            ib = ib.negate()
        for value, other, flip in ((a, ib, False), (b, ia, op == "subtract")):
            bound = Interval(
                None if other.hi is None else INT64_MIN - other.hi,
                None if other.lo is None else INT64_MAX - other.lo,
            )
            if not bound.is_top:
                found.append((value.id, bound.negate() if flip else bound))
    return found


def _effect_of(function: FunctionModule,
               callee_effects: dict[str, str]) -> str:
    effect = EFFECT_PURE
    for instruction in function.instructions():
        if isinstance(instruction, (CallFunctionInstr, CallIndirectInstr,
                                    KernelCallInstr)):
            callee = getattr(instruction, "function_name", None)
            step = callee_effects.get(callee, EFFECT_EFFECTFUL)
        elif isinstance(instruction, CallPrimitiveInstr):
            step = (
                EFFECT_PURE if instruction.primitive.pure else EFFECT_LOCAL
            )
        elif isinstance(instruction, (BuildListInstr, CopyInstr)):
            step = EFFECT_LOCAL
        else:
            continue
        if _EFFECT_ORDER[step] > _EFFECT_ORDER[effect]:
            effect = step
    return effect


def loop_facts(function: FunctionModule, facts: FunctionFacts,
               cfg: Optional[CFG] = None) -> dict[str, LoopFact]:
    """``{header: LoopFact}`` of the loops the function has *now*, their
    trip counts bounded from ``facts.intervals`` — which may be older than
    the CFG: a value the intervals do not know reads as unbounded, so a
    stale fact bundle can lose a bound but never invent one."""
    loops = (cfg or function.cfg()).loops
    headers = {loop.header for loop in loops}
    found: dict[str, LoopFact] = {}
    for loop in loops:
        fact = LoopFact(header=loop.header, body=frozenset(loop.body))
        fact.innermost = not any(
            other in loop.body for other in headers if other != loop.header
        )
        fact.effect_local = not any(
            isinstance(instruction, (CallFunctionInstr, CallIndirectInstr,
                                     KernelCallInstr))
            for name in loop.body
            if name in function.blocks
            for instruction in function.blocks[name].all_instructions()
        )
        header = function.blocks.get(loop.header)
        if header is not None and isinstance(header.terminator, BranchInstr):
            fact.trip_bound = _trip_bound(
                function, loop, header.terminator, facts, fact
            )
        found[loop.header] = fact
    return found


def _trip_bound(function, loop, terminator, facts,
                fact: LoopFact) -> Optional[int]:
    """Max iterations of a counted loop: guard ``i </<= n`` on a header
    phi stepped by a positive constant, with ``n`` and the entry value
    statically bounded."""
    if terminator.true_target not in loop.body:
        return None
    guard = terminator.condition.definition
    if not isinstance(guard, CallPrimitiveInstr):
        return None
    name = guard.primitive.runtime_name
    if name not in ("compare_less", "compare_less_equal"):
        return None
    counter, limit = guard.operands
    header = function.blocks.get(loop.header)
    phi = counter.definition
    if not isinstance(phi, PhiInstr) or phi not in header.phis:
        return None
    fact.counter = counter.id
    limit_interval = facts.intervals.get(limit.id, TOP)
    if limit_interval.hi is None:
        return None
    limit_hi = limit_interval.hi - (1 if name == "compare_less" else 0)
    step: Optional[int] = None
    entry_lo: Optional[int] = None
    for pred, incoming in phi.incoming:
        if pred in loop.body:
            increment = incoming.definition
            if not isinstance(increment, CallPrimitiveInstr):
                return None
            if increment.primitive.interval != "add":
                return None
            a, b = increment.operands
            if a is counter:
                constant = _constant_of(b)
            elif b is counter:
                constant = _constant_of(a)
            else:
                return None
            if constant is None or constant < 1:
                return None
            step = constant if step is None else min(step, constant)
        else:
            lo = facts.intervals.get(incoming.id, TOP).lo
            if lo is None:
                return None
            entry_lo = lo if entry_lo is None else min(entry_lo, lo)
    if step is None or entry_lo is None:
        return None
    if limit_hi < entry_lo:
        return 0
    return (limit_hi - entry_lo) // step + 1


# -- statement-level liveness (for source lint) ------------------------------


def dead_assignments(
    statements: Iterable[tuple[Optional[str], set[str]]],
    live_after: Optional[set[str]] = None,
) -> tuple[list[int], set[str]]:
    """Backward liveness over a straight-line statement list.

    Each statement is ``(written name or None, read names)``; the walk
    runs last-to-first, returning the indices of *dead stores* (a write
    never read before the next write of the same name or scope exit) and
    the set of names live on entry.  Source lint feeds ``Module`` bodies
    through this to back its dead-store / unused-variable warnings.
    """
    statements = list(statements)
    live: set[str] = set(live_after or ())
    dead: list[int] = []
    for index in range(len(statements) - 1, -1, -1):
        written, reads = statements[index]
        if written is not None:
            if written not in live:
                dead.append(index)
            else:
                live.discard(written)
        live |= set(reads)
    dead.reverse()
    return dead, live
