"""Interval pre-pass for the template stitcher: the unchecked-op mask.

The full pipeline proves check elision with a worklist abstract
interpretation over WIR (:mod:`repro.analyze.dataflow`).  The template
tier cannot afford that — its entire budget is one linear stitch — so
this module runs a miniature version of the *same* interval arithmetic
directly over the MExpr body in a single recursive walk, and hands the
stitcher a precomputed per-operation checked/unchecked mask it consults
in O(1) per arithmetic node.

Sound sources of bounds (everything else stays unbounded):

* integer literals;
* ``Do`` iterator variables with literal (or literal-derived) bounds
  that the loop body never reassigns;
* ``Module`` locals with integer-literal initializers never reassigned
  anywhere in the body.

An arithmetic node is marked unchecked only when the *exact* result of
every partial fold (the stitcher folds variadic ``Plus``/``Times`` left
to right) provably fits Integer64 — then the overflow-trapping ``_ci``
stencil can never fire and the plain stencil is substituted.  A node
reached twice under different scopes keeps the conservative verdict.

The marks double as a preorder bitmask (bit *k* set = the *k*-th
arithmetic op in walk order is unchecked) surfaced on the compiled
artifact for debugging and telemetry.
"""

from __future__ import annotations

from typing import Optional

from repro.mexpr.atoms import MInteger, MSymbol
from repro.mexpr.expr import MExpr


class UncheckedMask:
    """Arithmetic nodes proven overflow-free, keyed by node identity."""

    __slots__ = ("marks", "bits", "total")

    def __init__(self, marks: frozenset, bits: int, total: int):
        self.marks = marks  #: frozenset of id(node)
        self.bits = bits    #: preorder bitmask over arithmetic ops
        self.total = total  #: arithmetic ops seen in the walk

    def __contains__(self, node: MExpr) -> bool:
        return id(node) in self.marks

    def __len__(self) -> int:
        return len(self.marks)


EMPTY_MASK = UncheckedMask(frozenset(), 0, 0)

#: heads the stitcher lowers through the checked-integer stencils, with
#: the Interval method that models them exactly
_ARITH_METHODS = {"Plus": "add", "Subtract": "subtract", "Times": "multiply"}

#: heads whose first argument is mutated in place (reassignment scan)
_MUTATING_HEADS = frozenset({
    "Set", "SetDelayed", "Increment", "Decrement", "PreIncrement",
    "PreDecrement", "AddTo", "SubtractFrom", "TimesBy", "DivideBy",
})


def _head_name(node: MExpr) -> Optional[str]:
    head = node.head
    return head.name if isinstance(head, MSymbol) else None


def _assigned_names(node: MExpr) -> set[str]:
    names: set[str] = set()
    if node.is_atom():
        return names
    if (
        _head_name(node) in _MUTATING_HEADS
        and node.args
        and isinstance(node.args[0], MSymbol)
    ):
        names.add(node.args[0].name)
    for arg in node.args:
        names |= _assigned_names(arg)
    return names


def unchecked_mask(body: MExpr) -> UncheckedMask:
    """One recursive walk computing the checked/unchecked op mask."""
    from repro.analyze.dataflow import Interval

    assigned = _assigned_names(body)
    verdicts: dict[int, bool] = {}
    state = {"bits": 0, "total": 0}

    def evaluate(node: MExpr, env: dict, depth: int = 8):
        if depth <= 0:
            return None
        if isinstance(node, MInteger):
            return Interval.const(node.value)
        if isinstance(node, MSymbol):
            return env.get(node.name)
        if node.is_atom():
            return None
        hname = _head_name(node)
        method = _ARITH_METHODS.get(hname)
        if method is not None and len(node.args) >= 2:
            result = evaluate(node.args[0], env, depth - 1)
            for arg in node.args[1:]:
                if result is None:
                    return None
                other = evaluate(arg, env, depth - 1)
                if other is None:
                    return None
                result = getattr(result, method)(other)
            return result
        if hname == "Minus" and len(node.args) == 1:
            operand = evaluate(node.args[0], env, depth - 1)
            return operand.negate() if operand is not None else None
        return None

    def judge(node: MExpr, env: dict) -> None:
        """Every partial left-fold must fit — the stitcher folds pairwise."""
        method = _ARITH_METHODS[_head_name(node)]
        state["total"] += 1
        bit = state["total"] - 1
        safe = False
        partial = evaluate(node.args[0], env)
        for arg in node.args[1:]:
            if partial is None:
                break
            other = evaluate(arg, env)
            if other is None:
                partial = None
                break
            partial = getattr(partial, method)(other)
            if not partial.fits_int64():
                partial = None
                break
        else:
            safe = partial is not None
        key = id(node)
        verdicts[key] = verdicts.get(key, True) and safe
        if safe:
            state["bits"] |= 1 << bit

    def walk(node: MExpr, env: dict) -> None:
        if node.is_atom():
            return
        hname = _head_name(node)
        if hname in _ARITH_METHODS and len(node.args) >= 2:
            judge(node, env)
        if hname in ("Module", "Block", "With") and node.args:
            inner = dict(env)
            declarations = node.args[0]
            entries = (
                declarations.args
                if _head_name(declarations) == "List" else ()
            )
            for entry in entries:
                if isinstance(entry, MSymbol):
                    if entry.name not in assigned:
                        inner[entry.name] = Interval.const(0)
                    else:
                        inner.pop(entry.name, None)
                elif (
                    _head_name(entry) == "Set"
                    and len(entry.args) == 2
                    and isinstance(entry.args[0], MSymbol)
                ):
                    walk(entry.args[1], env)
                    name = entry.args[0].name
                    value = (
                        evaluate(entry.args[1], env)
                        if name not in assigned else None
                    )
                    if value is not None:
                        inner[name] = value
                    else:
                        inner.pop(name, None)
                else:
                    walk(entry, inner)
            for argument in node.args[1:]:
                walk(argument, inner)
            return
        if hname == "Do" and len(node.args) == 2:
            body_node, spec = node.args
            inner = dict(env)
            if (
                _head_name(spec) == "List"
                and 2 <= len(spec.args) <= 3
                and isinstance(spec.args[0], MSymbol)
            ):
                iterator = spec.args[0].name
                for bound in spec.args[1:]:
                    walk(bound, env)
                bounds = [evaluate(b, env) for b in spec.args[1:]]
                inner.pop(iterator, None)
                if iterator not in _assigned_names(body_node):
                    if len(bounds) == 1 and bounds[0] is not None:
                        inner[iterator] = Interval(1, bounds[0].hi)
                    elif len(bounds) == 2 and None not in bounds:
                        inner[iterator] = Interval(
                            bounds[0].lo, bounds[1].hi
                        )
                walk(body_node, inner)
                return
            walk(spec, env)
            walk(body_node, env)
            return
        for arg in node.args:
            walk(arg, env)

    walk(body, {})
    marks = frozenset(key for key, safe in verdicts.items() if safe)
    return UncheckedMask(marks, state["bits"], state["total"])
