"""Well-known symbols and expression-building helpers.

``S.Plus``, ``S.List`` etc. return cached :class:`MSymbol` instances used for
construction and structural comparison.  Cached symbols are shared, so code
that attaches per-occurrence metadata (binding analysis) must work on a
cloned tree — ``FunctionCompile`` guarantees this.
"""

from __future__ import annotations

from typing import Any

from repro.mexpr.atoms import (
    MComplex,
    MInteger,
    MReal,
    MString,
    MSymbol,
)
from repro.mexpr.expr import MExpr, MExprNormal


class _SymbolFactory:
    """Attribute access mints (and caches) system symbols: ``S.Plus``."""

    def __init__(self):
        self._cache: dict[str, MSymbol] = {}

    def __getattr__(self, name: str) -> MSymbol:
        cached = self._cache.get(name)
        if cached is None:
            cached = MSymbol(name)
            self._cache[name] = cached
        return cached

    def __call__(self, name: str) -> MSymbol:
        return getattr(self, name)


S = _SymbolFactory()

#: Symbols with special evaluation/compilation behaviour, pre-minted for speed.
TRUE = S.True_ = S("True")
FALSE = S.False_ = S("False")
NULL = S("Null")
ABORTED = S("$Aborted")
FAILED = S("$Failed")


def symbol(name: str) -> MSymbol:
    """A fresh (non-cached) symbol node, safe to annotate with metadata."""
    return MSymbol(name)


def integer(value: int) -> MInteger:
    return MInteger(value)


def real(value: float) -> MReal:
    return MReal(value)


def string(value: str) -> MString:
    return MString(value)


def boolean(value: bool) -> MSymbol:
    return MSymbol("True") if value else MSymbol("False")


def to_mexpr(value: Any) -> MExpr:
    """Convert a Python value to the corresponding expression tree."""
    if isinstance(value, MExpr):
        return value
    if isinstance(value, bool):
        return boolean(value)
    if isinstance(value, int):
        return MInteger(value)
    if isinstance(value, float):
        return MReal(value)
    if isinstance(value, complex):
        return MComplex(value)
    if isinstance(value, str):
        return MString(value)
    if value is None:
        return MSymbol("Null")
    if isinstance(value, (list, tuple)):
        return MExprNormal(S.List, [to_mexpr(v) for v in value])
    try:
        import numpy as np

        if isinstance(value, np.integer):
            return MInteger(int(value))
        if isinstance(value, np.floating):
            return MReal(float(value))
        if isinstance(value, np.complexfloating):
            return MComplex(complex(value))
        if isinstance(value, np.ndarray):
            return to_mexpr(value.tolist())
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        pass
    raise TypeError(f"cannot convert {type(value).__name__} to MExpr")


def expr(head: Any, *args: Any) -> MExprNormal:
    """Build ``head[args...]``, converting Python heads/args as needed."""
    head_expr = S(head) if isinstance(head, str) else to_mexpr(head)
    return MExprNormal(head_expr, [to_mexpr(a) for a in args])


def list_expr(*items: Any) -> MExprNormal:
    return expr("List", *items)


def is_symbol(node: MExpr, name: str | None = None) -> bool:
    if not isinstance(node, MSymbol):
        return False
    return name is None or node.name == name


def head_name(node: MExpr) -> str | None:
    """The head's symbol name, or ``None`` for non-symbol heads."""
    head = node.head
    return head.name if isinstance(head, MSymbol) else None


def is_head(node: MExpr, name: str) -> bool:
    # one type test, no method calls, for what every caller means:
    # a normal expression whose head is the symbol ``name``
    if type(node) is MExprNormal:
        head = node.head
        return isinstance(head, MSymbol) and head.name == name
    return not node.is_atom() and head_name(node) == name


def is_true(node: MExpr) -> bool:
    return isinstance(node, MSymbol) and node.name == "True"


def is_false(node: MExpr) -> bool:
    return isinstance(node, MSymbol) and node.name == "False"
