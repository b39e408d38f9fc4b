"""Shared helpers for builtin implementations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.mexpr.atoms import MComplex, MInteger, MReal, MString, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.symbols import boolean, is_head, to_mexpr

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.evaluator import Evaluator

Number = Union[int, float, complex]

BuiltinFunc = Callable[["Evaluator", MExprNormal], Optional[MExpr]]


#: ``fold(values)``: the builtin's numeric core over a list of exactly
#: ``MInteger``/``MReal`` arguments — the atom the builtin would return,
#: or ``None`` where it would not return one
NumberFold = Callable[[list], Optional[MExpr]]

#: ``core(row)``: the same numeric core over one row of raw machine
#: numbers (a tuple of ``int``/``float``) — the number the fold would make
#: its atom from, or ``None`` where the fold would give no number
RowCore = Callable[[tuple], Optional["Number"]]


@dataclass(frozen=True)
class Builtin:
    name: str
    func: BuiltinFunc
    attributes: frozenset[str]
    #: set for the arithmetic and comparison heads the evaluator step
    #: folds on machine-number arguments without building the node
    fold: Optional[NumberFold] = None
    #: set with ``fold`` for the ``Listable`` arithmetic heads: what
    #: threading over packed lists applies to each row of their buffers
    core: Optional[RowCore] = None
    #: the builtin assigns (or clears) the symbol its first argument names:
    #: ``Set``, ``AddTo``, ``AppendTo``, ``Increment``, ...
    writes: bool = False


_REGISTRY: dict[str, Builtin] = {}


def builtin(name: str, *attributes: str, fold: Optional[NumberFold] = None,
            core: Optional[RowCore] = None, writes: bool = False):
    """Decorator registering a builtin implementation under ``name``."""

    def register(func: BuiltinFunc) -> BuiltinFunc:
        _REGISTRY[name] = Builtin(name, func, frozenset(attributes), fold,
                                  core, writes)
        return func

    return register


def registry() -> dict[str, Builtin]:
    return _REGISTRY


#: symbolic constants with numeric values under ``N``
NUMERIC_CONSTANTS: dict[str, float] = {
    "Pi": math.pi,
    "E": math.e,
    "EulerGamma": 0.5772156649015329,
    "GoldenRatio": (1 + math.sqrt(5)) / 2,
    "Degree": math.pi / 180,
}


_NUMBER_ATOMS = (MInteger, MReal, MComplex)
#: the same classes, for one set probe where most arguments are exact ones
_NUMBER_TYPES = frozenset(_NUMBER_ATOMS)


def as_number(node: MExpr) -> Optional[Number]:
    """The Python number of a literal node, else ``None`` (stays symbolic)."""
    if type(node) in _NUMBER_TYPES or isinstance(node, _NUMBER_ATOMS):
        return node.value
    return None


def numeric_value(node: MExpr) -> Optional[Number]:
    """Like :func:`as_number` but maps symbolic constants (Pi, E, ...)."""
    direct = as_number(node)
    if direct is not None:
        return direct
    if isinstance(node, MSymbol):
        return NUMERIC_CONSTANTS.get(node.name)
    return None


def number_expr(value: Number) -> MExpr:
    if isinstance(value, bool):
        return boolean(value)
    if isinstance(value, int):
        return MInteger(value)
    if isinstance(value, complex):
        if value.imag == 0:
            return MReal(value.real)
        return MComplex(value)
    return MReal(value)


def all_numbers(nodes) -> Optional[list[Number]]:
    out: list[Number] = []
    for node in nodes:
        value = as_number(node)
        if value is None:
            return None
        out.append(value)
    return out


def list_items(node: MExpr) -> Optional[tuple[MExpr, ...]]:
    if is_head(node, "List"):
        return node.args
    return None


def expect_string(node: MExpr) -> Optional[str]:
    if isinstance(node, MString):
        return node.value
    return None


def expect_int(node: MExpr) -> Optional[int]:
    if isinstance(node, MInteger):
        return node.value
    return None


def make_list(items) -> MExprNormal:
    from repro.mexpr.symbols import S

    return MExprNormal(S.List, [to_mexpr(i) for i in items])
