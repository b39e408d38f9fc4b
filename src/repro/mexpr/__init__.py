"""The Wolfram-style expression layer: AST nodes, parser, printers, visitors.

This is the paper's ``MExpr`` datastructure (§4.2): an atomic leaf node
(literal or symbol) or a tree node, with arbitrary per-node metadata,
serialization, a visitor API, and construction from (parsed) Wolfram syntax.
"""

from repro.mexpr.atoms import (
    MComplex,
    MExprAtom,
    MInteger,
    MReal,
    MString,
    MSymbol,
)
from repro.mexpr.expr import MExpr, MExprNormal, normal
from repro.mexpr.packed import PackedList
from repro.mexpr.parser import parse, parse_all, tokenize
from repro.mexpr.printer import full_form, input_form
from repro.mexpr.serialize import dumps, from_wire, loads, to_wire
from repro.mexpr.symbols import (
    S,
    boolean,
    expr,
    head_name,
    integer,
    is_false,
    is_head,
    is_symbol,
    is_true,
    list_expr,
    real,
    string,
    symbol,
    to_mexpr,
)
from repro.mexpr.visitor import MExprTransformer, MExprVisitor

__all__ = [
    "MComplex", "MExpr", "MExprAtom", "MExprNormal", "MExprTransformer",
    "MExprVisitor", "MInteger", "MReal", "MString", "MSymbol", "PackedList",
    "S",
    "boolean", "dumps", "expr", "from_wire", "full_form", "head_name",
    "input_form", "integer", "is_false", "is_head", "is_symbol", "is_true",
    "list_expr", "loads", "normal", "parse", "parse_all", "real", "string",
    "symbol", "to_mexpr", "to_wire", "tokenize",
]
