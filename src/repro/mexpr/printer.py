"""Printers for ``MExpr`` trees: ``FullForm`` and an infix ``InputForm``."""

from __future__ import annotations

from repro.mexpr.atoms import MComplex, MInteger, MReal, MString, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.symbols import head_name


def _atom_form(node: MExpr) -> str:
    if isinstance(node, MInteger):
        return str(node.value)
    if isinstance(node, MSymbol):
        return node.name
    if isinstance(node, MReal):
        return _format_real(node.value)
    if isinstance(node, MString):
        return '"' + node.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(node, MComplex):
        return f"Complex[{_format_real(node.value.real)}, {_format_real(node.value.imag)}]"
    raise TypeError(f"not an atom: {type(node).__name__}")


def full_form(node: MExpr) -> str:
    """The canonical ``head[a, b, ...]`` rendering with no infix operators.

    Written with an explicit stack, so a tree of any depth renders: the
    depth of an expression is bounded by memory, never by Python's frame
    limit.
    """
    if not isinstance(node, MExprNormal):
        return _atom_form(node)
    out: list[str] = []
    # pending pieces, last first: a str is emitted as is, a node rendered
    pending: list = [node]
    append, push = out.append, pending.append
    while pending:
        item = pending.pop()
        kind = type(item)
        if kind is str:
            append(item)
        elif kind is MSymbol:
            append(item.name)
        elif kind is MInteger:
            append(str(item.value))
        elif not isinstance(item, MExprNormal):
            append(_atom_form(item))
        else:
            push("]")
            args = item.args
            for index in range(len(args) - 1, 0, -1):
                push(args[index])
                push(", ")
            if args:
                push(args[0])
            push("[")
            push(item.head)
    return "".join(out)


def _format_real(value: float) -> str:
    if value != value:  # NaN
        return "Indeterminate"
    if value in (float("inf"), float("-inf")):
        return "Infinity" if value > 0 else "-Infinity"
    text = repr(value)
    return text


_INFIX = {
    "Plus": (" + ", 60),
    "Times": ("*", 70),
    "Power": ("^", 80),
    "Equal": (" == ", 55),
    "Unequal": (" != ", 55),
    "SameQ": (" === ", 55),
    "UnsameQ": (" =!= ", 55),
    "Less": (" < ", 55),
    "Greater": (" > ", 55),
    "LessEqual": (" <= ", 55),
    "GreaterEqual": (" >= ", 55),
    "And": (" && ", 45),
    "Or": (" || ", 40),
    "Rule": (" -> ", 35),
    "RuleDelayed": (" :> ", 35),
    "ReplaceAll": (" /. ", 30),
    "Set": (" = ", 20),
    "SetDelayed": (" := ", 20),
    "CompoundExpression": ("; ", 10),
    "StringJoin": (" <> ", 58),
    "Condition": (" /; ", 37),
    "Dot": (" . ", 72),
}


def input_form(node: MExpr, parent_prec: int = 0) -> str:
    """A readable infix rendering (round-trips through the parser).

    Like :func:`full_form`, an explicit stack: each node expands into the
    text around its children and the children with the precedence they
    are printed at, so any depth renders.
    """
    out: list[str] = []
    # pending pieces, last first: a str is emitted as is, a
    # ``(node, precedence)`` pair expanded by ``_input_pieces``
    pending: list = [(node, parent_prec)]
    while pending:
        item = pending.pop()
        if type(item) is str:
            out.append(item)
        else:
            pieces = _input_pieces(*item)
            pieces.reverse()
            pending.extend(pieces)
    return "".join(out)


def _joined(args, separator: str, prec: int = 0) -> list:
    pieces: list = []
    for index, argument in enumerate(args):
        if index:
            pieces.append(separator)
        pieces.append((argument, prec))
    return pieces


_BLANKS = {"Blank": "_", "BlankSequence": "__", "BlankNullSequence": "___"}


def _input_pieces(node: MExpr, parent_prec: int) -> list:
    """One node of :func:`input_form`: its text around its children."""
    if node.is_atom():
        return [_atom_form(node)]
    name = head_name(node)
    args = node.args
    if name == "List":
        return ["{", *_joined(args, ", "), "}"]
    if name == "Slot" and len(args) == 1 and isinstance(args[0], MInteger):
        index = args[0].value
        return ["#" if index == 1 else f"#{index}"]
    if name == "Function" and len(args) == 1:
        return ["(", (args[0], 26), " & )"]
    if name == "Part" and len(args) >= 2:
        return [(args[0], 100), "[[", *_joined(args[1:], ", "), "]]"]
    if name == "Pattern" and len(args) == 2:
        sub = args[1]
        if head_name(sub) in _BLANKS:
            inner = [(sub.args[0], 0)] if sub.args else []
            return [(args[0], 0), _BLANKS[head_name(sub)], *inner]
    if name in _BLANKS:
        inner = [(args[0], 0)] if args else []
        return [_BLANKS[name], *inner]
    if name in _INFIX and len(args) >= 2:
        separator, prec = _INFIX[name]
        body = _joined(args, separator, prec + 1)
        if prec < parent_prec:
            return ["(", *body, ")"]
        return body
    if name == "Times" and len(args) == 2:
        first = args[0]
        if isinstance(first, MInteger) and first.value == -1:
            body = ["-", (args[1], 76)]
            return ["(", *body, ")"] if parent_prec > 60 else body
    head = node.head
    head_text = (
        [_atom_form(head)] if head.is_atom() else ["(", (head, 0), ")"]
    )
    return [*head_text, "[", *_joined(args, ", "), "]"]
