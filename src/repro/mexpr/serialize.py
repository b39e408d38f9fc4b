"""MExpr serialization (§4.2: MExprs "can be serialized and deserialized").

The wire format is a small JSON-compatible tagged tree, including node
metadata, so serialized ASTs survive a round trip with binding annotations
intact (the compiler uses this for caching and for the exported-library
header).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _json_string
from typing import Any

from repro.errors import WolframParseError
from repro.mexpr.atoms import MComplex, MInteger, MReal, MString, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal


def _atom_wire(node: MExpr) -> dict[str, Any]:
    if isinstance(node, MInteger):
        return {"t": "i", "v": node.value}
    if isinstance(node, MReal):
        return {"t": "r", "v": node.value}
    if isinstance(node, MComplex):
        return {"t": "c", "re": node.value.real, "im": node.value.imag}
    if isinstance(node, MString):
        return {"t": "s", "v": node.value}
    if isinstance(node, MSymbol):
        return {"t": "y", "v": node.name}
    raise TypeError(f"cannot serialize {type(node).__name__}")


def to_wire(node: MExpr) -> dict[str, Any]:
    """Convert a tree to the tagged-dict wire format.

    The walk keeps its own stack, so a tree of any depth converts: each
    pending node carries the slot its payload fills (an argument index, or
    its parent's ``"h"``), so the order the stack pops them in is free.
    """
    root: list = [None]
    pending: list = [(node, root, 0)]
    pop, push = pending.pop, pending.append
    while pending:
        current, container, slot = pop()
        kind = type(current)
        if kind is MSymbol:
            payload = {"t": "y", "v": current.name}
        elif kind is MInteger:
            payload = {"t": "i", "v": current.value}
        elif isinstance(current, MExprNormal):
            args = current.args
            wired: list = [None] * len(args)
            payload = {"t": "n", "h": None, "a": wired}
            push((current.head, payload, "h"))
            for index, argument in enumerate(args):
                push((argument, wired, index))
        else:
            payload = _atom_wire(current)
        if current._properties is not None:
            metadata = _serializable_metadata(current)
            if metadata:
                payload["m"] = metadata
        container[slot] = payload
    return root[0]


def _serializable_metadata(node: MExpr) -> dict[str, Any]:
    if node._properties is None:
        return {}
    out = {}
    for key, value in node._properties.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
    return out


#: marks, on :func:`from_wire`'s stack, a normal payload whose head and
#: arguments are built and waiting on top of the finished nodes
_ASSEMBLE = object()


def from_wire(payload: dict[str, Any]) -> MExpr:
    """Rebuild a tree from the wire format (any depth, like :func:`to_wire`).

    Post-order with an explicit stack: a normal payload's arguments and
    then its head are built first, on top of ``done``, and the payload,
    met again under :data:`_ASSEMBLE`, takes them off.
    """
    done: list[MExpr] = []
    pending: list = [payload]
    pop, push = pending.pop, pending.append
    while pending:
        current = pop()
        if current is _ASSEMBLE:
            current = pop()
            head = done.pop()
            count = len(current["a"])
            if count:
                node: MExpr = MExprNormal(head, done[-count:])
                del done[-count:]
            else:
                node = MExprNormal(head, ())
        else:
            tag = current["t"]
            if tag == "n":
                push(current)
                push(_ASSEMBLE)
                push(current["h"])
                pending.extend(reversed(current["a"]))
                continue
            if tag == "y":
                node = MSymbol(current["v"])
            elif tag == "i":
                node = MInteger(current["v"])
            elif tag == "r":
                node = MReal(current["v"])
            elif tag == "c":
                node = MComplex(complex(current["re"], current["im"]))
            elif tag == "s":
                node = MString(current["v"])
            else:
                raise ValueError(f"unknown wire tag {tag!r}")
        if "m" in current:
            for key, value in current["m"].items():
                node.set_property(key, value)
        done.append(node)
    return done[0]


def _json_float(value: float) -> str:
    """A float as ``json.dumps`` writes it."""
    if value != value:
        return "NaN"
    if value in (_INFINITY, -_INFINITY):
        return "Infinity" if value > 0 else "-Infinity"
    return repr(value)


def _atom_json(node: MExpr) -> str:
    """An atom's payload as ``json.dumps`` writes it, without the
    closing brace (metadata may follow)."""
    if isinstance(node, MSymbol):
        return '{"t":"y","v":' + _json_string(node.name)
    if isinstance(node, MInteger):
        return '{"t":"i","v":' + int.__repr__(node.value)
    if isinstance(node, MReal):
        return '{"t":"r","v":' + _json_float(node.value)
    if isinstance(node, MString):
        return '{"t":"s","v":' + _json_string(node.value)
    if isinstance(node, MComplex):
        return ('{"t":"c","re":' + _json_float(node.value.real)
                + ',"im":' + _json_float(node.value.imag))
    raise TypeError(f"cannot serialize {type(node).__name__}")


def dumps(node: MExpr) -> str:
    """The wire format as compact JSON text — exactly
    ``json.dumps(to_wire(node), separators=(",", ":"))``, written with an
    explicit stack so a tree of any depth serializes."""
    out: list[str] = []
    pending: list = [node]
    append, push = out.append, pending.append
    while pending:
        current = pending.pop()
        if type(current) is str:
            append(current)
            continue
        if current._properties is not None:
            metadata = _serializable_metadata(current)
            close = (',"m":' + json.dumps(metadata, separators=_COMPACT)
                     + "}") if metadata else "}"
        else:
            close = "}"
        if not isinstance(current, MExprNormal):
            append(_atom_json(current))
            append(close)
            continue
        push("]" + close)
        args = current.args
        for index in range(len(args) - 1, 0, -1):
            push(args[index])
            push(",")
        if args:
            push(args[0])
        push(',"a":[')
        push(current.head)
        append('{"t":"n","h":')
    return "".join(out)


def loads(text: str) -> MExpr:
    """Rebuild a tree from :func:`dumps` text.  JSON decoding recurses:
    text nested past the host's frame limit is a classified
    :class:`~repro.errors.WolframParseError`, never a ``RecursionError``."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise WolframParseError(
            "serialized expression nests too deeply to decode"
        ) from None
    return from_wire(payload)


_COMPACT = (",", ":")
_INFINITY = float("inf")
