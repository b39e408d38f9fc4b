"""A Wolfram-syntax parser producing :class:`MExpr` trees.

Supports the language subset the paper's examples use: ``f[x]`` application,
``{...}`` lists, ``[[...]]`` part extraction, the arithmetic / comparison /
logical operator grammar, pure functions (``#`` and ``&``), rules and
replacement (``->``, ``:>``, ``/.``), assignment (``=``, ``:=``), patterns
(``x_``, ``x_Integer``, ``x__``, ``/;``), compound expressions (``;``), and
``(* comments *)``.  The Unicode aliases used in the paper's listings
(``→``, ``≡``, ``≥``, ``≤``, ``≠``, ``π``) are accepted.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

from repro.errors import WolframParseError
from repro.mexpr.atoms import MInteger, MReal, MString, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.symbols import S, is_head


class Token(NamedTuple):
    kind: str  # 'int' | 'real' | 'string' | 'name' | 'op' | 'eof'
    text: str
    pos: int


_UNICODE_ALIASES = {
    "→": "->",   # → Rule
    "≡": "===",  # ≡ SameQ (as used in the paper's listings)
    "≥": ">=",   # ≥
    "≤": "<=",   # ≤
    "≠": "!=",   # ≠
}

_STRING_ESCAPES = {"n": "\n", "t": "\t"}

#: what the empty group closing each alternative of the token pattern
#: stands for: the first eight a token kind, the rest a case
#: :func:`tokenize` handles itself
_ROLES = (
    None, "name", "name", "op", "real", "int", "real", "op", "op",
    "comment", "skip", "string", "unterminated", "alias", "pi", "eof",
    "unexpected",
)
_PLAIN_ROLES = 8


@lru_cache(maxsize=8)
def _token_pattern(digits: str = "", not_letters: str = "") -> re.Pattern:
    r"""One token and the white space after it.  Every alternative starts
    with a literal or a set — which lets the matcher discard it on one
    character — and no two start alike; it ends in an empty group whose
    number says what matched (``_ROLES``).  Where two roles share a first
    character the alternative decides after it: a number before ``.``, a
    comment before ``(``, three characters before two.

    ``\d`` is ``str.isdecimal`` and ``[^\W_]`` is ``str.isalnum``, but a
    number's digits are ``str.isdigit`` and a name starts on
    ``str.isalpha``: ``digits`` and ``not_letters`` are the characters of
    a text on which those differ (``²``, ``½``; see :func:`tokenize`)."""
    digit = rf"[\d{digits}]"
    exponent = rf"(?:\*\^[+-]?{digit}*|[eE](?=[\d{digits}+-])[+-]?{digit}*)"
    name_rest = r"[^\W_]*(?:[$`][^\W_]*)*"
    return re.compile(
        rf"""(?:
          [^\W\d_π{not_letters}]{name_rest}()
        | \${name_rest}()
        | (?:===|=!=|//\.|@@@
            |&&|\|\||==|!=|<=|>=|->|:>|:=|/\.|//|/;|@@|/@|<>|\+\+|--
            |\+=|-=|\*=|/=|\*\^
            |[-+*/^)\[\]{{}},;=<>!&@\#_?:|'])()
        | {digit}+(?:(?:\.(?!\.){digit}*{exponent}?|{exponent})()|())
        | \.(?:{digit}+{exponent}?()|())
        | \((?:(?!\*)()|\*())
        | [ \t\r\n]+()
        | "(?:[^"\\]*(?:\\.[^"\\]*)*"()|())
        | [{"".join(_UNICODE_ALIASES)}]()
        | π()
        | \Z()
        | .()
        )[ \t\r\n]*""",
        re.VERBOSE | re.DOTALL,
    )


_COMMENT_EDGE = re.compile(r"\(\*|\*\)")
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _unescape(match: re.Match) -> str:
    return _STRING_ESCAPES.get(match.group(1), match.group(1))


def tokenize(text: str) -> list[Token]:
    return list(map(Token._make, _scan(text)))


def _scan(text: str) -> list[tuple[str, str, int]]:
    """The ``(kind, text, pos)`` of every token, ``eof`` last — what the
    parser reads; :func:`tokenize` is the same list with named fields."""
    if text.isascii():
        pattern = _token_pattern()
    else:
        odd = [c for c in sorted(set(text)) if not c.isdecimal()]
        pattern = _token_pattern(
            "".join(c for c in odd if c.isdigit()),
            "".join(c for c in odd if c.isalnum() and not c.isalpha()),
        )
    tokens: list[tuple[str, str, int]] = []
    append, roles = tokens.append, _ROLES
    resume = 0
    while resume is not None:
        matches, resume = pattern.finditer(text, resume), None
        for match in matches:
            group, start = match.lastindex, match.start()
            if group <= _PLAIN_ROLES:  # nearly every token: one tuple
                append((roles[group], text[start:match.start(group)], start))
                continue
            kind, value = roles[group], text[start:match.start(group)]
            if kind == "skip":
                continue
            if kind == "eof":
                append((kind, value, start))
                return tokens
            if kind == "comment":
                depth, resume = 1, start + 2
                while depth:
                    edge = _COMMENT_EDGE.search(text, resume)
                    if edge is None:
                        raise WolframParseError("unterminated comment")
                    depth += 1 if edge.group() == "(*" else -1
                    resume = edge.end()
                break
            if kind == "unterminated":
                raise WolframParseError(f"unterminated string at {start}")
            if kind == "unexpected":
                raise WolframParseError(
                    f"unexpected character {value!r} at position {start}"
                )
            if kind == "string":
                value = value[1:-1]
                if "\\" in value:
                    value = _ESCAPE.sub(_unescape, value)
            elif kind == "alias":
                kind, value = "op", _UNICODE_ALIASES[value]
            elif kind == "pi":
                kind, value = "name", "Pi"
            append((kind, value, start))
    return tokens


#: how deeply expressions may nest — brackets, braces, parentheses, prefix
#: operators and right-associative chains each count one level; the
#: parser spends at most two Python frames a level, so any caller with a
#: few hundred frames of headroom gets a :class:`WolframParseError`, never
#: a ``RecursionError``
MAX_DEPTH = 256

#: binding power of implicit multiplication (``2 Pi``), same tier as ``*``.
_IMPLICIT_TIMES_BP = 70

_PLUS, _TIMES, _POWER, _LIST, _PART = S.Plus, S.Times, S.Power, S.List, S.Part
_PATTERN, _SLOT, _COMPOUND = S.Pattern, S.Slot, S.CompoundExpression
_APPLY, _MAP = S.Apply, S.Map
_BLANKS = (None, S.Blank, S.BlankSequence, S.BlankNullSequence)

#: what a prefix operator builds: ``(binding power of the operand, head)``;
#: ``-`` and ``+`` are handled in :meth:`Parser.parse_expr`
_PREFIX = {"!": (50, S.Not), "++": (85, S.PreIncrement),
           "--": (85, S.PreDecrement)}

#: what a postfix operator builds around the expression before it, all at
#: binding power 25 (``&``) or above
_POSTFIX = {"&": (25, S.Function), "++": (85, S.Increment),
            "--": (85, S.Decrement), "'": (99, S.Derivative1)}

#: what ends the statements of ``a; b;`` early (a trailing ``;`` is Null)
_COMPOUND_ENDS = frozenset((")", "]", "}", ",", "]]"))


def _nary(name: str):
    """The builder of an operator that chains n-ary in Wolfram: ``1 < 2 < 3``
    is ``Less[1, 2, 3]`` and ``a + b + c`` one ``Plus``.  An operand whose
    head already is ``name`` — the chain so far, or ``Plus[a, b]`` spelled
    out — contributes its arguments."""
    head = S(name)

    def build(lhs: MExpr, rhs: MExpr) -> MExpr:
        if (type(lhs) is MExprNormal and isinstance(lhs.head, MSymbol)
                and lhs.head.name == name):
            left = lhs.args
        else:
            left = (lhs,)
        if (type(rhs) is MExprNormal and isinstance(rhs.head, MSymbol)
                and rhs.head.name == name):
            return MExprNormal(head, left + rhs.args)
        return MExprNormal(head, left + (rhs,))

    return build


def _binary(name: str):
    head = S(name)
    return lambda lhs, rhs: MExprNormal(head, (lhs, rhs))


def _pattern(lhs: MExpr, rhs: MExpr) -> MExpr:
    if not isinstance(lhs, MSymbol):
        raise WolframParseError("pattern name must be a symbol")
    return MExprNormal(_PATTERN, (lhs, rhs))


_plus, _times = _nary("Plus"), _nary("Times")

#: every infix operator, by token: ``(binding power, binding power of the
#: right operand, builder)`` — the right operand binds at the operator's
#: own power where the operator is right-associative, one above it where
#: it is left-associative; the binding powers loosely follow the Wolfram
#: operator-precedence table
_INFIX = {
    **{op: (20, 20, _binary(head)) for op, head in (
        ("=", "Set"), (":=", "SetDelayed"), ("+=", "AddTo"),
        ("-=", "SubtractFrom"), ("*=", "TimesBy"), ("/=", "DivideBy"))},
    "//": (24, 25, lambda lhs, fn: MExprNormal(fn, (lhs,))),
    "/.": (30, 31, _binary("ReplaceAll")),
    "//.": (30, 31, _binary("ReplaceRepeated")),
    "->": (35, 35, _binary("Rule")),
    ":>": (35, 35, _binary("RuleDelayed")),
    "/;": (37, 38, _binary("Condition")),
    "||": (40, 41, _nary("Or")),
    "&&": (45, 46, _nary("And")),
    **{op: (55, 56, _nary(head)) for op, head in (
        ("==", "Equal"), ("!=", "Unequal"), ("===", "SameQ"),
        ("=!=", "UnsameQ"), ("<", "Less"), (">", "Greater"),
        ("<=", "LessEqual"), (">=", "GreaterEqual"))},
    "<>": (58, 59, _nary("StringJoin")),
    "+": (60, 61, _plus),
    "-": (60, 61, lambda lhs, rhs: _plus(
        lhs, MExprNormal(_TIMES, (MInteger(-1), rhs)))),
    "*": (70, 71, _times),
    "/": (70, 71, lambda lhs, rhs: _times(
        lhs, MExprNormal(_POWER, (rhs, MInteger(-1))))),
    ".": (72, 73, _nary("Dot")),
    "^": (80, 80, _binary("Power")),
    "@@": (88, 88, lambda lhs, rhs: MExprNormal(_APPLY, (lhs, rhs))),
    "@@@": (88, 88, lambda lhs, rhs: MExprNormal(
        _APPLY, (lhs, rhs, MExprNormal(_LIST, (MInteger(1),))))),
    "/@": (88, 88, lambda lhs, rhs: MExprNormal(_MAP, (lhs, rhs))),
    "@": (90, 90, lambda lhs, rhs: MExprNormal(lhs, (rhs,))),
    "?": (96, 97, _binary("PatternTest")),
    ":": (97, 97, _pattern),
}

_COMPOUND_BP = 10


class Parser:
    """One Pratt parser over :func:`_scan`'s tokens: :meth:`parse_expr`
    reads an operand and then every operator that binds at least as
    tightly as its caller asked."""

    def __init__(self, text: str):
        #: ``(kind, text, pos)`` tuples, ``eof`` last
        self.tokens = _scan(text)
        self.pos = 0

    def expect(self, text: str) -> None:
        _, found, at = self.tokens[self.pos]
        self.pos += 1
        if found != text:
            raise WolframParseError(
                f"expected {text!r} but found {found!r} at position {at}"
            )

    def parse(self) -> MExpr:
        node = self.parse_expr(0, 0)
        kind, text, at = self.tokens[self.pos]
        if kind != "eof":
            raise WolframParseError(
                f"unexpected trailing input {text!r} at position {at}"
            )
        return node

    def parse_expr(self, min_bp: int, depth: int) -> MExpr:
        """The expression at ``depth`` levels of nesting that takes every
        operator binding at least as tightly as ``min_bp``."""
        tokens = self.tokens
        kind, text, at = tokens[self.pos]
        if depth == MAX_DEPTH:
            raise WolframParseError(f"nesting too deep at position {at}")
        depth += 1
        self.pos += 1
        # -- the operand: an atom, a bracketed form or a prefix operator
        if kind == "name":
            if tokens[self.pos][1] == "_" and tokens[self.pos][0] == "op":
                node = self.parse_blank(MSymbol(text))
            else:
                node = MSymbol(text)
        elif kind == "op":
            if text == "(":
                node = self.parse_expr(0, depth)
                self.expect(")")
            elif text == "{":
                node = MExprNormal(_LIST, self.parse_sequence("}", depth))
            elif text == "-":
                node = self.parse_expr(75, depth)
                if isinstance(node, MInteger):
                    node = MInteger(-node.value)
                elif isinstance(node, MReal):
                    node = MReal(-node.value)
                else:
                    node = MExprNormal(_TIMES, (MInteger(-1), node))
            elif text == "#":
                kind, digits, _ = tokens[self.pos]
                if kind == "int":
                    self.pos += 1
                    node = MExprNormal(_SLOT, (MInteger(int(digits)),))
                else:
                    node = MExprNormal(_SLOT, (MInteger(1),))
            elif text == "+":
                node = self.parse_expr(75, depth)
            elif text in _PREFIX:
                bp, head = _PREFIX[text]
                node = MExprNormal(head, (self.parse_expr(bp, depth),))
            elif text == "_":
                node = self.parse_blank(None)
            else:
                raise WolframParseError(
                    f"unexpected token {text!r} at position {at}")
        elif kind == "int":
            node = MInteger(int(text))
        elif kind == "real":
            node = MReal(float(text.replace("*^", "e")))
        elif kind == "string":
            node = MString(text)
        else:
            raise WolframParseError(
                f"unexpected token {text!r} at position {at}")
        # -- every operator that binds at least as tightly as ``min_bp``
        while True:
            kind, text, _ = tokens[self.pos]
            if kind == "op":
                infix = _INFIX.get(text)
                if infix is not None:
                    bp, right_bp, build = infix
                    if bp < min_bp:
                        break
                    self.pos += 1
                    node = build(node, self.parse_expr(right_bp, depth))
                elif text == "[":
                    if min_bp > 100:
                        break
                    # f[args] and x[[parts]]: Part is two `[` tokens
                    kind, text, _ = tokens[self.pos + 1]
                    if text == "[" and kind == "op":
                        self.pos += 2
                        parts = self.parse_sequence("]", depth)
                        self.expect("]")
                        node = MExprNormal(_PART, (node, *parts))
                    else:
                        self.pos += 1
                        node = MExprNormal(node, self.parse_sequence("]", depth))
                elif text in _POSTFIX:
                    bp, head = _POSTFIX[text]
                    if bp < min_bp:
                        break
                    self.pos += 1
                    node = MExprNormal(head, (node,))
                elif text == ";":
                    if min_bp > _COMPOUND_BP:
                        break
                    node = self.parse_compound(node, depth)
                elif text == "#" and min_bp <= _IMPLICIT_TIMES_BP:
                    # implicit multiplication against a slot: `2 #`
                    node = MExprNormal(_TIMES, (
                        node, self.parse_expr(_IMPLICIT_TIMES_BP + 1, depth)))
                else:
                    break
            elif kind == "eof" or min_bp > _IMPLICIT_TIMES_BP:
                break
            else:  # a number, name or string: `2 Pi`, `2 x`
                node = MExprNormal(_TIMES, (
                    node, self.parse_expr(_IMPLICIT_TIMES_BP + 1, depth)))
        return node

    def parse_compound(self, first: MExpr, depth: int) -> MExpr:
        """``a; b; c`` (and a trailing ``;`` appends ``Null``)."""
        tokens = self.tokens
        items = [first]
        while True:
            kind, text, _ = tokens[self.pos]
            if text != ";" or kind != "op":
                break
            self.pos += 1
            kind, text, _ = tokens[self.pos]
            if kind == "eof" or (kind == "op" and text in _COMPOUND_ENDS):
                items.append(MSymbol("Null"))
                break
            items.append(self.parse_expr(_COMPOUND_BP + 1, depth))
        return MExprNormal(_COMPOUND, items)

    def parse_sequence(self, close: str, depth: int) -> list[MExpr]:
        """The comma-separated expressions up to ``close``, which it
        consumes."""
        tokens = self.tokens
        kind, text, _ = tokens[self.pos]
        if text == close and kind == "op":
            self.pos += 1
            return []
        items = [self.parse_expr(0, depth)]
        while True:
            kind, text, _ = tokens[self.pos]
            if text != "," or kind != "op":
                break
            self.pos += 1
            items.append(self.parse_expr(0, depth))
        self.expect(close)
        return items

    def parse_blank(self, name: MSymbol | None) -> MExpr:
        """``_``, ``__``, ``___``, each with an optional head, after the
        first ``_`` (``x_Integer`` when ``name`` is ``x``)."""
        tokens = self.tokens
        if name is not None:
            self.pos += 1  # the first `_`
        underscores = 1
        while tokens[self.pos][1] == "_" and tokens[self.pos][0] == "op":
            self.pos += 1
            underscores += 1
        if underscores > 3:
            raise WolframParseError("too many underscores in pattern")
        kind, text, _ = tokens[self.pos]
        if kind == "name":
            self.pos += 1
            blank = MExprNormal(_BLANKS[underscores], (MSymbol(text),))
        else:
            blank = MExprNormal(_BLANKS[underscores], ())
        if name is None:
            return blank
        return MExprNormal(_PATTERN, (name, blank))


def parse(text: str) -> MExpr:
    """Parse one Wolfram-style expression from ``text``."""
    return Parser(text).parse()


def parse_all(text: str) -> list[MExpr]:
    """Parse a newline/semicolon-separated program into a list of expressions.

    Unlike :func:`parse`, this treats top-level blank lines as statement
    separators, mirroring how a notebook cell is split.
    """
    stripped = text.strip()
    if not stripped:
        return []
    node = parse(stripped)
    if is_head(node, "CompoundExpression"):
        return list(node.args)
    return [node]
