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
from repro.mexpr.symbols import S


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
            kind, value = roles[group], text[start:match.start(group)]
            if group > _PLAIN_ROLES:
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
                    value = _ESCAPE.sub(_unescape, value[1:-1])
                elif kind == "alias":
                    kind, value = "op", _UNICODE_ALIASES[value]
                elif kind == "pi":
                    kind, value = "name", "Pi"
            append((kind, value, start))
    return tokens


# Binding powers, loosely following the Wolfram operator-precedence table.
_BINARY = {
    ";": 10,
    "=": 20, ":=": 20, "+=": 20, "-=": 20, "*=": 20, "/=": 20,
    "//": 24,
    "/.": 30, "//.": 30,
    "->": 35, ":>": 35,
    "/;": 37,
    "||": 40,
    "&&": 45,
    "==": 55, "!=": 55, "===": 55, "=!=": 55,
    "<": 55, ">": 55, "<=": 55, ">=": 55,
    "<>": 58,
    "+": 60, "-": 60,
    "*": 70, "/": 70,
    ".": 72,
    "^": 80,
    "@@": 88, "@@@": 88, "/@": 88,
    "@": 90,
    "?": 96,
    ":": 97,
}
_RIGHT_ASSOC = {"=", ":=", "+=", "-=", "*=", "/=", "->", ":>", "^", "@", "@@", "@@@", "/@", ":"}

_BINARY_HEADS = {
    "->": "Rule", ":>": "RuleDelayed", "/.": "ReplaceAll", "//.": "ReplaceRepeated",
    "||": "Or", "&&": "And", "==": "Equal", "!=": "Unequal",
    "===": "SameQ", "=!=": "UnsameQ", "<": "Less", ">": "Greater",
    "<=": "LessEqual", ">=": "GreaterEqual", "<>": "StringJoin",
    "=": "Set", ":=": "SetDelayed", "+=": "AddTo", "-=": "SubtractFrom",
    "*=": "TimesBy", "/=": "DivideBy", "^": "Power", ".": "Dot",
    "/;": "Condition", "?": "PatternTest",
}

#: binding power of implicit multiplication (``2 Pi``), same tier as ``*``.
_IMPLICIT_TIMES_BP = 70

#: every operator that can continue an expression, with the binding power
#: it must reach: the binary ones, call/Part, the postfix ones and a slot
_POSTFIX_BP = {
    **_BINARY, "[": 100, "&": 25, "++": 85, "--": 85, "'": 99,
    "#": _IMPLICIT_TIMES_BP,
}


class Parser:
    def __init__(self, text: str):
        #: ``(kind, text, pos)`` tuples, ``eof`` last
        self.tokens = _scan(text)
        self.pos = 0

    # -- token helpers -------------------------------------------------------

    def expect(self, text: str) -> None:
        _, found, at = self.tokens[self.pos]
        self.pos += 1
        if found != text:
            raise WolframParseError(
                f"expected {text!r} but found {found!r} at position {at}"
            )

    def at_op(self, text: str) -> bool:
        kind, found, _ = self.tokens[self.pos]
        return found == text and kind == "op"

    # -- grammar -------------------------------------------------------------

    def parse(self) -> MExpr:
        node = self.parse_expr(0)
        kind, text, at = self.tokens[self.pos]
        if kind != "eof":
            raise WolframParseError(
                f"unexpected trailing input {text!r} at position {at}"
            )
        return node

    def parse_expr(self, min_bp: int) -> MExpr:
        node = self.parse_prefix()
        while True:
            node2 = self.parse_postfix(node, min_bp)
            if node2 is None:
                break
            node = node2
        return node

    def parse_prefix(self) -> MExpr:
        kind, text, _ = self.tokens[self.pos]
        if kind != "op":
            return self.parse_primary()
        if text == "-":
            self.pos += 1
            operand = self.parse_expr(75)
            if isinstance(operand, MInteger):
                return MInteger(-operand.value)
            if isinstance(operand, MReal):
                return MReal(-operand.value)
            return MExprNormal(S.Times, [MInteger(-1), operand])
        if text == "+":
            self.pos += 1
            return self.parse_expr(75)
        if text == "!":
            self.pos += 1
            return MExprNormal(S.Not, [self.parse_expr(50)])
        if text == "++":
            self.pos += 1
            return MExprNormal(S.PreIncrement, [self.parse_expr(85)])
        if text == "--":
            self.pos += 1
            return MExprNormal(S.PreDecrement, [self.parse_expr(85)])
        return self.parse_primary()

    def parse_postfix(self, node: MExpr, min_bp: int) -> MExpr | None:
        kind, text, _ = self.tokens[self.pos]
        if kind == "eof":
            return None
        if kind == "op":
            bp = _POSTFIX_BP.get(text)
            if bp is None or bp < min_bp:
                return None
            # f[args] and x[[parts]]: Part is two consecutive `[` tokens
            if text == "[":
                self.pos += 1
                if self.at_op("["):
                    self.pos += 1
                    parts = self.parse_sequence(close="]")
                    self.expect("]")
                    self.expect("]")
                    return MExprNormal(S.Part, [node, *parts])
                args = self.parse_sequence(close="]")
                self.expect("]")
                return MExprNormal(node, args)
            if text == ";":
                return self.parse_compound(node)
            if text == "#":
                # implicit multiplication against a slot: `2 #`
                rhs = self.parse_expr(_IMPLICIT_TIMES_BP + 1)
                return MExprNormal(S.Times, [node, rhs])
            self.pos += 1
            if text == "&":
                return MExprNormal(S.Function, [node])
            if text == "++":
                return MExprNormal(S.Increment, [node])
            if text == "--":
                return MExprNormal(S.Decrement, [node])
            if text == "'":
                return MExprNormal(S.Derivative1, [node])
            if text == "//":
                fn = self.parse_expr(bp + 1)
                return MExprNormal(fn, [node])
            next_bp = bp if text in _RIGHT_ASSOC else bp + 1
            rhs = self.parse_expr(next_bp)
            return self.combine_binary(text, node, rhs)
        # a number, name or string: implicit multiplication, `2 Pi`, `2 x`
        if _IMPLICIT_TIMES_BP >= min_bp:
            rhs = self.parse_expr(_IMPLICIT_TIMES_BP + 1)
            return MExprNormal(S.Times, [node, rhs])
        return None

    def combine_binary(self, op: str, lhs: MExpr, rhs: MExpr) -> MExpr:
        if op == "+":
            return self.flatten("Plus", lhs, rhs)
        if op == "-":
            neg = MExprNormal(S.Times, [MInteger(-1), rhs])
            return self.flatten("Plus", lhs, neg)
        if op == "*":
            return self.flatten("Times", lhs, rhs)
        if op == "/":
            inv = MExprNormal(S.Power, [rhs, MInteger(-1)])
            return self.flatten("Times", lhs, inv)
        if op == "@":
            return MExprNormal(lhs, [rhs])
        if op == "@@":
            return MExprNormal(S.Apply, [lhs, rhs])
        if op == "@@@":
            return MExprNormal(S.Apply, [lhs, rhs, MExprNormal(S.List, [MInteger(1)])])
        if op == "/@":
            return MExprNormal(S.Map, [lhs, rhs])
        if op == ":":
            if not isinstance(lhs, MSymbol):
                raise WolframParseError("pattern name must be a symbol")
            return MExprNormal(S.Pattern, [lhs, rhs])
        head = _BINARY_HEADS.get(op)
        if head is None:
            raise WolframParseError(f"unsupported operator {op!r}")
        if head in {"And", "Or", "StringJoin", "Dot", "Less", "Greater",
                    "LessEqual", "GreaterEqual", "Equal", "SameQ"}:
            # comparisons chain n-ary in Wolfram: 1 < 2 < 3 is Less[1, 2, 3]
            return self.flatten(head, lhs, rhs)
        return MExprNormal(S(head), [lhs, rhs])

    @staticmethod
    def flatten(head: str, lhs: MExpr, rhs: MExpr) -> MExpr:
        """Merge nested same-head binary parses into one n-ary node."""
        args: list[MExpr] = []
        from repro.mexpr.symbols import is_head

        for part in (lhs, rhs):
            if is_head(part, head):
                args.extend(part.args)
            else:
                args.append(part)
        return MExprNormal(S(head), args)

    def parse_compound(self, first: MExpr) -> MExpr:
        """``a; b; c`` (and a trailing ``;`` appends ``Null``)."""
        items = [first]
        while self.at_op(";"):
            self.pos += 1
            kind, text, _ = self.tokens[self.pos]
            ends = kind == "eof" or (
                kind == "op" and text in {")", "]", "}", ",", "]]"}
            )
            if ends:
                items.append(MSymbol("Null"))
                break
            items.append(self.parse_expr(_BINARY[";"] + 1))
        return MExprNormal(S.CompoundExpression, items)

    def parse_sequence(self, close: str) -> list[MExpr]:
        items: list[MExpr] = []
        if self.at_op(close):
            return items
        # `]]` closing may appear as two `]`s if parts nested oddly; keep simple
        items.append(self.parse_expr(0))
        while self.at_op(","):
            self.pos += 1
            items.append(self.parse_expr(0))
        return items

    def parse_primary(self) -> MExpr:
        kind, text, at = self.tokens[self.pos]
        self.pos += 1
        if kind == "name":
            # `x_`, `x__`, `x___`, `x_Head` after an identifier
            if self.at_op("_"):
                self.pos += 1
                return self.parse_blank(1, MSymbol(text))
            return MSymbol(text)
        if kind == "int":
            return MInteger(int(text))
        if kind == "real":
            return MReal(float(text.replace("*^", "e")))
        if kind == "string":
            return MString(text)
        if kind == "op":
            if text == "(":
                inner = self.parse_expr(0)
                self.expect(")")
                return inner
            if text == "{":
                items = self.parse_sequence(close="}")
                self.expect("}")
                return MExprNormal(S.List, items)
            if text == "#":
                kind, digits, _ = self.tokens[self.pos]
                if kind == "int":
                    self.pos += 1
                    return MExprNormal(S.Slot, [MInteger(int(digits))])
                return MExprNormal(S.Slot, [MInteger(1)])
            if text == "_":
                return self.parse_blank(1, None)
        raise WolframParseError(
            f"unexpected token {text!r} at position {at}"
        )

    def parse_blank(self, underscores: int, name_symbol: MSymbol | None) -> MExpr:
        while self.at_op("_"):
            self.pos += 1
            underscores += 1
        blank_head = {1: "Blank", 2: "BlankSequence", 3: "BlankNullSequence"}.get(underscores)
        if blank_head is None:
            raise WolframParseError("too many underscores in pattern")
        head_args: list[MExpr] = []
        kind, text, _ = self.tokens[self.pos]
        if kind == "name":
            self.pos += 1
            head_args.append(MSymbol(text))
        blank = MExprNormal(S(blank_head), head_args)
        if name_symbol is None:
            return blank
        return MExprNormal(S.Pattern, [name_symbol, blank])


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
    from repro.mexpr.symbols import is_head

    if is_head(node, "CompoundExpression"):
        return [a for a in node.args]
    return [node]
