"""The parser and the key writer against the ones they replaced.

``_FrozenParser`` and ``_frozen_write_tree`` are verbatim copies of the
recursive-descent parser and the recursive key walk as they stood before
the parser was reworked (node builders bound once, one dispatch table
for the infix operators, a nesting bound) and the key walk became an
explicit-stack loop.  The reworked parser must build the same tree — node
for node, atom type for atom type — and raise the same error message on
every shipped text and every fuzzed one; the key walk must emit the same
text, so no stored artifact goes stale.  The one intended difference is
that ``!=`` and ``=!=`` now chain n-ary as ``==`` and ``===`` always did:
the frozen parser takes that as a switch, and ``test_only_unequal_chains
_changed`` pins that nothing else moved.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.artifacts import keys
from repro.compiler.options import SEMANTIC_FIELDS, CompilerOptions
from repro.errors import WolframParseError
from repro.mexpr import input_form, parse
from repro.mexpr.atoms import MComplex, MInteger, MReal, MString, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.symbols import S
from tests.test_parser import _PIECES, _corpus, _frozen_tokenize

# -- the frozen copies -------------------------------------------------------

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
_RIGHT_ASSOC = {"=", ":=", "+=", "-=", "*=", "/=", "->", ":>", "^", "@", "@@",
                "@@@", "/@", ":"}
_BINARY_HEADS = {
    "->": "Rule", ":>": "RuleDelayed", "/.": "ReplaceAll",
    "//.": "ReplaceRepeated", "||": "Or", "&&": "And", "==": "Equal",
    "!=": "Unequal", "===": "SameQ", "=!=": "UnsameQ", "<": "Less",
    ">": "Greater", "<=": "LessEqual", ">=": "GreaterEqual",
    "<>": "StringJoin", "=": "Set", ":=": "SetDelayed", "+=": "AddTo",
    "-=": "SubtractFrom", "*=": "TimesBy", "/=": "DivideBy", "^": "Power",
    ".": "Dot", "/;": "Condition", "?": "PatternTest",
}
_IMPLICIT_TIMES_BP = 70
_POSTFIX_BP = {
    **_BINARY, "[": 100, "&": 25, "++": 85, "--": 85, "'": 99,
    "#": _IMPLICIT_TIMES_BP,
}
_NARY = {"And", "Or", "StringJoin", "Dot", "Less", "Greater", "LessEqual",
         "GreaterEqual", "Equal", "SameQ"}


class _FrozenParser:
    def __init__(self, text: str, nary_unequal: bool):
        self.tokens = _frozen_tokenize(text)
        self.pos = 0
        self.nary = _NARY | ({"Unequal", "UnsameQ"} if nary_unequal else set())

    def expect(self, text):
        _, found, at = self.tokens[self.pos]
        self.pos += 1
        if found != text:
            raise WolframParseError(
                f"expected {text!r} but found {found!r} at position {at}")

    def at_op(self, text):
        kind, found, _ = self.tokens[self.pos]
        return found == text and kind == "op"

    def parse(self):
        node = self.parse_expr(0)
        kind, text, at = self.tokens[self.pos]
        if kind != "eof":
            raise WolframParseError(
                f"unexpected trailing input {text!r} at position {at}")
        return node

    def parse_expr(self, min_bp):
        node = self.parse_prefix()
        while True:
            node2 = self.parse_postfix(node, min_bp)
            if node2 is None:
                break
            node = node2
        return node

    def parse_prefix(self):
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

    def parse_postfix(self, node, min_bp):
        kind, text, _ = self.tokens[self.pos]
        if kind == "eof":
            return None
        if kind == "op":
            bp = _POSTFIX_BP.get(text)
            if bp is None or bp < min_bp:
                return None
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
        if _IMPLICIT_TIMES_BP >= min_bp:
            rhs = self.parse_expr(_IMPLICIT_TIMES_BP + 1)
            return MExprNormal(S.Times, [node, rhs])
        return None

    def combine_binary(self, op, lhs, rhs):
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
            return MExprNormal(S.Apply,
                               [lhs, rhs, MExprNormal(S.List, [MInteger(1)])])
        if op == "/@":
            return MExprNormal(S.Map, [lhs, rhs])
        if op == ":":
            if not isinstance(lhs, MSymbol):
                raise WolframParseError("pattern name must be a symbol")
            return MExprNormal(S.Pattern, [lhs, rhs])
        head = _BINARY_HEADS.get(op)
        if head is None:
            raise WolframParseError(f"unsupported operator {op!r}")
        if head in self.nary:
            return self.flatten(head, lhs, rhs)
        return MExprNormal(S(head), [lhs, rhs])

    @staticmethod
    def flatten(head, lhs, rhs):
        args = []
        for part in (lhs, rhs):
            if (isinstance(part, MExprNormal) and isinstance(part.head, MSymbol)
                    and part.head.name == head):
                args.extend(part.args)
            else:
                args.append(part)
        return MExprNormal(S(head), args)

    def parse_compound(self, first):
        items = [first]
        while self.at_op(";"):
            self.pos += 1
            kind, text, _ = self.tokens[self.pos]
            ends = kind == "eof" or (
                kind == "op" and text in {")", "]", "}", ",", "]]"})
            if ends:
                items.append(MSymbol("Null"))
                break
            items.append(self.parse_expr(_BINARY[";"] + 1))
        return MExprNormal(S.CompoundExpression, items)

    def parse_sequence(self, close):
        items = []
        if self.at_op(close):
            return items
        items.append(self.parse_expr(0))
        while self.at_op(","):
            self.pos += 1
            items.append(self.parse_expr(0))
        return items

    def parse_primary(self):
        kind, text, at = self.tokens[self.pos]
        self.pos += 1
        if kind == "name":
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
        raise WolframParseError(f"unexpected token {text!r} at position {at}")

    def parse_blank(self, underscores, name_symbol):
        while self.at_op("_"):
            self.pos += 1
            underscores += 1
        blank_head = {1: "Blank", 2: "BlankSequence",
                      3: "BlankNullSequence"}.get(underscores)
        if blank_head is None:
            raise WolframParseError("too many underscores in pattern")
        head_args = []
        kind, text, _ = self.tokens[self.pos]
        if kind == "name":
            self.pos += 1
            head_args.append(MSymbol(text))
        blank = MExprNormal(S(blank_head), head_args)
        if name_symbol is None:
            return blank
        return MExprNormal(S.Pattern, [name_symbol, blank])


def _frozen_write_tree(node: MExpr, emit) -> None:
    if isinstance(node, MExprNormal):
        emit(f"n{len(node.args)}:")
    elif isinstance(node, MSymbol):
        emit(f"y{len(node.name)}:{node.name}")
    elif isinstance(node, MInteger):
        emit(f"i{node.value};")
    elif isinstance(node, MReal):
        emit(f"r{node.value!r};")
    elif isinstance(node, MString):
        emit(f"s{len(node.value)}:{node.value}")
    elif isinstance(node, MComplex):
        emit(f"c{node.value.real!r},{node.value.imag!r};")
    else:  # pragma: no cover - exhaustive over node kinds
        raise TypeError(f"cannot key {type(node).__name__}")
    properties = node._properties
    if properties:
        for name in sorted(properties):
            value = properties[name]
            if value is None or isinstance(value, (str, int, float, bool)):
                text = repr(value)
                emit(f"m{len(name)}:{name}{len(text)}:{text}")
    if isinstance(node, MExprNormal):
        _frozen_write_tree(node.head, emit)
        for argument in node.args:
            _frozen_write_tree(argument, emit)


def _frozen_function_key(tree: MExpr, options: CompilerOptions) -> str:
    """``function_key(tree, options, "python")`` as it was computed: the
    shared fields, then the tree written recursively."""
    parts = [repr((
        keys.KEY_SCHEMA, keys.PYTHON_TAG, keys.runtime_fingerprint(),
        __version__, "python",
        tuple(getattr(options, name)
              for name in SEMANTIC_FIELDS),
        None, None,
    ))]
    _frozen_write_tree(tree, parts.append)
    return hashlib.sha256(
        "".join(parts).encode("utf-8", "surrogatepass")).hexdigest()


# -- comparison helpers ------------------------------------------------------


def _tree_text(tree: MExpr) -> str:
    parts: list[str] = []
    _frozen_write_tree(tree, parts.append)
    return "".join(parts)


def _outcome(parser, text: str) -> str:
    """The tree as key text (node kinds and atom types included), or the
    error's class and message (``int("①")`` is a ``ValueError`` in both)."""
    try:
        return _tree_text(parser(text))
    except (WolframParseError, ValueError) as error:
        return f"{type(error).__name__}: {error}"


def _frozen(nary_unequal: bool = True):
    return lambda text: _FrozenParser(text, nary_unequal).parse()


class TestAgainstTheFrozenParser:
    def test_every_shipped_text(self):
        texts = _corpus()
        assert len(texts) > 300
        for text in texts:
            assert _outcome(parse, text) == _outcome(_frozen(), text), text

    @given(st.lists(_PIECES, max_size=12).map("".join))
    @settings(max_examples=2000, deadline=None)
    def test_fuzzed_boundaries(self, text):
        assert _outcome(parse, text) == _outcome(_frozen(), text)

    @given(st.lists(st.sampled_from([
        "a", "1", "2.5", '"s"', "x_", "_h", "#", "#2", "f", "[", "]", "[[",
        "]]", "{", "}", "(", ")", ",", ";", "&", "+", "-", "*", "/", "^",
        "!", "==", "!=", "===", "=!=", "<", "<=", "&&", "||", "->", ":>",
        "/.", "=", ":=", "@", "@@", "/@", "//", "?", ":", "++", "--", "'",
        ".", "<>", "/;", " ",
    ]), max_size=16).map("".join))
    @settings(max_examples=3000, deadline=None)
    def test_fuzzed_grammar(self, text):
        assert _outcome(parse, text) == _outcome(_frozen(), text)

    def test_only_unequal_chains_changed(self):
        changed = [
            text for text in _corpus() + ["a != b != c", "1 =!= 2 =!= 1",
                                          "x ≠ y ≠ z", "a != b == c"]
            if _outcome(parse, text) != _outcome(_frozen(False), text)
        ]
        assert changed == ["a != b != c", "1 =!= 2 =!= 1", "x ≠ y ≠ z"]


class TestKeyTextUnchanged:
    def test_function_keys_of_every_shipped_text(self):
        options = CompilerOptions()
        count = 0
        for text in _corpus():
            try:
                tree = parse(text)
            except WolframParseError:
                continue
            count += 1
            assert keys.function_key(tree, options, "python") == \
                _frozen_function_key(tree, options), text
        assert count > 300

    def test_metadata_and_every_atom_kind(self):
        tree = parse('f[x, 1, 2.5, "s", g[y][z]]')
        tree.args[0].set_property("bound", "local")
        tree.args[0].set_property("skipped", object())
        tree.set_property("index", 3)
        tree = MExprNormal(tree, (MComplex(1.5 - 2j), tree.args[0]))
        written: list[str] = []
        keys._write_tree(tree, written.append)
        assert "".join(written) == _tree_text(tree)


# -- round trip through the printer ------------------------------------------

_NARY_HEADS = ("Plus", "Times", "And", "Or", "Equal", "Unequal", "SameQ",
               "UnsameQ", "Less", "Greater", "LessEqual", "GreaterEqual",
               "CompoundExpression", "StringJoin", "Dot")
_BINARY_PRINTED = ("Power", "Rule", "RuleDelayed", "ReplaceAll", "Set",
                   "SetDelayed", "Condition")

_symbols = st.sampled_from(["a", "b", "x", "y", "f", "Null"]).map(MSymbol)
_numbers = (
    st.integers(-10 ** 20, 10 ** 20).map(MInteger)
    | st.floats(allow_nan=False, allow_infinity=False).map(MReal)
)
_strings = st.text(alphabet='ab "\\\n', max_size=4).map(MString)
_slots = st.integers(1, 3).map(
    lambda n: MExprNormal(S.Slot, (MInteger(n),)))
_patterns = st.builds(
    lambda name, blank, head: MExprNormal(
        S.Pattern, (MSymbol(name), MExprNormal(S(blank), head)))
    if name else MExprNormal(S(blank), head),
    st.sampled_from(["", "p", "q"]),
    st.sampled_from(["Blank", "BlankSequence", "BlankNullSequence"]),
    st.sampled_from([(), (MSymbol("Integer"),)]),
)


def _negative_number(node: MExpr) -> bool:
    return isinstance(node, (MInteger, MReal)) and (
        node.value < 0 or str(node.value).startswith("-"))


def _head(node: MExpr):
    return node.head.name if isinstance(node, MExprNormal) and \
        isinstance(node.head, MSymbol) else None


def _compound(children):
    """Every node kind the parser builds, from already-valid children, in
    the forms it builds them (``a - b`` is ``Plus[a, Times[-1, b]]``)."""
    def nary(name, args):
        # an argument with the same head would be read back flattened
        return MExprNormal(S(name), [a for a in args if _head(a) != name]
                           or [MSymbol("a")])

    def ensure_two(node):
        if isinstance(node, MExprNormal) and len(node.args) < 2:
            return MExprNormal(node.head, (*node.args, MSymbol("z")))
        return node

    return st.one_of(
        st.builds(lambda name, args: ensure_two(nary(name, args)),
                  st.sampled_from(_NARY_HEADS),
                  st.lists(children, min_size=2, max_size=4)),
        st.builds(lambda name, lhs, rhs: MExprNormal(
            S(name), (MSymbol("b") if name == "Power" and
                      _negative_number(lhs) else lhs, rhs)),
                  st.sampled_from(_BINARY_PRINTED), children, children),
        st.builds(lambda node: MExprNormal(
            S.Times, (MInteger(-1), node)), children.filter(
                lambda node: not isinstance(node, (MInteger, MReal))
                and _head(node) != "Times")),
        st.builds(lambda lhs, rhs: MExprNormal(S.Times, (
            lhs, MExprNormal(S.Power, (rhs, MInteger(-1))))),
            children.filter(lambda node: _head(node) != "Times"),
            children.filter(lambda node: not _negative_number(node))),
        st.builds(lambda base, parts: MExprNormal(S.Part, (base, *parts)),
                  children.filter(lambda node: not _negative_number(node)),
                  st.lists(children, min_size=1, max_size=2)),
        st.builds(lambda body: MExprNormal(S.Function, (body,)), children),
        st.builds(lambda head, args: MExprNormal(MSymbol(head), args),
                  st.sampled_from(["f", "g"]),
                  st.lists(children, max_size=3)),
        st.builds(lambda items: MExprNormal(S.List, items),
                  st.lists(children, max_size=3)),
    )


_TREES = st.recursive(
    _symbols | _numbers | _strings | _slots | _patterns, _compound,
    max_leaves=12,
)


class TestRoundTrip:
    @given(_TREES)
    @settings(max_examples=1500, deadline=None)
    def test_parse_of_input_form_is_the_tree(self, tree):
        assert parse(input_form(tree)) == tree
