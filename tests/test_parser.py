"""Parser tests: grammar coverage, precedence, round-trips, errors."""

import glob
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WolframParseError
from repro.mexpr import full_form, input_form, parse, tokenize


def ff(text: str) -> str:
    return full_form(parse(text))


class TestLiterals:
    def test_integer(self):
        assert ff("42") == "42"

    def test_negative_integer(self):
        assert ff("-42") == "-42"

    def test_real(self):
        assert ff("2.5") == "2.5"

    def test_real_wolfram_exponent(self):
        assert ff("1.5*^3") == "1500.0"

    def test_real_e_exponent(self):
        assert ff("2.0e-2") == "0.02"

    def test_string(self):
        assert ff('"hello"') == '"hello"'

    def test_string_escapes(self):
        assert parse(r'"a\nb"').value == "a\nb"
        assert parse(r'"say \"hi\""').value == 'say "hi"'

    def test_symbol(self):
        assert ff("foo") == "foo"

    def test_context_symbol(self):
        assert ff("Native`PartSet") == "Native`PartSet"

    def test_unicode_pi(self):
        assert ff("π") == "Pi"


class TestOperators:
    @pytest.mark.parametrize("source,expected", [
        ("1+2", "Plus[1, 2]"),
        ("1+2+3", "Plus[1, 2, 3]"),
        ("a-b", "Plus[a, Times[-1, b]]"),
        ("2*3", "Times[2, 3]"),
        ("a/b", "Times[a, Power[b, -1]]"),
        ("2^3^2", "Power[2, Power[3, 2]]"),
        ("1+2*3", "Plus[1, Times[2, 3]]"),
        ("(1+2)*3", "Times[Plus[1, 2], 3]"),
        ("a == b", "Equal[a, b]"),
        ("a != b", "Unequal[a, b]"),
        ("a === b", "SameQ[a, b]"),
        ("a =!= b", "UnsameQ[a, b]"),
        ("a < b", "Less[a, b]"),
        ("a <= b", "LessEqual[a, b]"),
        ("a && b && c", "And[a, b, c]"),
        ("a || b", "Or[a, b]"),
        ("!a", "Not[a]"),
        ("a -> b", "Rule[a, b]"),
        ("a :> b", "RuleDelayed[a, b]"),
        ("x /. a -> b", "ReplaceAll[x, Rule[a, b]]"),
        ("a = b", "Set[a, b]"),
        ("a := b", "SetDelayed[a, b]"),
        ("a += 2", "AddTo[a, 2]"),
        ("a <> b", "StringJoin[a, b]"),
        ("a . b", "Dot[a, b]"),
        ("f @ x", "f[x]"),
        ("x // f", "f[x]"),
        ("f /@ x", "Map[f, x]"),
        ("f @@ x", "Apply[f, x]"),
        ("i++", "Increment[i]"),
        ("i--", "Decrement[i]"),
        ("p /; c", "Condition[p, c]"),
    ])
    def test_operator(self, source, expected):
        assert ff(source) == expected

    def test_unicode_aliases(self):
        assert ff("a → b") == "Rule[a, b]"
        assert ff("a ≡ b") == "SameQ[a, b]"
        assert ff("a ≥ b") == "GreaterEqual[a, b]"
        assert ff("a ≤ b") == "LessEqual[a, b]"
        assert ff("a ≠ b") == "Unequal[a, b]"

    def test_implicit_multiplication(self):
        assert ff("2 x") == "Times[2, x]"
        assert ff("2π") == "Times[2, Pi]"

    def test_precedence_set_vs_compound(self):
        assert ff("a = 1; b = 2") == (
            "CompoundExpression[Set[a, 1], Set[b, 2]]"
        )

    def test_trailing_semicolon_appends_null(self):
        assert ff("a;") == "CompoundExpression[a, Null]"

    def test_right_assoc_rule(self):
        assert ff("a -> b -> c") == "Rule[a, Rule[b, c]]"

    def test_prefix_at_right_assoc(self):
        assert ff("f @ g @ x") == "f[g[x]]"


class TestCallsAndParts:
    def test_call(self):
        assert ff("f[1, 2]") == "f[1, 2]"

    def test_zero_arg_call(self):
        assert ff("f[]") == "f[]"

    def test_curried_call(self):
        assert ff("f[1][2]") == "f[1][2]"

    def test_list(self):
        assert ff("{1, 2, 3}") == "List[1, 2, 3]"

    def test_nested_list(self):
        assert ff("{{1}, {2}}") == "List[List[1], List[2]]"

    def test_part(self):
        assert ff("x[[1]]") == "Part[x, 1]"

    def test_multi_part(self):
        assert ff("m[[i, j]]") == "Part[m, i, j]"

    def test_negative_part(self):
        assert ff("x[[-1]]") == "Part[x, -1]"

    def test_part_of_call_result(self):
        assert ff("f[x][[2]]") == "Part[f[x], 2]"

    def test_nested_brackets_disambiguation(self):
        # the `]]` of the inner Part must not eat the If's closing brackets
        assert ff("If[a, x[[1]], x[[2]]]") == (
            "If[a, Part[x, 1], Part[x, 2]]"
        )


class TestFunctionsAndSlots:
    def test_slot(self):
        assert ff("#") == "Slot[1]"
        assert ff("#2") == "Slot[2]"

    def test_pure_function(self):
        assert ff("#^2 &") == "Function[Power[Slot[1], 2]]"

    def test_applied_pure_function(self):
        assert ff("(#+1)&[5]") == "Function[Plus[Slot[1], 1]][5]"

    def test_named_function(self):
        assert ff("Function[{x}, x + 1]") == "Function[List[x], Plus[x, 1]]"


class TestPatterns:
    def test_blank(self):
        assert ff("_") == "Blank[]"

    def test_named_blank(self):
        assert ff("x_") == "Pattern[x, Blank[]]"

    def test_typed_blank(self):
        assert ff("x_Integer") == "Pattern[x, Blank[Integer]]"

    def test_blank_sequence(self):
        assert ff("x__") == "Pattern[x, BlankSequence[]]"

    def test_blank_null_sequence(self):
        assert ff("x___") == "Pattern[x, BlankNullSequence[]]"

    def test_pattern_test(self):
        assert ff("x_?EvenQ") == "PatternTest[Pattern[x, Blank[]], EvenQ]"

    def test_pattern_colon(self):
        assert ff("x : f[_]") == "Pattern[x, f[Blank[]]]"


class TestComments:
    def test_comment_ignored(self):
        assert ff("1 + (* note *) 2") == "Plus[1, 2]"

    def test_nested_comment(self):
        assert ff("(* a (* b *) c *) 5") == "5"

    def test_unterminated_comment(self):
        with pytest.raises(WolframParseError):
            parse("(* oops")


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "", "1 +", "f[", "{1, 2", "(1", '"unterminated', "1 ]", "x[[1]",
    ])
    def test_raises(self, bad):
        with pytest.raises(WolframParseError):
            parse(bad)


class TestNesting:
    """Nesting past ``MAX_DEPTH`` is a classified parse error, never a
    ``RecursionError``, whatever construct does the nesting."""

    @pytest.mark.parametrize("opening, middle, closing", [
        ("(", "1", ")"), ("f[", "1", "]"), ("{", "1", "}"),
        ("x[[", "1", "]]"), ("-", "x", ""), ("!", "x", ""), ("++", "x", ""),
        ("a^", "a", ""), ("a -> ", "a", ""), ("f @ ", "x", ""),
        ("a = ", "1", ""), ("(a; ", "b", ")"), ("p : ", "_", ""),
    ], ids=lambda part: part.strip() or "-")
    def test_deep_nesting_is_a_parse_error(self, opening, middle, closing):
        text = opening * 3000 + middle + closing * 3000
        with pytest.raises(WolframParseError, match="nesting too deep"):
            parse(text)

    def test_depth_bound_is_exact(self):
        from repro.mexpr.parser import MAX_DEPTH

        inside = "{" * (MAX_DEPTH - 1) + "1" + "}" * (MAX_DEPTH - 1)
        tree = parse(inside)
        for _ in range(MAX_DEPTH - 1):
            tree = tree.args[0]
        assert tree == parse("1")
        with pytest.raises(WolframParseError, match="nesting too deep"):
            parse("{" + inside + "}")

    def test_bound_leaves_stack_headroom(self):
        """At the bound the parser is deep in Python frames; it must fit
        under a caller that already used a few hundred of them."""
        import sys

        from repro.mexpr.parser import MAX_DEPTH

        text = "f[{" * (MAX_DEPTH // 2 - 1) + "1" + "}]" * (MAX_DEPTH // 2 - 1)

        def nested(levels):
            return nested(levels - 1) if levels else parse(text)

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert nested(300) == parse(text)
        finally:
            sys.setrecursionlimit(limit)

    def test_hundred_thousand_parentheses_fail_fast(self):
        import time

        started = time.perf_counter()
        with pytest.raises(WolframParseError, match="nesting too deep"):
            parse("(" * 100_000 + "1" + ")" * 100_000)
        assert time.perf_counter() - started < 5


class TestRoundTrip:
    @pytest.mark.parametrize("source", [
        "fib = Function[{n}, If[n < 1, 1, fib[n-1]+fib[n-2]]]",
        'a = {1,2,3}; a[[3]] = -20; a',
        "FindRoot[Sin[x] + E^x, {x, 0}]",
        "i=0; While[True, If[i>3, i--, i++]]",
        "Module[{arg = RandomReal[{0, 2 Pi}]}, {-Cos[arg], Sin[arg]} + #] &",
        "x_Integer?EvenQ",
        "Table[i^2, {i, 1, 10}]",
        'StringJoin["a", "b", "c"]',
        "m[[i, j]] = m[[i, j]] + 1",
    ])
    def test_input_form_round_trips(self, source):
        first = parse(source)
        assert parse(input_form(first)) == first


class TestTokenizer:
    def test_token_kinds(self):
        kinds = [t.kind for t in tokenize('f[1, 2.5, "s"]')]
        assert kinds == ["name", "op", "int", "op", "real", "op", "string",
                         "op", "eof"]

    def test_three_char_operators(self):
        texts = [t.text for t in tokenize("a === b //. c")]
        assert "===" in texts and "//." in texts

    def test_positions(self):
        tokens = tokenize("ab + cd")
        assert tokens[0].pos == 0
        assert tokens[1].pos == 3
        assert tokens[2].pos == 5


# -- the tokenizer against the one it replaced -------------------------------
#
# A frozen copy of the character-loop tokenizer (as of the commit before the
# master pattern), producing ``(kind, text, pos)`` tuples.  The pattern must
# give the same stream, or the same ``WolframParseError`` message, on
# everything.

_FROZEN_TWO_CHAR_OPS = {
    "&&", "||", "==", "!=", "<=", ">=", "->", ":>", ":=", "/.", "//",
    "/;", "@@", "/@", "<>", "++", "--", "+=", "-=", "*=", "/=", "*^",
}
_FROZEN_THREE_CHAR_OPS = {"===", "=!=", "//.", "@@@"}
_FROZEN_ONE_CHAR_OPS = set("+-*/^()[]{},;=<>!&@#_?:|.'")

_FROZEN_UNICODE_ALIASES = {
    "→": "->",   # → Rule
    "≡": "===",  # ≡ SameQ (as used in the paper's listings)
    "≥": ">=",   # ≥
    "≤": "<=",   # ≤
    "≠": "!=",   # ≠
}


def _frozen_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if text.startswith("(*", i):
            depth, i = 1, i + 2
            while i < n and depth:
                if text.startswith("(*", i):
                    depth += 1
                    i += 2
                elif text.startswith("*)", i):
                    depth -= 1
                    i += 2
                else:
                    i += 1
            if depth:
                raise WolframParseError("unterminated comment")
            continue
        if ch in _FROZEN_UNICODE_ALIASES:
            tokens.append(("op", _FROZEN_UNICODE_ALIASES[ch], i))
            i += 1
            continue
        if ch == "π":  # π
            tokens.append(("name", "Pi", i))
            i += 1
            continue
        if ch == '"':
            j, out = i + 1, []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    esc = text[j + 1]
                    out.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise WolframParseError(f"unterminated string at {i}")
            tokens.append(("string", "".join(out), i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            is_real = False
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and not text.startswith("..", j):
                is_real = True
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            # exponent: Wolfram `*^` or conventional `e`
            if j < n and text.startswith("*^", j):
                is_real = True
                j += 2
                if j < n and text[j] in "+-":
                    j += 1
                while j < n and text[j].isdigit():
                    j += 1
            elif j < n and text[j] in "eE" and j + 1 < n and (
                text[j + 1].isdigit() or text[j + 1] in "+-"
            ):
                is_real = True
                j += 1
                if text[j] in "+-":
                    j += 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(("real" if is_real else "int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "$":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "$`"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if text[i:i + 3] in _FROZEN_THREE_CHAR_OPS:
            tokens.append(("op", text[i:i + 3], i))
            i += 3
            continue
        if text[i:i + 2] in _FROZEN_TWO_CHAR_OPS:
            tokens.append(("op", text[i:i + 2], i))
            i += 2
            continue
        if ch in _FROZEN_ONE_CHAR_OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise WolframParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("eof", "", n))
    return tokens


def _stream(scan, text):
    try:
        return [tuple(token) for token in scan(text)]
    except WolframParseError as error:
        return str(error)


def _load(path):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "_tokenizer_corpus_" + os.path.basename(path)[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _corpus() -> list[str]:
    """Every Wolfram text the repository ships: the benchmark's programs,
    session scripts and served requests, the example programs and the
    inputs of the evaluator transcript."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    programs = os.path.join(root, "bench", "programs")
    kernels, probes, scripts, traffic = (
        _load(os.path.join(programs, name + ".py"))
        for name in ("kernels", "probes", "scripts", "traffic"))
    texts = [*kernels.SOURCES.values(), *probes.SOURCES.values()]
    for name in scripts.NAMES:
        texts += scripts.build(name, seed=1)[0]
    for _, line, _ in traffic.prelude("s") + traffic.make_pass(1, 0, 200, "s"):
        try:
            texts += [v for v in json.loads(line).values()
                      if isinstance(v, str)]
        except ValueError:  # the malformed request in fifty
            texts.append(line)
    for path in glob.glob(os.path.join(root, "examples", "programs", "*.wl")):
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    transcript = os.path.join(root, "tests", "golden",
                              "evaluator_transcript.json")
    with open(transcript, encoding="utf-8") as handle:
        for entries in json.load(handle).values():
            texts += [entry["in"] for entry in entries]
    return texts


#: pieces that meet at every boundary the tokenizer decides on
_PIECES = st.sampled_from([
    "a", "x1", "$v", "a`b", "é", "π", "一", "1", "23", ".5", "1.", "1..",
    "1.5e3", "2e", "2e+", "3*^4", "3*^-", "٣", "²", "½", "Ⅷ", "①", '"',
    '"s"', '"a\\"b"', '"\\', "\\", "(*", "*)", "(* c *)", "(", ")", "[",
    "]", "{", "}", ",", ";", ".", "..", "_", "__", "#", "&", "'", "?", ":",
    "|", "=", "==", "===", "=!=", "!=", "!", "<", "<=", "<>", ">", ">=",
    "->", ":>", ":=", "/", "/.", "//", "//.", "/;", "/@", "/=", "@", "@@",
    "@@@", "+", "++", "+=", "-", "--", "-=", "*", "*=", "*^", "^", "&&",
    "||", "→", "≡", "≥", "≤", "≠", " ", "\t", "\n", "\r", "\x0b", "\xa0",
    "~", "%", "e", "E",
])


class TestTokenizerAgreement:
    def test_every_shipped_text(self):
        texts = _corpus()
        assert len(texts) > 300
        for text in texts:
            assert _stream(tokenize, text) == _stream(_frozen_tokenize, text)

    @given(st.lists(_PIECES, max_size=12).map("".join))
    @settings(max_examples=2000, deadline=None)
    def test_fuzzed_boundaries(self, text):
        assert _stream(tokenize, text) == _stream(_frozen_tokenize, text)

    @given(st.text(max_size=20))
    @settings(max_examples=1000, deadline=None)
    def test_fuzzed_unicode(self, text):
        assert _stream(tokenize, text) == _stream(_frozen_tokenize, text)

    def test_token_is_a_named_tuple(self):
        token = tokenize("ab")[0]
        assert token == ("name", "ab", 0)
        assert (token.kind, token.text, token.pos) == ("name", "ab", 0)
