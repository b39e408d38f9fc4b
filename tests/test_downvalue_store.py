"""DownValues in two parts answer every call as one ordered scan would.

A definition keeps its pattern-free rules (facts) in a dict keyed by the
lhs and its pattern rules in the ordered list the dispatch index covers
(`engine/definitions.py`).  The property below drives random interleavings
of definitions, ``Clear``, ``Block``, ``SetAttributes[f, Orderless]`` and
calls against a reference kept here: the single rule list the store used
to be — most specific first, definition order among equals, an identical
lhs replaced in place — scanned in order.  Value, messages and the chosen
rule (each definition returns its own tag) must agree after every step.
"""

import bisect
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Evaluator
from repro.engine.definitions import Definition, DownValueIndex
from repro.engine.evaluator import canonical_order_key
from repro.engine.patterns import match, pattern_specificity
from repro.mexpr import full_form, parse
from repro.mexpr.atoms import MInteger, MSymbol
from repro.mexpr.expr import MExprNormal

#: left-hand sides of mixed arity: facts, and pattern rules that tie with
#: them on specificity (``f[HoldPattern[0]]`` and ``f[Alternatives[0, 1]]``
#: score as ``f[0]``) or with each other (``n_Integer``, ``n_ /; n > 0``,
#: ``n_?EvenQ``)
_FACTS = ["f[0]", "f[1]", "f[2]", "f[a]", "f[]", "f[0, 0]", "f[0, 1]",
          "f[1, 0]", "f[g[1]]", "f[{1, 2}]"]
_PATTERNS = ["f[n_]", "f[n_Integer]", "f[n_ /; n > 0]", "f[n_?EvenQ]",
             "f[HoldPattern[0]]", "f[Alternatives[0, 1]]",
             "f[HoldPattern[0], 0]", "f[0, y_]", "f[x_, y_]", "f[x_, 1]",
             "f[xs__]", "f[xs___]", "f[g[x_]]"]
_CALLS = ["f[0]", "f[1]", "f[2]", "f[3]", "f[-1]", "f[a]", "f[]",
          "f[0, 0]", "f[0, 1]", "f[1, 0]", "f[2, 1]", "f[g[1]]", "f[g[2]]",
          "f[{1, 2}]", "f[1, 2, 3]"]

#: ``=``, ``:=``, and ``:=`` whose rhs reports a message when it fires
_ASSIGNMENTS = ["=", ":=", ":=!"]
_MESSAGE = "Thread: lists of unequal length"

_definitions = st.tuples(
    st.just("define"), st.sampled_from(_FACTS + _PATTERNS),
    st.sampled_from(_ASSIGNMENTS),
)
_operations = st.one_of(
    _definitions,
    st.tuples(st.just("call"), st.sampled_from(_CALLS)),
    st.just(("clear",)),
    st.just(("orderless",)),
    st.tuples(st.just("block"),
              st.lists(st.one_of(_definitions, st.just(("orderless",))),
                       max_size=3),
              st.sampled_from(_CALLS)),
)


class _OrderedScan:
    """The reference store: one rule list in dispatch order."""

    def __init__(self):
        #: ``(lhs, tag, noisy)`` most specific first
        self.rules = []
        self.orderless = False
        self.tags = itertools.count(100)
        self.conditions = Evaluator()  # evaluates Condition/PatternTest

    def define(self, lhs_source: str, assignment: str) -> str:
        """Record the rule; the engine source that defines it.  Under
        ``Orderless`` a pattern-free lhs is stored in canonical order."""
        tag = next(self.tags)
        lhs = parse(lhs_source)
        if self.orderless and lhs_source in _FACTS:
            lhs = MExprNormal(lhs.head,
                              sorted(lhs.args, key=canonical_order_key))
        rule = (lhs, tag, assignment == ":=!")
        for position, (existing, _, _) in enumerate(self.rules):
            if existing == lhs:
                self.rules[position] = rule
                break
        else:
            score = pattern_specificity(lhs)
            self.rules.insert(bisect.bisect_right(
                self.rules, -score,
                key=lambda entry: -pattern_specificity(entry[0]),
            ), rule)
        if assignment == ":=!":
            return f"{lhs_source} := ({{1, 2}} + {{1, 2, 3}}; {tag})"
        return f"{lhs_source} {assignment} {tag}"

    def call(self, source: str) -> tuple[str, list[str]]:
        """The expected FullForm and messages of ``source``."""
        args = [self.conditions.evaluate(a) for a in parse(source).args]
        if self.orderless:
            args.sort(key=canonical_order_key)
        expression = MExprNormal(MSymbol("f"), args)
        for lhs, tag, noisy in self.rules:
            if match(lhs, expression, evaluator=self.conditions) is not None:
                return str(tag), [_MESSAGE] if noisy else []
        return full_form(expression), []

    def block(self, operations, source: str):
        """``Block[{f}, operations; source]``: the call sees only the
        rules defined inside; an unevaluated result is evaluated again
        once the saved rules are back (as in Wolfram), and an attribute
        set inside stays.  The engine source and the expected outcome."""
        saved, self.rules = self.rules, []
        body = []
        for operation in operations:
            if operation[0] == "define":
                body.append(self.define(*operation[1:]))
            else:
                body.append("SetAttributes[f, Orderless]")
                self.orderless = True
        value, messages = self.call(source)
        self.rules = saved
        if not value.isdigit():
            value, more = self.call(value)
            messages = messages + more
        return f"Block[{{f}}, {'; '.join([*body, source])}]", (value, messages)


def _step(session: Evaluator, source: str) -> tuple[str, list[str]]:
    before = len(session.messages)
    value = full_form(session.run(source))
    return value, session.messages[before:]


def _replay(operations):
    session, reference = Evaluator(), _OrderedScan()
    for operation in operations:
        kind = operation[0]
        if kind == "define":
            session.run(reference.define(*operation[1:]))
        elif kind == "call":
            assert _step(session, operation[1]) == \
                reference.call(operation[1]), operation
        elif kind == "clear":
            session.run("Clear[f]")
            reference.rules = []
        elif kind == "orderless":
            session.run("SetAttributes[f, Orderless]")
            reference.orderless = True
        else:
            source, expected = reference.block(*operation[1:])
            assert _step(session, source) == expected, operation
        definition = session.state.lookup("f")
        stored = definition.down_values if definition is not None else []
        assert [full_form(rule.lhs) for rule in stored] == \
            [full_form(lhs) for lhs, _, _ in reference.rules]


@settings(max_examples=200, deadline=None)
@given(st.lists(_operations, min_size=4, max_size=30))
def test_two_part_store_answers_as_the_ordered_scan(operations):
    _replay(operations)


@pytest.mark.parametrize("operations", [
    [("define", first, ":="), ("define", second, ":="), ("call", call)]
    for pair, call in ((("f[HoldPattern[0]]", "f[0]"), "f[0]"),
                       (("f[Alternatives[0, 1]]", "f[1]"), "f[1]"),
                       (("f[HoldPattern[0], 0]", "f[0, 0]"), "f[0, 0]"))
    for first, second in (pair, pair[::-1])
])
def test_equal_specificity_goes_to_the_earlier_definition(operations):
    """A fact and a pattern rule that score alike, in both orders."""
    _replay(operations)


def _memo_index_builds(monkeypatch, n: int) -> int:
    builds = 0

    class CountingIndex(DownValueIndex):
        __slots__ = ()

        def __init__(self, rules):
            nonlocal builds
            builds += 1
            super().__init__(rules)

    monkeypatch.setattr("repro.engine.definitions.DownValueIndex",
                        CountingIndex)
    session = Evaluator()
    session.run("mfib[0] = 0")
    session.run("mfib[1] = 1")
    session.run("mfib[n_] := mfib[n] = mfib[n - 1] + mfib[n - 2]")
    session.run(f"Do[mfib[k], {{k, 2, {n}}}]")
    assert len(session.state.lookup("mfib").facts) == n + 1
    monkeypatch.undo()
    return builds


def test_memo_writes_never_rebuild_the_pattern_index(monkeypatch):
    """Memoisation is linear: a memo write is a fact, so building the
    table ten times larger builds the pattern index no more often."""
    assert _memo_index_builds(monkeypatch, 200) == \
        _memo_index_builds(monkeypatch, 2000) == 1


def test_memoised_values_are_exact():
    session = Evaluator()
    session.run("mfib[0] = 0")
    session.run("mfib[1] = 1")
    session.run("mfib[n_] := mfib[n] = mfib[n - 1] + mfib[n - 2]")
    session.run("Do[mfib[k], {k, 2, 300}]")
    a, b = 0, 1
    for _ in range(300):
        a, b = b, a + b
    assert session.run("mfib[300]").to_python() == a


def test_an_attribute_change_moves_the_facts():
    session = Evaluator()
    session.run("f[0, 1] = 1; f[x_, y_] := 2")
    definition = session.state.lookup("f")
    assert len(definition.facts) == 1 and len(definition.patterns) == 1
    session.run("SetAttributes[f, Orderless]")
    assert not definition.facts
    assert [full_form(rule.lhs) for rule in definition.patterns] == \
        ["f[0, 1]", "f[Pattern[x, Blank[]], Pattern[y, Blank[]]]"]
    session.run("f[1, 2] = 3")  # stored among the ordered rules
    assert not definition.facts
    assert session.run("{f[0, 1], f[2, 1], f[3, 4]}").to_python() == [1, 3, 2]


def test_bind_allocates_no_rule_containers():
    """``Table``/``Do`` rebind their iterator every iteration."""
    definition = Definition(name="k")
    patterns, facts = definition.patterns, definition.facts
    for value in range(3):
        definition.bind(MInteger(value))
    assert definition.patterns is patterns and definition.facts is facts
    assert definition.own_value == MInteger(2)
