"""The DownValue dispatch index: discrimination, ordering, invalidation.

The index (`engine/definitions.DownValueIndex`) covers a definition's
pattern rules; its pattern-free rules (facts) live in a dict beside it.
The index may only ever *exclude* rules that provably cannot match;
candidate order must equal the original specificity order; and any
mutation of the pattern rules — including ``Block``'s snapshot restore —
must invalidate it, while a fact write leaves it alone.
"""

import pytest

from repro.engine import Evaluator
from repro.engine.definitions import DownValueIndex
from repro.mexpr import full_form, parse


@pytest.fixture()
def session():
    return Evaluator()


def _index_of(session, name) -> DownValueIndex:
    return session.state.lookup(name).dispatch_index()


class TestDiscrimination:
    def test_literal_rules_bucket_by_first_argument(self, session):
        session.run("f[0, y_] := 100 + y")
        session.run("f[1, y_] := 200 + y")
        session.run("f[n_, y_] := n * 10 + y")
        index = _index_of(session, "f")
        zero_call = parse("f[0, 5]")
        candidates = list(index.candidates(zero_call))
        # f[1, y_] is excluded outright; f[0, y_] and the general rule remain
        assert len(candidates) == 2
        assert full_form(candidates[0].lhs) == \
            "f[0, Pattern[y, Blank[]]]"
        assert session.run("f[0, 5]").to_python() == 105
        assert session.run("f[1, 5]").to_python() == 205
        assert session.run("f[7, 5]").to_python() == 75

    def test_pattern_free_rules_are_facts_beside_the_index(self, session):
        session.run("f[0] = 100")
        session.run("f[1] = 200")
        session.run("f[n_] := n * 10")
        definition = session.state.lookup("f")
        assert [full_form(dv.lhs) for dv in definition.facts.values()] == \
            ["f[0]", "f[1]"]
        assert [full_form(dv.lhs) for dv in definition.patterns] == \
            ["f[Pattern[n, Blank[]]]"]
        # the index covers the pattern rule alone
        assert len(list(_index_of(session, "f").candidates(parse("f[0]")))) \
            == 1
        assert session.run("f[0]").to_python() == 100
        assert session.run("f[1]").to_python() == 200
        assert session.run("f[7]").to_python() == 70

    def test_arity_discrimination(self, session):
        session.run("g[x_] := 1")
        session.run("g[x_, y_] := 2")
        index = _index_of(session, "g")
        assert len(list(index.candidates(parse("g[a]")))) == 1
        assert len(list(index.candidates(parse("g[a, b]")))) == 1
        assert len(list(index.candidates(parse("g[a, b, c]")))) == 0
        assert session.run("g[1]").to_python() == 1
        assert session.run("g[1, 2]").to_python() == 2
        assert full_form(session.run("g[1, 2, 3]")) == "g[1, 2, 3]"

    def test_variadic_rules_are_candidates_at_every_arity(self, session):
        session.run("h[xs__] := Length[{xs}]")
        session.run("h[x_, y_] := 99")
        for call in ("h[a]", "h[a, b]", "h[a, b, c]"):
            assert list(
                _index_of(session, "h").candidates(parse(call))
            ), call
        assert session.run("h[1]").to_python() == 1
        assert session.run("h[1, 2]").to_python() == 99  # specificity wins
        assert session.run("h[1, 2, 3]").to_python() == 3

    def test_structured_literal_first_argument(self, session):
        session.run("p[{1, 2}] = 10")
        session.run("p[x_] := 0")
        assert session.run("p[{1, 2}]").to_python() == 10
        assert session.run("p[{2, 1}]").to_python() == 0
        index = _index_of(session, "p")
        assert len(list(index.candidates(parse("p[{2, 1}]")))) == 1

    def test_conditioned_argument_is_never_excluded(self, session):
        session.run("q[n_ /; n > 10] := 1")
        session.run("q[n_] := 2")
        assert session.run("q[11]").to_python() == 1
        assert session.run("q[5]").to_python() == 2
        index = _index_of(session, "q")
        assert len(list(index.candidates(parse("q[3]")))) == 2

    def test_no_literal_rule_takes_no_first_argument_key(
        self, session, monkeypatch
    ):
        """The key is a walk of the whole argument when the argument was
        just built (a list OwnValue is a fresh copy each read)."""
        from repro.mexpr.expr import MExprNormal

        session.run("w1[x_] := 1")
        index = _index_of(session, "w1")
        call = parse("w1[{1, 2, 3}]")

        def forbidden(self):
            raise AssertionError("took the first argument's structure key")

        monkeypatch.setattr(MExprNormal, "structure_key", forbidden)
        assert len(list(index.candidates(call))) == 1

    def test_pattern_first_argument_stays_in_arity_bucket(self, session):
        session.run("r[0, y_] := y")
        session.run("r[x_, y_] := r[x - 1, y + 1]")
        assert session.run("r[3, 0]").to_python() == 3


class TestOrdering:
    def test_candidates_preserve_specificity_order(self, session):
        # insertion order scrambled; specificity sorting puts literals first
        session.run("s[n_, y_] := -1")
        session.run("s[0, y_] := 10")
        session.run("s[1, y_] := 11")
        rules = [full_form(dv.lhs) for dv in session.state.lookup("s").down_values]
        candidates = [
            full_form(dv.lhs)
            for dv in _index_of(session, "s").candidates(parse("s[0, 5]"))
        ]
        # candidate order is a subsequence of the full rule order
        positions = [rules.index(c) for c in candidates]
        assert positions == sorted(positions)
        assert candidates[0] == "s[0, Pattern[y, Blank[]]]"

    def test_merge_across_buckets_respects_rule_order(self, session):
        session.run("t[0, y_] := 1")          # literal bucket
        session.run("t[n_Integer, y_] := 2")  # arity bucket
        session.run("t[xs__] := 3")           # general bucket
        candidates = [
            full_form(dv.lhs)
            for dv in _index_of(session, "t").candidates(parse("t[0, 0]"))
        ]
        rules = [full_form(dv.lhs) for dv in session.state.lookup("t").down_values]
        assert candidates == rules  # all three apply, in order
        assert session.run("t[0, 0]").to_python() == 1
        assert session.run("t[5, 0]").to_python() == 2
        assert session.run("t[1.5, 0]").to_python() == 3


class TestInvalidation:
    def test_replacing_a_rule_in_place_invalidates(self, session):
        session.run("u[0] = 1")
        session.run("u[n_] := 2")
        first = _index_of(session, "u")
        session.run("u[n_] := 3")  # identical lhs: replaced in place
        second = _index_of(session, "u")
        assert second is not first
        assert session.run("{u[0], u[5]}").to_python() == [1, 3]

    def test_fact_write_keeps_the_index_and_takes_a_version(self, session):
        session.run("u[0] = 1")
        session.run("u[n_] := 2")
        definition = session.state.lookup("u")
        first, version = _index_of(session, "u"), definition.rules_version
        session.run("u[0] = 42")  # replaced in the fact table
        session.run("u[1] = 43")  # added to it
        assert _index_of(session, "u") is first
        assert definition.rules_version != version
        assert session.run("{u[0], u[1], u[5]}").to_python() == [42, 43, 2]

    def test_clear_invalidates(self, session):
        session.run("v[0] = 1")
        session.run("Clear[v]")
        assert full_form(session.run("v[0]")) == "v[0]"
        session.run("v[0] = 2")
        assert session.run("v[0]").to_python() == 2

    def test_block_restore_invalidates(self, session):
        session.run("w[n_] := 1")
        assert session.run("w[5]").to_python() == 1
        result = session.run("Block[{w}, w[n_] := 2; w[5]]")
        assert result.to_python() == 2
        # the snapshot restore swapped the rule list; the index must follow
        assert session.run("w[5]").to_python() == 1

    def test_index_is_cached_until_rules_change(self, session):
        session.run("x0[n_] := n")
        first = _index_of(session, "x0")
        assert _index_of(session, "x0") is first
        session.run("x0[0] = 9")  # a fact: the pattern rules are unchanged
        assert _index_of(session, "x0") is first
        session.run("x0[m_Integer] := 9")
        assert _index_of(session, "x0") is not first


class TestSpecificityCache:
    def test_specificity_memoized_on_down_values(self, session):
        session.run("y0[0] = 1")
        session.run("y0[n_] := 2")
        for down_value in session.state.lookup("y0").down_values:
            assert down_value.specificity is not None

    def test_thousand_rule_table_dispatches_correctly(self, session):
        for index in range(300):
            session.run(f"big[{index}] = {index * index}")
        session.run("big[n_] := -1")
        assert session.run("big[7]").to_python() == 49
        assert session.run("big[299]").to_python() == 299 * 299
        assert session.run("big[300]").to_python() == -1
        definition = session.state.lookup("big")
        # 300 facts in the table; the index holds the one pattern rule
        assert len(definition.facts) == 300
        assert len(list(_index_of(session, "big").candidates(
            parse("big[250]")))) == 1


class TestInsertion:
    """``add_down_value`` stores a fact by one dict store, and finds the
    pattern rule it replaces by one hash lookup and its insertion point by
    bisection — the same order a stable sort-by-specificity of the
    definition sequence gives, without the quadratic scan-and-resort."""

    def test_lhs_comparisons_are_linear_in_the_rule_count(
        self, session, monkeypatch
    ):
        # facts: no specificity walk at all
        self._store_and_redefine(session, monkeypatch, "table[{i}]", 0)

    def test_pattern_rules_take_one_specificity_walk_each(
        self, session, monkeypatch
    ):
        self._store_and_redefine(session, monkeypatch, "table[{i}, x_]", 2000)

    @staticmethod
    def _store_and_redefine(session, monkeypatch, lhs, walks):
        from repro.engine.definitions import DownValue
        from repro.engine.patterns import pattern_specificity
        from repro.mexpr.expr import MExpr

        rules = [DownValue(parse(lhs.format(i=i)), parse(str(i)))
                 for i in range(2000)]
        comparisons = specificities = 0
        real_eq = MExpr.__eq__

        def counting_eq(self, other):
            nonlocal comparisons
            comparisons += 1
            return real_eq(self, other)

        def counting_specificity(pattern):
            nonlocal specificities
            specificities += 1
            return pattern_specificity(pattern)

        monkeypatch.setattr(MExpr, "__eq__", counting_eq)
        monkeypatch.setattr("repro.engine.definitions.pattern_specificity",
                            counting_specificity)
        for rule in rules:
            session.state.add_down_value("table", rule)
        for rule in rules[::2]:  # redefinitions: one equality test each
            session.state.add_down_value(
                "table", DownValue(rule.lhs, parse("0"))
            )
        monkeypatch.undo()
        # the scan-and-resort this replaces made 1 999 000 comparisons
        assert comparisons <= 2 * 3000
        assert specificities == walks  # never re-derived
        stored = session.state.lookup("table").down_values
        assert [dv.lhs for dv in stored] == [rule.lhs for rule in rules]
        call = lhs.replace(", x_", ", 0")
        assert session.run(call.format(i=1998)).to_python() == 0
        assert session.run(call.format(i=1999)).to_python() == 1999

    def test_order_matches_a_stable_sort_by_specificity(self, session):
        from repro.engine.patterns import pattern_specificity

        sources = ["o[x_]", "o[1]", "o[x_Integer]", "o[xs__]", "o[2]",
                   "o[x_, y_]", "o[x_Real]", "o[3, y_]", "o[x_ /; x > 0]",
                   "o[{a_, b_}]", "o[x_?NumberQ]", "o[]", "o[4]", "o[y_]"]
        for position, source in enumerate(sources):
            session.run(f"{source} := {position}")
        lhs = [parse(source) for source in sources]
        expected = sorted(lhs, key=pattern_specificity, reverse=True)
        stored = session.state.lookup("o").down_values
        assert [full_form(dv.lhs) for dv in stored] == \
            [full_form(pattern) for pattern in expected]
        assert [dv.specificity for dv in stored] == \
            [pattern_specificity(dv.lhs) for dv in stored]

    def test_redefinition_keeps_position_and_count(self, session):
        session.run("r[0] = 1")
        session.run("r[1] = 2")
        session.run("r[n_] := 3")
        before = [full_form(dv.lhs)
                  for dv in session.state.lookup("r").down_values]
        session.run("r[0] = 10")
        session.run("r[n_] := 30")
        definition = session.state.lookup("r")
        assert [full_form(dv.lhs) for dv in definition.down_values] == before
        assert session.run("{r[0], r[1], r[2]}").to_python() == [10, 2, 30]
        session.run("r[2] = 5")  # a new rule lands after a replaced one
        assert session.run("{r[0], r[1], r[2]}").to_python() == [10, 2, 5]

    def test_block_restore_forgets_rules_defined_inside(self, session):
        session.run("b[0] = 1")
        session.run("b[n_] := 2")
        assert session.run(
            "Block[{b}, b[0] = 7; b[5] = 8; {b[0], b[5]}]"
        ).to_python() == [7, 8]
        # b[5] was only ever defined inside the Block: defining it now is
        # an insertion, and b[0] = 9 replaces the *restored* rule
        session.run("b[5] = 50")
        session.run("b[0] = 9")
        rules = session.state.lookup("b").down_values
        assert [full_form(dv.lhs) for dv in rules] == \
            ["b[0]", "b[5]", "b[Pattern[n, Blank[]]]"]
        assert session.run("{b[0], b[5], b[6]}").to_python() == [9, 50, 2]

    def test_clear_then_redefine_starts_from_empty(self, session):
        session.run("c[0] = 1")
        session.run("Clear[c]")
        session.run("c[0] = 2")
        assert len(session.state.lookup("c").down_values) == 1
        assert session.run("c[0]").to_python() == 2

    def test_overlay_insert_never_touches_the_shared_base(self):
        from repro.server import BaseImage

        base = BaseImage(prelude=("k[0] = 1", "k[n_] := 2"))
        shared = base.definitions["k"]
        shared_rules = shared.down_values
        shared_facts = dict(shared.facts)
        a = Evaluator(state=base.create_state())
        b = Evaluator(state=base.create_state())
        a.run("k[0] = 10")
        a.run("k[1] = 11")
        assert a.run("{k[0], k[1], k[2]}").to_python() == [10, 11, 2]
        assert b.run("{k[0], k[1], k[2]}").to_python() == [1, 2, 2]
        assert shared.down_values == shared_rules
        assert all(x is y for x, y in zip(shared.down_values, shared_rules))
        assert shared.facts == shared_facts
        # the base's own lhs map (built while warming) still names its rules
        assert list(map(id, shared.rules_by_lhs().values())) == \
            list(map(id, shared.patterns))
