"""Core evaluation semantics: fixed-point evaluation, attributes, numerics."""

import pytest

from repro.engine import Evaluator
from repro.errors import WolframIterationError
from repro.mexpr import full_form


class TestInfiniteEvaluation:
    def test_chained_ownvalues(self, run):
        """§2.1: y=x; x=1; y evaluates to 1 by repeated rewriting."""
        assert run("y = x; x = 1; y") == "1"

    def test_three_level_chain(self, run):
        assert run("a = b; b = c; c = 7; a") == "7"

    def test_runaway_rewrite_hits_iteration_limit(self):
        """§2.1: x = x + 1 with x undefined rewrites forever; the engine
        stops at $IterationLimit instead of hanging."""
        from repro.errors import WolframRecursionError
        from repro.mexpr import parse

        evaluator = Evaluator(recursion_limit=64, iteration_limit=64)
        with pytest.raises((WolframIterationError, WolframRecursionError)):
            evaluator.evaluate(parse("x = x + 1; x"))

    def test_symbol_without_value_stays(self, run):
        assert run("undefinedSymbol") == "undefinedSymbol"


class TestArithmetic:
    @pytest.mark.parametrize("source,expected", [
        ("1 + 2", "3"),
        ("2 * 3 * 4", "24"),
        ("2^10", "1024"),
        ("7 - 2", "5"),
        ("1 + 2.5", "3.5"),
        ("Mod[7, 3]", "1"),
        ("Mod[-7, 3]", "2"),
        ("Quotient[7, 2]", "3"),
        ("Abs[-4]", "4"),
        ("Max[3, 1, 4]", "4"),
        ("Min[{5, 2, 8}]", "2"),
        ("Floor[2.7]", "2"),
        ("Ceiling[2.1]", "3"),
        ("GCD[12, 18]", "6"),
        ("LCM[4, 6]", "12"),
        ("Factorial[5]", "120"),
        ("Fibonacci[10]", "55"),
        ("BitAnd[12, 10]", "8"),
        ("BitXor[5, 3]", "6"),
        ("BitShiftLeft[1, 8]", "256"),
        ("Sign[-2.5]", "-1"),
        ("Boole[True]", "1"),
        ("Boole[False]", "0"),
    ])
    def test_value(self, run, source, expected):
        assert run(source) == expected

    def test_arbitrary_precision(self, run_value):
        """The interpreter never overflows (F2's fallback target)."""
        assert run_value("2^100") == 2 ** 100
        assert run_value("Factorial[30]") == 265252859812191058636308480000000

    def test_division_produces_real(self, run_value):
        assert run_value("1/2") == 0.5

    def test_transcendental(self, run_value):
        import math

        assert run_value("Sin[0.5]") == pytest.approx(math.sin(0.5))
        assert run_value("Exp[1.0]") == pytest.approx(math.e)
        assert run_value("Log[E]") == 0
        assert run_value("Sqrt[16]") == 4

    def test_n_of_constants(self, run_value):
        import math

        assert run_value("N[Pi]") == pytest.approx(math.pi)
        assert run_value("N[1/3]") == pytest.approx(1 / 3)

    def test_symbolic_plus_folds_numerics(self, run):
        assert run("1 + x + 2") == "Plus[3, x]"

    def test_times_zero_annihilates(self, run):
        assert run("0 * x") == "0"

    def test_complex_arithmetic(self, run):
        assert run("Complex[1.0, 2.0] * Complex[1.0, -2.0]") == "5.0"


class TestAttributes:
    def test_flat_plus(self, run):
        assert run("Plus[1, Plus[2, 3]]") == "6"

    def test_orderless_canonicalizes(self, run):
        # x + 1 and 1 + x normalize identically
        assert run("x + 1") == run("1 + x")

    def test_listable_threads(self, run):
        assert run("{1, 2} + {10, 20}") == "List[11, 22]"
        assert run("2 * {1, 2, 3}") == "List[2, 4, 6]"
        assert run("Sin[{0, 0.0}]") == "List[0, 0.0]"

    def test_hold_prevents_evaluation(self, run):
        assert run("Hold[1 + 1]") == "Hold[Plus[1, 1]]"

    def test_evaluate_pierces_hold(self, run):
        assert run("Hold[Evaluate[1 + 1]]") == "Hold[2]"

    def test_release_hold(self, run):
        assert run("ReleaseHold[Hold[1 + 1]]") == "2"

    def test_set_attributes(self, run):
        assert run(
            "SetAttributes[myF, HoldAll]; myF[1 + 1]"
        ) == "myF[Plus[1, 1]]"

    def test_attributes_query(self, run):
        assert "Flat" in run("Attributes[Plus]")


class TestComparison:
    @pytest.mark.parametrize("source,expected", [
        ("1 < 2", "True"),
        ("2 < 1", "False"),
        ("1 < 2 < 3", "True"),
        ("1 < 3 < 2", "False"),
        ("1 <= 1", "True"),
        ("2.0 == 2", "True"),
        ("2.0 === 2", "False"),
        ('"a" < "b"', "True"),
        ("x == x", "True"),
        ("TrueQ[x > 0]", "False"),
    ])
    def test_value(self, run, source, expected):
        assert run(source) == expected

    def test_symbolic_comparison_stays(self, run):
        assert run("x > 1") == "Greater[x, 1]"

    def test_logic(self, run):
        assert run("True && False") == "False"
        assert run("True || False") == "True"
        assert run("!True") == "False"
        assert run("Xor[True, True]") == "False"

    def test_and_short_circuits(self, run):
        # the second argument would loop forever if evaluated
        assert run("False && (While[True]; True)") == "False"

    def test_or_short_circuits(self, run):
        assert run("True || (While[True]; True)") == "True"


class TestPredicates:
    @pytest.mark.parametrize("source,expected", [
        ("IntegerQ[3]", "True"),
        ("IntegerQ[3.0]", "False"),
        ("NumberQ[2.5]", "True"),
        ("NumericQ[Pi]", "True"),
        ("ListQ[{1}]", "True"),
        ("StringQ[\"a\"]", "True"),
        ("EvenQ[4]", "True"),
        ("OddQ[4]", "False"),
        ("PrimeQ[97]", "True"),
        ("PrimeQ[91]", "False"),
        ("Positive[3]", "True"),
        ("Negative[-1.5]", "True"),
        ("NonNegative[0]", "True"),
        ("VectorQ[{1, 2}]", "True"),
        ("VectorQ[{{1}}]", "False"),
        ("MatrixQ[{{1, 2}, {3, 4}}]", "True"),
        ("AtomQ[x]", "True"),
        ("AtomQ[f[x]]", "False"),
    ])
    def test_value(self, run, source, expected):
        assert run(source) == expected


class TestStateInvalidations:
    def test_set_evaluates_immediately(self, run):
        """`=` captures the value at assignment time."""
        assert run("v = 1; w = {v, v}; v = 2; w") == "List[1, 1]"

    def test_assignment_invalidates_cached_results(self, run):
        """The evaluated-stamp cache must respect Set (state_version):
        a delayed definition re-evaluates against the new binding."""
        assert run("v = 1; w := {v, v}; v = 2; w") == "List[2, 2]"

    def test_clear(self, run):
        assert run("q = 5; Clear[q]; q") == "q"


class TestAssignmentLhs:
    """A DownValue is stored under the lhs a call of its head presents."""

    @pytest.mark.parametrize("source, expected", [
        ("Do[g[i] = i^2, {i, 3}]; {g[1], g[2], g[3]}", "List[1, 4, 9]"),
        ("f[1 + 1] = 3; f[2]", "3"),
        ("k = 4; h[k] = 5; h[4]", "5"),
        ("k = 4; h[k] := 5; h[4]", "5"),
        ("k = 3; q[{k, 1 + 1}] = 1; q[{3, 2}]", "1"),
    ])
    def test_arguments_are_evaluated(self, run, source, expected):
        assert run(source) == expected

    def test_a_pattern_argument_is_not_evaluated(self, run):
        assert run("x = 7; w[x_] := x + 1; w[1]") == "2"

    def test_a_pattern_construct_lhs_is_as_written(self, evaluator):
        """A conditional lhs is a rule of the symbol it calls, kept whole
        so that matching evaluates the condition."""
        from repro.mexpr import full_form

        evaluator.run("x = 7; c[x_] /; x > 0 := 1")
        [rule] = evaluator.state.lookup("c").down_values
        assert full_form(rule.lhs) == \
            "Condition[c[Pattern[x, Blank[]]], Greater[x, 0]]"
        assert evaluator.state.lookup("Condition") is None or not (
            evaluator.state.lookup("Condition").down_values)

    @pytest.mark.parametrize("source, expected", [
        ("c[x_] /; x > 0 := 1; {c[3], c[-1]}", "List[1, c[-1]]"),
        ("s[x_] /; x > 0 := 1; s[x_] /; x < 0 := -1; {s[3], s[-2], s[0]}",
         "List[1, -1, s[0]]"),
        ("HoldPattern[hp[x_]] /; x > 1 := big; {hp[2], hp[1]}",
         "List[big, hp[1]]"),
        ("c[x_] /; x > 0 := 1; Clear[c]; c[3]", "c[3]"),
    ])
    def test_a_conditional_rule_fires_by_its_condition(self, run, source,
                                                       expected):
        assert run(source) == expected

    def test_a_conditional_rule_is_not_promoted(self):
        """Hot calls of a conditional definition give the interpreter's
        answers: the hotspot synthesiser takes only ``name[...]`` rules,
        so the symbol stays interpreted."""
        from repro.runtime.hotspot import HotspotProfiler

        evaluator = Evaluator()
        evaluator.hotspot = HotspotProfiler(threshold=2)
        evaluator.run("g[x_] /; x > 0 := x + 1")
        got = [full_form(evaluator.run(f"g[{k}]")) for k in range(-25, 25)]
        assert got == [
            str(k + 1) if k > 0 else f"g[{k}]" for k in range(-25, 25)
        ]
        assert evaluator.hotspot.counts["g"] >= 2  # hot, yet declined
        assert "g" not in evaluator.hotspot.promoted

    @pytest.mark.parametrize("attribute, source, expected", [
        ("HoldFirst", "hf[1 + 1, 1 + 1] = 9; {hf[1 + 1, 2], hf[2, 2]}",
         "List[9, hf[2, 2]]"),
        ("HoldRest", "hf[1 + 1, 1 + 1] = 9; {hf[2, 1 + 1], hf[2, 2]}",
         "List[9, hf[2, 2]]"),
        ("HoldAll", "hf[1 + 1] = 9; {hf[1 + 1], hf[2]}", "List[9, hf[2]]"),
    ])
    def test_a_held_argument_is_not_evaluated(self, run, attribute, source,
                                              expected):
        assert run(f"SetAttributes[hf, {attribute}]; {source}") == expected

    def test_orderless_lhs_is_stored_in_canonical_order(self, run):
        assert run("SetAttributes[h, Orderless]; h[b, a] = 1; "
                   "h[2, 1] = 2; {h[a, b], h[b, a], h[1, 2]}") == \
            "List[1, 1, 2]"

    def test_literal_memo_writes_keep_their_lhs(self, evaluator):
        """Number and string arguments are stored as written: the very
        node, not an evaluated copy."""
        from repro.mexpr import parse
        from repro.mexpr.atoms import MInteger, MSymbol
        from repro.mexpr.expr import MExprNormal

        lhs = parse('m[1, "s"]')
        evaluator.evaluate(MExprNormal(MSymbol("Set"), [lhs, MInteger(5)]))
        [rule] = evaluator.state.lookup("m").down_values
        assert rule.lhs is lhs


class TestFixedPointAndAtomFastPath:
    """The atom fast path and the hash-short-circuited fixed-point check
    must not change observable evaluation semantics."""

    def test_own_value_symbols_still_reevaluate(self, run):
        # symbols are atoms but carry OwnValues: the fast path must not
        # skip their lookup
        assert run("x1 = 7; x1") == "7"
        # `=` captures the value; `:=` re-reads the OwnValue on each use
        assert run("y1 = x1; x1 = 8; y1") == "7"
        assert run("y2 := x1; x1 = 9; y2") == "9"

    def test_chained_own_values_resolve_to_fixed_point(self, run):
        assert run("a1 = b1; b1 = c1; c1 = 3; a1") == "3"

    def test_non_symbol_atoms_are_self_evaluating(self, run):
        assert run("5") == "5"
        assert run("2.5") == "2.5"
        assert run('"text"') == '"text"'

    def test_delayed_definitions_track_rebinding(self, run):
        # the stamp cache keys on state_version; rebinding must flow through
        assert run("base = 1; view := base + 1; base = 10; view") == "11"

    def test_fixed_point_terminates_on_equal_rebuild(self, run):
        # Orderless canonicalisation rebuilds an equal expression; the
        # hash short-circuit must still detect the fixed point
        assert run("c0 + b0 + a0") == "Plus[a0, b0, c0]"
        assert run("Plus[a0, b0, c0]") == "Plus[a0, b0, c0]"

    def test_evaluation_stamp_not_shared_across_sessions(self):
        first = Evaluator()
        second = Evaluator()
        assert full_form(first.run("m = 1; m")) == "1"
        # a different session with a different binding must not reuse
        # any evaluated-stamp from the first
        assert full_form(second.run("m = 2; m")) == "2"
        assert full_form(first.run("m")) == "1"
