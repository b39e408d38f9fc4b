"""The hygienic macro system (§4.2)."""

import pytest

from repro.compiler.macros import (
    MacroEnvironment,
    MacroExpander,
    default_macro_environment,
    register_macro,
)
from repro.errors import MacroExpansionError
from repro.mexpr import full_form, parse


def expand(source: str, environment=None, options=None) -> str:
    expander = MacroExpander(
        environment or default_macro_environment(), options
    )
    return full_form(expander.expand(parse(source)))


class TestPaperAndMacro:
    """§4.2's RegisterMacro[macroEnv, And, ...] rules, rule by rule."""

    def test_unary_rule(self):
        assert expand("And[x]") == "SameQ[x, True]"

    def test_false_short_circuit_first(self):
        assert expand("And[False, anything]") == "False"

    def test_false_second(self):
        assert expand("And[x, False]") == "False"

    def test_true_skipped(self):
        assert expand("And[True, x]") == "SameQ[x, True]"

    def test_binary_desugars_to_if(self):
        assert expand("And[a, b]") == (
            "If[SameQ[a, True], SameQ[b, True], False]"
        )

    def test_nary_nests(self):
        result = expand("And[a, b, c]")
        # And[And[a, b], c] after rule 6, then both desugar to Ifs
        assert result.count("If[") == 2

    def test_or_rules(self):
        assert expand("Or[True, x]") == "True"
        assert expand("Or[False, x]") == "SameQ[x, True]"
        assert expand("Or[a, b]") == (
            "If[SameQ[a, True], True, SameQ[b, True]]"
        )


class TestHygiene:
    """§4.2: 'the key distinction being that substitution is hygienic'."""

    def test_introduced_binder_renamed(self):
        env = MacroEnvironment()
        register_macro(env, "Twice",
                       "Twice[e_] -> Module[{tmp$ = e}, tmp$ + tmp$]")
        result = expand("Twice[5]", env)
        assert "tmp$" in result
        assert "tmp$ =" not in result  # renamed: tmp$N, not bare tmp$

    def test_no_capture_of_user_variable(self):
        env = MacroEnvironment()
        register_macro(env, "Twice",
                       "Twice[e_] -> Module[{tmp$ = e}, tmp$ + tmp$]")
        # the user's own `tmp$`-free variable must not be captured
        result = expand("Twice[x + 1]", env)
        expansion_a = expand("Twice[a]", env)
        expansion_b = expand("Twice[a]", env)
        # fresh names per expansion
        assert expansion_a != expansion_b

    def test_nested_expansions_get_distinct_names(self):
        env = MacroEnvironment()
        register_macro(env, "Twice",
                       "Twice[e_] -> Module[{tmp$ = e}, tmp$ + tmp$]")
        result = expand("Twice[Twice[1]]", env)
        import re

        names = set(re.findall(r"tmp\$\d+", result))
        assert len(names) == 2


class TestExpansionMechanics:
    def test_fixed_point_termination(self):
        env = MacroEnvironment()
        register_macro(env, "Ping", "Ping[x_] -> Pong[x]")
        register_macro(env, "Pong", "Pong[x_] -> Done[x]")
        assert expand("Ping[1]", env) == "Done[1]"

    def test_divergent_macro_detected(self):
        env = MacroEnvironment()
        register_macro(env, "Loop", "Loop[x_] -> Loop[Loop[x]]")
        with pytest.raises(MacroExpansionError):
            expand("Loop[1]", env)

    def test_depth_first_order(self):
        env = MacroEnvironment()
        register_macro(env, "Inner", "Inner[x_] -> 1")
        register_macro(env, "Outer2", "Outer2[1] -> win")
        assert expand("Outer2[Inner[q]]", env) == "win"

    def test_specificity_ordering(self):
        env = MacroEnvironment()
        register_macro(env, "M", "M[x_] -> generic")
        register_macro(env, "M", "M[1] -> specific")
        assert expand("M[1]", env) == "specific"
        assert expand("M[2]", env) == "generic"

    def test_beta_reduction_of_literal_functions(self):
        assert expand("Function[{x}, x + x][3]") == "Plus[3, 3]"
        assert expand("(#1 * 2)&[7]") == "Times[7, 2]"

    def test_user_environment_chains_over_default(self):
        env = MacroEnvironment(parent=default_macro_environment())
        register_macro(env, "And", "And[x_, y_] -> myAnd[x, y]")
        assert expand("And[a, b]", env) == "myAnd[a, b]"
        # parent rules still available for other heads
        assert expand("TrueQ[q]", env) == "SameQ[q, True]"


class TestConditionedMacros:
    """§4.7: macros predicated on compile options (the CUDA Map example)."""

    def test_conditioned_rule_fires_only_when_predicate_holds(self):
        env = MacroEnvironment(parent=default_macro_environment())
        register_macro(
            env, "Map",
            "Map[f_, lst_] -> CUDA`Map[f, lst]",
            condition=lambda options: options.get("TargetSystem") == "CUDA",
        )
        cuda = expand("Map[f, data]", env, {"TargetSystem": "CUDA"})
        assert cuda == "CUDA`Map[f, data]"
        cpu = expand("Map[f, data]", env, {"TargetSystem": "Python"})
        assert "CUDA`Map" not in cpu


class TestDefaultDesugarings:
    def test_nary_plus_folds_left(self):
        assert expand("Plus[a, b, c]") == "Plus[Plus[a, b], c]"

    def test_division_recovered(self):
        assert expand("Times[a, Power[b, -1]]") == "Divide[a, b]"

    def test_square_becomes_multiply(self):
        result = expand("Power[q, 2]")
        assert "Times" in result and "Power" not in result

    def test_power_one_erased(self):
        assert expand("Power[q, 1]") == "q"

    def test_exp_special_case(self):
        assert expand("Power[E, q]") == "Exp[q]"

    def test_increment_preserves_old_value_semantics(self):
        result = expand("Increment[i]")
        assert "old$" in result  # returns the pre-increment value

    def test_for_loop(self):
        # For is lowered natively (its step is the Continue[] target);
        # only its parts expand
        result = expand("For[i = 0, i < 3, i++, body]")
        assert result.startswith("For[")
        assert "old$" in result

    def test_do_becomes_for(self):
        result = expand("Do[body, {i, 1, 5}]")
        assert "For[" in result and "While" not in result

    def test_table_becomes_loop_over_tensor_primitives(self):
        # Native`Iterate: a While whose body may not Break[] or Continue[]
        result = expand("Table[i, {i, 1, 5}]")
        assert "Native`CreateTensorUninit" in result
        assert "Native`Iterate" in result

    def test_comparison_chain(self):
        result = expand("Less[a, b, c]")
        assert result.count("Less[") == 2

    def test_first_last(self):
        assert expand("First[t]") == "Part[t, 1]"
        assert expand("Last[t]") == "Part[t, -1]"
