"""Edge cases and failure injection across the stack."""

import pytest

from repro.compiler import FunctionCompile
from repro.errors import (
    CompilerError,
    TypeInferenceError,
    WolframRuntimeError,
)


class TestWVMTargetSystem:
    def test_function_compile_targets_wvm(self):
        """F4: TargetSystem -> WVM runs the program on the legacy VM."""
        compiled = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{s = 0, i = 1}, While[i <= n, s = s + i; i = i + 1];'
            ' s]]',
            TargetSystem="WVM",
        )
        from repro.bytecode import CompiledFunction

        assert isinstance(compiled, CompiledFunction)
        assert compiled(100) == 5050

    def test_wvm_target_agrees_with_python_target(self):
        src = ('Function[{Typed[n, "MachineInteger"]},'
               ' Total[Table[i * i, {i, 1, n}]]]')
        python_tier = FunctionCompile(src)
        wvm_tier = FunctionCompile(src, TargetSystem="WVM")
        assert python_tier(7) == wvm_tier(7) == 140


class TestCompileErrors:
    def test_non_function_input(self):
        with pytest.raises(CompilerError):
            FunctionCompile("1 + 1")

    def test_slot_function_needs_annotations(self):
        with pytest.raises(CompilerError):
            FunctionCompile("(# + 1)&")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError):
            FunctionCompile(
                'Function[{Typed[x, "MachineInteger"]}, x]',
                TotallyBogusOption=True,
            )

    def test_unknown_function_reports_name(self):
        with pytest.raises(TypeInferenceError) as info:
            FunctionCompile(
                'Function[{Typed[x, "MachineInteger"]}, Zeta[x, x]]'
            )
        assert "Zeta" in str(info.value)

    def test_arity_mismatch_against_self_signature(self):
        # an unknown callee whose arity differs from ours is not a self-call
        with pytest.raises(TypeInferenceError):
            FunctionCompile(
                'Function[{Typed[x, "MachineInteger"]}, mystery[x, x, x]]'
            )

    def test_unbound_variable(self):
        from repro.errors import BindingError

        with pytest.raises(BindingError):
            FunctionCompile(
                'Function[{Typed[x, "MachineInteger"]}, x + loose]'
            )


class TestRuntimeEdges:
    def test_empty_tensor_total(self):
        f = FunctionCompile(
            'Function[{Typed[v, TypeSpecifier["Tensor"["Integer64", 1]]]},'
            ' Total[v]]'
        )
        assert f([]) == 0

    def test_zero_length_table(self):
        f = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Length[Table[i, {i, 1, n}]]]'
        )
        assert f(0) == 0
        assert f(5) == 5

    def test_zero_trip_loop(self):
        f = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{s = 100, i = 1}, While[i <= n, s = 0; i = i + 1]; s]]'
        )
        assert f(0) == 100

    def test_deeply_nested_conditionals(self):
        f = FunctionCompile(
            'Function[{Typed[x, "MachineInteger"]},'
            ' If[x > 100, 4, If[x > 10, 3, If[x > 1, 2, If[x > 0, 1, 0]]]]]'
        )
        assert [f(v) for v in (0, 1, 5, 50, 500)] == [0, 1, 2, 3, 4]

    def test_int64_boundary_values(self):
        f = FunctionCompile('Function[{Typed[x, "MachineInteger"]}, x]')
        assert f(2 ** 63 - 1) == 2 ** 63 - 1
        assert f(-(2 ** 63)) == -(2 ** 63)
        with pytest.raises(WolframRuntimeError):
            f(2 ** 63)  # out of Integer64 at the boundary (F2, no engine)

    def test_negative_zero_real(self):
        f = FunctionCompile('Function[{Typed[x, "Real64"]}, x + 0.0]')
        assert f(-0.0) == 0.0

    def test_unicode_strings(self):
        f = FunctionCompile(
            'Function[{Typed[s, "String"]}, StringLength[s]]'
        )
        assert f("héllo wörld") == 11

    def test_utf8_bytes_of_multibyte(self):
        f = FunctionCompile(
            'Function[{Typed[s, "String"]},'
            ' Length[Native`UTF8Bytes[s]]]'
        )
        assert f("é") == 2

    def test_large_constant_folding_does_not_overflow_compile(self):
        # folding 2^62 * 4 would overflow; must defer to run time
        f = FunctionCompile(
            'Function[{Typed[x, "MachineInteger"]},'
            ' If[x > 0, x, 4611686018427387904 * 4]]'
        )
        assert f(5) == 5

    def test_bool_not_accepted_as_integer(self):
        f = FunctionCompile('Function[{Typed[x, "MachineInteger"]}, x]')
        with pytest.raises(WolframRuntimeError):
            f(True)


class TestEvaluatorEdges:
    def test_sequence_splices_into_arguments(self, run):
        assert run("f[Sequence[1, 2], 3]") == "f[1, 2, 3]"

    def test_one_identity_plus(self, run):
        assert run("Plus[7]") == "7"
        assert run("Times[7]") == "7"

    def test_empty_plus_times(self, run):
        assert run("Plus[]") == "0"
        assert run("Times[]") == "1"

    def test_nested_hold_partial(self, run):
        assert run("Hold[Hold[1 + 1]]") == "Hold[Hold[Plus[1, 1]]]"

    def test_flat_through_holds(self, run):
        assert run("Plus[1, Plus[2, Plus[3, 4]]]") == "10"

    def test_listable_scalar_vector_mix(self, run):
        assert run("{1, 2, 3} ^ 2") == "List[1, 4, 9]"

    def test_runaway_recursion_guard(self):
        """Self-rewriting definitions stop at a limit instead of hanging —
        the top-level rewrite chain trips $IterationLimit, nested growth
        trips $RecursionLimit."""
        from repro.engine import Evaluator
        from repro.errors import (
            WolframIterationError,
            WolframRecursionError,
        )
        from repro.mexpr import parse

        evaluator = Evaluator(recursion_limit=64, iteration_limit=128)
        with pytest.raises((WolframIterationError, WolframRecursionError)):
            evaluator.evaluate(parse("f[x_] := f[x + 1]; f[0]"))
        with pytest.raises((WolframIterationError, WolframRecursionError)):
            evaluator.evaluate(parse("g[x_] := g[g[x]]; g[0]"))

    @pytest.mark.parametrize("source, expected", [
        ("Exp[1000.]", "Exp[1000.0]"),
        ("Cosh[1000.]", "Cosh[1000.0]"),
        ("Exp[1000]", "Exp[1000]"),
        ("10.^400", "Power[10.0, 400]"),
        ("Quotient[1.*^308, 1.*^-308]", "Quotient[1e+308, 1e-308]"),
    ])
    def test_past_the_machine_range_stays_unevaluated(self, evaluator, run,
                                                      source, expected):
        """A machine result past the float range is no Python
        ``OverflowError``: the call stays as it is, with a message."""
        assert run(source) == expected
        assert evaluator.messages == [
            "General::ovfl: Overflow occurred in computation."
        ]

    def test_n_of_a_huge_integer_stays_unevaluated(self, evaluator, run):
        assert run("N[10^400]") == f"N[{10 ** 400}]"
        assert evaluator.messages
        assert set(evaluator.messages) == {
            "General::ovfl: Overflow occurred in computation."
        }

    def test_overflow_inside_a_list_leaves_the_rest(self, evaluator, run):
        assert run("Map[Exp, {0., 1000.}]") == "List[1.0, Exp[1000.0]]"
        assert len(evaluator.messages) == 1

    @pytest.mark.parametrize("source, expected", [
        ("Sqrt[-4]", "Times[2, I]"),
        ("Sqrt[-1]", "I"),
        ("Sqrt[-8]", "Complex[0.0, 2.8284271247461903]"),
        ("Sqrt[9]", "3"),
        ("Sqrt[-4] == 2 I", "True"),
    ])
    def test_square_roots_of_negative_integers(self, run, source, expected):
        assert run(source) == expected

    def test_compiled_overflow_falls_back_to_the_same_answer(self):
        """The compiled tier's overflow reverts to the interpreter, which
        now has an answer: the unevaluated call."""
        from repro.compiler import install_engine_support
        from repro.engine import Evaluator
        from repro.mexpr import full_form

        evaluator = Evaluator()
        install_engine_support(evaluator)
        evaluator.run(
            'cf = FunctionCompile[Function[{Typed[x, "Real64"]}, Exp[x]]]'
        )
        assert full_form(evaluator.run("cf[1000.]")) == "Exp[1000.0]"
        assert full_form(evaluator.run("cf[0.]")) == "1.0"
