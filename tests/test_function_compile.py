"""End-to-end FunctionCompile behaviour across the language surface."""

import math

import pytest

from repro.compiler import FunctionCompile
from repro.errors import CompilerError, TypeInferenceError


def fc(source: str, *args, **options):
    return FunctionCompile(source, **options)


class TestScalars:
    @pytest.mark.parametrize("source,args,expected", [
        ('Function[{Typed[x, "MachineInteger"]}, x + 1]', (41,), 42),
        ('Function[{Typed[x, "MachineInteger"]}, x*x - x]', (7,), 42),
        ('Function[{Typed[x, "Real64"]}, x / 2]', (5.0,), 2.5),
        ('Function[{Typed[x, "Real64"]}, x^3]', (2.0,), 8.0),
        ('Function[{Typed[x, "MachineInteger"]}, Mod[x, 7]]', (23,), 2),
        ('Function[{Typed[x, "MachineInteger"]}, Quotient[x, 7]]', (23,), 3),
        ('Function[{Typed[x, "MachineInteger"]}, Abs[x]]', (-9,), 9),
        ('Function[{Typed[x, "MachineInteger"]}, Max[x, 0]]', (-3,), 0),
        ('Function[{Typed[x, "MachineInteger"]}, Min[x, 10]]', (25,), 10),
        ('Function[{Typed[b, "Boolean"]}, !b]', (True,), False),
        ('Function[{Typed[b, "Boolean"]}, Boole[b]]', (True,), 1),
        ('Function[{Typed[x, "MachineInteger"]}, EvenQ[x]]', (4,), True),
        ('Function[{Typed[x, "MachineInteger"]}, OddQ[x]]', (4,), False),
        ('Function[{Typed[x, "MachineInteger"]}, BitXor[x, 5]]', (3,), 6),
        ('Function[{Typed[a, "MachineInteger"], Typed[b, "MachineInteger"]},'
         ' PowerMod[a, b, 97]]', (5, 13), pow(5, 13, 97)),
    ])
    def test_value(self, source, args, expected):
        assert fc(source)(*args) == expected

    def test_mixed_int_real_coerces(self):
        f = fc('Function[{Typed[x, "Real64"]}, x + 1]')
        assert f(2.5) == 3.5

    def test_transcendental(self):
        f = fc('Function[{Typed[x, "Real64"]}, Sin[x] + E^x]')
        assert f(0.5) == pytest.approx(math.sin(0.5) + math.exp(0.5))

    def test_complex(self):
        f = fc('Function[{Typed[z, "ComplexReal64"]}, z * Conjugate[z]]')
        assert f(3 + 4j) == pytest.approx(25.0)

    def test_complex_abs(self):
        f = fc('Function[{Typed[z, "ComplexReal64"]}, Abs[z]]')
        assert f(3 + 4j) == pytest.approx(5.0)

    def test_type_inference_minimal_annotations(self):
        """§4.4: only the inputs are annotated; everything else infers."""
        f = fc(
            'Function[{Typed[x, "MachineInteger"]},'
            ' Module[{a = x + 1, b = 0.5}, a * 2 + Floor[b]]]'
        )
        assert f(10) == 22

    def test_inference_failure_reports_source(self):
        with pytest.raises(TypeInferenceError):
            fc('Function[{Typed[s, "String"]}, s + 1]')

    def test_missing_annotation_rejected(self):
        with pytest.raises(CompilerError):
            fc("Function[{x}, x + 1]")


class TestControlFlow:
    def test_if(self):
        f = fc('Function[{Typed[x, "MachineInteger"]}, If[x > 0, x, -x]]')
        assert f(5) == 5
        assert f(-5) == 5

    def test_which(self):
        f = fc(
            'Function[{Typed[x, "MachineInteger"]},'
            ' Which[x < 0, -1, x == 0, 0, True, 1]]'
        )
        assert (f(-9), f(0), f(9)) == (-1, 0, 1)

    def test_while_loop(self):
        f = fc(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{s = 0, i = 1}, While[i <= n, s = s + i; i = i + 1]; s]]'
        )
        assert f(100) == 5050

    def test_for_loop(self):
        f = fc(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{s = 0}, For[i = 1, i <= n, i++, s += i]; s]]'
        )
        assert f(10) == 55

    def test_do_loop(self):
        f = fc(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{s = 0}, Do[s += i*i, {i, 1, n}]; s]]'
        )
        assert f(4) == 30

    def test_nested_loops(self):
        f = fc(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{s = 0, i = 1, j = 1},'
            '  While[i <= n, j = 1; While[j <= n, s = s + i*j; j = j + 1];'
            '   i = i + 1]; s]]'
        )
        assert f(3) == 36

    def test_break_and_continue(self):
        f = fc(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{s = 0, i = 0},'
            '  While[True, i = i + 1;'
            '   If[i > n, Break[]];'
            '   If[EvenQ[i], Continue[]];'
            '   s = s + i]; s]]'
        )
        assert f(6) == 9

    def test_return(self):
        f = fc(
            'Function[{Typed[x, "MachineInteger"]},'
            ' Module[{}, If[x > 0, Return[100]]; -1]]'
        )
        assert f(1) == 100
        assert f(-1) == -1

    def test_self_recursion(self):
        """The cfib pattern: an unbound callee matching our own signature
        compiles as a self-call (§4.1's example)."""
        f = fc(
            'Function[{Typed[n, "MachineInteger"]},'
            ' If[n < 1, 1, selfFib[n - 1] + selfFib[n - 2]]]'
        )
        assert f(10) == 144

    def test_interpreter_function_is_not_a_self_call(self):
        """A callee the interpreter defines has the function's own arity
        here, but it is not the function: no compiled implementation of
        it is a compile error, not an unbounded recursion."""
        with pytest.raises(TypeInferenceError, match="Log10"):
            fc('Function[{Typed[x, "Real64"]}, Log10[x] + 1.0]')

    def test_comparison_chain(self):
        f = fc(
            'Function[{Typed[x, "MachineInteger"]}, If[0 < x < 10, 1, 0]]'
        )
        assert (f(5), f(50), f(-5)) == (1, 0, 0)


class TestTensors:
    def test_total_and_parts(self):
        f = fc(
            'Function[{Typed[v, TypeSpecifier["Tensor"["Real64", 1]]]},'
            ' Total[v] + v[[1]] + v[[-1]]]'
        )
        assert f([1.0, 2.0, 3.0]) == 10.0

    def test_length(self):
        f = fc(
            'Function[{Typed[v, TypeSpecifier["Tensor"["Integer64", 1]]]},'
            ' Length[v]]'
        )
        assert f([5, 6, 7]) == 3

    def test_table_map_fold(self):
        f = fc(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Fold[Plus, 0, Map[(# * #)&, Table[i, {i, 1, n}]]]]'
        )
        assert f(5) == 55

    def test_range(self):
        f = fc('Function[{Typed[n, "MachineInteger"]}, Total[Range[n]]]')
        assert f(100) == 5050

    def test_constant_array(self):
        f = fc(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Total[ConstantArray[7, n]]]'
        )
        assert f(3) == 21

    def test_list_literal(self):
        f = fc(
            'Function[{Typed[x, "Real64"]}, Total[{x, 2.0 x, 3.0 x}]]'
        )
        assert f(1.0) == 6.0

    def test_nested_list_literal_rank2(self):
        f = fc(
            'Function[{Typed[x, "Real64"]}, {{x, x}, {x, x}}[[2, 1]]]'
        )
        assert f(3.5) == 3.5

    def test_matrix_parts(self):
        f = fc(
            'Function[{Typed[m, TypeSpecifier["Tensor"["Real64", 2]]]},'
            ' m[[1, 1]] + m[[2, 2]]]'
        )
        assert f([[1.0, 2.0], [3.0, 4.0]]) == 5.0

    def test_dot_via_blas(self):
        f = fc(
            'Function[{Typed[a, TypeSpecifier["Tensor"["Real64", 2]]],'
            '          Typed[b, TypeSpecifier["Tensor"["Real64", 2]]]},'
            ' Dot[a, b]]'
        )
        out = f([[1.0, 0.0], [0.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]])
        assert out.to_nested() == [[1.0, 2.0], [6.0, 8.0]]

    def test_tensor_plus_elementwise(self):
        f = fc(
            'Function[{Typed[a, TypeSpecifier["Tensor"["Real64", 1]]],'
            '          Typed[b, TypeSpecifier["Tensor"["Real64", 1]]]},'
            ' a + b]'
        )
        assert f([1.0, 2.0], [10.0, 20.0]).to_nested() == [11.0, 22.0]

    def test_scalar_broadcast_both_orders(self):
        f = fc(
            'Function[{Typed[a, TypeSpecifier["Tensor"["Real64", 1]]]},'
            ' 2.0 * a + 1.0]'
        )
        assert f([1.0, 2.0]).to_nested() == [3.0, 5.0]

    def test_negative_index_via_fallback(self):
        f = fc(
            'Function[{Typed[v, TypeSpecifier["Tensor"["Integer64", 1]]],'
            '          Typed[i, "MachineInteger"]}, v[[i]]]'
        )
        assert f([10, 20, 30], -1) == 30
        assert f([10, 20, 30], 2) == 20

    def test_min_container_paper_example(self):
        """§4.4: container Min instantiates the Fold-based definition."""
        f = fc(
            'Function[{Typed[v, TypeSpecifier["Tensor"["Integer64", 1]]]},'
            ' Min[v]]'
        )
        assert f([9, 3, 7]) == 3

    def test_nest_list(self):
        f = fc(
            'Function[{Typed[n, "MachineInteger"]},'
            ' NestList[(# * 2)&, 1, n]]'
        )
        assert f(4).to_nested() == [1, 2, 4, 8, 16]


class TestStrings:
    def test_string_length(self):
        f = fc('Function[{Typed[s, "String"]}, StringLength[s]]')
        assert f("hello") == 5

    def test_string_join(self):
        f = fc('Function[{Typed[s, "String"]}, StringJoin[s, "!"]]')
        assert f("hi") == "hi!"

    def test_utf8_bytes(self):
        f = fc(
            'Function[{Typed[s, "String"]},'
            ' Total[Native`UTF8Bytes[s]]]'
        )
        assert f("AB") == 65 + 66

    def test_character_codes_round_trip(self):
        f = fc(
            'Function[{Typed[s, "String"]},'
            ' FromCharacterCode[ToCharacterCode[s]]]'
        )
        assert f("round") == "round"

    def test_string_take_drop(self):
        f = fc(
            'Function[{Typed[s, "String"]},'
            ' StringJoin[StringTake[s, 2], StringDrop[s, 3]]]'
        )
        assert f("abcdef") == "abdef"

    def test_string_equality(self):
        f = fc(
            'Function[{Typed[a, "String"], Typed[b, "String"]}, a == b]'
        )
        assert f("x", "x") is True
        assert f("x", "y") is False


class TestFunctionValues:
    def test_branch_selected_builtin(self):
        """§3 F6's example: f = If[i == 0, Sin, Cos]; f[v]."""
        f = fc(
            'Function[{Typed[i, "MachineInteger"], Typed[v, "Real64"]},'
            ' Module[{g = If[i == 0, Sin, Cos]}, g[v]]]'
        )
        assert f(0, 0.5) == pytest.approx(math.sin(0.5))
        assert f(1, 0.5) == pytest.approx(math.cos(0.5))

    def test_function_typed_parameter(self):
        f = fc(
            'Function[{Typed[v, "Real64"],'
            ' Typed[g, TypeSpecifier[{"Real64"} -> "Real64"]]}, g[v] + 1.0]'
        )
        assert f(4.0, lambda x: x * 10) == 41.0

    def test_comparator_parameter(self):
        f = fc(
            'Function[{Typed[a, "MachineInteger"],'
            '          Typed[b, "MachineInteger"],'
            ' Typed[less, TypeSpecifier[{"Integer64", "Integer64"}'
            ' -> "Boolean"]]}, If[less[a, b], a, b]]'
        )
        assert f(3, 7, lambda a, b: a < b) == 3
        assert f(3, 7, lambda a, b: a > b) == 7


class TestBoundary:
    def test_argument_count_error_falls_to_runtime_error(self):
        from repro.errors import WolframRuntimeError

        f = fc('Function[{Typed[x, "MachineInteger"]}, x]')
        with pytest.raises(WolframRuntimeError):
            f(1, 2)

    def test_type_mismatch_rejected(self):
        from repro.errors import WolframRuntimeError

        f = fc('Function[{Typed[x, "MachineInteger"]}, x]')
        with pytest.raises(WolframRuntimeError):
            f("not an integer")

    def test_packed_array_accepted_directly(self):
        from repro.runtime import PackedArray

        f = fc(
            'Function[{Typed[v, TypeSpecifier["Tensor"["Real64", 1]]]},'
            ' Total[v]]'
        )
        packed = PackedArray.from_nested([1.0, 2.0], "Real64")
        assert f(packed) == 3.0

    def test_caller_list_not_mutated(self):
        """F5 across the boundary: mutation in compiled code copies."""
        f = fc(
            'Function[{Typed[v, TypeSpecifier["Tensor"["Integer64", 1]]]},'
            ' Module[{w = v}, Set[Part[w, 1], 99]; w[[1]]]]'
        )
        data = [1, 2, 3]
        assert f(data) == 99
        assert data == [1, 2, 3]

    def test_mexpr_arguments_unwrap(self):
        from repro.mexpr import parse

        f = fc('Function[{Typed[x, "MachineInteger"]}, x * 2]')
        assert f(parse("21")) == 42

    @pytest.mark.parametrize("type_name, outside, edges", [
        ("Integer64", (2**63, -2**63 - 1), (2**63 - 1, -2**63)),
        ("Integer8", (300, 128, -129), (127, -128)),
        ("Integer16", (2**15, -2**15 - 1), (2**15 - 1, -2**15)),
        ("Integer32", (2**31, -2**31 - 1), (2**31 - 1, -2**31)),
        ("UnsignedInteger8", (-5, 1000, 256), (0, 255)),
        ("UnsignedInteger64", (-1, 2**64), (0, 2**64 - 1)),
    ])
    def test_integer_argument_outside_its_type_overflows(
            self, type_name, outside, edges):
        """Every machine integer type checks its own range, the way an
        out-of-range Integer64 fails; in range, the value passes."""
        from repro.errors import IntegerOverflowError
        from repro.mexpr import parse

        f = fc(f'Function[{{Typed[x, "{type_name}"]}}, x]')
        for value in outside:
            for argument in (value, parse(str(value))):  # fast path, general
                with pytest.raises(IntegerOverflowError):
                    f(argument)
        for value in edges:
            assert f(value) == value

    def test_hosted_narrow_integer_out_of_range_reverts(self):
        """Hosted, an out-of-range narrow argument reverts to the
        interpreter with the message an Integer64 overflow gives."""
        from repro.compiler import install_engine_support
        from repro.engine import Evaluator
        from repro.mexpr import full_form

        session = Evaluator()
        install_engine_support(session)
        for type_name, argument in (("Integer64", 2**70),
                                    ("Integer8", 300),
                                    ("UnsignedInteger8", -5)):
            session.run(f'cf = FunctionCompile[Function['
                        f'{{Typed[x, "{type_name}"]}}, x + 1]]')
            before = len(session.messages)
            assert full_form(session.run(f"cf[{argument}]")) == \
                str(argument + 1)
            [message] = session.messages[before:]
            assert "reverting to uncompiled evaluation: IntegerOverflow" \
                in str(message)

    def test_signature_exposed(self):
        f = fc('Function[{Typed[x, "Real64"]}, x]')
        assert "Real64" in str(f.signature)
        assert "CompiledCodeFunction" in f.input_form()


class TestCopySemantics:
    def test_aliased_mutation_copies(self):
        """§4.5's x={...}; y=x; y[[1]]=3 case inside compiled code."""
        f = fc(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{a = Table[i, {i, 1, n}], s = 0},'
            '  Module[{b = a},'
            '   Set[Part[b, 1], 100];'
            '   a[[1]] * 1000 + b[[1]]]]]'
        )
        assert f(3) == 1100  # a untouched (1), b mutated (100)

    def test_unaliased_mutation_does_not_copy(self):
        source = (
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{a = Native`CreateTensor[n, 0], i = 1},'
            '  While[i <= n, Set[Part[a, i], i]; i = i + 1]; Total[a]]]'
        )
        f = fc(source)
        assert f(10) == 55
        # no Copy instruction inside the loop
        assert "CopiesInserted" not in (
            f.program.main_function().information
        ) or f.program.main_function().information["CopiesInserted"] == 0
