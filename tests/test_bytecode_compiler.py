"""The legacy bytecode compiler: translation, limits, serialization (§2.2)."""

import pytest

from repro.bytecode import (
    BYTECODE_COMPILER_VERSION,
    BytecodeCompiler,
    WVM_ENGINE_VERSION,
    compile_function,
)
from repro.errors import BytecodeCompilerError
from repro.mexpr import parse


def bc(specs: str, body: str, evaluator=None):
    return compile_function(parse(specs), parse(body), evaluator)


class TestBasicCompilation:
    def test_scalar_arithmetic(self):
        f = bc("{{x, _Real}}", "x*x + 1")
        assert f(3.0) == 10.0

    def test_integer_argument(self):
        f = bc("{{n, _Integer}}", "n + 1")
        assert f(41) == 42

    def test_untyped_argument_defaults_to_real(self):
        """§2.2: 'The Compile inputs can be typed, otherwise they are
        assumed to be Real.'"""
        f = bc("{x}", "x + 0.5")
        assert f.argument_types == ["r"]
        assert f(1) == 1.5

    def test_complex_argument(self):
        f = bc("{{z, _Complex}}", "z * z")
        assert f(1 + 1j) == 2j

    def test_paper_example(self, evaluator):
        """§2.2's cf = Compile[{{x, _Real}}, Sin[x] + E^x]."""
        import math

        f = bc("{{x, _Real}}", "Sin[x] + E^x", evaluator)
        assert f(0.3) == pytest.approx(math.sin(0.3) + math.exp(0.3))

    def test_tensor_argument(self):
        f = bc("{{v, _Real, 1}}", "Total[v]")
        assert f([1.0, 2.0, 3.0]) == 6.0

    def test_control_flow(self):
        f = bc("{{n, _Integer}}",
               "Module[{s = 0, i = 1}, While[i <= n, s += i; i++]; s]")
        assert f(100) == 5050

    def test_if_expression(self):
        f = bc("{{x, _Real}}", "If[x > 0, x, -x]")
        assert f(-2.5) == 2.5
        assert f(2.5) == 2.5

    def test_table_and_part(self):
        f = bc("{{n, _Integer}}", "Total[Table[i*i, {i, 1, n}]]")
        assert f(4) == 30

    def test_nested_function_inlining(self):
        f = bc("{{n, _Integer}}", "Map[(# * 2)&, Table[i, {i, 1, n}]]")
        assert f(3) == [2, 4, 6]

    def test_fold(self):
        f = bc("{{n, _Integer}}",
               "Fold[(#1 + #2)&, 0, Table[i, {i, 1, n}]]")
        assert f(10) == 55

    def test_nest_list(self):
        f = bc("{{n, _Integer}}", "NestList[(# * 2)&, 1, n]")
        assert f(4) == [1, 2, 4, 8, 16]

    def test_random_within_bounds(self):
        f = bc("{{n, _Integer}}", "RandomReal[{0.0, 1.0}] * 0 + n")
        assert f(5) == 5

    def test_part_assignment(self):
        f = bc("{{v, _Real, 1}}",
               "Module[{w = v}, w[[1]] = 99.0; w]")
        assert f([1.0, 2.0]) == [99.0, 2.0]

    def test_copy_on_read_protects_input(self):
        """F5 at the boundary: the caller's list is never mutated."""
        data = [1.0, 2.0]
        f = bc("{{v, _Real, 1}}", "Module[{w = v}, w[[1]] = 0.0; w[[1]]]")
        f(data)
        assert data == [1.0, 2.0]


class TestLimits:
    """The design limitations L1 the paper documents (§2.2)."""

    def test_strings_rejected(self):
        with pytest.raises(BytecodeCompilerError, match="strings"):
            bc("{{s, _String}}", "StringLength[s]")

    def test_string_operations_rejected(self):
        with pytest.raises(BytecodeCompilerError, match="strings"):
            bc("{{x, _Real}}", 'StringJoin["a", "b"]')

    def test_function_values_rejected(self):
        with pytest.raises(BytecodeCompilerError, match="[Ff]unction"):
            bc("{{lst, _Real, 1}}", "MySort[lst, Less]")

    def test_function_literal_as_data_rejected(self):
        with pytest.raises(BytecodeCompilerError, match="[Ff]unction"):
            bc("{{lst, _Real, 1}}", "MyApply[lst, (#)&]")

    def test_higher_order_needs_literal_function(self):
        with pytest.raises(BytecodeCompilerError):
            bc("{{lst, _Real, 1}, {f, _Real}}", "Map[f, lst]")

    def test_supported_function_count_order_of_magnitude(self):
        """§2.2: 'around 200 commonly used functions'."""
        from repro.bytecode.supported import (
            BINARY_OPS, COMPARISON_OPS, UNARY_MATH,
        )

        # the compiler's own dispatch: one ``_emit_<Head>`` handler each,
        # plus the heads that map onto a single opcode
        handlers = {
            name[len("_emit_"):] for name in vars(BytecodeCompiler)
            if name.startswith("_emit_") and name[len("_emit_")].isupper()
        }
        count = len(handlers | set(BINARY_OPS) | set(COMPARISON_OPS)
                    | set(UNARY_MATH))
        assert 80 <= count <= 300

    def test_interpreter_escape_for_unknown_numeric(self, evaluator):
        """§2.2: unsupported expressions invoke the interpreter at run
        time."""
        f = bc("{{n, _Integer}}", "Fibonacci[n] + 1", evaluator)
        assert f(10) == 56


class TestSerializedForm:
    def test_versions(self):
        f = bc("{{x, _Real}}", "x + 1")
        assert f.versions[0] == BYTECODE_COMPILER_VERSION
        assert f.versions[1] == WVM_ENGINE_VERSION

    def test_input_form_contains_sections(self):
        f = bc("{{x, _Real}}", "Sin[x] + E^x")
        text = f.input_form()
        assert "CompiledFunction[" in text
        assert "Register Allocations" in text
        assert "Sin" in text

    def test_version_mismatch_triggers_recompile(self, evaluator):
        f = bc("{{x, _Real}}", "x * 2", evaluator)
        f.versions = (1, 1, 0)  # stale artifact
        assert f(2.0) == 4.0
        assert f.versions[0] == BYTECODE_COMPILER_VERSION

    def test_register_reuse(self):
        """§2.2: register allocation reduces the register count."""
        f = bc("{{x, _Real}}", "((x + 1) * (x + 2)) + ((x + 3) * (x + 4))")
        # naive allocation would need ~12 registers; reuse keeps it small
        assert f.register_total <= 8

    def test_instruction_encoding(self):
        from repro.bytecode import Op

        f = bc("{{x, _Real}}", "Sin[x]")
        encoded = [i.encode() for i in f.instructions]
        assert any(e[0] == int(Op.MATH_UNARY) for e in encoded)
        assert encoded[-1] == [1]  # the paper's {1} Return


class TestASTCSE:
    def test_common_subexpression_hoisted(self):
        """§2.2: the bytecode compiler performs AST-level CSE."""
        with_cse = bc("{{x, _Real}}", "Sin[x + 1] + Cos[Sin[x + 1]]")
        # Sin[x + 1] appears twice in the source but compiles once
        from repro.bytecode.instructions import MATH_CODES, Op

        sin_ops = [
            i for i in with_cse.instructions
            if i.op == Op.MATH_UNARY and i.operands[0] == MATH_CODES["Sin"]
        ]
        assert len(sin_ops) == 1

    def test_cse_result_correct(self):
        import math

        f = bc("{{x, _Real}}", "Sin[x + 1] + Cos[Sin[x + 1]]")
        expected = math.sin(1.5) + math.cos(math.sin(1.5))
        assert f(0.5) == pytest.approx(expected)

    def test_cse_skipped_when_parameter_assigned(self):
        f = bc("{{x, _Real}}", "Module[{y = Sin[x]}, x = x + 1; Sin[x] + y]")
        import math

        assert f(0.0) == pytest.approx(math.sin(0.0) + math.sin(1.0))


class TestSoftFallback:
    def test_integer_overflow_falls_back(self, evaluator):
        """F2: int64 overflow reverts to the interpreter's bignums."""
        f = bc("{{n, _Integer}}", "2^n", evaluator)
        assert f(10) == 1024
        assert f(100) == 2 ** 100
        assert f.fallback_count == 1
        assert any("runtime error" in m for m in evaluator.messages)

    def test_iterative_fib_200(self, evaluator):
        f = bc(
            "{{n, _Integer}}",
            "Module[{a = 0, b = 1, i = 1},"
            " While[i <= n, Module[{t = a + b}, a = b; b = t]; i++]; a]",
            evaluator,
        )
        assert f(200) == 280571172992510140037611932413038677189525

    def test_division_by_zero_falls_back(self, evaluator):
        f = bc("{{x, _Real}}", "If[x > 0.0, 1.0/x, 1.0/x]", evaluator)
        assert f(2.0) == 0.5

    def test_no_evaluator_reraises(self):
        from repro.errors import WolframRuntimeError

        f = bc("{{n, _Integer}}", "2^n", None)
        with pytest.raises(WolframRuntimeError):
            f(100)

    def test_argument_count_checked(self, evaluator):
        from repro.errors import WolframRuntimeError

        f = bc("{{x, _Real}}", "x", None)
        with pytest.raises(WolframRuntimeError):
            f(1.0, 2.0)


class TestEngineIntegration:
    def test_compile_keyword(self, run):
        """F1: Compile inside the interpreter yields a callable artifact."""
        assert run(
            "cf = Compile[{{x, _Real}}, x*x]; cf[3.0]"
        ) == "9.0"

    def test_compiled_function_intermixes(self, run):
        assert run(
            "cf = Compile[{{x, _Real}}, x + 1.0]; Map[cf, {1.0, 2.0}]"
        ) == "List[2.0, 3.0]"

    def test_failed_compile_degrades_to_function(self, run, evaluator):
        result = run('g = Compile[{{s, _Real}}, StringJoin["a", "b"]]; g[1.0]')
        assert result == '"ab"'  # interpreted fallback still works
        assert any("interpreted" in m for m in evaluator.messages)
