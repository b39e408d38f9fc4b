"""Dedicated tests: the CFG structurizer and the constraint solver."""

import pytest

from repro.compiler import CompileToIR, FunctionCompile
from repro.compiler.codegen.structurize import (
    BlockNode,
    IfNode,
    LoopNode,
    Structurizer,
)
from repro.compiler.pipeline import CompilerPipeline
from repro.mexpr import parse


def build_plan(source: str):
    program = CompilerPipeline().compile_program(parse(source))
    return Structurizer(program.main_function()).build(), program


class TestStructurizer:
    def test_straight_line(self):
        plan, _ = build_plan(
            'Function[{Typed[x, "MachineInteger"]}, x + 1]'
        )
        assert any(isinstance(node, BlockNode) for node in plan)
        assert not any(isinstance(node, LoopNode) for node in plan)

    def test_if_diamond(self):
        plan, _ = build_plan(
            'Function[{Typed[c, "Boolean"]}, If[c, 1, 2]]'
        )
        ifs = [node for node in plan if isinstance(node, IfNode)]
        assert len(ifs) == 1
        assert ifs[0].then_plan and ifs[0].else_plan

    def test_while_loop(self):
        plan, _ = build_plan(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{i = 0}, While[i < n, i = i + 1]; i]]'
        )
        loops = [node for node in plan if isinstance(node, LoopNode)]
        assert len(loops) == 1

    def test_nested_loops(self):
        plan, _ = build_plan(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{i = 0, j = 0, s = 0},'
            '  While[i < n, j = 0;'
            '   While[j < n, s = s + 1; j = j + 1]; i = i + 1]; s]]'
        )

        def loop_count(nodes):
            total = 0
            for node in nodes:
                if isinstance(node, LoopNode):
                    total += 1 + loop_count(node.body)
                elif isinstance(node, IfNode):
                    total += loop_count(node.then_plan) + loop_count(
                        node.else_plan
                    )
            return total

        assert loop_count(plan) == 2

    def test_every_block_emitted_exactly_once(self):
        plan, program = build_plan(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{s = 0, i = 0},'
            '  While[True, i = i + 1; If[i > n, Break[]];'
            '   If[EvenQ[i], Continue[]]; s = s + i]; s]]'
        )

        emitted: list[str] = []

        def collect(nodes):
            for node in nodes:
                if isinstance(node, BlockNode):
                    emitted.append(node.name)
                elif isinstance(node, IfNode):
                    collect(node.then_plan)
                    collect(node.else_plan)
                elif isinstance(node, LoopNode):
                    collect(node.body)

        collect(plan)
        assert sorted(emitted) == sorted(program.main_function().blocks)

    def test_break_continue_semantics(self):
        f = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{s = 0, i = 0},'
            '  While[True, i = i + 1; If[i > n, Break[]];'
            '   If[EvenQ[i], Continue[]]; s = s + i]; s]]'
        )
        assert f(10) == 25  # 1+3+5+7+9
        assert "while True:" in f.generated_source
        assert "break" in f.generated_source
        assert "continue" in f.generated_source


class TestInference:
    def signature(self, source: str) -> str:
        program = CompilerPipeline().compile_program(parse(source))
        fn = program.main_function()
        params = ", ".join(str(p.type) for p in fn.parameters)
        return f"({params}) -> {fn.result_type}"

    def test_addone_signature(self):
        assert self.signature(
            'Function[{Typed[arg, "MachineInteger"]}, arg + 1]'
        ) == '("Integer64") -> "Integer64"'

    def test_mixed_arithmetic_widens(self):
        assert self.signature(
            'Function[{Typed[x, "MachineInteger"]}, x + 0.5]'
        ) == '("Integer64") -> "Real64"'

    def test_comparison_is_boolean(self):
        assert self.signature(
            'Function[{Typed[x, "Real64"]}, x > 0.0]'
        ) == '("Real64") -> "Boolean"'

    def test_tensor_element_inferred_from_writes(self):
        """Native`CreateTensorUninit's element type comes from the
        later PartSet unification (§4.4's inference in action)."""
        assert self.signature(
            'Function[{Typed[n, "MachineInteger"]}, Table[1.5, {i, 1, n}]]'
        ) == '("Integer64") -> "Tensor"["Real64", 1]'

    def test_loop_carried_types_unify(self):
        assert self.signature(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{x = 0.0, i = 0},'
            '  While[i < n, x = x + 1.5; i = i + 1]; x]]'
        ) == '("Integer64") -> "Real64"'

    def test_self_recursion_types_to_own_signature(self):
        assert self.signature(
            'Function[{Typed[n, "MachineInteger"]},'
            ' If[n < 1, 1, self[n - 1] + 1]]'
        ) == '("Integer64") -> "Integer64"'

    def test_function_value_grounds_via_overloads(self):
        assert self.signature(
            'Function[{Typed[v, "Real64"]}, Module[{g = Sin}, g[v]]]'
        ) == '("Real64") -> "Real64"'

    def test_big_literal_is_unsigned64(self):
        assert self.signature(
            'Function[{Typed[x, "MachineInteger"]},'
            ' BitAnd[18446744073709551615, 255]]'
        ) == '("Integer64") -> "UnsignedInteger64"'

    def test_expression_type_propagates(self):
        assert self.signature(
            'Function[{Typed[e, "Expression"]}, e + e]'
        ) == '("Expression") -> "Expression"'

    def test_error_carries_source_expression(self):
        from repro.errors import TypeInferenceError

        with pytest.raises(TypeInferenceError) as info:
            FunctionCompile('Function[{Typed[s, "String"]}, Sin[s]]')
        assert "Sin" in str(info.value)


class TestAbortInhibitDecorator:
    """§6: 'Abort checking can be toggled ... selectively on expressions by
    wrapping them with the Native`AbortInhibit decorator.'"""

    def test_inhibited_loop_has_no_check(self):
        f = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{s = 0},'
            '  Native`AbortInhibit['
            '   Module[{i = 1}, While[i <= n, s = s + i; i = i + 1]]];'
            '  s]]'
        )
        source = f.generated_source
        loop_start = source.index("while True:")
        assert "_check_abort" not in source[loop_start:]
        assert f(10) == 55

    def test_uninhibited_loops_still_checked(self):
        f = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{s = 0, i = 1, j = 1},'
            '  Native`AbortInhibit['
            '   While[i <= n, s = s + i; i = i + 1]];'
            '  While[j <= n, s = s + j; j = j + 1];'
            '  s]]'
        )
        # exactly one loop-header check (second loop) + the prologue check
        assert f.generated_source.count("if _armed[0]: _check_abort()") == 2
        assert f.generated_source.count("_check_abort") == 2
        assert f(10) == 110
