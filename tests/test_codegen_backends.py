"""Backend tests: Python (the structurizer), WVM, library export (§4.6,
F4, F10)."""

import pytest

from repro.compiler import (
    CompileToIR,
    FunctionCompile,
    FunctionCompileExportLibrary,
    FunctionCompileExportString,
    LibraryFunctionLoad,
)
from repro.compiler.pipeline import CompilerPipeline
from repro.mexpr import parse

LOOP_FN = (
    'Function[{Typed[n, "MachineInteger"]},'
    ' Module[{s = 0, i = 1}, While[i <= n, s = s + i; i = i + 1]; s]]'
)

#: loops with more than one exit: an early Return[], a Break[] beside the
#: loop test, both, nested
EARLY_EXITS = [
    "Module[{s = 0}, Do[If[i == 7, Return[i]]; If[s > 50, Break[]];"
    " s += i, {i, n}]; s]",
    "Module[{s = 0}, Do[If[i == 7, Return[i]]; s += i, {i, n}]; s]",
    "Module[{s = 0}, Do[If[s > 50, Break[]]; s += i, {i, n}]; s]",
    "Module[{s = 0, i = 0}, While[i < n, i++;"
    " If[Mod[i, 5] == 0, Return[-i]]; s += i]; s]",
    "Module[{s = 0}, Do[Do[If[j > i, Break[]]; If[i*j == 12, Return[i]];"
    " s += j, {j, n}], {i, n}]; s]",
    # an arm skips the block its sibling runs into: a Continue[] past the
    # inner If's end to the step, a Break[] past an empty join
    "Module[{a = 0, b = 1}, For[k = 1, k <= 4, k++, a = n + 1;"
    " If[n < 11, If[a > -2, Continue[]]]]; a + 10 b]",
    "Module[{a = 0, b = 1}, b = n - 2; Do[If[n < -2, If[EvenQ[b], b = a - 1,"
    " If[EvenQ[a], Break[]]]]; Break[], {k, 2}]; b]",
    "Module[{a = 0, b = 1}, Do[If[a > 3, If[b > 7, a = a - 2,"
    " If[b > 2, Return[b + 3]]]]; If[b > 8, If[b > -1, If[a > 6,"
    " a = n + 3; Continue[]]; b = b + 1, If[a > 8, Break[]]]]; b = a + 1,"
    " {k, n}]; a + 10 b]",
]


class TestPythonBackend:
    def test_generated_source_is_readable_python(self):
        f = FunctionCompile(LOOP_FN)
        source = f.generated_source
        compile(source, "<check>", "exec")  # must be valid Python
        assert "def Main(" in source

    def test_primitive_inlining_default(self):
        """§6: primitives inline; no runtime-table calls for arithmetic."""
        f = FunctionCompile(LOOP_FN)
        assert "_rt['checked_binary_plus" not in f.generated_source

    def test_inline_policy_none_calls_runtime(self):
        """The 10×-Mandelbrot ablation switch (§6)."""
        f = FunctionCompile(LOOP_FN, InlinePolicy=None)
        assert "_rt['checked_binary_plus_Integer64_Integer64']" in (
            f.generated_source
        )
        assert f(10) == 55

    def test_structured_loop_emitted(self):
        f = FunctionCompile(LOOP_FN)
        assert "while True:" in f.generated_source
        assert "_state" not in f.generated_source  # no dispatcher fallback

    def test_tensor_data_alias_emitted(self):
        f = FunctionCompile(
            'Function[{Typed[v, TypeSpecifier["Tensor"["Real64", 1]]]},'
            ' v[[1]]]'
        )
        assert "_d = " in f.generated_source  # the unboxing alias (§6)

    def test_abort_checks_at_loop_heads(self):
        f = FunctionCompile(LOOP_FN)
        body = f.generated_source
        loop_index = body.index("while True:")
        # the inline checkpoint: a test of the word, the call only when armed
        check_index = body.index("if _armed[0]: _check_abort()", loop_index)
        assert check_index - loop_index < 60  # first statement of the loop

    @pytest.mark.parametrize("body", EARLY_EXITS)
    def test_early_exits_are_structured(self, body):
        """A loop with an early Return[] or a Break[] beside its test is
        one ``while True``: each extra exit is inline, and no CFG falls
        back to a state machine."""
        from repro.engine import Evaluator
        from repro.runtime.guard import guard_scope

        f = FunctionCompile(
            f'Function[{{Typed[n, "MachineInteger"]}}, {body}]')
        assert "_state" not in f.generated_source
        evaluator = Evaluator()
        for n in (3, 10, 40):
            with guard_scope(step_budget=100_000):
                assert f(n) == evaluator.run(
                    f"Function[{{n}}, {body}][{n}]").to_python()

    def test_constant_hoisting(self):
        src = (
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{s = 0, i = 1},'
            '  While[i <= n, s = s + 7; i = i + 1]; s]]'
        )
        # the IR defines the literal 7 once, before the loop (what the
        # WVM export loads it from) ...
        text = CompileToIR(src)["toString"]
        assert text.count("Constant 7") == 1
        assert text.index("Constant 7") < text.index("while_head")
        # ... and Python source writes it where it is used
        source = FunctionCompile(src).generated_source
        assert "+ 7" in source
        assert not [l for l in source.splitlines() if l.strip().endswith("= 7")]


class TestWVMBackend:
    def test_listing(self):
        listing = FunctionCompileExportString(LOOP_FN, "WVM")
        assert "WVM translation" in listing
        assert "Return" in listing

    def test_runnable_on_the_legacy_vm(self):
        """F4: the new compiler targets the *existing* WVM."""
        from repro.compiler.codegen.wvm_backend import WVMBackend

        program = CompilerPipeline().compile_program(parse(LOOP_FN))
        compiled = WVMBackend(program).compile_main()
        assert compiled(100) == 5050

    def test_tensor_program_on_wvm(self):
        from repro.compiler.codegen.wvm_backend import WVMBackend

        program = CompilerPipeline().compile_program(parse(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Total[Table[i*i, {i, 1, n}]]]'
        ))
        compiled = WVMBackend(program).compile_main()
        assert compiled(4) == 30

    def test_strings_unrepresentable(self):
        """L1 from the other side: the WVM has no string datatype."""
        from repro.compiler.codegen.wvm_backend import WVMBackend
        from repro.errors import CodegenError

        program = CompilerPipeline().compile_program(parse(
            'Function[{Typed[s, "String"]}, StringLength[s]]'
        ))
        with pytest.raises(CodegenError):
            WVMBackend(program).compile_main()


class TestLibraryExport:
    def test_export_and_load(self, tmp_path):
        """F10: FunctionCompileExportLibrary + LibraryFunctionLoad."""
        path = str(tmp_path / "lib_add.py")
        FunctionCompileExportLibrary(path, LOOP_FN)
        main = LibraryFunctionLoad(path)
        assert main(100) == 5050

    def test_exported_source_is_standalone(self, tmp_path):
        source = FunctionCompileExportString(LOOP_FN, "Python")
        assert "_kernel" in source  # the disabled-kernel stub
        # abortability disabled (§4.6): the slow path is bound to no engine
        assert "checkpoint as _check_abort" in source
        assert "def _check_abort" not in source

    def test_exported_library_with_constants(self, tmp_path):
        path = str(tmp_path / "lib_table.py")
        FunctionCompileExportLibrary(
            path,
            'Function[{Typed[i, "MachineInteger"]}, lookup[[i]]]',
            constants={"lookup": [10, 20, 30]},
        )
        main = LibraryFunctionLoad(path)
        assert main(2) == 20

    def test_folded_non_finite_constants_are_valid_source(self):
        # Part[constant, literal] folds to a float constant; nan/inf are
        # not names the generated module defines
        import math

        from repro.compiler import FunctionCompile

        table = [float("nan"), float("inf"), float("-inf"), -0.0]
        values = [
            FunctionCompile(
                f'Function[{{Typed[i, "MachineInteger"]}}, lookup[[{k}]]]',
                constants={"lookup": table},
            )(0)
            for k in (1, 2, 3, 4)
        ]
        assert math.isnan(values[0])
        assert values[1:3] == [math.inf, -math.inf]
        assert math.copysign(1.0, values[3]) == -1.0

    def test_ir_export(self):
        text = FunctionCompileExportString(LOOP_FN, "IR")
        assert "Main" in text and "Phi" in text

    def test_ir_export_is_reproducible(self):
        """Two exports of one function differ only in value numbering
        (ids come from a process-wide counter): no timing, fact bundle or
        object address is printed."""
        import re

        def renumbered(text: str) -> str:
            first_use: dict[str, str] = {}
            return re.sub(
                r"%\d+",
                lambda m: first_use.setdefault(
                    m.group(), f"%v{len(first_use)}"
                ),
                text,
            )

        first = FunctionCompileExportString(LOOP_FN, "IR")
        second = FunctionCompileExportString(LOOP_FN, "IR")
        assert renumbered(first) == renumbered(second)
        assert "0x" not in first and "passTimings" not in first
        assert first.startswith('; module metadata: {"OptimizationLevel" -> 1')

    def test_unknown_target_rejected(self):
        from repro.errors import CompilerError

        # the JavaScript and C backends are gone: their spellings are
        # unknown too
        for target in ("FPGA", "JavaScript", "JS", "WebAssembly", "C",
                       "C++"):
            with pytest.raises(CompilerError, match="unknown export target"):
                FunctionCompileExportString(LOOP_FN, target)
