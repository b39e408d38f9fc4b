"""Backend tests: Python (structurizer + fallback), C export, WVM, library
export (§4.6, F4, F10)."""

import subprocess

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

    def test_dispatcher_fallback_is_correct(self):
        """Force the state-machine path and check behaviour matches."""
        from repro.compiler.codegen import python_backend
        from repro.compiler.codegen.structurize import StructurizeError

        original = python_backend.Structurizer

        class Refuses(original):
            def build(self):
                raise StructurizeError("forced")

        python_backend.Structurizer = Refuses
        try:
            f = FunctionCompile(LOOP_FN)
        finally:
            python_backend.Structurizer = original
        assert "_state" in f.generated_source
        assert f(100) == 5050

    def test_constant_hoisting(self):
        src = (
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{s = 0, i = 1},'
            '  While[i <= n, s = s + 7; i = i + 1]; s]]'
        )
        # the IR defines the literal 7 once, before the loop (what the C
        # and WVM exports load it from) ...
        text = CompileToIR(src)["toString"]
        assert text.count("Constant 7") == 1
        assert text.index("Constant 7") < text.index("while_head")
        # ... and Python source writes it where it is used
        source = FunctionCompile(src).generated_source
        assert "+ 7" in source
        assert not [l for l in source.splitlines() if l.strip().endswith("= 7")]


class TestCBackend:
    def gcc_check(self, source: str, tmp_path):
        path = tmp_path / "out.c"
        path.write_text(source)
        result = subprocess.run(
            ["gcc", "-fsyntax-only", "-std=c11", str(path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr

    def test_scalar_function_compiles(self, tmp_path):
        source = FunctionCompileExportString(LOOP_FN, "C")
        assert "int64_t" in source
        assert "goto" in source
        self.gcc_check(source, tmp_path)

    def test_real_function_compiles(self, tmp_path):
        source = FunctionCompileExportString(
            'Function[{Typed[x, "Real64"]}, Sin[x] + Exp[x]]', "C"
        )
        assert "sin(" in source and "exp(" in source
        self.gcc_check(source, tmp_path)

    def test_overflow_check_uses_builtins(self, tmp_path):
        source = FunctionCompileExportString(
            'Function[{Typed[x, "MachineInteger"]}, x + x]', "C"
        )
        assert "__builtin_add_overflow" in source
        self.gcc_check(source, tmp_path)

    def test_tensor_function_declares_runtime(self, tmp_path):
        source = FunctionCompileExportString(
            'Function[{Typed[v, TypeSpecifier["Tensor"["Real64", 1]]]},'
            ' Total[v] + v[[1]]]', "C",
        )
        assert "wolfram_tensor" in source
        self.gcc_check(source, tmp_path)

    def test_complex_function(self, tmp_path):
        source = FunctionCompileExportString(
            'Function[{Typed[z, "ComplexReal64"]}, Abs[z]]', "C"
        )
        assert "_Complex" in source
        self.gcc_check(source, tmp_path)

    def test_kernel_escape_becomes_stub(self, tmp_path):
        source = FunctionCompileExportString(
            'Function[{Typed[n, "MachineInteger"]},'
            ' KernelFunction[Fibonacci][n]]', "C",
        )
        assert "RTERR_NO_KERNEL" in source
        self.gcc_check(source, tmp_path)


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

        # the JavaScript backend is gone: its spellings are unknown too
        for target in ("FPGA", "JavaScript", "JS", "WebAssembly"):
            with pytest.raises(CompilerError, match="unknown export target"):
                FunctionCompileExportString(LOOP_FN, target)
