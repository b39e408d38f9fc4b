"""Individual TWIR passes (§4.3/§4.5): optimizations and semantic passes."""

from repro.compiler import CompileToIR, FunctionCompile
from repro.compiler.options import CompilerOptions
from repro.compiler.twir.passes import (
    constant_propagation,
    hoist_constants,
    lint,
    simplify_cfg,
)
from repro.compiler.types.specifier import ty
from repro.compiler.wir.function_module import FunctionModule
from repro.compiler.wir.instructions import (
    BranchInstr,
    ConstantInstr,
    JumpInstr,
    PhiInstr,
    ReturnInstr,
    Value,
)
from repro.mexpr import parse


def ir_text(source: str, **options) -> str:
    text = CompileToIR(source, **options)["toString"]
    # drop the module-metadata line (pass timings contain arbitrary digits)
    return "\n".join(
        line for line in text.splitlines()
        if not line.startswith("; module metadata")
    )


def unoptimized(source: str):
    """The typed main function of ``source``, before any optimization."""
    return CompileToIR(
        source, OptimizationLevel=None
    )["program"].main_function()


class TestConstantPropagation:
    def test_constant_arithmetic_folds(self):
        text = ir_text('Function[{Typed[x, "MachineInteger"]}, x + 2*3]')
        assert "Constant 6" in text

    def test_constant_branch_folds_away(self):
        text = ir_text(
            'Function[{Typed[x, "MachineInteger"]}, If[1 < 2, x, x * 100]]'
        )
        assert "Branch" not in text  # dead branch deleted

    def test_fold_time_error_deferred_to_runtime(self):
        # constant overflow must not crash compilation
        f = FunctionCompile(
            'Function[{Typed[x, "MachineInteger"]},'
            ' If[x > 0, x, 9223372036854775807 + 9223372036854775807]]'
        )
        assert f(1) == 1

    def test_compare_with_true_forwards_the_boolean(self):
        fn = unoptimized(
            'Function[{Typed[b, "Boolean"]}, If[b == True, 1, 2]]'
        )
        (argument,) = [
            i.result for i in fn.instructions() if i.opcode == "LoadArgument"
        ]
        assert constant_propagation(fn)
        branches = [i for i in fn.instructions() if isinstance(i, BranchInstr)]
        assert [b.condition for b in branches] == [argument]


class TestCSE:
    def test_repeated_pure_expression_computed_once(self):
        text = ir_text(
            'Function[{Typed[x, "Real64"]}, Sin[x] + Sin[x]]'
        )
        assert text.count("math_sin") == 1

    def test_impure_not_merged(self):
        text = ir_text(
            'Function[{Typed[x, "Real64"]},'
            ' RandomReal[0.0, x] + RandomReal[0.0, x]]'
        )
        assert text.count("random_real") == 2


class TestDCE:
    def test_unused_pure_value_removed(self):
        # the sentinel must be a number no global value-id counter can
        # plausibly reach in one test session (%999 appears in the IR
        # text once 999 values have been allocated process-wide)
        text = ir_text(
            'Function[{Typed[x, "MachineInteger"]},'
            ' Module[{dead = x * 98765431}, x]]'
        )
        assert "98765431" not in text

    def test_impure_kept(self):
        text = ir_text(
            'Function[{Typed[x, "Real64"]},'
            ' Module[{}, RandomReal[0.0, 1.0]; x]]'
        )
        assert "random_real" in text


class TestSimplifyCfg:
    def test_linear_blocks_merge(self):
        fn = unoptimized('Function[{Typed[c, "Boolean"]}, If[c, 1, 2]]')
        before = len(fn.blocks)
        simplify_cfg(fn)
        lint(fn)
        assert len(fn.blocks) <= before

    def test_short_circuit_loop_exit_is_threaded(self):
        """``While[a && b]``: the edge that brings the join's phi
        ``False`` goes straight to the loop exit, the empty ``else`` arm
        is bypassed, and the join is fused away."""
        fn = unoptimized(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{i = 0}, While[i < n && i < 10, i = i + 1]; i]]'
        )
        hoist_constants(fn)
        assert simplify_cfg(fn)
        lint(fn)
        block = {name.split("(")[0]: b for name, b in fn.blocks.items()}
        assert "if_else" not in block and "if_end" not in block
        assert not any(
            isinstance(b.terminator.condition.definition, PhiInstr)
            for b in fn.blocks.values()
            if isinstance(b.terminator, BranchInstr)
        )
        exit_ = block["while_end"].name
        assert block["while_head"].terminator.false_target == exit_
        assert block["if_then"].terminator.false_target == exit_

    def test_dead_block_deleted_and_phi_pruned(self):
        fn = FunctionModule("F")
        entry, left, right, join = (
            fn.new_block(name) for name in ("entry", "left", "right", "join")
        )
        one, two, merged = (Value(h, ty("Integer64")) for h in "12m")
        entry.terminator = JumpInstr(left.name)  # `right` is unreachable
        left.append(ConstantInstr(one, 1))
        left.terminator = JumpInstr(join.name)
        right.append(ConstantInstr(two, 2))
        right.terminator = JumpInstr(join.name)
        join.append(PhiInstr(merged, [(left.name, one), (right.name, two)]))
        join.terminator = ReturnInstr(merged)

        assert simplify_cfg(fn)
        lint(fn)
        # `right` is gone, the phi lost its edge from it and, left with one
        # value, went too; the straight line that remains is one block
        assert list(fn.blocks) == [entry.name]
        assert not any(isinstance(i, PhiInstr) for i in fn.instructions())
        assert entry.terminator.value is one


class TestOptimizerSchedule:
    PASSES = ["constant-hoisting", "constant-propagation",
              "cfg-simplification", "tensor-simplification", "cse", "dce"]
    #: optimizer rounds over the benchsuite programs (every ``NEW_*``
    #: kernel and ``ITERATIVE_FIB``): 22 with the nine-pass loop, the same
    #: 22 with the six passes it became
    ROUNDS_NINE_PASSES = 22

    def test_each_round_runs_the_six_passes(self):
        from repro.benchsuite import programs, reference

        rounds = 0
        for name in sorted(vars(programs)):
            if not (name.startswith("NEW_") or name == "ITERATIVE_FIB"):
                continue
            source = getattr(programs, name)
            keywords = {}
            if "primeTable" in source:
                keywords["constants"] = {
                    "primeTable": reference.prime_sieve_bitmap(),
                    "witnesses": programs.RM_WITNESSES,
                }
            names = []
            CompileToIR(source, PassLogger=lambda n, s: names.append(n),
                        **keywords)
            # the optimizer runs after the last resolution and before the
            # dataflow analysis that starts the semantic passes
            start = max(i for i, n in enumerate(names)
                        if n.startswith(("infer:", "resolve:")))
            schedule = names[start + 1:names.index("dataflow")]
            count = schedule.count("constant-hoisting")
            assert schedule == self.PASSES * count, name
            rounds += count
        assert 0 < rounds <= self.ROUNDS_NINE_PASSES


class TestAbortInsertion:
    SRC = (
        'Function[{Typed[n, "MachineInteger"]},'
        ' Module[{i = 0}, While[i < n, i = i + 1]; i]]'
    )

    def test_loop_header_and_prologue_checks(self):
        text = ir_text(self.SRC)
        assert text.count("CheckAbort") == 2  # prologue + loop header

    def test_disabled_by_option(self):
        text = ir_text(self.SRC, AbortHandling=False)
        assert "CheckAbort" not in text

    def test_not_per_instruction(self):
        """§4.5: checks at loop heads, NOT after every instruction."""
        text = ir_text(
            'Function[{Typed[x, "Real64"]},'
            ' Sin[x] + Cos[x] + Exp[x] + Sqrt[x]]'
        )
        assert text.count("CheckAbort") == 1  # prologue only; no loops


class TestIndexElision:
    def test_loop_counter_access_unchecked(self):
        text = ir_text(
            'Function[{Typed[v, TypeSpecifier["Tensor"["Real64", 1]]]},'
            ' Module[{s = 0.0, i = 1, n = Length[v]},'
            '  While[i <= n, s = s + v[[i]]; i = i + 1]; s]]'
        )
        assert "tensor_part1_unchecked" in text

    def test_stencil_offsets_unchecked(self):
        text = ir_text(
            'Function[{Typed[v, TypeSpecifier["Tensor"["Real64", 1]]]},'
            ' Module[{s = 0.0, i = 2, n = Length[v]},'
            '  While[i <= n - 1, s = s + v[[i - 1]] + v[[i + 1]];'
            '   i = i + 1]; s]]'
        )
        assert "tensor_part1]" not in text  # every access elided

    def test_unknown_index_stays_checked(self):
        text = ir_text(
            'Function[{Typed[v, TypeSpecifier["Tensor"["Real64", 1]]],'
            ' Typed[i, "MachineInteger"]}, v[[i]]]'
        )
        assert "tensor_part1]" in text
        assert "unchecked" not in text

    def test_disabled_by_option(self):
        text = ir_text(
            'Function[{Typed[v, TypeSpecifier["Tensor"["Real64", 1]]]},'
            ' Module[{s = 0.0, i = 1}, While[i <= Length[v],'
            '  s = s + v[[i]]; i = i + 1]; s]]',
            ElideChecks=False,
        )
        assert "unchecked" not in text


class TestOverflowElision:
    def test_guarded_counter_increment_unchecked(self):
        text = ir_text(
            'Function[{Typed[v, TypeSpecifier["Tensor"["Real64", 1]]]},'
            ' Module[{i = 1, n = Length[v]},'
            '  While[i <= n, i = i + 1]; i]]'
        )
        assert "plus_unchecked_Integer64" in text

    def test_accumulator_stays_checked(self):
        text = ir_text(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{s = 1, i = 1},'
            '  While[i <= n, s = s * 2 + s; i = i + 1]; s]]'
        )
        assert "checked_binary_times_Integer64_Integer64" in text


class TestMemoryManagement:
    def test_acquire_for_allocations_only(self):
        text = ir_text(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{t = Native`CreateTensor[n, 0]}, Total[t]]]'
        )
        assert "MemoryAcquire" in text

    def test_disabled_by_option(self):
        text = ir_text(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{t = Native`CreateTensor[n, 0]}, Total[t]]]',
            MemoryManagement=False,
        )
        assert "MemoryAcquire" not in text

    def test_no_refcount_traffic_in_mutation_loop(self):
        """Loop-carried tensors alias, they don't re-acquire (§4.5)."""
        f = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{t = Native`CreateTensor[n, 0], i = 1},'
            '  While[i <= n, Set[Part[t, i], i]; i = i + 1]; Total[t]]]'
        )
        source = f.generated_source
        loop_start = source.index("while True:")
        assert "_mem_acquire" not in source[loop_start:]


class TestCopyInsertion:
    def test_copy_present_for_aliased_mutation(self):
        text = ir_text(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{a = Table[i, {i, 1, n}]},'
            '  Module[{b = a}, Set[Part[b, 1], 0]; a[[1]] + b[[1]]]]]'
        )
        assert "Copy" in text

    def test_argument_mutation_copies_at_entry(self):
        f = FunctionCompile(
            'Function[{Typed[v, TypeSpecifier["Tensor"["Integer64", 1]]]},'
            ' Module[{i = 1, n = Length[v]},'
            '  While[i <= n, Set[Part[v, i], 0]; i = i + 1]; v]]'
        )
        data = [1, 2, 3]
        out = f(data)
        assert out.to_nested() == [0, 0, 0]
        assert data == [1, 2, 3]  # caller unchanged: one entry copy

    def test_disabled_by_option_mutates_in_place(self):
        from repro.runtime import PackedArray

        f = FunctionCompile(
            'Function[{Typed[v, TypeSpecifier["Tensor"["Integer64", 1]]]},'
            ' Module[{i = 1, n = Length[v]},'
            '  While[i <= n, Set[Part[v, i], 0]; i = i + 1]; v]]',
            CopyInsertion=False, ArgumentAlias=True,
        )
        packed = PackedArray.from_nested([1, 2, 3], "Integer64")
        f(packed)
        assert packed.to_nested() == [0, 0, 0]  # caller-visible (opted in)


class TestInlining:
    def test_paper_ablation_switch_behaviour(self):
        src = (
            'Function[{Typed[x, "Real64"]},'
            ' Module[{p = x}, p * p + p]]'
        )
        inlined = FunctionCompile(src).generated_source
        called = FunctionCompile(src, InlinePolicy=None).generated_source
        assert "_rt[" not in inlined.replace("_rt['tensor", "")
        assert "_rt['binary_times_Real64']" in called

    def test_aggressive_policy_inlines_small_functions(self):
        from repro.compiler import TypeEnvironment, default_environment, fn

        env = TypeEnvironment(parent=default_environment())
        env.declare_function(
            "Helper", fn(["Integer64"], "Integer64"),
            parse("Function[{x}, x + 5]"),
        )
        aggressive = FunctionCompile(
            'Function[{Typed[x, "MachineInteger"]}, Helper[x]]',
            type_environment=env, options=CompilerOptions(
                inline_policy="aggressive"
            ),
        )
        assert list(aggressive.program.functions) == ["Main"]
        assert aggressive(1) == 6
