"""Dataflow abstract interpretation and check elision (DESIGN.md §12).

Covers the tentpole end to end: the interval domain's transfer
functions, the worklist engine's facts on real compiled kernels
(trip bounds, shapes, refinements), the three fact-driven deletions
(int64 overflow guards, Part bounds predicates, abort-checkpoint
coalescing), the pipeline gating knobs, the verifier's
``analysis.fact`` consistency rules with the ``analysis.bad_fact``
corruption, the template-JIT unchecked-op mask, and the ``--stats``
"checks elided" one-liner.
"""

import io

import pytest

from repro.analyze.dataflow import (
    COALESCE_TRIP_LIMIT,
    INT64_MAX,
    INT64_MIN,
    FactMap,
    Interval,
    analyze_function,
    dead_assignments,
)
from repro.compiler.options import CompilerOptions
from repro.compiler.pipeline import CompilerPipeline
from repro.mexpr import parse


@pytest.fixture(autouse=True)
def _no_cache(monkeypatch):
    """Every test compiles fresh — never through the artifact cache."""
    monkeypatch.setenv("REPRO_ARTIFACT_CACHE", "off")


#: Figure-2-style loop kernels: a bounded accumulation (counter-increment
#: overflow guard + abort checkpoint elide) and a bounded array sweep
#: (Part bounds predicate elides too)
OVERFLOW_KERNEL = (
    'Function[{Typed[x, "MachineInteger"]},'
    ' Module[{a = 0}, Do[a = a + j, {j, 100}]; a]]'
)
BOUNDS_KERNEL = (
    'Function[{Typed[x, "MachineInteger"]},'
    ' Module[{v = {1, 2, 3, 4, 5}, a = 0},'
    ' Do[a = a + v[[j]], {j, 5}]; a]]'
)


def compile_kernel(source: str, **changes):
    options = CompilerOptions(
        dataflow=True, elide_checks=True, index_check_elision=True,
    ).with_(**changes)
    pipeline = CompilerPipeline(options=options)
    program = pipeline.compile_program(parse(source))
    return pipeline, program


def main_function(program):
    return program.functions[program.main]


class TestIntervalDomain:
    def test_constants_and_membership(self):
        three = Interval.const(3)
        assert three.is_constant and three.contains(3)
        assert not three.contains(4)
        assert Interval.top().is_top
        assert Interval(5, 2).is_empty

    def test_add_subtract(self):
        a, b = Interval(1, 4), Interval(10, 20)
        assert (a.add(b).lo, a.add(b).hi) == (11, 24)
        assert (b.subtract(a).lo, b.subtract(a).hi) == (6, 19)
        unbounded = Interval(0, None).add(a)
        assert unbounded.lo == 1 and unbounded.hi is None

    def test_multiply_tracks_sign_corners(self):
        a, b = Interval(-3, 2), Interval(-5, 7)
        product = a.multiply(b)
        corners = [x * y for x in (-3, 2) for y in (-5, 7)]
        assert product.lo == min(corners) and product.hi == max(corners)

    def test_fits_and_clamp(self):
        assert Interval(INT64_MIN, INT64_MAX).fits_int64()
        assert not Interval(0, INT64_MAX + 1).fits_int64()
        assert not Interval(0, None).fits_int64()
        clamped = Interval(None, INT64_MAX + 9).clamp_int64()
        assert clamped.lo == INT64_MIN and clamped.hi == INT64_MAX

    def test_widen_jumps_to_unbounded(self):
        grown = Interval(0, 5).widen(Interval(0, 6))
        assert grown.lo == 0 and grown.hi is None
        stable = Interval(0, 5).widen(Interval(1, 5))
        assert (stable.lo, stable.hi) == (0, 5)  # no growth, no widening

    def test_union_intersect(self):
        union = Interval(0, 3).union(Interval(10, 12))
        assert (union.lo, union.hi) == (0, 12)
        meet = Interval(0, 10).intersect(Interval(5, 99))
        assert (meet.lo, meet.hi) == (5, 10)


class TestEngineFacts:
    def test_bounded_loop_facts(self):
        _, program = compile_kernel(OVERFLOW_KERNEL, elide_checks=False)
        facts = analyze_function(main_function(program))
        bounds = [
            loop.trip_bound for loop in facts.loops.values()
            if loop.trip_bound is not None
        ]
        assert 100 in bounds
        counts = facts.fact_counts()
        assert counts["intervals"] > 0
        assert counts["bounded_loops"] >= 1

    def test_shape_facts_for_literal_tensor(self):
        _, program = compile_kernel(BOUNDS_KERNEL, elide_checks=False)
        facts = analyze_function(main_function(program))
        lengths = [shape.length() for shape in facts.shapes.values()]
        assert 5 in lengths

    def test_fact_map_attached_to_metadata(self):
        _, program = compile_kernel(OVERFLOW_KERNEL)
        fact_map = program.metadata["dataflow"]
        assert isinstance(fact_map, FactMap)
        summary = fact_map.summary()
        assert summary  # one entry per function
        assert all("intervals" in counts for counts in summary.values())

    def test_o0_skips_dataflow_entirely(self):
        pipeline, program = compile_kernel(
            OVERFLOW_KERNEL, optimization_level=0,
        )
        assert "dataflow" not in program.metadata
        assert "dataflow" not in pipeline.pass_report()

    def test_dataflow_off_knob(self):
        pipeline, program = compile_kernel(OVERFLOW_KERNEL, dataflow=False)
        assert "dataflow" not in program.metadata
        info = main_function(program).information
        assert "OverflowChecksElided" not in info


class TestCheckElision:
    def test_overflow_guard_elided_in_bounded_loop(self):
        _, program = compile_kernel(OVERFLOW_KERNEL)
        info = main_function(program).information
        assert info["OverflowChecksElided"] >= 1

    def test_part_bounds_elided_with_proven_range(self):
        _, program = compile_kernel(BOUNDS_KERNEL)
        info = main_function(program).information
        assert info["IndexChecksElided"] >= 1

    def test_checkpoint_coalesced_in_bounded_loop(self):
        _, program = compile_kernel(OVERFLOW_KERNEL)
        info = main_function(program).information
        assert info["CheckpointsCoalesced"] == 1
        (bound,) = info["CoalescedHeaders"].values()
        assert bound == 100
        assert bound <= COALESCE_TRIP_LIMIT

    @pytest.mark.parametrize("source, kept", [
        # BitAnd bounds the hash, BitXor of two bounded values stays
        # below the next power of two: the multiply cannot overflow
        ('Function[{Typed[n, "MachineInteger"]},'
         ' Module[{h = 2166136261, i = 0},'
         '  While[i < n, h = BitAnd[BitXor[h, 255] * 16777619, 4294967295];'
         '   i = i + 1]; h]]', 0),
        # a byte of a string the runtime encoded is in [0, 255]
        ('Function[{Typed[s, "String"]},'
         ' Module[{b = Native`UTF8Bytes[s], h = 7, i = 1},'
         '  While[i <= Length[b],'
         '   h = BitAnd[BitXor[h, b[[i]]] * 31, 65535]; i = i + 1]; h]]', 0),
        # i < n <= INT64_MAX: an argument is an Integer64, not anything
        ('Function[{Typed[n, "MachineInteger"]},'
         ' Module[{i = 0}, While[i < n, i = i + 1]; i]]', 0),
        # a negative operand on both sides of BitAnd bounds nothing
        ('Function[{Typed[n, "MachineInteger"], Typed[m, "MachineInteger"]},'
         ' BitAnd[n, m] * 3]', 1),
        # past a checked n + 1, n <= INT64_MAX - 1: i <= n makes i + 1 fit
        ('Function[{Typed[n, "MachineInteger"]},'
         ' Module[{t = Native`CreateTensor[n + 1, 0], i = 1},'
         '  While[i <= n, i = i + 1]; Length[t] + i]]', 2),
    ])
    def test_which_overflow_checks_survive(self, source, kept):
        _, program = compile_kernel(source)
        checked = [
            i for i in main_function(program).instructions()
            if getattr(getattr(i, "primitive", None), "runtime_name", ""
                       ).startswith("checked_binary")
        ]
        assert len(checked) == kept, [str(i) for i in checked]

    def test_elide_off_keeps_every_check(self):
        _, program = compile_kernel(OVERFLOW_KERNEL, elide_checks=False)
        info = main_function(program).information
        assert "OverflowChecksElided" not in info
        assert "CoalescedHeaders" not in info

    def test_elided_sites_carry_justification(self):
        from repro.compiler.wir.instructions import CallPrimitiveInstr

        _, program = compile_kernel(BOUNDS_KERNEL)
        justifications = set()
        for block in main_function(program).blocks.values():
            for instruction in block.instructions:
                if isinstance(instruction, CallPrimitiveInstr):
                    mark = instruction.properties.get("elided_check")
                    if mark:
                        justifications.add(mark)
        assert "int64-overflow" in justifications
        assert {"part-bounds", "part-positive"} & justifications

    def test_results_identical_with_and_without_elision(self):
        from repro.compiler import FunctionCompile

        for kernel, expected in (
            (OVERFLOW_KERNEL, 5050), (BOUNDS_KERNEL, 15),
        ):
            for elide in (True, False):
                options = CompilerOptions(
                    dataflow=True, elide_checks=elide,
                    index_check_elision=elide,
                )
                assert FunctionCompile(kernel, options=options)(0) == expected

    def test_pass_report_counts_elisions(self):
        pipeline, _ = compile_kernel(BOUNDS_KERNEL)
        report = pipeline.pass_report()
        assert report["dataflow"]["facts"] > 0
        assert report["check-elision"]["elided"] >= 2
        assert report["checkpoint-coalescing"]["elided"] == 1

    def test_observe_counters_emitted(self):
        from repro.observe import with_tracing

        with with_tracing() as tracer:
            compile_kernel(BOUNDS_KERNEL)
        counters = tracer.metrics.as_dict()["counters"]
        assert counters["analysis.checks_elided.int64"] >= 1
        assert counters["analysis.checks_elided.bounds"] >= 1
        assert counters["analysis.checks_elided.checkpoints"] == 1


class TestFactConsistency:
    """The verifier's ``analysis.fact`` rules: every elided check must be
    independently re-provable; a planted fake fact is caught by name."""

    def test_real_elided_function_verifies_cleanly(self):
        from repro.analyze import verify_function

        _, program = compile_kernel(BOUNDS_KERNEL)
        assert verify_function(main_function(program)) == []

    def test_unchecked_without_justification_flagged(self):
        from repro.analyze import verify_function
        from repro.compiler.wir.instructions import CallPrimitiveInstr

        _, program = compile_kernel(BOUNDS_KERNEL)
        function = main_function(program)
        for block in function.blocks.values():
            for instruction in block.instructions:
                if isinstance(instruction, CallPrimitiveInstr) and (
                    instruction.properties.get("elided_check")
                ):
                    del instruction.properties["elided_check"]
        found = verify_function(function)
        assert any(d.invariant == "analysis.fact" for d in found)

    def test_phantom_coalesced_header_flagged(self):
        from repro.analyze import verify_function

        _, program = compile_kernel(OVERFLOW_KERNEL)
        function = main_function(program)
        headers = dict(function.information["CoalescedHeaders"])
        headers["no_such_block(9)"] = 4
        function.information["CoalescedHeaders"] = headers
        found = verify_function(function)
        assert any(d.invariant == "analysis.fact" for d in found)

    def test_bad_fact_corruption_caught_and_attributed(self):
        """``analysis.bad_fact`` swaps a checked op the facts do *not*
        justify and plants a fake justification; verify-each must blame
        the corrupting pass by name."""
        from repro.errors import VerificationError
        from repro.testing import corrupt_ir_pass

        source = (
            'Function[{Typed[x, "MachineInteger"]},'
            ' Module[{a = 0, i = 1},'
            ' While[i <= x, a = a + i; i = i + 1]; a]]'
        )
        pipeline = CompilerPipeline(
            options=CompilerOptions(verify_ir="each"),
            user_passes=[corrupt_ir_pass("analysis.bad_fact", stage="twir")],
        )
        with pytest.raises(VerificationError) as failure:
            pipeline.compile_program(parse(source))
        assert failure.value.pass_name == (
            "user:corrupt-ir[analysis.bad_fact]"
        )
        assert any(
            d.invariant == "analysis.fact"
            for d in failure.value.diagnostics
        ), failure.value.diagnostics

    def test_verify_each_passes_on_honest_pipeline(self):
        compile_kernel(BOUNDS_KERNEL, verify_ir="each")


class TestTemplateMask:
    BODY = "Module[{a = 0}, Do[a = a + i*i, {i, 100}]; a]"

    def test_mask_marks_bounded_multiply(self):
        from repro.template_jit.analysis import unchecked_mask

        mask = unchecked_mask(parse(self.BODY))
        assert mask.total >= 2  # the multiply and the accumulator add
        assert len(mask) >= 1  # i*i with i in [1,100] is provably safe
        assert mask.bits != 0
        assert len(mask) < mask.total  # the accumulator stays checked

    def test_reassigned_local_stays_unknown(self):
        from repro.template_jit.analysis import unchecked_mask

        body = "Module[{a = 1}, a = a * a; a + a]"
        assert len(unchecked_mask(parse(body))) == 0

    #: every accepted spelling of ``REPRO_ELIDE_CHECKS`` (None = unset)
    KNOB_SPELLINGS = [
        *((raw, False) for raw in ("0", "off", "false", "no", " OFF ")),
        *((raw, True) for raw in ("1", "on", "true", "yes", None)),
    ]

    def test_knob_gates_the_stitcher(self, monkeypatch):
        from repro.compiler.options import CompilerOptions
        from repro.template_jit import compile_template_function

        specs = parse("{{x, _Integer}}")
        body = parse(self.BODY)
        stitched = {}
        for raw, enabled in self.KNOB_SPELLINGS:
            if raw is None:
                monkeypatch.delenv("REPRO_ELIDE_CHECKS", raising=False)
            else:
                monkeypatch.setenv("REPRO_ELIDE_CHECKS", raw)
            # one table, both tiers: the pipeline's default and the
            # template stitcher read the knob through the same function
            assert CompilerOptions().elide_checks is enabled, raw
            stitched[enabled] = compile_template_function(specs, body)
            assert (stitched[enabled].unchecked_ops >= 1) is enabled, raw
        elided, checked = stitched[True], stitched[False]
        assert checked.unchecked_bitmask == 0
        assert elided.source.count("_ci(") < checked.source.count("_ci(")
        # both stitches compute the same sum of squares
        assert elided(0) == checked(0) == sum(i * i for i in range(1, 101))


class TestLivenessHelper:
    def test_dead_store_found(self):
        statements = [
            ("a", set()),          # a = <literal>     — dead, rewritten below
            ("a", set()),          # a = <literal>
            ("b", {"a"}),          # b = a
            (None, {"b"}),         # use b
        ]
        dead, live_in = dead_assignments(statements)
        assert dead == [0]
        assert "b" not in live_in

    def test_final_store_dead_when_never_read(self):
        statements = [("a", set()), (None, {"a"}), ("a", {"a"})]
        dead, _ = dead_assignments(statements)
        assert dead == [2]

    def test_live_after_keeps_trailing_store(self):
        statements = [("a", set())]
        dead, _ = dead_assignments(statements, live_after={"a"})
        assert dead == []


class TestStatsOneLiner:
    def test_cli_reports_elision_totals(self):
        from repro.__main__ import main

        out = io.StringIO()
        status = main(
            [
                "--stats",
                "-e",
                "f = FunctionCompile[Function[{Typed[x, "
                '"MachineInteger"]}, Module[{a = 0},'
                " Do[a = a + j, {j, 50}]; a]]]",
                "-e", "f[0]",
            ],
            output=out,
        )
        assert status == 0
        text = out.getvalue()
        assert "Out[2]= 1275" in text
        assert "checks elided:" in text
        assert "int64" in text and "checkpoints" in text


_MATRIX = 'TypeSpecifier["Tensor"["Integer64", 2]]'
#: a column past the last: ``(1 - 1) * 3 + 5 - 1`` is inside the flat data
COLUMN_PAST_THE_END = f"Function[{{Typed[m, {_MATRIX}]}}, m[[1, 5]]]"
COLUMN_LOOP = (
    f"Function[{{Typed[m, {_MATRIX}]}},"
    " Module[{s = 0, j = 1}, While[j <= 5, s = s + m[[1, j]]; j = j + 1]; s]]"
)
SQUARE = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]


class TestRank2Columns:
    """A rank-2 ``Part`` is proven per axis.  A too-large row lands past
    the end of the flat data and traps, so ``>= 1`` lets it go unchecked;
    a too-large column lands in the next row, so it keeps its check unless
    proven ``<=`` the column count (a ``tensor_row_length`` of the tensor,
    the ``c`` of the ``matrix_create(r, c, _)`` that made it, a known
    shape)."""

    @pytest.mark.parametrize("verify_ir", ["off", "each"])
    @pytest.mark.parametrize("source", [COLUMN_PAST_THE_END, COLUMN_LOOP],
                             ids=["constant", "loop"])
    def test_a_column_past_the_end_is_part_out_of_range(self, source,
                                                        verify_ir):
        from repro.compiler import FunctionCompile
        from repro.errors import WolframRuntimeError

        function = FunctionCompile(
            source, options=CompilerOptions(verify_ir=verify_ir))
        with pytest.raises(WolframRuntimeError) as info:
            function(SQUARE)
        assert info.value.kind == "PartOutOfRange"

    @pytest.mark.parametrize("verify_ir", ["off", "each"])
    @pytest.mark.parametrize("source", [COLUMN_PAST_THE_END, COLUMN_LOOP],
                             ids=["constant", "loop"])
    def test_hosted_it_is_rerun_by_the_interpreter(self, source, verify_ir):
        from repro.compiler import FunctionCompile, install_engine_support
        from repro.engine import Evaluator
        from repro.errors import WolframEvaluationError

        evaluator = Evaluator()
        install_engine_support(evaluator)
        function = FunctionCompile(
            source, evaluator=evaluator,
            options=CompilerOptions(verify_ir=verify_ir))
        with pytest.raises(WolframEvaluationError, match="Part"):
            function(SQUARE)
        assert function.stats().kinds == {"PartOutOfRange": 1}
        assert function.fallback_count == 1
        assert "PartOutOfRange" in evaluator.messages[-1]

    def test_a_column_bounded_by_the_row_length_is_unchecked(self):
        source = (
            f"Function[{{Typed[m, {_MATRIX}]}},"
            " Module[{s = 0, j = 1, w = Length[m[[1]]]},"
            "  While[j <= w, s = s + m[[1, j]]; j = j + 1]; s]]"
        )
        _, program = compile_kernel(source)
        accesses = {
            i.primitive.runtime_name: i.properties.get("elided_check")
            for i in main_function(program).instructions()
            if getattr(i, "primitive", None) is not None
            and i.primitive.runtime_name in ("tensor_part2", "tensor_at")
        }
        # row 1 of a matrix of unknown length: only positive
        assert accesses == {"tensor_at": "part-positive"}

    @pytest.mark.parametrize("kernel", ["NEW_BLUR", "NEW_RANDOM_WALK"])
    def test_blur_and_randomwalk_keep_every_access_unchecked(self, kernel):
        from repro.benchsuite import programs
        _, program = compile_kernel(getattr(programs, kernel))
        primitives = [
            i.primitive
            for function in program.functions.values()
            for i in function.instructions()
            if getattr(i, "primitive", None) is not None
        ]
        assert not [p for p in primitives if p.index_axes and p.unchecked]
        assert {"tensor_at", "tensor_at_set"} & {
            p.runtime_name for p in primitives}
