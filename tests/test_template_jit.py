"""The template-JIT baseline compiler (`repro.template_jit`).

Covers its two layers:

* **the stitcher** — stencil correctness against the bytecode VM on real
  kernels, the stitched source's shape (slot numbering, checkpoint
  cadence), checked-integer semantics, and the deliberate coverage holes
  (:class:`TemplateCompilerError`);
* **the artifact** — boundary type gates, copy-on-read tensors,
  abort/guard contract parity (its breaker and soft-failure protocol are
  the shared ones: ``tests/test_governed_call.py``).

It is a standalone baseline compiler: the hotspot ladder promotes straight
to the full pipeline (``tests/test_hotspot_promotion.py``).
"""

from __future__ import annotations

import pytest

from repro.compiler import install_engine_support
from repro.engine import Evaluator
from repro.errors import (
    TemplateCompilerError,
    WolframAbort,
    WolframBudgetError,
    WolframRuntimeError,
)
from repro.mexpr import parse
from repro.runtime.guard import Tier, guard_scope
from repro.template_jit import SUPPORTED_HEADS, compile_template_function


@pytest.fixture()
def hosted():
    session = Evaluator(recursion_limit=8192)
    install_engine_support(session)
    return session


def _stitch(source_specs: str, source_body: str, evaluator=None,
            name: str = "tpl"):
    return compile_template_function(
        parse(source_specs), parse(source_body), evaluator=evaluator,
        name=name,
    )


# -- the stitcher ------------------------------------------------------------


class TestStitcher:
    def test_scalar_arithmetic_matches_vm(self):
        from repro.bytecode import compile_function

        specs, body = "{{n, _Integer}}", (
            "Module[{a = 0, i = 1},"
            " While[i <= n, a = a + i*i; i = i + 1]; a]"
        )
        template = _stitch(specs, body)
        bytecode = compile_function(parse(specs), parse(body))
        for n in (0, 1, 7, 100):
            assert template(n) == bytecode(n)

    def test_figure2_kernels_match_vm(self):
        from repro.benchsuite import data as workloads
        from repro.benchsuite import programs
        from repro.bytecode import compile_function

        cases = {
            "fnv1a": (list(b"Hello, template tier"),),
            "histogram": (workloads.histogram_data(500),),
            "mandelbrot": (complex(-0.5, 0.35),),
        }
        for name, arguments in cases.items():
            specs = parse(getattr(programs, f"BYTECODE_{name.upper()}_SPECS"))
            body = parse(getattr(programs, f"BYTECODE_{name.upper()}_BODY"))
            template = compile_template_function(specs, body)
            bytecode = compile_function(specs, body)
            assert template(*arguments) == bytecode(*arguments), name

    def test_stitched_source_shape(self):
        artifact = _stitch(
            "{{n, _Integer}}",
            "Module[{a = 0, i = 1}, While[i <= n, a = a + i; i = i + 1]; a]",
        )
        source = artifact.source
        # slot numbering is the only register allocation
        assert "_s0" in source and "_s1" in source
        # the abort/guard cadence: prologue plus every loop header
        assert source.count("if _armed[0]: _checkpoint()") >= 2
        lines = source.splitlines()
        assert lines[0].startswith("def _tpl(")
        assert artifact(10) == 55

    def test_checked_integer_overflow(self):
        artifact = _stitch("{{n, _Integer}}", "n * n", evaluator=None)
        with pytest.raises(WolframRuntimeError) as info:
            artifact(2 ** 62)
        assert info.value.kind == "IntegerOverflow"

    def test_real_arithmetic_not_overflow_checked(self):
        artifact = _stitch("{{x, _Real}}", "x * x + 0.5")
        assert artifact(3.0) == 9.5

    def test_divide_is_real_division(self):
        artifact = _stitch("{{n, _Integer}}", "n / 2")
        assert artifact(5) == 2.5

    def test_divide_by_zero_is_soft(self):
        # the explicit head (infix / parses into Times[.., Power[.., -1]])
        artifact = _stitch("{{n, _Integer}}", "Divide[1, n]")
        with pytest.raises(WolframRuntimeError) as info:
            artifact(0)
        assert info.value.kind == "DivideByZero"

    def test_part_is_one_based_and_range_checked(self):
        artifact = _stitch("{{data, _Integer, 1}, {i, _Integer}}",
                           "Part[data, i]")
        assert artifact([10, 20, 30], 1) == 10
        assert artifact([10, 20, 30], -1) == 30
        with pytest.raises(WolframRuntimeError) as info:
            artifact([10, 20, 30], 4)
        assert info.value.kind == "PartOutOfRange"

    def test_direct_recursion_stitches_self_call(self):
        artifact = _stitch(
            "{{n, _Integer}}",
            "If[n < 2, n, tpl[n - 1] + tpl[n - 2]]",
        )
        assert "_self(" in artifact.source
        assert artifact(20) == 6765

    def test_unsupported_head_raises(self):
        with pytest.raises(TemplateCompilerError):
            _stitch("{{n, _Integer}}", 'StringJoin["a", "b"]')

    def test_unbound_symbol_raises(self):
        with pytest.raises(TemplateCompilerError):
            _stitch("{{n, _Integer}}", "n + mystery")

    def test_supported_heads_is_a_frozen_surface(self):
        assert "Plus" in SUPPORTED_HEADS
        assert "While" in SUPPORTED_HEADS
        assert "StringJoin" not in SUPPORTED_HEADS

    def test_compile_seconds_recorded(self):
        artifact = _stitch("{{n, _Integer}}", "n + 1")
        assert artifact.compile_seconds > 0.0


# -- the artifact boundary ---------------------------------------------------


class TestArtifactBoundary:
    def test_argument_count_gate(self):
        artifact = _stitch("{{n, _Integer}}", "n + 1")
        with pytest.raises(WolframRuntimeError) as info:
            artifact(1, 2)
        assert info.value.kind == "ArgumentCount"

    def test_integer_gate_rejects_bool_and_float(self):
        artifact = _stitch("{{n, _Integer}}", "n + 1")
        for bad in (True, 1.5, "x"):
            with pytest.raises(WolframRuntimeError) as info:
                artifact(bad)
            assert info.value.kind == "TypeMismatch"

    def test_real_gate_accepts_int(self):
        artifact = _stitch("{{x, _Real}}", "x * 2.0")
        assert artifact(3) == 6.0

    def test_tensor_copy_on_read(self):
        artifact = _stitch(
            "{{data, _Integer, 1}}",
            "Module[{i = 1},"
            " While[i <= Length[data], data[[i]] = 0; i = i + 1];"
            " Total[data]]",
        )
        data = [1, 2, 3]
        assert artifact(data) == 0
        assert data == [1, 2, 3]  # F5: the caller's list is untouched

    def test_unhosted_runtime_error_propagates(self):
        artifact = _stitch("{{n, _Integer}}", "1 / n")
        # no evaluator: nothing to fall back to, the soft error surfaces
        with pytest.raises(WolframRuntimeError):
            artifact(0)


# -- abort and guard contract ------------------------------------------------


class TestAbortAndGuards:
    def test_abort_delivered_at_loop_header(self, hosted):
        # the stitched _checkpoint binds the host's abort flag at compile
        # time, so install the probe before stitching; the (unconstrained)
        # guard scope arms the checkpoint word so every header reads it
        calls = {"count": 0}

        class AbortSoon:
            @property
            def pending(self):
                calls["count"] += 1
                return calls["count"] > 50

        real_flag, hosted.abort_flag = hosted.abort_flag, AbortSoon()
        try:
            artifact = _stitch(
                "{{n, _Integer}}",
                "Module[{i = 0}, While[i < n, i = i + 1]; i]",
                evaluator=hosted,
            )
            with guard_scope(), pytest.raises(WolframAbort):
                artifact(10_000)
        finally:
            hosted.abort_flag = real_flag
        assert calls["count"] > 50  # delivered at a loop header, not late

    def test_step_budget_expires_inside_stitched_loop(self):
        artifact = _stitch(
            "{{n, _Integer}}",
            "Module[{i = 0}, While[i < n, i = i + 1]; i]",
        )
        with guard_scope(step_budget=50):
            with pytest.raises(WolframBudgetError):
                artifact(10_000)
        # outside the guard the same artifact runs to completion
        assert artifact(100) == 100

    def test_guard_expiry_does_not_trip_the_breaker(self):
        artifact = _stitch(
            "{{n, _Integer}}",
            "Module[{i = 0}, While[i < n, i = i + 1]; i]",
        )
        with guard_scope(step_budget=10):
            with pytest.raises(WolframBudgetError):
                artifact(10_000)
        assert artifact.breaker.tier is Tier.TEMPLATE
