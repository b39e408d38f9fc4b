"""Fault injection: prove every fallback path unwinds without corruption.

Acceptance: injected overflow/timeout/abort at every tier triggers the
documented fallback or unwind, the circuit breaker demotes after N=3 soft
failures (verified via the FailureRecord log), and no injected fault leaves
the engine session corrupted.

Marked ``faults`` so CI can run it as a dedicated smoke job
(``pytest -m faults``).
"""

import pytest

from repro.compiler import FunctionCompile, install_engine_support
from repro.compiler.api import (
    clear_failure_records,
    failure_records,
    failure_transitions,
)
from repro.engine import Evaluator
from repro.errors import (
    WolframAbort,
    WolframRuntimeError,
    WolframTimeoutError,
)
from repro.mexpr import full_form, parse
from repro.runtime.guard import Tier, active_guard
from repro.testing import Fault, inject_faults

pytestmark = pytest.mark.faults


@pytest.fixture()
def hosted():
    evaluator = Evaluator()
    install_engine_support(evaluator)
    return evaluator


@pytest.fixture(autouse=True)
def _clean_failure_log():
    clear_failure_records()
    yield
    clear_failure_records()


LOOP_BODY = (
    "Module[{a = 0, b = 1, i = 1},"
    " While[i <= n, Module[{t = a + b}, a = b; b = t]; i = i + 1]; a]"
)
COMPILED_LOOP = f'Function[{{Typed[n, "MachineInteger"]}}, {LOOP_BODY}]'


def _session_snapshot(evaluator, name):
    definition = evaluator.state.lookup(name)
    assert definition is not None
    return [(full_form(d.lhs), full_form(d.rhs)) for d in definition.down_values]


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestVMInstructionFaults:
    def test_injected_overflow_mid_loop_falls_back(self, hosted):
        hosted.run("cf = Compile[{{n, _Integer}}, " + LOOP_BODY + "]")
        with inject_faults(Fault("vm.instruction", "overflow", after=40)):
            result = hosted.run("cf[30]")
        # the VM died mid-loop; the interpreter fallback still answers
        assert result.to_python() == fib(30)
        assert any("reverting to uncompiled" in m for m in hosted.messages)

    def test_abort_mid_loop_returns_aborted_and_keeps_state(self, hosted):
        """Satellite: abort delivered at a VM instruction boundary (F3)."""
        hosted.run("g[x_] := x + 1")
        hosted.run("cf = Compile[{{n, _Integer}}, " + LOOP_BODY + "]")
        before = _session_snapshot(hosted, "g")
        with inject_faults(Fault("vm.instruction", "abort", after=40)):
            result = hosted.evaluate_protected(parse("cf[30]"))
        assert full_form(result) == "$Aborted"
        assert _session_snapshot(hosted, "g") == before
        assert not hosted.abort_pending()
        # a subsequent identical call succeeds: nothing was corrupted
        assert hosted.run("cf[30]").to_python() == fib(30)
        assert hosted.run("g[41]").to_python() == 42

    def test_programming_error_does_not_ride_soft_failure(self, evaluator):
        from repro.bytecode import compile_function

        f = compile_function(
            parse("{{n, _Integer}}"), parse("n + 1"), evaluator
        )
        with inject_faults(Fault("vm.instruction", "backend-raise")):
            with pytest.raises(AttributeError):
                f(1)
        assert f.fallback_count == 0
        assert f(1) == 2  # artifact still usable afterwards


class TestCompiledCodeFaults:
    def test_abort_mid_iteration_returns_aborted_and_keeps_state(self, hosted):
        """Satellite: abort at a codegen'd loop-header check (F3)."""
        hosted.run("g[x_] := x + 1")
        compiled = FunctionCompile(COMPILED_LOOP, evaluator=hosted)
        compiled.install(hosted, "cfib")
        before = _session_snapshot(hosted, "g")
        # after=2 skips the prologue check; the fault lands mid-loop
        with inject_faults(Fault("abort.check", "abort", after=2)):
            result = hosted.evaluate_protected(parse("cfib[30]"))
        assert full_form(result) == "$Aborted"
        assert _session_snapshot(hosted, "g") == before
        assert not hosted.abort_pending()
        assert hosted.run("cfib[30]").to_python() == fib(30)
        assert hosted.run("g[41]").to_python() == 42

    def test_injected_runtime_error_falls_back(self, hosted):
        compiled = FunctionCompile(COMPILED_LOOP, evaluator=hosted)
        with inject_faults(Fault("abort.check", "runtime")):
            assert compiled(30) == fib(30)
        assert compiled.fallback_count == 1
        assert failure_records(kind="Injected")

    def test_injected_timeout_unwinds_without_retry(self, hosted):
        """A deadline expiry must not be retried on a slower tier."""
        compiled = FunctionCompile(COMPILED_LOOP, evaluator=hosted)
        with inject_faults(Fault("abort.check", "timeout")):
            with pytest.raises(WolframTimeoutError):
                compiled(30)
        assert compiled.fallback_count == 0
        assert compiled.current_tier is Tier.COMPILED
        assert active_guard() is None
        assert failure_records(kind="Timeout")
        assert compiled(30) == fib(30)

    def test_injected_abort_leaves_no_guard_behind(self, hosted):
        compiled = FunctionCompile(COMPILED_LOOP, evaluator=hosted)
        with inject_faults(Fault("abort.check", "abort", after=2)):
            with pytest.raises(WolframAbort):
                compiled(30)
        assert active_guard() is None
        assert compiled(30) == fib(30)


class TestRuntimeLibraryFaults:
    def test_injected_fault_at_named_primitive(self, hosted):
        # InlinePolicy -> "none" routes every primitive through the RUNTIME
        # table, where the injector wraps the named entry
        compiled = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]}, n + 1]',
            evaluator=hosted,
            InlinePolicy="none",
        )
        site = "runtime.checked_binary_plus_Integer64_Integer64"
        with inject_faults(Fault(site, "overflow")):
            assert compiled(41) == 42  # interpreter fallback
        assert compiled.fallback_count == 1
        with inject_faults(Fault(site, "overflow")) as injector:
            assert compiled(1) == 2
            assert compiled.fallback_count == 2
        # wrappers are restored on exit
        from repro.compiler.runtime_library import RUNTIME

        assert RUNTIME["checked_binary_plus_Integer64_Integer64"](1, 2) == 3
        assert compiled(1) == 2
        assert compiled.fallback_count == 2

    def test_function_compiled_while_armed_is_normal_afterwards(self, hosted):
        # optimised code binds the library entries it calls when its def
        # runs, so compiled while armed it holds the injector's wrapper
        source = (
            'Function[{Typed[v, TypeSpecifier["Tensor"["Real64", 1]]]},'
            ' Total[v + v]]'
        )
        fault = Fault("runtime.tensor_plus", "runtime", times=100)
        with inject_faults(fault):
            compiled = FunctionCompile(source, evaluator=hosted)
            assert "_rt_tensor_plus=" in compiled.generated_source
            assert compiled([1.0, 2.0]) == 6.0  # interpreter fallback
            assert compiled.fallback_count == 1
        assert fault.hits == 1
        assert compiled([1.0, 2.0]) == 6.0
        with inject_faults(Fault("runtime.tensor_plus", "runtime")):
            assert compiled([1.0, 2.0]) == 6.0  # not this injector's wrapper
        assert compiled.fallback_count == 1
        assert fault.hits == 1

    def test_unknown_primitive_site_is_an_error(self):
        with pytest.raises(KeyError):
            with inject_faults(Fault("runtime.no_such_primitive", "overflow")):
                pass


class TestCircuitBreakerUnderInjection:
    def test_three_injected_failures_trip_the_compiled_tier(self, hosted):
        compiled = FunctionCompile(COMPILED_LOOP, evaluator=hosted)
        # the prologue abort check fires on every compiled-tier call
        with inject_faults(Fault("abort.check", "runtime", times=3)):
            for _ in range(3):
                assert compiled(20) == fib(20)  # fallback answers each time
        assert compiled.current_tier is Tier.INTERPRETER
        transitions = failure_transitions(compiled.program.main)
        assert [t.transition for t in transitions] == [
            (Tier.COMPILED, Tier.INTERPRETER)
        ]
        # tripped: still correct, no further failures recorded
        records_before = len(failure_records())
        assert compiled(20) == fib(20)
        assert len(failure_records()) == records_before
        # three reruns plus the interpreter-direct call
        assert compiled.stats().calls == {"compiled": 3, "interpreter": 4}

    def test_breaker_not_tripped_by_boxing_failures(self, hosted):
        compiled = FunctionCompile(COMPILED_LOOP, evaluator=hosted)
        for _ in range(5):
            compiled(1.5)  # TypeMismatch at the boxing boundary
        assert compiled.current_tier is Tier.COMPILED
        assert failure_records(kind="TypeMismatch")

    def test_session_survives_every_injected_fault_kind(self, hosted):
        hosted.run("g[x_] := x + 1")
        before = _session_snapshot(hosted, "g")
        compiled = FunctionCompile(COMPILED_LOOP, evaluator=hosted)
        for kind, expected in [
            ("overflow", None),
            ("runtime", None),
            ("abort", WolframAbort),
            ("timeout", WolframTimeoutError),
            ("budget", WolframRuntimeError),
        ]:
            with inject_faults(Fault("abort.check", kind, after=2)):
                if expected is None:
                    assert compiled(20) == fib(20)
                else:
                    with pytest.raises(expected):
                        compiled(20)
            assert active_guard() is None
            assert not hosted.abort_pending()
        assert _session_snapshot(hosted, "g") == before
        assert hosted.run("g[1]").to_python() == 2


class TestInjectorMechanics:
    def test_faults_fire_deterministically(self, hosted):
        hosted.run("cf = Compile[{{n, _Integer}}, " + LOOP_BODY + "]")
        hits = []
        for _ in range(2):
            with inject_faults(
                Fault("vm.instruction", "runtime", after=25)
            ) as injector:
                hosted.run("cf[30]")
                hits.append(injector.faults[0].hits)
        assert hits[0] == hits[1] == 26

    def test_injection_is_not_reentrant(self):
        with inject_faults(Fault("vm.instruction", "runtime")):
            with pytest.raises(RuntimeError):
                with inject_faults(Fault("vm.instruction", "runtime")):
                    pass


class TestPromotedFunctionFaults:
    """Tier-up meets guarded execution: a profile-promoted artifact that
    soft-fails trips the same circuit breaker as an explicit
    ``FunctionCompile``, attributed to the *symbol* in the failure log."""

    @pytest.fixture()
    def promoted(self, hosted):
        hosted.hotspot.threshold = 4
        hosted.run("dbl[n_] := n + n")
        for _ in range(6):
            assert hosted.run("dbl[3]").to_python() == 6
        assert "dbl" in hosted.hotspot.promoted
        assert hosted.hotspot.promoted["dbl"].tier_kind == "compiled"
        return hosted

    def test_tripping_the_breaker_withdraws_the_promotion(self, promoted):
        with inject_faults(Fault("abort.check", "runtime", times=3)):
            for _ in range(3):
                # each call soft-fails in the compiled prologue and the
                # artifact's internal fallback still answers
                assert promoted.run("dbl[10]").to_python() == 20
        entry = promoted.hotspot.promoted["dbl"]
        assert entry.artifact_tier() is Tier.INTERPRETER
        # the failure log names the promoted symbol, not a synthetic id
        assert [t.transition for t in failure_transitions("dbl")] == [
            (Tier.COMPILED, Tier.INTERPRETER)
        ]
        # the next dispatch withdraws the promotion entirely
        assert promoted.run("dbl[4]").to_python() == 8
        assert "dbl" not in promoted.hotspot.promoted
        assert any(
            e.name == "dbl" and e.action == "demoted"
            for e in promoted.hotspot.events
        )
        # the known-bad definition stays blocked while it stays hot ...
        for _ in range(10):
            assert promoted.run("dbl[4]").to_python() == 8
        assert "dbl" not in promoted.hotspot.promoted
        # ... and redefinition lifts the block
        promoted.run("dbl[n_] := n * 2")
        for _ in range(6):
            assert promoted.run("dbl[5]").to_python() == 10
        assert "dbl" in promoted.hotspot.promoted

    def test_three_injected_failures_end_with_withdrawal(self, promoted):
        with inject_faults(Fault("compiled.call", "runtime", times=3)):
            for _ in range(3):
                # each call soft-fails at the compiled entry; the
                # interpreter fallback still answers
                assert promoted.run("dbl[10]").to_python() == 20
        entry = promoted.hotspot.promoted["dbl"]
        assert entry.artifact_tier() is Tier.INTERPRETER
        assert [t.transition for t in failure_transitions("dbl")] == [
            (Tier.COMPILED, Tier.INTERPRETER)
        ]
        # tripped: the next dispatch withdraws, and the known-bad
        # definition stays blocked while it stays hot
        for _ in range(6):
            assert promoted.run("dbl[4]").to_python() == 8
        assert "dbl" not in promoted.hotspot.promoted
        # redefinition lifts the block and re-promotes
        promoted.run("dbl[n_] := n * 2")
        for _ in range(4):
            assert promoted.run("dbl[5]").to_python() == 10
        assert "dbl" in promoted.hotspot.promoted

    def test_injected_fault_leaves_no_corrupted_state(self, promoted):
        before = _session_snapshot(promoted, "dbl")
        with inject_faults(Fault("abort.check", "overflow", after=1)):
            assert promoted.run("dbl[6]").to_python() == 12
        assert active_guard() is None
        assert not promoted.abort_pending()
        assert _session_snapshot(promoted, "dbl") == before
        assert promoted.run("dbl[2]").to_python() == 4


class TestTemplateTierFaults:
    """The baseline compiler's breaker, driven by the ``template.call``
    site on a stitched artifact hosted by a session."""

    @pytest.fixture()
    def stitched(self, hosted):
        from repro.template_jit import compile_template_function

        return compile_template_function(
            parse("{{n, _Integer}}"), parse("n + n"), evaluator=hosted,
            name="tpl",
        )

    def test_three_injected_failures_trip_to_the_interpreter(self, stitched):
        with inject_faults(Fault("template.call", "runtime", times=3)):
            for _ in range(3):
                # each call soft-fails at the stitched entry; the
                # interpreter fallback still answers
                assert stitched(10) == 20
        assert stitched.breaker.tier is Tier.INTERPRETER
        assert [t.transition for t in failure_transitions("tpl")] == [
            (Tier.TEMPLATE, Tier.INTERPRETER)
        ]
        assert stitched(4) == 8

    def test_injected_abort_unwinds_cleanly(self, hosted, stitched):
        with inject_faults(Fault("template.call", "abort")):
            with pytest.raises(WolframAbort):
                stitched(10)
        assert not hosted.abort_pending()
        assert active_guard() is None
        # no breaker damage: aborts are not soft failures
        assert stitched.breaker.tier is Tier.TEMPLATE
        assert stitched(6) == 12

    def test_injected_timeout_is_recorded_but_never_retried(self, stitched):
        with inject_faults(Fault("template.call", "timeout")):
            with pytest.raises(WolframTimeoutError):
                stitched(10)
        # a guard expiry does not trip the breaker
        assert stitched.breaker.tier is Tier.TEMPLATE
        assert stitched(10) == 20


class TestCorruptIrFaults:
    """The ``corrupt-ir`` fault class: a deliberately broken pass must be
    caught by the verify-each sanitizer and attributed *by name*."""

    SOURCE = (
        'Function[{Typed[x, "MachineInteger"]},'
        ' Module[{a = 0, i = 1}, While[i <= x, a = a + i; i = i + 1]; a]]'
    )

    def corrupted_pipeline(self, corruption, stage="wir"):
        from repro.compiler.options import CompilerOptions
        from repro.compiler.pipeline import CompilerPipeline
        from repro.testing import corrupt_ir_pass

        return CompilerPipeline(
            options=CompilerOptions(verify_ir="each"),
            user_passes=[corrupt_ir_pass(corruption, stage=stage)],
        )

    @pytest.mark.parametrize("corruption, stage, invariant", [
        ("drop-terminator", "wir", "cfg.terminated"),
        ("bad-target", "wir", "cfg.target"),
        ("duplicate-def", "wir", "ssa.unique-def"),
        ("dangling-operand", "wir", "ssa.dominance"),
        ("phi-edge", "wir", "phi.edges"),
        ("type-mismatch", "twir", "type.branch"),
    ])
    def test_corruption_caught_and_attributed(self, corruption, stage,
                                              invariant):
        from repro.errors import VerificationError

        pipeline = self.corrupted_pipeline(corruption, stage=stage)
        with pytest.raises(VerificationError) as failure:
            pipeline.compile_program(parse(self.SOURCE))
        assert failure.value.pass_name == f"user:corrupt-ir[{corruption}]"
        assert any(
            d.invariant == invariant for d in failure.value.diagnostics
        ), failure.value.diagnostics

    def test_corruption_unnoticed_without_sanitizer(self):
        # the same corruption with verify_ir='off' sails past the pass
        # boundary — the whole reason the sanitizer exists.  (It may still
        # blow up later in codegen, but not as a VerificationError.)
        from repro.compiler.options import CompilerOptions
        from repro.compiler.pipeline import CompilerPipeline
        from repro.errors import VerificationError
        from repro.testing import corrupt_ir_pass

        pipeline = CompilerPipeline(
            options=CompilerOptions(verify_ir="off"),
            user_passes=[corrupt_ir_pass("duplicate-def")],
        )
        try:
            pipeline.compile_program(parse(self.SOURCE))
        except VerificationError:  # pragma: no cover - would be a bug
            pytest.fail("verifier ran despite verify_ir='off'")
        except Exception:
            pass  # downstream breakage is allowed, attribution is lost

    def test_unknown_corruption_rejected(self):
        from repro.testing import corrupt_ir_pass

        with pytest.raises(ValueError):
            corrupt_ir_pass("no-such-corruption")
