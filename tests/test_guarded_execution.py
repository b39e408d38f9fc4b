"""Guarded execution: budgets, deadlines, constraint builtins, stats API.

The fault-injection counterpart lives in ``test_fault_injection.py``; this
file covers the guard subsystem itself and the guard/tier APIs.
"""

import cmath
import math
import time

import pytest

from repro.compiler import (
    FunctionCompile,
    FunctionCompileExportLibrary,
    LibraryFunctionLoad,
    install_engine_support,
)
from repro.compiler.api import clear_failure_records, failure_transitions
from repro.engine import Evaluator
from repro.errors import (
    WolframBudgetError,
    WolframRuntimeError,
    WolframTimeoutError,
    classify_runtime_error,
)
from repro.runtime.guard import (
    FAILURE_LOG,
    CircuitBreaker,
    ExecutionGuard,
    FallbackStats,
    Tier,
    active_guard,
    checkpoint,
    guard_scope,
)


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


COUNTING_LOOP = (
    'Function[{Typed[n, "MachineInteger"]},'
    ' Module[{i = 0, s = 0},'
    '  While[i < n, s = s + 1; i = i + 1]; s]]'
)


class TestExecutionGuard:
    def test_no_guard_checkpoint_is_noop(self):
        assert active_guard() is None
        checkpoint()  # must not raise

    def test_deadline_raises_timeout(self):
        with guard_scope(time_limit=0.02) as guard:
            time.sleep(0.03)
            with pytest.raises(WolframTimeoutError) as info:
                checkpoint()
            assert info.value.guard is guard

    def test_step_budget_raises_budget_error(self):
        with guard_scope(step_budget=5):
            with pytest.raises(WolframBudgetError) as info:
                for _ in range(10):
                    checkpoint()
            assert info.value.resource == "steps"

    def test_memory_budget(self):
        with guard_scope(memory_budget=100) as guard:
            guard.charge_memory(50)
            with pytest.raises(WolframBudgetError) as info:
                guard.charge_memory(51)
            assert info.value.resource == "memory"

    def test_guard_errors_are_soft_runtime_errors(self):
        assert issubclass(WolframTimeoutError, WolframRuntimeError)
        assert issubclass(WolframBudgetError, WolframRuntimeError)

    def test_nested_outer_deadline_fires_inside_inner_scope(self):
        outer = ExecutionGuard.with_time_limit(0.01)
        inner = ExecutionGuard.with_time_limit(60.0)
        with guard_scope(outer):
            with guard_scope(inner):
                time.sleep(0.02)
                with pytest.raises(WolframTimeoutError) as info:
                    checkpoint()
                # the *outer* guard expired; its identity rides the error
                assert info.value.guard is outer

    def test_scopes_unwind(self):
        with guard_scope(step_budget=10) as outer:
            with guard_scope(step_budget=5) as inner:
                assert active_guard() is inner
            assert active_guard() is outer
        assert active_guard() is None


class TestConstrainedBuiltins:
    def test_time_constrained_aborts_runaway_loop(self, run):
        started = time.monotonic()
        result = run("TimeConstrained[While[True], 0.1]")
        assert result == "$Aborted"
        assert time.monotonic() - started < 5.0

    def test_time_constrained_returns_value_in_time(self, run):
        assert run("TimeConstrained[2 + 3, 10]") == "5"

    def test_time_constrained_interrupts_range_materialization(self, run):
        # the iterator build loop itself polls the guard: a 10^12-element
        # range must not run to completion before the deadline is noticed
        started = time.monotonic()
        assert run("TimeConstrained[Do[i, {i, 1, 10^12}], 0.2]") == "$Aborted"
        assert time.monotonic() - started < 5.0

    def test_memory_constrained_trips_before_materialization(self, run):
        # the range length is charged up front, so this returns immediately
        # instead of first building 10^9 elements
        started = time.monotonic()
        assert (
            run('MemoryConstrained[Table[i, {i, 1, 10^9}], 10000, "too big"]')
            == '"too big"'
        )
        assert time.monotonic() - started < 5.0

    def test_time_constrained_sees_a_packed_range_before_it_is_built(
            self, run):
        # the packed Range charges its n + 1 polls in one subtraction
        # before it allocates, and allocates one buffer, not 10^6 atoms
        # (1.57 s when every element was an atom polled one at a time).
        # Whether the build beats the deadline depends on the host, so
        # either answer is right; the wall time is what is pinned.
        started = time.monotonic()
        assert run("TimeConstrained[Length[Range[10^6]], 0.05]") in (
            "1000000", "$Aborted")
        assert time.monotonic() - started < 0.5

    def test_memory_constrained_trips_before_a_packed_range_is_built(
            self, run):
        # its node bytes are charged up front: no element is allocated
        started = time.monotonic()
        assert (
            run("MemoryConstrained[Length[Range[10^6]], 10^6]") == "$Aborted"
        )
        assert time.monotonic() - started < 0.5  # 1.76 s when built first

    def test_step_budget_sees_a_packed_range_up_front(self, evaluator):
        with guard_scope(step_budget=10_000) as guard:
            with pytest.raises(WolframBudgetError):
                evaluator.run("Length[Range[10^6]]")
        assert guard.steps_used > 10_000

    def test_time_constrained_fail_expression(self, run):
        assert run('TimeConstrained[While[True], 0.05, "slow"]') == '"slow"'

    def test_time_constrained_keeps_session_alive(self, evaluator, run):
        run("x = 42")
        run("TimeConstrained[While[True], 0.05]")
        assert run("x + 1") == "43"

    def test_nested_time_constrained_outer_wins(self, run):
        # inner allows 50s but the outer 0.05s deadline must fire and be
        # handled by the *outer* TimeConstrained
        result = run(
            'TimeConstrained[TimeConstrained[While[True], 50], 0.05, "outer"]'
        )
        assert result == '"outer"'

    def test_nested_inner_expiry_handled_by_inner(self, run):
        result = run(
            'TimeConstrained['
            ' TimeConstrained[While[True], 0.05, "inner"], 50, "outer"]'
        )
        assert result == '"inner"'

    def test_memory_constrained_trips_on_large_table(self, run):
        assert run("MemoryConstrained[Table[i, {i, 200000}], 10000]") == (
            "$Aborted"
        )

    def test_memory_constrained_trips_on_allocation_heavy_body(self, run):
        # per-iteration expression construction is charged too, so the
        # budget fires mid-Table, not only on the materialized range
        assert run(
            "MemoryConstrained[Table[{i, i, i}, {i, 1000}], 5000]"
        ) == "$Aborted"

    BIG_TENSOR = (
        'Function[{Typed[n, "MachineInteger"]},'
        ' Module[{t = Native`CreateTensor[n, 0]}, t[[1]] = 7; t[[1]]]]'
    )

    def test_memory_constrained_sees_compiled_allocations(self, hosted):
        """Storage is charged where it is created, before it exists: the
        compiled tier trips where the interpreter's ``Table`` does."""
        from repro.mexpr import full_form

        def run(source):
            return full_form(hosted.run(source))

        run(f"big = FunctionCompile[{self.BIG_TENSOR}]")
        assert run('MemoryConstrained[big[2000000], 10000, "too big"]') == (
            '"too big"')
        assert run('MemoryConstrained[big[20], 10000, "too big"]') == "7"
        assert run(
            'MemoryConstrained[Table[0, {i, 2000000}][[1]], 10000, "too big"]'
        ) == '"too big"'
        # rows in one buffer are one charge of 8 n L bytes, a list display
        # in a loop is charged each time round
        run('rows = FunctionCompile[Function[{Typed[n, "MachineInteger"]},'
            ' Length[Table[{1., 2.}, {i, 1, n}]]]]')
        assert run('MemoryConstrained[rows[2000], 10000, "too big"]') == (
            '"too big"')
        assert run('MemoryConstrained[rows[200], 10000, "too big"]') == "200"

    @pytest.mark.parametrize("tier", ["compiled", "template"])
    def test_memory_budget_trips_in_generated_code(self, tier):
        from repro.mexpr import parse
        from repro.template_jit import compile_template_function

        if tier == "compiled":
            function = FunctionCompile(self.BIG_TENSOR)
        else:
            function = compile_template_function(
                parse("{{n, _Integer}}"),
                parse("Module[{t = ConstantArray[0, n]},"
                      " t[[1]] = 7; t[[1]]]"))
        with guard_scope(memory_budget=10_000):
            assert function(20) == 7
        with pytest.raises(WolframBudgetError):
            with guard_scope(memory_budget=10_000):
                function(2_000_000)
        assert function(2_000_000) == 7  # unguarded: nothing to charge

    def test_dot_is_charged_by_dims_alone(self):
        """The product's size comes from the operands' dims; nothing on
        Dot's path makes a ``data`` list to measure."""
        dot = FunctionCompile(
            'Function[{Typed[a, TypeSpecifier["Tensor"["Real64", 2]]]},'
            ' Dot[a, a]]')
        square = [[1.0] * 40 for _ in range(40)]
        with pytest.raises(WolframBudgetError):
            with guard_scope(memory_budget=8 * 40 * 40 - 1):
                dot(square)
        with guard_scope(memory_budget=8 * 40 * 40):
            assert dot(square).resident is not None

    def test_memory_constrained_passes_small_work(self, run):
        assert run("MemoryConstrained[1 + 1, 1000000]") == "2"

    def test_memory_constrained_fail_expression(self, run):
        assert run(
            'MemoryConstrained[Table[i, {i, 200000}], 1000, "big"]'
        ) == '"big"'

    def test_time_constrained_bounds_compiled_code(self, hosted):
        """Guard checkpoints ride compiled code's abort checks (§4.5)."""
        compiled = FunctionCompile(COUNTING_LOOP, evaluator=hosted)
        with guard_scope(time_limit=0.1):
            with pytest.raises(WolframTimeoutError):
                compiled(10 ** 12)

    def test_time_constrained_bounds_bytecode_vm(self, evaluator, run):
        run('cf = Compile[{{n, _Integer}}, '
            'Module[{i = 0}, While[i < n, i = i + 1]; i]]')
        result = run("TimeConstrained[cf[1000000000000], 0.1]")
        assert result == "$Aborted"


class TestStandaloneExport(object):
    """Satellite: §4.6 standalone mode — abort degrades to noop, guards
    still enforce deadlines by wall clock."""

    def test_exported_guard_polling_degrades_to_noop(self, tmp_path):
        path = str(tmp_path / "lib.py")
        FunctionCompileExportLibrary(path, COUNTING_LOOP)
        main = LibraryFunctionLoad(path)
        # no abort source, no guard: checks are noops and the call completes
        assert main(10000) == 10000

    def test_exported_time_constraint_enforced_by_wall_clock(self, tmp_path):
        path = str(tmp_path / "lib.py")
        FunctionCompileExportLibrary(path, COUNTING_LOOP)
        main = LibraryFunctionLoad(path)
        started = time.monotonic()
        with guard_scope(time_limit=0.1):
            with pytest.raises(WolframTimeoutError):
                main(10 ** 12)
        assert time.monotonic() - started < 5.0
        # the guard scope is gone: subsequent calls are unconstrained again
        assert main(100) == 100


class TestClassification:
    """Satellite: caught exceptions become structured kinds; programming
    errors propagate."""

    def test_zero_division_classified(self):
        error = classify_runtime_error(ZeroDivisionError("x"))
        assert error.kind == "DivideByZero"

    def test_index_error_classified(self):
        assert classify_runtime_error(IndexError()).kind == "PartOutOfRange"

    def test_value_error_classified(self):
        assert classify_runtime_error(ValueError()).kind == "InvalidValue"

    def test_overflow_classified(self):
        assert classify_runtime_error(OverflowError()).kind == "NumericOverflow"

    def test_programming_error_reraises(self):
        with pytest.raises(AttributeError):
            classify_runtime_error(AttributeError("bug"))

    def test_structured_kind_reaches_warning_message(self, hosted):
        f = FunctionCompile(
            'Function[{Typed[x, "Real64"]}, 1.0 / x]', evaluator=hosted
        )
        f(0.0)
        assert any("DivideByZero" in m for m in hosted.messages)

    def test_attribute_error_in_generated_code_propagates(self, hosted):
        """A broken backend is a compiler bug, not a soft failure."""
        f = FunctionCompile(COUNTING_LOOP, evaluator=hosted)

        def broken_entry(n):
            raise AttributeError("backend bug")

        f._native = broken_entry  # a scalar result: the entry runs directly
        with pytest.raises(AttributeError):
            f(10)
        assert f.fallback_count == 0


class TestLegacyCompileMathErrors:
    """The legacy ``Compile`` VM's Python math errors are soft failures
    (F2), as they are for compiled code: classified, recorded, and rerun
    by the interpreter when hosted."""

    @pytest.mark.parametrize("body, argument, expected", [
        ("Sqrt[x]", "-2.", complex(0.0, math.sqrt(2.0))),
        ("Log[x]", "-2.", cmath.log(-2.0)),
        ("ArcSin[x]", "2.", cmath.asin(2.0)),
    ], ids=["Sqrt", "Log", "ArcSin"])
    def test_value_error_reverts_to_interpreter(self, hosted, body, argument,
                                                expected):
        value = hosted.run(f"Compile[{{{{x, _Real}}}}, {body}][{argument}]")
        assert value.to_python() == expected
        assert any(
            m.startswith("CompiledFunction:") and "InvalidValue" in m
            for m in hosted.messages
        )

    def test_overflow_error_is_classified(self):
        from repro.bytecode import compile_function
        from repro.mexpr import parse

        exp = compile_function(parse("{{x, _Real}}"), parse("Exp[x]"))
        with pytest.raises(WolframRuntimeError) as info:
            exp(1000.0)
        assert info.value.kind == "NumericOverflow"
        assert FAILURE_LOG.records(tier=Tier.BYTECODE,
                                   kind="NumericOverflow")


class TestFallbackStats:
    """Satellite: FallbackStats replaces the bare mutable counter."""

    def test_stats_on_compiled_code_function(self, hosted):
        f = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]}, n * n]', evaluator=hosted
        )
        assert isinstance(f.stats(), FallbackStats)
        f(4)
        assert f.stats().calls == {"compiled": 1}
        f(2 ** 40)  # overflow -> interpreter rerun
        stats = f.stats()
        assert stats.interpreter_reruns == 1
        assert stats.kinds == {"IntegerOverflow": 1}
        assert f.fallback_count == 1  # compatibility alias

    def test_stats_is_a_snapshot(self, hosted):
        f = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]}, n * n]', evaluator=hosted
        )
        f(3)
        s = f.stats()
        f(4)
        assert s.calls == {"compiled": 1}
        assert f.stats().calls == {"compiled": 2}

    def test_stats_reset(self, hosted):
        f = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]}, n * n]', evaluator=hosted
        )
        f(2 ** 40)
        f.reset_tiers()
        stats = f.stats()
        assert stats.interpreter_reruns == 0
        assert stats.calls == {}
        assert f.current_tier is Tier.COMPILED

    def test_stats_on_bytecode_compiled_function(self, evaluator):
        from repro.bytecode import compile_function
        from repro.mexpr import parse

        f = compile_function(parse("{{n, _Integer}}"), parse("2^n"), evaluator)
        f(10)
        f(100)  # overflow -> fallback
        stats = f.stats()
        assert stats.calls["bytecode"] == 2
        assert stats.interpreter_reruns == 1
        assert f.fallback_count == 1

    def test_cli_stats_flag(self):
        import io

        from repro.__main__ import repl

        source = io.StringIO(
            'f = FunctionCompile[Function[{Typed[n, "MachineInteger"]},'
            " n*n*n]]\nf[3000000000]\n"
        )
        out = io.StringIO()
        assert repl(input_stream=source, output=out, show_stats=True) == 0
        transcript = out.getvalue()
        assert "guarded execution statistics" in transcript
        assert "IntegerOverflow" in transcript

    def test_cli_rejects_unknown_arguments(self):
        from repro.__main__ import main

        assert main(["--bogus"]) == 2


class TestCircuitBreaker:
    def test_trips_to_the_interpreter_after_threshold(self):
        breaker = CircuitBreaker("f", threshold=3, log=FAILURE_LOG)
        assert breaker.tier is Tier.COMPILED
        breaker.record_failure("IntegerOverflow")
        breaker.record_failure("IntegerOverflow")
        assert breaker.tier is Tier.COMPILED
        breaker.record_failure("IntegerOverflow")
        assert breaker.tier is Tier.INTERPRETER
        # a straggler's failure at the abandoned tier changes nothing
        breaker.record_failure("IntegerOverflow")
        assert breaker.tier is Tier.INTERPRETER
        assert len(failure_transitions("f")) == 1

    def test_tripped_function_runs_interpreted(self, hosted):
        f = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]}, n * n * n]',
            evaluator=hosted,
        )
        big = 3 * 10 ** 9
        for _ in range(3):
            assert f(big) == big ** 3  # interpreter rerun each time
        assert f.current_tier is Tier.INTERPRETER
        assert f(5) == 125  # interpreter-direct, still correct
        assert f(big) == big ** 3  # and no longer a failure at all
        # three reruns, then two interpreter-direct calls
        assert f.stats().calls == {"compiled": 3, "interpreter": 5}
        assert [r.transition for r in failure_transitions(f.program.main)] \
            == [(Tier.COMPILED, Tier.INTERPRETER)]

    def test_guard_expiry_does_not_trip_breaker(self, hosted):
        f = FunctionCompile(COUNTING_LOOP, evaluator=hosted)
        for _ in range(4):
            with guard_scope(time_limit=0.02):
                with pytest.raises(WolframTimeoutError):
                    f(10 ** 12)
        assert f.current_tier is Tier.COMPILED
        assert f(100) == 100
