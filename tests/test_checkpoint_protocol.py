"""The one-word checkpoint protocol (DESIGN §5, ``repro.runtime.guard``).

Every tier polls aborts and guards the same way — ``if CHECKPOINT[0]:
<slow path>`` — so these tests run each property over all four tiers:
abort delivery from a second thread, budget/deadline trips with the step
accounting the per-tier polls had before the word existed, fault-site hit
counts, arming/disarming of the word, and the shape of the emitted code.
"""

from __future__ import annotations

import ast
import threading
import time

import pytest

from repro.benchsuite import programs
from repro.bytecode import compile_function
from repro.compiler import (
    FunctionCompile,
    FunctionCompileExportLibrary,
    FunctionCompileExportString,
    LibraryFunctionLoad,
    install_engine_support,
)
from repro.engine import Evaluator
from repro.errors import (
    WolframAbort,
    WolframBudgetError,
    WolframTimeoutError,
)
from repro.mexpr import full_form, parse
from repro.runtime.guard import (
    CHECKPOINT,
    AbortFlag,
    ExecutionGuard,
    active_guard,
    guard_scope,
    pop_guard,
    push_guard,
)
from repro.template_jit import compile_template_function
from repro.testing.faults import Fault, inject_faults

SPECS = "{{n, _Integer}}"
BODY = "Module[{i = 0}, While[i < n, i = i + 1]; i]"
TYPED = 'Function[{Typed[n, "MachineInteger"]}, ' + BODY + "]"

COMPILED_TIERS = ("compiled", "template", "bytecode")


@pytest.fixture()
def hosted():
    evaluator = Evaluator()
    install_engine_support(evaluator)
    return evaluator


def _loop(tier: str, evaluator):
    """``n -> n`` by counting, on the named tier, hosted by ``evaluator``."""
    if tier == "compiled":
        return FunctionCompile(TYPED, evaluator=evaluator)
    if tier == "template":
        return compile_template_function(
            parse(SPECS), parse(BODY), evaluator=evaluator
        )
    if tier == "bytecode":
        return compile_function(parse(SPECS), parse(BODY), evaluator)
    assert tier == "interpreter"
    return lambda n: evaluator.evaluate(
        parse(f"Function[{{n}}, {BODY}][{n}]")
    ).to_python()


class TestAbortFromSecondThread:
    @pytest.mark.parametrize("tier", COMPILED_TIERS + ("interpreter",))
    def test_abort_lands_within_bound_and_session_survives(self, hosted, tier):
        hosted.run("g[x_] := x + 1")
        spin = _loop(tier, hosted)
        assert spin(10) == 10
        outcome = {}

        def work():
            try:
                outcome["result"] = spin(10 ** 12)
            except WolframAbort:
                outcome["result"] = "aborted"

        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        time.sleep(0.1)
        assert CHECKPOINT[0] == 0  # an attached engine alone arms nothing
        hosted.request_abort()
        assert CHECKPOINT[0] == 1
        worker.join(timeout=5)
        assert not worker.is_alive(), f"{tier} loop ignored the abort"
        assert outcome["result"] == "aborted"
        hosted.clear_abort()
        assert not hosted.abort_pending()
        # session state intact, and the same artifact runs again
        assert hosted.run("g[41]").to_python() == 42
        assert spin(10) == 10

    def test_protected_evaluation_returns_aborted_and_disarms(self, hosted):
        compiled = FunctionCompile(TYPED, evaluator=hosted)
        compiled.install(hosted, "spin")
        hosted.request_abort()
        result = hosted.evaluate_protected(parse("spin[1000000000000]"))
        assert full_form(result) == "$Aborted"
        assert not hosted.abort_pending()
        assert CHECKPOINT[0] == 0


class TestGuardsTripAsBefore:
    """Step accounting is per checkpoint visit: prologue (not on the VM,
    which polls backward jumps only) plus one per loop-header visit."""

    @pytest.mark.parametrize("tier", COMPILED_TIERS + ("interpreter",))
    def test_step_budget_trips_at_the_same_step(self, hosted, tier):
        spin = _loop(tier, hosted)
        with guard_scope(step_budget=50) as guard:
            with pytest.raises(WolframBudgetError) as info:
                spin(10_000)
        assert info.value.kind == "BudgetExhausted"
        assert info.value.resource == "steps"
        assert guard.steps_used == 51
        assert active_guard() is None

    @pytest.mark.parametrize("tier", COMPILED_TIERS)
    def test_completed_loop_charges_one_step_per_checkpoint(self, hosted, tier):
        spin = _loop(tier, hosted)
        with guard_scope(step_budget=10_000) as guard:
            assert spin(10) == 10
        # compiled/template: prologue + 11 header visits (template's `while`
        # header runs its stencil on the 10 taken iterations); VM: 10 jumps
        assert guard.steps_used == {
            "compiled": 12, "template": 11, "bytecode": 10,
        }[tier]

    @pytest.mark.parametrize("tier", COMPILED_TIERS)
    def test_deadline_trips_inside_the_loop(self, hosted, tier):
        spin = _loop(tier, hosted)
        started = time.monotonic()
        with guard_scope(time_limit=0.1) as guard:
            with pytest.raises(WolframTimeoutError) as info:
                spin(10 ** 12)
        assert info.value.guard is guard
        assert time.monotonic() - started < 5.0
        assert spin(100) == 100  # unconstrained again


class TestFaultSiteHitCounts:
    """``after=N`` schedules count the same visits they always did."""

    @pytest.mark.parametrize("tier,expected", [
        ("compiled", (12, 12)),   # abort.check then guard.checkpoint, each
        ("template", (0, 11)),    # guard.checkpoint only
        ("bytecode", (0, 10)),
        ("interpreter", (0, 0)),  # evaluation steps are not fault sites
    ])
    def test_sites_see_the_same_hits(self, hosted, tier, expected):
        spin = _loop(tier, hosted)
        assert CHECKPOINT[0] == 0
        with inject_faults(
            Fault("abort.check", after=10 ** 9),
            Fault("guard.checkpoint", after=10 ** 9),
        ) as injector:
            assert CHECKPOINT[0] == 1  # an armed injector arms the word
            spin(10)
            assert tuple(f.hits for f in injector.faults) == expected
        assert CHECKPOINT[0] == 0

    def test_after_n_lands_on_the_same_visit(self, hosted):
        compiled = FunctionCompile(TYPED, evaluator=hosted)
        with inject_faults(Fault("abort.check", "abort", after=5)) as injector:
            with pytest.raises(WolframAbort):
                compiled(1000)
            assert injector.faults[0].hits == 6

    def test_standalone_export_fires_guard_site_only(self, tmp_path):
        path = str(tmp_path / "lib.py")
        FunctionCompileExportLibrary(path, TYPED)
        main = LibraryFunctionLoad(path)
        with inject_faults(
            Fault("abort.check", after=10 ** 9),
            Fault("guard.checkpoint", after=10 ** 9),
        ) as injector:
            main(10)
            assert [f.hits for f in injector.faults] == [0, 12]


class TestArmingTheWord:
    def test_guards_arm_per_installed_guard(self):
        assert CHECKPOINT[0] == 0
        with guard_scope(step_budget=10):
            assert CHECKPOINT[0] == 1
            with guard_scope(step_budget=10):
                assert CHECKPOINT[0] == 2
            assert CHECKPOINT[0] == 1
        assert CHECKPOINT[0] == 0

    def test_out_of_order_pop_disarms_everything_it_unwinds(self):
        outer = push_guard(ExecutionGuard(label="outer"))
        inner = push_guard(ExecutionGuard(label="inner"))
        assert CHECKPOINT[0] == 2
        pop_guard(outer)  # unwinds inner too
        assert active_guard() is None
        assert CHECKPOINT[0] == 0
        pop_guard(inner)  # already gone: nothing left to disarm
        assert CHECKPOINT[0] == 0

    def test_pop_of_an_unknown_guard_clears_the_stack(self):
        push_guard(ExecutionGuard())
        push_guard(ExecutionGuard())
        pop_guard(ExecutionGuard())
        assert active_guard() is None
        assert CHECKPOINT[0] == 0

    def test_exception_through_guard_scope_disarms(self):
        with pytest.raises(KeyError):
            with guard_scope(time_limit=60):
                with guard_scope(step_budget=5):
                    raise KeyError("thrown through two scopes")
        assert active_guard() is None
        assert CHECKPOINT[0] == 0

    def test_abort_flag_arms_once_however_often_requested(self):
        flag = AbortFlag()
        flag.set(True)
        flag.set(True)
        assert flag.pending and CHECKPOINT[0] == 1
        flag.set(False)
        flag.set(False)
        assert not flag.pending and CHECKPOINT[0] == 0

    def test_guard_on_another_thread_sends_everyone_down_the_slow_path(self, hosted):
        """Any-thread-arms-all: correct (each thread reads its own guard
        stack and abort flag), merely not free."""
        spin = _loop("compiled", hosted)
        installed, release = threading.Event(), threading.Event()

        def holder():
            with guard_scope(step_budget=1):
                installed.set()
                release.wait(timeout=10)

        other = threading.Thread(target=holder)
        other.start()
        try:
            assert installed.wait(timeout=10)
            assert CHECKPOINT[0] == 1
            assert active_guard() is None
            assert spin(1000) == 1000  # the other thread's budget is not ours
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert CHECKPOINT[0] == 0


# -- emitted code shape --------------------------------------------------------


def _is_word_test(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.If)
        and ast.unparse(node.test) == "_armed[0]"
        and not node.orelse
    )


def _loop_calls(source: str):
    """``(call, guarded)`` for every call on the non-raising path of a loop
    body; ``guarded`` means it is the body of an ``if _armed[0]:``."""
    tree = ast.parse(source)
    found = []

    def visit(node, in_loop, guarded):
        if isinstance(node, ast.Raise):
            return  # error constructors run only on the failing path
        if isinstance(node, ast.Call) and in_loop:
            found.append((ast.unparse(node), guarded))
        for child in ast.iter_child_nodes(node):
            visit(
                child,
                in_loop or isinstance(node, (ast.While, ast.For)),
                guarded or (_is_word_test(node) and child in node.body),
            )

    visit(tree, False, False)
    return found


class TestEmittedShape:
    @pytest.mark.parametrize("kernel", ["NEW_FNV1A", "NEW_HISTOGRAM"])
    def test_compiled_loop_bodies_make_no_unconditional_call(self, kernel):
        source = getattr(programs, kernel)
        hosted_text = FunctionCompile(source).generated_source
        exported = FunctionCompileExportString(source, "Python")
        for text in (hosted_text, exported):
            calls = _loop_calls(text)
            assert calls, "expected a loop-header checkpoint"
            assert all(guarded for _, guarded in calls), calls
            assert {call for call, _ in calls} == {"_check_abort()"}

    def test_template_checkpoints_are_all_behind_the_word(self):
        artifact = compile_template_function(
            parse(programs.BYTECODE_FNV1A_SPECS),
            parse(programs.BYTECODE_FNV1A_BODY),
        )
        checkpoints = [
            guarded for call, guarded in _loop_calls(artifact.source)
            if call == "_checkpoint()"
        ]
        assert checkpoints and all(checkpoints)
        assert artifact.source.count("_checkpoint()") == \
            artifact.source.count("if _armed[0]: _checkpoint()")
