"""One governance contract, three artifacts (``GovernedFunction``).

``CompiledCodeFunction``, ``TemplateCompiledFunction`` and the legacy
``Compile`` ``CompiledFunction`` are each a two-state machine — native tier
or interpreter — behind the one call protocol in ``repro.runtime.guard``.
Every property here runs over all three.
"""

from __future__ import annotations

import sys

import pytest

from repro.bytecode import compile_function
from repro.compiler import FunctionCompile, install_engine_support
from repro.compiler.api import (
    clear_failure_records,
    failure_records,
    failure_transitions,
)
from repro.engine import Evaluator
from repro.errors import (
    IntegerOverflowError,
    WolframAbort,
    WolframBudgetError,
    WolframEvaluationError,
    WolframRecursionError,
    WolframRuntimeError,
    WolframTimeoutError,
)
from repro.mexpr import parse
from repro.runtime.guard import GovernedFunction, Tier
from repro.template_jit import compile_template_function
from repro.testing.faults import Fault, inject_faults

ARTIFACTS = ("compiled", "template", "bytecode")
THRESHOLD = 3
BIG = 3 * 10 ** 9  # BIG ** 3 overflows Integer64 on every compiled tier
#: calls the ``{{n, _Integer}}`` boundary refuses, with the refusal's kind
MISMATCHES = [((1.5,), "TypeMismatch"), ((True,), "TypeMismatch"),
              ((1, 2), "ArgumentCount"), ((), "ArgumentCount")]


@pytest.fixture(autouse=True)
def _clean_failure_log():
    clear_failure_records()
    yield
    clear_failure_records()


@pytest.fixture()
def hosted():
    evaluator = Evaluator()
    install_engine_support(evaluator)
    return evaluator


def _cube(tier: str, evaluator=None) -> GovernedFunction:
    """``n -> n^3`` as the named artifact, its records attributed to ``tier``."""
    if tier == "compiled":
        artifact = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]}, n * n * n]',
            evaluator=evaluator,
        )
    else:
        build = (compile_template_function if tier == "template"
                 else compile_function)
        artifact = build(
            parse("{{n, _Integer}}"), parse("n * n * n"), evaluator=evaluator
        )
    assert artifact.native_tier is Tier(tier)
    assert artifact.breaker.threshold == THRESHOLD
    artifact.breaker.function = f"cube:{tier}"
    return artifact


def _transitions(artifact) -> list:
    return [r.transition
            for r in failure_transitions(artifact.breaker.function)]


_INTEGER_VECTOR = 'TypeSpecifier["Tensor"["Integer64", 1]]'
_REAL_MATRIX = 'TypeSpecifier["Tensor"["Real64", 2]]'


class TestTensorBoundary:
    """A ``Tensor`` parameter is checked as a scalar one is: rank and
    element type, on the list path and on the ndarray path alike."""

    TOTAL = f"Function[{{Typed[v, {_INTEGER_VECTOR}]}}, Total[v]]"
    FIRST = f"Function[{{Typed[v, {_INTEGER_VECTOR}]}}, v[[1]]]"
    DOT = (f"Function[{{Typed[a, {_REAL_MATRIX}], Typed[b, {_REAL_MATRIX}]}},"
           " Dot[a, b]]")

    @pytest.mark.parametrize("source, arguments", [
        (TOTAL, ([1.5, 2.5],)),               # returned 4.0 from Integer64
        (FIRST, ([[1, 2], [3, 4]],)),         # rank 2 read as rank 1: 1
        (TOTAL, (["a", "b"],)),               # a raw Python TypeError
        (TOTAL, ([True, False],)),            # a Boolean is not a number
        (DOT, ([["1.5", "2"], ["3", "4"]],) * 2),   # strings parsed as numbers
        (DOT, ([1.0, 2.0], [3.0, 4.0])),      # rank 1 for rank 2
        (DOT, ([[[1.0]]], [[[1.0]]])),        # rank 3 for rank 2
        (DOT, ([[True, False], [False, True]],) * 2),
        (DOT, ([[1.0, 2j], [3.0, 4.0]],) * 2),
    ])
    def test_wrong_rank_or_element_type_is_a_type_mismatch(self, source,
                                                           arguments):
        with pytest.raises(WolframRuntimeError) as info:
            FunctionCompile(source)(*arguments)
        assert info.value.kind == "TypeMismatch"

    def test_ragged_stays_ragged_on_both_paths(self):
        ragged = [[1.0, 2.0], [3.0]]
        row_total = FunctionCompile(
            f"Function[{{Typed[a, {_REAL_MATRIX}]}}, Total[a[[1]]]]")
        for function, arguments in ((row_total, (ragged,)),       # lists
                                    (FunctionCompile(self.DOT),   # ndarrays
                                     (ragged, [[1.0, 2.0], [3.0, 4.0]]))):
            with pytest.raises(WolframRuntimeError) as info:
                function(*arguments)
            assert info.value.kind == "RaggedArray"

    def test_what_a_real_tensor_accepts(self):
        import numpy as np

        total = FunctionCompile(
            'Function[{Typed[v, TypeSpecifier["Tensor"["Real64", 1]]]},'
            ' Total[v]]')
        assert total([1, 2.5]) == 3.5        # an int, as a Real64 takes one
        assert total((1.0, 2.0)) == 3.0
        assert total(np.array([1.0, 2.0])) == 3.0
        assert total(np.array([1, 2])) == 3.0
        dot = FunctionCompile(self.DOT)
        assert dot([[1, 2], [3, 4]], [[1, 0], [0, 1]]).to_nested() == [
            [1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(WolframRuntimeError) as info:
            total(np.array(["1.0"]))
        assert info.value.kind == "TypeMismatch"

    def test_hosted_mismatch_is_rerun_by_the_interpreter(self, hosted):
        """Soft boundary, as for scalars: uncounted, one message."""
        total = FunctionCompile(self.TOTAL, evaluator=hosted)
        assert total([1.5, 2.5]) == 4.0
        assert "TypeMismatch" in hosted.messages[-1]
        assert total.current_tier is Tier.COMPILED
        assert total.stats().kinds == {"TypeMismatch": 1}
        dot = FunctionCompile(self.DOT, evaluator=hosted)
        assert dot([1.0, 2.0], [3.0, 4.0]) == 11.0
        assert dot.stats().kinds == {"TypeMismatch": 1}


@pytest.mark.parametrize("tier", ARTIFACTS)
class TestGovernanceContract:
    def test_threshold_soft_failures_reach_the_interpreter(self, hosted, tier):
        cube = _cube(tier, hosted)
        native = cube.native_tier
        assert cube(5) == 125
        for failure in range(1, THRESHOLD + 1):
            assert cube.current_tier is native
            assert cube(BIG) == BIG ** 3  # the interpreter answers
            # one warning and one rerun per failure
            assert len(hosted.messages) == failure
            assert cube.fallback_count == failure
        assert "IntegerOverflow" in hosted.messages[-1]
        assert cube.current_tier is Tier.INTERPRETER
        assert _transitions(cube) == [(native, Tier.INTERPRETER)]
        # tripped: answered by the interpreter, which does not overflow —
        # no failure, no warning, no rerun, nothing more in the log
        logged = len(failure_records(cube.breaker.function))
        assert cube(5) == 125
        assert cube(BIG) == BIG ** 3
        stats = cube.stats()
        # every interpreter evaluation is a call there: the reruns, then two
        assert stats.calls == {native.value: THRESHOLD + 1,
                               "interpreter": THRESHOLD + 2}
        assert stats.failures == {native.value: THRESHOLD}
        assert stats.kinds == {"IntegerOverflow": THRESHOLD}
        assert stats.failures == {native.value: sum(stats.kinds.values())}
        assert stats.current_tier == "interpreter"
        assert cube.fallback_count == len(hosted.messages) == THRESHOLD
        assert len(failure_records(cube.breaker.function)) == logged
        assert _transitions(cube) == [(native, Tier.INTERPRETER)]

    def test_injected_call_faults_trip_it_the_same_way(self, hosted, tier):
        cube = _cube(tier, hosted)
        with inject_faults(Fault(f"{tier}.call", "runtime", times=THRESHOLD)):
            for _ in range(THRESHOLD):
                assert cube(4) == 64
        assert cube.current_tier is Tier.INTERPRETER
        assert cube.stats().kinds == {"Injected": THRESHOLD}
        assert _transitions(cube) == [(cube.native_tier, Tier.INTERPRETER)]

    def test_reset_tiers_restores_the_native_tier(self, hosted, tier):
        cube = _cube(tier, hosted)
        for _ in range(THRESHOLD):
            cube(BIG)
        assert cube.current_tier is Tier.INTERPRETER
        cube.reset_tiers()
        assert cube.current_tier is cube.native_tier
        assert cube.fallback_count == 0
        assert cube(5) == 125
        assert cube.stats().calls == {tier: 1}
        # re-armed, not disabled: it takes the full threshold again
        for _ in range(THRESHOLD - 1):
            cube(BIG)
        assert cube.current_tier is cube.native_tier

    @pytest.mark.parametrize("kind, raised", [
        ("timeout", WolframTimeoutError),
        ("budget", WolframBudgetError),
    ])
    def test_guard_expiry_is_recorded_but_never_counted_or_retried(
        self, hosted, tier, kind, raised
    ):
        cube = _cube(tier, hosted)
        with inject_faults(Fault(f"{tier}.call", kind, times=THRESHOLD + 1)):
            for _ in range(THRESHOLD + 1):
                with pytest.raises(raised):
                    cube(4)
        assert cube.current_tier is cube.native_tier
        assert cube.stats().failures == {tier: THRESHOLD + 1}
        assert len(failure_records(cube.breaker.function)) == THRESHOLD + 1
        assert cube.fallback_count == 0 and hosted.messages == []
        assert _transitions(cube) == []

    def test_abort_passes_through_untouched(self, hosted, tier):
        cube = _cube(tier, hosted)
        with inject_faults(Fault(f"{tier}.call", "abort", times=THRESHOLD + 1)):
            for _ in range(THRESHOLD + 1):
                with pytest.raises(WolframAbort):
                    cube(4)
        assert cube.current_tier is cube.native_tier
        assert cube.stats().failures == {}
        assert failure_records(cube.breaker.function) == []
        assert cube.fallback_count == 0 and hosted.messages == []

    def test_unhosted_boundary_mismatch_raises(self, tier):
        cube = _cube(tier)
        for arguments, kind in MISMATCHES:
            with pytest.raises(WolframRuntimeError) as info:
                cube(*arguments)
            assert info.value.kind == kind
        assert cube.stats().calls == {}  # the native code never ran

    def test_unhosted_artifact_never_changes_tier(self, tier):
        """Nothing to revert to: a standalone artifact records the failure
        and re-raises it; the breaker is never charged."""
        cube = _cube(tier)
        for _ in range(THRESHOLD + 1):
            with pytest.raises(IntegerOverflowError):
                cube(BIG)
        assert cube.current_tier is cube.native_tier
        assert cube.stats().current_tier == tier
        assert cube.stats().kinds == {"IntegerOverflow": THRESHOLD + 1}
        assert len(failure_records(cube.breaker.function)) == THRESHOLD + 1
        assert _transitions(cube) == []
        assert cube(5) == 125  # and it keeps running natively
        # even a breaker someone else tripped cannot send it to an
        # interpreter it does not have
        cube.breaker.tier = Tier.INTERPRETER
        assert cube(5) == 125


class TestHostedBoundaryPolicy:
    """The one per-artifact choice (``soft_boundary``), as pinned before the
    protocol was shared: ``FunctionCompile`` artifacts rerun a mismatched
    call in the interpreter, ``Compile``-spec artifacts raise it."""

    @pytest.mark.parametrize("tier", ["template", "bytecode"])
    def test_spec_typed_artifacts_raise(self, hosted, tier):
        cube = _cube(tier, hosted)
        for _ in range(THRESHOLD + 1):
            for arguments, kind in MISMATCHES:
                with pytest.raises(WolframRuntimeError) as info:
                    cube(*arguments)
                assert info.value.kind == kind
        # the caller's error, not the tier's: nothing recorded, no rerun
        assert cube.current_tier is cube.native_tier
        assert cube.stats().calls == cube.stats().kinds == {}
        assert failure_records(cube.breaker.function) == []
        assert hosted.messages == []
        assert cube(5) == 125

    def test_wrong_arity_legacy_compile_raises_through_the_engine(self, hosted):
        hosted.run("cf = Compile[{{n, _Integer}}, n*n*n]")
        assert hosted.run("cf[2]").to_python() == 8
        for call in ("cf[2, 99]", "cf[]"):
            with pytest.raises(WolframRuntimeError) as info:
                hosted.run(call)
            assert info.value.kind == "ArgumentCount"
        assert hosted.messages == []

    def test_compiled_type_mismatch_is_rerun_but_never_counted(self, hosted):
        cube = _cube("compiled", hosted)
        for attempt in range(1, THRESHOLD + 3):
            assert cube(1.5) == 3.375  # not a machine integer: interpreted
            assert len(hosted.messages) == attempt
        assert "TypeMismatch" in hosted.messages[-1]
        assert cube.current_tier is Tier.COMPILED
        # the compiled code never ran
        assert cube.stats().calls == {"interpreter": THRESHOLD + 2}
        assert cube.stats().kinds == {"TypeMismatch": THRESHOLD + 2}
        assert len(failure_records(cube.breaker.function)) == THRESHOLD + 2
        assert _transitions(cube) == []

    def test_compiled_wrong_arity_is_left_to_the_interpreter(self, hosted):
        """The rerun applies the source ``Function`` to the arguments as
        given, so the interpreter's own arity rules answer: surplus
        arguments are ignored, missing ones are an evaluation error."""
        cube = _cube("compiled", hosted)
        assert cube(2, 99) == 8
        with pytest.raises(WolframEvaluationError):
            cube()
        assert len(hosted.messages) == cube.fallback_count == 2
        assert all("ArgumentCount" in m for m in hosted.messages)
        assert cube.stats().kinds == {"ArgumentCount": 2}
        assert cube.current_tier is Tier.COMPILED


def test_failure_log_names_each_engine_handle(hosted):
    """An engine-registered artifact's records carry the handle ``--stats``
    prints, so each function's log holds its own failures only."""
    hosted.run("cf = Compile[{{n, _Integer}}, n*n*n]")
    hosted.run("cg = Compile[{{n, _Integer}}, n*n]")
    hosted.run('ff = FunctionCompile[Function[{Typed[n, "MachineInteger"]},'
               " n*n*n]]")
    hosted.run('fg = FunctionCompile[Function[{Typed[n, "MachineInteger"]},'
               " n*n]]")
    for call in ("cf[10^7]", "cg[10^10]", "ff[10^7]", "fg[10^10]"):
        hosted.run(call)
    artifacts = {
        **{f"CompiledFunction[{handle}]": artifact for handle, artifact in
           hosted.extensions["bytecode_compiled_functions"].items()},
        **{f"CompiledCodeFunction[{handle}]": artifact for handle, artifact
           in hosted.extensions["compiled_code_functions"].items()},
    }
    assert len(artifacts) == 4
    for label, artifact in artifacts.items():
        assert artifact.breaker.function == label
        (record,) = failure_records(label)
        assert record.kind == "IntegerOverflow"
        assert record.tier is artifact.native_tier
        assert artifact.stats().kinds == {"IntegerOverflow": 1}


def test_stats_report_names_each_hosted_function_by_its_handle(hosted):
    """``--stats`` prints one ``<Artifact>[handle]: <summary>`` line per
    hosted function, the same shape for both compilers."""
    import io
    import re

    from repro.__main__ import _print_session_stats

    for name in ("ff", "fg"):
        hosted.run(f'{name} = FunctionCompile[Function[{{Typed[n, '
                   '"MachineInteger"]}, n + 1]]')
    hosted.run("cf = Compile[{{n, _Integer}}, n + 1]")
    hosted.run("ff[1]")
    out = io.StringIO()
    _print_session_stats(hosted, out)
    lines = [line for line in out.getvalue().splitlines()
             if line.startswith("Compiled")]
    assert [line.split(":")[0] for line in lines] == [
        "CompiledCodeFunction[1]", "CompiledCodeFunction[2]",
        "CompiledFunction[1]",
    ]
    for line in lines:
        assert re.fullmatch(r"Compiled\w*\[\d+\]: tier=\w+ calls\[.*\] "
                            r"reruns=\d+ kinds\[.*\]", line)


@pytest.mark.parametrize("source, argument", [
    ('Function[{Typed[n, "MachineInteger"]},'
     ' If[n < 1, 0, 1 + self[n - 1]]]', 100000),
    # an undeclared same-arity callee the interpreter does not define is
    # typed as a self-call (`Log10`, which it defines, is a compile error)
    ('Function[{Typed[x, "Real64"]}, selfLog[x] + 1.0]', 2.0),
])
def test_unbounded_native_recursion_is_a_classified_error(hosted, source,
                                                         argument):
    """Compiled code that exhausts the host stack raises the evaluator's
    ``WolframRecursionError``, standalone or hosted, never a raw
    ``RecursionError``."""
    with pytest.raises(WolframRecursionError):
        FunctionCompile(source)(argument)
    with pytest.raises(WolframRecursionError):
        FunctionCompile(source, evaluator=hosted)(argument)
    assert hosted.run("1 + 1").to_python() == 2


@pytest.mark.parametrize("tier, hook, callers", [
    ("template", "_native", ["call_converted", "__call__"]),
    ("compiled", "_native", ["call_converted", "__call__"]),
])
def test_no_frame_between_the_protocol_and_generated_code(tier, hook, callers):
    """The promoted-call path: generated code is entered straight from the
    governed call's protocol — the part past the boundary, which is where
    the hotspot gate enters too.  A compiled function with a scalar result
    has no tensor to repack, so its native runner is the generated entry."""
    cube = _cube(tier)
    seen = []

    def generated(n):
        frame = sys._getframe(1)
        for _ in callers:
            seen.append(frame.f_code.co_name)
            frame = frame.f_back
        return n

    if tier == "compiled":
        assert cube._native is cube._entry
    setattr(cube, hook, generated)
    assert cube(5) == 5
    assert seen == callers


def test_hosted_cfib_200_reaches_the_interpreter_in_three_failures(hosted):
    """§2.2's transcript, repeated: the compiled tier overflows at n = 93.
    With a bytecode rung in between this took six failures — the VM shares
    the compiled tier's int64 semantics and never returned a value."""
    hosted.run(
        'cfib = FunctionCompile[Function[{Typed[n, "MachineInteger"]},'
        " Module[{a = 0, b = 1, i = 1},"
        "  While[i <= n, Module[{t = a + b}, a = b; b = t]; i = i + 1]; a]]]"
    )
    (cfib,) = hosted.extensions["compiled_code_functions"].values()
    assert hosted.run("cfib[90]").to_python() == 2880067194370816120
    failures = 0
    while cfib.current_tier is not Tier.INTERPRETER:
        assert hosted.run("cfib[200]").to_python() == \
            280571172992510140037611932413038677189525
        failures += 1
    assert failures == THRESHOLD
    assert len(hosted.messages) == cfib.fallback_count == THRESHOLD
    assert _transitions(cfib) == [(Tier.COMPILED, Tier.INTERPRETER)]
    assert cfib.stats().calls == {"compiled": THRESHOLD + 1,
                                  "interpreter": THRESHOLD}
    assert hosted.run("cfib[200]").to_python() == \
        280571172992510140037611932413038677189525
    assert len(hosted.messages) == THRESHOLD  # no longer a failure
