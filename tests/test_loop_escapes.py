"""``Break[]``, ``Continue[]`` and ``Return[]`` in compiled loops, on every
tier that compiles them, checked against the interpreter.

``Do`` and ``For`` continue at their step; a ``Break[]`` or ``Continue[]``
whose innermost loop is an iterator's (``Table``, ``Sum``, ``Map``, ...)
is declined.  Every run has a step budget, so a loop that never ends fails
with a budget error instead of hanging the suite.
"""

import pytest

from repro.bytecode import compile_function
from repro.compiler import FunctionCompile
from repro.engine import Evaluator
from repro.errors import BytecodeCompilerError, CompilerError
from repro.mexpr import parse
from repro.runtime.guard import guard_scope
from repro.template_jit import compile_template_function

BUDGET = 100_000

#: (body over n, its value at n = 10)
CONTINUES = [
    ("Module[{s = 0}, Do[If[Mod[i, 3] == 0, Continue[]]; s += i, {i, n}]; s]",
     37),
    ("Module[{s = 0}, For[i = 1, i < n, i++,"
     " If[Mod[i, 3] == 0, Continue[]]; s += i]; s]", 27),
    ("Module[{s = 0}, For[i = 1, i <= n, i++, If[Mod[i, 3] == 0, Continue[]];"
     " If[i > 7, Break[]]; s += i]; s + 100 i]", 819),
    ("Module[{s = 0}, Do[Do[If[j == i, Continue[]]; s += j, {j, 3}],"
     " {i, n}]; s]", 54),
]

#: a stepped iterator, which the template JIT declines
STEPPED = ("Module[{s = 0}, Do[If[Mod[i, 3] == 0, Continue[]]; s += i,"
           " {i, 2, n, 2}]; s]", 24)


def _interpreted(body: str, n: int):
    with guard_scope(step_budget=BUDGET):
        return Evaluator().run(f"Function[{{n}}, {body}][{n}]").to_python()


@pytest.mark.parametrize("target", ["Python", "WVM"])
@pytest.mark.parametrize("body, at_ten", [*CONTINUES, STEPPED])
def test_continue_runs_the_step(body, at_ten, target):
    f = FunctionCompile(f'Function[{{Typed[n, "MachineInteger"]}}, {body}]',
                        TargetSystem=target)
    for n in (0, 3, 10):
        with guard_scope(step_budget=BUDGET):
            value = f(n)
        assert value == _interpreted(body, n)
    with guard_scope(step_budget=BUDGET):
        assert f(10) == at_ten


@pytest.mark.parametrize("compile_baseline", [
    compile_function,
    lambda specs, body: compile_template_function(specs, body),
], ids=["bytecode", "template"])
@pytest.mark.parametrize("body, at_ten", CONTINUES)
def test_baseline_tiers_continue_at_the_step(body, at_ten, compile_baseline):
    f = compile_baseline(parse("{{n, _Integer}}"), parse(body))
    for n in (0, 3, 10):
        with guard_scope(step_budget=BUDGET):
            assert f(n) == _interpreted(body, n)


def test_bytecode_break_and_return():
    body = ("Module[{s = 0}, Do[If[i == 7, Return[i]]; If[s > 50, Break[]];"
            " s += i, {i, n}]; s]")
    f = compile_function(parse("{{n, _Integer}}"), parse(body))
    for n in (3, 10, 40):
        with guard_scope(step_budget=BUDGET):
            assert f(n) == _interpreted(body, n)


@pytest.mark.parametrize("body", [
    "Table[If[i == 2, Break[]]; i, {i, n}]",
    "Table[If[i == 2, Continue[]]; i, {i, n}]",
    "Sum[If[i == 2, Break[]]; i, {i, n}]",
    "Sum[If[i == 2, Continue[]]; i, {i, 1, n}]",
])
def test_escape_from_an_iterator_is_declined(body):
    with pytest.raises(CompilerError, match="Table or Sum"):
        FunctionCompile(f'Function[{{Typed[n, "MachineInteger"]}}, {body}]')
    with pytest.raises(BytecodeCompilerError):
        compile_function(parse("{{n, _Integer}}"), parse(body))


def test_loop_inside_an_iterator_may_break():
    body = ("Table[Module[{k = 0}, While[True, k++; If[k >= i, Break[]]]; k],"
            " {i, n}]")
    f = FunctionCompile(f'Function[{{Typed[n, "MachineInteger"]}}, {body}]')
    with guard_scope(step_budget=BUDGET):
        assert list(f(4).data) == _interpreted(body, 4) == [1, 2, 3, 4]


@pytest.mark.parametrize("head", ["Break", "Continue"])
def test_escape_outside_a_loop_is_declined(head):
    with pytest.raises(CompilerError, match="outside of a loop"):
        FunctionCompile(f'Function[{{Typed[n, "MachineInteger"]}}, {head}[]]')


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("body, values", [
    ("If[n > 0, Return[1], Return[2]]", (1, 2)),
    ("Module[{i = 0}, While[True, i++; If[i > n, Break[], Break[]]]; i]",
     (1, 1)),
])
def test_if_whose_arms_both_leave_has_no_join(body, values, level):
    """Both arms leave, so lowering makes no join block: nothing is left
    unterminated for the verifier to reject at level 0, where no CFG
    clean-up runs."""
    f = FunctionCompile(f'Function[{{Typed[n, "MachineInteger"]}}, {body}]',
                        OptimizationLevel=level)
    with guard_scope(step_budget=BUDGET):
        assert (f(3), f(-3)) == values == (
            _interpreted(body, 3), _interpreted(body, -3))
