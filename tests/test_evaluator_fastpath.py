"""The evaluator fast path changes cost, never behaviour.

**Same transcript.**  ``tests/golden/evaluator_transcript.json`` was
recorded at the commit *before* the evaluator's inner step was rewritten
(per-head plans, one argument pass, one ``Block`` per loop, a precompiled
call boundary).  Every line of every session below must still give the same
FullForm, the same messages, the same classified error kind and the same
``steps_used`` on an enclosing step-budget guard.  Regenerate the golden
only from a checkout whose behaviour *is* the reference::

    PYTHONPATH=/path/to/reference/src python tests/test_evaluator_fastpath.py

**Cost by count, not by clock.**  Python-level calls are counted with
``sys.setprofile``; the pins are CPython 3.11 upper bounds (3.12 inlines
comprehension frames that 3.11 counts).

Each session is a fresh engine whose lines run in order; every line is one
recorded input.  ``hosted`` sessions get ``install_engine_support``
(FunctionCompile, CompiledCodeFunction heads, hotspot promotion at the
default 2 / 16 thresholds); ``limits`` overrides ``(recursion_limit,
iteration_limit)`` so the limit trips stay inside Python's own stack.  The
corpus is evaluator behaviour, not a feature tour: every hold kind, the
structural attributes, ``Sequence`` splicing, heads that are not plain
symbols, attribute changes mid-session, loop-variable binding with every way
out of a loop, and the places an evaluated-stamp decides whether a node is
walked again (an OwnValue read twice, an iterator-less ``Do`` body).
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.compiler import install_engine_support
from repro.engine import Evaluator
from repro.errors import ReproError, WolframRuntimeError
from repro.mexpr import full_form, parse
from repro.runtime.guard import guard_scope
from repro.runtime.hotspot import HotspotProfiler

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "evaluator_transcript.json")

#: far above any session's need: the guard is there to *count* steps
_STEP_BUDGET = 10_000_000

_CF_SQUARE = (
    'cf = FunctionCompile[Function[{Typed[n, "MachineInteger"]}, n*n + 1]]'
)
_CF_REAL = 'cr = FunctionCompile[Function[{Typed[x, "Real64"]}, x*2.0]]'
_CF_TENSOR = (
    'ct = FunctionCompile[Function[{Typed[v, TypeSpecifier["Tensor"'
    '["Real64", 1]]]}, Total[v]]]'
)
_CF_EXPRESSION = (
    'ce = FunctionCompile[Function[{Typed[e, "Expression"]}, Length[e]]]'
)

SESSIONS: list[dict] = [
    # -- holds ----------------------------------------------------------
    {"name": "hold_builtin", "lines": [
        "Hold[1 + 1]",
        "HoldForm[1 + 1]",
        "HoldComplete[1 + 1]",
        "Hold[Evaluate[1 + 1]]",
        "Hold[Evaluate[1 + 1], 2 + 2]",
        "Hold[Evaluate[1, 2]]",
        "HoldComplete[Evaluate[1 + 1]]",
        "Hold[Hold[Evaluate[1 + 1]]]",
        "ReleaseHold[Hold[1 + 1]]",
        "ReleaseHold[Hold[1 + 1, 2]]",
        "Hold[Sequence[1, 2]]",
        "HoldComplete[Sequence[1, 2]]",
        "Hold[]",
    ]},
    {"name": "hold_user", "lines": [
        "SetAttributes[hf, HoldFirst]",
        "SetAttributes[hr, HoldRest]",
        "SetAttributes[ha, HoldAll]",
        "SetAttributes[hc, HoldAllComplete]",
        "SetAttributes[sh, SequenceHold]",
        "hf[1 + 1, 2 + 2]",
        "hf[]",
        "hf[Evaluate[1 + 1], 2 + 2]",
        "hr[1 + 1, 2 + 2, 3 + 3]",
        "hr[1 + 1]",
        "hr[1 + 1, Evaluate[2 + 2], 3 + 3]",
        "ha[1 + 1, Evaluate[2 + 2]]",
        "ha[Evaluate[x], x]",
        "hc[1 + 1, Evaluate[2 + 2], Sequence[1, 2]]",
        "sh[Sequence[1, 2], 1 + 1]",
        "ha[Sequence[1, 2]]",
        "hf[Sequence[1 + 1, 2], 3]",
        "ha[x_] := {x, Hold[x]}",
        "ha[1 + 1]",
    ]},
    # -- Flat / Orderless / OneIdentity / Listable -------------------------
    {"name": "structural_user", "lines": [
        "SetAttributes[fl, Flat]",
        "fl[1, fl[2, fl[3, 4]], 5]",
        "fl[fl[]]",
        "fl[a]",
        "SetAttributes[ol, Orderless]",
        'ol[c, a, b, 2, 1.5, "s", g[1], g[10], g[2]]',
        "ol[b]",
        "ol[]",
        "SetAttributes[fo, {Flat, Orderless, OneIdentity}]",
        "fo[c, fo[b, a]]",
        "fo[a]",
        "fo[fo[a]]",
        "SetAttributes[li, Listable]",
        "li[{1, 2}, {3, 4}]",
        "li[{1, 2}, x]",
        "li[{}, 1]",
        "li[{1, 2}, {3}]",
        "li[{{1, 2}, {3}}, 1]",
        "li[1, 2]",
    ]},
    {"name": "structural_builtin", "lines": [
        "a + b + c + d",
        "b + a + (d + c)",
        "Plus[]",
        "Plus[a]",
        "Times[a]",
        "Times[]",
        "1 + 2 + x + 3",
        "2*x*3",
        "{1, 2, 3} + 1",
        "{1, 2} + {3, 4}",
        "{1, 2} + {1, 2, 3}",
        "{1, 2}*{3, 4} + 1",
        "Sin[{0, 1.0}]",
        "{1, 2, 3}^2",
        "x + x",
        "z3 + z1 + z2 + z1",
    ]},
    # -- Sequence ---------------------------------------------------------
    {"name": "sequence", "lines": [
        "f[Sequence[1, 2], 3]",
        "f[Sequence[]]",
        "f[a, Sequence[b, Sequence[c, d]]]",
        "{Sequence[1, 2]}",
        "Sequence[1, 2]",
        "s = Sequence[1, 2]",
        "f[s]",
        "f[s, s]",
        "Plus[Sequence[1, 2], 3]",
        "g[x__] := {x}",
        "g[1, 2, 3]",
        "h[x___] := f[x, 0]",
        "h[]",
        "f[Identity[Sequence[1, 2]]]",
    ]},
    # -- heads ------------------------------------------------------------
    {"name": "ownvalue_heads", "lines": [
        "f = g",
        "f[1]",
        "g[x_] := x + 1",
        "f[2]",
        "k1 = k2",
        "k2 = k3",
        "k1[1]",
        "h = Function[x, x^2]",
        "h[3]",
        "{h[1], h[2]}",
        "p = Plus",
        "p[1, 2, p[3, 4]]",
        "p[b, a]",
    ]},
    {"name": "nonsymbol_heads", "lines": [
        "Function[x, x + 1][2]",
        "Function[{x, y}, x*y][2, 3]",
        "(#1 + #2 &)[1, 2]",
        "Function[x, Function[y, x + y]][1][2]",
        "f[1][2]",
        "f[1 + 1][2 + 2]",
        "(f + g)[x]",
        "1[2]",
        '"s"[1 + 1]',
        "Composition[f, g][x]",
        "Function[x, x][]",
        "Function[{x}, Return[x]; 2][5]",
        "Map[Function[v, v*v], {1, 2, 3}]",
        "Fold[Plus, 0, {1, 2, 3}]",
        "Hold[x][1 + 1]",
    ]},
    {"name": "compiled_heads", "hosted": True, "lines": [
        _CF_SQUARE,
        "cf[3]",
        "cf[4] + cf[5]",
        "{cf[1], cf[2]}",
        "cf[2.5]",
        "cf[1, 2]",
        "cf[x]",
        "cf[3000000000000]",
        "cf[10^30]",
        "Table[cf[k], {k, 3}]",
        _CF_REAL,
        "cr[2]",
        "cr[1.5]",
        'cr["a"]',
        "cr[True]",
        _CF_TENSOR,
        "ct[{1.0, 2.0, 3.5}]",
        "ct[{1, 2}]",
        "ct[3]",
        _CF_EXPRESSION,
        "ce[{1, 2, 3}]",
        "ce[f[x, y]]",
    ]},
    # -- attribute changes mid-session ------------------------------------
    {"name": "attribute_changes", "lines": [
        "af[1 + 1]",
        "SetAttributes[af, HoldAll]",
        "af[1 + 1]",
        "Attributes[af]",
        "SetAttributes[af, Listable]",
        "Attributes[af]",
        "ClearAttributes[af, HoldAll]",
        "af[1 + 1]",
        "ClearAll[af]",
        "Attributes[af]",
        "af[1 + 1]",
        "ag[b, a]",
        "SetAttributes[ag, Orderless]",
        "ag[b, a]",
        "ag[x_, y_] := {x, y}",
        "ag[2, 1]",
        "Clear[ag]",
        "ag[2, 1]",
        "Attributes[Plus]",
    ]},
    {"name": "attribute_shadowing", "lines": [
        "Plus[1 + 1, b, a]",
        "SetAttributes[Plus, HoldAll]",
        "Attributes[Plus]",
        "Plus[1 + 1, b, a]",
        "Plus[{1, 2}, 1]",
        "ClearAll[Plus]",
        "Attributes[Plus]",
        "Plus[1 + 1, b, a]",
        "SetAttributes[Hold, Listable]",
        "Hold[1 + 1]",
        "Hold[{1, 2}]",
    ]},
    # -- loop binding ------------------------------------------------------
    {"name": "loop_binding", "lines": [
        "k = 5",
        "Table[k, {k, 3}]",
        "k",
        "Table[k, {k, {k, 2}}]",
        "Table[f[k], {k, {k, 2}}]",
        "Table[i = i + 10; i, {i, 3}]",
        "i",
        "Table[Clear[m]; m, {m, 2}]",
        "m",
        "q[1] = 7",
        "Table[q, {q, 2}]",
        "q[1]",
        "q",
        "Table[q[1], {q, 2}]",
        "Table[{i, j}, {i, 3}, {j, i}]",
        "Table[i*j, {i, 2}, {j, i, 3}]",
        "acc = 0",
        "Do[acc = acc + i*j, {i, 3}, {j, i}]",
        "acc",
        "{i, j}",
        "Table[j, {i, 2}, {j, {i, i + 1}}]",
        "Table[i, {i, 2}, {i, 3}]",
    ]},
    {"name": "loop_ranges", "lines": [
        "Table[x, {x, 0, 1, 0.25}]",
        "Table[x, {x, 5, 1, -2}]",
        "Table[x, {x, 1.5, 3}]",
        "Table[x, {x, 3, 1}]",
        "Table[x, {x, 0}]",
        "Table[1, {3}]",
        "Table[y, 2]",
        "Table[x, {x, {a, b, c}}]",
        "Table[x, {x, 1, 2, 0}]",
        "Table[x, {x, a, b}]",
        "Table[x, {1, 3}]",
        "Table[x, {x, 2.5}]",
        "Table[x, {x, 1, 2, 1/2}]",
        "Sum[i, {i, 10}]",
        "Sum[i*j, {i, 3}, {j, 2}]",
        "Product[i, {i, 5}]",
        "n = 0",
        "Do[n++, {4}]",
        "n",
        "Do[n += i, {i, 10, 1, -3}]",
        "n",
        "MemoryConstrained[Table[i, {i, 100000}], 1000]",
        "MemoryConstrained[Table[i, {i, 10}], 100000]",
        "MemoryConstrained[Do[Null, {i, 1.0, 100000.0}], 1000, oops]",
        "TimeConstrained[Do[Null, {i, 5}], 100]",
    ]},
    {"name": "loop_exits", "lines": [
        "k = 9",
        "k[1] = 10",
        "r = {}",
        "Do[If[k > 2, Break[]]; AppendTo[r, k], {k, 5}]",
        "r",
        "{k, k[1]}",
        "Table[If[k == 3, Break[]]; k, {k, 5}]",
        "{k, k[1]}",
        "Table[If[k == 2, Continue[]]; k, {k, 3}]",
        "{k, k[1]}",
        "Catch[Do[If[k == 2, Throw[k]], {k, 5}]]",
        "{k, k[1]}",
        "Catch[Table[Do[If[j == 2, Throw[{k, j}]], {j, 3}], {k, 2}]]",
        "{k, k[1], j}",
        "Do[If[k == 2, Return[k]], {k, 4}]",
        "{k, k[1]}",
        "Table[If[k == 2, Abort[]]; k, {k, 3}]",
        "{k, k[1]}",
        "CheckAbort[Do[If[k == 2, Abort[]], {k, 3}], caught[k]]",
        "{k, k[1]}",
        "Do[Do[If[j == 2, Break[]]; AppendTo[r, {k, j}], {j, 3}], {k, 2}]",
        "r",
        "Table[Table[If[j == 2, Continue[]]; j, {j, 3}], {k, 2}]",
    ]},
    {"name": "loop_limits", "limits": (64, 128), "lines": [
        "t = 3",
        "t[1] = 4",
        "rr[n_] := 1 + rr[n + 1]",
        "Table[rr[t], {t, 2}]",
        "{t, t[1]}",
        "ii[n_] := ii[n + 1]",
        "Do[ii[t], {t, 2}]",
        "{t, t[1]}",
        "x = x + 1",
        "x",
        "gg[n_] := gg[gg[n]]",
        "gg[0]",
        "ff[n_] := ff[n]",
        "ff[1]",
    ]},
    # -- where a stamp decides whether a node is walked again ---------------
    {"name": "stamps", "lines": [
        "x = {1, 2, 3}",
        "{x, x}",
        "x",
        "Length[x] + Total[x]",
        "Do[fz[1, 2], {3}]",
        "Do[{1, 2} + {1, 2, 3}, {2}]",
        "y := fz[1, 2]",
        "{y, y}",
        "First[{fz[1, 2]}]",
        "w[v_] := v",
        "w[fz[1, fz[2]]]",
        "w[{1, 2} + {1, 2, 3}]",
        "big = Table[fz[i], {i, 20}]",
        "Length[big]",
        "big[[2]]",
        "CompoundExpression[a, fz[fz[1]]]",
        "fz[1 + 1, fz[2 + 2]]",
        "a = b",
        "b = 1",
        "a",
        "c1 = c2; c2 = c3; c3 = 7; c1",
    ]},
    # -- everyday evaluation -------------------------------------------------
    {"name": "definitions", "lines": [
        "fib[0] = 0",
        "fib[1] = 1",
        "fib[n_] := fib[n - 1] + fib[n - 2]",
        "fib[10]",
        "pos[x_] /; x > 0 := yes",
        "pos[x_] := no",
        "{pos[1], pos[-1], pos[z]}",
        "ev[x_?EvenQ] := even",
        "{ev[2], ev[3]}",
        "ty[x_Integer] := int; ty[x_Real] := real; ty[_] := other",
        "{ty[1], ty[1.0], ty[a]}",
        "l = {1, 2, 3}",
        "l[[2]] = 5",
        "l",
        "n = 0; n++; ++n; n += 2; n",
        "{a, b} = {1, 2}",
        "a + b",
        "Module[{u = 2, v}, v = u^2; u + v]",
        "Block[{a = 10}, a + b]",
        "a",
        "With[{c = 3}, c*c]",
        "If[a > 0, pos1, neg1]",
        "If[z > 0, pos1, neg1]",
        "Which[a > 1, one, a == 1, two, True, three]",
        "f[x] /. x -> 2",
        "{1, 2, 3} /. 2 -> two",
        "Clear[fib]",
        "fib[3]",
    ]},
    {"name": "library", "lines": [
        "Expand[(x + y + 1)^3]",
        "D[x^3*Sin[x], x]",
        "Select[Sort[{5, 3, 8, 1}], EvenQ]",
        "Nest[Function[v, 2*v], 1, 5]",
        "NestList[f, x, 3]",
        "Total[Range[10]]",
        "Reverse[{a, b, c}]",
        'StringJoin[Map[ToUpperCase, {"ab", "cd"}]]',
        'StringLength["hello"]',
        "While[False, 1]",
        "s = 0; For[i = 1, i <= 4, i++, s += i]; s",
        "1/0",
        "Sqrt[2]*Sqrt[2]",
        "2^100",
        "1.5 + 2",
        "Mod[7, 3] + Quotient[7, 3]",
        "ToExpression[\"1 + 2\"]",
        "N[Pi]",
    ]},
    # -- hosted: promotion, gates, redefinition ------------------------------
    {"name": "promotion", "hosted": True, "lines": [
        "fib[0] = 0",
        "fib[1] = 1",
        "fib[n_] := fib[n - 1] + fib[n - 2]",
        "Table[fib[k], {k, 0, 15}]",
        "fib[16]",
        "poly[x_] := 3*x*x + 1",
        "Table[poly[k], {k, 20}]",
        "poly[5]",
        "poly[2.5]",
        "poly[z]",
        "poly[5] + poly[6]",
        "other = 1",
        "poly[5]",
        "Block[{poly}, poly[3]]",
        "poly[3]",
        "poly[x_] := x + 1",
        "poly[3]",
        "Table[poly[k], {k, 20}]",
        "lg[x_Real] := 3.7*x*(1.0 - x)",
        "Total[Table[lg[0.05*k], {k, 1, 20}]]",
        "lg[2]",
    ]},
    {"name": "promotion_blocked", "hosted": True, "lines": [
        "tb[0] = 0; tb[1] = 1; tb[2] = 4; tb[3] = 9; tb[4] = 16; tb[5] = 25;"
        " tb[6] = 36; tb[7] = 49; tb[8] = 64",
        "tb[n_] := -1",
        "Table[tb[Mod[3*k, 12]], {k, 1, 24}]",
        "sy[x_] := x + sym",
        "Table[sy[k], {k, 4}]",
        "sy[2]",
        "sy[x_] := x + sym",
        "Table[sy[k], {k, 4}]",
        "ov[n_] := n*n*n",
        "Table[ov[k], {k, 20}]",
        "ov[3000000000000]",
        "ov[3000000000000]",
        "ov[3000000000000]",
        "ov[2]",
    ]},
]


def _session(spec: dict) -> Evaluator:
    limits = spec.get("limits")
    evaluator = Evaluator(*limits) if limits else Evaluator()
    if spec.get("hosted"):
        install_engine_support(evaluator)
        # whatever REPRO_* says in this environment, the first promotion is
        # at the second application, where the sessions were written (and
        # the golden recorded) to promote
        evaluator.hotspot = HotspotProfiler(threshold=2)
    return evaluator


def transcript(spec: dict) -> list[dict]:
    """One row per line: what a user, an operator and a quota would see."""
    evaluator = _session(spec)
    rows = []
    for line in spec["lines"]:
        seen = len(evaluator.messages)
        row: dict = {"in": line}
        with guard_scope(step_budget=_STEP_BUDGET) as guard:
            try:
                row["out"] = full_form(
                    evaluator.evaluate_protected(parse(line))
                )
            except WolframRuntimeError as error:
                row["error"] = error.kind
            except ReproError as error:
                row["error"] = type(error).__name__
        row["messages"] = evaluator.messages[seen:]
        row["steps"] = guard.steps_used
        rows.append(row)
    return rows


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_the_corpus_is_large_enough_to_mean_something():
    assert sum(len(spec["lines"]) for spec in SESSIONS) >= 150
    assert set(_golden()) == {spec["name"] for spec in SESSIONS}


@pytest.mark.parametrize("spec", SESSIONS, ids=lambda spec: spec["name"])
def test_same_transcript_as_the_reference_commit(spec):
    expected = _golden()[spec["name"]]
    got = transcript(spec)
    assert [row["in"] for row in got] == [row["in"] for row in expected], (
        "corpus and golden disagree on the inputs; regenerate the golden "
        "from the reference commit (see the module docstring)"
    )
    for row, reference in zip(got, expected):
        assert row == reference, f"{spec['name']}: {row['in']}"


def test_overlay_sessions_do_not_share_plans():
    """Plans live on the evaluator: two sessions over one base image may
    give the same symbol different attributes, and the shared base
    ``Definition`` is never written."""
    from repro.server import BaseImage

    base = BaseImage(prelude=("SetAttributes[held, HoldAll]",))
    first = Evaluator(state=base.create_state())
    second = Evaluator(state=base.create_state())

    def run(session, source):
        return full_form(session.run(source))

    assert run(first, "held[1 + 1]") == "held[Plus[1, 1]]"
    assert run(second, "held[1 + 1]") == "held[Plus[1, 1]]"
    run(first, "ClearAll[held]")
    assert run(first, "held[1 + 1]") == "held[2]"
    assert run(second, "held[1 + 1]") == "held[Plus[1, 1]]"
    run(second, "SetAttributes[held, Listable]")
    assert run(second, "held[{1 + 1}]") == "List[held[Plus[1, 1]]]"
    assert run(first, "held[{1 + 1}]") == "held[List[2]]"
    assert base.definitions["held"].attributes == frozenset({"HoldAll"})


# -- cost by count, not by clock ---------------------------------------------------


def _python_calls(function) -> list:
    """The code objects of every Python-level call ``function`` makes."""
    calls = []

    def profiler(frame, event, _argument):
        if event == "call":
            calls.append(frame.f_code)

    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("source,bound", [
    ("f[1, 2]", 10),                       # 68 before the fast path
    ("a + b + c + d", 40),                 # 151
    ("Table[g[k], {k, 1, 100}]", 4500),    # 17,653
])
def test_python_calls_per_evaluation(source, bound):
    evaluator = Evaluator()
    expression = parse(source)
    calls = _python_calls(lambda: evaluator.evaluate(expression))
    assert len(calls) <= bound, f"{source}: {len(calls)} Python calls"


def test_python_calls_of_one_promoted_call():
    evaluator = _session({"hosted": True})
    evaluator.run("poly[x_] := 3*x*x*x - 2*x*x + x - 7")
    evaluator.run("Table[poly[k], {k, 1, 40}]")
    assert evaluator.hotspot.promoted["poly"].tier_kind == "compiled"
    expression = parse("poly[5]")
    calls = _python_calls(lambda: evaluator.evaluate(expression))
    native = [
        index for index, code in enumerate(calls)
        if code.co_filename.startswith("<wolfram-compiled")
    ]
    assert native, "poly[5] did not reach the compiled entry"
    # 71 / 49 before the fast path, 16 / 12 before the gate took the
    # arguments as they stand and converted each once, 10 / 7 while a
    # method call counted each governed call; 9 / 6 with a bare increment
    # (each count includes the measuring lambda's own frame)
    assert len(calls) <= 9, len(calls)
    assert native[0] <= 6, native[0]


def test_one_state_version_bump_per_loop_value():
    """``Block`` around the loop, a rebind (one ``touch``) per value."""
    evaluator = Evaluator()
    for count in (0, 1, 50):
        before = evaluator.state.state_version
        evaluator.run(f"Table[k, {{k, 1, {count}}}]")
        assert evaluator.state.state_version - before <= count + 2
    before = evaluator.state.state_version
    evaluator.run("Table[k, {k, 1, 0}]")
    assert evaluator.state.state_version == before  # nothing bound


def test_record_on_a_blocked_definition_never_walks_its_rules():
    class Unwalkable(list):
        def __iter__(self):
            raise AssertionError("record() iterated the rule list")

    class UnwalkableFacts(dict):
        def __iter__(self):
            raise AssertionError("record() iterated the facts")

        values = items = keys = __iter__

    evaluator = _session({"hosted": True})
    for k in range(12):
        evaluator.run(f"many[{k}] = {k}")
    evaluator.run("many[n_] := -1")
    evaluator.run("Table[many[k], {k, 20}]")
    profiler = evaluator.hotspot
    assert [e.action for e in profiler.events if e.name == "many"] == [
        "blocked"
    ]
    definition = evaluator.state.lookup("many")
    definition.patterns = Unwalkable(definition.patterns)
    definition.facts = UnwalkableFacts(definition.facts)
    events = len(profiler.events)
    expression = parse("many[3]")
    for _ in range(5):
        profiler.record(evaluator, "many", definition, expression)
    assert len(profiler.events) == events


# -- lazy iterator ranges ----------------------------------------------------------

#: runs in a fresh interpreter, so peak RSS is this drive's own
_RANGE_DRIVE = '''
import json, resource, time
from repro.engine import Evaluator

session = Evaluator()
session.run("n = 0")
session.run("Do[Null, {i, 1, 100}]")
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
started = time.monotonic()
integers = str(session.run("TimeConstrained[Do[n++, {i, 1, 10^12}], 0.5]"))
reals = str(session.run("TimeConstrained[Do[n++, {x, 0.5, 10.0^12}], 0.25]"))
elapsed = time.monotonic() - started
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"integers": integers, "reals": reals, "elapsed": elapsed,
                  "grown_kb": after - before,
                  "n": session.run("n").to_python()}))
'''


def test_a_huge_range_runs_its_body_and_aborts_on_time():
    import subprocess

    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        p for p in (
            os.path.join(os.path.dirname(__file__), os.pardir, "src"),
            environment.get("PYTHONPATH"),
        ) if p
    )
    completed = subprocess.run(
        [sys.executable, "-c", _RANGE_DRIVE], env=environment,
        capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout)
    assert report["integers"] == report["reals"] == "$Aborted"
    assert report["n"] > 1000, "the body never ran"
    assert report["elapsed"] < 2.0          # 0.5 s + 0.25 s of deadlines
    assert report["grown_kb"] < 5 * 1024    # eager ranges grew 40 MB here


if __name__ == "__main__":
    os.environ["REPRO_ARTIFACT_CACHE"] = "off"
    recorded = {spec["name"]: transcript(spec) for spec in SESSIONS}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {sum(map(len, recorded.values()))} rows to {GOLDEN}",
          file=sys.stderr)
