"""Compile time is linear in program size — checked by count, not by clock.

A program of N sequential ``If``/``While`` statements over a fixed set of
variables has O(N) blocks, phis and calls.  Four things used to be done
once per item *over the whole function* (or the whole substitution, or the
whole subtree), which made them O(N²): use replacement, predecessor-map
construction, macro re-expansion and substitution copies.  Each is counted
here through a wrapper around the one method that does it, at N = 8 and
N = 32; four times the statements may cost at most six times the calls.
"""

from __future__ import annotations

from functools import cached_property

import pytest

from repro.compiler.macros import MacroExpander
from repro.compiler.pipeline import CompilerPipeline
from repro.compiler.types.unify import Substitution
from repro.compiler.wir.analysis import CFG
from repro.compiler.wir.instructions import Instruction
from repro.mexpr import parse

SMALL, LARGE = 8, 32


def program(statements: int) -> str:
    """``statements`` alternating ``If``/``While`` statements, each reading
    and writing the same four variables (so every join and loop header
    needs phis for them)."""
    body = []
    for k in range(statements):
        if k % 2 == 0:
            body.append(f"If[a < n + {k}, a = a + b + c + {k}, b = b + a]")
        else:
            body.append(
                f"i = 0; While[i < {k}, c = c + a + b + i; i = i + 1]"
            )
    return (
        'Function[{Typed[n, "MachineInteger"]},'
        " Module[{a = 0, b = 1, c = 2, i = 0}, "
        + "; ".join(body) + "; a + b + c]]"
    )


@pytest.fixture()
def counts(monkeypatch):
    """Call counts of the four methods, keyed by what they measure."""
    calls = dict.fromkeys(
        ("replace_operand", "predecessor builds", "_expand_once",
         "Substitution.copy"), 0
    )

    def counted(key, original):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        Instruction, "replace_operand",
        counted("replace_operand", Instruction.replace_operand),
    )
    builds = cached_property(
        counted("predecessor builds", CFG.predecessors.func)
    )
    builds.__set_name__(CFG, "predecessors")
    monkeypatch.setattr(CFG, "predecessors", builds)
    monkeypatch.setattr(
        MacroExpander, "_expand_once",
        counted("_expand_once", MacroExpander._expand_once),
    )
    monkeypatch.setattr(
        Substitution, "copy", counted("Substitution.copy", Substitution.copy)
    )
    return calls


def test_four_times_the_statements_at_most_six_times_the_calls(counts):
    def compile_and_count(statements: int) -> dict:
        for key in counts:
            counts[key] = 0
        CompilerPipeline().compile_program(parse(program(statements)))
        return dict(counts)

    compile_and_count(SMALL)  # warm the environment's resolution memo
    small = compile_and_count(SMALL)
    large = compile_and_count(LARGE)
    for key in counts:
        assert large[key] <= 6 * small[key], (
            f"{key}: {small[key]} calls for {SMALL} statements, "
            f"{large[key]} for {LARGE} — superlinear"
        )
    # the counters are wired to something: a compile replaces uses,
    # builds predecessor maps and expands macros
    assert small["replace_operand"] and small["predecessor builds"]
    assert small["_expand_once"]
