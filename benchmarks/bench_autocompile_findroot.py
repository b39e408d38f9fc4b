"""§1's auto-compilation claim: FindRoot[Sin[x] + E^x, {x, 0}] runs ~1.6×
faster when the solver auto-compiles its objective (and derivative).

We time FindRoot with the auto-compile hook installed vs removed; the
speedup factor is printed and asserted > 1.
"""

from __future__ import annotations

import pytest

from repro.benchsuite import best_of
from repro.compiler import disable_auto_compilation, enable_auto_compilation
from repro.engine import Evaluator
from repro.mexpr import parse

HARDER = "FindRoot[Cos[x]*Exp[x] - x*x + Sin[3.0*x], {x, 0.5}]"


def _solve_many(evaluator, source: str, repetitions: int = 30):
    program = parse(source)
    result = None
    for _ in range(repetitions):
        result = evaluator.evaluate(program)
    return result


def test_autocompile_speedup_factor(capsys):
    """The paper reports 1.6×; we assert >1 and print our factor."""
    interpreted = Evaluator()
    disable_auto_compilation(interpreted)
    compiled = Evaluator()
    enable_auto_compilation(compiled)
    _solve_many(compiled, HARDER, 1)  # compile outside the timed region

    t_interp, root_interp = best_of(_solve_many, interpreted, HARDER, 10)
    t_compiled, root_compiled = best_of(_solve_many, compiled, HARDER, 10)
    factor = t_interp / t_compiled
    with capsys.disabled():
        print(f"\nFindRoot auto-compilation speedup: {factor:.2f}x "
              f"(paper: 1.6x)")
    assert factor > 1.0

    # both agree on the root
    a = root_interp.args[0].args[1].to_python()
    b = root_compiled.args[0].args[1].to_python()
    assert a == pytest.approx(b)
