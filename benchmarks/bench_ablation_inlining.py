"""§6's inlining ablation: "disabling function inline within the new
compiler results in a 10× slowdown for Mandelbrot over the C
implementation."

We compile Mandelbrot with the default policy (primitives splice inline)
and with ``InlinePolicy -> None`` (every primitive becomes a runtime-library
call) and report both against the hand-optimized reference.
"""

from __future__ import annotations

import pytest

from repro.benchsuite import best_of, programs, reference
from repro.benchsuite import data as workloads
from repro.compiler import FunctionCompile


@pytest.fixture(scope="module")
def points(sizes):
    return workloads.mandelbrot_points(max(sizes.mandel_resolution, 0.2))


def _drive(kernel, points):
    total = 0
    for point in points:
        total += kernel(point)
    return total


def test_inlining_ablation_factor(points, capsys):
    """Shape target: no-inline is substantially slower (paper: ~10× vs C)."""
    inlined = FunctionCompile(programs.NEW_MANDELBROT)
    no_inline = FunctionCompile(programs.NEW_MANDELBROT, InlinePolicy=None)
    t_in, total_in = best_of(_drive, inlined, points)
    t_out, total_out = best_of(_drive, no_inline, points)
    t_c, total_c = best_of(_drive, reference.mandelbrot_point, points)
    assert total_in == total_out == total_c

    with capsys.disabled():
        print(f"\nInlining ablation (Mandelbrot): reference {t_c*1000:.1f}ms,"
              f" inlined {t_in*1000:.1f}ms ({t_in/t_c:.1f}x),"
              f" no-inline {t_out*1000:.1f}ms ({t_out/t_c:.1f}x,"
              f" {t_out/t_in:.1f}x over inlined; paper: ~10x vs C)")
    assert t_out > 1.5 * t_in  # disabling inlining must hurt measurably
