"""§6's abort-check observations:

* Mandelbrot — "the extra abort checking overhead at the function header is
  insignificant to the overall runtime" (heavy loop bodies);
* Blur / Histogram — "abort checking inhibits" the tight loops (biggest
  impact).

Abort checking toggles per function via ``AbortHandling`` — the paper's
``Native`AbortInhibit`` decorator maps to this option.
"""

from __future__ import annotations

import pytest

from repro.benchsuite import best_of, programs
from repro.benchsuite import data as workloads
from repro.compiler import FunctionCompile


@pytest.fixture(scope="module")
def histogram_input(sizes):
    return workloads.histogram_data(sizes.histogram_length)


def test_abort_overhead_shape(histogram_input, sizes, capsys):
    """Histogram pays a visible abort tax; Mandelbrot's is smaller
    (relative to its heavy per-iteration work)."""
    hist_on = FunctionCompile(programs.NEW_HISTOGRAM)
    hist_off = FunctionCompile(programs.NEW_HISTOGRAM, AbortHandling=False)
    # a tax of a few percent on millisecond calls: the minimum needs more
    # than three repeats to shake off a neighbour's CPU burst
    t_on, bins_on = best_of(hist_on, histogram_input, repeats=9)
    t_off, bins_off = best_of(hist_off, histogram_input, repeats=9)
    assert bins_on.data == bins_off.data
    hist_tax = t_on / t_off

    points = workloads.mandelbrot_points(max(sizes.mandel_resolution, 0.2))
    mandel_on = FunctionCompile(programs.NEW_MANDELBROT)
    mandel_off = FunctionCompile(programs.NEW_MANDELBROT, AbortHandling=False)

    def drive(kernel):
        total = 0
        for point in points:
            total += kernel(point)
        return total

    t_on, total_on = best_of(drive, mandel_on, repeats=9)
    t_off, total_off = best_of(drive, mandel_off, repeats=9)
    assert total_on == total_off
    mandel_tax = t_on / t_off

    with capsys.disabled():
        print(f"\nAbort-check overhead: histogram {hist_tax:.2f}x, "
              f"mandelbrot {mandel_tax:.2f}x "
              "(paper: histogram/blur hurt most, mandelbrot insignificant)")
    # abort checks never make code faster; tight loops pay the most
    assert hist_tax >= 0.95
    assert mandel_tax < hist_tax + 0.5  # mandelbrot no worse than histogram


def test_abort_structurally_removed():
    source_off = FunctionCompile(
        programs.NEW_HISTOGRAM, AbortHandling=False
    ).generated_source
    assert "_check_abort" not in source_off
