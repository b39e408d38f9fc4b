"""Figure 2 (§6): the seven benchmarks on every tier, as the paper-style
normalized table.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_figure2.py -q -s``

``Figure2Harness`` times the hand-optimized reference ("C" stand-in), the
new compiler and the bytecode compiler on identical inputs and checks the
answers agree; the test prints the Figure-2 row layout (normalized to the
reference, bytecode display-capped at 2.5 with the actual slowdown
annotated, QSort reported unsupported for bytecode).  ``bench/run.py
--workload kernels_hot`` is the measurement of record for the
new-compiler column; this table is the only place the bytecode column is
timed on all seven kernels.
"""

from __future__ import annotations


def test_figure2_normalized_table(harness, capsys):
    """Prints the Figure-2 rows (normalized; bytecode capped at 2.5)."""
    results = harness.run_all()
    table = harness.format_table(results)
    with capsys.disabled():
        print()
        print(table)
    for result in results:
        ratio = result.ratio("new")
        assert ratio is not None and ratio < 25, (
            f"{result.name}: new compiler unexpectedly slow ({ratio:.1f}x)"
        )
    # shape assertions from the figure
    by_name = {r.name: r for r in results}
    assert by_name["qsort"].tiers["bytecode"].seconds is None
    assert by_name["dot"].ratio("new") < 2.0          # shared BLAS ≈ parity
    for name in ("fnv1a", "mandelbrot", "histogram", "primeq"):
        assert by_name[name].ratio("bytecode") > 2.5  # beyond the figure cap
