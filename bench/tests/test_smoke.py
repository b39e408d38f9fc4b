"""Smoke test of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest bench/tests -q

Drives ``bench/run.py --quick`` and checks that every metric named in
``BENCHMARK.json`` is printed exactly once, with its unit, and that the
benchmark refuses to run where there is no ``src/repro`` to measure.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_quick_prints_every_metric_once_with_its_unit():
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--quick"],
        cwd=ROOT, text=True, capture_output=True, timeout=170)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()
            if line and not line.startswith(("#", "metric"))]
    spec = _spec()
    workloads = len(spec["workloads"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        matching = [row for row in rows if row[0] == metric["name"]]
        assert len(matching) == 1, metric["name"]
        assert matching[0][1] == metric["unit"], metric["name"]
        values = matching[0][2:]
        assert len(values) == workloads
        assert any(value != "-" for value in values), metric["name"]
    assert len(rows) == len(spec["end_to_end"]) + len(spec["per_layer"])
    assert done.stdout.splitlines()[-1] == "# failed ops: 0"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernels_hot",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, capture_output=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
