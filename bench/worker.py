"""One workload in one fresh process; started by ``run.py``, which sets the
environment.  Prints one JSON object: everything this process measured.

Modes: ``run`` measures whole passes, untraced, until ``--seconds`` have
gone by; ``trace`` runs untraced and traced passes in turn, writes the
Chrome trace, and with ``--layers 1`` runs the per-layer probes.  The
passes are printed as measured; ``run.py`` turns them into metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time

from harness import layers as layer_probes
from harness import workloads
from harness.measure import CpuProbe
from harness.spans import Recorder

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def run_passes(workload, cpu: CpuProbe, seconds: float, min_passes: int,
               max_passes: int | None = None, traced: bool = False) -> list:
    """Whole passes until ``seconds`` have gone by: a pass is never cut
    short, so the op counts of a pass repeat exactly.  Each pass carries
    the calibration samples taken from just before it to just after it
    (``run_op`` takes more between its ops)."""
    passes = []
    deadline = time.monotonic() + seconds
    gc.collect()
    cpu.sample()
    while len(passes) < min_passes or time.monotonic() < deadline:
        first = len(cpu.samples) - 1
        ops = workload.run_pass()
        gc.collect()
        cpu.sample()
        passes.append({
            "seconds": workload.pass_seconds(ops), "traced": traced,
            "calibration": cpu.samples[first:],
            "ops": [(op.kind, op.seconds, op.ok) for op in ops]})
        if max_passes is not None and len(passes) >= max_passes:
            break
    return passes


def trace(workload, cpu: CpuProbe, recorder: Recorder, seconds: float,
          max_passes: int | None) -> dict:
    """Plain and traced passes take turns, so both see the same machine."""
    from repro.artifacts import get_store

    store = get_store()
    before = dict(store.stats)
    passes, traced = [], 0
    deadline = time.monotonic() + seconds
    while traced < 2 or time.monotonic() < deadline:
        passes += run_passes(workload, cpu, 0, 1)
        recorder.enabled = True
        passes += run_passes(workload, cpu, 0, 1, traced=True)
        recorder.enabled = False
        traced += 1
        if max_passes is not None and traced >= max_passes:
            break
    hits = store.stats["hits"] - before["hits"]
    lookups = hits + store.stats["misses"] - before["misses"]
    os.makedirs(OUT_DIR, exist_ok=True)
    recorder.write_chrome_trace(
        os.path.join(OUT_DIR, f"trace-{workload.name}.json"))
    self_seconds = recorder.self_seconds_by_layer()
    total = sum(self_seconds.values())
    return {
        "passes": passes,
        "spans": len(recorder.spans),
        "self_ms_per_pass": {
            layer: layer_seconds * 1e3 / traced
            for layer, layer_seconds in sorted(self_seconds.items())},
        "layer_metrics": {
            "bench.harness_self_frac":
                self_seconds.get("bench", 0.0) / total if total else 0.0,
            "artifacts.hit_ratio": hits / lookups if lookups else 0.0,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--mode", required=True, choices=("run", "trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--passes", type=int, default=None,
                        help="stop after this many passes (--quick)")
    parser.add_argument("--layers", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    args = parser.parse_args()

    recorder = Recorder()
    cpu = CpuProbe()
    cpu.sample()  # how fast the CPU is as set-up begins ...
    cpu.sample()
    ctx = workloads.Context(seed=args.seed, scale=args.scale,
                            recorder=recorder, cpu=cpu,
                            cache_dir=os.environ["REPRO_ARTIFACT_CACHE"])
    workload = workloads.build(args.workload, ctx)
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's reading at
    # spawn and this one are on the same clock
    setup_seconds = time.monotonic() - args.spawned_at
    cpu.sample()  # ... and as it ends
    cpu.sample()
    result = {"workload": args.workload, "seed": args.seed,
              "setup": {"seconds": setup_seconds,
                        "calibration": list(cpu.samples)}}
    try:
        if args.mode == "run":
            result["passes"] = run_passes(workload, cpu, args.seconds, 2,
                                          args.passes)
        else:
            result.update(trace(workload, cpu, recorder, args.seconds,
                                args.passes))
        result["counts"] = workload.counts()
        result["peak_rss_mb"] = workload.peak_rss_mb()
    finally:
        workload.close()
    if args.mode == "trace" and args.layers:
        result["layer_metrics"].update(layer_probes.measure_all(
            args.seed, args.scale, ctx.cache_dir))
        result["exact_layer_metrics"] = layer_probes.EXACT
    import numpy

    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
