"""The layered benchmark's one command.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in fresh subprocesses and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` every end-to-end metric of ``BENCHMARK.json``, with
``--trace 1`` every per-layer metric.  Without ``--workload`` it runs all
five workloads, one after another, untraced and traced, and prints every
metric once, by name, with its unit.  ``--quick`` is the same at 1/20 size
with one pass; ``--selfcheck`` repeats the runs and fails when an
end-to-end metric spreads beyond its bound or an exact count differs.

Workers print their passes as measured; the metrics are computed here
(``harness.measure.summarize``), from the pooled passes of a run.

This file imports nothing from ``repro``: it prepares a clean environment
(no ambient ``REPRO_*``, a fresh artifact store under ``bench/out/``,
``PYTHONHASHSEED=0``, one BLAS thread) and starts ``worker.py`` in it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from harness.measure import summarize

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKER_TIMEOUT = 170  # seconds; the contract allows a run 180

#: a run is this many fresh processes, one after another, each setting the
#: workload up and measuring its share of ``--seconds``: that is six
#: set-ups for ``setup_s``, and the passes of all of them are pooled, so
#: what differs from one process to the next (where its pages landed, what
#: the machine did for those few seconds) is averaged within a run
PROCESSES_PER_RUN = 6

#: ``op_tail_ms`` is this percentile of the ops of a run's quiet passes:
#: the highest of p99/p95/p90 that keeps ten samples beyond it when half of
#: a 16 s run is quiet — except ``interp_tierup``, where p90 falls on the
#: edge between the heaviest script (1 op in 12) and the next and would
#: flip between them, and p95 keeps about seven
TAIL_PERCENT = {"kernels_hot": 90, "compile_cold": 95, "compile_warm": 95,
                "interp_tierup": 95, "server_mix": 99}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def clean_environment(cache_dir: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [source] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                    if p])
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread: after a Dot, an idle BLAS worker spins on the other
    # CPU for a while, and on a 2-vCPU box that alone slows the *next*
    # kernel by up to 2x — an artefact of which op follows which
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    env["REPRO_ARTIFACT_CACHE"] = cache_dir
    return env


def provenance(seed: int) -> dict:
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, text=True,
                                  capture_output=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "HEAD") or "unknown",
            "dirty": None if status is None else bool(status),
            "nproc": os.cpu_count(), "seed": seed,
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def spawn_worker(workload: str, mode: str, seed: int, seconds: float,
                 scale: float = 1.0, passes: int | None = None,
                 layers: bool = False) -> dict:
    """Run ``worker.py`` once in a clean environment with a store of its
    own, and return the JSON object it printed."""
    cache_root = os.path.join(OUT_DIR, "cache")
    os.makedirs(cache_root, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=cache_root)
    command = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
               "--workload", workload, "--mode", mode, "--seed", str(seed),
               "--seconds", str(seconds), "--scale", str(scale),
               "--layers", str(int(layers)),
               "--spawned-at", repr(time.monotonic())]
    if passes is not None:
        command += ["--passes", str(passes)]
    process = subprocess.Popen(
        command, cwd=ROOT, env=clean_environment(cache_dir), text=True,
        stdout=subprocess.PIPE, start_new_session=True)
    try:
        output, _ = process.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        output = None
    finally:
        # the worker's process group: also a server child it left behind
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        shutil.rmtree(cache_dir, ignore_errors=True)
    if output is None:
        raise RuntimeError(f"{workload}: worker exceeded {WORKER_TIMEOUT} s")
    if process.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited {process.returncode}")
    return json.loads(output.strip().splitlines()[-1])


# -- one workload ------------------------------------------------------------


def measured(workload: str, processes: list) -> dict:
    """One run's result from the fresh processes that made it up."""
    passes = [p for process in processes for p in process["passes"]]
    ops = [op for p in passes for op in p["ops"]]
    result = {
        "workload": workload,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                         for p in processes),
        "passes": len(passes),
        "attempted": len(ops),
        "failed": sum(1 for _, _, ok in ops if not ok),
        "failed_kinds": sorted({kind for kind, _, ok in ops if not ok}),
        "counts": processes[0]["counts"],
        "versions": processes[0]["versions"],
        "processes": processes,
    }
    result.update(summarize([p["setup"] for p in processes], passes,
                            TAIL_PERCENT[workload]))
    return result


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    return measured(workload, [
        spawn_worker(workload, "run", seed, seconds / PROCESSES_PER_RUN)
        for _ in range(PROCESSES_PER_RUN)])


def run_traced(workload: str, seed: int, seconds: float,
               layers: bool = True, quick: bool = False) -> dict:
    """One process: plain and traced passes in turn for half of
    ``seconds``, then, with ``layers``, the per-layer probes (which do not
    depend on the workload).  ``quick``: one pass of each, at 1/20 size."""
    size = {"scale": 0.05, "passes": 1} if quick else {}
    process = spawn_worker(workload, "trace", seed, seconds / 2,
                           layers=layers, **size)
    result = measured(workload, [process])
    result["exact_layer_metrics"] = process.get("exact_layer_metrics", [])
    result["self_ms_per_pass"] = process["self_ms_per_pass"]
    plain = [p["seconds"] for p in process["passes"] if not p["traced"]]
    traced = [p["seconds"] for p in process["passes"] if p["traced"]]
    result["layer_metrics"] = {
        **process["layer_metrics"],
        "bench.trace_overhead": (statistics.median(traced)
                                 / statistics.median(plain)),
        "bench.fail_frac": result["failed"] / result["attempted"],
        "bench.cpu_noise": result["cpu_noise"],
    }
    return result


def end_to_end(spec: dict, result: dict) -> dict:
    return {m["name"]: {"value": result[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def per_layer(spec: dict, result: dict, partial: bool = False) -> dict:
    """Every per-layer metric of the spec; with ``partial``, those this
    run measured (a --quick run without the layer probes)."""
    measured = result["layer_metrics"]
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
            if not partial or m["name"] in measured}


def save(name: str, payload: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(payload, handle)  # holds every op: keep it compact
        handle.write("\n")


def contract_run(spec: dict, args) -> int:
    """``--workload W``: the form the benchmark contract calls."""
    if args.trace:
        result = run_traced(args.workload, args.seed, args.seconds)
        metrics = per_layer(spec, result)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
        metrics = end_to_end(spec, result)
    result["provenance"] = provenance(args.seed)
    save(f"result-{args.workload}-trace{args.trace}.json", result)
    print_table({args.workload: metrics}, [args.workload])
    tail = result["tail"]
    print(f"# {args.workload}: {result['passes']} passes, "
          f"{result['attempted']} ops, {result['failed']} failed; "
          f"op_tail_ms is p{tail['percent']} of the {tail['samples']} ops of "
          f"the {result['quiet_passes']} quiet passes")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


# -- the whole suite ---------------------------------------------------------


def print_table(columns: dict, order: list) -> None:
    """One row per metric — its name, its unit, and one value per
    workload (``-`` where that run did not measure it)."""
    names: dict[str, str] = {}
    for metrics in columns.values():
        for name, entry in metrics.items():
            names.setdefault(name, entry["unit"])
    width = max(len(name) for name in names)
    print(f"{'metric':<{width}}  {'unit':<6}"
          + "".join(f"  {w:>13}" for w in order))
    for name, unit in names.items():
        cells = []
        for workload in order:
            entry = columns.get(workload, {}).get(name)
            cells.append("-" if entry is None else f"{entry['value']:.5g}")
        print(f"{name:<{width}}  {unit:<6}"
              + "".join(f"  {c:>13}" for c in cells))


def suite(spec: dict, args) -> int:
    """Every workload, untraced then traced, one after another."""
    order = [w["name"] for w in spec["workloads"]]
    columns, results, failed = {}, {}, 0
    for workload in order:
        layers = workload == order[-1]  # the layer probes run once
        if args.quick:
            # one process does both: a plain pass and a traced one
            result = run_traced(workload, args.seed, 0, layers, quick=True)
            metrics = {**end_to_end(spec, result),
                       **per_layer(spec, result, partial=True)}
            results[workload] = {"quick": result}
        else:
            plain = run_untraced(workload, args.seed, args.seconds)
            traced = run_traced(workload, args.seed, args.seconds, layers)
            metrics = {**end_to_end(spec, plain),
                       **per_layer(spec, traced, partial=True)}
            results[workload] = {"untraced": plain, "traced": traced}
            result = plain
        failed += result["failed"]
        columns[workload] = metrics
    save("suite-quick.json" if args.quick else "suite.json",
         {"provenance": provenance(args.seed), "results": results})
    print_table(columns, order)
    print(f"# failed ops: {failed}")
    return 1 if failed else 0


def spread(values: list) -> float:
    """Run-to-run spread as a share of the median: the distance between
    the quartiles (from four runs up), else between the extremes."""
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / statistics.median(values)
    return (max(values) - min(values)) / statistics.median(values)


def selfcheck(spec: dict, args) -> int:
    """Same code, ``--runs`` runs per workload on consecutive seeds: every
    end-to-end metric must stay within its bound, and every exact count —
    which no seed may change — must repeat exactly."""
    problems = []
    order = [w["name"] for w in spec["workloads"]]
    for workload in order:
        runs = [run_untraced(workload, args.seed + i, args.seconds)
                for i in range(args.runs)]
        for metric in spec["end_to_end"]:
            values = [run[metric["name"]] for run in runs]
            share = spread(values)
            verdict = "ok" if share <= metric["bound"] else "EXCEEDS"
            print(f"{workload:<14} {metric['name']:<14} "
                  f"median {statistics.median(values):<10.5g} "
                  f"spread {share:7.2%}  bound {metric['bound']:.0%}  "
                  f"{verdict}", flush=True)
            if share > metric["bound"]:
                problems.append(f"{workload} {metric['name']} spread")
        failed = sum(run["failed"] for run in runs)
        if failed:
            problems.append(f"{workload}: {failed} failed ops")
        traced = [run_traced(workload, args.seed, args.seconds,
                             layers=workload == order[-1])
                  for _ in range(2)]
        exact = [
            {**{f"count.{k}": v for k, v in run["counts"].items()},
             **{k: run["layer_metrics"][k]
                for k in ["artifacts.hit_ratio",
                          *run["exact_layer_metrics"]]}}
            for run in traced]
        differing = sorted(k for k in exact[0] if exact[0][k] != exact[1][k])
        for run in runs:
            if run["counts"]["ops_per_pass"] != exact[0]["count.ops_per_pass"]:
                differing.append("count.ops_per_pass (untraced)")
        print(f"{workload:<14} exact counts: "
              f"{'all equal' if not differing else differing}", flush=True)
        problems += [f"{workload} {name} differs" for name in differing]
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=2,
                        help="runs per workload under --selfcheck")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: no src/repro beside bench/ — nothing to "
              "measure", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    try:
        if args.selfcheck:
            return selfcheck(spec, args)
        if args.workload is not None:
            return contract_run(spec, args)
        return suite(spec, args)
    except RuntimeError as error:
        print(f"bench/run.py: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
