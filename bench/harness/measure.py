"""Statistics and small timing helpers shared by workloads and probes."""

from __future__ import annotations

import gc
import time
from statistics import geometric_mean, mean, median
from typing import Callable


def percentile(values: list, percent: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(percent / 100.0 * len(ordered)))
    return ordered[rank]


def timed(function: Callable, *args):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = function(*args)
    return time.perf_counter() - start, result


def best_seconds(function: Callable, *args, repeats: int = 3) -> float:
    """Wall time of the fastest of ``repeats`` calls.  Noise on a shared
    box only ever adds time, so the fastest call is the steadiest estimate
    of what the code costs."""
    return min(timed(function, *args)[0] for _ in range(repeats))


def per_item_seconds(make_call: Callable[[int], Callable], small: int,
                     large: int, repeats: int = 5) -> float:
    """Cost per item from timing the same program at two sizes: the slope
    ``(t(large) - t(small)) / (large - small)`` cancels every fixed cost
    (call boundary, set-up) and leaves the per-element or per-iteration
    cost.  ``make_call(n)`` returns a zero-argument callable of size n."""
    t_small = best_seconds(make_call(small), repeats=repeats)
    t_large = best_seconds(make_call(large), repeats=repeats)
    return (t_large - t_small) / (large - small)


def _bump(row: list, k: int) -> int:
    return row[k] + 1


def calibrate() -> float:
    """Seconds for a fixed piece of interpreter work — calls, list and
    dict traffic, int and float arithmetic — that touches no code under
    test.  It tells how fast this CPU is right now, which on a shared box
    changes from one second to the next.  The collector is off while it
    runs: the kernel allocates, and a collection it triggered would cost
    more the bigger the caller's heap is."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        table: dict[int, list] = {}
        for i in range(10_000):
            row = [float(i), i & 255, (i * 31) & 0xFFFF]
            table[i & 4095] = row
            acc = (acc * 31 + _bump(row, 1) + len(table)) & 0xFFFFFFFF
            acc += int(row[0] * 0.5)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class CpuProbe:
    """Runs the calibration kernel through a run and keeps every sample."""

    def __init__(self, every: float = 0.05):
        self.every = every
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        self.samples.append(calibrate())
        self._last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= self.every:
            self.sample()


#: a pass (or a set-up) is quiet when the calibration kernel, over the
#: samples taken around and inside it, averaged within this factor of the
#: run's fastest sample
QUIET_FACTOR = 1.10


def quiet(items: list, fastest: float) -> list:
    """Those of ``items`` (passes, or set-ups) during which the CPU ran at
    full speed, judged by the calibration kernel alone, never by an item's
    own seconds: a slow op the program causes stays in, a burst from a
    neighbour on this shared box goes out.  At least the quietest quarter."""
    def disturbance(item):
        return mean(item["calibration"])

    ranked = sorted(items, key=disturbance)
    count = sum(1 for item in ranked
                if disturbance(item) <= QUIET_FACTOR * fastest)
    return ranked[:max(count, (len(ranked) + 3) // 4)]


def summarize(setups: list, passes: list, tail_percent: int) -> dict:
    """The timing metrics of one run, in seconds as measured, from its
    quiet set-ups and passes.  Both carry ``seconds`` and the
    ``calibration`` samples taken around (and inside) them."""
    samples = [c for item in setups + passes for c in item["calibration"]]
    fastest = min(samples)
    quiet_passes = quiet(passes, fastest)
    by_kind: dict[str, list] = {}
    for p in quiet_passes:
        for kind, seconds, _ in p["ops"]:
            by_kind.setdefault(kind, []).append(seconds)
    seconds = [s for kind_samples in by_kind.values() for s in kind_samples]
    return {
        "setup_s": median(s["seconds"] for s in quiet(setups, fastest)),
        "wall_s": median(p["seconds"] for p in quiet_passes),
        "geomean_op_ms": geometric_mean(
            median(kind_samples) for kind_samples in by_kind.values()) * 1e3,
        "op_tail_ms": percentile(seconds, tail_percent) * 1e3,
        "tail": {"percent": tail_percent, "samples": len(seconds)},
        "quiet_passes": len(quiet_passes),
        "kind_median_ms": {kind: median(kind_samples) * 1e3
                           for kind, kind_samples in by_kind.items()},
        # 1.0 on a machine nothing else uses: how much slower than its
        # fastest the calibration kernel ran on average through this run
        "cpu_noise": mean(samples) / fastest,
    }
