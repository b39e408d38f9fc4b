"""The Figure-2 benchmark harness (§6).

Builds every tier of every benchmark — hand-optimized reference ("C"),
new-compiler ``CompiledCodeFunction``, legacy bytecode ``CompiledFunction``
— runs them on identical workloads, verifies the results agree, and prints
the paper-style normalized table: results normalized to the hand-optimized
reference, bytecode slowdown display-capped at 2.5 with the actual factor
annotated (as in the figure), and QSort reported unsupported for bytecode.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.benchsuite import data as workloads
from repro.benchsuite import programs, reference
from repro.bytecode import compile_function
from repro.compiler import FunctionCompile
from repro.engine import Evaluator
from repro.errors import BytecodeCompilerError
from repro.mexpr import parse


@dataclass
class TierResult:
    name: str
    seconds: Optional[float]
    checksum: object = None
    note: str = ""


@dataclass
class BenchmarkResult:
    name: str
    tiers: dict[str, TierResult] = field(default_factory=dict)

    def ratio(self, tier: str, baseline: str = "c_port") -> Optional[float]:
        base = self.tiers.get(baseline)
        other = self.tiers.get(tier)
        if base is None or other is None:
            return None
        if base.seconds is None or other.seconds is None:
            return None
        return other.seconds / base.seconds


def best_of(callable_, *args, repeats: int = 3) -> tuple[float, object]:
    """``(seconds, result)`` of the fastest of ``repeats`` calls of
    ``callable_(*args)``.  gc is paused while the clock runs: collection
    pauses are the largest source of CPython timing outliers."""
    best = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            result = callable_(*args)
            best = min(best, time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, result


def _tensor_checksum(value) -> object:
    from repro.runtime.packed import PackedArray

    if isinstance(value, PackedArray):
        return [round(float(x), 6) for x in value.data]
    if isinstance(value, list):
        flat: list = []

        def walk(node):
            if isinstance(node, list):
                for item in node:
                    walk(item)
            else:
                flat.append(round(float(node), 6))

        walk(value)
        return flat
    return value


class Figure2Harness:
    """Compiles and runs the seven benchmarks across all tiers."""

    BENCHMARKS = ("fnv1a", "mandelbrot", "dot", "blur", "histogram",
                  "primeq", "qsort")

    def __init__(self, scale: float = workloads.DEFAULT_SCALE,
                 repeats: int = 3):
        self.sizes = workloads.figure2_sizes(scale)
        self.repeats = repeats
        #: the VM is orders of magnitude slower: fewer repeats suffice
        self.slow_repeats = max(1, repeats - 2)
        self.evaluator = Evaluator()

    # -- tier construction helpers --------------------------------------------------

    def _tier(self, result: BenchmarkResult, name: str, callable_, *args,
              note: str = "", repeats: Optional[int] = None) -> None:
        """Time one tier of one benchmark and file it under ``name``."""
        seconds, value = best_of(
            callable_, *args,
            repeats=self.repeats if repeats is None else repeats,
        )
        result.tiers[name] = TierResult(name, seconds,
                                        _tensor_checksum(value), note)

    @staticmethod
    def _idiomatic_is_c_port(result: BenchmarkResult) -> None:
        # a distinct object: sharing the TierResult would let a note
        # mutation on one tier silently edit the other
        c_port = result.tiers["c_port"]
        result.tiers["idiomatic"] = TierResult(
            "idiomatic", c_port.seconds, c_port.checksum,
            note="same measurement as c_port (no distinct idiomatic variant)",
        )

    def _new(self, source: str, **options):
        return FunctionCompile(source, evaluator=self.evaluator, **options)

    def _bytecode(self, specs: str, body: str):
        return compile_function(parse(specs), parse(body), self.evaluator)

    # -- benchmark runners ------------------------------------------------------------

    def run(self, name: str) -> BenchmarkResult:
        result = getattr(self, f"_run_{name}")()
        self._verify(result)
        return result

    def run_all(self, names=None) -> list[BenchmarkResult]:
        return [self.run(name) for name in (names or self.BENCHMARKS)]

    def _run_fnv1a(self) -> BenchmarkResult:
        text = workloads.fnv_string(self.sizes.fnv_length)
        codes = list(text.encode("utf-8"))
        result = BenchmarkResult("fnv1a")
        self._tier(result, "c_port", reference.fnv1a_c_port, text)
        self._tier(result, "idiomatic", reference.fnv1a_idiomatic, text)
        self._tier(result, "new", self._new(programs.NEW_FNV1A), text)
        self._tier(
            result, "bytecode",
            self._bytecode(programs.BYTECODE_FNV1A_SPECS,
                           programs.BYTECODE_FNV1A_BODY),
            codes, note="int64 character-code vector workaround (§6)",
        )
        return result

    def _run_mandelbrot(self) -> BenchmarkResult:
        points = workloads.mandelbrot_points(self.sizes.mandel_resolution)

        def drive(kernel):
            total = 0
            for point in points:
                total += kernel(point)
            return total

        result = BenchmarkResult("mandelbrot")
        self._tier(result, "c_port", drive, reference.mandelbrot_point)
        self._idiomatic_is_c_port(result)
        self._tier(result, "new", drive, self._new(programs.NEW_MANDELBROT))
        self._tier(
            result, "bytecode", drive,
            self._bytecode(programs.BYTECODE_MANDELBROT_SPECS,
                           programs.BYTECODE_MANDELBROT_BODY),
            repeats=self.slow_repeats,
        )
        return result

    def _run_dot(self) -> BenchmarkResult:
        n = self.sizes.dot_n
        a = workloads.random_matrix(n, seed=11)
        b = workloads.random_matrix(n, seed=12)
        result = BenchmarkResult("dot")
        self._tier(result, "c_port", reference.dot_reference, a, b)
        self._idiomatic_is_c_port(result)
        self._tier(result, "new", self._new(programs.NEW_DOT), a, b)
        self._tier(
            result, "bytecode",
            self._bytecode(programs.BYTECODE_DOT_SPECS,
                           programs.BYTECODE_DOT_BODY),
            a, b, note="all tiers call the same BLAS (§6: MKL everywhere)",
        )
        return result

    def _run_blur(self) -> BenchmarkResult:
        side = self.sizes.blur_side
        flat = workloads.blur_image_flat(side)
        nested = workloads.blur_image_nested(side)
        result = BenchmarkResult("blur")
        self._tier(result, "c_port", reference.blur_c_port, flat, side, side)
        self._tier(result, "idiomatic", reference.blur_idiomatic,
                   flat, side, side)
        self._tier(result, "new", self._new(programs.NEW_BLUR), nested)
        self._tier(
            result, "bytecode",
            self._bytecode(programs.BYTECODE_BLUR_SPECS,
                           programs.BYTECODE_BLUR_BODY),
            flat, side, side, repeats=self.slow_repeats,
            note="flat rank-1 layout (no efficient rank-2 support)",
        )
        return result

    def _run_histogram(self) -> BenchmarkResult:
        data = workloads.histogram_data(self.sizes.histogram_length)
        result = BenchmarkResult("histogram")
        self._tier(result, "c_port", reference.histogram_c_port, data)
        self._tier(result, "idiomatic", reference.histogram_idiomatic, data)
        self._tier(result, "new", self._new(programs.NEW_HISTOGRAM), data)
        self._tier(
            result, "bytecode",
            self._bytecode(programs.BYTECODE_HISTOGRAM_SPECS,
                           programs.BYTECODE_HISTOGRAM_BODY),
            data, repeats=self.slow_repeats,
        )
        return result

    def _run_primeq(self) -> BenchmarkResult:
        limit = self.sizes.primeq_limit
        table = reference.prime_sieve_bitmap()
        witnesses = programs.RM_WITNESSES
        new = self._new(
            programs.NEW_PRIMEQ,
            constants={"primeTable": table, "witnesses": witnesses},
        )
        result = BenchmarkResult("primeq")
        self._tier(result, "c_port", reference.primeq_count_c_port,
                   limit, table)
        self._idiomatic_is_c_port(result)
        self._tier(result, "new", new, limit)
        self._tier(
            result, "bytecode",
            self._bytecode(programs.BYTECODE_PRIMEQ_SPECS,
                           programs.BYTECODE_PRIMEQ_BODY),
            limit, table, witnesses, repeats=self.slow_repeats,
        )
        return result

    def _run_qsort(self) -> BenchmarkResult:
        data = workloads.presorted_list(self.sizes.qsort_length)

        def py_less(a, b):
            return a < b

        result = BenchmarkResult("qsort")
        self._tier(result, "c_port", reference.qsort_c_port, data, py_less)
        self._idiomatic_is_c_port(result)
        self._tier(result, "new", self._new(programs.NEW_QSORT),
                   data, py_less)
        # the bytecode compiler rejects the comparator argument (L1)
        try:
            self._bytecode("{{data, _Integer, 1}}", "MySort[data, Less]")
            note = "unexpectedly compiled"
        except BytecodeCompilerError as error:
            note = str(error)
        result.tiers["bytecode"] = TierResult("bytecode", None, None,
                                              note=note)
        return result

    # -- verification and reporting ------------------------------------------------------

    @staticmethod
    def _verify(result: BenchmarkResult) -> None:
        expected = result.tiers["c_port"].checksum
        for name, tier in result.tiers.items():
            if tier.seconds is None or tier.checksum is None:
                continue
            if tier.checksum != expected:
                raise AssertionError(
                    f"{result.name}: tier {name} disagrees with reference"
                )

    def format_table(self, results: list[BenchmarkResult]) -> str:
        """Figure-2-style rows: normalized to the hand-optimized reference,
        bytecode display-capped at 2.5 with the actual factor annotated."""
        lines = [
            "Figure 2 — slowdown normalized to hand-optimized reference "
            "(lower is better; 1.0 = parity)",
            f"{'benchmark':<12} {'new compiler':>14} {'vs idiomatic':>13} "
            f"{'bytecode (capped 2.5)':>24} {'bytecode actual':>16}",
        ]
        for result in results:
            new_ratio = result.ratio("new")
            idiomatic_ratio = result.ratio("new", baseline="idiomatic")
            bytecode_ratio = result.ratio("bytecode")
            if bytecode_ratio is None:
                bytecode_text = "unsupported"
                actual_text = "—"
            else:
                bytecode_text = f"{min(bytecode_ratio, 2.5):.2f}"
                actual_text = f"{bytecode_ratio:.1f}x"
            # a tier that failed to run leaves its ratio None (e.g. a
            # new-tier compile failure) — render a dash, don't crash
            new_text = f"{new_ratio:.2f}x" if new_ratio is not None else "—"
            idiomatic_text = (
                f"{idiomatic_ratio:.2f}x" if idiomatic_ratio else "—"
            )
            lines.append(
                f"{result.name:<12} {new_text:>14} {idiomatic_text:>13} "
                f"{bytecode_text:>24} {actual_text:>16}"
            )
        return "\n".join(lines)
