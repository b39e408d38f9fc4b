"""Differential-testing oracle: four tiers, one answer (``pytest -m differential``).

The reproduction has four ways to run a program — the interpreter
(:class:`~repro.engine.Evaluator`), the legacy bytecode VM
(:func:`repro.bytecode.compile_function`), the template-JIT baseline
(:func:`repro.template_jit.compile_template_function`), and the new
compiler (:func:`repro.compiler.FunctionCompile`).  §2.2's compatibility
constraint says they must agree wherever their subsets overlap.  This
module checks that mechanically:

* a **seeded generator** (plain :mod:`random`, no external dependency)
  builds terminating statement programs over the common compilable subset —
  integer kernels (arithmetic, ``Mod``/``Abs``/``Min``/``Max``, bounded
  ``While``, ``If``) and real kernels (``Sin``/``Cos`` keep values bounded);
* each program runs on **all four tiers** with the same argument;
* results are compared exactly for integers and with an
  :func:`math.isclose` tolerance for reals (the tiers may legitimately
  differ in float summation order);
* a mismatch is **shrunk** to a minimal reproducer by deleting statements
  and reducing the trip count while the disagreement persists.

Seeds make every run reproducible: ``run_differential(count, seed=...)``
with the same arguments generates the same programs.  CI runs a budgeted
smoke (``REPRO_DIFF_COUNT`` / ``REPRO_DIFF_SEED``) and uploads shrunk
reproducers written to ``REPRO_DIFF_ARTIFACTS``.

A second, **boundary-value mode** targets the dataflow check-elision
passes (DESIGN.md §12): :class:`_BoundaryGenerator` biases programs
toward the exact inputs where an unsound elision would diverge —
``INT64_MAX±1`` constants feeding checked arithmetic, empty and
short arrays, off-by-one ``Part`` indices (of a matrix too, row and
column), and statically bounded loops (the checkpoint-coalescing
shape).  :class:`ElisionOracle`
compiles each program twice — ``ElideChecks -> True`` vs ``False`` —
and demands bit-identical results *including the error class*: a
trapped overflow on the checked side must still trap (or be provably
absent) on the elided side.  ``run_boundary_differential`` is the CI
entry point; zero divergences is the acceptance bar.

A third, **constants mode** (:class:`ConstantsOracle`,
``run_constants_differential``) compiles programs that read an embedded
constant tensor twice against a scratch artifact store — a miss, then a
hit — and compares both with the interpreter, over pairs of boundary
tables one element apart.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.analyze.dataflow import LENGTH_BOUND
from repro.runtime.checked import INT64_MAX, INT64_MIN

#: comparison tolerance for real-valued kernels; loose enough for
#: re-association across tiers, tight enough to catch real bugs
REAL_TOLERANCE = 1e-8

_TIERS = ("interpreter", "bytecode", "template", "compiled")


# -- program specs -----------------------------------------------------------


@dataclass
class _Spec:
    """A structured program the shrinker can edit statement-by-statement."""

    kind: str  # 'integer' | 'real'
    prologue: list[str]
    loop: list[str]
    trips: int
    epilogue: list[str]

    def body(self) -> str:
        zero = "0" if self.kind == "integer" else "0.0"
        scale = "1000" if self.kind == "integer" else "1000.0"
        statements = [
            *self.prologue,
            "i = 1",
            f"While[i <= {self.trips}, "
            + "; ".join([*self.loop, "i = i + 1"]) + "]",
            *self.epilogue,
            f"a + {scale} * b",
        ]
        return (
            f"Module[{{a = {zero}, b = {zero}, i = 0}}, "
            + "; ".join(statements) + "]"
        )

    def statement_count(self) -> int:
        return len(self.prologue) + len(self.loop) + len(self.epilogue)


class _Generator:
    """Seeded random programs over the subset all three tiers support."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def spec(self) -> _Spec:
        kind = "real" if self.rng.random() < 0.35 else "integer"
        expression = (
            self._integer_expression if kind == "integer"
            else self._real_expression
        )
        condition = (
            self._integer_condition if kind == "integer"
            else self._real_condition
        )
        statement = lambda: self._statement(expression, condition)  # noqa: E731
        return _Spec(
            kind=kind,
            prologue=[statement() for _ in range(self.rng.randint(1, 3))],
            loop=[statement() for _ in range(self.rng.randint(1, 3))],
            trips=self.rng.randint(0, 6),
            epilogue=[statement() for _ in range(self.rng.randint(0, 2))],
        )

    def argument(self, kind: str):
        if kind == "integer":
            return self.rng.randint(-10, 10)
        return round(self.rng.uniform(-2.0, 2.0), 3)

    def _statement(self, expression, condition) -> str:
        target = self.rng.choice(["a", "b"])
        if self.rng.random() < 0.25:
            return (
                f"{target} = If[{condition()}, {expression()}, "
                f"{expression()}]"
            )
        return f"{target} = {expression()}"

    # integer kernels: values stay small (trips <= 6, multiplier is i or x)

    def _integer_expression(self) -> str:
        pick = self.rng.randrange(7)
        if pick == 0:
            return str(self.rng.randint(-20, 20))
        if pick == 1:
            return self.rng.choice(["a", "b", "x", "i"])
        if pick == 2:
            variable = self.rng.choice(["a", "b", "x", "i"])
            return f"({variable} + {self.rng.randint(-20, 20)})"
        if pick == 3:
            return (
                f"({self.rng.choice(['a', 'b'])} * "
                f"{self.rng.choice(['x', 'i'])})"
            )
        if pick == 4:
            return (
                f"Mod[{self.rng.choice(['a', 'b', 'x'])}, "
                f"{self.rng.randint(2, 9)}]"
            )
        if pick == 5:
            return f"Abs[{self.rng.choice(['a', 'b', 'x'])}]"
        return f"{self.rng.choice(['Max', 'Min'])}[a, b]"

    def _integer_condition(self) -> str:
        pick = self.rng.randrange(3)
        if pick == 0:
            return (
                f"{self._integer_expression()} < "
                f"{self._integer_expression()}"
            )
        if pick == 1:
            return f"{self._integer_expression()} > {self.rng.randint(-20, 20)}"
        return f"EvenQ[{self._integer_expression()}]"

    # real kernels: Sin/Cos keep accumulators bounded, no EvenQ/Mod

    def _real_literal(self) -> str:
        return repr(round(self.rng.uniform(-2.0, 2.0), 3))

    def _real_expression(self) -> str:
        pick = self.rng.randrange(6)
        if pick == 0:
            return self._real_literal()
        if pick == 1:
            return self.rng.choice(["a", "b", "x"])
        if pick == 2:
            variable = self.rng.choice(["a", "b", "x"])
            return f"({variable} + {self._real_literal()})"
        if pick == 3:
            return f"({self.rng.choice(['a', 'b', 'x'])} * 0.5)"
        if pick == 4:
            function = self.rng.choice(["Sin", "Cos"])
            return f"{function}[{self.rng.choice(['a', 'b', 'x'])}]"
        if self.rng.random() < 0.5:
            return f"Abs[{self.rng.choice(['a', 'b', 'x'])}]"
        return f"{self.rng.choice(['Max', 'Min'])}[a, b]"

    def _real_condition(self) -> str:
        if self.rng.random() < 0.5:
            return "a < b"
        return f"{self.rng.choice(['a', 'b', 'x'])} > {self._real_literal()}"


# -- results -----------------------------------------------------------------


@dataclass
class Mismatch:
    """One disagreement between tiers, with its shrunk reproducer."""

    seed: int
    index: int
    kind: str
    argument: object
    body: str
    results: dict
    shrunk_body: Optional[str] = None
    shrunk_results: Optional[dict] = None

    def reproducer(self) -> str:
        """The smallest body known to disagree (shrunk when available)."""
        return self.shrunk_body or self.body

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "index": self.index,
            "kind": self.kind,
            "argument": self.argument,
            "body": self.body,
            "results": {k: repr(v) for k, v in self.results.items()},
            "shrunk_body": self.shrunk_body,
            "shrunk_results": (
                {k: repr(v) for k, v in self.shrunk_results.items()}
                if self.shrunk_results else None
            ),
        }


@dataclass
class OracleReport:
    seed: int
    attempted: int = 0
    agreed: int = 0
    elapsed: float = 0.0
    mismatches: list = field(default_factory=list)

    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "attempted": self.attempted,
            "agreed": self.agreed,
            "elapsed": round(self.elapsed, 3),
            "mismatches": [m.to_dict() for m in self.mismatches],
        }

    #: the summary line's wording, overridden per mode
    title = "differential oracle"
    claim = f"programs agree across {len(_TIERS)} tiers"
    noun = "mismatch(es)"

    def summary(self) -> str:
        return (
            f"{self.title}: {self.agreed}/{self.attempted} {self.claim} "
            f"({len(self.mismatches)} {self.noun}, "
            f"{self.elapsed:.1f}s, seed={self.seed})"
        )


class _TierError:
    """Sentinel result when a tier raised instead of returning a value."""

    def __init__(self, error: BaseException):
        self.kind = type(error).__name__
        self.message = str(error)

    def __eq__(self, other) -> bool:
        return isinstance(other, _TierError) and other.kind == self.kind

    def __repr__(self) -> str:
        return f"<{self.kind}: {self.message}>"


# -- the oracle --------------------------------------------------------------


class DifferentialOracle:
    """Run seeded random programs on all three tiers and compare."""

    #: run cap for the shrinker: each candidate reduction costs three
    #: compilations, so the budget is bounded even for large programs
    MAX_SHRINK_RUNS = 120

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.generator = _Generator(random.Random(seed))
        from repro.engine import Evaluator

        self._evaluator = Evaluator()

    # -- execution ----------------------------------------------------------

    def run_tiers(self, kind: str, body: str, argument) -> dict:
        """Evaluate ``Function[{x}, body][argument]`` on every tier."""
        results = {}
        for tier in _TIERS:
            try:
                results[tier] = getattr(self, f"_run_{tier}")(
                    kind, body, argument
                )
            except Exception as error:  # noqa: BLE001 — recorded, compared
                results[tier] = _TierError(error)
        return results

    def _run_interpreter(self, kind: str, body: str, argument):
        literal = self._literal(argument)
        return self._evaluator.run(
            f"Function[{{x}}, {body}][{literal}]"
        ).to_python()

    def _run_bytecode(self, kind: str, body: str, argument):
        from repro.bytecode import compile_function
        from repro.mexpr import parse

        pattern = "_Integer" if kind == "integer" else "_Real"
        compiled = compile_function(
            parse(f"{{{{x, {pattern}}}}}"), parse(body), self._evaluator
        )
        return compiled(argument)

    def _run_template(self, kind: str, body: str, argument):
        from repro.mexpr import parse
        from repro.template_jit import compile_template_function

        pattern = "_Integer" if kind == "integer" else "_Real"
        compiled = compile_template_function(
            parse(f"{{{{x, {pattern}}}}}"), parse(body),
            evaluator=self._evaluator,
        )
        return compiled(argument)

    def _run_compiled(self, kind: str, body: str, argument):
        from repro.compiler import FunctionCompile

        type_name = "MachineInteger" if kind == "integer" else "Real64"
        compiled = FunctionCompile(
            f'Function[{{Typed[x, "{type_name}"]}}, {body}]'
        )
        return compiled(argument)

    @staticmethod
    def _literal(argument) -> str:
        text = repr(argument)
        return f"({text})" if text.startswith("-") else text

    # -- comparison ---------------------------------------------------------

    @staticmethod
    def agree(left, right) -> bool:
        if isinstance(left, _TierError) or isinstance(right, _TierError):
            return left == right
        if isinstance(left, float) or isinstance(right, float):
            try:
                return math.isclose(
                    float(left), float(right),
                    rel_tol=REAL_TOLERANCE, abs_tol=REAL_TOLERANCE,
                )
            except (TypeError, ValueError):
                return False
        return left == right

    def consistent(self, results: dict) -> bool:
        baseline = results["interpreter"]
        return all(
            self.agree(baseline, results[tier]) for tier in _TIERS[1:]
        )

    # -- shrinking ----------------------------------------------------------

    def shrink(self, spec: _Spec, argument) -> tuple[str, dict]:
        """Minimize ``spec`` while the tiers still disagree.

        Greedy delta-debugging over the statement lists plus trip-count
        reduction, iterated to a fixed point (bounded by
        :data:`MAX_SHRINK_RUNS` tier-triple executions).
        """
        runs = 0
        best = spec
        best_results = self.run_tiers(spec.kind, spec.body(), argument)

        def still_fails(candidate: _Spec):
            nonlocal runs
            runs += 1
            results = self.run_tiers(candidate.kind, candidate.body(),
                                     argument)
            return (not self.consistent(results)), results

        improved = True
        while improved and runs < self.MAX_SHRINK_RUNS:
            improved = False
            for section in ("prologue", "loop", "epilogue"):
                statements = getattr(best, section)
                for index in range(len(statements)):
                    reduced = _Spec(**vars(best))
                    reduced_statements = list(statements)
                    del reduced_statements[index]
                    setattr(reduced, section, reduced_statements)
                    fails, results = still_fails(reduced)
                    if fails:
                        best, best_results = reduced, results
                        improved = True
                        break
                if improved or runs >= self.MAX_SHRINK_RUNS:
                    break
            if not improved and best.trips > 0 and runs < self.MAX_SHRINK_RUNS:
                reduced = _Spec(**vars(best))
                reduced.trips = best.trips - 1
                fails, results = still_fails(reduced)
                if fails:
                    best, best_results = reduced, results
                    improved = True
        return best.body(), best_results

    # -- the main loop ------------------------------------------------------

    def run(self, count: int = 50, time_budget: Optional[float] = None,
            shrink: bool = True, progress=None) -> OracleReport:
        """Generate and cross-check ``count`` programs (or until budget)."""
        def check(index: int) -> Optional[Mismatch]:
            spec = self.generator.spec()
            argument = self.generator.argument(spec.kind)
            body = spec.body()
            results = self.run_tiers(spec.kind, body, argument)
            if self.consistent(results):
                return None
            mismatch = Mismatch(
                seed=self.seed, index=index, kind=spec.kind,
                argument=argument, body=body, results=results,
            )
            if shrink:
                mismatch.shrunk_body, mismatch.shrunk_results = (
                    self.shrink(spec, argument)
                )
            return mismatch

        return _drive(OracleReport(seed=self.seed), count, time_budget,
                      check, progress)


def _drive(report: OracleReport, count: int, time_budget: Optional[float],
           check, progress=None) -> OracleReport:
    """The main loop every oracle mode shares: ``check(index)`` generates
    and runs one case and returns its :class:`Mismatch`, or ``None``."""
    start = time.perf_counter()
    for index in range(count):
        if (
            time_budget is not None
            and time.perf_counter() - start > time_budget
        ):
            break
        mismatch = check(index)
        report.attempted += 1
        if mismatch is None:
            report.agreed += 1
        else:
            report.mismatches.append(mismatch)
        if progress is not None and (index + 1) % 25 == 0:
            progress(index + 1, count)
    report.elapsed = time.perf_counter() - start
    return report


def _run_mode(oracle_type, prefix: str, count, seed, time_budget,
              artifacts_dir):
    """The entry points' shared body: fill unset arguments from the CI
    environment, run, write reproducers.

    * ``REPRO_DIFF_COUNT`` — programs to generate (default 50);
    * ``REPRO_DIFF_SEED`` — generator seed (default 0);
    * ``REPRO_DIFF_ARTIFACTS`` — directory for reproducer JSON files.
    """
    if count is None:
        count = int(os.environ.get("REPRO_DIFF_COUNT", "50"))
    if seed is None:
        seed = int(os.environ.get("REPRO_DIFF_SEED", "0"))
    if artifacts_dir is None:
        artifacts_dir = os.environ.get("REPRO_DIFF_ARTIFACTS") or None
    report = oracle_type(seed=seed).run(count=count, time_budget=time_budget)
    _write_artifacts(report, artifacts_dir, prefix)
    return report


def run_differential(
    count: Optional[int] = None,
    seed: Optional[int] = None,
    time_budget: Optional[float] = None,
    artifacts_dir: Optional[str] = None,
) -> OracleReport:
    """One-call entry point with CI-friendly environment defaults
    (:func:`_run_mode`)."""
    return _run_mode(DifferentialOracle, "mismatch", count, seed,
                     time_budget, artifacts_dir)


def _write_artifacts(report, artifacts_dir, prefix: str) -> None:
    if not artifacts_dir or not report.mismatches:
        return
    os.makedirs(artifacts_dir, exist_ok=True)
    for mismatch in report.mismatches:
        path = os.path.join(
            artifacts_dir,
            f"{prefix}-seed{report.seed}-{mismatch.index}.json",
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(mismatch.to_dict(), handle, indent=2)


# -- boundary mode: check elision on vs off ----------------------------------


#: the values an unsound interval analysis is most likely to mishandle
BOUNDARY_INTEGERS = (
    INT64_MAX, INT64_MAX - 1, INT64_MIN, INT64_MIN + 1,
    INT64_MAX // 2, -(INT64_MAX // 2), -1, 0, 1, 2,
)


@dataclass
class _BoundarySpec:
    """A boundary-biased program: ``Module[{a = seed, v = {...}}, ...]``,
    with a matrix ``m`` as well when ``matrix`` is its initial value."""

    seed_value: int
    values: list[int]
    statements: list[str]
    matrix: Optional[str] = None

    def body(self) -> str:
        # an empty list literal has no element to type; an empty
        # allocation is the same array, with a known length of 0
        vector = (
            "{" + ", ".join(str(v) for v in self.values) + "}"
            if self.values else "Native`CreateTensor[0, 0]"
        )
        bindings = f"a = {self.seed_value}, v = {vector}"
        if self.matrix is not None:
            bindings += f", m = {self.matrix}"
        statements = [*self.statements, "a"]
        return f"Module[{{{bindings}}}, " + "; ".join(statements) + "]"

    def statement_count(self) -> int:
        return len(self.statements)


class _BoundaryGenerator:
    """Seeded programs biased toward elision-breaking inputs.

    Every shape targets one of the three fact-driven deletions: checked
    arithmetic fed ``INT64_MAX±1`` (overflow elision, including the
    arithmetic on an index that a ``Part`` which succeeded has bounded),
    ``Part`` with off-by-one, negative, huge and empty-array indices
    (bounds elision), and statically bounded ``Do`` loops (checkpoint
    coalescing).  About a third of the programs also bind a matrix ``m``
    — a display of rows or a ``Native`CreateMatrix`` — and read and write
    ``m[[i, j]]`` with both indices off-by-one biased, in loops up to
    ``Length[m]`` and ``Length[m[[1]]]`` (or one past): the row and column
    proofs of the bounds elision.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng

    def spec(self) -> _BoundarySpec:
        matrix = self._matrix() if self.rng.random() < 1 / 3 else None
        # beside a matrix, ``v`` is never empty: a ``Part`` of an empty
        # ``v`` fails at once, before the matrix statements after it run
        length = self.rng.choice([0, 1, 2, 3, 5] if matrix is None
                                 else [1, 2, 3])
        values = [
            self.rng.choice(BOUNDARY_INTEGERS)
            if self.rng.random() < 0.4 else self.rng.randint(-9, 9)
            for _ in range(length)
        ]
        statements = [
            self._matrix_statement(*matrix[1:])
            if matrix is not None and self.rng.random() < 0.75
            else self._statement(length)
            for _ in range(self.rng.randint(1, 4))
        ]
        return _BoundarySpec(
            seed_value=self._boundary_or_small(),
            values=values,
            statements=statements,
            matrix=None if matrix is None else matrix[0],
        )

    def _matrix(self) -> tuple[str, int, int]:
        """``(initial value, rows, columns)`` of a small matrix: a display
        of rows or an allocation."""
        # mostly two rows or more: a column past the end of a row reads
        # the next row, where an unsound column proof shows as a value
        rows, columns = self.rng.choice([1, 2, 2, 3]), self.rng.randint(1, 3)
        if self.rng.random() < 0.5:
            return f"Native`CreateMatrix[{rows}, {columns}, 0]", rows, columns
        display = ", ".join(
            "{" + ", ".join(
                str(self._boundary_or_small()) for _ in range(columns)
            ) + "}"
            for _ in range(rows)
        )
        return "{" + display + "}", rows, columns

    def _axis_index(self, extent: int) -> str:
        """Off-by-one biased for an axis of ``extent``: 0, 1, the extent,
        one past it, -1, the largest Integer64, or the argument."""
        return self.rng.choice(
            ["0", "1", str(extent), str(extent + 1), "-1", str(INT64_MAX), "x"]
        )

    def _matrix_statement(self, rows: int, columns: int) -> str:
        i, j = self._axis_index(rows), self._axis_index(columns)
        pick = self.rng.randrange(5)
        if pick == 0:
            return f"a = a + m[[{i}, {j}]]"
        if pick == 1:
            return f"m[[{i}, {j}]] = a"
        if pick == 2:  # the columns of one row, or one past them
            bound = self.rng.choice([
                "Length[m[[1]]]", "Length[m[[1]]] + 1", f"Length[m[[{i}]]]",
            ])
            return f"Do[a = a + m[[{i}, k]], {{k, {bound}}}]"
        if pick == 3:  # one column of every row, or one row past them
            bound = self.rng.choice(["Length[m]", "Length[m] + 1"])
            return f"Do[m[[k, {j}]] = a + k, {{k, {bound}}}]"
        return (
            "Do[Do[a = a + m[[k, l]], {l, Length[m[[k]]]}], {k, Length[m]}]"
        )

    def argument(self) -> int:
        if self.rng.random() < 0.3:
            return self.rng.choice(BOUNDARY_INTEGERS)
        return self.rng.randint(-4, 4)

    def _boundary_or_small(self) -> int:
        if self.rng.random() < 0.5:
            return self.rng.choice(BOUNDARY_INTEGERS)
        return self.rng.randint(-9, 9)

    def _index(self, length: int) -> str:
        """Off-by-one biased: 0, 1, ±length, ±(length + 1), length - 1,
        the largest Integer64, or the argument."""
        pick = self.rng.randrange(9)
        if pick == 0:
            return "0"
        if pick == 1:
            return "1"
        if pick == 2:
            return str(length)
        if pick == 3:
            return str(length + 1)
        if pick == 4:
            return str(max(length - 1, 0))
        if pick == 5:
            return str(-length)
        if pick == 6:
            return str(-(length + 1))
        if pick == 7:
            return str(INT64_MAX)
        return "x"

    def _statement(self, length: int) -> str:
        pick = self.rng.randrange(8)
        if pick == 0:  # overflow-probing checked arithmetic
            operator = self.rng.choice(["+", "-", "*"])
            return f"a = a {operator} {self._boundary_or_small()}"
        if pick == 1:  # argument-dependent arithmetic (unknown interval)
            operator = self.rng.choice(["+", "-"])
            return f"a = a {operator} x"
        if pick == 2:  # Part read, off-by-one biased
            return f"a = a + v[[{self._index(length)}]]"
        if pick == 3:  # Part write, off-by-one biased
            return f"v[[{self._index(length)}]] = a"
        if pick == 4:  # statically bounded loop over the array
            bound = self.rng.choice([length, length + 1, max(length - 1, 1)])
            return f"Do[a = a + v[[j]], {{j, {bound}}}]"
        if pick == 5:  # statically bounded scalar loop (coalescing shape)
            trips = self.rng.randint(1, 8)
            return f"Do[a = a + j, {{j, {trips}}}]"
        if pick == 6:
            # a Part that succeeded bounds its index where control got
            # past it: arithmetic on the index under a branch loses its
            # overflow check only when the offset leaves room for the
            # longest list, and must keep it one step further out
            offset = self.rng.choice([
                INT64_MAX, INT64_MAX - 1, INT64_MAX - LENGTH_BOUND,
                INT64_MAX - LENGTH_BOUND + 1, self.rng.randint(0, 9),
            ])
            sign = self.rng.choice(["+", "-"])
            return (
                f"a = a + v[[x]]; "
                f"If[a > {self._boundary_or_small()}, "
                f"a = x {sign} {offset}, a = x {sign} 1]"
            )
        # boundary comparison steering an If — unreachable-branch facts
        return (
            f"If[a > {self._boundary_or_small()}, "
            f"a = a - 1, a = a + 1]"
        )


class _ElisionError(_TierError):
    """Error sentinel comparing the Wolfram error *kind* too.

    For the on-vs-off pair the bar is stricter than cross-tier
    agreement: deleting a check must not change ``IntegerOverflow``
    into ``PartBounds`` (or into success), so two errors agree only
    when both the exception class and the classified kind match.
    """

    def __init__(self, error: BaseException):
        super().__init__(error)
        self.wolfram_kind = getattr(error, "kind", "")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, _ElisionError)
            and other.kind == self.kind
            and other.wolfram_kind == self.wolfram_kind
        )

    def __repr__(self) -> str:
        detail = f" [{self.wolfram_kind}]" if self.wolfram_kind else ""
        return f"<{self.kind}{detail}: {self.message}>"


class BoundaryReport(OracleReport):
    title = "boundary differential"
    claim = "programs agree with checks elided vs kept"
    noun = "divergence(s)"


class ElisionOracle:
    """Compile boundary programs twice — checks elided vs kept — and diff.

    Both compiles run the full pipeline; the only difference is
    ``ElideChecks``.  Any divergence (value, error class, or error
    kind) is an unsound fact: the elided binary skipped a check that
    the program needed.
    """

    MAX_SHRINK_RUNS = 80

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.generator = _BoundaryGenerator(random.Random(seed))

    # -- execution ----------------------------------------------------------

    def run_pair(self, body: str, argument: int) -> dict:
        """``{"elided": result, "checked": result}`` for one program."""
        return {
            "elided": self._run_variant(body, argument, elide=True),
            "checked": self._run_variant(body, argument, elide=False),
        }

    def _run_variant(self, body: str, argument: int, elide: bool):
        from repro.compiler import FunctionCompile
        from repro.compiler.options import CompilerOptions

        options = CompilerOptions(dataflow=True, elide_checks=elide)
        try:
            compiled = FunctionCompile(
                f'Function[{{Typed[x, "MachineInteger"]}}, {body}]',
                options=options,
            )
            return compiled(argument)
        except Exception as error:  # noqa: BLE001 — recorded, compared
            return _ElisionError(error)

    def consistent(self, results: dict) -> bool:
        return DifferentialOracle.agree(
            results["elided"], results["checked"]
        )

    # -- shrinking ----------------------------------------------------------

    def shrink(self, spec: _BoundarySpec, argument: int) -> tuple[str, dict]:
        """Delete statements and array elements while the pair diverges."""
        runs = 0
        best = spec
        best_results = self.run_pair(spec.body(), argument)

        def still_fails(candidate: _BoundarySpec):
            nonlocal runs
            runs += 1
            results = self.run_pair(candidate.body(), argument)
            return (not self.consistent(results)), results

        improved = True
        while improved and runs < self.MAX_SHRINK_RUNS:
            improved = False
            for section in ("statements", "values"):
                entries = getattr(best, section)
                for index in range(len(entries)):
                    reduced = _BoundarySpec(**vars(best))
                    reduced_entries = list(entries)
                    del reduced_entries[index]
                    setattr(reduced, section, reduced_entries)
                    fails, results = still_fails(reduced)
                    if fails:
                        best, best_results = reduced, results
                        improved = True
                        break
                if improved or runs >= self.MAX_SHRINK_RUNS:
                    break
        return best.body(), best_results

    # -- the main loop ------------------------------------------------------

    def run(self, count: int = 50, time_budget: Optional[float] = None,
            shrink: bool = True, progress=None) -> BoundaryReport:
        def check(index: int) -> Optional[Mismatch]:
            spec = self.generator.spec()
            argument = self.generator.argument()
            body = spec.body()
            results = self.run_pair(body, argument)
            if self.consistent(results):
                return None
            mismatch = Mismatch(
                seed=self.seed, index=index, kind="boundary",
                argument=argument, body=body, results=results,
            )
            if shrink:
                mismatch.shrunk_body, mismatch.shrunk_results = (
                    self.shrink(spec, argument)
                )
            return mismatch

        return _drive(BoundaryReport(seed=self.seed), count, time_budget,
                      check, progress)


def run_boundary_differential(
    count: Optional[int] = None,
    seed: Optional[int] = None,
    time_budget: Optional[float] = None,
    artifacts_dir: Optional[str] = None,
) -> BoundaryReport:
    """Boundary-mode entry point; same environment knobs as
    :func:`run_differential`."""
    return _run_mode(ElisionOracle, "boundary", count, seed, time_budget,
                     artifacts_dir)


# -- constants mode: embedded tables, artifact-cache miss vs hit -------------


#: tables a key or codec is most likely to under-describe
BOUNDARY_TABLES = (
    [], [7], [INT64_MIN, INT64_MAX, 0, -1], [INT64_MAX, INT64_MAX - 1],
    [0.0, -0.0, 1.5], [float("nan"), float("inf"), -0.0], [0, 1], [0.0, 1.0],
)

#: position-weighted count: sensitive to every element of an integer table
_FOLD_BODY = ("Module[{a = 0, j = 1}, While[j <= Length[tbl], "
              "If[tbl[[j]] > x, a = a + j]; j = j + 1]; a]")


class ConstantsReport(OracleReport):
    title = "constants differential"
    claim = "table pairs agree across interpreter, cache miss and cache hit"
    noun = "divergence(s)"


class ConstantsOracle:
    """Programs reading an embedded constant tensor (``constants=``), each
    compiled twice against a scratch artifact store — a miss, then a hit —
    with both artifacts compared to the interpreter.

    Every case is a *pair* of tables under one name that differ in one
    element (or in int-vs-real spelling, or empty vs not): a key that
    under-describes constants serves the first table's artifact for the
    second, and a codec that loses a sign bit or an element type restores
    a different pool — either way the hit disagrees with the interpreter.
    Agreement is on ``repr``: ``1`` vs ``1.0`` and ``0.0`` vs ``-0.0`` are
    divergences, ``nan`` agrees with ``nan``.
    """

    def __init__(self, seed: int = 0):
        from repro.engine import Evaluator

        self.seed = seed
        self.rng = random.Random(seed)
        self._evaluator = Evaluator()

    def case(self) -> tuple[str, int, list, list]:
        """``(body, argument, table, variant)`` for one pair."""
        rng = self.rng
        if rng.random() < 0.5:
            table = list(rng.choice(BOUNDARY_TABLES))
        elif rng.random() < 0.5:
            table = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        else:
            table = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 6))]
        variant, index = list(table), rng.randrange(len(table) or 1)
        integral = all(isinstance(v, int) for v in table)
        if not table:
            variant = [0]
        elif integral and rng.random() < 0.3 and max(map(abs, table)) < 2 ** 53:
            variant = [float(v) for v in table]  # same values, other type
        elif integral:
            variant[index] += -1 if variant[index] > 0 else 1
        else:  # flip the sign (0.0 <-> -0.0 included); nan becomes 0.0
            variant[index] = 0.0 if table[index] != table[index] else -table[index]
        # (body, argument): the literal index is folded into the generated
        # source, the argument index reads the restored pool at run time
        programs = [("Length[tbl]", 0)]
        if table:
            programs += [(f"tbl[[{index + 1}]]", 0), ("tbl[[x]]", index + 1)]
        if table and integral:
            programs.append((_FOLD_BODY, rng.choice(table)))
        return (*rng.choice(programs), table, variant)

    def run_case(self, body: str, argument: int, table, variant) -> dict:
        """Interpreter, miss and hit results for both tables of a pair."""
        results = {}
        for label, values in (("table", table), ("variant", variant)):
            for arm in ("interpreter", "miss", "hit"):
                run = (self._run_interpreter if arm == "interpreter"
                       else self._run_compiled)
                try:
                    results[f"{label}:{arm}"] = run(body, argument, values)
                except Exception as error:  # noqa: BLE001 — compared
                    results[f"{label}:{arm}"] = _ElisionError(error)
        return results

    def _run_interpreter(self, body: str, argument: int, values):
        from repro.mexpr.symbols import to_mexpr

        state = self._evaluator.state
        state.set_own_value("tbl", to_mexpr(values))
        try:
            return self._evaluator.run(
                f"Function[{{x}}, {body}]"
                f"[{DifferentialOracle._literal(argument)}]"
            ).to_python()
        finally:
            state.clear("tbl")

    @staticmethod
    def _run_compiled(body: str, argument: int, values):
        from repro.compiler import FunctionCompile

        return FunctionCompile(
            f'Function[{{Typed[x, "MachineInteger"]}}, {body}]',
            constants={"tbl": values},
        )(argument)

    @staticmethod
    def consistent(results: dict) -> bool:
        def same(left, right) -> bool:
            if isinstance(left, _TierError) or isinstance(right, _TierError):
                return left == right
            return repr(left) == repr(right)

        return all(
            same(results[f"{label}:interpreter"], results[f"{label}:{arm}"])
            for label in ("table", "variant") for arm in ("miss", "hit")
        )

    def run(self, count: int = 50,
            time_budget: Optional[float] = None) -> ConstantsReport:
        import tempfile

        from repro.artifacts import store as _store

        def check(index: int) -> Optional[Mismatch]:
            body, argument, table, variant = self.case()
            results = self.run_case(body, argument, table, variant)
            if self.consistent(results):
                return None
            return Mismatch(
                seed=self.seed, index=index, kind="constants",
                argument={"x": argument, "table": repr(table),
                          "variant": repr(variant)},
                body=body, results=results,
            )

        previous = _store.active_override()
        with tempfile.TemporaryDirectory(prefix="repro-differ-") as root:
            _store.activate_store(_store.ArtifactStore(root))
            try:
                return _drive(ConstantsReport(seed=self.seed), count,
                              time_budget, check)
            finally:
                _store.activate_store(previous)


def run_constants_differential(
    count: Optional[int] = None,
    seed: Optional[int] = None,
    time_budget: Optional[float] = None,
    artifacts_dir: Optional[str] = None,
) -> ConstantsReport:
    """Constants-mode entry point; same environment knobs as
    :func:`run_differential`."""
    return _run_mode(ConstantsOracle, "constants", count, seed, time_budget,
                     artifacts_dir)
