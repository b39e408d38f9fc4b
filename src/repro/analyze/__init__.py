"""Static analysis and verification (``repro.analyze``).

Four coordinated layers turn the compiler's correctness story from "the
tests passed" into machine-checked invariants:

* :mod:`repro.analyze.verify` — the **IR verifier**: CFG well-formedness,
  SSA discipline, phi/argument consistency, type consistency, and
  TWIR-stage semantic invariants over :class:`FunctionModule`;
* the **verify-each sanitizer** — ``CompilerOptions.verify_ir`` (env
  ``REPRO_VERIFY_IR=0|1|each``) runs the verifier after lowering, after
  every optimization pass, after each semantic pass, and after user
  passes, attributing any violation to the *offending pass* by name
  (LLVM's ``-verify-each`` workflow);
* :mod:`repro.analyze.lint` — **source-level lint**: pre-compile
  diagnostics over MExpr programs (unbound symbols, arity mismatches,
  unreachable branches, unsupported-construct fallback tiers), surfaced
  through ``python -m repro lint``;
* :mod:`repro.analyze.differ` — the **differential oracle**: a seeded
  random program generator over the compilable subset that cross-checks
  interpreter, bytecode VM, and compiled results and shrinks failures to
  minimal reproducers (``pytest -m differential``).

All layers report through one structured
:class:`~repro.analyze.diagnostics.Diagnostic` shape.
"""

from repro.analyze.diagnostics import (
    Diagnostic,
    errors,
    format_report,
    worst_severity,
)
from repro.analyze.differ import (
    BoundaryReport,
    ConstantsOracle,
    DifferentialOracle,
    ElisionOracle,
    Mismatch,
    OracleReport,
    run_boundary_differential,
    run_constants_differential,
    run_differential,
)
from repro.analyze.lint import lint_program, lint_text
from repro.analyze.verify import (
    raise_on_errors,
    verify_function,
    verify_program,
)
from repro.errors import SourceLintError, StaticAnalysisError, VerificationError

__all__ = [
    "BoundaryReport",
    "ConstantsOracle",
    "Diagnostic",
    "DifferentialOracle",
    "ElisionOracle",
    "Mismatch",
    "OracleReport",
    "SourceLintError",
    "StaticAnalysisError",
    "VerificationError",
    "errors",
    "format_report",
    "lint_program",
    "lint_text",
    "raise_on_errors",
    "run_boundary_differential",
    "run_constants_differential",
    "run_differential",
    "verify_function",
    "verify_program",
    "worst_severity",
]
