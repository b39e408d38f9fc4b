"""``TemplateCompiledFunction``: the baseline tier's callable artifact.

The runtime contract is the one every compiled artifact has
(:class:`repro.runtime.guard.GovernedFunction`): boundary check, native
run, soft failure (F2) recorded against the breaker and re-evaluated by the
hosting interpreter, abortability (F3) and guard budgets via the stitched
``_checkpoint`` calls.  The breaker starts at :data:`Tier.TEMPLATE`; once
it trips the artifact answers from the interpreter.  What this module
adds:

* the boundary is the ``Compile``-spec one it shares with the legacy
  artifact (:class:`repro.runtime.guard.SpecTypedFunction`),
  with tensor inputs copied on read — stitched code mutates plain Python
  lists in place;
* Python-level errors from over-optimistic kind propagation are soft.

Fault injection: every native call fires the ``template.call`` site, so
chaos tests can trip the breaker deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import WolframRuntimeError
from repro.mexpr.expr import MExpr
from repro.runtime.guard import (
    CircuitBreaker,
    SpecTypedFunction,
    Tier,
)

#: Python-level errors stitched code can raise when the one-pass kind
#: propagation was too optimistic; classified as soft failures so the
#: breaker trips instead of the call hard-crashing
_PYTHON_SOFT_ERRORS = (
    TypeError, ValueError, ZeroDivisionError, OverflowError, IndexError,
    AttributeError, UnboundLocalError, RecursionError,
)


def _copy_nested(value, _element_char=None):
    """``_box_tensor``: plain nested lists carry no element type."""
    return [
        _copy_nested(item) if isinstance(item, (list, tuple)) else item
        for item in value
    ]


def _template_runtime_error(error: Exception) -> WolframRuntimeError:
    return WolframRuntimeError(
        "TemplateRuntime", f"{type(error).__name__}: {error}"
    )


@dataclass
class TemplateCompiledFunction(SpecTypedFunction):
    native_tier = Tier.TEMPLATE
    soft_exceptions = (WolframRuntimeError,) + _PYTHON_SOFT_ERRORS
    classify = staticmethod(_template_runtime_error)
    _box_tensor = staticmethod(_copy_nested)

    name: str
    argument_types: list[str]
    argument_names: list[str]
    #: the stitched Python source (inspectable; tests assert against it)
    source: str
    source_body: MExpr
    function: object
    #: set when hosted inside an engine session
    evaluator: Optional[object] = field(default=None, repr=False)
    #: wall-clock cost of the stitch+compile, set by ``compile_template``
    compile_seconds: float = 0.0
    breaker: CircuitBreaker = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self):
        if self.breaker is None:
            self.breaker = CircuitBreaker(self.name, start=self.native_tier)
        #: the native runner is the stitched function itself: no wrapper
        #: frame between the governed call and the generated code
        self._native = self.function
