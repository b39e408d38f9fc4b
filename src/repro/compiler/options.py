"""Compile options (§4.7, §A.6.4's serialized option block).

Options gate passes and backend behaviour; macros and passes can be
predicated on them (``Conditioned``), and the ablation benchmarks flip them:

* ``abort_handling`` — loop-header/prologue abort checks (§6 ablation);
* ``inline_policy`` — ``"none"`` disables primitive inlining (the 10×
  Mandelbrot ablation), ``"default"`` inlines primitives and forced
  functions, ``"aggressive"`` also inlines small resolved functions;
* ``constant_array_handling`` — ``"naive"`` re-materializes embedded
  constant arrays per call (the 1.5× PrimeQ note), ``"hoisted"`` builds
  them once at module load;
* ``dataflow`` / ``elide_checks`` — the dataflow analysis, and the §6
  redundant-check removal it drives (index, overflow and abort checks);
* ``optimization_level`` — 0 skips the optimization pipeline entirely
  (``CompileToIR[..., "OptimizationLevel" -> None]``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Any, Optional

from repro.errors import CompilerError

#: accepted spellings of the ``REPRO_VERIFY_IR`` environment knob
_VERIFY_MODES = {
    "0": "off", "off": "off", "false": "off", "": "off",
    "1": "final", "on": "final", "true": "final", "final": "final",
    "each": "each", "all": "each",
}


def _verify_ir_default() -> str:
    """Resolve ``REPRO_VERIFY_IR`` (0|1|each) to a verifier mode.

    Read at option-construction time, so tests and CI can flip the
    environment without rebuilding pipelines.  Unknown spellings fall back
    to ``off`` — the sanitizer must never be the thing that breaks a build.
    """
    raw = os.environ.get("REPRO_VERIFY_IR", "").strip().lower()
    return _VERIFY_MODES.get(raw, "off")


#: WL-style option names ("AbortHandling" -> True, ...) and their fields
_WOLFRAM_NAMES = {
    "OptimizationLevel": "optimization_level",
    "AbortHandling": "abort_handling",
    "InlinePolicy": "inline_policy",
    "MemoryManagement": "memory_management",
    "CopyInsertion": "copy_insertion",
    "Dataflow": "dataflow",
    "ElideChecks": "elide_checks",
    "ConstantArrayHandling": "constant_array_handling",
    "Profile": "profile",
    "TargetSystem": "target_system",
    "PassLogger": "pass_logger",
    "ArgumentAlias": "argument_alias",
    "VerifyIR": "verify_ir",
}


#: the values each enumerated field accepts
_CHOICES = {
    "target_system": {"Python", "WVM"},
    "inline_policy": {"none", "default", "aggressive"},
    "constant_array_handling": {"hoisted", "naive"},
    "verify_ir": {"off", "final", "each"},
}


@dataclass(frozen=True)
class CompilerOptions:
    optimization_level: int = 1
    abort_handling: bool = True
    inline_policy: str = "default"  # 'none' | 'default' | 'aggressive'
    memory_management: bool = True
    copy_insertion: bool = True
    #: run the worklist abstract interpretation (intervals/shapes/effects)
    #: and attach its FactMap to program metadata
    dataflow: bool = True
    #: let the dataflow facts delete runtime checks (overflow guards,
    #: Part bounds predicates, bounded-loop abort checkpoints)
    elide_checks: bool = True
    constant_array_handling: str = "hoisted"  # 'hoisted' | 'naive'
    #: instrument generated code with per-primitive execution counters
    #: (the "Profile" flag in the §A.6.2 Information header)
    profile: bool = False
    target_system: str = "Python"  # 'Python' | 'WVM'
    pass_logger: Optional[Any] = None
    argument_alias: bool = False
    #: IR-verifier sanitizer mode: 'off' (default), 'final' (verify the
    #: finished program once), 'each' (LLVM-style verify-each: after
    #: lowering and after every pass, attributing violations to the
    #: offending pass).  Defaults from the ``REPRO_VERIFY_IR`` env knob.
    verify_ir: str = field(default_factory=_verify_ir_default)

    def __post_init__(self):
        for name, allowed in _CHOICES.items():
            value = getattr(self, name)
            if not isinstance(value, str) or value not in allowed:
                raise CompilerError(
                    f"{name} must be one of {sorted(allowed)}, not {value!r}"
                )
        level = self.optimization_level
        if not isinstance(level, int) or isinstance(level, bool) or level < 0:
            raise CompilerError(
                f"optimization_level must be an integer >= 0, not {level!r}"
            )

    def with_(self, **changes) -> "CompilerOptions":
        return replace(self, **changes)

    def to_wolfram(self) -> dict:
        """The options under their WL names, as the IR export prints them.
        ``PassLogger`` is left out: a callable has no spelling that two
        runs would agree on, and it changes nothing about the IR."""
        return {
            name: getattr(self, field_name)
            for name, field_name in _WOLFRAM_NAMES.items()
            if field_name != "pass_logger"
        }

    def semantic_wolfram(self) -> dict:
        """The :data:`SEMANTIC_FIELDS` under their WL names: what a saved
        function stores, and :meth:`from_wolfram` reads back."""
        return {
            name: getattr(self, field_name)
            for name, field_name in _WOLFRAM_NAMES.items()
            if field_name in SEMANTIC_FIELDS
        }

    @classmethod
    def from_wolfram(cls, rules: dict) -> "CompilerOptions":
        """Translate WL-style option names ("AbortHandling" -> True, ...)."""
        translated = {}
        for key, value in rules.items():
            field_name = _WOLFRAM_NAMES.get(key)
            if field_name is None:
                raise ValueError(f"unknown compile option {key!r}")
            if value is None and field_name == "optimization_level":
                value = 0
            if field_name == "inline_policy" and value is None:
                value = "none"
            if field_name == "verify_ir":
                # WL spellings: True/False/"Each" alongside the env forms
                if value is True:
                    value = "final"
                elif value is False or value is None:
                    value = "off"
                else:
                    value = _VERIFY_MODES.get(str(value).strip().lower(),
                                              "off")
            translated[field_name] = value
        return cls(**translated)


#: the fields that change generated code, in declaration order: every
#: field but the two that only observe a compile.  Derived, never listed
#: by hand, so that a new option can never be left out of an artifact key
#: or a saved function
SEMANTIC_FIELDS = tuple(
    option.name for option in fields(CompilerOptions)
    if option.name not in ("pass_logger", "verify_ir")
)
