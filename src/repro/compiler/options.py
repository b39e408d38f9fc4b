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
* ``index_check_elision`` — the §6 redundant-indexing-check removal;
* ``optimization_level`` — 0 skips the optimization pipeline entirely
  (``CompileToIR[..., "OptimizationLevel" -> None]``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Optional

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


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name, "").strip().lower()
    if raw in ("0", "off", "false", "no"):
        return False
    if raw in ("1", "on", "true", "yes"):
        return True
    return default


def _dataflow_default() -> bool:
    """``REPRO_DATAFLOW=0`` disables the abstract-interpretation pass
    (and with it every fact-driven elision)."""
    return _env_flag("REPRO_DATAFLOW", True)


def elide_checks_default() -> bool:
    """``REPRO_ELIDE_CHECKS=0`` keeps every runtime check even when the
    dataflow facts prove it redundant (A/B knob for the differential
    oracle and the template tier, which reads it through here)."""
    return _env_flag("REPRO_ELIDE_CHECKS", True)


#: WL-style option names ("AbortHandling" -> True, ...) and their fields
_WOLFRAM_NAMES = {
    "OptimizationLevel": "optimization_level",
    "AbortHandling": "abort_handling",
    "InlinePolicy": "inline_policy",
    "MemoryManagement": "memory_management",
    "CopyInsertion": "copy_insertion",
    "IndexCheckElision": "index_check_elision",
    "Dataflow": "dataflow",
    "ElideChecks": "elide_checks",
    "ConstantArrayHandling": "constant_array_handling",
    "Profile": "profile",
    "TargetSystem": "target_system",
    "PassLogger": "pass_logger",
    "LazyJIT": "lazy_jit",
    "ArgumentAlias": "argument_alias",
    "VerifyIR": "verify_ir",
}


@dataclass(frozen=True)
class CompilerOptions:
    optimization_level: int = 1
    abort_handling: bool = True
    inline_policy: str = "default"  # 'none' | 'default' | 'aggressive'
    memory_management: bool = True
    copy_insertion: bool = True
    index_check_elision: bool = True
    #: run the worklist abstract interpretation (intervals/shapes/effects)
    #: and attach its FactMap to program metadata
    dataflow: bool = field(default_factory=_dataflow_default)
    #: let the dataflow facts delete runtime checks (overflow guards,
    #: Part bounds predicates, bounded-loop abort checkpoints)
    elide_checks: bool = field(default_factory=elide_checks_default)
    constant_array_handling: str = "hoisted"  # 'hoisted' | 'naive'
    #: instrument generated code with per-primitive execution counters
    #: (the "Profile" flag in the §A.6.2 Information header)
    profile: bool = False
    target_system: str = "Python"  # 'Python' | 'C' | 'WVM'
    pass_logger: Optional[Any] = None
    lazy_jit: bool = False
    argument_alias: bool = False
    #: IR-verifier sanitizer mode: 'off' (default), 'final' (verify the
    #: finished program once), 'each' (LLVM-style verify-each: after
    #: lowering and after every pass, attributing violations to the
    #: offending pass).  Defaults from the ``REPRO_VERIFY_IR`` env knob.
    verify_ir: str = field(default_factory=_verify_ir_default)

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
