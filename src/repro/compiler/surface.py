"""The compiler's compilable surface: every head ``FunctionCompile`` can
take, defined by the compiler's own declarations (§4.4–4.5) — the default
type environment's functions, the default macro environment's heads, and
the heads the macro expander, binder and lowerer consume structurally.

The promotion gate (:mod:`repro.runtime.hotspot`) and the linter
(:mod:`repro.analyze.lint`) read this one set; neither keeps a list.
"""

from __future__ import annotations

import functools


@functools.cache
def compilable_heads() -> frozenset[str]:
    """Built on first use, never at import: the default environments are
    process singletons, so the set never changes after that."""
    from repro.compiler import macros

    return _declared_heads() | macros.default_macro_environment().heads()


@functools.cache
def macro_only_heads() -> frozenset[str]:
    """The heads on the surface only as macro heads: one still in a body
    after macro expansion is one no macro rule took, and nothing else
    compiles it."""
    from repro.compiler import macros

    return frozenset(macros.default_macro_environment().heads()
                     - _declared_heads())


def _declared_heads() -> frozenset[str]:
    """The type environment's functions and the structural heads."""
    from repro.compiler import binding, macros
    from repro.compiler.types.builtin_env import default_environment
    from repro.compiler.wir import lower

    return frozenset(
        default_environment().function_names()
        | macros.STRUCTURAL_HEADS | binding.SCOPING_HEADS
        | lower.STRUCTURAL_HEADS
    )
