"""Template-JIT baseline compiler: copy-and-patch stitching.

The compile-speed/code-quality tradeoff (Titzer 2023) made concrete: this
package compiles a typed function body by stitching pre-generated Python
source templates — one per bytecode instruction / typed-IR op — in a
single linear pass, with no optimization pipeline and no register
allocation beyond slot numbering (Xu & Kjolstad's copy-and-patch,
transposed to Python source stencils).  A stitch, ``compile()`` of the
stitched source included, takes about 0.2 ms (``template_jit.stitch_us``
190–215 µs in ``bench/``); the full pipeline takes milliseconds.

It is a standalone compiler, not a rung of the hotspot ladder
(``repro.runtime.hotspot`` promotes straight to the full pipeline, which
with the artifact cache costs 1.9–3.5 ms a promotion or one store hit).
See ``compile_template`` / ``compile_template_function`` for the direct
API and :class:`TemplateCompiledFunction` for the artifact contract.
"""

from repro.template_jit.artifact import TemplateCompiledFunction
from repro.template_jit.compiler import (
    TemplateCompiler,
    compile_template,
    compile_template_function,
)
from repro.template_jit.templates import SUPPORTED_HEADS

__all__ = [
    "TemplateCompiledFunction",
    "TemplateCompiler",
    "compile_template",
    "compile_template_function",
    "SUPPORTED_HEADS",
]
