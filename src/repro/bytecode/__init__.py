"""The legacy bytecode compiler and Wolfram Virtual Machine — the baseline.

§2.2's system, reproduced with its design limitations intact (L1–L5), so the
evaluation's comparisons exercise the same walls: fixed numeric datatypes,
boxed arrays with copy-on-read, no strings, no function values, no inlining,
interpreter escape for unsupported expressions, and soft runtime fallback.
"""

from repro.bytecode.boxed import BoxedTensor
from repro.bytecode.compiled_function import CompiledFunction, compile_function
from repro.bytecode.compiler import (
    BYTECODE_COMPILER_VERSION,
    WVM_ENGINE_VERSION,
    BytecodeCompiler,
)
from repro.bytecode.instructions import Instruction, Op, RegisterCounts
from repro.bytecode.vm import WVM

__all__ = [
    "BYTECODE_COMPILER_VERSION", "BoxedTensor", "BytecodeCompiler",
    "CompiledFunction", "Instruction", "Op", "RegisterCounts", "WVM",
    "WVM_ENGINE_VERSION", "compile_function",
]
