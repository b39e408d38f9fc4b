"""``CompiledFunction``: the bytecode compiler's callable artifact (§2.2).

Reproduces the serialized structure the paper prints — compiler/engine
versions and flags, argument types, constants, register allocation, the
instruction stream, and the original input function — plus the runtime
behaviours around it:

* version check on call; mismatches trigger recompilation from the stored
  input function;
* argument type checking and tensor boxing (copy-on-read, F5);
* soft failure: runtime errors re-evaluate through the interpreter (F2) —
  the call protocol is :class:`~repro.runtime.guard.GovernedFunction`'s;
* abortability when hosted in an engine (F3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.bytecode.boxed import BoxedTensor
from repro.bytecode.instructions import Instruction, RegisterCounts
from repro.bytecode.vm import WVM
from repro.mexpr.expr import MExpr
from repro.runtime.guard import (
    CircuitBreaker,
    SpecTypedFunction,
    Tier,
)


@dataclass
class CompiledFunction(SpecTypedFunction):
    native_tier = Tier.BYTECODE
    _box_tensor = staticmethod(BoxedTensor.from_nested)

    versions: tuple[int, int, int]
    argument_types: list[str]
    argument_names: list[str]
    constants: list
    register_counts: RegisterCounts
    register_total: int
    instructions: list[Instruction]
    source_specs: MExpr
    source_body: MExpr
    result_type: str
    #: set when the function is hosted inside an engine session
    evaluator: Optional[object] = field(default=None, repr=False)
    #: health ledger and tier governor: VM → interpreter after N soft
    #: failures (see :meth:`stats`)
    breaker: CircuitBreaker = field(
        default_factory=lambda: CircuitBreaker(
            "CompiledFunction", start=Tier.BYTECODE
        ),
        repr=False,
    )

    def input_form(self) -> str:
        """The §2.2 ``InputForm`` rendering of the serialized function."""
        from repro.mexpr.printer import input_form

        type_names = {"b": "True|False", "i": "_Integer", "r": "_Real",
                      "c": "_Complex"}
        arg_list = ", ".join(
            type_names.get(t, "_Real") for t in self.argument_types
        )
        lines = [
            "CompiledFunction[",
            f"  {{{self.versions[0]}, {self.versions[1]}, {self.versions[2]}}},"
            "(* Compiler, Engine Version, and Compile Flags *)",
            f"  {{{arg_list}}}, (* Input Arguments *)",
            f"  {self.register_counts.encode()}, (* Register Allocations *)",
            "  {",
        ]
        for instruction in self.instructions:
            lines.append(f"    {instruction.encode()}, (* {instruction} *)")
        lines.append("  },")
        lines.append(f"  (* {input_form(self.source_body)} *)")
        lines.append("]")
        return "\n".join(lines)

    # -- execution (the protocol is GovernedFunction.__call__) --------------------

    def _native(self, *boxed):
        from repro.bytecode.compiler import (
            BYTECODE_COMPILER_VERSION,
            WVM_ENGINE_VERSION,
            BytecodeCompiler,
        )

        # Version check (§2.2): stale artifacts recompile from the source.
        if self.versions[0] != BYTECODE_COMPILER_VERSION or (
            self.versions[1] != WVM_ENGINE_VERSION
        ):
            fresh = BytecodeCompiler().compile(self.source_specs, self.source_body)
            self.constants = fresh.constants
            self.instructions = fresh.instructions
            self.register_total = fresh.register_total
            self.register_counts = fresh.register_counts
            self.versions = fresh.versions

        result = WVM(evaluator=self.evaluator).run(
            self.instructions, self.constants, boxed, self.register_total
        )
        if isinstance(result, BoxedTensor):
            return result.to_nested()
        return result


def compile_function(specs: MExpr, body: MExpr, evaluator=None) -> CompiledFunction:
    """Compile and attach a host evaluator.  The compiler is one forward
    pass, cheaper than a persistent-cache hit would be, so nothing here
    keys, looks up or stores an artifact."""
    from repro.bytecode.compiler import BytecodeCompiler

    function = BytecodeCompiler().compile(specs, body)
    function.evaluator = evaluator
    return function
