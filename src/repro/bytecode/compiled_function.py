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
from repro.bytecode.instructions import Instruction, Op, RegisterCounts
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

    # -- serialization fidelity -------------------------------------------------

    def to_payload(self) -> Optional[dict]:
        """The artifact-cache wire form of this function, or ``None`` when
        some component does not serialize (the compile is then not cached
        and counted ``unstorable`` — never an error).

        Everything the VM executes round-trips: the instruction stream
        (``EVAL_EXPR`` payloads carry their escape expression in MExpr wire
        form), the constant pool (scalars plus tagged complex values), the
        register allocation, and the original ``specs``/``body`` trees the
        §2.2 version check recompiles from.  Host state (``evaluator``,
        breaker, stats) is per-process and deliberately excluded.
        """
        from repro.mexpr.serialize import to_wire

        constants = []
        for value in self.constants:
            if isinstance(value, complex):
                constants.append({"j": [value.real, value.imag]})
            elif value is None or isinstance(value, (bool, int, float)):
                constants.append(value)
            elif isinstance(value, MExpr):
                constants.append({"x": to_wire(value)})
            else:
                return None
        instructions = []
        for ins in self.instructions:
            wire = {"op": int(ins.op), "t": ins.target,
                    "o": [int(o) for o in ins.operands]}
            if ins.payload is not None:
                expression, free_variables = ins.payload
                wire["p"] = {
                    "e": to_wire(expression),
                    "f": [[name, register]
                          for name, register in free_variables],
                }
            instructions.append(wire)
        return {
            "versions": list(self.versions),
            "argument_types": list(self.argument_types),
            "argument_names": list(self.argument_names),
            "constants": constants,
            "register_counts": self.register_counts.encode(),
            "register_total": self.register_total,
            "instructions": instructions,
            "specs": to_wire(self.source_specs),
            "body": to_wire(self.source_body),
            "result_type": self.result_type,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CompiledFunction":
        """Rebuild a function from :meth:`to_payload` output.

        Raises on malformed payloads; callers (the artifact store path in
        :func:`compile_function`) treat any exception as a cache miss.
        """
        from repro.mexpr.serialize import from_wire

        constants = []
        for value in payload["constants"]:
            if isinstance(value, dict):
                if "j" in value:
                    constants.append(complex(value["j"][0], value["j"][1]))
                else:
                    constants.append(from_wire(value["x"]))
            else:
                constants.append(value)
        instructions = []
        for wire in payload["instructions"]:
            escape = None
            if "p" in wire:
                escape = (
                    from_wire(wire["p"]["e"]),
                    [(name, register) for name, register in wire["p"]["f"]],
                )
            instructions.append(
                Instruction(
                    Op(wire["op"]), wire["t"], tuple(wire["o"]), escape
                )
            )
        counts = payload["register_counts"]
        return cls(
            versions=tuple(payload["versions"]),
            argument_types=list(payload["argument_types"]),
            argument_names=list(payload["argument_names"]),
            constants=constants,
            register_counts=RegisterCounts(*counts),
            register_total=payload["register_total"],
            instructions=instructions,
            source_specs=from_wire(payload["specs"]),
            source_body=from_wire(payload["body"]),
            result_type=payload["result_type"],
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
    """Compile and attach a host evaluator, consulting the persistent
    artifact cache (:mod:`repro.artifacts`) keyed on the source trees and
    the compiler/engine versions.  A hit skips the bytecode compiler
    entirely; a fresh compile whose payload serializes is stored for the
    next process.  Cache failures of any kind degrade to a plain compile.
    """
    from repro.artifacts import bytecode_key, codec, get_store
    from repro.bytecode.compiler import (
        BYTECODE_COMPILER_VERSION,
        DEFAULT_COMPILE_FLAGS,
        WVM_ENGINE_VERSION,
        BytecodeCompiler,
    )

    store = get_store()
    if store is not None:
        versions = (BYTECODE_COMPILER_VERSION, WVM_ENGINE_VERSION,
                    DEFAULT_COMPILE_FLAGS)
        cache_key = bytecode_key(specs, body, versions)
        function = codec.lookup(store, cache_key, "bytecode")
        if function is not None:
            function.evaluator = evaluator
            return function

    function = BytecodeCompiler().compile(specs, body)
    function.evaluator = evaluator
    if store is not None:
        codec.store(store, cache_key, "bytecode", function=function)
    return function
