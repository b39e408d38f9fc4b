"""``CompiledFunction``: the bytecode compiler's callable artifact (§2.2).

Reproduces the serialized structure the paper prints — compiler/engine
versions and flags, argument types, constants, register allocation, the
instruction stream, and the original input function — plus the runtime
behaviours around it:

* version check on call; mismatches trigger recompilation from the stored
  input function;
* argument type checking and tensor boxing (copy-on-read, F5);
* soft failure: runtime errors re-evaluate through the interpreter (F2);
* abortability when hosted in an engine (F3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.bytecode.boxed import BoxedTensor
from repro.bytecode.instructions import Instruction, Op, RegisterCounts
from repro.bytecode.vm import WVM
from repro.errors import (
    GUARD_EXCEPTIONS,
    WolframAbort,
    WolframRuntimeError,
)
from repro.mexpr.expr import MExpr
from repro.mexpr.symbols import to_mexpr
from repro.runtime.guard import CircuitBreaker, FallbackStats, Tier


@dataclass
class CompiledFunction:
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
    #: per-tier call/failure statistics (see :meth:`stats`)
    fallback_stats: FallbackStats = field(
        default_factory=FallbackStats, repr=False
    )
    #: tier governor: bytecode → interpreter after N soft failures
    breaker: CircuitBreaker = field(
        default_factory=lambda: CircuitBreaker(
            "CompiledFunction", start=Tier.BYTECODE
        ),
        repr=False,
    )

    # -- fallback inspection -----------------------------------------------------

    def stats(self) -> FallbackStats:
        """Inspection API replacing the old bare ``fallback_count`` int."""
        self.fallback_stats.current_tier = self.breaker.tier.value
        return self.fallback_stats

    @property
    def fallback_count(self) -> int:
        """Compatibility alias: number of interpreter re-evaluations (F2)."""
        return self.fallback_stats.interpreter_reruns

    def reset_tiers(self) -> None:
        self.breaker.reset()
        self.fallback_stats.reset()

    # -- serialization fidelity -------------------------------------------------

    def to_payload(self) -> Optional[dict]:
        """The artifact-cache wire form of this function, or ``None`` when
        some component does not serialize (the compile is then simply not
        cached — never an error).

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

    # -- execution ----------------------------------------------------------------

    def __call__(self, *arguments):
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

        # circuit breaker: after N soft failures the VM tier is not
        # re-attempted; calls run straight on the interpreter
        if self.breaker.tier is Tier.INTERPRETER and self.evaluator is not None:
            self.fallback_stats.record_call(Tier.INTERPRETER)
            return self._reevaluate(arguments)

        boxed = self._check_and_box(arguments)
        machine = WVM(evaluator=self.evaluator)
        self.fallback_stats.record_call(Tier.BYTECODE)
        try:
            result = machine.run(
                self.instructions, self.constants, boxed, self.register_total
            )
        except WolframAbort:
            raise
        except GUARD_EXCEPTIONS as error:
            # a deadline/budget expiry is not the VM's fault: record it but
            # never retry (the guard stays expired) and don't trip the breaker
            self.fallback_stats.record_failure(Tier.BYTECODE, error.kind)
            raise
        except WolframRuntimeError as error:
            self.fallback_stats.record_failure(Tier.BYTECODE, error.kind)
            self.breaker.record_failure(Tier.BYTECODE, error.kind, str(error))
            return self._fallback(arguments, error)
        if isinstance(result, BoxedTensor):
            return result.to_nested()
        return result

    def _check_and_box(self, arguments) -> list:
        if len(arguments) != len(self.argument_types):
            raise WolframRuntimeError(
                "ArgumentCount",
                f"expected {len(self.argument_types)} arguments, "
                f"got {len(arguments)}",
            )
        boxed = []
        for value, type_char in zip(arguments, self.argument_types):
            if type_char.startswith("T"):
                if not isinstance(value, (list, tuple)):
                    raise WolframRuntimeError("TypeMismatch", "expected a list")
                # copy-on-read: inputs are boxed into a private copy (F5)
                boxed.append(BoxedTensor.from_nested(value, type_char[1:]))
            elif type_char == "i":
                if isinstance(value, bool) or not isinstance(value, int):
                    raise WolframRuntimeError(
                        "TypeMismatch", f"{value!r} is not a machine integer"
                    )
                boxed.append(value)
            elif type_char == "r":
                if not isinstance(value, (int, float)):
                    raise WolframRuntimeError(
                        "TypeMismatch", f"{value!r} is not a real"
                    )
                boxed.append(float(value))
            elif type_char == "c":
                boxed.append(complex(value))
            elif type_char == "b":
                boxed.append(bool(value))
            else:  # pragma: no cover
                boxed.append(value)
        return boxed

    def _fallback(self, arguments, error: WolframRuntimeError):
        """Soft failure (F2): re-evaluate with the interpreter."""
        if self.evaluator is None:
            raise error
        self.evaluator.message(
            "CompiledFunction: CompiledFunction operation encountered a "
            f"runtime error ({error.kind}); reverting to uncompiled evaluation."
        )
        self.fallback_stats.record_rerun()
        return self._reevaluate(arguments)

    def _reevaluate(self, arguments):
        from repro.engine.patterns import substitute

        bindings = {
            name: to_mexpr(value)
            for name, value in zip(self.argument_names, arguments)
        }
        result = self.evaluator.evaluate(
            substitute(self.source_body, bindings)
        )
        try:
            return result.to_python()
        except ValueError:
            return result


def compile_function(specs: MExpr, body: MExpr, evaluator=None) -> CompiledFunction:
    """Compile and attach a host evaluator, consulting the persistent
    artifact cache (:mod:`repro.artifacts`) keyed on the source trees and
    the compiler/engine versions.  A hit skips the bytecode compiler
    entirely; a fresh compile whose payload serializes is stored for the
    next process.  Cache failures of any kind degrade to a plain compile.
    """
    from repro.artifacts import bytecode_key, get_store
    from repro.bytecode.compiler import (
        BYTECODE_COMPILER_VERSION,
        DEFAULT_COMPILE_FLAGS,
        WVM_ENGINE_VERSION,
        BytecodeCompiler,
    )

    store = get_store()
    cache_key = None
    if store is not None:
        versions = (BYTECODE_COMPILER_VERSION, WVM_ENGINE_VERSION,
                    DEFAULT_COMPILE_FLAGS)
        cache_key = bytecode_key(specs, body, versions)
        entry = store.get(cache_key)
        if entry is not None:
            try:
                function = CompiledFunction.from_payload(entry["function"])
            except Exception:
                store.evict(cache_key)
            else:
                function.evaluator = evaluator
                return function

    function = BytecodeCompiler().compile(specs, body)
    function.evaluator = evaluator
    if store is not None and cache_key is not None:
        payload = function.to_payload()
        if payload is not None:
            store.put(cache_key, {"kind": "bytecode", "function": payload})
    return function
