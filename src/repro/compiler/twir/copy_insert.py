"""Copy insertion — maintaining mutability semantics efficiently (§4.5, F5).

"Given a program such as ``x={...}; ...; y[[1]]=3``, a copy of x is only
needed if y aliases x and if x is used in subsequent statements.  Both alias
and live analysis are performed to determine the above conditions.  A copy
is performed if the above conditions are satisfied."

In our SSA encoding a ``Native`PartSet`` consumes the old tensor value and
produces the mutated one; the *old* value still being live after the
mutation is exactly the "aliased and used subsequently" condition, so the
pass inserts a ``Copy`` of the tensor ahead of the mutation in that case.
The QSort benchmark's 1.2× over C (§6) is this pass copying the pre-sorted
input because "the mutability semantics do not allow sorting to happen in
place".
"""

from __future__ import annotations

from repro.compiler.wir.analysis import compute_liveness
from repro.compiler.wir.function_module import Forwarding, FunctionModule
from repro.compiler.wir.instructions import (
    CallPrimitiveInstr,
    CopyInstr,
    LoadArgumentInstr,
    Value,
)


def insert_copies(function: FunctionModule) -> int:
    """Insert a Copy before each mutation whose target is still aliased."""
    inserted = 0
    inserted += _copy_mutated_arguments(function)
    _live_in, live_out = compute_liveness(function)

    for block in function.ordered_blocks():
        # uses of each value at positions after the current instruction
        positions: dict[Value, list[int]] = {}
        for index, instruction in enumerate(block.instructions):
            for operand in instruction.operands:
                positions.setdefault(operand, []).append(index)
        if block.terminator is not None:
            for operand in block.terminator.operands:
                positions.setdefault(operand, []).append(
                    len(block.instructions)
                )

        new_instructions = []
        for index, instruction in enumerate(block.instructions):
            if (
                isinstance(instruction, CallPrimitiveInstr)
                and instruction.primitive.mutates
            ):
                target = instruction.operands[0]
                still_used = any(
                    position > index
                    for position in positions.get(target, ())
                ) or target in live_out.get(block.name, set())
                # a parameter aliases the caller's data: mutating it without
                # a copy would be observable outside (ArgumentAlias, §A.6.2)
                aliases_caller = isinstance(
                    target.definition, LoadArgumentInstr
                ) and not function.information.get("ArgumentAlias", False)
                if still_used or aliases_caller:
                    copy_value = Value(hint=f"{target.hint}_copy")
                    copy_value.type = target.type
                    copy = CopyInstr(copy_value, [target])
                    copy.properties["reason"] = "mutation of aliased value"
                    new_instructions.append(copy)
                    instruction.replace_operand(target, copy_value)
                    inserted += 1
            new_instructions.append(instruction)
        block.instructions = new_instructions
    if inserted:
        function.information["CopiesInserted"] = (
            function.information.get("CopiesInserted", 0) + inserted
        )
    return inserted


def _copy_mutated_arguments(function: FunctionModule) -> int:
    """A mutation whose data *originates* from an argument (through any
    chain of phis and in-place mutations) would be visible to the caller;
    copy such arguments once at function entry — this is the single copy
    the paper charges QSort 1.2× for (§6)."""
    if function.information.get("ArgumentAlias", False):
        return 0

    # origins: walk backwards through phis and aliasing primitives
    def origins(value: Value, seen: set[int]) -> set[Value]:
        if value.id in seen:
            return set()
        seen.add(value.id)
        definition = value.definition
        from repro.compiler.wir.instructions import PhiInstr

        if isinstance(definition, PhiInstr):
            out: set[Value] = set()
            for _, incoming in definition.incoming:
                out |= origins(incoming, seen)
            return out
        if isinstance(definition, CallPrimitiveInstr) and (
            definition.primitive.mutates
        ):
            return origins(definition.operands[0], seen)
        return {value}

    argument_values: set[Value] = set()
    for block in function.ordered_blocks():
        for instruction in block.instructions:
            if isinstance(instruction, CallPrimitiveInstr) and (
                instruction.primitive.mutates
            ):
                for origin in origins(instruction.operands[0], set()):
                    if isinstance(origin.definition, LoadArgumentInstr):
                        argument_values.add(origin)

    # every use of such an argument now sees a private copy; the copies
    # themselves enter the function after that sweep, so they keep reading
    # the argument
    forwarding = Forwarding()
    copies = []
    for argument in sorted(argument_values, key=lambda v: v.id):
        copy_value = Value(hint=f"{argument.hint}_copy")
        copy_value.type = argument.type
        copy = CopyInstr(copy_value, [argument])
        copy.properties["reason"] = "argument mutated in loop (F5)"
        copies.append(copy)
        forwarding.replace(argument, copy_value)
    forwarding.apply(function)
    entry = function.blocks[function.entry]
    for copy in copies:
        load = copy.operands[0].definition
        entry.instructions.insert(entry.instructions.index(load) + 1, copy)
    return len(copies)
