"""Automatic memory management (§4.5, feature F7).

"The compiler computes the live intervals of each variable in the TWIR.
For each variable, a MemoryAcquire call instruction is placed at the head of
each interval, and MemoryRelease is placed at the tail.  Both ... are
written polymorphically and are noop for unmanaged objects and Reference
Increment and ReferenceDecrement for reference counted objects."

Only *allocating* definitions start a reference-counted interval: list
construction, tensor creation, copies, kernel escapes, and managed
arguments.  Aliasing definitions — phis and in-place mutation results, which
denote the same object — carry the existing reference, exactly as the
engine's reference counting does; otherwise every loop-carried tensor would
pay a refcount round-trip per iteration.
"""

from __future__ import annotations

from repro.compiler.wir.analysis import compute_liveness
from repro.compiler.wir.function_module import FunctionModule
from repro.compiler.wir.instructions import (
    BuildListInstr,
    CallFunctionInstr,
    CallPrimitiveInstr,
    CopyInstr,
    KernelCallInstr,
    LoadArgumentInstr,
    MemoryAcquireInstr,
    MemoryReleaseInstr,
    Value,
)


def _is_allocation(instruction) -> bool:
    if isinstance(instruction, (BuildListInstr, CopyInstr, KernelCallInstr,
                                CallFunctionInstr)):
        return True
    if isinstance(instruction, LoadArgumentInstr):
        return True
    if isinstance(instruction, CallPrimitiveInstr):
        return instruction.primitive.allocates
    return False


def insert_memory_management(function: FunctionModule) -> int:
    """Insert acquire/release around managed live intervals."""
    inserted = 0
    _live_in, live_out = compute_liveness(function)

    def managed(value: Value) -> bool:
        return value.type is not None and value.type.is_managed()

    # values that flow into aliasing instructions or phis hand their
    # reference onward; releasing them at "last use" would double-free
    aliased_onward: set[int] = set()
    for block in function.ordered_blocks():
        for phi in block.phis:
            for _, value in phi.incoming:
                aliased_onward.add(value.id)
        for instruction in block.instructions:
            if isinstance(instruction, CallPrimitiveInstr) and (
                instruction.primitive.mutates
                and instruction.result is not None
            ):
                # the mutation hands its reference to the result value;
                # collapsed mutations (result None) do not extend lifetime
                aliased_onward.add(instruction.operands[0].id)
        if block.terminator is not None:
            for operand in block.terminator.operands:
                aliased_onward.add(operand.id)  # returned values escape

    for block in function.ordered_blocks():
        last_use: dict[int, int] = {}
        for position, instruction in enumerate(block.instructions):
            for operand in instruction.operands:
                last_use[operand.id] = position

        out_ids = {v.id for v in live_out.get(block.name, ())}
        new_instructions = []
        for position, instruction in enumerate(block.instructions):
            new_instructions.append(instruction)
            result = instruction.result
            if result is not None and managed(result) and _is_allocation(
                instruction
            ):
                new_instructions.append(MemoryAcquireInstr(None, [result]))
                inserted += 1
            released_here: set[int] = set()
            for operand in instruction.operands:
                if (
                    managed(operand)
                    and operand.definition is not None
                    and _is_allocation(operand.definition)
                    and last_use.get(operand.id) == position
                    and operand.id not in out_ids
                    and operand.id not in aliased_onward
                    and operand is not result
                    # repeated operands (e * e) hold ONE reference: one release
                    and operand.id not in released_here
                ):
                    released_here.add(operand.id)
                    new_instructions.append(
                        MemoryReleaseInstr(None, [operand])
                    )
                    inserted += 1
        block.instructions = new_instructions
    if inserted:
        function.information["MemoryManaged"] = True
    return inserted

