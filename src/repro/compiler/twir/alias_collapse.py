"""Mutation-alias collapse — part of §6's "reduce the frequency of array
unboxing" optimizations.

``Native`PartSet`` returns the mutated tensor so copy insertion (F5) can
reason about the old value's remaining uses.  *After* copy insertion has
run, the result is guaranteed to be the very same runtime object as the
tensor operand, so keeping it as a distinct SSA value only costs phi copies
and re-aliasing in loops.  This pass replaces all uses of the result with
the operand and drops the result entirely, collapsing the loop-carried
tensor phi chain to a single value.
"""

from __future__ import annotations

from repro.compiler.twir.passes import simplify_trivial_phis
from repro.compiler.wir.function_module import Forwarding, FunctionModule
from repro.compiler.wir.instructions import CallPrimitiveInstr


def collapse_mutation_aliases(function: FunctionModule) -> int:
    collapsed = 0
    forwarding = Forwarding()
    for block in function.ordered_blocks():
        for instruction in block.instructions:
            if not isinstance(instruction, CallPrimitiveInstr):
                continue
            if not instruction.primitive.mutates:
                continue
            result = instruction.result
            if result is None:
                continue
            forwarding.replace(result, instruction.operands[0])
            instruction.result = None
            collapsed += 1
    if collapsed:
        forwarding.apply(function)
        simplify_trivial_phis(function)
    return collapsed

