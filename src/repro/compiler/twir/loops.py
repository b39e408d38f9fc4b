"""Loop-invariant code motion, which reads the natural-loop facts (§4.5).

:func:`hoist_loop_invariants` moves a *total* primitive
(:class:`~repro.compiler.types.environment.PrimitiveImpl`: it cannot raise
and reads nothing a store can change) whose operands are all defined
outside a loop to the loop's preheader.  A loop that runs zero times then
computes a value nobody reads, and nothing else: an instruction that could
trap is never moved.  An instruction that stands for an elided check moves
only if the facts prove the check redundant in the preheader too, so the
verifier's re-proof still succeeds where it now sits.  It returns at once
when the function has no loop.

The other pass that reads the loop facts, jump threading of short-circuit
loop exits, is one step of the CFG clean-up
(:func:`repro.compiler.twir.passes.simplify_cfg`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.compiler.wir.function_module import FunctionModule
from repro.compiler.wir.instructions import CallPrimitiveInstr, JumpInstr

if TYPE_CHECKING:  # pragma: no cover
    from repro.analyze.dataflow import FunctionFacts


def hoist_loop_invariants(function: FunctionModule,
                          facts: Optional["FunctionFacts"] = None) -> int:
    """Move total primitives with loop-invariant operands to the loop's
    preheader, innermost loops first; returns how many moved."""
    loops = function.cfg().loops
    if not loops:
        return 0
    from repro.compiler.twir.check_elision import justified_at

    predecessors = function.predecessors()
    moved = 0
    for loop in sorted(loops, key=lambda l: len(l.body)):
        outside = [
            p for p in predecessors.get(loop.header, ())
            if p not in loop.body
        ]
        if len(outside) != 1:
            continue
        preheader = function.blocks[outside[0]]
        if not isinstance(preheader.terminator, JumpInstr):
            continue
        inside = {
            instruction.result
            for name in loop.body
            for instruction in function.blocks[name].all_instructions()
            if instruction.result is not None
        }
        # reverse postorder visits a definition before its uses, so one
        # sweep moves a whole invariant expression
        for name in function.cfg().reverse_postorder:
            if name not in loop.body:
                continue
            block = function.blocks[name]
            kept = []
            for instruction in block.instructions:
                if (
                    isinstance(instruction, CallPrimitiveInstr)
                    and instruction.primitive.total
                    and instruction.result is not None
                    and not any(o in inside for o in instruction.operands)
                    and (
                        "elided_check" not in instruction.properties
                        or facts is not None
                        and justified_at(instruction, preheader.name, facts)
                    )
                ):
                    preheader.instructions.append(instruction)
                    inside.discard(instruction.result)
                    moved += 1
                else:
                    kept.append(instruction)
            block.instructions = kept
    return moved
