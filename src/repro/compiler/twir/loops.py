"""Two passes that read the natural-loop facts (§4.5).

**Jump threading of short-circuit tests.**  The ``&&``/``||`` macros (§4.2)
lower ``While[a && b, ...]`` to a Boolean phi: one edge brings ``b``, the
other the constant ``False``, and the loop branches on the phi.  An edge
that brings a constant already knows where that branch goes, so
:func:`thread_jumps` sends it there directly.  The loop then tests ``a``
and ``b`` with two nested branches, and the dataflow analysis, which
refines a value only on an edge out of a comparison, sees ``a`` hold in
the body.

Only edges that leave the loop are threaded.  The threaded predecessor
then ends in one more ``break`` to the exit the loop already had, which
the structurizer prints as such (an arm left empty by this is bypassed, so
that the loop keeps one exit); threading a join inside straight-line
code instead gives a block two ways in that no ``if``/``else`` nesting can
print, and the backend would fall back to its state machine.

**Loop-invariant code motion.**  :func:`hoist_loop_invariants` moves a
*total* primitive (:class:`~repro.compiler.types.environment.PrimitiveImpl`:
it cannot raise and reads nothing a store can change) whose operands are
all defined outside a loop to the loop's preheader.  A loop that runs zero
times then computes a value nobody reads, and nothing else: an instruction
that could trap is never moved.  An instruction that stands for an elided
check moves only if the facts prove the check redundant in the preheader
too, so the verifier's re-proof still succeeds where it now sits.

Both return at once when the function has no loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.compiler.wir.function_module import BasicBlock, FunctionModule
from repro.compiler.wir.instructions import (
    BranchInstr,
    CallPrimitiveInstr,
    ConstantInstr,
    JumpInstr,
    PhiInstr,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.analyze.dataflow import FunctionFacts


def _innermost_loops(function: FunctionModule) -> dict[str, str]:
    """``{block name: header of the smallest loop around it}``."""
    innermost: dict[str, str] = {}
    for loop in sorted(function.cfg().loops, key=lambda l: -len(l.body)):
        for name in loop.body:
            innermost[name] = loop.header
    return innermost


def _constant_edges(block: BasicBlock) -> Optional[PhiInstr]:
    """The phi ``block`` branches on, if ``block`` is nothing but phis and
    that branch and some edge brings the phi a Boolean constant."""
    terminator = block.terminator
    if block.instructions or not isinstance(terminator, BranchInstr):
        return None
    phi = terminator.condition.definition
    if not isinstance(phi, PhiInstr) or phi not in block.phis:
        return None
    if terminator.true_target == terminator.false_target:
        return None
    for _, value in phi.incoming:
        definition = value.definition
        if isinstance(definition, ConstantInstr) and isinstance(
            definition.value, bool
        ):
            return phi
    return None


def thread_jumps(function: FunctionModule) -> bool:
    """Send each edge that brings a branched-on phi a constant straight to
    the branch's target, when that target lies outside the loop."""
    joins = [
        (block, phi) for block in function.ordered_blocks()
        for phi in (_constant_edges(block),) if phi is not None
    ]
    if not joins:
        return False
    # the loop facts are read once: an edge next to one threaded in this
    # run waits for the next round of the optimisation loop
    innermost = _innermost_loops(function)
    bodies = {loop.header: loop.body for loop in function.cfg().loops}
    touched: set[str] = set()
    for join, phi in joins:
        header = innermost.get(join.name)
        if header is None:
            continue
        for source_name, value in phi.incoming:
            definition = value.definition
            if not (isinstance(definition, ConstantInstr)
                    and isinstance(definition.value, bool)):
                continue
            target_name = (
                join.terminator.true_target if definition.value
                else join.terminator.false_target
            )
            source = function.blocks[source_name]
            if (
                touched & {join.name, source_name, target_name}
                or target_name in bodies[header]
                or innermost.get(source_name) != header
                or target_name in source.successors()
                or _read_past_successors(function, join)
            ):
                continue
            join_phis = {p.result: p for p in join.phis}
            for target_phi in function.blocks[target_name].phis:
                carried = dict(target_phi.incoming)[join.name]
                if carried in join_phis:
                    carried = dict(join_phis[carried].incoming)[source_name]
                target_phi.set_incoming(
                    target_phi.incoming + [(source_name, carried)]
                )
            for join_phi in join.phis:
                join_phi.set_incoming(
                    [(p, v) for p, v in join_phi.incoming if p != source_name]
                )
            source.retarget(join.name, target_name)
            touched |= {join.name, source_name, target_name}
            touched |= _bypass_if_empty(function, source)
            break
    return bool(touched)


def _read_past_successors(function: FunctionModule, join: BasicBlock) -> bool:
    """Is a phi of ``join`` read anywhere but by ``join``'s own branch and
    the phis of its successors?  Past a threaded edge nothing else could
    name it any more."""
    results = {phi.result for phi in join.phis}
    successors = join.successors()
    return any(
        operand in results
        for block in function.ordered_blocks()
        for instruction in block.all_instructions()
        if instruction is not join.terminator
        and not (isinstance(instruction, PhiInstr)
                 and block.name in successors)
        for operand in instruction.operands
    )


def _bypass_if_empty(function: FunctionModule, block: BasicBlock) -> set:
    """A threaded predecessor that holds nothing (the ``else`` arm of the
    desugared ``&&``) would be a second place the loop exits to; point the
    edges into it at where it jumps instead.  Returns the blocks whose
    edges moved."""
    if block.phis or block.instructions or block.name == function.entry:
        return set()
    (target_name,) = block.successors()
    target = function.blocks[target_name]
    sources = function.predecessors().get(block.name, ())
    if any(target_name in function.blocks[s].successors() for s in sources):
        return set()
    for phi in target.phis:
        carried = dict(phi.incoming)[block.name]
        phi.set_incoming(
            [(p, v) for p, v in phi.incoming if p != block.name]
            + [(source, carried) for source in sources]
        )
    for source in sources:
        function.blocks[source].retarget(block.name, target_name)
    function.remove_block(block.name)
    return set(sources)


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
