"""Optimization passes (§4.3 WIR-safe, §4.5 TWIR).

* sparse conditional constant propagation [79] (implemented as iterative
  constant folding over pure primitives with conditional-branch folding,
  plus the ``x == True`` identity the And/Or macros leave behind);
* one CFG clean-up, safe on untyped WIR (§4.3): jump threading of
  short-circuit loop exits, dead-branch deletion, trivial-phi removal and
  basic-block fusion, sharing one predecessor map;
* dominator-based common-subexpression elimination [20];
* dead-code elimination [47];
* the IR linter (§4.3 footnote 3): verifies the SSA single-definition
  property, operand dominance, and terminator well-formedness.
"""

from __future__ import annotations

from typing import Optional

from repro.compiler.wir.analysis import compute_dominators
from repro.compiler.wir.function_module import (
    BasicBlock,
    Forwarding,
    FunctionModule,
)
from repro.compiler.wir.instructions import (
    BranchInstr,
    CallPrimitiveInstr,
    ConstantInstr,
    FunctionRef,
    JumpInstr,
    PhiInstr,
    Value,
)
from repro.errors import LintError, WolframRuntimeError


# -- constant propagation -----------------------------------------------------------


def constant_propagation(function: FunctionModule) -> bool:
    """Fold pure primitives over constants; fold branches on constants;
    forward ``x == True`` to ``x`` for Boolean ``x`` (an artifact of the
    §4.2 And/Or desugaring macros).  The last never creates a value, so
    ``x == False`` is left alone."""
    from repro.compiler.types.specifier import AtomicType

    changed = False
    forwarding = Forwarding()
    constants: dict[int, object] = {
        instruction.result.id: instruction.value
        for block in function.ordered_blocks()
        for instruction in block.instructions  # never a phi or terminator
        if isinstance(instruction, ConstantInstr)
        and not isinstance(instruction.value, FunctionRef)
    }

    def boolean_operand(instruction) -> Optional[Value]:
        """The other operand of ``== True`` when it is a Boolean."""
        a, b = map(forwarding.resolve, instruction.operands)
        for constant, other in ((a, b), (b, a)):
            if constants.get(constant.id) is True and isinstance(
                other.type, AtomicType
            ) and other.type.name == "Boolean":
                return other
        return None

    for block in function.ordered_blocks():
        new_instructions = []
        for instruction in block.instructions:
            if isinstance(instruction, CallPrimitiveInstr):
                folded = _fold(instruction, constants)
                if folded is not None:
                    instruction = folded
                    changed = True
                elif (
                    instruction.primitive.runtime_name == "compare_equal"
                    and len(instruction.operands) == 2
                    and (operand := boolean_operand(instruction)) is not None
                ):
                    forwarding.replace(instruction.result, operand)
                    changed = True
            new_instructions.append(instruction)
        block.instructions = new_instructions

        terminator = block.terminator
        if isinstance(terminator, BranchInstr) and (
            terminator.condition.id in constants
        ):
            taken, not_taken = terminator.true_target, terminator.false_target
            if not constants[terminator.condition.id]:
                taken, not_taken = not_taken, taken
            block.terminator = JumpInstr(taken)
            _remove_phi_edges(function, not_taken, block.name)
            changed = True
    forwarding.apply(function)
    return changed


def _fold(instruction: CallPrimitiveInstr,
          constants: dict[int, object]) -> Optional[ConstantInstr]:
    """``instruction`` evaluated now, if it is a pure primitive over
    constants that does not fail; its result joins ``constants``."""
    runtime = instruction.primitive.call
    if not (
        instruction.primitive.pure
        and runtime is not None
        and instruction.operands
        and all(v.id in constants for v in instruction.operands)
    ):
        return None
    try:
        result = runtime(*[constants[v.id] for v in instruction.operands])
    except (WolframRuntimeError, ValueError,
            ZeroDivisionError, OverflowError):
        return None  # fold-time error: leave for run time
    constants[instruction.result.id] = result
    folded = ConstantInstr(instruction.result, result)
    folded.properties.update(instruction.properties)
    return folded


def _remove_phi_edges(function: FunctionModule, block_name: str,
                      predecessor: str) -> None:
    block = function.blocks.get(block_name)
    if block is None:
        return
    for phi in block.phis:
        phi.set_incoming(
            [(p, v) for p, v in phi.incoming if p != predecessor]
        )


def hoist_constants(function: FunctionModule) -> bool:
    """Move scalar constants to the entry block (loop-invariant by
    construction); CSE then merges duplicates, so loops stop re-loading
    literals every iteration."""
    entry = function.blocks[function.entry]
    moved: list[ConstantInstr] = []
    for block in function.ordered_blocks():
        if block is entry:
            continue
        kept = []
        for instruction in block.instructions:
            if isinstance(instruction, ConstantInstr) and isinstance(
                instruction.value, (int, float, bool, complex, str, type(None))
            ):
                moved.append(instruction)
            else:
                kept.append(instruction)
        block.instructions = kept
    if not moved:
        return False
    # keep argument loads first, then the hoisted constants
    position = 0
    while position < len(entry.instructions) and (
        entry.instructions[position].opcode == "LoadArgument"
    ):
        position += 1
    entry.instructions[position:position] = moved
    return True


# -- CFG clean-up ----------------------------------------------------------------------


def simplify_cfg(function: FunctionModule) -> bool:
    """Thread short-circuit loop exits, delete the blocks unreachable from
    the entry (and their phi edges), drop trivial phis, then fuse each
    block into its unique predecessor where control is linear.  One
    predecessor map, taken once, is kept up to date through every edit."""
    predecessors = {
        name: list(sources)
        for name, sources in function.predecessors().items()
    }
    changed = _thread_jumps(function, predecessors)
    changed |= _delete_dead_blocks(function, predecessors)
    forwarding = Forwarding()
    # not a change by itself: the phis a lowering leaves trivial go in the
    # first round without asking for another
    simplify_trivial_phis(function, forwarding)
    changed |= _fuse_blocks(function, predecessors, forwarding)
    forwarding.apply(function)
    return changed


def _retarget(function: FunctionModule, predecessors: dict,
              source: str, old: str, new: str) -> None:
    """Point ``source``'s edges to ``old`` at ``new``, and say so in
    ``predecessors``."""
    block = function.blocks[source]
    for _ in range(block.successors().count(old)):
        predecessors[old].remove(source)
        predecessors[new].append(source)
    block.retarget(old, new)


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


def _thread_jumps(function: FunctionModule, predecessors: dict) -> bool:
    """Send each edge that brings a branched-on phi a constant straight to
    the branch's target, when that target lies outside the loop.

    The ``&&``/``||`` macros (§4.2) lower ``While[a && b, ...]`` to a
    Boolean phi: one edge brings ``b``, the other the constant ``False``,
    and the loop branches on the phi.  Threaded, the loop tests ``a`` and
    ``b`` with two nested branches, and the dataflow analysis, which
    refines a value only on an edge out of a comparison, sees ``a`` hold
    in the body.  Only edges that leave the loop are threaded: the
    threaded predecessor then ends in one more ``break`` to the exit the
    loop already had, which the structurizer prints as such, while a join
    threaded inside straight-line code gets two ways in that no
    ``if``/``else`` nesting can print."""
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
            _retarget(function, predecessors, source_name, join.name,
                      target_name)
            touched |= {join.name, source_name, target_name}
            touched |= _bypass_if_empty(function, source, predecessors)
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


def _bypass_if_empty(function: FunctionModule, block: BasicBlock,
                     predecessors: dict) -> set:
    """A threaded predecessor that holds nothing (the ``else`` arm of the
    desugared ``&&``) would be a second place the loop exits to; point the
    edges into it at where it jumps instead.  Returns the blocks whose
    edges moved."""
    if block.phis or block.instructions or block.name == function.entry:
        return set()
    (target_name,) = block.successors()
    target = function.blocks[target_name]
    sources = sorted(predecessors[block.name],
                     key=lambda s: function.blocks[s].index)
    if any(target_name in function.blocks[s].successors() for s in sources):
        return set()
    for phi in target.phis:
        carried = dict(phi.incoming)[block.name]
        phi.set_incoming(
            [(p, v) for p, v in phi.incoming if p != block.name]
            + [(source, carried) for source in sources]
        )
    for source in sources:
        _retarget(function, predecessors, source, block.name, target_name)
    predecessors[target_name].remove(block.name)
    del predecessors[block.name]
    function.remove_block(block.name)
    return set(sources)


def _delete_dead_blocks(function: FunctionModule, predecessors: dict) -> bool:
    """Remove blocks unreachable from the entry (dead-branch deletion),
    and their edges from the phis of the blocks they jumped to."""
    reachable: set[str] = set()
    stack = [function.entry]
    while stack:
        name = stack.pop()
        if name in reachable or name not in function.blocks:
            continue
        reachable.add(name)
        stack.extend(function.blocks[name].successors())
    dead = [name for name in function.block_order if name not in reachable]
    for name in dead:
        for successor_name in set(function.blocks[name].successors()):
            if successor_name not in reachable:
                continue  # dead too
            predecessors[successor_name] = [
                s for s in predecessors[successor_name] if s != name
            ]
            for phi in function.blocks[successor_name].phis:
                phi.set_incoming(
                    [(p, v) for p, v in phi.incoming if p != name]
                )
        del predecessors[name]
        function.remove_block(name)
    return bool(dead)


def simplify_trivial_phis(function: FunctionModule,
                          forwarding: Optional[Forwarding] = None) -> None:
    """Remove every phi that merges one value (with itself), to a fixed
    point: removing one can make another trivial.  The uses are rewritten
    here unless the caller passes the ``forwarding`` it applies itself."""
    pending = Forwarding() if forwarding is None else forwarding
    changed = True
    while changed:
        changed = False
        for block in function.ordered_blocks():
            for phi in list(block.phis):
                values = {pending.resolve(v) for _, v in phi.incoming}
                values.discard(phi.result)
                if len(values) == 1:
                    (only,) = values
                    pending.replace(phi.result, only)
                    block.phis.remove(phi)
                    changed = True
    if forwarding is None:
        pending.apply(function)


def _fuse_blocks(function: FunctionModule, predecessors: dict,
                 forwarding: Forwarding) -> bool:
    """Merge a block into its unique predecessor when control is linear."""
    changed = False
    for block in function.ordered_blocks():
        if block.name not in function.blocks:
            continue  # fused into an earlier block already
        while isinstance(block.terminator, JumpInstr):
            target_name = block.terminator.target
            if target_name == function.entry or (
                len(predecessors.get(target_name, ())) != 1
            ):
                break
            target = function.blocks[target_name]
            # single predecessor: phis are trivial; forward them
            for phi in target.phis:
                if phi.incoming:
                    forwarding.replace(phi.result, phi.incoming[0][1])
            target.phis = []
            block.instructions.extend(target.instructions)
            block.terminator = target.terminator
            for successor_name in set(target.successors()):
                if successor_name not in predecessors:
                    continue
                predecessors[successor_name] = [
                    block.name if p == target_name else p
                    for p in predecessors[successor_name]
                ]
                for phi in function.blocks[successor_name].phis:
                    phi.incoming = [
                        (block.name if p == target_name else p, v)
                        for p, v in phi.incoming
                    ]
            del predecessors[target_name]
            function.remove_block(target_name)
            changed = True
    return changed


# -- dead code elimination ----------------------------------------------------------------


def dead_code_elimination(function: FunctionModule) -> bool:
    changed = False
    progress = True
    while progress:
        progress = False
        used: set[int] = set()
        for block in function.ordered_blocks():
            for instruction in block.all_instructions():
                for operand in instruction.operands:
                    used.add(operand.id)
        for block in function.ordered_blocks():
            kept = []
            for instruction in block.instructions:
                removable = (
                    instruction.pure
                    and instruction.result is not None
                    and instruction.result.id not in used
                )
                if removable:
                    progress = changed = True
                else:
                    kept.append(instruction)
            block.instructions = kept
            live_phis = []
            for phi in block.phis:
                if phi.result.id in used:
                    live_phis.append(phi)
                else:
                    progress = changed = True
            block.phis = live_phis
    return changed


# -- common subexpression elimination ----------------------------------------------------------


def common_subexpression_elimination(function: FunctionModule,
                                     stores_in_place: bool = False) -> bool:
    """Dominator-scoped value numbering over pure instructions.

    A key is the primitive and its operands and knows nothing of memory,
    which is sound while every ``PartSet`` makes a new SSA tensor.  Once
    alias collapse has made a store's result its operand
    (``stores_in_place``), two reads either side of the store would key
    alike, so only *total* primitives, which read no tensor data, merge.
    """
    idom = compute_dominators(function)
    children: dict[str, list[str]] = {}
    for name, parent in idom.items():
        if parent is not None:
            children.setdefault(parent, []).append(name)

    changed = False
    forwarding = Forwarding()
    #: one table for the whole walk: a block's entries are visible in its
    #: dominator subtree and taken out again when the walk leaves it
    available: dict[tuple, Value] = {}

    def key_of(instruction) -> Optional[tuple]:
        if (
            isinstance(instruction, CallPrimitiveInstr)
            and instruction.primitive.pure
            and (instruction.primitive.total or not stores_in_place)
        ):
            return ("prim", instruction.primitive.runtime_name,
                    tuple(forwarding.resolve(v).id
                          for v in instruction.operands))
        if isinstance(instruction, ConstantInstr):
            value = instruction.value
            if isinstance(value, (int, float, bool, str, complex)):
                return ("const", type(value).__name__, value)
        return None

    def walk(block_name: str) -> None:
        nonlocal changed
        block = function.blocks.get(block_name)
        if block is None:
            return
        added = []
        kept = []
        for instruction in block.instructions:
            key = key_of(instruction)
            if key is not None:
                existing = available.get(key)
                if existing is not None:
                    forwarding.replace(instruction.result, existing)
                    changed = True
                    continue
                available[key] = instruction.result
                added.append(key)
            kept.append(instruction)
        block.instructions = kept
        for child in children.get(block_name, []):
            walk(child)
        for key in added:
            del available[key]

    assert function.entry is not None
    walk(function.entry)
    forwarding.apply(function)
    return changed


# -- the IR linter (§4.3 footnote: "An IR linter exists to check if the SSA
# property is maintained when writing passes") -----------------------------------------------


def lint(function: FunctionModule) -> None:
    definitions: dict[int, str] = {}
    for block in function.ordered_blocks():
        if block.terminator is None:
            raise LintError(f"block {block.name} has no terminator")
        for successor in block.successors():
            if successor not in function.blocks:
                raise LintError(
                    f"block {block.name} jumps to unknown block {successor}"
                )
        for instruction in block.all_instructions():
            if instruction.result is not None:
                if instruction.result.id in definitions:
                    raise LintError(
                        f"SSA violation: {instruction.result!r} defined in "
                        f"{definitions[instruction.result.id]} and again in "
                        f"{block.name}"
                    )
                definitions[instruction.result.id] = block.name
    predecessors = function.predecessors()
    for block in function.ordered_blocks():
        for phi in block.phis:
            incoming_blocks = {p for p, _ in phi.incoming}
            actual = set(predecessors.get(block.name, ()))
            if incoming_blocks != actual:
                raise LintError(
                    f"phi {phi} in {block.name} covers {incoming_blocks}, "
                    f"predecessors are {actual}"
                )
    # every operand must be defined somewhere (parameters count as defined)
    for parameter in function.parameters:
        definitions.setdefault(parameter.id, "<param>")
    for block in function.ordered_blocks():
        for instruction in block.all_instructions():
            for operand in instruction.operands:
                if operand.id not in definitions:
                    raise LintError(
                        f"use of undefined value {operand!r} in "
                        f"{block.name}: {instruction}"
                    )
