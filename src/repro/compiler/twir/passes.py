"""Optimization passes (§4.3 WIR-safe, §4.5 TWIR).

* dead-branch deletion and basic-block fusion — safe on untyped WIR (§4.3);
* sparse conditional constant propagation [79] (implemented as iterative
  constant folding over pure primitives with conditional-branch folding);
* dominator-based common-subexpression elimination [20];
* dead-code elimination [47];
* the IR linter (§4.3 footnote 3): verifies the SSA single-definition
  property, operand dominance, and terminator well-formedness.
"""

from __future__ import annotations

from typing import Optional

from repro.compiler.wir.analysis import compute_dominators, dominates
from repro.compiler.wir.function_module import (
    BasicBlock,
    Forwarding,
    FunctionModule,
)
from repro.compiler.wir.instructions import (
    BranchInstr,
    BuildListInstr,
    CallFunctionInstr,
    CallIndirectInstr,
    CallPrimitiveInstr,
    ConstantInstr,
    CopyInstr,
    FunctionRef,
    JumpInstr,
    KernelCallInstr,
    PhiInstr,
    ReturnInstr,
    Value,
)
from repro.errors import LintError, WolframRuntimeError


# -- constant propagation -----------------------------------------------------------


def constant_propagation(function: FunctionModule) -> bool:
    """Fold pure primitives over constants; fold branches on constants."""
    changed = False
    constants: dict[int, object] = {}
    for block in function.ordered_blocks():
        for instruction in block.all_instructions():
            if isinstance(instruction, ConstantInstr) and not isinstance(
                instruction.value, FunctionRef
            ):
                constants[instruction.result.id] = instruction.value

    for block in function.ordered_blocks():
        new_instructions = []
        for instruction in block.instructions:
            folded: Optional[ConstantInstr] = None
            if (
                isinstance(instruction, CallPrimitiveInstr)
                and instruction.primitive.pure
                and instruction.operands
                and all(v.id in constants for v in instruction.operands)
            ):
                runtime = instruction.primitive.call
                if runtime is not None:
                    try:
                        result = runtime(
                            *[constants[v.id] for v in instruction.operands]
                        )
                        folded = ConstantInstr(instruction.result, result)
                        folded.properties.update(instruction.properties)
                        constants[instruction.result.id] = result
                    except (WolframRuntimeError, ValueError,
                            ZeroDivisionError, OverflowError):
                        folded = None  # fold-time error: leave for run time
            if isinstance(instruction, CopyInstr):
                pass  # copies are semantic (F5); never folded
            if folded is not None:
                new_instructions.append(folded)
                changed = True
            else:
                new_instructions.append(instruction)
        block.instructions = new_instructions

        terminator = block.terminator
        if isinstance(terminator, BranchInstr) and (
            terminator.condition.id in constants
        ):
            taken = (
                terminator.true_target
                if constants[terminator.condition.id]
                else terminator.false_target
            )
            not_taken = (
                terminator.false_target
                if constants[terminator.condition.id]
                else terminator.true_target
            )
            block.terminator = JumpInstr(taken)
            _remove_phi_edges(function, not_taken, block.name)
            changed = True
    return changed


def _remove_phi_edges(function: FunctionModule, block_name: str,
                      predecessor: str) -> None:
    block = function.blocks.get(block_name)
    if block is None:
        return
    for phi in block.phis:
        phi.set_incoming(
            [(p, v) for p, v in phi.incoming if p != predecessor]
        )


def simplify_boolean_comparisons(function: FunctionModule) -> bool:
    """Fold ``x == True`` to ``x`` and ``x == False`` to ``!x`` for Boolean
    ``x`` — artifacts of the §4.2 And/Or desugaring macros."""
    from repro.compiler.types.specifier import AtomicType

    changed = False
    constants: dict[int, object] = {}
    for block in function.ordered_blocks():
        for instruction in block.all_instructions():
            if isinstance(instruction, ConstantInstr):
                constants[instruction.result.id] = instruction.value

    forwarding = Forwarding()

    def boolean_operand(instruction) -> Optional[Value]:
        """The non-constant operand when the other one is literal True."""
        a, b = map(forwarding.resolve, instruction.operands)
        if constants.get(a.id) is True and isinstance(b.type, AtomicType) \
                and b.type.name == "Boolean":
            return b
        if constants.get(b.id) is True and isinstance(a.type, AtomicType) \
                and a.type.name == "Boolean":
            return a
        return None

    for block in function.ordered_blocks():
        for index, instruction in enumerate(block.instructions):
            if not isinstance(instruction, CallPrimitiveInstr):
                continue
            if instruction.primitive.runtime_name != "compare_equal":
                continue
            if len(instruction.operands) != 2:
                continue
            operand = boolean_operand(instruction)
            if operand is None:
                continue
            forwarding.replace(instruction.result, operand)
            changed = True
    forwarding.apply(function)
    return changed


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


# -- dead branch / unreachable block deletion ------------------------------------------


def delete_dead_blocks(function: FunctionModule) -> bool:
    """Remove blocks unreachable from the entry (dead-branch deletion)."""
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
        for survivor_name in reachable:
            survivor = function.blocks.get(survivor_name)
            if survivor:
                for phi in survivor.phis:
                    phi.set_incoming(
                        [(p, v) for p, v in phi.incoming if p != name]
                    )
        function.remove_block(name)
    simplify_trivial_phis(function)
    return bool(dead)


def simplify_trivial_phis(function: FunctionModule) -> None:
    """Remove every phi that merges one value (with itself), to a fixed
    point: removing one can make another trivial."""
    forwarding = Forwarding()
    changed = True
    while changed:
        changed = False
        for block in function.ordered_blocks():
            for phi in list(block.phis):
                values = {forwarding.resolve(v) for _, v in phi.incoming}
                values.discard(phi.result)
                if len(values) == 1:
                    (only,) = values
                    forwarding.replace(phi.result, only)
                    block.phis.remove(phi)
                    changed = True
    forwarding.apply(function)


# -- block fusion ----------------------------------------------------------------------


def fuse_blocks(function: FunctionModule) -> bool:
    """Merge a block into its unique predecessor when control is linear."""
    changed = False
    forwarding = Forwarding()
    progress = True
    while progress:
        progress = False
        predecessors = function.predecessors()
        for block in function.ordered_blocks():
            terminator = block.terminator
            if not isinstance(terminator, JumpInstr):
                continue
            target_name = terminator.target
            target = function.blocks.get(target_name)
            if target is None or target_name == function.entry:
                continue
            if len(predecessors.get(target_name, [])) != 1:
                continue
            if target.phis:
                # single predecessor: phis are trivial; inline them as copies
                for phi in target.phis:
                    if phi.incoming:
                        forwarding.replace(phi.result, phi.incoming[0][1])
                target.phis = []
            block.instructions.extend(target.instructions)
            block.terminator = target.terminator
            for successor_name in (
                target.terminator.successors() if target.terminator else []
            ):
                successor = function.blocks.get(successor_name)
                if successor is None:
                    continue
                for phi in successor.phis:
                    phi.incoming = [
                        (block.name if p == target_name else p, v)
                        for p, v in phi.incoming
                    ]
            function.remove_block(target_name)
            changed = progress = True
            break
    forwarding.apply(function)
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
