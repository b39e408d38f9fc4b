"""CFG structurization for gotoless targets (§4.6).

The Python backend needs structured control flow.  Lowering produces
reducible CFGs (If diamonds, single-header loops with breaks and early
returns), and the optimization passes preserve reducibility, so a
dominator/postdominator-driven reconstruction suffices; a CFG it cannot
structure is a :class:`~repro.errors.CodegenError`.

The result is an emission *plan* — a tree of regions — that the backend
walks to print code:

* ``BlockNode``: one basic block's straight-line body, and its return;
* ``EdgeNode``: the phi copies of one CFG edge, then its transfer;
* ``IfNode``: a conditional with two arm plans;
* ``LoopNode``: a natural loop (``while True`` + ``break``/``continue``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.compiler.wir.analysis import (
    compute_dominators,
    dominates,
    find_natural_loops,
    immediate_dominators,
)
from repro.compiler.wir.function_module import FunctionModule
from repro.compiler.wir.instructions import (
    BranchInstr,
    JumpInstr,
    ReturnInstr,
)
from repro.errors import CodegenError


@dataclass
class Plan:
    pass


@dataclass
class BlockNode(Plan):
    name: str


@dataclass
class EdgeNode(Plan):
    """Phi copies for the edge source -> target, then a transfer."""

    source: str
    target: str
    transfer: str  # 'fallthrough' | 'break' | 'continue'


@dataclass
class IfNode(Plan):
    block: str  # block whose terminator is the Branch
    then_plan: list[Plan] = field(default_factory=list)
    else_plan: list[Plan] = field(default_factory=list)


@dataclass
class LoopNode(Plan):
    header: str
    body: list[Plan] = field(default_factory=list)


class Structurizer:
    def __init__(self, function: FunctionModule):
        self.function = function
        self.loops = {loop.header: loop for loop in
                      find_natural_loops(function)}
        self.idom = compute_dominators(function)
        self.postdom = _compute_postdominators(function)
        self._emitted: set[str] = set()
        self._budget = 4 * len(function.blocks) + 64

    def build(self) -> list[Plan]:
        assert self.function.entry is not None
        plan = self._region(self.function.entry, None, [])
        if len(self._emitted) != len(self.function.blocks):
            missing = set(self.function.blocks) - self._emitted
            raise CodegenError(f"unstructured blocks remain: {missing}")
        return plan

    # -- region emission -----------------------------------------------------------

    def _region(
        self,
        entry: Optional[str],
        stop: Optional[str],
        loop_stack: list[tuple[str, Optional[str]]],  # (header, break target)
    ) -> list[Plan]:
        plan: list[Plan] = []
        current = entry
        while current is not None and current != stop:
            self._budget -= 1
            if self._budget <= 0:
                raise CodegenError("structurizer did not converge")
            loop = self.loops.get(current)
            in_active = any(h == current for h, _ in loop_stack)
            if loop is not None and not in_active:
                exit_target = self._loop_exit(loop)
                body = self._region(
                    current, None, [*loop_stack, (current, exit_target)]
                )
                plan.append(LoopNode(header=current, body=body))
                current = exit_target
                continue

            block = self.function.blocks.get(current)
            if block is None:
                raise CodegenError(f"missing block {current}")
            # a block several paths reach (a ``For`` step, the code a
            # ``Break[]`` skips to) is written on each: every copy ends in
            # its own return, break or continue, or runs to the region's end
            self._emitted.add(current)
            plan.append(BlockNode(current))
            terminator = block.terminator
            if isinstance(terminator, ReturnInstr):
                current = None
            elif isinstance(terminator, JumpInstr):
                transfer, next_block = self._classify_jump(
                    current, terminator.target, stop, loop_stack
                )
                plan.append(EdgeNode(current, terminator.target, transfer))
                current = next_block
            elif isinstance(terminator, BranchInstr):
                node, next_block = self._branch(
                    current, terminator, stop, loop_stack
                )
                plan.append(node)
                current = next_block
            else:
                raise CodegenError(f"block {current} lacks a terminator")
        return plan

    @staticmethod
    def _copyable(block, loop_stack) -> bool:
        """Is ``block`` a join an arm may skip to, to be written on each
        path: one that returns, one that only jumps, or a ``For`` step?"""
        terminator = block.terminator
        return isinstance(terminator, ReturnInstr) or isinstance(
            terminator, JumpInstr) and (not block.instructions or bool(
                loop_stack) and terminator.target == loop_stack[-1][0])

    def _classify_jump(
        self,
        source: str,
        target: str,
        stop: Optional[str],
        loop_stack: list[tuple[str, Optional[str]]],
    ) -> tuple[str, Optional[str]]:
        if loop_stack:
            header, break_target = loop_stack[-1]
            if target == header:
                return "continue", None
            if break_target is not None and target == break_target:
                return "break", None
        if target == stop:
            return "fallthrough", None
        return "fallthrough", target

    def _branch(
        self,
        current: str,
        terminator: BranchInstr,
        stop: Optional[str],
        loop_stack: list[tuple[str, Optional[str]]],
    ) -> tuple[IfNode, Optional[str]]:
        join = self._join_point(current, terminator, stop, loop_stack)
        node = IfNode(block=current)
        node.then_plan = self._arm(
            current, terminator.true_target, join, stop, loop_stack
        )
        node.else_plan = self._arm(
            current, terminator.false_target, join, stop, loop_stack
        )
        if join == stop:
            return node, None
        return node, join

    def _arm(
        self,
        source: str,
        target: str,
        join: Optional[str],
        stop: Optional[str],
        loop_stack: list[tuple[str, Optional[str]]],
    ) -> list[Plan]:
        transfer, next_block = self._classify_jump(
            source, target, join if join is not None else stop, loop_stack
        )
        plan: list[Plan] = [EdgeNode(source, target, transfer)]
        if transfer == "fallthrough" and next_block is not None:
            plan.extend(
                self._region(next_block,
                             join if join is not None else stop, loop_stack)
            )
        return plan

    def _join_point(
        self,
        current: str,
        terminator: BranchInstr,
        stop: Optional[str],
        loop_stack: list[tuple[str, Optional[str]]],
    ) -> Optional[str]:
        """The immediate postdominator of the branch, bounded by context."""
        special = {stop}
        if loop_stack:
            header, break_target = loop_stack[-1]
            special |= {header, break_target}
        # arms that immediately leave the region need no common join
        targets = [terminator.true_target, terminator.false_target]
        interior = [t for t in targets if t not in special]
        if not interior:
            return stop
        join = self.postdom.get(current)
        if join is not None and join == stop:
            return stop
        if join is None or join in special or self._copyable(
                self.function.blocks[join], loop_stack):
            # an arm that leaves (break, return, continue) skips where the
            # arms meet, so the postdominator lies past it or there is
            # none: the arms meet where the branch alone leads
            join = self._merge_below(current, special) or (
                None if join in special else join)
        # a join past the region's end (an arm continues to the step the
        # region's end leads to) is that end
        after = self.postdom.get(stop) if stop is not None else None
        while after is not None and after != join:
            after = self.postdom.get(after)
        return stop if after is not None else join

    def _merge_below(self, branch: str, special: set) -> Optional[str]:
        """The first block ``branch`` immediately dominates that more than
        one forward edge enters, if any."""
        predecessors = self.function.predecessors()
        for name in self.function.cfg().reverse_postorder:
            if self.idom.get(name) != branch or name in special:
                continue
            forward = [p for p in predecessors[name]
                       if not dominates(self.idom, name, p)]
            if len(forward) > 1:
                return name
        return None

    def _loop_exit(self, loop) -> Optional[str]:
        """The loop's follow, the block after the ``while True``.  Other
        exits (an early ``Return[]``, a ``Break[]``) are emitted inline at
        their branch.  One that runs into another exit ends in ``break``:
        the exit every such one runs into is the follow.  If none does,
        every exit returns, and the loop test's exit stays the follow."""
        exits: list[str] = []
        for block in self.function.ordered_blocks():
            if block.name in loop.body:
                for successor in block.successors():
                    if successor not in loop.body and successor not in exits:
                        exits.append(successor)
        if len(exits) <= 1:
            return next(iter(exits), None)
        reach = {name: self._reach(name, loop) for name in exits}
        joining = [name for name in exits
                   if any(other in reach[name] for other in exits
                          if other != name)]
        if not joining:
            return next((name for name in
                         self.function.blocks[loop.header].successors()
                         if name in exits), None)
        follows = [name for name in exits if name not in joining
                   and all(name in reach[other] for other in joining)]
        if len(follows) != 1:
            raise CodegenError(
                f"loop {loop.header} has no single follow among {exits}"
            )
        return follows[0]

    def _reach(self, name: str, loop) -> set[str]:
        """The blocks reachable from ``name`` without entering the loop."""
        seen: set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen or current in loop.body:
                continue
            seen.add(current)
            stack.extend(self.function.blocks[current].successors())
        return seen


def _compute_postdominators(function: FunctionModule) -> dict[str, Optional[str]]:
    """Immediate postdominators: the dominators of the reversed CFG, rooted
    at a virtual exit that every returning block leads to."""
    virtual_exit = "<exit>"
    successors = {b.name: b.successors() for b in function.ordered_blocks()}
    exits = [
        name for name, targets in successors.items()
        if not targets
        or isinstance(function.blocks[name].terminator, ReturnInstr)
    ]
    predecessors = function.predecessors()
    # in the reversed graph a block's predecessors are its successors
    reverse_predecessors = {
        name: [*targets, *([virtual_exit] if name in exits else [])]
        for name, targets in successors.items()
    }
    order: list[str] = []
    seen: set[str] = set()

    def visit(node: str) -> None:
        if node in seen:
            return
        seen.add(node)
        for child in (exits if node == virtual_exit
                      else predecessors.get(node, ())):
            visit(child)
        order.append(node)

    visit(virtual_exit)
    order.reverse()
    # blocks unreachable backwards from any exit
    order += [name for name in successors if name not in seen]
    ipdom = immediate_dominators(order, reverse_predecessors, virtual_exit)
    return {
        name: (None if value in (virtual_exit, None) else value)
        for name, value in ipdom.items()
        if name != virtual_exit
    }
