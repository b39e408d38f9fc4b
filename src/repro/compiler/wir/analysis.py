"""CFG analyses valid on both WIR and TWIR (§4.3): dominators (Cooper-
Harvey-Kennedy [21]), natural-loop detection [13, 62], and liveness [12].

Used by abort-check insertion (loop headers), the structurizer, memory
management (live intervals), and the copy-insertion mutability pass.

The facts that depend on the CFG alone — predecessors, reverse postorder,
immediate dominators, natural loops — live on one :class:`CFG` object,
each derived on first request.  :meth:`FunctionModule.cfg` keeps the
object until the function's CFG version moves, so a compile derives each
fact once per CFG shape instead of once per question; the module-level
functions below read that shared object, whose results callers must not
mutate.  The IR verifier builds its own ``CFG(function)`` instead: a pass
that writes a branch target behind the version counter is exactly what it
exists to catch, so it never trusts a cached fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - function_module imports this module
    from repro.compiler.wir.function_module import FunctionModule
    from repro.compiler.wir.instructions import Value


@dataclass
class NaturalLoop:
    header: str
    body: set[str] = field(default_factory=set)
    back_edges: list[tuple[str, str]] = field(default_factory=list)


class CFG:
    """The CFG facts of one function, read from its blocks as they stand
    when each fact is first asked for."""

    def __init__(self, function: FunctionModule):
        self.function = function
        #: the function's CFG version when this object was made
        self.version = function.cfg_version

    @cached_property
    def predecessors(self) -> dict[str, list[str]]:
        function = self.function
        preds: dict[str, list[str]] = {name: [] for name in function.blocks}
        for block in function.ordered_blocks():
            for successor in block.successors():
                if successor in preds:
                    preds[successor].append(block.name)
        return preds

    @cached_property
    def reverse_postorder(self) -> list[str]:
        function = self.function
        seen: set[str] = set()
        order: list[str] = []

        def visit(name: str) -> None:
            if name in seen or name not in function.blocks:
                return
            seen.add(name)
            for successor in function.blocks[name].successors():
                visit(successor)
            order.append(name)

        assert function.entry is not None
        visit(function.entry)
        order.reverse()
        return order

    @cached_property
    def idom(self) -> dict[str, Optional[str]]:
        """Immediate dominators via the Cooper–Harvey–Kennedy iteration."""
        idom = immediate_dominators(
            self.reverse_postorder, self.predecessors, self.function.entry
        )
        idom[self.function.entry] = None
        return idom

    @cached_property
    def loops(self) -> list[NaturalLoop]:
        """Back edges (successor dominates source) and their natural loops."""
        function = self.function
        idom = self.idom
        predecessors = self.predecessors
        loops: dict[str, NaturalLoop] = {}
        for block in function.ordered_blocks():
            for successor in block.successors():
                if successor in function.blocks and dominates(
                    idom, successor, block.name
                ):
                    loop = loops.setdefault(successor, NaturalLoop(successor))
                    loop.back_edges.append((block.name, successor))
                    # walk predecessors from the latch up to the header
                    stack = [block.name]
                    loop.body.add(successor)
                    while stack:
                        current = stack.pop()
                        if current in loop.body:
                            continue
                        loop.body.add(current)
                        stack.extend(predecessors.get(current, ()))
        return list(loops.values())


def immediate_dominators(order: list[str], predecessors, root: str
                         ) -> dict[str, Optional[str]]:
    """The Cooper–Harvey–Kennedy iteration over a graph given as
    ``order`` (reverse postorder from ``root``) and ``predecessors``; a
    node the root does not reach maps to ``None``, the root to itself."""
    index = {name: i for i, name in enumerate(order)}
    idom: dict[str, Optional[str]] = {name: None for name in order}
    idom[root] = root

    def intersect(a: str, b: str) -> str:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for name in order:
            if name == root:
                continue
            candidates = [
                p for p in predecessors.get(name, ())
                if p in index and idom.get(p) is not None
            ]
            if not candidates:
                continue
            new_idom = candidates[0]
            for other in candidates[1:]:
                new_idom = intersect(new_idom, other)
            if idom[name] != new_idom:
                idom[name] = new_idom
                changed = True
    return idom


def compute_dominators(function: FunctionModule) -> dict[str, Optional[str]]:
    return function.cfg().idom


def dominates(idom: dict[str, Optional[str]], a: str, b: str) -> bool:
    """Does block ``a`` dominate block ``b``?

    Blocks absent from ``idom`` are unreachable; dominance is undefined
    there, and answering ``False`` keeps unreachable self-loops out of
    :attr:`CFG.loops` (they never execute, so treating them as
    loops would make passes instrument dead code).
    """
    if a not in idom or b not in idom:
        return False
    current: Optional[str] = b
    while current is not None:
        if current == a:
            return True
        current = idom.get(current)
    return False


def find_natural_loops(function: FunctionModule) -> list[NaturalLoop]:
    return function.cfg().loops


def loop_headers(function: FunctionModule) -> set[str]:
    return {loop.header for loop in function.cfg().loops}


def compute_liveness(
    function: FunctionModule,
) -> tuple[dict[str, set[Value]], dict[str, set[Value]]]:
    """Backward data-flow live-in / live-out sets per block.

    Phi operands are treated as live-out of the corresponding predecessor,
    the standard SSA convention [12].
    """
    blocks = function.ordered_blocks()
    use: dict[str, set[Value]] = {}
    define: dict[str, set[Value]] = {}
    phi_uses_by_pred: dict[str, set[Value]] = {}

    for block in blocks:
        used: set[Value] = set()
        defined: set[Value] = set()
        for phi in block.phis:
            defined.add(phi.result)
            for pred_name, value in phi.incoming:
                phi_uses_by_pred.setdefault(pred_name, set()).add(value)
        for instruction in block.instructions:
            for operand in instruction.operands:
                if operand not in defined:
                    used.add(operand)
            if instruction.result is not None:
                defined.add(instruction.result)
        if block.terminator is not None:
            for operand in block.terminator.operands:
                if operand not in defined:
                    used.add(operand)
        use[block.name] = used
        define[block.name] = defined

    live_in: dict[str, set[Value]] = {b.name: set() for b in blocks}
    live_out: dict[str, set[Value]] = {b.name: set() for b in blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(blocks):
            name = block.name
            out: set[Value] = set(phi_uses_by_pred.get(name, ()))
            for successor in block.successors():
                if successor in live_in:
                    out |= live_in[successor]
                    # successor phis' results are defined there, not live-in
            new_in = use[name] | (out - define[name])
            if out != live_out[name] or new_in != live_in[name]:
                live_out[name] = out
                live_in[name] = new_in
                changed = True
    return live_in, live_out
