"""Direct-to-SSA construction (§4.3).

"Unlike LLVM Clang, which lowers all local variables into stack loads and
stores — relying on an additional pass to promote variables from the stack
to virtual registers —, the compiler lowers MExprs directly into SSA form."

This is the sealed-block algorithm of Braun et al. [15]: local-variable
reads consult the per-block definition map, inserting operandless phis into
unsealed blocks (loop headers under construction) and completing them when
the block seals.  Trivial phis are removed on the fly: the phi leaves its
block at once, and its uses are forwarded to the value it merged
(:class:`~repro.compiler.wir.function_module.Forwarding`) — rewritten in
one sweep by :meth:`SSABuilder.finish` once the function is lowered, and
read through the forwarding by ``read`` until then.
"""

from __future__ import annotations

from typing import Optional

from repro.compiler.wir.function_module import (
    BasicBlock,
    Forwarding,
    FunctionModule,
)
from repro.compiler.wir.instructions import PhiInstr, Value
from repro.errors import BindingError


class SSABuilder:
    def __init__(self, function: FunctionModule):
        self.function = function
        #: variable -> block name -> Value
        self._definitions: dict[str, dict[str, Value]] = {}
        self._sealed: set[str] = set()
        #: block name -> variable -> incomplete phi
        self._incomplete: dict[str, dict[str, PhiInstr]] = {}
        self._forwarding = Forwarding()
        #: block name -> the blocks terminated into it so far.  Lowering
        #: only ever adds edges, so the builder keeps its own lists and a
        #: variable read walks no CFG.
        self._predecessors: dict[str, list[BasicBlock]] = {}

    # -- edges ----------------------------------------------------------------

    def terminate(self, block: BasicBlock, terminator) -> None:
        block.terminator = terminator
        for successor in terminator.successors():
            self._predecessors.setdefault(successor, []).append(block)

    def predecessors(self, block: BasicBlock) -> list[str]:
        """Names of the blocks that jump to ``block``, in block order —
        the order ``FunctionModule.predecessors()`` lists them in, which
        fixes the order of phi operands."""
        found = self._predecessors.get(block.name, ())
        return [b.name for b in sorted(found, key=lambda b: b.index)]

    # -- writes ---------------------------------------------------------------

    def write(self, variable: str, block: BasicBlock, value: Value) -> None:
        self._definitions.setdefault(variable, {})[block.name] = value

    # -- reads ----------------------------------------------------------------

    def read(self, variable: str, block: BasicBlock) -> Value:
        per_block = self._definitions.get(variable, {})
        if block.name in per_block:
            return self._forwarding.resolve(per_block[block.name])
        return self._read_recursive(variable, block)

    def _read_recursive(self, variable: str, block: BasicBlock) -> Value:
        predecessors = self.predecessors(block)
        if block.name not in self._sealed:
            # incomplete CFG: place an operandless phi, fill at seal time
            value = Value(hint=variable)
            phi = PhiInstr(value, [])
            block.phis.append(phi)
            self._incomplete.setdefault(block.name, {})[variable] = phi
        elif len(predecessors) == 1:
            value = self.read(variable, self.function.blocks[predecessors[0]])
            self.write(variable, block, value)
            return value
        elif not predecessors:
            raise BindingError(
                f"variable {variable!r} read before assignment"
            )
        else:
            value = Value(hint=variable)
            phi = PhiInstr(value, [])
            block.phis.append(phi)
            self.write(variable, block, value)
            value = self._add_phi_operands(variable, phi, block)
        self.write(variable, block, value)
        return value

    def _add_phi_operands(
        self, variable: str, phi: PhiInstr, block: BasicBlock
    ) -> Value:
        predecessors = self.predecessors(block)
        incoming = []
        for predecessor in predecessors:
            incoming.append(
                (predecessor,
                 self.read(variable, self.function.blocks[predecessor]))
            )
        phi.set_incoming(incoming)
        return self._try_remove_trivial(phi, block)

    def _try_remove_trivial(self, phi: PhiInstr, block: BasicBlock) -> Value:
        distinct: Optional[Value] = None
        for _, value in phi.incoming:
            if value is phi.result:
                continue
            if distinct is not None and value is not distinct:
                return phi.result  # non-trivial: merges two distinct values
            distinct = value
        if distinct is None:
            # no real operands: an unreachable-path read; keep the phi
            return phi.result
        self._forwarding.replace(phi.result, distinct)
        if phi in block.phis:
            block.phis.remove(phi)
        return distinct

    # -- sealing ------------------------------------------------------------------

    def seal(self, block: BasicBlock) -> None:
        pending = self._incomplete.pop(block.name, {})
        for variable, phi in pending.items():
            self._add_phi_operands(variable, phi, block)
        self._sealed.add(block.name)

    def finish(self) -> None:
        """Rewrite the uses of every removed phi; call once, when the
        whole function has been lowered."""
        self._forwarding.apply(self.function)
