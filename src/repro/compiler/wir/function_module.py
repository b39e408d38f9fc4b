"""Basic blocks, function modules, and program modules (§4.3)."""

from __future__ import annotations

from typing import Iterator, Optional

from repro.compiler.wir.analysis import CFG
from repro.compiler.wir.instructions import (
    Instruction,
    PhiInstr,
    Terminator,
    Value,
)


class BasicBlock:
    def __init__(self, name: str, function: "FunctionModule", index: int):
        self.name = name
        self.function = function
        #: creation number: ``block_order`` lists blocks by ascending index
        self.index = index
        self.phis: list[PhiInstr] = []
        self.instructions: list[Instruction] = []
        self._terminator: Optional[Terminator] = None

    @property
    def terminator(self) -> Optional[Terminator]:
        return self._terminator

    @terminator.setter
    def terminator(self, terminator: Optional[Terminator]) -> None:
        self._terminator = terminator
        self.function.cfg_version += 1

    def retarget(self, old: str, new: str) -> None:
        """Point this block's edges to ``old`` at ``new``.  An attached
        terminator is retargeted here, never through its own
        :meth:`Terminator.retarget`, which cannot tell the function that
        its CFG changed."""
        self._terminator.retarget(old, new)
        self.function.cfg_version += 1

    def append(self, instruction: Instruction) -> Instruction:
        if isinstance(instruction, PhiInstr):
            self.phis.append(instruction)
        else:
            self.instructions.append(instruction)
        return instruction

    def all_instructions(self) -> Iterator[Instruction]:
        yield from self.phis
        yield from self.instructions
        if self.terminator is not None:
            yield self.terminator

    def successors(self) -> list[str]:
        return self.terminator.successors() if self.terminator else []

    def __str__(self) -> str:
        lines = [f"{self.name}:"]
        for instruction in self.all_instructions():
            lines.append(f"  {instruction}")
        return "\n".join(lines)


class FunctionModule:
    """A function: parameters plus a CFG of basic blocks.

    ``information`` mirrors the paper's per-function metadata block
    (``Main::Information={"inlineInformation"->..., "AbortHandling"->True}``
    in §A.6.2).
    """

    def __init__(self, name: str):
        self.name = name
        self.parameters: list[Value] = []
        self.blocks: dict[str, BasicBlock] = {}
        self.block_order: list[str] = []
        self.entry: Optional[str] = None
        self.result_type = None
        self.information: dict = {
            "inlineInformation": {"inlineValue": "Automatic", "isTrivial": False},
            "ArgumentAlias": False,
            "Profile": False,
            "AbortHandling": True,
        }
        self._block_counter = 0
        #: moves whenever the shape of the CFG may have: a terminator is
        #: assigned or retargeted through its block, a block is added or
        #: removed.  :meth:`cfg` serves facts derived at the current value.
        self.cfg_version = 0
        self._cfg: Optional[CFG] = None

    def new_block(self, hint: str = "bb") -> BasicBlock:
        self._block_counter += 1
        name = f"{hint}({self._block_counter})"
        block = BasicBlock(name, self, self._block_counter)
        self.blocks[name] = block
        self.block_order.append(name)
        if self.entry is None:
            self.entry = name
        self.cfg_version += 1
        return block

    def remove_block(self, name: str) -> None:
        self.blocks.pop(name, None)
        if name in self.block_order:
            self.block_order.remove(name)
        self.cfg_version += 1

    def ordered_blocks(self) -> list[BasicBlock]:
        return [self.blocks[n] for n in self.block_order if n in self.blocks]

    def cfg(self) -> CFG:
        """Predecessors, reverse postorder, dominators and natural loops
        of the CFG as it stands, each derived at most once until
        :attr:`cfg_version` next moves.  Shared: do not mutate."""
        if self._cfg is None or self._cfg.version != self.cfg_version:
            self._cfg = CFG(self)
        return self._cfg

    def predecessors(self) -> dict[str, list[str]]:
        return self.cfg().predecessors

    def values(self) -> Iterator[Value]:
        seen = set()
        for parameter in self.parameters:
            if parameter.id not in seen:
                seen.add(parameter.id)
                yield parameter
        for block in self.ordered_blocks():
            for instruction in block.all_instructions():
                if instruction.result is not None and (
                    instruction.result.id not in seen
                ):
                    seen.add(instruction.result.id)
                    yield instruction.result

    def instructions(self) -> Iterator[Instruction]:
        for block in self.ordered_blocks():
            yield from block.all_instructions()

    def is_typed(self) -> bool:
        """True when this is a TWIR function: every value carries a type."""
        return all(value.type is not None for value in self.values())

    def to_string(self) -> str:
        lines = [f"{self.name}::Information="
                 f"{_wl_rules(self.information)}"]
        signature = ""
        if self.result_type is not None and all(
            p.type is not None for p in self.parameters
        ):
            params = ", ".join(str(p.type) for p in self.parameters)
            signature = f" : ({params}) -> {self.result_type}"
        lines.append(f"{self.name}{signature}")
        for block in self.ordered_blocks():
            lines.append(str(block))
        return "\n".join(lines)

    __str__ = to_string


class Forwarding:
    """The IR's one use-replacement mechanism: ``replace(old, new)`` only
    records that every use of ``old`` is to become ``new``; ``apply``
    rewrites all of them in a single sweep of the function.

    A pass (or the SSA builder) that replaces many values therefore costs
    one sweep, not one per value.  Until ``apply`` has run, replaced values
    still sit in operand lists, so whatever compares or keys on an operand
    meanwhile reads it through ``resolve``.
    """

    def __init__(self):
        self._forward: dict[Value, Value] = {}

    def replace(self, old: Value, new: Value) -> None:
        new = self.resolve(new)
        if new is not old:
            self._forward[old] = new

    def resolve(self, value: Value) -> Value:
        forward = self._forward
        target = forward.get(value)
        if target is None:
            return value
        # `replace` resolves its target first, so chains only arise when a
        # target is itself replaced later; compress them as they are read
        chain = []
        while (further := forward.get(target)) is not None:
            chain.append(value)
            value, target = target, further
        for link in chain:
            forward[link] = target
        return target

    def rewrite(self, instruction: Instruction) -> None:
        """Bring one instruction's operands up to date."""
        forward = self._forward
        if forward:
            for operand in instruction.operands:
                if operand in forward:
                    instruction.replace_operand(
                        operand, self.resolve(operand)
                    )

    def apply(self, function: FunctionModule) -> None:
        """Rewrite every pending use in ``function``, then forget them."""
        if self._forward:
            for instruction in function.instructions():
                self.rewrite(instruction)
            self._forward.clear()


def _wl_rules(value) -> str:
    """Render metadata in Wolfram rule syntax, matching the paper's
    ``Main::Information={"inlineInformation" -> {...}, ...}`` dumps."""
    if isinstance(value, dict):
        inner = ", ".join(
            f'"{key}" -> {_wl_rules(item)}' for key, item in value.items()
        )
        return "{" + inner + "}"
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, str):
        return value if value and value[0].isupper() else f'"{value}"'
    if isinstance(value, (list, tuple, set)):
        return "{" + ", ".join(_wl_rules(v) for v in sorted(map(str, value))) + "}"
    return str(value)


class ProgramModule:
    """A collection of function modules plus global metadata (§4.3)."""

    def __init__(self, name: str = "Program"):
        self.name = name
        self.functions: dict[str, FunctionModule] = {}
        self.main: Optional[str] = None
        self.metadata: dict = {}
        self.globals: dict[str, object] = {}
        self.type_environment = None

    def add_function(self, function: FunctionModule, main: bool = False) -> None:
        self.functions[function.name] = function
        if main or self.main is None:
            self.main = function.name

    def main_function(self) -> FunctionModule:
        assert self.main is not None
        return self.functions[self.main]

    def to_string(self) -> str:
        parts = []
        # the options and nothing else: timings, fact bundles and object
        # addresses would make two exports of one function differ
        options = self.metadata.get("options")
        if options is not None:
            parts.append(
                f"; module metadata: {_wl_rules(options.to_wolfram())}"
            )
        for name in sorted(self.functions, key=lambda n: n != self.main):
            parts.append(self.functions[name].to_string())
        return "\n\n".join(parts)

    __str__ = to_string
