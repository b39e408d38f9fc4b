"""The WVM backend (§4.6): target the *existing* Wolfram Virtual Machine.

"prototype backends exist to target C++, the existing Wolfram Virtual
Machine, WebAssembly, and NVIDIA PTX" — this is the WVM one.  It translates
fully typed TWIR onto the legacy register machine's instruction set (a
primitive's instruction is the ``wvm`` of its row in the primitive table),
which immediately surfaces the baseline's limits: strings, expressions,
and function values have no WVM representation and raise a
:class:`CodegenError` (the L1 wall, from the other side).
"""

from __future__ import annotations

from typing import Optional

from repro.bytecode.instructions import Instruction as WVMInstruction
from repro.bytecode.instructions import MATH_CODES, Op, RegisterCounts
from repro.compiler.options import CompilerOptions
from repro.compiler.types.specifier import AtomicType, CompoundType, Type
from repro.compiler.wir.function_module import FunctionModule, ProgramModule
from repro.compiler.wir.instructions import (
    BranchInstr,
    BuildListInstr,
    CallPrimitiveInstr,
    CheckAbortInstr,
    ConstantInstr,
    CopyInstr,
    JumpInstr,
    LoadArgumentInstr,
    MemoryAcquireInstr,
    MemoryReleaseInstr,
    PhiInstr,
    ReturnInstr,
    Value,
)
from repro.errors import CodegenError


def _register_type_char(type_: Optional[Type]) -> str:
    if isinstance(type_, AtomicType):
        name = type_.name
        if name == "Boolean":
            return "b"
        if name.startswith("Integer") or name.startswith("UnsignedInteger"):
            return "i"
        if name.startswith("Real"):
            return "r"
        if name == "ComplexReal64":
            return "c"
        raise CodegenError(
            f"the WVM cannot represent values of type {type_} (L1)"
        )
    if isinstance(type_, CompoundType):
        return "T"
    raise CodegenError(f"the WVM cannot represent values of type {type_} (L1)")


class WVMBackend:
    """Translates one program module onto the legacy VM's ISA."""

    def __init__(self, program: ProgramModule,
                 options: Optional[CompilerOptions] = None):
        self.program = program
        self.options = options or CompilerOptions()

    def compile_main(self):
        """A runnable :class:`repro.bytecode.CompiledFunction`."""
        from repro.bytecode.compiled_function import CompiledFunction
        from repro.bytecode.compiler import (
            BYTECODE_COMPILER_VERSION,
            DEFAULT_COMPILE_FLAGS,
            WVM_ENGINE_VERSION,
        )
        from repro.mexpr.symbols import S, expr

        function = self.program.main_function()
        if len(self.program.functions) > 1:
            raise CodegenError(
                "the WVM backend supports single-function programs; "
                "enable aggressive inlining"
            )
        instructions, constants, counts, total = self._translate(function)
        return CompiledFunction(
            versions=(BYTECODE_COMPILER_VERSION, WVM_ENGINE_VERSION,
                      DEFAULT_COMPILE_FLAGS),
            argument_types=[
                _register_type_char(p.type) for p in function.parameters
            ],
            argument_names=[p.hint or f"a{i}"
                            for i, p in enumerate(function.parameters)],
            constants=constants,
            register_counts=counts,
            register_total=total,
            instructions=instructions,
            source_specs=expr("List"),
            source_body=expr("Null"),
            result_type=_register_type_char(function.result_type),
        )

    def generate_listing(self) -> str:
        function = self.program.main_function()
        instructions, constants, counts, _total = self._translate(function)
        lines = [f"; WVM translation of {function.name}",
                 f"; registers {counts.encode()}  constants {constants!r}"]
        for index, instruction in enumerate(instructions):
            lines.append(f"{index:4d}  {instruction}")
        return "\n".join(lines)

    # -- translation -----------------------------------------------------------------

    def _translate(self, function: FunctionModule):
        registers: dict[int, int] = {}
        counts = RegisterCounts()

        def register_of(value: Value) -> int:
            if value.id not in registers:
                registers[value.id] = len(registers)
                pool = _register_type_char(value.type)
                field = {"b": "boolean", "i": "integer", "r": "real",
                         "c": "complex", "T": "tensor"}[pool]
                setattr(counts, field, getattr(counts, field) + 1)
            return registers[value.id]

        constants: list = []

        def const_index(value) -> int:
            for index, existing in enumerate(constants):
                if type(existing) is type(value) and existing == value:
                    return index
            constants.append(value)
            return len(constants) - 1

        code: list[WVMInstruction] = []
        block_offsets: dict[str, int] = {}
        fixups: list[tuple[int, str]] = []

        def emit(op: Op, target: int = -1, operands: tuple = ()):
            code.append(WVMInstruction(op, target, operands))
            return len(code) - 1

        temp_registers: dict[int, int] = {}

        def temp_for(phi_result: Value) -> int:
            """A scratch register per phi, for parallel-copy safety."""
            if phi_result.id not in temp_registers:
                synthetic = Value(hint="phitmp")
                synthetic.type = phi_result.type
                temp_registers[phi_result.id] = register_of(synthetic)
            return temp_registers[phi_result.id]

        def phi_moves(source: str, target_name: str) -> None:
            target_block = function.blocks.get(target_name)
            if target_block is None:
                return
            pairs = [
                (phi.result, value)
                for phi in target_block.phis
                for predecessor, value in phi.incoming
                if predecessor == source
            ]
            destinations = {destination.id for destination, _ in pairs}
            hazard = any(value.id in destinations for _, value in pairs)
            if hazard and len(pairs) > 1:
                # parallel copies: read every source before writing any dest
                for destination, value in pairs:
                    emit(Op.MOVE, temp_for(destination),
                         (register_of(value),))
                for destination, _value in pairs:
                    emit(Op.MOVE, register_of(destination),
                         (temp_for(destination),))
            else:
                for destination, value in pairs:
                    emit(Op.MOVE, register_of(destination),
                         (register_of(value),))

        for block in function.ordered_blocks():
            block_offsets[block.name] = len(code)
            for instruction in block.instructions:
                self._translate_instruction(
                    instruction, emit, register_of, const_index
                )
            terminator = block.terminator
            if isinstance(terminator, ReturnInstr):
                emit(Op.RETURN, -1,
                     (register_of(terminator.value),)
                     if terminator.value is not None else ())
            elif isinstance(terminator, JumpInstr):
                phi_moves(block.name, terminator.target)
                fixups.append((emit(Op.JUMP, -1, (0,)), terminator.target))
            elif isinstance(terminator, BranchInstr):
                condition = register_of(terminator.condition)
                false_jump = emit(Op.JUMP_IF_NOT, -1, (0, condition))
                phi_moves(block.name, terminator.true_target)
                fixups.append(
                    (emit(Op.JUMP, -1, (0,)), terminator.true_target)
                )
                # patch the false side to a stub that does phi moves
                stub = len(code)
                code[false_jump].operands = (stub, condition)
                phi_moves(block.name, terminator.false_target)
                fixups.append(
                    (emit(Op.JUMP, -1, (0,)), terminator.false_target)
                )
            else:
                raise CodegenError(f"block {block.name} lacks a terminator")

        for at, target in fixups:
            code[at].operands = (block_offsets[target],
                                 *code[at].operands[1:])
        return code, constants, counts, len(registers)

    def _translate_instruction(self, instruction, emit, register_of,
                               const_index) -> None:
        if isinstance(instruction, LoadArgumentInstr):
            emit(Op.LOAD_ARG, register_of(instruction.result),
                 (instruction.index,))
            return
        if isinstance(instruction, ConstantInstr):
            value = instruction.value
            if isinstance(value, (bool, int, float, complex)) or value is None:
                emit(Op.LOAD_CONST, register_of(instruction.result),
                     (const_index(value),))
                return
            raise CodegenError(
                f"the WVM cannot represent constant {value!r} (L1)"
            )
        if isinstance(instruction, CallPrimitiveInstr):
            primitive = instruction.primitive
            if primitive.wvm is None:
                raise CodegenError(
                    f"the WVM has no instruction for {primitive.runtime_name}"
                )
            operands = tuple(register_of(v) for v in instruction.operands)
            target = (
                register_of(instruction.result)
                if instruction.result is not None
                else (operands[0] if operands else -1)
            )
            if primitive.wvm in MATH_CODES:
                emit(Op.MATH_UNARY, target,
                     (MATH_CODES[primitive.wvm], operands[0]))
                return
            op = Op[primitive.wvm]
            if op is Op.TENSOR_SET:
                emit(op, operands[0], (operands[1], operands[2]))
                if instruction.result is not None:
                    emit(Op.MOVE, target, (operands[0],))
                return
            if op is Op.TENSOR_CREATE and len(operands) == 1:
                # uninitialised: the target briefly holds the zero fill
                emit(Op.LOAD_CONST, target, (const_index(0),))
                operands += (target,)
            emit(op, target, operands)
            return
        if isinstance(instruction, BuildListInstr):
            emit(Op.TENSOR_FROM_REGS, register_of(instruction.result),
                 tuple(register_of(v) for v in instruction.operands))
            return
        if isinstance(instruction, CopyInstr):
            source = instruction.operands[0]
            if isinstance(source.type, CompoundType):
                emit(Op.TENSOR_COPY, register_of(instruction.result),
                     (register_of(source),))
            else:
                emit(Op.MOVE, register_of(instruction.result),
                     (register_of(source),))
            return
        if isinstance(instruction, CheckAbortInstr):
            return  # the VM polls aborts on backward jumps itself
        if isinstance(instruction, (MemoryAcquireInstr, MemoryReleaseInstr)):
            return  # the VM's boxed values are host-managed
        if isinstance(instruction, PhiInstr):
            return  # handled by edge moves
        raise CodegenError(f"the WVM backend cannot emit {instruction}")
