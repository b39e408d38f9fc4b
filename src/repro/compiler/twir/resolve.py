"""Function resolution (§4.5).

"The first transformation performed on the TWIR is to resolve all function
implementations within the program.  For each call instruction, a lookup
into the type environment is performed. ... If the function exists
polymorphically within the type environment, then it is instantiated with
the appropriate type, the function is inserted into the TWIR, and the call
instruction is rewritten to the mangled name of the function.  A function is
inlined at this stage if it has been marked by users to be forcibly
inlined."

Primitive implementations rewrite to ``CallPrimitive``; Wolfram-level
implementations are compiled (via a callback into the pipeline) into new
function modules and either called by mangled name or inlined into the
caller.  Inlining introduces fresh untyped instructions, turning the TWIR
back into a WIR — the pipeline re-runs inference afterwards (§4.5).
"""

from __future__ import annotations

from typing import Callable

from repro.compiler.types.environment import (
    PrimitiveImpl,
    ResolvedCall,
    TypeEnvironment,
    widening_cast,
)
from repro.compiler.types.specifier import FunctionType, Type
from repro.compiler.wir.function_module import (
    BasicBlock,
    Forwarding,
    FunctionModule,
    ProgramModule,
)
from repro.compiler.wir.instructions import (
    CallFunctionInstr,
    CallIndirectInstr,
    CallInstr,
    CallPrimitiveInstr,
    ConstantInstr,
    FunctionRef,
    JumpInstr,
    LoadArgumentInstr,
    PhiInstr,
    ReturnInstr,
    Value,
)
from repro.errors import FunctionResolutionError
from repro.mexpr.expr import MExpr

class FunctionResolver:
    def __init__(
        self,
        program: ProgramModule,
        environment: TypeEnvironment,
        compile_implementation: Callable[[str, MExpr, FunctionType], FunctionModule],
        inline_policy: str = "default",
    ):
        self.program = program
        self.environment = environment
        self.compile_implementation = compile_implementation
        self.inline_policy = inline_policy  # 'none' | 'default' | 'aggressive'
        #: call results replaced by an inlined callee's single return value;
        #: applied when ``run`` finishes with the function
        self._forwarding = Forwarding()

    # -- entry --------------------------------------------------------------------

    def run(self, function: FunctionModule) -> bool:
        """Resolve every unresolved call; returns True if code was added
        whose types are not yet inferred (inlined bodies)."""
        changed = False
        needs_reinference = False
        for block in list(function.ordered_blocks()):
            index = 0
            while index < len(block.instructions):
                instruction = block.instructions[index]
                self._forwarding.rewrite(instruction)
                if isinstance(instruction, CallInstr):
                    inlined = self._resolve_call(function, block, index,
                                                 instruction)
                    changed = True
                    needs_reinference |= inlined
                    if inlined:
                        break  # block was split; restart outer scan
                elif isinstance(instruction, CallIndirectInstr):
                    self._resolve_indirect(instruction)
                elif isinstance(instruction, ConstantInstr) and isinstance(
                    instruction.value, FunctionRef
                ):
                    self._resolve_function_ref(instruction)
                index += 1
        self._forwarding.apply(function)
        return needs_reinference

    # -- direct calls --------------------------------------------------------------

    def _resolve_call(
        self,
        function: FunctionModule,
        block: BasicBlock,
        index: int,
        instruction: CallInstr,
    ) -> bool:
        if instruction.properties.get("self_recursive"):
            replacement = CallFunctionInstr(
                instruction.result, function.name, instruction.operands
            )
            replacement.properties.update(instruction.properties)
            block.instructions[index] = replacement
            return False

        operand_types = [_require_type(v, instruction) for v in
                         instruction.operands]
        resolved = self.environment.resolve_call(
            instruction.callee, operand_types
        )
        index += self._insert_coercions(block, index, instruction, resolved)

        implementation = resolved.declaration.implementation
        if isinstance(implementation, PrimitiveImpl):
            replacement = CallPrimitiveInstr(
                instruction.result,
                implementation,
                instruction.operands,
                source_name=instruction.callee,
            )
            replacement.properties.update(instruction.properties)
            block.instructions[index] = replacement
            return False
        if isinstance(implementation, MExpr):
            module = self._instantiate(instruction.callee, resolved,
                                       implementation)
            should_inline = resolved.declaration.inline_always or (
                self.inline_policy == "aggressive"
                and _is_small(module)
            )
            if should_inline and module.name != function.name:
                self._inline(function, block, index, instruction, module)
                return True
            replacement = CallFunctionInstr(
                instruction.result, module.name, instruction.operands
            )
            replacement.properties.update(instruction.properties)
            block.instructions[index] = replacement
            return False
        raise FunctionResolutionError(
            f"{instruction.callee} resolved to a declaration with no "
            "implementation"
        )

    def _insert_coercions(self, block, index, instruction, resolved) -> int:
        from repro.compiler.types.builtin_env import PRIMITIVE_IMPLS

        inserted = 0
        for position, target in enumerate(resolved.coercions):
            if target is None:
                continue
            operand = instruction.operands[position]
            cast_value = Value(hint="cast", type_=target)
            cast = CallPrimitiveInstr(
                cast_value,
                PRIMITIVE_IMPLS[widening_cast(operand.type, target)],
                [operand], source_name="Native`Cast",
            )
            block.instructions.insert(index, cast)
            index += 1
            inserted += 1
            instruction.operands[position] = cast_value
        return inserted

    def _instantiate(self, name: str, resolved: ResolvedCall,
                     implementation: MExpr) -> FunctionModule:
        mangled = resolved.mangled_name
        existing = self.program.functions.get(mangled)
        if existing is not None:
            return existing
        module = self.compile_implementation(
            mangled, implementation, resolved.function_type
        )
        self.program.add_function(module)
        return module

    # -- indirect calls and function references -------------------------------------------

    def _resolve_indirect(self, instruction: CallIndirectInstr) -> None:
        callee = instruction.operands[0]
        definition = callee.definition
        if isinstance(definition, ConstantInstr) and isinstance(
            definition.value, FunctionRef
        ):
            # direct after all: a constant function reference
            self._resolve_function_ref(definition)

    def _resolve_function_ref(self, instruction: ConstantInstr) -> None:
        """Attach a concrete runtime implementation to a function value."""
        if instruction.properties.get("resolved_runtime"):
            return
        reference: FunctionRef = instruction.value
        fn_type = instruction.result.type
        if not isinstance(fn_type, FunctionType):
            raise FunctionResolutionError(
                f"function value {reference.name} has non-function type "
                f"{fn_type}"
            )
        resolved = self.environment.resolve_call(
            reference.name, list(fn_type.params)
        )
        implementation = resolved.declaration.implementation
        if isinstance(implementation, PrimitiveImpl):
            instruction.properties["resolved_runtime"] = (
                implementation.runtime_name
            )
            return
        if isinstance(implementation, MExpr):
            module = self._instantiate(reference.name, resolved, implementation)
            instruction.properties["resolved_function"] = module.name
            return
        raise FunctionResolutionError(
            f"cannot take {reference.name} as a function value"
        )

    # -- inlining --------------------------------------------------------------------------

    def _inline(
        self,
        caller: FunctionModule,
        block: BasicBlock,
        index: int,
        instruction: CallInstr,
        callee: FunctionModule,
    ) -> None:
        """Splice a clone of ``callee`` in place of the call."""
        continuation = caller.new_block("inl_cont")
        continuation.instructions = block.instructions[index + 1:]
        continuation.terminator = block.terminator
        for moved in continuation.instructions:
            pass
        # successors' phis must now name the continuation as predecessor
        for successor_name in (
            block.terminator.successors() if block.terminator else []
        ):
            successor = caller.blocks.get(successor_name)
            if successor is None:
                continue
            for phi in successor.phis:
                phi.incoming = [
                    (continuation.name if p == block.name else p, v)
                    for p, v in phi.incoming
                ]
        block.instructions = block.instructions[:index]
        block.terminator = None

        value_map: dict[int, Value] = {}
        for parameter, argument in zip(callee.parameters, instruction.operands):
            value_map[parameter.id] = argument
        block_map: dict[str, str] = {}
        for name in callee.block_order:
            clone = caller.new_block("inl")
            block_map[name] = clone.name

        def mapped(value: Value) -> Value:
            found = value_map.get(value.id)
            if found is None:
                found = Value(hint=value.hint)
                found.type = value.type
                value_map[value.id] = found
            return found

        returns: list[tuple[str, Value]] = []
        for name in callee.block_order:
            source_block = callee.blocks[name]
            target_block = caller.blocks[block_map[name]]
            for phi in source_block.phis:
                new_phi = PhiInstr(
                    mapped(phi.result),
                    [(block_map[p], mapped(v)) for p, v in phi.incoming],
                )
                new_phi.properties.update(phi.properties)
                target_block.phis.append(new_phi)
            for inner in source_block.instructions:
                if isinstance(inner, LoadArgumentInstr):
                    continue  # parameters were substituted directly
                clone_instruction = _clone(inner, mapped)
                target_block.instructions.append(clone_instruction)
            terminator = source_block.terminator
            if isinstance(terminator, ReturnInstr):
                returns.append(
                    (target_block.name,
                     mapped(terminator.value) if terminator.value else None)
                )
                target_block.terminator = JumpInstr(continuation.name)
            elif terminator is not None:
                cloned = _clone(terminator, mapped)
                for old_name, new_name in block_map.items():
                    cloned.retarget(old_name, new_name)
                target_block.terminator = cloned

        block.terminator = JumpInstr(block_map[callee.entry])

        # the call's result becomes a phi over the inlined returns
        result = instruction.result
        incoming = [(name, value) for name, value in returns if value is not None]
        if result is not None:
            if len(incoming) == 1:
                # single return: replace uses of the result
                self._forwarding.replace(result, incoming[0][1])
            else:
                phi = PhiInstr(result, incoming)
                continuation.phis.insert(0, phi)


def _clone(instruction, mapped):
    import copy

    clone = copy.copy(instruction)
    clone.operands = [mapped(v) for v in instruction.operands]
    clone.properties = dict(instruction.properties)
    if instruction.result is not None:
        clone.result = mapped(instruction.result)
        clone.result.definition = clone
    if isinstance(instruction, PhiInstr):  # handled by caller
        raise AssertionError("phis are cloned separately")
    return clone


def _require_type(value: Value, instruction) -> Type:
    if value.type is None:
        raise FunctionResolutionError(
            f"operand {value!r} of {instruction} has no inferred type"
        )
    return value.type


def _is_small(module: FunctionModule) -> bool:
    return sum(1 for _ in module.instructions()) <= 16
