"""Lowering the (macro-expanded, binding-analyzed) MExpr into WIR (§4.3).

After macro expansion the surface language is a small core: literals,
locals, ``If``, ``While``, ``CompoundExpression``, ``Set`` (on locals and on
``Part``), calls, list construction, ``Typed`` annotations, control escapes
(``Return``/``Break``/``Continue``/``Throw``-free subset), and
``KernelFunction`` escapes.  Each MExpr with a direct IR correspondence is
attached to the produced instruction as a property for error reporting and
debug output (§4.3).
"""

from __future__ import annotations

from typing import Optional

from repro.compiler.binding import analyze_bindings
from repro.compiler.types.specifier import (
    Type,
    parse_type_specifier,
    ty,
)
from repro.compiler.wir.builder import SSABuilder
from repro.compiler.wir.function_module import BasicBlock, FunctionModule
from repro.compiler.wir.instructions import (
    BranchInstr,
    BuildListInstr,
    CallIndirectInstr,
    CallInstr,
    ConstantInstr,
    FunctionRef,
    JumpInstr,
    KernelCallInstr,
    ReturnInstr,
    Value,
)
from repro.errors import BindingError, CompilerError
from repro.mexpr.atoms import MComplex, MInteger, MReal, MString, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.symbols import head_name, is_head
from repro.runtime.checked import INT64_MAX

#: symbolic constants lowered to Real64 literals
_REAL_CONSTANTS = {
    "Pi": 3.141592653589793,
    "E": 2.718281828459045,
    "EulerGamma": 0.5772156649015329,
    "Degree": 0.017453292519943295,
}


class _LoopContext:
    def __init__(self, continue_target: str, break_target: str):
        self.continue_target = continue_target
        self.break_target = break_target


class Lowerer:
    """Lowers one function body to a :class:`FunctionModule`."""

    def __init__(self, name: str, type_environment):
        self.function = FunctionModule(name)
        self.builder = SSABuilder(self.function)
        self.type_environment = type_environment
        self.block: Optional[BasicBlock] = None
        #: enclosing loops, innermost last; ``None`` for one a macro wrote
        #: (``Table``, ``Sum``, ...), whose body is the user's but which a
        #: ``Break[]``/``Continue[]`` would leave mid-bookkeeping
        self._loops: list[Optional[_LoopContext]] = []
        self._temp_counter = 0
        self._abort_inhibit_depth = 0

    # -- public entry -----------------------------------------------------------

    def lower(self, parameters: list[tuple[str, Optional[Type]]],
              body: MExpr) -> FunctionModule:
        entry = self.function.new_block("start")
        self.block = entry
        self.builder.seal(entry)

        binding = analyze_bindings([n for n, _ in parameters], body)
        self.function.information["escapedVariables"] = sorted(binding.escaped)

        from repro.compiler.wir.instructions import LoadArgumentInstr

        for index, (name, type_) in enumerate(parameters):
            value = Value(hint=name, type_=type_)
            self.function.parameters.append(value)
            instruction = LoadArgumentInstr(value, index)
            self.block.append(instruction)
            self.builder.write(name, self.block, value)

        result = self.lower_expr(binding.body)
        self._terminate(ReturnInstr(result))
        self.builder.finish()
        return self.function

    # -- helpers -----------------------------------------------------------------

    def _new_value(self, hint: str = "") -> Value:
        return Value(hint=hint)

    def emit(self, instruction, source: Optional[MExpr] = None):
        assert self.block is not None, "emission into terminated block"
        self.block.append(instruction)
        if source is not None and instruction.result is not None:
            instruction.result.mexpr = source
            instruction.properties["mexpr"] = source
        if self._abort_inhibit_depth > 0:
            instruction.properties["abort_inhibit"] = True
        return instruction.result

    def _terminate(self, terminator) -> None:
        if self.block is not None and self.block.terminator is None:
            self.builder.terminate(self.block, terminator)

    def _constant(self, value, type_: Optional[Type], source=None) -> Value:
        result = self._new_value()
        result.type = type_
        self.emit(ConstantInstr(result, value), source)
        return result

    def _temp_name(self, prefix: str) -> str:
        self._temp_counter += 1
        return f"${prefix}{self._temp_counter}"

    # -- expression lowering ----------------------------------------------------------

    def lower_expr(self, node: MExpr, used: bool = True) -> Value:
        """Lower ``node``; ``used=False`` marks statement position, letting
        If avoid merging branch values of unrelated types."""
        if not used and is_head(node, "If"):
            return self._lower_If(node, used=False)
        if not used and is_head(node, "CompoundExpression"):
            return self._lower_CompoundExpression(node, used=False)
        if is_head(node, "Native`Iterate"):
            return self._lower_While(node, escapable=False)
        # §6's selective abort inhibition decorator
        if is_head(node, "Native`AbortInhibit") and len(node.args) == 1:
            self._abort_inhibit_depth += 1
            try:
                return self.lower_expr(node.args[0], used=used)
            finally:
                self._abort_inhibit_depth -= 1
        if isinstance(node, MInteger):
            if node.value > INT64_MAX and node.value < (1 << 64):
                # out-of-signed-range literals live in unsigned-64 arithmetic
                return self._constant(node.value, ty("UnsignedInteger64"), node)
            return self._constant(node.value, ty("Integer64"), node)
        if isinstance(node, MReal):
            return self._constant(node.value, ty("Real64"), node)
        if isinstance(node, MComplex):
            return self._constant(node.value, ty("ComplexReal64"), node)
        if isinstance(node, MString):
            return self._constant(node.value, ty("String"), node)
        if isinstance(node, MSymbol):
            return self._lower_symbol(node)

        name = head_name(node)
        handler = getattr(self, f"_lower_{name}", None) if name else None
        if handler is not None:
            return handler(node)
        return self._lower_call(node)

    def _lower_symbol(self, node: MSymbol) -> Value:
        if node.name == "True":
            return self._constant(True, ty("Boolean"), node)
        if node.name == "False":
            return self._constant(False, ty("Boolean"), node)
        if node.name == "Null":
            return self._constant(None, ty("Void"), node)
        if node.name in _REAL_CONSTANTS:
            return self._constant(_REAL_CONSTANTS[node.name], ty("Real64"), node)
        if node.has_property("binding") or self._is_local(node.name):
            value = self.builder.read(node.name, self.block)
            return value
        # a known function used as a value: If[i == 0, Sin, Cos] (§3 F6)
        if self.type_environment is not None and (
            node.name in self.type_environment.function_names()
        ):
            return self._constant(FunctionRef(node.name), None, node)
        raise BindingError(f"unbound variable {node.name}")

    def _is_local(self, name: str) -> bool:
        return name in self.builder._definitions

    # -- special forms ---------------------------------------------------------------------

    def _lower_Typed(self, node: MExpr) -> Value:  # noqa: N802
        if len(node.args) != 2:
            raise CompilerError("Typed needs an expression and a type")
        value = self.lower_expr(node.args[0])
        annotation = parse_type_specifier(node.args[1])
        if value.type is None:
            value.type = annotation
        return value

    def _lower_CompoundExpression(self, node: MExpr,  # noqa: N802
                                  used: bool = True) -> Value:
        result = self._constant(None, ty("Void"))
        for position, argument in enumerate(node.args):
            if self.block is None:
                break  # unreachable after Return/Break
            is_last = position == len(node.args) - 1
            result = self.lower_expr(argument, used=used and is_last)
        return result

    def _lower_Set(self, node: MExpr) -> Value:  # noqa: N802
        if len(node.args) != 2:
            raise CompilerError("bad Set")
        lhs, rhs = node.args
        if isinstance(lhs, MSymbol):
            value = self.lower_expr(rhs)
            if not value.hint:
                value.hint = lhs.name
            self.builder.write(lhs.name, self.block, value)
            return value
        if is_head(lhs, "Part"):
            target_expr = lhs.args[0]
            target = self.lower_expr(target_expr)
            indices = [self.lower_expr(i) for i in lhs.args[1:]]
            value = self.lower_expr(rhs)
            result = self._new_value()
            self.emit(
                CallInstr(result, "Native`PartSet", [target, *indices, value]),
                node,
            )
            # PartSet yields the mutated tensor: rebind the variable so the
            # copy-insertion pass sees the old value's remaining uses (F5)
            if isinstance(target_expr, MSymbol):
                self.builder.write(target_expr.name, self.block, result)
            return value
        raise CompilerError(f"cannot compile assignment to {lhs}")

    def _lower_If(self, node: MExpr, used: bool = True) -> Value:  # noqa: N802
        if len(node.args) not in (2, 3):
            raise CompilerError("If needs 2 or 3 arguments")
        condition = self.lower_expr(node.args[0])
        then_block = self.function.new_block("if_then")
        else_block = self.function.new_block("if_else")
        join_block = self.function.new_block("if_end")
        self._terminate(BranchInstr(condition, then_block.name, else_block.name))
        self.builder.seal(then_block)
        self.builder.seal(else_block)

        temp = self._temp_name("if")
        produces_value = len(node.args) == 3 and used

        self.block = then_block
        then_value = self.lower_expr(node.args[1], used=produces_value)
        if self.block is not None:
            if produces_value:
                self.builder.write(temp, self.block, then_value)
            self._terminate(JumpInstr(join_block.name))

        self.block = else_block
        if len(node.args) == 3:
            else_value = self.lower_expr(node.args[2], used=produces_value)
            if self.block is not None:
                if produces_value:
                    self.builder.write(temp, self.block, else_value)
                self._terminate(JumpInstr(join_block.name))
        else:
            self._terminate(JumpInstr(join_block.name))

        if not self.builder.predecessors(join_block):
            # both branches escaped (Return/Break): no join, so no block
            # is left without a terminator at any optimisation level
            self.function.remove_block(join_block.name)
            self.block = None
            return self._unreachable_value()
        self.block = join_block
        self.builder.seal(join_block)
        if produces_value:
            return self.builder.read(temp, join_block)
        return self._constant(None, ty("Void"))

    def _unreachable_value(self) -> Value:
        value = self._new_value("unreachable")
        value.type = ty("Void")
        return value

    def _lower_While(self, node: MExpr,  # noqa: N802
                     escapable: bool = True) -> Value:
        if len(node.args) not in (1, 2):
            raise CompilerError("While needs 1 or 2 arguments")
        body = node.args[1] if len(node.args) == 2 else None
        return self._loop(node.args[0], body, None, escapable)

    def _lower_For(self, node: MExpr) -> Value:  # noqa: N802
        if len(node.args) not in (3, 4):
            raise CompilerError("For needs 3 or 4 arguments")
        self.lower_expr(node.args[0], used=False)
        if self.block is None:
            return self._unreachable_value()
        body = node.args[3] if len(node.args) == 4 else None
        return self._loop(node.args[1], body, node.args[2], True)

    def _loop(self, test: MExpr, body: Optional[MExpr],
              step: Optional[MExpr], escapable: bool) -> Value:
        """``test`` in the header, then ``body``, then ``step`` in a block
        of its own, which is where ``Continue[]`` goes."""
        header = self.function.new_block("while_head")
        body_block = self.function.new_block("while_body")
        exit_block = self.function.new_block("while_end")
        step_block = (None if step is None
                      else self.function.new_block("for_step"))
        self._terminate(JumpInstr(header.name))

        self.block = header
        condition = self.lower_expr(test)
        self._terminate(
            BranchInstr(condition, body_block.name, exit_block.name)
        )
        self.builder.seal(body_block)

        latch = step_block or header
        self._loops.append(
            _LoopContext(latch.name, exit_block.name) if escapable else None
        )
        self.block = body_block
        if body is not None:
            self.lower_expr(body, used=False)
        if self.block is not None:
            self._terminate(JumpInstr(latch.name))
        self._loops.pop()

        if step_block is not None:
            self.builder.seal(step_block)
            if self.builder.predecessors(step_block):
                self.block = step_block
                self.lower_expr(step, used=False)
                self._terminate(JumpInstr(header.name))
            else:  # the body never falls through nor continues
                self.function.remove_block(step_block.name)

        self.builder.seal(header)
        self.block = exit_block
        self.builder.seal(exit_block)
        return self._constant(None, ty("Void"))

    def _lower_Return(self, node: MExpr) -> Value:  # noqa: N802
        value = (
            self.lower_expr(node.args[0])
            if node.args
            else self._constant(None, ty("Void"))
        )
        self._terminate(ReturnInstr(value))
        self.block = None
        return self._unreachable_value()

    def _lower_Break(self, node: MExpr) -> Value:  # noqa: N802
        return self._jump_out(self._innermost_loop("Break").break_target)

    def _lower_Continue(self, node: MExpr) -> Value:  # noqa: N802
        return self._jump_out(
            self._innermost_loop("Continue").continue_target)

    def _innermost_loop(self, head: str) -> _LoopContext:
        if not self._loops:
            raise CompilerError(f"{head} outside of a loop")
        if self._loops[-1] is None:
            raise CompilerError(
                f"{head}[] inside an iterator such as Table or Sum "
                "cannot be compiled"
            )
        return self._loops[-1]

    def _jump_out(self, target: str) -> Value:
        self._terminate(JumpInstr(target))
        self.block = None
        return self._unreachable_value()

    def _lower_List(self, node: MExpr) -> Value:  # noqa: N802
        elements = [self.lower_expr(a) for a in node.args]
        result = self._new_value("list")
        self.emit(BuildListInstr(result, elements), node)
        return result

    def _lower_Part(self, node: MExpr) -> Value:  # noqa: N802
        return self._lower_call(node)

    # -- calls ---------------------------------------------------------------------------------

    def _lower_call(self, node: MExpr) -> Value:
        head = node.head
        # KernelFunction[f][args...]: explicit escape to the interpreter (F9)
        if is_head(head, "KernelFunction") and len(head.args) == 1:
            return self._lower_kernel_call(head.args[0], list(node.args), node)
        # Typed[KernelFunction[f], {...} -> ty][args...]: a machine-typed
        # escape — the runtime converts the interpreter's result back
        if (
            is_head(head, "Typed")
            and len(head.args) == 2
            and is_head(head.args[0], "KernelFunction")
        ):
            fn_type = parse_type_specifier(head.args[1])
            from repro.compiler.types.specifier import FunctionType

            result_type = (
                fn_type.result if isinstance(fn_type, FunctionType) else fn_type
            )
            return self._lower_kernel_call(
                head.args[0].args[0], list(node.args), node,
                result_type=result_type,
            )

        if isinstance(head, MSymbol):
            name = head.name
            # call through a local function-typed variable
            if head.has_property("binding") or self._is_local(name):
                callee = self.builder.read(name, self.block)
                operands = [self.lower_expr(a) for a in node.args]
                result = self._new_value()
                self.emit(CallIndirectInstr(result, [callee, *operands]), node)
                return result
            operands = [self.lower_expr(a) for a in node.args]
            result = self._new_value()
            self.emit(CallInstr(result, name, operands), node)
            return result

        if not head.is_atom():
            # higher-order result applied directly: (If[c, Sin, Cos])[x]
            callee = self.lower_expr(head)
            operands = [self.lower_expr(a) for a in node.args]
            result = self._new_value()
            self.emit(CallIndirectInstr(result, [callee, *operands]), node)
            return result
        raise CompilerError(f"cannot compile call head {head}")

    def _lower_kernel_call(self, target: MExpr, arguments: list[MExpr],
                           source: MExpr, result_type=None) -> Value:
        operand_values = [self.lower_expr(a) for a in arguments]
        variable_names = [f"$karg{i}" for i in range(len(operand_values))]
        call_expr = MExprNormal(
            target, [MSymbol(n) for n in variable_names]
        )
        result = self._new_value("kernel")
        result.type = result_type if result_type is not None else ty("Expression")
        instruction = KernelCallInstr(
            result, call_expr, variable_names, operand_values
        )
        instruction.properties["result_type"] = result.type
        self.emit(instruction, source)
        return result


#: heads the lowerer consumes itself instead of resolving them as calls:
#: one ``_lower_<Head>`` handler each, the ``KernelFunction`` escape, the
#: ``Native`AbortInhibit`` region and the macros' ``Native`Iterate`` loop
STRUCTURAL_HEADS = frozenset(
    name[len("_lower_"):] for name in vars(Lowerer)
    if name.startswith("_lower_") and name[len("_lower_")].isupper()
) | {"KernelFunction", "Native`AbortInhibit", "Native`Iterate"}
