"""The legacy bytecode compiler — the paper's baseline (§2.2).

A *single forward monolithic transformation* (the design limitation the new
compiler fixes): one depth-first pass over the AST emits WVM instructions,
propagating types as it goes with ``Real`` as the default for anything
unknown.  AST-level common-subexpression elimination runs first, and
register allocation reuses temporary registers.

Hard limits reproduced from the paper:

* fixed datatypes only — machine integers, reals, complexes, booleans, and
  boxed tensors of those (L1);
* no strings (FNV1a must use the character-code workaround);
* no function values (QSort's comparator argument is a compile error);
* no inlining across user functions, no user-extensible anything (L2);
* unsupported-but-numeric subexpressions escape to the interpreter at
  runtime via ``EVAL_EXPR``.
"""

from __future__ import annotations

from typing import Optional

from repro.bytecode.instructions import Instruction, Op
from repro.bytecode.regalloc import RegisterAllocator
from repro.bytecode.supported import (
    BINARY_OPS,
    COMPARISON_OPS,
    UNARY_MATH,
    UNSUPPORTED_FEATURES,
)
from repro.errors import BytecodeCompilerError
from repro.mexpr.atoms import MComplex, MInteger, MReal, MString, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.symbols import S, head_name, is_head

#: compiler/engine version tags serialized into CompiledFunction (§2.2 dump)
BYTECODE_COMPILER_VERSION = 12
WVM_ENGINE_VERSION = 13
DEFAULT_COMPILE_FLAGS = 5468

_PURE_HEADS = (
    set(BINARY_OPS) | set(COMPARISON_OPS) | set(UNARY_MATH) | {"Part", "Length"}
)


class _Scope:
    def __init__(self):
        self.names: dict[str, tuple[int, str]] = {}


class BytecodeCompiler:
    """Compiles ``Compile[{{x, _Integer}, ...}, body]`` into a
    :class:`~repro.bytecode.compiled_function.CompiledFunction`."""

    def __init__(self):
        self.instructions: list[Instruction] = []
        self.constants: list = []
        self.alloc = RegisterAllocator()
        self.scopes: list[_Scope] = [_Scope()]
        self._cse_counter = 0
        #: per enclosing loop, innermost last, the jumps its ``Break[]``s
        #: and ``Continue[]``s left to patch; ``None`` for an iterator
        #: (``Table``, ``Sum``, ``Map``, ...) whose body cannot leave early
        self._loops: list[Optional[dict[str, list[int]]]] = []

    # -- public entry ----------------------------------------------------------

    def compile(self, argument_specs: MExpr, body: MExpr):
        from repro.bytecode.compiled_function import CompiledFunction

        specs = self._parse_argument_specs(argument_specs)
        for index, (name, type_char) in enumerate(specs):
            register = self.alloc.alloc(type_char)
            self.emit(Op.LOAD_ARG, register, (index,))
            self.scopes[0].names[name] = (register, type_char)

        body = self._ast_cse(body, [name for name, _ in specs])
        result_register, result_type = self.emit_expr(body)
        self.emit(Op.RETURN, -1, (result_register,))

        return CompiledFunction(
            versions=(BYTECODE_COMPILER_VERSION, WVM_ENGINE_VERSION,
                      DEFAULT_COMPILE_FLAGS),
            argument_types=[t for _, t in specs],
            argument_names=[n for n, _ in specs],
            constants=self.constants,
            register_counts=self.alloc.counts(),
            register_total=self.alloc.total,
            instructions=self.instructions,
            source_specs=argument_specs,
            source_body=body,
            result_type=result_type,
        )

    def _parse_argument_specs(self, specs: MExpr) -> list[tuple[str, str]]:
        if not is_head(specs, "List"):
            raise BytecodeCompilerError("Compile expects an argument list")
        out: list[tuple[str, str]] = []
        for spec in specs.args:
            if isinstance(spec, MSymbol):
                out.append((spec.name, "r"))  # untyped inputs default to Real
                continue
            if is_head(spec, "List") and spec.args and isinstance(
                spec.args[0], MSymbol
            ):
                name = spec.args[0].name
                type_char = "r"
                if len(spec.args) >= 2:
                    type_char = self._type_from_pattern(spec.args[1])
                if len(spec.args) == 3:
                    type_char = "T" + type_char  # tensor of given rank
                out.append((name, type_char))
                continue
            raise BytecodeCompilerError(f"bad Compile argument spec {spec}")
        return out

    @staticmethod
    def _type_from_pattern(pattern: MExpr) -> str:
        if is_head(pattern, "Blank") and pattern.args:
            head = pattern.args[0]
            if isinstance(head, MSymbol):
                mapping = {"Integer": "i", "Real": "r", "Complex": "c"}
                if head.name in mapping:
                    return mapping[head.name]
                if head.name in UNSUPPORTED_FEATURES:
                    raise BytecodeCompilerError(
                        UNSUPPORTED_FEATURES[head.name]
                    )
        if is_head(pattern, "Blank"):
            return "r"
        raise BytecodeCompilerError(f"unsupported argument type {pattern}")

    # -- AST common-subexpression elimination ----------------------------------

    def _ast_cse(self, body: MExpr, parameters: list[str]) -> MExpr:
        """Hoist repeated pure subexpressions over the parameters (§2.2)."""
        if _assigns_any(body, set(parameters)):
            return body
        parameter_set = set(parameters)
        counts: dict[MExpr, int] = {}
        for node in body.subexpressions():
            if _is_pure_candidate(node, parameter_set):
                counts[node] = counts.get(node, 0) + 1
        hoisted = [node for node, count in counts.items() if count >= 2]
        # hoist bigger expressions first so nested candidates fold into them
        hoisted.sort(key=_node_size, reverse=True)
        if not hoisted:
            return body
        bindings: list[MExpr] = []
        for node in hoisted[:8]:  # bounded, like the real fixed-size pass
            self._cse_counter += 1
            name = MSymbol(f"$cse{self._cse_counter}")
            body = _replace_subtree(body, node, name)
            bindings.append(MExprNormal(S.Set, [name, node]))
        return MExprNormal(
            S.Module, [MExprNormal(S.List, bindings), body]
        )

    # -- emission helpers -------------------------------------------------------

    def emit(self, op: Op, target: int, operands: tuple = (), payload=None) -> int:
        self.instructions.append(Instruction(op, target, operands, payload))
        return len(self.instructions) - 1

    def const_index(self, value) -> int:
        for index, existing in enumerate(self.constants):
            if type(existing) is type(value) and existing == value:
                return index
        self.constants.append(value)
        return len(self.constants) - 1

    def load_const(self, value, type_char: str) -> int:
        register = self.alloc.alloc(type_char)
        self.emit(Op.LOAD_CONST, register, (self.const_index(value),))
        return register

    def lookup(self, name: str) -> Optional[tuple[int, str]]:
        for scope in reversed(self.scopes):
            if name in scope.names:
                return scope.names[name]
        return None

    def patch_jump(self, at: int, destination: int) -> None:
        instruction = self.instructions[at]
        instruction.operands = (destination, *instruction.operands[1:])

    def here(self) -> int:
        return len(self.instructions)

    def _free_temp(self, register: int, owned: bool) -> None:
        if owned:
            self.alloc.free(register)

    # -- expression emission ------------------------------------------------------

    def emit_expr(self, node: MExpr) -> tuple[int, str]:
        register, type_char, _owned = self.emit_value(node)
        return register, type_char

    def emit_pinned(self, node: MExpr) -> tuple[int, str]:
        """Emit ``node`` into a register the caller owns (and may free).

        A bare local reference returns the local's own register, which must
        never be freed; this pins such values into a fresh register first.
        """
        register, type_char, owned = self.emit_value(node)
        if owned:
            return register, type_char
        pinned = self.alloc.alloc(type_char)
        self.emit(Op.MOVE, pinned, (register,))
        return pinned, type_char

    def emit_value(self, node: MExpr) -> tuple[int, str, bool]:
        """Emit code computing ``node``; returns (register, type, owned)."""
        if isinstance(node, MInteger):
            return self.load_const(node.value, "i"), "i", True
        if isinstance(node, MReal):
            return self.load_const(node.value, "r"), "r", True
        if isinstance(node, MComplex):
            return self.load_const(node.value, "c"), "c", True
        if isinstance(node, MString):
            raise BytecodeCompilerError(UNSUPPORTED_FEATURES["String"])
        if isinstance(node, MSymbol):
            return self._emit_symbol(node)
        return self._emit_normal(node)

    def _emit_symbol(self, node: MSymbol) -> tuple[int, str, bool]:
        if node.name == "True":
            return self.load_const(True, "b"), "b", True
        if node.name == "False":
            return self.load_const(False, "b"), "b", True
        if node.name == "Null":
            return self.load_const(None, "i"), "i", True
        if node.name == "Pi":
            import math

            return self.load_const(math.pi, "r"), "r", True
        if node.name == "E":
            import math

            return self.load_const(math.e, "r"), "r", True
        binding = self.lookup(node.name)
        if binding is not None:
            register, type_char = binding
            return register, type_char, False
        # A bare builtin-function symbol is a function *value* — the
        # bytecode compiler "has no way to represent function types" (§3 F6)
        from repro.engine.builtins import BUILTINS

        if node.name in BUILTINS and node.name not in {
            "Pi", "E", "True", "False", "Null"
        }:
            raise BytecodeCompilerError(
                f"function values cannot be represented in bytecode "
                f"({node.name} used as a value)"
            )
        # Unknown global symbol: escape to the interpreter, assume Real.
        return self._emit_interpreter_escape(node)

    def _emit_normal(self, node: MExpr) -> tuple[int, str, bool]:
        name = head_name(node)
        if name is None:
            if is_head(node.head, "Function"):
                return self._emit_inline_apply(node.head, list(node.args))
            raise BytecodeCompilerError(f"cannot compile head {node.head}")

        handler = getattr(self, f"_emit_{name}", None)
        if handler is not None:
            return handler(node)
        if name in BINARY_OPS:
            return self._emit_nary(BINARY_OPS[name], node)
        if name in COMPARISON_OPS:
            return self._emit_comparison(COMPARISON_OPS[name], node)
        if name in UNARY_MATH and len(node.args) == 1:
            return self._emit_unary_math(name, node)
        if name in UNSUPPORTED_FEATURES:
            raise BytecodeCompilerError(UNSUPPORTED_FEATURES[name])
        # generic call: if a Function value flows in as data, that is L1 —
        # "Function passing cannot be represented in the bytecode compiler"
        from repro.engine.builtins import BUILTINS

        for argument in node.args:
            if is_head(argument, "Function"):
                raise BytecodeCompilerError(
                    "function values cannot be represented in bytecode "
                    f"(argument {argument} of {name})"
                )
            if (
                isinstance(argument, MSymbol)
                and argument.name in BUILTINS
                and self.lookup(argument.name) is None
                and argument.name not in {"Pi", "E", "True", "False", "Null"}
            ):
                raise BytecodeCompilerError(
                    "function values cannot be represented in bytecode "
                    f"(argument {argument} of {name})"
                )
        return self._emit_interpreter_escape(node)

    # -- interpreter escape -------------------------------------------------------

    def _emit_interpreter_escape(self, node: MExpr) -> tuple[int, str, bool]:
        """Unsupported expression: evaluate it with the interpreter at run
        time (§2.2), with current locals substituted in.  Type: Real."""
        free: list[tuple[str, int]] = []
        seen = set()
        for sub in node.subexpressions():
            if isinstance(sub, MSymbol) and sub.name not in seen:
                binding = self.lookup(sub.name)
                if binding is not None:
                    free.append((sub.name, binding[0]))
                    seen.add(sub.name)
        register = self.alloc.alloc("r")
        self.emit(Op.EVAL_EXPR, register, (), payload=(node, free))
        return register, "r", True

    # -- arithmetic -----------------------------------------------------------------

    @staticmethod
    def _join_types(a: str, b: str) -> str:
        if a.startswith("T") or b.startswith("T"):
            element = "r"
            for t in (a, b):
                if t.startswith("T"):
                    element = t[1:] or "r"
            return "T" + element
        order = {"b": 0, "i": 1, "r": 2, "c": 3}
        return a if order.get(a, 2) >= order.get(b, 2) else b

    def _emit_nary(self, op: Op, node: MExpr) -> tuple[int, str, bool]:
        if not node.args:
            raise BytecodeCompilerError(f"{node} has no arguments")
        left, left_type, left_owned = self.emit_value(node.args[0])
        if len(node.args) == 1:
            return left, left_type, left_owned
        for argument in node.args[1:]:
            right, right_type, right_owned = self.emit_value(argument)
            result_type = self._join_types(left_type, right_type)
            if op == Op.DIV and result_type == "i":
                result_type = "r"
            target = self.alloc.alloc(result_type)
            self.emit(op, target, (left, right))
            self._free_temp(left, left_owned)
            self._free_temp(right, right_owned)
            left, left_type, left_owned = target, result_type, True
        return left, left_type, left_owned

    def _emit_comparison(self, op: Op, node: MExpr) -> tuple[int, str, bool]:
        if len(node.args) != 2:
            raise BytecodeCompilerError("chained comparisons are not supported")
        left, _lt, left_owned = self.emit_value(node.args[0])
        right, _rt, right_owned = self.emit_value(node.args[1])
        target = self.alloc.alloc("b")
        self.emit(op, target, (left, right))
        self._free_temp(left, left_owned)
        self._free_temp(right, right_owned)
        return target, "b", True

    def _emit_unary_math(self, name: str, node: MExpr) -> tuple[int, str, bool]:
        operand, operand_type, owned = self.emit_value(node.args[0])
        result_type = "i" if name in {"Floor", "Ceiling", "Round", "Sign"} else (
            operand_type if name in {"Abs", "Neg"} else
            ("c" if operand_type == "c" else "r")
        )
        target = self.alloc.alloc(result_type)
        self.emit(Op.MATH_UNARY, target, (UNARY_MATH[name], operand))
        self._free_temp(operand, owned)
        return target, result_type, True

    # -- special forms ---------------------------------------------------------------

    def _emit_Plus(self, node):  # noqa: N802 (Wolfram head names)
        return self._emit_nary(Op.ADD, node)

    def _emit_Times(self, node):  # noqa: N802
        # special-case -1 * x  ->  Neg
        if len(node.args) == 2 and node.args[0] == MInteger(-1):
            operand, operand_type, owned = self.emit_value(node.args[1])
            target = self.alloc.alloc(operand_type)
            self.emit(Op.MATH_UNARY, target, (UNARY_MATH["Neg"], operand))
            self._free_temp(operand, owned)
            return target, operand_type, True
        return self._emit_nary(Op.MUL, node)

    def _emit_Power(self, node):  # noqa: N802
        if len(node.args) == 2 and node.args[1] == MInteger(-1):
            operand, _t, owned = self.emit_value(node.args[0])
            one = self.load_const(1.0, "r")
            target = self.alloc.alloc("r")
            self.emit(Op.DIV, target, (one, operand))
            self.alloc.free(one)
            self._free_temp(operand, owned)
            return target, "r", True
        if len(node.args) == 2 and node.args[0] == MSymbol("E"):
            return self._emit_unary_math(
                "Exp", MExprNormal(S.Exp, [node.args[1]])
            )
        return self._emit_nary(Op.POW, node)

    def _emit_Sqrt(self, node):  # noqa: N802
        return self._emit_unary_math("Sqrt", node)

    def _emit_Minus(self, node):  # noqa: N802
        return self._emit_unary_math("Neg", node)

    def _emit_Boole(self, node):  # noqa: N802
        operand, _t, owned = self.emit_value(node.args[0])
        target = self.alloc.alloc("i")
        self.emit(Op.CAST_INT, target, (operand,))
        self._free_temp(operand, owned)
        return target, "i", True

    def _emit_N(self, node):  # noqa: N802
        operand, _t, owned = self.emit_value(node.args[0])
        target = self.alloc.alloc("r")
        self.emit(Op.CAST_REAL, target, (operand,))
        self._free_temp(operand, owned)
        return target, "r", True

    def _emit_EvenQ(self, node):  # noqa: N802
        return self._emit_parity(node, 0)

    def _emit_OddQ(self, node):  # noqa: N802
        return self._emit_parity(node, 1)

    def _emit_parity(self, node, remainder):
        operand, _t, owned = self.emit_value(node.args[0])
        two = self.load_const(2, "i")
        mod_register = self.alloc.alloc("i")
        self.emit(Op.MOD, mod_register, (operand, two))
        expected = self.load_const(remainder, "i")
        target = self.alloc.alloc("b")
        self.emit(Op.EQ, target, (mod_register, expected))
        for register in (two, mod_register, expected):
            self.alloc.free(register)
        self._free_temp(operand, owned)
        return target, "b", True

    def _emit_And(self, node):  # noqa: N802
        return self._emit_short_circuit(node, is_and=True)

    def _emit_Or(self, node):  # noqa: N802
        return self._emit_short_circuit(node, is_and=False)

    def _emit_short_circuit(self, node, is_and: bool):
        target = self.alloc.alloc("b")
        exits = []
        for index, argument in enumerate(node.args):
            register, _t, owned = self.emit_value(argument)
            self.emit(Op.MOVE, target, (register,))
            self._free_temp(register, owned)
            if index < len(node.args) - 1:
                op = Op.JUMP_IF_NOT if is_and else Op.JUMP_IF
                exits.append(self.emit(op, -1, (0, target)))
        destination = self.here()
        for at in exits:
            self.patch_jump(at, destination)
        return target, "b", True

    def _emit_Not(self, node):  # noqa: N802
        operand, _t, owned = self.emit_value(node.args[0])
        target = self.alloc.alloc("b")
        self.emit(Op.NOT, target, (operand,))
        self._free_temp(operand, owned)
        return target, "b", True

    def _emit_If(self, node):  # noqa: N802
        if len(node.args) not in (2, 3):
            raise BytecodeCompilerError("If needs 2 or 3 arguments")
        condition, _t, owned = self.emit_value(node.args[0])
        branch_at = self.emit(Op.JUMP_IF_NOT, -1, (0, condition))
        self._free_temp(condition, owned)

        then_register, then_type, then_owned = self.emit_value(node.args[1])
        result_type = then_type
        target = self.alloc.alloc(result_type)
        self.emit(Op.MOVE, target, (then_register,))
        self._free_temp(then_register, then_owned)
        exit_at = self.emit(Op.JUMP, -1, (0,))
        self.patch_jump(branch_at, self.here())
        if len(node.args) == 3:
            else_register, _et, else_owned = self.emit_value(node.args[2])
            self.emit(Op.MOVE, target, (else_register,))
            self._free_temp(else_register, else_owned)
        else:
            null_register = self.load_const(None, "i")
            self.emit(Op.MOVE, target, (null_register,))
            self.alloc.free(null_register)
        self.patch_jump(exit_at, self.here())
        return target, result_type, True

    def _emit_While(self, node):  # noqa: N802
        return self._emit_loop(node.args[0], node.args[1:2], None)

    def _emit_For(self, node):  # noqa: N802
        if len(node.args) not in (3, 4):
            raise BytecodeCompilerError("For needs 3 or 4 arguments")
        self._emit_effect(node.args[0])
        return self._emit_loop(node.args[1], node.args[3:], node.args[2])

    def _emit_loop(self, test: MExpr, body, step: Optional[MExpr]):
        """``test`` at the head, then ``body`` (at most one expression),
        then ``step``, which is where ``Continue[]`` jumps."""
        head = self.here()
        condition, _t, owned = self.emit_value(test)
        exit_at = self.emit(Op.JUMP_IF_NOT, -1, (0, condition))
        self._free_temp(condition, owned)
        self._loops.append({"Break": [], "Continue": []})
        for statement in body:
            self._emit_effect(statement)
        stepping = self.here() if step is not None else head
        if step is not None:
            self._emit_effect(step)
        self.emit(Op.JUMP, -1, (head,))
        self.patch_jump(exit_at, self.here())
        self._close_loop(stepping)
        return self.load_const(None, "i"), "i", True

    def _emit_effect(self, node: MExpr) -> None:
        register, _t, owned = self.emit_value(node)
        self._free_temp(register, owned)

    def _close_loop(self, step: int) -> None:
        """Leave the innermost loop, which ends here: its ``Continue[]``s
        jump to ``step``, its ``Break[]``s to here."""
        exits = self._loops.pop() or {}
        for head, destination in (("Continue", step), ("Break", self.here())):
            for at in exits.get(head, ()):
                self.patch_jump(at, destination)

    def _emit_Break(self, node):  # noqa: N802
        return self._jump_out("Break")

    def _emit_Continue(self, node):  # noqa: N802
        return self._jump_out("Continue")

    def _jump_out(self, head: str):
        if not self._loops or self._loops[-1] is None:
            raise BytecodeCompilerError(
                f"{head}[] outside of a loop or inside an iterator such as "
                "Table or Sum")
        self._loops[-1][head].append(self.emit(Op.JUMP, -1, (-1,)))
        return self.load_const(None, "i"), "i", True

    def _emit_Return(self, node):  # noqa: N802
        if node.args:
            register, _rt = self.emit_expr(node.args[0])
        else:
            register = self.load_const(None, "i")
        self.emit(Op.RETURN, -1, (register,))
        return self.load_const(None, "i"), "i", True

    def _emit_Do(self, node):  # noqa: N802
        if len(node.args) != 2:
            raise BytecodeCompilerError("Do needs a body and one iterator")
        _, body_emitter = self._loop_over_iterator(node.args[1], escapes=True)
        body_emitter(lambda: self.emit_expr(node.args[0]))
        return self.load_const(None, "i"), "i", True

    def _loop_over_iterator(self, spec: MExpr, escapes: bool = False):
        """Set up a counted loop for {i, n} / {i, a, b} / {i, a, b, step};
        ``escapes`` lets its body ``Break[]`` and ``Continue[]`` (``Do``)."""
        if not is_head(spec, "List") or not spec.args or not isinstance(
            spec.args[0], MSymbol
        ):
            raise BytecodeCompilerError(f"bad iterator {spec}")
        variable = spec.args[0].name
        bounds = spec.args[1:]
        if len(bounds) == 1:
            start_expr: MExpr = MInteger(1)
            stop_expr, step_expr = bounds[0], MInteger(1)
        elif len(bounds) == 2:
            start_expr, stop_expr, step_expr = bounds[0], bounds[1], MInteger(1)
        elif len(bounds) == 3:
            start_expr, stop_expr, step_expr = bounds
        else:
            raise BytecodeCompilerError(f"bad iterator {spec}")

        start, start_type = self.emit_pinned(start_expr)
        stop, _stop_type = self.emit_pinned(stop_expr)
        step, _step_type = self.emit_pinned(step_expr)
        counter = self.alloc.alloc(start_type)
        self.emit(Op.MOVE, counter, (start,))
        scope = _Scope()
        scope.names[variable] = (counter, start_type)
        self.scopes.append(scope)

        def run(body_callback):
            head = self.here()
            in_range = self.alloc.alloc("b")
            self.emit(Op.LE, in_range, (counter, stop))
            exit_at = self.emit(Op.JUMP_IF_NOT, -1, (0, in_range))
            self._loops.append(
                {"Break": [], "Continue": []} if escapes else None)
            body_callback()
            stepping = self.here()
            self.emit(Op.ADD, counter, (counter, step))
            self.emit(Op.JUMP, -1, (head,))
            self.patch_jump(exit_at, self.here())
            self._close_loop(stepping)
            self.scopes.pop()
            for register in (start, stop, step, counter, in_range):
                self.alloc.free(register)

        return variable, run

    def _emit_Module(self, node):  # noqa: N802
        if len(node.args) != 2 or not is_head(node.args[0], "List"):
            raise BytecodeCompilerError("bad Module")
        scope = _Scope()
        for item in node.args[0].args:
            if isinstance(item, MSymbol):
                register = self.alloc.alloc("r")
                scope.names[item.name] = (register, "r")
            elif is_head(item, "Set") and isinstance(item.args[0], MSymbol):
                register, type_char = self.emit_pinned(item.args[1])
                scope.names[item.args[0].name] = (register, type_char)
            else:
                raise BytecodeCompilerError(f"bad Module variable {item}")
        self.scopes.append(scope)
        try:
            result, result_type, owned = self.emit_value(node.args[1])
            if not owned:
                pinned = self.alloc.alloc(result_type)
                self.emit(Op.MOVE, pinned, (result,))
                result, owned = pinned, True
        finally:
            self.scopes.pop()
            for register, _t in scope.names.values():
                self.alloc.free(register)
        return result, result_type, owned

    _emit_Block = _emit_Module  # the VM has no global state to shadow
    _emit_With = _emit_Module

    def _emit_CompoundExpression(self, node):  # noqa: N802
        result, result_type, owned = self.load_const(None, "i"), "i", True
        for index, argument in enumerate(node.args):
            self._free_temp(result, owned)
            result, result_type, owned = self.emit_value(argument)
        return result, result_type, owned

    def _emit_Set(self, node):  # noqa: N802
        if len(node.args) != 2:
            raise BytecodeCompilerError("bad Set")
        lhs, rhs = node.args
        if isinstance(lhs, MSymbol):
            binding = self.lookup(lhs.name)
            value, value_type, owned = self.emit_value(rhs)
            if binding is None:
                pinned = self.alloc.alloc(value_type)
                self.emit(Op.MOVE, pinned, (value,))
                self.scopes[-1].names[lhs.name] = (pinned, value_type)
                self._free_temp(value, owned)
                return pinned, value_type, False
            register, _old_type = binding
            self.emit(Op.MOVE, register, (value,))
            self._free_temp(value, owned)
            return register, value_type, False
        if is_head(lhs, "Part"):
            return self._emit_part_set(lhs, rhs)
        raise BytecodeCompilerError(f"cannot compile assignment to {lhs}")

    def _emit_part_set(self, lhs, rhs):
        target = lhs.args[0]
        if not isinstance(target, MSymbol):
            raise BytecodeCompilerError("Part assignment target must be local")
        binding = self.lookup(target.name)
        if binding is None:
            raise BytecodeCompilerError(f"unknown tensor {target.name}")
        tensor, tensor_type = binding
        current = tensor
        index_registers = []
        for index_expr in lhs.args[1:-1]:
            index, _it = self.emit_pinned(index_expr)
            inner = self.alloc.alloc(tensor_type)
            self.emit(Op.TENSOR_GET, inner, (current, index))
            index_registers.append(index)
            if current != tensor:
                self.alloc.free(current)
            current = inner
        final_index, _ft = self.emit_pinned(lhs.args[-1])
        value, value_type, owned = self.emit_value(rhs)
        self.emit(Op.TENSOR_SET, current, (final_index, value))
        for register in index_registers:
            self.alloc.free(register)
        self.alloc.free(final_index)
        if current != tensor:
            self.alloc.free(current)
        return value, value_type, owned

    def _emit_increment_like(self, node, delta: MExpr, returns_old: bool):
        target = node.args[0]
        updated = MExprNormal(
            S.Set, [target, MExprNormal(S.Plus, [target, delta])]
        )
        if returns_old:
            # old value is the target before the update
            old, old_type = self.emit_expr(target)
            pinned = self.alloc.alloc(old_type)
            self.emit(Op.MOVE, pinned, (old,))
            self.emit_expr(updated)
            return pinned, old_type, True
        return self.emit_value(updated)

    def _emit_Increment(self, node):  # noqa: N802
        return self._emit_increment_like(node, MInteger(1), True)

    def _emit_Decrement(self, node):  # noqa: N802
        return self._emit_increment_like(node, MInteger(-1), True)

    def _emit_PreIncrement(self, node):  # noqa: N802
        return self._emit_increment_like(node, MInteger(1), False)

    def _emit_PreDecrement(self, node):  # noqa: N802
        return self._emit_increment_like(node, MInteger(-1), False)

    def _emit_AddTo(self, node):  # noqa: N802
        return self._emit_increment_like(node, node.args[1], False)

    def _emit_SubtractFrom(self, node):  # noqa: N802
        delta = MExprNormal(S.Times, [MInteger(-1), node.args[1]])
        return self._emit_increment_like(node, delta, False)

    # -- tensors -----------------------------------------------------------------

    def _emit_List(self, node):  # noqa: N802
        registers = []
        element_type = "r"
        for argument in node.args:
            register, type_char, _owned = self.emit_value(argument)
            registers.append(register)
            element_type = self._join_types(element_type, type_char) \
                if type_char.startswith("T") else (
                    type_char if element_type == "r" else element_type)
        target = self.alloc.alloc("T" + (element_type if not element_type.startswith("T") else element_type[1:]))
        self.emit(Op.TENSOR_FROM_REGS, target, tuple(registers))
        for register in registers:
            self.alloc.free(register)
        return target, "T" + (element_type if not element_type.startswith("T") else element_type[1:]), True

    def _emit_Part(self, node):  # noqa: N802
        subject, subject_type, owned = self.emit_value(node.args[0])
        current, current_owned = subject, owned
        element = subject_type[1:] if subject_type.startswith("T") else "r"
        for index_expr in node.args[1:]:
            index, _it = self.emit_pinned(index_expr)
            target = self.alloc.alloc(element)
            self.emit(Op.TENSOR_GET, target, (current, index))
            self.alloc.free(index)
            self._free_temp(current, current_owned)
            current, current_owned = target, True
        return current, element, current_owned

    def _emit_Length(self, node):  # noqa: N802
        subject, _st, owned = self.emit_value(node.args[0])
        target = self.alloc.alloc("i")
        self.emit(Op.TENSOR_LENGTH, target, (subject,))
        self._free_temp(subject, owned)
        return target, "i", True

    def _emit_Total(self, node):  # noqa: N802
        subject, subject_type, owned = self.emit_value(node.args[0])
        element = subject_type[1:] if subject_type.startswith("T") else "r"
        target = self.alloc.alloc(element)
        self.emit(Op.TENSOR_TOTAL, target, (subject,))
        self._free_temp(subject, owned)
        return target, element, True

    def _emit_Dot(self, node):  # noqa: N802
        left, left_type, left_owned = self.emit_value(node.args[0])
        right, _rt, right_owned = self.emit_value(node.args[1])
        target = self.alloc.alloc(left_type)
        self.emit(Op.TENSOR_DOT, target, (left, right))
        self._free_temp(left, left_owned)
        self._free_temp(right, right_owned)
        return target, left_type, True

    def _emit_ConstantArray(self, node):  # noqa: N802
        if len(node.args) != 2:
            raise BytecodeCompilerError("bad ConstantArray")
        fill, fill_type, fill_owned = self.emit_value(node.args[0])
        shape = node.args[1]
        length_expr = shape.args[0] if is_head(shape, "List") else shape
        if is_head(shape, "List") and len(shape.args) != 1:
            raise BytecodeCompilerError(
                "bytecode ConstantArray supports rank 1 only"
            )
        length, _lt = self.emit_pinned(length_expr)
        target = self.alloc.alloc("T" + fill_type)
        self.emit(Op.TENSOR_CREATE, target, (length, fill))
        self.alloc.free(length)
        self._free_temp(fill, fill_owned)
        return target, "T" + fill_type, True

    def _emit_Range(self, node):  # noqa: N802
        table = MExprNormal(
            S.Table,
            [MSymbol("$range"), MExprNormal(S.List, [MSymbol("$range"), *node.args])],
        )
        if len(node.args) == 1:
            table = MExprNormal(
                S.Table,
                [
                    MSymbol("$range"),
                    MExprNormal(S.List, [MSymbol("$range"), MInteger(1), node.args[0]]),
                ],
            )
        return self.emit_value(table)

    def _emit_Table(self, node):  # noqa: N802
        if len(node.args) != 2:
            raise BytecodeCompilerError("bytecode Table supports one iterator")
        spec = node.args[1]
        # length = Floor[(stop - start)/step] + 1, computed at run time
        bounds = spec.args[1:]
        if len(bounds) == 1:
            length_expr: MExpr = bounds[0]
        elif len(bounds) == 2:
            length_expr = MExprNormal(
                S.Plus,
                [bounds[1], MExprNormal(S.Times, [MInteger(-1), bounds[0]]), MInteger(1)],
            )
        else:
            span = MExprNormal(
                S.Plus, [bounds[1], MExprNormal(S.Times, [MInteger(-1), bounds[0]])]
            )
            length_expr = MExprNormal(
                S.Plus,
                [MExprNormal(S.Floor,
                             [MExprNormal(S.Times,
                                          [span, MExprNormal(S.Power, [bounds[2], MInteger(-1)])])]),
                 MInteger(1)],
            )
        length, _lt = self.emit_pinned(length_expr)
        fill = self.load_const(0, "i")
        target = self.alloc.alloc("Tr")
        self.emit(Op.TENSOR_CREATE, target, (length, fill))
        self.alloc.free(fill)
        position = self.alloc.alloc("i")
        one = self.load_const(1, "i")
        self.emit(Op.MOVE, position, (one,))

        _variable, run = self._loop_over_iterator(spec)

        def body():
            value, _vt, owned = self.emit_value(node.args[0])
            self.emit(Op.TENSOR_SET, target, (position, value))
            self.emit(Op.ADD, position, (position, one))
            self._free_temp(value, owned)

        run(body)
        self.alloc.free(position)
        self.alloc.free(one)
        self.alloc.free(length)
        return target, "Tr", True

    def _emit_Sum(self, node):  # noqa: N802
        if len(node.args) != 2:
            raise BytecodeCompilerError("bytecode Sum supports one iterator")
        accumulator = self.alloc.alloc("r")
        zero = self.load_const(0, "i")
        self.emit(Op.MOVE, accumulator, (zero,))
        self.alloc.free(zero)
        _variable, run = self._loop_over_iterator(node.args[1])

        def body():
            value, _vt, owned = self.emit_value(node.args[0])
            self.emit(Op.ADD, accumulator, (accumulator, value))
            self._free_temp(value, owned)

        run(body)
        return accumulator, "r", True

    def _emit_RandomReal(self, node):  # noqa: N802
        if node.args and is_head(node.args[0], "List") and len(node.args[0].args) == 2:
            lo, _t1 = self.emit_pinned(node.args[0].args[0])
            hi, _t2 = self.emit_pinned(node.args[0].args[1])
        elif not node.args:
            lo = self.load_const(0.0, "r")
            hi = self.load_const(1.0, "r")
        else:
            lo = self.load_const(0.0, "r")
            hi, _t = self.emit_pinned(node.args[0])
        target = self.alloc.alloc("r")
        self.emit(Op.RANDOM_REAL, target, (lo, hi))
        self.alloc.free(lo)
        self.alloc.free(hi)
        return target, "r", True

    def _emit_RandomInteger(self, node):  # noqa: N802
        if node.args and is_head(node.args[0], "List") and len(node.args[0].args) == 2:
            lo, _t1 = self.emit_pinned(node.args[0].args[0])
            hi, _t2 = self.emit_pinned(node.args[0].args[1])
        else:
            lo = self.load_const(0, "i")
            hi, _t = (
                self.emit_pinned(node.args[0]) if node.args
                else (self.load_const(1, "i"), "i")
            )
        target = self.alloc.alloc("i")
        self.emit(Op.RANDOM_INT, target, (lo, hi))
        self.alloc.free(lo)
        self.alloc.free(hi)
        return target, "i", True

    # -- higher-order forms with *literal* function arguments ------------------------

    def _require_literal_function(self, node, position: int) -> MExpr:
        function = node.args[position]
        if not is_head(function, "Function"):
            raise BytecodeCompilerError(
                "function values cannot be represented in bytecode; "
                f"{head_name(node)} requires a literal Function argument"
            )
        return function

    def _emit_inline_apply(self, function: MExpr, arguments: list[MExpr]):
        """Inline-substitute a literal pure function application (AST level)."""
        body = _bind_function_body(function, arguments)
        return self.emit_value(body)

    def _emit_Map(self, node):  # noqa: N802
        function = self._require_literal_function(node, 0)
        subject, subject_type, owned = self.emit_value(node.args[1])
        length = self.alloc.alloc("i")
        self.emit(Op.TENSOR_LENGTH, length, (subject,))
        fill = self.load_const(0, "i")
        target = self.alloc.alloc(subject_type if subject_type.startswith("T") else "Tr")
        self.emit(Op.TENSOR_CREATE, target, (length, fill))
        self.alloc.free(fill)
        index = self.alloc.alloc("i")
        one = self.load_const(1, "i")
        self.emit(Op.MOVE, index, (one,))
        head = self.here()
        in_range = self.alloc.alloc("b")
        self.emit(Op.LE, in_range, (index, length))
        exit_at = self.emit(Op.JUMP_IF_NOT, -1, (0, in_range))
        element_type = subject_type[1:] if subject_type.startswith("T") else "r"
        element = self.alloc.alloc(element_type)
        self.emit(Op.TENSOR_GET, element, (subject, index))
        scope = _Scope()
        element_name = f"$map{id(node) % 10_000}"
        scope.names[element_name] = (element, element_type)
        self.scopes.append(scope)
        self._loops.append(None)
        mapped, _mt, mapped_owned = self._emit_inline_apply(
            function, [MSymbol(element_name)]
        )
        self._loops.pop()
        self.scopes.pop()
        self.emit(Op.TENSOR_SET, target, (index, mapped))
        self._free_temp(mapped, mapped_owned)
        self.emit(Op.ADD, index, (index, one))
        self.emit(Op.JUMP, -1, (head,))
        self.patch_jump(exit_at, self.here())
        for register in (length, index, one, in_range, element):
            self.alloc.free(register)
        self._free_temp(subject, owned)
        return target, subject_type if subject_type.startswith("T") else "Tr", True

    def _emit_Fold(self, node):  # noqa: N802
        if len(node.args) != 3:
            raise BytecodeCompilerError("bytecode Fold needs 3 arguments")
        function = self._require_literal_function(node, 0)
        accumulator, accumulator_type = self.emit_pinned(node.args[1])
        subject, subject_type, owned = self.emit_value(node.args[2])
        element_type = subject_type[1:] if subject_type.startswith("T") else "r"
        length = self.alloc.alloc("i")
        self.emit(Op.TENSOR_LENGTH, length, (subject,))
        index = self.alloc.alloc("i")
        one = self.load_const(1, "i")
        self.emit(Op.MOVE, index, (one,))
        head = self.here()
        in_range = self.alloc.alloc("b")
        self.emit(Op.LE, in_range, (index, length))
        exit_at = self.emit(Op.JUMP_IF_NOT, -1, (0, in_range))
        element = self.alloc.alloc(element_type)
        self.emit(Op.TENSOR_GET, element, (subject, index))
        scope = _Scope()
        accumulator_name = f"$acc{id(node) % 10_000}"
        element_name = f"$elt{id(node) % 10_000}"
        scope.names[accumulator_name] = (accumulator, accumulator_type)
        scope.names[element_name] = (element, element_type)
        self.scopes.append(scope)
        self._loops.append(None)
        combined, _ct, combined_owned = self._emit_inline_apply(
            function, [MSymbol(accumulator_name), MSymbol(element_name)]
        )
        self._loops.pop()
        self.scopes.pop()
        self.emit(Op.MOVE, accumulator, (combined,))
        self._free_temp(combined, combined_owned)
        self.emit(Op.ADD, index, (index, one))
        self.emit(Op.JUMP, -1, (head,))
        self.patch_jump(exit_at, self.here())
        for register in (length, index, one, in_range, element):
            self.alloc.free(register)
        self._free_temp(subject, owned)
        return accumulator, accumulator_type, True

    def _emit_Nest(self, node):  # noqa: N802
        return self._emit_nest_like(node, collect=False)

    def _emit_NestList(self, node):  # noqa: N802
        return self._emit_nest_like(node, collect=True)

    def _emit_nest_like(self, node, collect: bool):
        if len(node.args) != 3:
            raise BytecodeCompilerError("NestList needs 3 arguments")
        function = self._require_literal_function(node, 0)
        current, current_type = self.emit_pinned(node.args[1])
        count, _ct = self.emit_pinned(node.args[2])

        target = -1
        position = -1
        one = self.load_const(1, "i")
        if collect:
            length = self.alloc.alloc("i")
            self.emit(Op.ADD, length, (count, one))
            fill = self.load_const(0, "i")
            target = self.alloc.alloc("T" + current_type if not current_type.startswith("T") else current_type)
            self.emit(Op.TENSOR_CREATE, target, (length, fill))
            self.alloc.free(fill)
            self.alloc.free(length)
            position = self.alloc.alloc("i")
            self.emit(Op.MOVE, position, (one,))
            self.emit(Op.TENSOR_SET, target, (position, current))
            self.emit(Op.ADD, position, (position, one))

        index = self.alloc.alloc("i")
        self.emit(Op.MOVE, index, (one,))
        head = self.here()
        in_range = self.alloc.alloc("b")
        self.emit(Op.LE, in_range, (index, count))
        exit_at = self.emit(Op.JUMP_IF_NOT, -1, (0, in_range))
        scope = _Scope()
        current_name = f"$cur{id(node) % 10_000}"
        scope.names[current_name] = (current, current_type)
        self.scopes.append(scope)
        self._loops.append(None)
        stepped, _st, stepped_owned = self._emit_inline_apply(
            function, [MSymbol(current_name)]
        )
        self._loops.pop()
        self.scopes.pop()
        self.emit(Op.MOVE, current, (stepped,))
        self._free_temp(stepped, stepped_owned)
        if collect:
            self.emit(Op.TENSOR_SET, target, (position, current))
            self.emit(Op.ADD, position, (position, one))
        self.emit(Op.ADD, index, (index, one))
        self.emit(Op.JUMP, -1, (head,))
        self.patch_jump(exit_at, self.here())
        for register in (index, one, in_range, count):
            self.alloc.free(register)
        if collect:
            self.alloc.free(position)
            self.alloc.free(current)
            result_type = "T" + current_type if not current_type.startswith("T") else current_type
            return target, result_type, True
        return current, current_type, True


def _bind_function_body(function: MExpr, arguments: list[MExpr]) -> MExpr:
    """Substitute arguments into a literal pure function's body (AST level)."""
    from repro.engine.patterns import substitute

    fargs = function.args
    if len(fargs) == 1:
        return _substitute_slots_ast(fargs[0], arguments)
    params = fargs[0]
    names = []
    if isinstance(params, MSymbol):
        names = [params.name]
    elif is_head(params, "List"):
        names = [p.name for p in params.args if isinstance(p, MSymbol)]
    bindings = dict(zip(names, arguments))
    return substitute(fargs[1], bindings)


def _substitute_slots_ast(body: MExpr, arguments: list[MExpr]) -> MExpr:
    if is_head(body, "Slot") and len(body.args) == 1 and isinstance(
        body.args[0], MInteger
    ):
        index = body.args[0].value
        if 1 <= index <= len(arguments):
            return arguments[index - 1]
        raise BytecodeCompilerError(f"slot #{index} cannot be filled")
    if body.is_atom():
        return body
    if is_head(body, "Function"):
        return body
    return MExprNormal(
        _substitute_slots_ast(body.head, arguments),
        [_substitute_slots_ast(a, arguments) for a in body.args],
    )


def _is_pure_candidate(node: MExpr, parameters: set[str]) -> bool:
    if node.is_atom() or head_name(node) not in _PURE_HEADS:
        return False
    if _node_size(node) < 3:
        return False
    for sub in node.subexpressions():
        if isinstance(sub, MSymbol):
            # heads of pure operations are symbols too; allow them
            if sub.name not in parameters and sub.name not in {"Pi", "E"} \
                    and sub.name not in _PURE_HEADS:
                return False
        elif not sub.is_atom() and head_name(sub) not in _PURE_HEADS:
            return False
    return True


def _assigns_any(body: MExpr, names: set[str]) -> bool:
    for node in body.subexpressions():
        if is_head(node, "Set") or is_head(node, "Increment") or is_head(
            node, "Decrement"
        ):
            target = node.args[0] if node.args else None
            if isinstance(target, MSymbol) and target.name in names:
                return True
    return False


def _node_size(node: MExpr) -> int:
    return sum(1 for _ in node.subexpressions())


def _replace_subtree(tree: MExpr, target: MExpr, replacement: MExpr) -> MExpr:
    if tree == target:
        return replacement
    if tree.is_atom():
        return tree
    return MExprNormal(
        _replace_subtree(tree.head, target, replacement),
        [_replace_subtree(a, target, replacement) for a in tree.args],
    )
