"""The template stitcher: one linear pass from MExpr to a Python callable.

The compile path is deliberately primitive — that is the entire design:

1. walk the body once, bottom-up, filling the pre-generated source
   stencils from :mod:`repro.template_jit.templates` with operand
   expressions;
2. number slots (``_s0``, ``_s1``, ...) for parameters and scoped locals —
   no register allocation beyond the counter;
3. ``compile()`` the stitched source and ``exec`` it against the template
   runtime globals.

There is no optimization pipeline, no CSE, no type inference beyond a
one-pass "both operands statically integer" kind propagation that selects
the overflow-checked arithmetic stencils.  Anything outside the stencil
table raises :class:`~repro.errors.TemplateCompilerError`.

Contract parity with ``FunctionCompile`` artifacts:

* the stitched function carries the checkpoint stencil
  (``if _armed[0]: _checkpoint()``, see :mod:`repro.runtime.guard`) in its
  prologue and at every loop header — the same abort/guard cadence
  compiled code gets — so ``TimeConstrained``/abort work unchanged;
* self-recursion stitches to a direct ``_self(...)`` call (the bytecode VM
  cannot do this).

Observability: every compilation runs under a ``template.compile`` span
carrying the symbol name and stitched line count.
"""

from __future__ import annotations

import math
import time
from functools import partial
from typing import Optional

from repro import observe as _observe
from repro.errors import TemplateCompilerError
from repro.mexpr.atoms import MComplex, MInteger, MReal, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.runtime.guard import checkpoint
from repro.template_jit import analysis as _analysis
from repro.template_jit import templates as _t
from repro.template_jit.artifact import TemplateCompiledFunction

#: the loop-header/prologue stencil: one test of the checkpoint word, the
#: shared slow path (bound to the host's abort flag) only when it is armed
_CHECKPOINT = "if _armed[0]: _checkpoint()"

#: statement-form heads `stmt` lowers structurally
_STATEMENT_HEADS = frozenset({
    "CompoundExpression", "Module", "Block", "With", "While", "Do", "For",
    "Set", "If", "Increment", "Decrement", "PreIncrement", "PreDecrement",
    "AddTo", "SubtractFrom", "TimesBy", "DivideBy", "Return", "Break",
    "Continue",
})

#: compound-assignment heads rewritten to ``Set[lhs, Head[lhs, rhs]]``
_AUGMENTED = {
    "Increment": "Plus", "PreIncrement": "Plus",
    "Decrement": "Subtract", "PreDecrement": "Subtract",
    "AddTo": "Plus", "SubtractFrom": "Subtract",
    "TimesBy": "Times", "DivideBy": "Divide",
}

#: unary math heads whose machine result is integer-kind
_UNARY_INT_RESULT = frozenset({"Floor", "Ceiling", "Round", "Sign"})

_KIND_FOR_TYPE = {"i": "i", "r": "r", "c": "c", "b": "b"}


def _head_name(node: MExpr) -> Optional[str]:
    head = node.head
    return head.name if isinstance(head, MSymbol) else None


class TemplateCompiler:
    """Stitches one function body; single use, single pass."""

    def __init__(self, name: str, parameters, type_chars, body: MExpr,
                 unchecked: Optional[_analysis.UncheckedMask] = None):
        self.name = name
        self.parameters = list(parameters)
        self.type_chars = list(type_chars)
        self.body = body
        self._counter = 0
        self._scopes: list[dict[str, str]] = [{}]
        self._slot_kinds: dict[str, str] = {}
        self._lines: list[str] = []
        #: interval-proven overflow-free ops (checked/unchecked mask)
        self._unchecked = unchecked or _analysis.EMPTY_MASK

    # -- slots and scopes --------------------------------------------------

    def _fresh_slot(self) -> str:
        slot = f"_s{self._counter}"
        self._counter += 1
        return slot

    def _bind(self, name: str, kind: str) -> str:
        slot = self._fresh_slot()
        self._scopes[-1][name] = slot
        self._slot_kinds[slot] = kind
        return slot

    def _lookup(self, name: str) -> str:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        raise TemplateCompilerError(f"unbound symbol {name}")

    def _note_assignment(self, slot: str, kind: str) -> None:
        """Single-pass kind widening: once a slot sees a non-integer value
        it stops selecting checked-integer stencils."""
        previous = self._slot_kinds.get(slot)
        if previous is None:
            self._slot_kinds[slot] = kind
        elif previous != kind:
            self._slot_kinds[slot] = "i" if previous == kind == "i" else "r"

    def _emit(self, indent: int, text: str) -> None:
        self._lines.append("    " * indent + text)

    # -- expressions -------------------------------------------------------

    def expr(self, node: MExpr) -> tuple[str, str]:
        """Stitch one expression; returns ``(source, kind)``."""
        if isinstance(node, MInteger):
            return repr(node.value), "i"
        if isinstance(node, MReal):
            value = node.value
            if not math.isfinite(value):
                raise TemplateCompilerError("non-finite real literal")
            return repr(value), "r"
        if isinstance(node, MComplex):
            z = node.value
            return f"complex({z.real!r}, {z.imag!r})", "c"
        if isinstance(node, MSymbol):
            if node.name == "True":
                return "True", "b"
            if node.name == "False":
                return "False", "b"
            if node.name == "Null":
                return "None", "r"
            slot = self._lookup(node.name)
            return slot, self._slot_kinds.get(slot, "r")
        if node.is_atom():
            raise TemplateCompilerError(f"unsupported literal {node!r}")

        head = _head_name(node)
        if head is None:
            raise TemplateCompilerError("non-symbol head")
        arguments = node.args

        if head == self.name:
            stitched = ", ".join(self.expr(a)[0] for a in arguments)
            return f"_self({stitched})", "r"
        if head == "If" and len(arguments) in (2, 3):
            cond, _ = self.expr(arguments[0])
            then, then_kind = self.expr(arguments[1])
            if len(arguments) == 3:
                alt, alt_kind = self.expr(arguments[2])
            else:
                alt, alt_kind = "None", "r"
            kind = then_kind if then_kind == alt_kind else "r"
            return f"({then} if {cond} else {alt})", kind
        if head == "List":
            stitched = ", ".join(self.expr(a)[0] for a in arguments)
            return f"[{stitched}]", "t"
        if head == "Part":
            if len(arguments) < 2:
                raise TemplateCompilerError("Part needs an index")
            code, _ = self.expr(arguments[0])
            for index in arguments[1:]:
                code = f"_part({code}, {self.expr(index)[0]})"
            return code, "r"
        if head == "ConstantArray" and len(arguments) == 2:
            fill, _ = self.expr(arguments[0])
            length, _ = self.expr(arguments[1])
            return f"_const_array({fill}, {length})", "t"
        if head in ("Plus", "Times", "And", "Or", "Min", "Max",
                    "BitAnd", "BitOr", "BitXor") and len(arguments) > 2:
            code, kind = self.expr(arguments[0])
            for argument in arguments[1:]:
                operand, operand_kind = self.expr(argument)
                kinds = (kind, operand_kind)
                code = self._binary(head, code, operand, kinds, node)
                kind = self._result_kind(head, kinds)
            return code, kind
        if head in _t.BINARY_TEMPLATES and len(arguments) == 2:
            left, left_kind = self.expr(arguments[0])
            right, right_kind = self.expr(arguments[1])
            kinds = (left_kind, right_kind)
            return (
                self._binary(head, left, right, kinds, node),
                self._result_kind(head, kinds),
            )
        if head in _t.UNARY_TEMPLATES and len(arguments) == 1:
            operand, operand_kind = self.expr(arguments[0])
            return (
                _t.UNARY_TEMPLATES[head].format(operand),
                self._result_kind(head, (operand_kind,)),
            )
        if head == "Subtract" and len(arguments) == 1:
            operand, operand_kind = self.expr(arguments[0])
            return f"(-{operand})", operand_kind
        raise TemplateCompilerError(f"no template for {head}")

    def _binary(self, head: str, left: str, right: str, kinds,
                node: Optional[MExpr] = None) -> str:
        if head in _t.INT_CHECKED_TEMPLATES and all(k == "i" for k in kinds):
            # the interval pre-pass proved the exact result fits
            # Integer64: the overflow trap can never fire
            if node is not None and node in self._unchecked:
                return _t.BINARY_TEMPLATES[head].format(left, right)
            return _t.INT_CHECKED_TEMPLATES[head].format(left, right)
        return _t.BINARY_TEMPLATES[head].format(left, right)

    @staticmethod
    def _result_kind(head: str, kinds) -> str:
        if head in _t._BOOLEAN_RESULT:
            return "b"
        if head in _UNARY_INT_RESULT:
            return "i"
        if head in _t._INT_PRESERVING and all(k == "i" for k in kinds):
            return "i"
        if any(k == "c" for k in kinds):
            return "c"
        if head == "Abs" and kinds == ("i",):
            return "i"
        return "r"

    # -- statements --------------------------------------------------------

    def stmt(self, node: MExpr, indent: int, result: Optional[str]) -> None:
        """Stitch one statement; assigns the node's value into ``result``
        when given (tail position), otherwise evaluates for effect."""
        head = _head_name(node) if not node.is_atom() else None
        if head == "CompoundExpression":
            if not node.args:
                if result:
                    self._emit(indent, f"{result} = None")
                return
            for argument in node.args[:-1]:
                self.stmt(argument, indent, None)
            self.stmt(node.args[-1], indent, result)
            return
        if head in ("Module", "Block", "With"):
            self._module(node, indent, result)
            return
        if head == "While":
            cond, _ = self.expr(node.args[0])
            self._emit(indent, f"while {cond}:")
            self._emit(indent + 1, _CHECKPOINT)
            if len(node.args) > 1:
                for argument in node.args[1:]:
                    self.stmt(argument, indent + 1, None)
            if result:
                self._emit(indent, f"{result} = None")
            return
        if head == "Do":
            self._do(node, indent)
            if result:
                self._emit(indent, f"{result} = None")
            return
        if head == "For":
            if len(node.args) != 4:
                raise TemplateCompilerError("For needs 4 arguments")
            init, cond_node, step, body = node.args
            self.stmt(init, indent, None)
            cond, _ = self.expr(cond_node)
            self._emit(indent, f"while {cond}:")
            self._emit(indent + 1, _CHECKPOINT)
            self.stmt(body, indent + 1, None)
            self.stmt(step, indent + 1, None)
            if result:
                self._emit(indent, f"{result} = None")
            return
        if head == "If" and len(node.args) in (2, 3):
            cond, _ = self.expr(node.args[0])
            self._emit(indent, f"if {cond}:")
            self.stmt(node.args[1], indent + 1, result)
            if len(node.args) == 3:
                self._emit(indent, "else:")
                self.stmt(node.args[2], indent + 1, result)
            elif result:
                self._emit(indent, "else:")
                self._emit(indent + 1, f"{result} = None")
            return
        if head == "Set":
            self._set(node.args[0], node.args[1], indent, result)
            return
        if head in _AUGMENTED:
            lhs = node.args[0]
            rhs = (
                node.args[1] if len(node.args) > 1
                else MInteger(1)
            )
            from repro.mexpr.symbols import S

            operation = MExprNormal(getattr(S, _AUGMENTED[head]), [lhs, rhs])
            self._set(lhs, operation, indent, result)
            return
        if head == "Return":
            value = self.expr(node.args[0])[0] if node.args else "None"
            self._emit(indent, f"return {value}")
            return
        if head == "Break":
            self._emit(indent, "break")
            return
        if head == "Continue":
            self._emit(indent, "continue")
            return
        # plain expression in statement position
        code, kind = self.expr(node)
        if result:
            self._emit(indent, f"{result} = {code}")
            self._note_assignment(result, kind)
        else:
            self._emit(indent, code)

    def _module(self, node: MExpr, indent: int, result: Optional[str]) -> None:
        if not node.args or _head_name(node.args[0]) != "List":
            raise TemplateCompilerError("Module needs a local-variable list")
        self._scopes.append({})
        try:
            for local in node.args[0].args:
                if isinstance(local, MSymbol):
                    slot = self._bind(local.name, "i")
                    self._emit(indent, f"{slot} = 0")
                    continue
                if _head_name(local) == "Set" and isinstance(
                    local.args[0], MSymbol
                ):
                    # initializer stitched *before* the local binds, so
                    # ``Module[{x = x + 1}, ...]`` sees the outer x
                    code, kind = self.expr(local.args[1])
                    slot = self._bind(local.args[0].name, kind)
                    self._emit(indent, f"{slot} = {code}")
                    continue
                raise TemplateCompilerError(f"bad Module local {local}")
            if len(node.args) == 1:
                if result:
                    self._emit(indent, f"{result} = None")
                return
            for argument in node.args[1:-1]:
                self.stmt(argument, indent, None)
            self.stmt(node.args[-1], indent, result)
        finally:
            self._scopes.pop()

    def _do(self, node: MExpr, indent: int) -> None:
        if len(node.args) != 2:
            raise TemplateCompilerError("Do needs 2 arguments")
        body, spec = node.args
        self._scopes.append({})
        try:
            if _head_name(spec) == "List" and 2 <= len(spec.args) <= 3 \
                    and isinstance(spec.args[0], MSymbol):
                if len(spec.args) == 2:
                    lower, upper = "1", self.expr(spec.args[1])[0]
                else:
                    lower = self.expr(spec.args[1])[0]
                    upper = self.expr(spec.args[2])[0]
                slot = self._bind(spec.args[0].name, "i")
            else:
                lower, upper = "1", self.expr(spec)[0]
                slot = self._fresh_slot()
            self._emit(indent, f"for {slot} in range({lower}, {upper} + 1):")
            self._emit(indent + 1, _CHECKPOINT)
            self.stmt(body, indent + 1, None)
        finally:
            self._scopes.pop()

    def _set(self, lhs: MExpr, rhs: MExpr, indent: int,
             result: Optional[str]) -> None:
        if isinstance(lhs, MSymbol):
            code, kind = self.expr(rhs)
            try:
                slot = self._lookup(lhs.name)
            except TemplateCompilerError:
                slot = self._bind(lhs.name, kind)
            else:
                self._note_assignment(slot, kind)
            self._emit(indent, f"{slot} = {code}")
            if result:
                self._emit(indent, f"{result} = {slot}")
            return
        if _head_name(lhs) == "Part" and len(lhs.args) >= 2:
            container, _ = self.expr(lhs.args[0])
            for index in lhs.args[1:-1]:
                container = f"_part({container}, {self.expr(index)[0]})"
            index = self.expr(lhs.args[-1])[0]
            value, _ = self.expr(rhs)
            self._emit(indent, f"_part_set({container}, {index}, {value})")
            if result:
                self._emit(indent, f"{result} = {value}")
            return
        raise TemplateCompilerError(f"unsupported Set target {lhs}")

    # -- entry -------------------------------------------------------------

    def compile_source(self) -> str:
        slots = [
            self._bind(name, _KIND_FOR_TYPE.get(char, "t"))
            for name, char in zip(self.parameters, self.type_chars)
        ]
        self._emit(0, f"def _tpl({', '.join(slots)}):")
        self._emit(1, _CHECKPOINT)
        self.stmt(self.body, 1, "_r")
        self._emit(1, "return _r")
        return "\n".join(self._lines) + "\n"


def compile_template(
    parameters,
    type_chars,
    body: MExpr,
    evaluator=None,
    name: str = "template",
) -> TemplateCompiledFunction:
    """Stitch, ``compile()``, and wrap one function body.

    ``type_chars`` follows the bytecode artifact convention: ``"i"``,
    ``"r"``, ``"c"``, ``"b"``, or ``"T<char>"`` for tensors (boxed into
    plain nested lists at the call boundary).
    """
    started = time.perf_counter()
    with _observe.span("template.compile", "template_jit", symbol=name):
        mask = _analysis.unchecked_mask(body)
        compiler = TemplateCompiler(name, parameters, type_chars, body,
                                    unchecked=mask)
        source = compiler.compile_source()
        code = compile(source, f"<template:{name}>", "exec")
        namespace = dict(_t.RUNTIME_GLOBALS)
        namespace["_checkpoint"] = partial(
            checkpoint,
            evaluator.abort_flag if evaluator is not None else None,
        )
        exec(code, namespace)
        function = namespace["_tpl"]
        namespace["_self"] = function
        artifact = TemplateCompiledFunction(
            name=name,
            argument_types=list(type_chars),
            argument_names=list(parameters),
            source=source,
            source_body=body,
            function=function,
            evaluator=evaluator,
        )
    artifact.compile_seconds = time.perf_counter() - started
    artifact.unchecked_bitmask = mask.bits
    artifact.unchecked_ops = len(mask)
    return artifact


def compile_template_function(
    specs: MExpr, body: MExpr, evaluator=None, name: str = "template"
) -> TemplateCompiledFunction:
    """``Compile[...]``-style entry: same argument specs the bytecode
    compiler accepts (``{{x, _Integer}, {data, _Real, 1}}``)."""
    from repro.bytecode.compiler import BytecodeCompiler

    parsed = BytecodeCompiler()._parse_argument_specs(specs)
    return compile_template(
        [n for n, _ in parsed],
        [t for _, t in parsed],
        body,
        evaluator=evaluator,
        name=name,
    )
