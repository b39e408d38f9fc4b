"""Hosting the bytecode compiler inside the interpreter (feature F1).

``Compile[{{x, _Real}}, body]`` evaluates to an inert ``CompiledFunction[k]``
expression whose payload lives in the evaluator's extension table; applying
it (``cf[1.0]``) routes through a *head applicator* the evaluator consults
for non-symbol heads.  Functions that fail to compile degrade to the
uncompiled function, as the paper specifies ("Functions that fail to
compile, or produce a runtime error, are run using the interpreter").
"""

from __future__ import annotations

from repro.engine.attributes import HOLD_ALL
from repro.engine.builtins.support import as_number, builtin
from repro.errors import BytecodeCompilerError
from repro.mexpr.atoms import MInteger, MString, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.symbols import S, is_head, to_mexpr

_TABLE_KEY = "bytecode_compiled_functions"


def _table(evaluator) -> dict:
    return evaluator.extensions.setdefault(_TABLE_KEY, {})


@builtin("Compile", HOLD_ALL)
def compile_(evaluator, expression):
    if len(expression.args) < 2:
        return None
    specs, body = expression.args[0], expression.args[1]
    from repro.bytecode.compiled_function import compile_function

    try:
        compiled = compile_function(specs, body, evaluator)
    except BytecodeCompilerError as error:
        # degrade to an interpreted Function (the paper's compile-failure path)
        evaluator.message(f"Compile: {error}; function will be interpreted")
        names = []
        for spec in specs.args if is_head(specs, "List") else []:
            if isinstance(spec, MSymbol):
                names.append(spec)
            elif is_head(spec, "List") and isinstance(spec.args[0], MSymbol):
                names.append(spec.args[0])
        return MExprNormal(
            S.Function, [MExprNormal(S.List, names), body]
        )
    table = _table(evaluator)
    handle = len(table) + 1
    table[handle] = compiled
    # the failure log names the handle ``--stats`` prints
    compiled.breaker.function = f"CompiledFunction[{handle}]"
    return MExprNormal(S.CompiledFunction, [MInteger(handle)])


def _apply_compiled(evaluator, head: MExpr, arguments: list[MExpr]):
    handle = as_number(head.args[0]) if head.args else None
    compiled = _table(evaluator).get(handle)
    if compiled is None:
        return None
    python_args = [_from_mexpr(a) for a in arguments]
    result = compiled(*python_args)
    if isinstance(result, MExpr):
        return result
    return to_mexpr(result)


def _from_mexpr(node: MExpr):
    try:
        return node.to_python()
    except ValueError:
        return node


def install_head_applicator(registry: dict) -> None:
    registry["CompiledFunction"] = _apply_compiled
