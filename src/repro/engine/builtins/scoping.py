"""Scoping constructs: ``Module``, ``Block``, ``With`` (§2.1, §4.2).

Each has slightly different semantics, which the compiler's binding analysis
mirrors:

* ``Module`` — lexical scoping by renaming: variables get a unique
  ``name$nnn`` alias bound in the global table;
* ``Block`` — dynamic scoping: the symbol's global definition is saved,
  shadowed for the body, and restored;
* ``With`` — constant substitution into the (held) body.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.attributes import HOLD_ALL
from repro.engine.builtins.support import builtin
from repro.engine.patterns import substitute
from repro.errors import WolframEvaluationError
from repro.mexpr.atoms import MSymbol
from repro.mexpr.expr import MExpr
from repro.mexpr.symbols import is_head


def _parse_variable_specs(spec: MExpr):
    """Split ``{a, b = 1, ...}`` into [(name, initializer-or-None)]."""
    if not is_head(spec, "List"):
        raise WolframEvaluationError("scoping construct expects a variable list")
    out: list[tuple[str, MExpr | None]] = []
    for item in spec.args:
        if isinstance(item, MSymbol):
            out.append((item.name, None))
        elif is_head(item, "Set") and len(item.args) == 2 and isinstance(
            item.args[0], MSymbol
        ):
            out.append((item.args[0].name, item.args[1]))
        else:
            raise WolframEvaluationError(f"bad scoped variable {item}")
    return out


@builtin("Module", HOLD_ALL)
def module(evaluator, expression):
    if len(expression.args) != 2:
        return None
    specs = _parse_variable_specs(expression.args[0])
    body = expression.args[1]
    # initializers are evaluated in the *enclosing* scope, before any
    # renaming takes effect (so Module[{x = x + 1}, x] sees the outer x)
    initial_values = [
        evaluator.evaluate(initializer) if initializer is not None else None
        for _name, initializer in specs
    ]
    renames: dict[str, MExpr] = {}
    fresh_names = []
    for (name, _initializer), value in zip(specs, initial_values):
        suffix = evaluator.state.fresh_module_suffix()
        fresh = f"{name}${suffix}"
        fresh_names.append(fresh)
        renames[name] = MSymbol(fresh)
        if value is not None:
            evaluator.state.set_own_value(fresh, value)
    result = evaluator.evaluate(substitute(body, renames))
    # Temporaries are cleared unless the result still references them.
    escaped = {
        node.name
        for node in result.subexpressions()
        if isinstance(node, MSymbol)
    }
    for fresh in fresh_names:
        if fresh not in escaped:
            evaluator.state.clear(fresh)
    return result


def block_symbols(evaluator, bindings: dict[str, MExpr], body: Callable[[], MExpr]):
    """Run ``body`` with symbols dynamically rebound (the Block mechanism)."""
    saved = {}
    for name, value in bindings.items():
        definition = evaluator.state.definition(name)
        saved[name] = definition.snapshot()
        definition.bind(value)
    evaluator.state.touch()
    try:
        return body()
    finally:
        for name, snapshot in saved.items():
            evaluator.state.definition(name).restore_values(snapshot)
        evaluator.state.touch()


@builtin("Block", HOLD_ALL)
def block(evaluator, expression):
    if len(expression.args) != 2:
        return None
    specs = _parse_variable_specs(expression.args[0])
    body = expression.args[1]
    bindings: dict[str, MExpr | None] = {}
    for name, initializer in specs:
        bindings[name] = (
            evaluator.evaluate(initializer) if initializer is not None else None
        )
    return block_symbols(evaluator, bindings, lambda: evaluator.evaluate(body))


@builtin("With", HOLD_ALL)
def with_(evaluator, expression):
    if len(expression.args) != 2:
        return None
    specs = _parse_variable_specs(expression.args[0])
    body = expression.args[1]
    replacements: dict[str, MExpr] = {}
    for name, initializer in specs:
        if initializer is None:
            raise WolframEvaluationError("With variables need initializers")
        replacements[name] = evaluator.evaluate(initializer)
    return evaluator.evaluate(substitute(body, replacements))


@builtin("Function", HOLD_ALL)
def function(evaluator, expression):
    return None  # inert constructor; application happens in the evaluator


@builtin("Slot")
def slot(evaluator, expression):
    return None  # inert outside Function bodies
