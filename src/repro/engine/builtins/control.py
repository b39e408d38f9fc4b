"""Control flow, assignment, and evaluation-control builtins."""

from __future__ import annotations

import time

from repro.engine.attributes import (
    HOLD_ALL,
    HOLD_ALL_COMPLETE,
    HOLD_FIRST,
    HOLD_REST,
    ORDERLESS,
)
from repro.engine.builtins.support import as_number, builtin, number_expr
from repro.engine.controlflow import (
    BreakSignal,
    ContinueSignal,
    ReturnSignal,
    ThrowSignal,
)
from repro.engine.builtins.scoping import block_symbols
from repro.engine.definitions import (
    _PATTERN_HEADS,
    DownValue,
    _literal_weight,
)
from repro.errors import (
    WolframAbort,
    WolframBudgetError,
    WolframEvaluationError,
    WolframTimeoutError,
)
from repro.mexpr.atoms import MInteger, MReal, MString, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.symbols import S, head_name, is_false, is_head, is_true
from repro.runtime.guard import charge_memory


@builtin("CompoundExpression", HOLD_ALL)
def compound_expression(evaluator, expression):
    result: MExpr = MSymbol("Null")
    for argument in expression.args:
        result = evaluator.evaluate(argument)
    return result


@builtin("While", HOLD_ALL)
def while_(evaluator, expression):
    args = expression.args
    if len(args) not in (1, 2):
        return None
    condition = args[0]
    body = args[1] if len(args) == 2 else MSymbol("Null")
    while True:
        outcome = evaluator.evaluate(condition)
        if not is_true(outcome):
            if is_false(outcome):
                break
            raise WolframEvaluationError(
                f"While: condition {outcome} is not True or False"
            )
        try:
            evaluator.evaluate(body)
        except BreakSignal:
            break
        except ContinueSignal:
            continue
    return MSymbol("Null")


@builtin("For", HOLD_ALL)
def for_(evaluator, expression):
    args = expression.args
    if len(args) not in (3, 4):
        return None
    start, test, increment = args[0], args[1], args[2]
    body = args[3] if len(args) == 4 else MSymbol("Null")
    evaluator.evaluate(start)
    while is_true(evaluator.evaluate(test)):
        try:
            evaluator.evaluate(body)
        except BreakSignal:
            break
        except ContinueSignal:
            pass
        evaluator.evaluate(increment)
    return MSymbol("Null")


def iteration_values(evaluator, spec: MExpr):
    """Expand a Do/Table/Sum iterator spec into (name | None, values).

    ``values`` is iterated once.  A range is generated lazily — the body
    runs for ``{i, 1, 10^12}`` as soon as the loop starts — but its length
    is known first, so the nominal memory cost is charged against the
    active :class:`~repro.runtime.guard.ExecutionGuard` *up front*:
    ``MemoryConstrained`` trips on a runaway ``Table``/``Do`` range before
    a single element is allocated.
    """
    if not is_head(spec, "List"):
        count = as_number(evaluator.evaluate(spec))
        if not isinstance(count, int):
            raise WolframEvaluationError(f"bad iterator specification {spec}")
        return None, _range_values(evaluator, 1, count, 1)
    parts = spec.args
    if len(parts) == 1:
        count = as_number(evaluator.evaluate(parts[0]))
        if not isinstance(count, int):
            raise WolframEvaluationError(f"bad iterator specification {spec}")
        return None, _range_values(evaluator, 1, count, 1)
    name = parts[0]
    if not isinstance(name, MSymbol):
        raise WolframEvaluationError("iterator variable must be a symbol")
    bounds = [as_number(evaluator.evaluate(p)) for p in parts[1:]]
    if any(b is None for b in bounds):
        # iterate over an explicit list: {i, {a, b, c}}
        if len(parts) == 2:
            values = evaluator.evaluate(parts[1])
            if is_head(values, "List"):
                charge_memory(16 * len(values.args))
                return name.name, list(values.args)
        raise WolframEvaluationError(f"bad iterator specification {spec}")
    if len(bounds) == 1:
        start, stop, step = 1, bounds[0], 1
    elif len(bounds) == 2:
        start, stop, step = bounds[0], bounds[1], 1
    else:
        start, stop, step = bounds[0], bounds[1], bounds[2]
    return name.name, _range_values(evaluator, start, stop, step)


def _range_values(evaluator, start, stop, step):
    """Validate and charge for a range now; hand back its lazy values."""
    if step == 0:
        raise WolframEvaluationError("iterator step must be nonzero")
    if all(isinstance(b, int) for b in (start, stop, step)):
        count = max(0, (stop - start) // step + 1)
    else:
        count = max(0, int((stop - start) / step + 1e-9) + 1)
    charge_memory(16 * count)
    return _generate_range(evaluator, start, step, count)


def _generate_range(evaluator, start, step, count):
    # ``start + index * step`` is the integer walk and the real one alike;
    # every 4096th value is a checkpoint of its own, as when ranges were
    # lists, so a step budget is charged the same for a long range
    for index in range(count):
        yield number_expr(start + index * step)
        if (index + 1) & 4095 == 0:
            evaluator._check_abort()


@builtin("Do", HOLD_ALL)
def do(evaluator, expression):
    args = expression.args
    if len(args) < 2:
        return None
    body = args[0]
    return _iterate_nested(evaluator, body, list(args[1:]), collect=False)


_EXHAUSTED = object()


def _iterate_nested(evaluator, body, specs, collect: bool):
    if not specs:
        return evaluator.evaluate(body)
    name, values = iteration_values(evaluator, specs[0])
    rest = specs[1:]
    results = []

    def run_once():
        try:
            if rest:
                item = _iterate_nested(evaluator, body, rest, collect)
            else:
                item = evaluator.evaluate(body)
        except ContinueSignal:
            item = MSymbol("Null")
        if collect:
            results.append(item)

    def run_bound():
        # the iterator symbol is Block-ed once around the whole loop, by
        # the caller; each further value rebinds it in place.  The
        # ``touch`` per value stays: ``Table[f[k], {k, {k, 2}}]`` binds
        # ``k`` to the *symbol* ``k``, so an ``f[k]`` stamped as evaluated
        # under one value must not read as evaluated under the next.
        run_once()
        definition = evaluator.state.definition(name)
        for value in values:
            definition.bind(value)
            evaluator.state.touch()
            run_once()

    try:
        if name is None:
            for _ in values:
                run_once()
        else:
            values = iter(values)
            first = next(values, _EXHAUSTED)
            if first is not _EXHAUSTED:  # an empty range binds nothing
                block_symbols(evaluator, {name: first}, run_bound)
    except BreakSignal:
        pass
    if collect:
        return MExprNormal(S.List, results)
    return MSymbol("Null")


@builtin("Table", HOLD_ALL)
def table(evaluator, expression):
    args = expression.args
    if len(args) < 2:
        return None
    return _iterate_nested(evaluator, args[0], list(args[1:]), collect=True)


@builtin("Sum", HOLD_ALL)
def sum_(evaluator, expression):
    args = expression.args
    if len(args) < 2:
        return None
    items = _iterate_nested(evaluator, args[0], list(args[1:]), collect=True)
    return evaluator.evaluate(MExprNormal(S.Total, [items]))


@builtin("Product", HOLD_ALL)
def product(evaluator, expression):
    args = expression.args
    if len(args) < 2:
        return None
    items = _iterate_nested(evaluator, args[0], list(args[1:]), collect=True)
    return evaluator.evaluate(MExprNormal(S.Times, list(items.args)))


# -- assignment ---------------------------------------------------------------


@builtin("Set", HOLD_FIRST)
def set_(evaluator, expression):
    if len(expression.args) != 2:
        return None
    lhs, rhs = expression.args
    value = evaluator.evaluate(rhs)
    return _assign(evaluator, lhs, value, delayed=False)


@builtin("SetDelayed", HOLD_ALL)
def set_delayed(evaluator, expression):
    if len(expression.args) != 2:
        return None
    lhs, rhs = expression.args
    _assign(evaluator, lhs, rhs, delayed=True)
    return MSymbol("Null")


def _assign(evaluator, lhs: MExpr, value: MExpr, delayed: bool):
    if isinstance(lhs, MSymbol):
        evaluator.state.set_own_value(lhs.name, value)
        return MSymbol("Null") if delayed else value
    if is_head(lhs, "Part"):
        return _assign_part(evaluator, lhs, value)
    if is_head(lhs, "List"):
        # parallel assignment {a, b} = {1, 2}
        rhs_items = value.args if is_head(value, "List") else None
        if rhs_items is not None and len(rhs_items) == len(lhs.args):
            for target, item in zip(lhs.args, rhs_items):
                _assign(evaluator, target, item, delayed)
            return value
        raise WolframEvaluationError(
            f"shapes do not match in assignment to {lhs}"
        )
    owner = lhs
    while owner.args and (
        is_head(owner, "Condition") or is_head(owner, "HoldPattern")
    ):
        owner = owner.args[0]  # f[x_] /; x > 0 is a rule for f
    if not owner.is_atom() and isinstance(owner.head, MSymbol):
        evaluator.state.add_down_value(
            owner.head.name,
            DownValue(lhs=_call_form(evaluator, lhs), rhs=value,
                      delayed=delayed),
        )
        return MSymbol("Null") if delayed else value
    raise WolframEvaluationError(f"cannot assign to {lhs}")


#: atoms evaluation leaves as they are
_INERT = frozenset({MInteger, MReal, MString})


def _call_form(evaluator, lhs: MExpr) -> MExpr:
    """``lhs`` as a call of its head presents it to the rules: each
    argument the head's ``Hold*`` attributes leave free evaluated unless it
    holds a pattern construct, and a pattern-free ``Orderless`` lhs in
    canonical order — rules match by position, so a pattern keeps the
    place it was written in.  A pattern construct as the lhs
    (``f[x_] /; x > 0``) is as it stands."""
    args = lhs.args
    if len(args) < 2 and (not args or type(args[0]) in _INERT):
        return lhs  # a memo write: nothing to evaluate or to order
    if lhs.head.name in _PATTERN_HEADS:
        return lhs
    attributes = evaluator._attributes_of(lhs.head)
    if HOLD_ALL in attributes or HOLD_ALL_COMPLETE in attributes:
        free = range(0)
    else:
        free = range(HOLD_FIRST in attributes,
                     1 if HOLD_REST in attributes else len(args))
    args = list(args)
    literal = True
    for position, argument in enumerate(args):
        if type(argument) in _INERT:
            continue
        if isinstance(argument, MExprNormal) and (
            _literal_weight(argument) is None
        ):
            literal = False
        elif position in free:
            args[position] = evaluator.evaluate(argument)
    if literal and ORDERLESS in attributes:
        from repro.engine.evaluator import canonical_order_key

        args.sort(key=canonical_order_key)
    if all(new is old for new, old in zip(args, lhs.args)):
        return lhs
    return MExprNormal(lhs.head, args)


def _assign_part(evaluator, lhs: MExpr, value: MExpr):
    """``a[[i, j, ...]] = v``: rebuild the stored value with the part replaced.

    Mutation rebinds the symbol only — other references keep the old data,
    which is exactly the mutability semantics of §3 (F5).
    """
    target = lhs.args[0]
    if not isinstance(target, MSymbol):
        raise WolframEvaluationError("Part assignment target must be a symbol")
    definition = evaluator.state.lookup(target.name)
    if definition is None or not definition.has_own_value:
        raise WolframEvaluationError(f"{target.name} has no value to mutate")
    indices = []
    for index_expr in lhs.args[1:]:
        index = as_number(evaluator.evaluate(index_expr))
        if not isinstance(index, int):
            raise WolframEvaluationError("Part index must be an integer")
        indices.append(index)
    new_value = _replace_part(definition.own_value, indices, value)
    evaluator.state.set_own_value(target.name, new_value)
    return value


def _replace_part(container: MExpr, indices: list[int], value: MExpr) -> MExpr:
    if not indices:
        return value
    if container.is_atom():
        raise WolframEvaluationError("Part assignment into an atom")
    index = indices[0]
    length = len(container.args)
    if index < 0:
        index = length + index + 1
    if not 1 <= index <= length:
        raise WolframEvaluationError(f"part {indices[0]} does not exist")
    new_args = list(container.args)
    new_args[index - 1] = _replace_part(new_args[index - 1], indices[1:], value)
    return MExprNormal(container.head, new_args)


def _make_increment(name, arity, delta_expr_builder, returns_old):
    @builtin(name, HOLD_FIRST)
    def implementation(evaluator, expression, _arity=arity,
                       _build=delta_expr_builder, _old=returns_old):
        if len(expression.args) != _arity:
            return None
        target = expression.args[0]
        old_value = evaluator.evaluate(target)
        new_value = evaluator.evaluate(_build(old_value, expression.args[1:]))
        _assign(evaluator, target, new_value, delayed=False)
        return old_value if _old else new_value

    return implementation


_make_increment(
    "Increment", 1, lambda old, extra: MExprNormal(S.Plus, [old, MInteger(1)]), True
)
_make_increment(
    "Decrement", 1, lambda old, extra: MExprNormal(S.Plus, [old, MInteger(-1)]), True
)
_make_increment(
    "PreIncrement", 1, lambda old, extra: MExprNormal(S.Plus, [old, MInteger(1)]), False
)
_make_increment(
    "PreDecrement", 1, lambda old, extra: MExprNormal(S.Plus, [old, MInteger(-1)]), False
)
_make_increment(
    "AddTo", 2, lambda old, extra: MExprNormal(S.Plus, [old, extra[0]]), False
)
_make_increment(
    "SubtractFrom", 2,
    lambda old, extra: MExprNormal(
        S.Plus, [old, MExprNormal(S.Times, [MInteger(-1), extra[0]])]
    ),
    False,
)
_make_increment(
    "TimesBy", 2, lambda old, extra: MExprNormal(S.Times, [old, extra[0]]), False
)
_make_increment(
    "DivideBy", 2,
    lambda old, extra: MExprNormal(
        S.Times, [old, MExprNormal(S.Power, [extra[0], MInteger(-1)])]
    ),
    False,
)


@builtin("Clear", HOLD_ALL)
def clear(evaluator, expression):
    for argument in expression.args:
        if isinstance(argument, MSymbol):
            evaluator.state.clear(argument.name)
    return MSymbol("Null")


@builtin("ClearAll", HOLD_ALL)
def clear_all(evaluator, expression):
    for argument in expression.args:
        if isinstance(argument, MSymbol):
            evaluator.state.clear(argument.name)
            evaluator.state.set_attributes(argument.name, frozenset())
    return MSymbol("Null")


@builtin("SetAttributes", HOLD_FIRST)
def set_attributes(evaluator, expression):
    if len(expression.args) != 2:
        return None
    target, attributes = expression.args
    if not isinstance(target, MSymbol):
        return None
    names = []
    if isinstance(attributes, MSymbol):
        names = [attributes.name]
    elif is_head(attributes, "List"):
        names = [a.name for a in attributes.args if isinstance(a, MSymbol)]
    definition = evaluator.state.definition(target.name)
    evaluator.state.set_attributes(
        target.name, definition.attributes | frozenset(names)
    )
    return MSymbol("Null")


@builtin("Attributes", HOLD_ALL)
def attributes_(evaluator, expression):
    if len(expression.args) != 1 or not isinstance(expression.args[0], MSymbol):
        return None
    attrs = evaluator._attributes_of(expression.args[0])
    return MExprNormal(S.List, [MSymbol(a) for a in sorted(attrs)])


# -- non-local control --------------------------------------------------------


@builtin("Return")
def return_(evaluator, expression):
    value = expression.args[0] if expression.args else MSymbol("Null")
    raise ReturnSignal(value)


@builtin("Break")
def break_(evaluator, expression):
    raise BreakSignal()


@builtin("Continue")
def continue_(evaluator, expression):
    raise ContinueSignal()


@builtin("Throw")
def throw(evaluator, expression):
    if not expression.args:
        return None
    tag = expression.args[1] if len(expression.args) > 1 else None
    raise ThrowSignal(expression.args[0], tag)


@builtin("Catch", HOLD_ALL)
def catch(evaluator, expression):
    if not expression.args:
        return None
    try:
        return evaluator.evaluate(expression.args[0])
    except ThrowSignal as signal:
        if len(expression.args) >= 2:
            from repro.engine.patterns import match_q

            tag = signal.tag if signal.tag is not None else MSymbol("None")
            if not match_q(expression.args[1], tag, evaluator):
                raise
        return signal.value


@builtin("Abort")
def abort(evaluator, expression):
    raise WolframAbort()


@builtin("CheckAbort", HOLD_ALL)
def check_abort(evaluator, expression):
    if len(expression.args) != 2:
        return None
    try:
        return evaluator.evaluate(expression.args[0])
    except WolframAbort:
        evaluator.clear_abort()
        return evaluator.evaluate(expression.args[1])


# -- guarded execution (TimeConstrained / MemoryConstrained) ------------------


def _constrained(evaluator, expression, guard, error_class):
    """Evaluate ``expression.args[0]`` under ``guard``.

    Returns the value, the third-argument fail expression, or ``$Aborted``.
    Expiries belonging to an *enclosing* guard re-raise so the outer
    ``TimeConstrained``/``MemoryConstrained`` handles its own deadline.
    """
    from repro.runtime.guard import guard_scope

    try:
        with guard_scope(guard):
            return evaluator.evaluate(expression.args[0])
    except error_class as error:
        if getattr(error, "guard", None) is not guard:
            raise
        if len(expression.args) == 3:
            return evaluator.evaluate(expression.args[2])
        return MSymbol("$Aborted")


@builtin("TimeConstrained", HOLD_ALL)
def time_constrained(evaluator, expression):
    """``TimeConstrained[expr, t]``: evaluate with a wall-clock deadline.

    Enforced at the checkpoints of every tier — the interpreter's per-step
    poll, the VM's backward jumps, and template/compiled code's
    loop-header/prologue checks (one protocol, :mod:`repro.runtime.guard`).
    """
    if len(expression.args) not in (2, 3):
        return None
    limit = as_number(evaluator.evaluate(expression.args[1]))
    if not isinstance(limit, (int, float)) or limit <= 0:
        raise WolframEvaluationError(
            f"TimeConstrained: {expression.args[1]} is not a positive time"
        )
    from repro.runtime.guard import ExecutionGuard

    guard = ExecutionGuard.with_time_limit(float(limit), label="TimeConstrained")
    return _constrained(evaluator, expression, guard, WolframTimeoutError)


@builtin("MemoryConstrained", HOLD_ALL)
def memory_constrained(evaluator, expression):
    """``MemoryConstrained[expr, b]``: bound (accounted) allocation bytes."""
    if len(expression.args) not in (2, 3):
        return None
    limit = as_number(evaluator.evaluate(expression.args[1]))
    if not isinstance(limit, (int, float)) or limit <= 0:
        raise WolframEvaluationError(
            f"MemoryConstrained: {expression.args[1]} is not a positive "
            "byte count"
        )
    from repro.runtime.guard import ExecutionGuard

    guard = ExecutionGuard.with_memory_budget(
        int(limit), label="MemoryConstrained"
    )
    return _constrained(evaluator, expression, guard, WolframBudgetError)


# -- evaluation control -------------------------------------------------------


@builtin("Hold", HOLD_ALL)
def hold(evaluator, expression):
    return None  # inert


@builtin("HoldForm", HOLD_ALL)
def hold_form(evaluator, expression):
    return None  # inert


@builtin("HoldComplete", HOLD_ALL_COMPLETE)
def hold_complete(evaluator, expression):
    return None  # inert


@builtin("ReleaseHold")
def release_hold(evaluator, expression):
    if len(expression.args) != 1:
        return None
    held = expression.args[0]
    if head_name(held) in {"Hold", "HoldForm", "HoldComplete", "HoldPattern"}:
        if len(held.args) == 1:
            return evaluator.evaluate(held.args[0])
        return MExprNormal(S.Sequence, list(held.args))
    return held


@builtin("Identity")
def identity(evaluator, expression):
    if len(expression.args) != 1:
        return None
    return expression.args[0]


@builtin("Print")
def print_(evaluator, expression):
    from repro.mexpr.printer import input_form

    pieces = []
    for argument in expression.args:
        if isinstance(argument, MString):
            pieces.append(argument.value)
        else:
            pieces.append(input_form(argument))
    print("".join(pieces))
    return MSymbol("Null")


@builtin("AbsoluteTiming", HOLD_ALL)
def absolute_timing(evaluator, expression):
    if len(expression.args) != 1:
        return None
    start = time.perf_counter()
    result = evaluator.evaluate(expression.args[0])
    elapsed = time.perf_counter() - start
    return MExprNormal(S.List, [MReal(elapsed), result])


@builtin("Timing", HOLD_ALL)
def timing(evaluator, expression):
    return absolute_timing(evaluator, expression)


@builtin("ToExpression")
def to_expression(evaluator, expression):
    if len(expression.args) != 1 or not isinstance(expression.args[0], MString):
        return None
    from repro.mexpr.parser import parse

    return evaluator.evaluate(parse(expression.args[0].value))
