"""Comparison, logic, and conditionals (including short-circuit And/Or)."""

from __future__ import annotations

from repro.engine.attributes import HOLD_ALL, HOLD_REST, ORDERLESS, FLAT, ONE_IDENTITY
from repro.engine.builtins.support import as_number, builtin
from repro.mexpr.atoms import MString, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.symbols import boolean, is_false, is_head, is_true


def _compare_values(a: MExpr, b: MExpr):
    """Return -1/0/1 for orderable values, None when symbolic."""
    x, y = as_number(a), as_number(b)
    if x is not None and y is not None:
        if isinstance(x, complex) or isinstance(y, complex):
            return 0 if x == y else None
        return (x > y) - (x < y)
    if isinstance(a, MString) and isinstance(b, MString):
        return (a.value > b.value) - (a.value < b.value)
    return None


# Each comparison is one function of its evaluated arguments: the builtin
# calls it, and the evaluator step folds machine-number arguments through
# the same function (the ``fold`` of the registration).


def _equal(arguments):
    if len(arguments) < 2:
        return boolean(True)
    results = []
    for left, right in zip(arguments, arguments[1:]):
        comparison = _compare_values(left, right)
        if comparison is None:
            if left == right:
                results.append(True)
                continue
            return None  # stays symbolic: Equal[x, 1]
        results.append(comparison == 0)
    return boolean(all(results))


def _unequal(arguments):
    """``a != b != c`` means pairwise distinct: ``False`` once any two
    arguments are equal, ``True`` once every two are known to differ,
    unevaluated while a symbolic pair leaves it open."""
    if len(arguments) < 2:
        return None
    undecided = False
    for index, left in enumerate(arguments):
        for right in arguments[index + 1:]:
            same = _equal((left, right))
            if same is None:
                undecided = True
            elif is_true(same):
                return boolean(False)
    return None if undecided else boolean(True)


@builtin("Equal", fold=_equal)
def equal(evaluator, expression):
    return _equal(expression.args)


@builtin("Unequal", fold=_unequal)
def unequal(evaluator, expression):
    return _unequal(expression.args)


def _chain_comparison(name, predicate):
    def compare(arguments):
        if len(arguments) < 2:
            return boolean(True)
        for left, right in zip(arguments, arguments[1:]):
            comparison = _compare_values(left, right)
            if comparison is None:
                return None
            if not predicate(comparison):
                return boolean(False)
        return boolean(True)

    @builtin(name, fold=compare)
    def implementation(evaluator, expression):
        return compare(expression.args)

    return implementation


_chain_comparison("Less", lambda c: c < 0)
_chain_comparison("Greater", lambda c: c > 0)
_chain_comparison("LessEqual", lambda c: c <= 0)
_chain_comparison("GreaterEqual", lambda c: c >= 0)


@builtin("SameQ")
def same_q(evaluator, expression):
    args = expression.args
    return boolean(all(a == b for a, b in zip(args, args[1:])))


@builtin("UnsameQ")
def unsame_q(evaluator, expression):
    # pairwise distinct, as for Unequal: UnsameQ[1, 2, 1] is False
    args = expression.args
    return boolean(all(left != right for index, left in enumerate(args)
                       for right in args[index + 1:]))


@builtin("TrueQ")
def true_q(evaluator, expression):
    if len(expression.args) != 1:
        return None
    return boolean(is_true(expression.args[0]))


@builtin("Not")
def not_(evaluator, expression):
    if len(expression.args) != 1:
        return None
    argument = expression.args[0]
    if is_true(argument):
        return boolean(False)
    if is_false(argument):
        return boolean(True)
    if is_head(argument, "Not") and len(argument.args) == 1:
        return argument.args[0]
    return None


@builtin("And", HOLD_ALL, FLAT, ONE_IDENTITY)
def and_(evaluator, expression):
    remaining: list[MExpr] = []
    for argument in expression.args:
        value = evaluator.evaluate(argument)
        if is_false(value):
            return boolean(False)
        if not is_true(value):
            remaining.append(value)
    if not remaining:
        return boolean(True)
    if len(remaining) == len(expression.args) and all(
        a == b for a, b in zip(remaining, expression.args)
    ):
        return None
    if len(remaining) == 1:
        return remaining[0]
    from repro.mexpr.symbols import S

    return MExprNormal(S.And, remaining)


@builtin("Or", HOLD_ALL, FLAT, ONE_IDENTITY)
def or_(evaluator, expression):
    remaining: list[MExpr] = []
    for argument in expression.args:
        value = evaluator.evaluate(argument)
        if is_true(value):
            return boolean(True)
        if not is_false(value):
            remaining.append(value)
    if not remaining:
        return boolean(False)
    if len(remaining) == len(expression.args) and all(
        a == b for a, b in zip(remaining, expression.args)
    ):
        return None
    if len(remaining) == 1:
        return remaining[0]
    from repro.mexpr.symbols import S

    return MExprNormal(S.Or, remaining)


@builtin("Xor", FLAT, ORDERLESS)
def xor(evaluator, expression):
    truth: list[bool] = []
    for argument in expression.args:
        if is_true(argument):
            truth.append(True)
        elif is_false(argument):
            truth.append(False)
        else:
            return None
    return boolean(sum(truth) % 2 == 1)


@builtin("If", HOLD_REST)
def if_(evaluator, expression):
    args = expression.args
    if len(args) not in (2, 3, 4):
        return None
    condition = args[0]
    if is_true(condition):
        return evaluator.evaluate(args[1])
    if is_false(condition):
        if len(args) >= 3:
            return evaluator.evaluate(args[2])
        return MSymbol("Null")
    if len(args) == 4:  # the "neither" branch
        return evaluator.evaluate(args[3])
    return None


@builtin("Which", HOLD_ALL)
def which(evaluator, expression):
    args = expression.args
    if len(args) % 2 != 0:
        return None
    for test, value in zip(args[::2], args[1::2]):
        outcome = evaluator.evaluate(test)
        if is_true(outcome):
            return evaluator.evaluate(value)
        if not is_false(outcome):
            return None  # non-boolean test: stay unevaluated
    return MSymbol("Null")


@builtin("Switch", HOLD_REST)
def switch(evaluator, expression):
    from repro.engine.patterns import match_q

    args = expression.args
    if len(args) < 3:
        return None
    subject = args[0]
    for pattern, value in zip(args[1::2], args[2::2]):
        if match_q(pattern, subject, evaluator):
            return evaluator.evaluate(value)
    return MSymbol("Null")
