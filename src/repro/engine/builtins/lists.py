"""List and tensor builtins."""

from __future__ import annotations

import math

from repro.engine.builtins.arithmetic import add
from repro.engine.builtins.support import (
    all_numbers,
    as_number,
    builtin,
    number_expr,
)
from repro.errors import WolframEvaluationError
from repro.mexpr.atoms import MInteger
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.packed import PackedList
from repro.mexpr.symbols import S, boolean, is_head
from repro.runtime.checked import INT64_MAX, INT64_MIN
from repro.runtime.packed import PackedArray


@builtin("List")
def list_(evaluator, expression):
    return None  # inert container


@builtin("Length")
def length(evaluator, expression):
    if len(expression.args) != 1:
        return None
    return MInteger(len(expression.args[0]))  # an atom's is 0


@builtin("Part")
def part(evaluator, expression):
    if len(expression.args) < 2:
        return None
    subject = expression.args[0]
    for index_expr in expression.args[1:]:
        index = as_number(index_expr)
        if not isinstance(index, int):
            return None
        if index == 0:
            subject = subject.head
            continue
        if subject.is_atom():
            raise WolframEvaluationError(f"Part: {subject} is an atom")
        count = len(subject)
        if index < 0:
            index = count + index + 1
        if not 1 <= index <= count:
            raise WolframEvaluationError(
                f"Part: part {index} of a length-{count} expression"
            )
        subject = (
            subject.item(index - 1) if type(subject) is PackedList
            else subject.args[index - 1]
        )
    return subject


@builtin("First")
def first(evaluator, expression):
    if len(expression.args) != 1 or expression.args[0].is_atom():
        return None
    args = expression.args[0].args
    if not args:
        raise WolframEvaluationError("First: expression has no elements")
    return args[0]


@builtin("Last")
def last(evaluator, expression):
    if len(expression.args) != 1 or expression.args[0].is_atom():
        return None
    args = expression.args[0].args
    if not args:
        raise WolframEvaluationError("Last: expression has no elements")
    return args[-1]


@builtin("Rest")
def rest(evaluator, expression):
    if len(expression.args) != 1 or expression.args[0].is_atom():
        return None
    subject = expression.args[0]
    if not subject.args:
        raise WolframEvaluationError("Rest: expression has no elements")
    return MExprNormal(subject.head, subject.args[1:])


@builtin("Most")
def most(evaluator, expression):
    if len(expression.args) != 1 or expression.args[0].is_atom():
        return None
    subject = expression.args[0]
    if not subject.args:
        raise WolframEvaluationError("Most: expression has no elements")
    return MExprNormal(subject.head, subject.args[:-1])


def _take_spec(spec: MExpr):
    value = as_number(spec)
    if isinstance(value, int):
        return value
    return None


@builtin("Take")
def take(evaluator, expression):
    if len(expression.args) != 2 or expression.args[0].is_atom():
        return None
    subject, spec = expression.args
    count = _take_spec(spec)
    if count is None:
        if is_head(spec, "List"):
            bounds = [as_number(b) for b in spec.args]
            if len(bounds) == 2 and all(isinstance(b, int) for b in bounds):
                lo, hi = bounds
                items = subject.args
                lo = lo if lo > 0 else len(items) + lo + 1
                hi = hi if hi > 0 else len(items) + hi + 1
                return MExprNormal(subject.head, items[lo - 1 : hi])
        return None
    items = subject.args
    if count >= 0:
        return MExprNormal(subject.head, items[:count])
    return MExprNormal(subject.head, items[count:])


@builtin("Drop")
def drop(evaluator, expression):
    if len(expression.args) != 2 or expression.args[0].is_atom():
        return None
    subject, spec = expression.args
    count = _take_spec(spec)
    if count is None:
        return None
    items = subject.args
    if count >= 0:
        return MExprNormal(subject.head, items[count:])
    return MExprNormal(subject.head, items[:count])


@builtin("Append")
def append(evaluator, expression):
    if len(expression.args) != 2 or expression.args[0].is_atom():
        return None
    subject, item = expression.args
    return MExprNormal(subject.head, (*subject.args, item))


@builtin("Prepend")
def prepend(evaluator, expression):
    if len(expression.args) != 2 or expression.args[0].is_atom():
        return None
    subject, item = expression.args
    return MExprNormal(subject.head, (item, *subject.args))


@builtin("AppendTo", "HoldFirst", writes=True)
def append_to(evaluator, expression):
    if len(expression.args) != 2:
        return None
    target, item = expression.args
    from repro.engine.builtins.control import _assign

    current = evaluator.evaluate(target)
    if current.is_atom():
        raise WolframEvaluationError("AppendTo: value is not a list")
    new_value = MExprNormal(current.head, (*current.args, item))
    _assign(evaluator, target, new_value, delayed=False)
    return new_value


@builtin("PrependTo", "HoldFirst", writes=True)
def prepend_to(evaluator, expression):
    if len(expression.args) != 2:
        return None
    target, item = expression.args
    from repro.engine.builtins.control import _assign

    current = evaluator.evaluate(target)
    if current.is_atom():
        raise WolframEvaluationError("PrependTo: value is not a list")
    new_value = MExprNormal(current.head, (item, *current.args))
    _assign(evaluator, target, new_value, delayed=False)
    return new_value


@builtin("Join")
def join(evaluator, expression):
    if not expression.args:
        return None
    head = None
    items: list[MExpr] = []
    for argument in expression.args:
        if argument.is_atom():
            return None
        if head is None:
            head = argument.head
        items.extend(argument.args)
    return MExprNormal(head, items)


@builtin("Range")
def range_(evaluator, expression):
    bounds = all_numbers(expression.args)
    if bounds is None or not 1 <= len(bounds) <= 3:
        return None
    if len(bounds) == 1:
        start, stop, step = 1, bounds[0], 1
    elif len(bounds) == 2:
        start, stop, step = bounds[0], bounds[1], 1
    else:
        start, stop, step = bounds
    if step == 0:
        return None
    exact = type(start) is int and type(step) is int
    if exact and type(stop) is int:
        count = max(0, (stop - start) // step + 1)
    else:
        count = max(int((stop - start) / step + 1e-9) + 1, 0)
    # one buffer, charged for before it is made; elements past int64 are
    # bignum atoms, as in the Engine
    if not exact:
        evaluator.charge_unwalked(count, count + 1)
        return PackedList(PackedArray(
            [start + index * step for index in range(count)], (count,),
            "Real64"))
    values = range(start, start + count * step, step)
    if values and not (INT64_MIN <= min(values[0], values[-1])
                       and max(values[0], values[-1]) <= INT64_MAX):
        return MExprNormal(S.List, list(map(MInteger, values)))
    evaluator.charge_unwalked(count, count + 1)
    return PackedList(PackedArray(list(values), (count,), "Integer64"))


@builtin("Reverse")
def reverse(evaluator, expression):
    if len(expression.args) != 1 or expression.args[0].is_atom():
        return None
    subject = expression.args[0]
    return MExprNormal(subject.head, tuple(reversed(subject.args)))


@builtin("Sort")
def sort(evaluator, expression):
    from repro.engine.evaluator import canonical_order_key
    from repro.engine.builtins.functional import call
    from repro.mexpr.symbols import is_true

    if len(expression.args) == 1:
        subject = expression.args[0]
        if subject.is_atom():
            return None
        return MExprNormal(subject.head, sorted(subject.args, key=canonical_order_key))
    if len(expression.args) == 2:
        subject, comparator = expression.args
        if subject.is_atom():
            return None
        import functools

        def compare(a, b):
            return -1 if is_true(call(evaluator, comparator, a, b)) else 1

        ordered = sorted(subject.args, key=functools.cmp_to_key(compare))
        return MExprNormal(subject.head, ordered)
    return None


@builtin("SortBy")
def sort_by(evaluator, expression):
    from repro.engine.evaluator import canonical_order_key
    from repro.engine.builtins.functional import call

    if len(expression.args) != 2 or expression.args[0].is_atom():
        return None
    subject, key_function = expression.args
    ordered = sorted(
        subject.args,
        key=lambda item: canonical_order_key(call(evaluator, key_function, item)),
    )
    return MExprNormal(subject.head, ordered)


@builtin("Count")
def count(evaluator, expression):
    from repro.engine.patterns import match_q

    if len(expression.args) != 2 or expression.args[0].is_atom():
        return None
    subject, pattern = expression.args
    return MInteger(
        sum(1 for item in subject.args if match_q(pattern, item, evaluator))
    )


@builtin("MemberQ")
def member_q(evaluator, expression):
    from repro.engine.patterns import match_q

    if len(expression.args) != 2 or expression.args[0].is_atom():
        return None
    subject, pattern = expression.args
    return boolean(any(match_q(pattern, item, evaluator) for item in subject.args))


@builtin("FreeQ")
def free_q(evaluator, expression):
    from repro.engine.patterns import match_q

    if len(expression.args) != 2:
        return None
    subject, pattern = expression.args
    found = any(
        match_q(pattern, node, evaluator) for node in subject.subexpressions()
    )
    return boolean(not found)


@builtin("Flatten")
def flatten(evaluator, expression):
    if not expression.args or expression.args[0].is_atom():
        return None
    subject = expression.args[0]
    levels = None
    if len(expression.args) == 2:
        levels = as_number(expression.args[1])
        if not isinstance(levels, int):
            return None

    def walk(node: MExpr, depth) -> list[MExpr]:
        out: list[MExpr] = []
        for item in node.args:
            if is_head(item, "List") and (depth is None or depth > 0):
                out.extend(walk(item, None if depth is None else depth - 1))
            else:
                out.append(item)
        return out

    return MExprNormal(subject.head, walk(subject, levels))


@builtin("Partition")
def partition(evaluator, expression):
    if len(expression.args) not in (2, 3) or expression.args[0].is_atom():
        return None
    subject = expression.args[0]
    size = as_number(expression.args[1])
    offset = (
        as_number(expression.args[2]) if len(expression.args) == 3 else size
    )
    if not isinstance(size, int) or not isinstance(offset, int) or offset <= 0:
        return None
    items = subject.args
    chunks = []
    index = 0
    while index + size <= len(items):
        chunks.append(MExprNormal(S.List, items[index : index + size]))
        index += offset
    return MExprNormal(S.List, chunks)


@builtin("Transpose")
def transpose(evaluator, expression):
    if len(expression.args) != 1 or not is_head(expression.args[0], "List"):
        return None
    rows = expression.args[0].args
    if not rows or not all(is_head(r, "List") for r in rows):
        return None
    width = len(rows[0].args)
    if any(len(r.args) != width for r in rows):
        return None
    columns = [
        MExprNormal(S.List, [row.args[j] for row in rows]) for j in range(width)
    ]
    return MExprNormal(S.List, columns)


@builtin("Dot", "Flat", "OneIdentity")
def dot(evaluator, expression):
    if len(expression.args) < 2:
        return None
    try:
        current = _to_nested_numbers(expression.args[0])
        for argument in expression.args[1:]:
            from repro.runtime.blas import dot_nested

            current = dot_nested(current, _to_nested_numbers(argument))
    except (ValueError, TypeError):
        return None
    from repro.mexpr.symbols import to_mexpr

    return to_mexpr(current)


def _to_nested_numbers(node: MExpr):
    if type(node) is PackedList:
        return node.array.to_numpy()
    if is_head(node, "List"):
        return [_to_nested_numbers(a) for a in node.args]
    value = as_number(node)
    if value is None:
        raise ValueError("not numeric")
    return value


@builtin("ConstantArray")
def constant_array(evaluator, expression):
    if len(expression.args) != 2:
        return None
    value, shape = expression.args
    if is_head(shape, "List"):
        dims = [as_number(d) for d in shape.args]
        if not all(isinstance(d, int) for d in dims):
            return None
    else:
        dim = as_number(shape)
        if not isinstance(dim, int):
            return None
        dims = [dim]

    def build(level: int) -> MExpr:
        if level == len(dims):
            return value
        return MExprNormal(S.List, [build(level + 1) for _ in range(dims[level])])

    return build(0)


@builtin("IdentityMatrix")
def identity_matrix(evaluator, expression):
    if len(expression.args) != 1:
        return None
    size = as_number(expression.args[0])
    if not isinstance(size, int) or size <= 0:
        return None
    rows = [
        MExprNormal(S.List, [MInteger(1 if i == j else 0) for j in range(size)])
        for i in range(size)
    ]
    return MExprNormal(S.List, rows)


@builtin("Total")
def total(evaluator, expression):
    """``Total[list]``, and ``Total[list, n]``: the sum of the elements
    down to level ``n`` (a positive integer or ``Infinity``)."""
    args = expression.args
    if not 1 <= len(args) <= 2 or not is_head(args[0], "List"):
        return None
    levels = 1
    if len(args) == 2:
        if type(args[1]) is MInteger and args[1].value >= 1:
            levels = args[1].value
        elif args[1] == S.Infinity:
            levels = math.inf
        else:
            return None
    subject = args[0]
    if type(subject) is PackedList and levels >= len(subject.array.dims):
        result = _total_packed(evaluator, subject.array)
        if result is not None:
            return result
    items = list(subject.args)
    while levels > 1 and any(is_head(item, "List") for item in items):
        items = [leaf for item in items
                 for leaf in (item.args if is_head(item, "List") else [item])]
        levels -= 1
    return evaluator.evaluate(MExprNormal(S.Plus, items))


def _total_packed(evaluator, array: PackedArray):
    """``Plus`` of every element, as its fold would take them: in canonical
    order (by value) when three or more reals are summed, else as they
    stand, one ``add`` from left to right; charged what evaluating that
    ``Plus`` node would have been.  ``None`` where ``Plus`` has user
    rules, which that node would meet."""
    definition = evaluator.state.lookup("Plus")
    if definition is not None and (definition.patterns or definition.facts):
        return None
    data = array.data
    count = len(data)
    evaluator.charge_unwalked(count, count + 2)
    if count == 1:
        return number_expr(data[0])
    if array.element_type == "Integer64":
        return MInteger(sum(data))
    return number_expr(add(sorted(data) if count > 2 else data))


@builtin("Accumulate")
def accumulate(evaluator, expression):
    if len(expression.args) != 1 or not is_head(expression.args[0], "List"):
        return None
    out = []
    running: MExpr | None = None
    for item in expression.args[0].args:
        running = item if running is None else evaluator.evaluate(
            MExprNormal(S.Plus, [running, item])
        )
        out.append(running)
    return MExprNormal(S.List, out)


@builtin("Mean")
def mean(evaluator, expression):
    if len(expression.args) != 1 or not is_head(expression.args[0], "List"):
        return None
    items = expression.args[0].args
    if not items:
        return None
    total = evaluator.evaluate(MExprNormal(S.Plus, list(items)))
    value = as_number(total)
    if isinstance(value, int) and value % len(items) == 0:
        return MInteger(value // len(items))  # exact mean stays exact
    quotient = MExprNormal(
        S.Times,
        [total, MExprNormal(S.Power, [MInteger(len(items)), MInteger(-1)])],
    )
    return evaluator.evaluate(quotient)


@builtin("DeleteDuplicates")
def delete_duplicates(evaluator, expression):
    if len(expression.args) != 1 or expression.args[0].is_atom():
        return None
    seen = set()
    kept = []
    for item in expression.args[0].args:
        if item not in seen:
            seen.add(item)
            kept.append(item)
    return MExprNormal(expression.args[0].head, kept)


@builtin("Position")
def position(evaluator, expression):
    from repro.engine.patterns import match_q

    if len(expression.args) != 2 or expression.args[0].is_atom():
        return None
    subject, pattern = expression.args
    hits = [
        MExprNormal(S.List, [MInteger(i + 1)])
        for i, item in enumerate(subject.args)
        if match_q(pattern, item, evaluator)
    ]
    return MExprNormal(S.List, hits)


@builtin("ReplacePart")
def replace_part(evaluator, expression):
    if len(expression.args) != 2 or expression.args[0].is_atom():
        return None
    subject, rule = expression.args
    if not is_head(rule, "Rule") or len(rule.args) != 2:
        return None
    index = as_number(rule.args[0])
    if not isinstance(index, int):
        return None
    items = list(subject.args)
    if index < 0:
        index = len(items) + index + 1
    if not 1 <= index <= len(items):
        return None
    items[index - 1] = rule.args[1]
    return MExprNormal(subject.head, items)


@builtin("Riffle")
def riffle(evaluator, expression):
    if len(expression.args) != 2 or expression.args[0].is_atom():
        return None
    subject, separator = expression.args
    out: list[MExpr] = []
    for index, item in enumerate(subject.args):
        if index:
            out.append(separator)
        out.append(item)
    return MExprNormal(subject.head, out)


@builtin("Thread")
def thread(evaluator, expression):
    if len(expression.args) != 1 or expression.args[0].is_atom():
        return None
    outer = expression.args[0]
    lengths = {len(a.args) for a in outer.args if is_head(a, "List")}
    if len(lengths) != 1:
        return None
    (size,) = lengths
    rows = []
    for index in range(size):
        row_args = [
            a.args[index] if is_head(a, "List") else a for a in outer.args
        ]
        rows.append(MExprNormal(outer.head, row_args))
    return MExprNormal(S.List, rows)


@builtin("Outer")
def outer(evaluator, expression):
    from repro.engine.builtins.functional import call

    if len(expression.args) != 3:
        return None
    function, left, right = expression.args
    if not (is_head(left, "List") and is_head(right, "List")):
        return None
    rows = [
        MExprNormal(
            S.List, [call(evaluator, function, a, b) for b in right.args]
        )
        for a in left.args
    ]
    return MExprNormal(S.List, rows)


@builtin("Tuples")
def tuples(evaluator, expression):
    import itertools

    if len(expression.args) != 2 or not is_head(expression.args[0], "List"):
        return None
    size = as_number(expression.args[1])
    if not isinstance(size, int) or size < 0:
        return None
    combos = itertools.product(expression.args[0].args, repeat=size)
    return MExprNormal(
        S.List, [MExprNormal(S.List, list(c)) for c in combos]
    )


@builtin("IntegerDigits")
def integer_digits(evaluator, expression):
    if not expression.args:
        return None
    value = as_number(expression.args[0])
    base = (
        as_number(expression.args[1]) if len(expression.args) > 1 else 10
    )
    if not isinstance(value, int) or not isinstance(base, int) or base < 2:
        return None
    value = abs(value)
    digits = []
    while value:
        digits.append(value % base)
        value //= base
    if not digits:
        digits = [0]
    return MExprNormal(S.List, [MInteger(d) for d in reversed(digits)])
