"""The primitive table (``repro.compiler.runtime_library``): one row per
compiled-code primitive, read by every consumer.

Pins what makes the row the single definition: every row has a callable
and :data:`RUNTIME` is derived from the rows; checked/unchecked twins are
linked both ways and agree on what they compute; every ``wvm`` and
``interval`` names something that exists.  Two oracles run each row
against itself: its inline Python template against its callable on
sampled operands of every scalar signature the builtin environment
declares for it, and its interval transfer against its callable on
sampled intervals.  Last, a user-declared row with a twin reaches check
elision, the verifier, the Python backend and the WVM backend with no
other change — adding a primitive is one row.
"""

import itertools
import math
import random

import pytest

from repro.analyze.dataflow import Interval
from repro.bytecode.instructions import MATH_CODES, Op
from repro.compiler.codegen.python_backend import runtime_globals
from repro.compiler.runtime_library import PRIMITIVE_IMPLS, RUNTIME
from repro.compiler.types.builtin_env import default_environment
from repro.compiler.types.environment import PrimitiveImpl, TypeEnvironment
from repro.compiler.types.specifier import (
    AtomicType,
    FunctionType,
    TypeForAll,
    TypeVariable,
    fn,
)
from repro.errors import SOFT_FAILURE_EXCEPTIONS, classify_runtime_error
from repro.runtime.checked import INT64_MAX, INT64_MIN

ROWS = list(PRIMITIVE_IMPLS.values())

#: transfers the analysis computes from more than the operand intervals
_STRUCTURAL_TRANSFERS = {"count", "element"}


class TestRows:
    def test_every_row_has_a_callable_and_runtime_is_derived(self):
        assert all(callable(row.call) for row in ROWS)
        services = {"memory_acquire", "memory_release"}
        assert set(RUNTIME) == set(PRIMITIVE_IMPLS) | services
        for name, row in PRIMITIVE_IMPLS.items():
            assert RUNTIME[name] is row.call
            assert row.runtime_name == name

    def test_twins_are_linked_both_ways_and_compute_alike(self):
        twins = [row for row in ROWS if row.unchecked is not None]
        assert {row.runtime_name for row in twins} == {
            "checked_binary_plus_Integer64_Integer64",
            "checked_binary_subtract_Integer64_Integer64",
            "checked_binary_times_Integer64_Integer64",
            "tensor_part1", "tensor_part1_set",
            "tensor_part2", "tensor_part2_set",
        }
        for row in twins:
            twin = row.unchecked
            assert twin.checked is row and twin.unchecked is None
            assert row.error is not None
            assert (twin.interval, twin.index_axes, twin.mutates) == (
                row.interval, row.index_axes, row.mutates)
            assert twin.wvm == row.wvm

    def test_what_runs_under_a_proof_names_the_check_it_stands_for(self):
        """The verifier's sites: the twins, and the explicit rank-2
        addressing an unchecked access is lowered to."""
        proven = {row.runtime_name: row.checked.runtime_name
                  for row in ROWS if row.checked is not None}
        assert proven["tensor_row_base"] == "tensor_part2"
        assert proven["tensor_at"] == "tensor_part2"
        assert proven["tensor_at_set"] == "tensor_part2_set"
        assert len(proven) == 10
        for row in ROWS:
            if row.checked is not None:
                assert row.index_axes or row.interval
                assert row.overflow_checked == (
                    row.checked.error == "IntegerOverflow")

    def test_wvm_names_an_instruction(self):
        for row in ROWS:
            if row.wvm is not None:
                assert row.wvm in MATH_CODES or row.wvm in Op.__members__, row

    def test_interval_names_a_transfer(self):
        for row in ROWS:
            if row.interval is not None and (
                row.interval not in _STRUCTURAL_TRANSFERS
            ):
                assert callable(getattr(Interval, row.interval)), row

    def test_index_axes_name_operand_positions(self):
        for row in ROWS:
            for position, axis in row.index_axes:
                assert position >= 1 and axis in ("row", "column")

    def test_every_acting_primitive_is_impure_and_stores(self):
        for row in ROWS:
            assert row.mutates == (row.py_effect is not None)
            if row.mutates:
                assert not row.pure and not row.total


# -- the inline template against the callable ---------------------------------

_SAMPLES = {
    "Integer64": [0, 1, -1, 2, -7, 13, 40, 3 ** 20, 2 ** 62,
                  INT64_MAX, INT64_MIN],
    "UnsignedInteger64": [0, 1, 255, 2 ** 63, 2 ** 64 - 1],
    "Real64": [0.0, 1.5, -2.25, 0.5, 1e300, -1e-300],
    "ComplexReal64": [0j, 1 + 2j, -0.5 + 0.25j],
    "Boolean": [True, False],
    "String": ["", "abc", "héllo"],
}


def _scalar_signatures():
    """``(row, parameter type names)`` for every scalar declaration of the
    default environment whose implementation is a row with a template,
    and for that row's unchecked twin."""
    environment = default_environment()
    for name in sorted(environment.function_names()):
        for declaration in environment.declarations(name):
            row = declaration.implementation
            if not isinstance(row, PrimitiveImpl) or row.py_inline is None \
                    or not row.pure or row.allocates:
                continue  # sampled sizes would allocate without bound
            type_ = declaration.type
            if isinstance(type_, TypeForAll):
                body = type_.body
                choices = ("Integer64", "Real64")
            else:
                body, choices = type_, (None,)
            if not isinstance(body, FunctionType):
                continue
            for choice in choices:
                names = []
                for param in body.params:
                    if isinstance(param, TypeVariable) and choice:
                        names.append(choice)
                    elif isinstance(param, AtomicType) and (
                        param.name in _SAMPLES
                    ):
                        names.append(param.name)
                    else:
                        break
                else:
                    yield row, tuple(names)
                    if row.unchecked is not None:
                        yield row.unchecked, tuple(names)


def _outcome(thunk):
    try:
        return "value", thunk()
    except SOFT_FAILURE_EXCEPTIONS as error:
        return "error", classify_runtime_error(error).kind


def _run_template(row, arguments):
    namespace = runtime_globals(None, [], [])
    fields = {"out": "_out", "args": ", ".join(
        f"_a{i}" for i in range(len(arguments)))}
    for i, argument in enumerate(arguments):
        namespace[f"_a{i}"] = argument
        fields[f"a{i}"] = fields[f"a{i}_bare"] = f"_a{i}"
    statements = []
    guard = row.py_guard
    if guard is not None and "{out}" not in guard:
        statements.append(guard)
    statements.append("_out = " + row.py_inline)
    if guard is not None and "{out}" in guard:
        statements.append(guard)
    exec("\n".join(s.format(**fields) for s in statements), namespace)
    return namespace["_out"]


def _same(left, right) -> bool:
    if left[0] != right[0]:
        return False
    if left[0] == "error":
        return left[1] == right[1]
    a, b = left[1], right[1]
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


@pytest.mark.parametrize(
    "row, types",
    [pytest.param(row, types, id=key)
     for key, (row, types) in {
         f"{row.runtime_name}-{'-'.join(types)}": (row, types)
         for row, types in _scalar_signatures()
     }.items()],
)
def test_inline_template_agrees_with_callable(row, types):
    checked = 0
    for arguments in itertools.product(*(_SAMPLES[t] for t in types)):
        if "shift" in row.runtime_name and not 0 <= arguments[1] <= 70:
            continue  # a shift by 2^62 builds a number no memory holds
        library = _outcome(lambda: row.call(*arguments))
        inline = _outcome(lambda: _run_template(row, arguments))
        assert _same(library, inline), (arguments, library, inline)
        checked += 1
    assert checked


def test_quotient_overflow_is_checked_inline():
    """``Quotient[-2^63, -1]`` is 2^63: the inline ``a // b`` raises the
    overflow the library does (the oracle above found it returning 2^63
    as an Integer64), while a literal positive divisor emits no guard."""
    from repro import FunctionCompile
    from repro.errors import IntegerOverflowError

    compiled = FunctionCompile(
        'Function[{Typed[a, "MachineInteger"], Typed[b, "MachineInteger"]},'
        ' Quotient[a, b]]')
    assert compiled(-7, 2) == -4
    with pytest.raises(IntegerOverflowError):
        compiled(INT64_MIN, -1)
    halved = FunctionCompile(
        'Function[{Typed[a, "MachineInteger"]}, Quotient[a, 2]]')
    assert "raise" not in halved.generated_source


@pytest.mark.parametrize("op, library", [("+", "tensor_shift"),
                                         ("*", "tensor_scale")])
def test_short_tensor_and_scalar_is_written_out(op, library):
    """Element-wise rows say how they are written out per element; the
    tensor-plus-scalar row is one of them, like tensor-times-scalar."""
    from repro import FunctionCompile

    compiled = FunctionCompile(
        f'Function[{{Typed[x, "Real64"]}}, {{1.0, 2.0}} {op} x]')
    assert library not in compiled.generated_source
    expected = [1.5, 2.5] if op == "+" else [0.5, 1.0]
    assert compiled(0.5).to_nested() == expected


# -- the interval transfer against the callable -------------------------------


def _intervals(rng):
    for _ in range(300):
        lo = rng.choice([None, rng.randint(-50, 50), INT64_MIN])
        hi = rng.choice([None, rng.randint(-50, 50), INT64_MAX])
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        yield Interval(lo, hi)


def _member(interval, rng):
    lo = -10 ** 4 if interval.lo is None else interval.lo
    hi = 10 ** 4 if interval.hi is None else interval.hi
    return rng.randint(max(lo, hi - 10 ** 6), hi) if lo <= hi else None


@pytest.mark.parametrize(
    "row",
    [pytest.param(row, id=row.runtime_name) for row in ROWS
     if row.interval is not None
     and row.interval not in _STRUCTURAL_TRANSFERS],
)
def test_interval_transfer_contains_what_the_callable_returns(row):
    """The exact transfer the row names holds every result its callable
    can return from operands inside the operand intervals (what the
    analysis then clamps, an overflow check or its proof keeps)."""
    rng = random.Random(row.runtime_name)
    arity = 1 if row.interval in ("negate", "absolute", "sign") else 2
    pool = list(_intervals(rng))
    for _ in range(400):
        operands = [rng.choice(pool) for _ in range(arity)]
        values = [_member(interval, rng) for interval in operands]
        if None in values:
            continue
        kind, result = _outcome(lambda: row.call(*values))
        if kind == "error":
            continue
        first, *rest = operands
        transfer = getattr(first, row.interval)(*rest)
        assert transfer.contains(result), (operands, values, result)


# -- a new primitive is one row ------------------------------------------------


def _user_rows():
    """``SafeAdd``: checked Integer64 addition declared by a user, with an
    unchecked twin — neither is in the library table."""
    twin = PrimitiveImpl("user_add_unchecked", "{a0} + {a1}", total=True,
                         call=lambda a, b: a + b, interval="add", wvm="ADD")
    checked = PrimitiveImpl(
        "user_add_checked", "{a0} + {a1}",
        py_guard="if {out} > 9223372036854775807 or "
                 "{out} < -9223372036854775808:\n"
                 "    raise IntegerOverflowError()",
        call=lambda a, b: a + b, error="IntegerOverflow", interval="add",
        wvm="ADD",
    )
    checked.unchecked, twin.checked = twin, checked
    environment = TypeEnvironment(parent=default_environment())
    environment.declare_function(
        "SafeAdd", fn(["Integer64", "Integer64"], "Integer64"), checked)
    return environment, checked, twin


class TestOneRow:
    SOURCE = ('Function[{Typed[n, "MachineInteger"]},'
              ' SafeAdd[Mod[n, 100], 1]]')

    def test_elision_and_the_verifier_read_the_user_row(self):
        from repro.compiler.options import CompilerOptions
        from repro.compiler.pipeline import CompilerPipeline
        from repro.mexpr import parse

        environment, checked, twin = _user_rows()
        options = CompilerOptions(
            dataflow=True, elide_checks=True, verify_ir="each")
        program = CompilerPipeline(
            type_environment=environment, options=options,
        ).compile_program(parse(self.SOURCE))
        used = [i for f in program.functions.values()
                for i in f.instructions()
                if getattr(i, "primitive", None) in (checked, twin)]
        assert [i.primitive for i in used] == [twin]
        assert used[0].properties["elided_check"] == "int64-overflow"

    def test_backends_read_the_user_row(self):
        from repro import FunctionCompile

        environment, _, _ = _user_rows()
        for target in ("Python", "WVM"):
            compiled = FunctionCompile(
                self.SOURCE, type_environment=environment,
                TargetSystem=target,
            )
            assert compiled(250) == 51
