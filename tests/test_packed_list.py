"""Packed lists: one ``PackedArray`` buffer from ``Range`` through ``Total``
to compiled code, indistinguishable from the unpacked ``List``.

The property test evaluates each generated expression twice — its lists
made by ``Range`` (packed) and written out as literal lists (unpacked,
one atom per element) — and asks for the same ``FullForm``, the same
messages and the same error kind.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from repro.compiler import FunctionCompile, install_engine_support
from repro.compiler.api import _packed_to_mexpr, _unpack_one
from repro.compiler.types.specifier import parse_type_specifier
from repro.engine import Evaluator
from repro.errors import ReproError, WolframRuntimeError
from repro.mexpr import (
    MExprNormal,
    MInteger,
    MReal,
    PackedList,
    S,
    dumps,
    full_form,
    loads,
    parse,
)
from repro.mexpr.symbols import expr
from repro.runtime.packed import PackedArray


def _run(evaluator: Evaluator, expression) -> dict:
    seen = len(evaluator.messages)
    row: dict = {}
    try:
        row["out"] = full_form(evaluator.evaluate_protected(expression))
    except WolframRuntimeError as error:
        row["error"] = error.kind
    except ReproError as error:
        row["error"] = type(error).__name__
    row["messages"] = evaluator.messages[seen:]
    return row


# -- the generator ----------------------------------------------------------------
# A list is a Range spec: packed, the list ``Range`` makes; unpacked, the
# literal list of the atoms the same elements are.  Both are arguments as
# they stand (a ``Range[...]`` call argument would cost the node a second
# trip, and a second ``Thread`` message, packed or not).

#: reals that round: a sum of them depends on the order it is taken in
_TENTHS = st.integers(-30, 90).map(lambda k: k / 10)


@st.composite
def _range_spec(draw):
    kind = draw(st.sampled_from(["int", "real", "mixed", "empty"]))
    if kind == "int":
        start = draw(st.integers(-5, 9))
        step = draw(st.sampled_from([1, 2, 3, -1, -2]))
        stop = start + step * draw(st.integers(0, 9))
        return (start, stop, step)
    if kind == "real":
        start = draw(_TENTHS)
        step = draw(st.sampled_from([0.1, 0.3, 1.5, -0.1, -0.3, -0.7]))
        return (start, start + step * draw(st.integers(0, 8)), step)
    if kind == "mixed":  # an integer start and step with a real stop
        start = draw(st.integers(-3, 5))
        return (start, start + draw(_TENTHS.filter(lambda q: q >= 0)), 1)
    start = draw(st.integers(-3, 3))
    return (start, start - 1, 1)


def _atom(value):
    return MInteger(value) if type(value) is int else MReal(value)


def _range_elements(start, stop, step) -> list:
    if all(type(b) is int for b in (start, stop, step)):
        return list(range(start, stop + (1 if step > 0 else -1), step))
    count = max(int((stop - start) / step + 1e-9) + 1, 0)
    return [start + index * step for index in range(count)]


def _list(spec, packed: bool):
    if packed:
        made = Evaluator().evaluate(expr("Range", *spec))
        assert type(made) is PackedList
        return made
    return MExprNormal(S.List, [_atom(v) for v in _range_elements(*spec)])


_SCALARS = st.one_of(
    st.integers(-4, 6).map(MInteger),
    _TENTHS.map(MReal),
    st.just(MInteger(2 ** 62)),  # Range[3]*2^62 leaves int64
    st.just(S("x")),  # symbolic: the general threading decides
)

_ARITHMETIC = ["Plus", "Times", "Power", "Mod", "Quotient"]


@st.composite
def _program(draw):
    """``build``: ``build(packed)`` makes the expression."""
    specs = draw(st.lists(_range_spec(), min_size=1, max_size=3))
    form = draw(st.sampled_from(
        ["list", "total", "total", "length", "part", "arith", "arith",
         "total-arith", "total-arith", "part-arith", "same", "equal",
         "fact", "same-literal", "fact-literal"]))
    head = draw(st.sampled_from(_ARITHMETIC))
    scalar = draw(_SCALARS)
    if head == "Power" and scalar == MInteger(2 ** 62):
        scalar = MInteger(2)  # a power that big is never computed
    index = draw(st.integers(-7, 7))
    scalar_first = draw(st.booleans())

    def arithmetic(packed):
        lists = [_list(spec, packed) for spec in specs]
        if head in ("Plus", "Times"):
            operands = lists + [scalar]
        else:  # two arguments: list and scalar, or two lists
            operands = [lists[0], lists[1] if len(lists) > 1 else scalar]
        if scalar_first:
            operands.reverse()
        return expr(head, *operands)

    def build(packed):
        first = _list(specs[0], packed)
        # the ``-literal`` forms hold a packed list against a literal one
        last = _list(specs[-1], packed and not form.endswith("-literal"))
        if form == "list":
            return first
        if form == "total":
            return expr("Total", first)
        if form == "length":
            return expr("Length", first)
        if form == "part":
            return expr("Part", first, MInteger(index))
        if form == "arith":
            return arithmetic(packed)
        if form == "total-arith":
            return expr("Total", arithmetic(packed))
        if form == "part-arith":
            return expr("Part", arithmetic(packed), MInteger(index))
        if form.startswith("same"):
            return expr("SameQ", first, last)
        if form == "equal":
            return expr("Equal", first, last)
        # a DownValue fact stored under one list, asked under the other
        return expr("CompoundExpression",
                    expr("Set", expr("g", first), MInteger(7)),
                    expr("List", expr("g", first), expr("g", last)))

    return build


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_program())
def test_packed_and_unpacked_lists_evaluate_alike(build):
    note(full_form(build(False)))
    packed = _run(Evaluator(), build(True))
    unpacked = _run(Evaluator(), build(False))
    assert packed == unpacked


@pytest.mark.parametrize("source, literal", [
    ("Range[0]", "{}"),
    ("Range[3, 1]", "{}"),
    ("Total[Range[0]]", "Total[{}]"),
    ("Total[Range[0.5, -1]]", "Total[{}]"),
    ("Total[Range[-0.5, -0.5]]", "Total[{-0.5}]"),
    ("Range[1, 4.5]", "{1, 2, 3, 4}"),
    ("Range[3] + Range[4]", "{1, 2, 3} + {1, 2, 3, 4}"),
    ("Range[5][[9]]", "{1, 2, 3, 4, 5}[[9]]"),
    ("Range[5][[2, 1]]", "{1, 2, 3, 4, 5}[[2, 1]]"),
    ("Range[3]*2^62", "{1, 2, 3}*2^62"),
    ("Range[3]^-1", "{1, 2, 3}^-1"),
    ("Range[0, 2]^-1", "{0, 1, 2}^-1"),
    ("Range[-1, 1]^0.5", "{-1, 0, 1}^0.5"),
    ("Mod[Range[3], 0]", "Mod[{1, 2, 3}, 0]"),
    ("Quotient[Range[5], 2.5]", "Quotient[{1, 2, 3, 4, 5}, 2.5]"),
    ("Range[0.5, 1.5]^0", "{0.5, 1.5}^0"),
    ("Range[3]*0.5 - 1", "{1, 2, 3}*0.5 - 1"),
    ("Plus[Range[3], 0.1, Range[0.3, 2.3], 0.2]",
     "Plus[{1, 2, 3}, 0.1, {0.3, 1.3, 2.3}, 0.2]"),
    # the fold sums three or more reals in canonical order: here the sum
    # in list order is 28.800000000000004
    ("Total[Range[6.0, 0.0, -0.7]]",
     "Total[{6.0, 5.3, 4.6, 3.9000000000000004, 3.2, 2.5,"
     " 1.8000000000000007, 1.1000000000000005, 0.40000000000000036}]"),
    ("Dot[Range[3], Range[3]]", "Dot[{1, 2, 3}, {1, 2, 3}]"),
    ("Dot[Range[3], Range[2]]", "Dot[{1, 2, 3}, {1, 2}]"),
])
def test_edge_cases_match_the_literal_list(source, literal):
    assert _run(Evaluator(), _ranges_made(parse(source))) == _run(
        Evaluator(), parse(literal))


def _ranges_made(node):
    """``node`` with each ``Range[...]`` in it replaced by its packed list."""
    if node.is_atom():
        return node
    if node.head == S.Range:
        return Evaluator().evaluate(node)
    return MExprNormal(node.head, [_ranges_made(a) for a in node.args])


def test_user_rules_on_plus_see_every_element():
    # a user Plus rule keeps the buffer paths out: the rows meet the rule
    rules = "Unprotect[Plus]; Plus[a_Integer, 10] := 0"
    results = []
    for listed in ("Range[3]", "{1, 2, 3}"):
        session = Evaluator()
        session.run(rules)
        results.append(_run(session, parse(f"{{{listed} + 10,"
                                           f" Total[{listed}]}}")))
    assert results[0] == results[1]


def test_a_listable_fold_without_a_row_core_threads_as_before():
    results = []
    for listed in ("Range[3]", "{1, 2, 3}"):
        session = Evaluator()
        session.run("SetAttributes[Equal, Listable]")
        results.append(_run(session, parse(f"Equal[{listed}, 2]")))
    assert results[0] == results[1]
    assert results[0]["out"] == "List[False, True, False]"


# -- the representation -------------------------------------------------------------


def test_range_is_one_buffer_and_a_fixed_point():
    session = Evaluator()
    result = session.run("Range[5]")
    assert type(result) is PackedList
    assert result.array.element_type == "Integer64"
    assert result.array.data == [1, 2, 3, 4, 5]
    # no atom until something reads args, and evaluation neither walks
    # nor stamps it
    with pytest.raises(AttributeError):
        object.__getattribute__(result, "args")
    assert session.evaluate(result) is result
    assert result._properties is None
    assert result.args == (MInteger(1), MInteger(2), MInteger(3),
                           MInteger(4), MInteger(5))


def test_packed_list_is_a_list_everywhere():
    packed = Evaluator().run("Range[0.5, 2.5]")
    literal = parse("{0.5, 1.5, 2.5}")
    assert packed == literal and literal == packed
    assert hash(packed) == hash(literal)
    assert full_form(packed) == "List[0.5, 1.5, 2.5]"
    assert loads(dumps(packed)) == literal
    assert packed.to_python() == [0.5, 1.5, 2.5]
    assert packed != Evaluator().run("Range[3]")
    # empty lists are equal whatever their buffer held
    assert Evaluator().run("Range[0]") == Evaluator().run("Range[0.5, -1]")


def test_a_fact_under_a_packed_list_answers_the_literal():
    session = Evaluator()
    session.run("g[Range[3]] = 7")
    assert session.run("g[{1, 2, 3}]") == MInteger(7)
    assert session.run("g[Range[3]]") == MInteger(7)
    assert full_form(session.run("g[Range[4]]")) == "g[List[1, 2, 3, 4]]"


def test_listable_arithmetic_stays_packed_and_overflow_unpacks():
    session = Evaluator()
    doubled = session.run("Range[4]*2 + 1")
    assert type(doubled) is PackedList and doubled.array.data == [3, 5, 7, 9]
    halves = session.run("Range[3]*0.5")
    assert type(halves) is PackedList
    assert halves.array.element_type == "Real64"
    # an element past int64 gives a bignum list of atoms, as the Engine
    big = session.run("Range[3]*2^62")
    assert type(big) is MExprNormal
    assert big.args[2] == MInteger(3 * 2 ** 62)


def test_packed_lists_are_quick():
    session = Evaluator()
    started = time.monotonic()
    assert session.run("Total[Range[10^6]*2] == 1000001000000").to_python()
    assert session.run("Length[Range[10^6]]") == MInteger(1000000)
    assert time.monotonic() - started < 5


# -- the compiled boundary --------------------------------------------------------------

_VECTOR = 'TypeSpecifier["Tensor"["Integer64", 1]]'


def test_a_tensor_parameter_takes_the_buffer_itself():
    packed = Evaluator().run("Range[4]")
    vector = parse_type_specifier(parse(_VECTOR))
    assert _unpack_one(packed, vector) is packed.array
    assert _unpack_one(packed, vector, private=True) is not packed.array
    # another element type or rank converts, with the nested list's checks
    reals = parse_type_specifier(
        parse('TypeSpecifier["Tensor"["Real64", 1]]'))
    converted = _unpack_one(packed, reals)
    assert converted is not packed.array
    assert converted.element_type == "Real64"
    matrix = parse_type_specifier(
        parse('TypeSpecifier["Tensor"["Integer64", 2]]'))
    with pytest.raises(WolframRuntimeError):
        _unpack_one(packed, matrix)


def test_a_tensor_result_is_wrapped_not_copied():
    array = PackedArray([1, 2, 3], (3,), "Integer64")
    assert _packed_to_mexpr(array).array is array
    # a real tensor may hold ints: the list holds the floats they stand for
    mixed = _packed_to_mexpr(PackedArray([1, 2.5], (2,), "Real64"))
    assert mixed.array.data == [1.0, 2.5]
    assert all(type(v) is float for v in mixed.array.data)
    matrix = _packed_to_mexpr(PackedArray([1, 2, 3, 4], (2, 2), "Integer64"))
    assert full_form(matrix) == "List[List[1, 2], List[3, 4]]"
    assert type(matrix.args[0]) is PackedList


@pytest.fixture(scope="module")
def writer():
    """A compiled function that writes its tensor argument."""
    return FunctionCompile(
        f"Function[{{Typed[v, {_VECTOR}]}}, v[[1]] = 100; Total[v]]")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12))
def test_compiled_writes_leave_the_callers_list_alone(writer, length):
    results = []
    for listed in (f"Range[{length}]",
                   "{" + ", ".join(map(str, range(1, length + 1))) + "}"):
        session = Evaluator()
        install_engine_support(session)
        writer.install(session, "w")
        row = _run(session, parse(f"r = {listed}; {{w[r], r, Total[r]}}"))
        results.append(row)
    assert results[0] == results[1]
    elements = range(1, length + 1)
    assert results[0]["out"] == (
        f"List[{100 + sum(elements) - 1}, "
        f"List[{', '.join(map(str, elements))}], {sum(elements)}]")


@pytest.mark.parametrize("options", [
    {"CopyInsertion": False},
    {"ArgumentAlias": True},
    {"CopyInsertion": False, "ArgumentAlias": True},
], ids=["no-copy-insertion", "argument-alias", "both"])
def test_a_writer_without_an_entry_copy_leaves_the_callers_list_alone(
        options):
    # no entry copy protects the caller here: the boundary hands the code
    # a copy of the packed list's buffer, never the buffer itself
    writer = FunctionCompile(
        f"Function[{{Typed[v, {_VECTOR}]}}, v[[1]] = 100; Total[v]]",
        **options)
    session = Evaluator()
    install_engine_support(session)
    writer.install(session, "w")
    row = _run(session, parse(
        "r = Range[3]; g[r] = 7; {w[r], r, Total[r], g[{1, 2, 3}]}"))
    assert row["out"] == "List[105, List[1, 2, 3], 6, 7]"
    assert full_form(session.run("r")) == "List[1, 2, 3]"
