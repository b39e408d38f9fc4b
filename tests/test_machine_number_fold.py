"""Machine-number arithmetic folded in the evaluator step.

When every evaluated argument of ``Plus``, ``Times``, ``Power``, ``Mod``,
``Quotient`` or a comparison is exactly an ``MInteger`` or ``MReal`` (and
the head has no user DownValues), the step computes the atom with the
builtin's own numeric core instead of building the node and dispatching
to the builtin.  The property: whatever the step returns is what the
builtin path — canonical order, the rebuilt node, the builtin — returns,
down to a declined node left as it is and the exception raised.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Evaluator
from repro.engine.builtins import BUILTINS
from repro.engine.evaluator import canonical_order_key
from repro.mexpr import full_form
from repro.mexpr.atoms import MInteger, MReal, MSymbol
from repro.mexpr.expr import MExprNormal

FOLDED = ("Plus", "Times", "Power", "Mod", "Quotient", "Equal", "Unequal",
          "Less", "Greater", "LessEqual", "GreaterEqual")

_INTEGERS = st.one_of(
    st.integers(min_value=-10, max_value=10),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),  # past int64
)
_REALS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 0.5, -2.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_NUMBERS = st.one_of(_INTEGERS.map(MInteger), _REALS.map(MReal))
#: a ``Power`` exponent small enough that an exact power stays computable
_EXPONENTS = st.one_of(st.integers(min_value=-40, max_value=40).map(MInteger),
                       _REALS.map(MReal))


def _outcome(compute):
    try:
        return "value", full_form(compute())
    except Exception as error:  # the same error, or the same value
        return "error", type(error).__name__


def _builtin_path(evaluator, name, arguments):
    """What the step did before the fold: sort an Orderless head's
    arguments canonically, build the node, call the builtin; an inert node
    is its own value, and so is a node whose builtin overflowed the
    machine range."""
    builtin = BUILTINS[name]
    values = list(arguments)
    if "Orderless" in builtin.attributes:
        values.sort(key=canonical_order_key)
    node = MExprNormal(MSymbol(name), values)
    try:
        result = builtin.func(evaluator, node)
    except OverflowError:
        result = None
    return node if result is None else result


@st.composite
def _calls(draw):
    name = draw(st.sampled_from(FOLDED))
    if name == "Power":
        count = draw(st.integers(min_value=0, max_value=3))
        arguments = [draw(_NUMBERS) for _ in range(count)]
        if count == 2:
            arguments[1] = draw(_EXPONENTS)
    else:
        arguments = draw(st.lists(_NUMBERS, min_size=0, max_size=5))
    return name, arguments


@given(_calls())
@settings(max_examples=600, deadline=None)
def test_the_fold_is_the_builtin_path(call):
    name, arguments = call
    evaluator = Evaluator()
    folded = _outcome(
        lambda: evaluator.evaluate(MExprNormal(MSymbol(name), arguments)))
    reference = _outcome(lambda: _builtin_path(evaluator, name, arguments))
    assert folded == reference, (name, arguments)


#: decimal fractions: machine sums and products of them round by order
_DECIMALS = st.integers(min_value=-10 ** 6, max_value=10 ** 6).map(
    lambda k: MReal(k / 10))


@given(st.sampled_from(["Plus", "Times"]),
       st.lists(st.one_of(_DECIMALS, _NUMBERS), min_size=3, max_size=5))
@settings(max_examples=300, deadline=None)
def test_three_or_more_reals_fold_in_canonical_order(name, arguments):
    """Where the order of rounding shows: more than two operands with
    reals among them, drawn in any order."""
    evaluator = Evaluator()
    folded = _outcome(
        lambda: evaluator.evaluate(MExprNormal(MSymbol(name), arguments)))
    reference = _outcome(lambda: _builtin_path(evaluator, name, arguments))
    assert folded == reference, (name, arguments)


@pytest.mark.parametrize("source, expected", [
    ("Plus[]", "0"), ("Times[]", "1"), ("Plus[-0.]", "-0.0"),
    ("Plus[-0., -0.]", "0.0"), ("Times[3, 0.5]", "1.5"),
    ("Plus[0.1, 0.2, 0.3]", "0.6000000000000001"),  # canonical order
    ("Plus[0.3, 0.2, 0.1]", "0.6000000000000001"),  # as written: 0.6
    ("Power[2, -1]", "Power[2, -1]"),               # declined: no Rational
    ("Mod[7, 0]", "Mod[7, 0]"), ("Mod[-7, 3]", "2"), ("Quotient[7, 2]", "3"),
    ("Less[1, 2, 2.5]", "True"), ("Unequal[1, 2, 3]", "True"),
    ("Unequal[1, 2, 1]", "False"), ("Unequal[1, 2.5, 2.5]", "False"),
    ("Plus[2^70, 1]", "1180591620717411303425"),
])
def test_edge_cases(run, source, expected):
    assert run(source) == expected


def test_the_step_does_not_call_the_builtin():
    evaluator = Evaluator()

    def unreachable(evaluator, expression):
        raise AssertionError(f"{expression} reached the builtin")

    builtins = dict(evaluator._builtins)
    plus = builtins["Plus"]
    builtins["Plus"] = type(plus)(plus.name, unreachable, plus.attributes,
                                  plus.fold)
    evaluator._builtins = builtins
    assert full_form(evaluator.run("Plus[1, 2, 3.5]")) == "6.5"


def test_user_down_values_win_over_the_fold(run):
    assert run("Unprotect[Plus]; Plus[1, 2] := 7; Plus[1, 2]") == "7"
    assert run("Plus[2, 3]") == "5"


def test_the_node_is_still_charged_to_a_memory_budget(run):
    assert run("MemoryConstrained[Do[1 + i, {i, 100000}], 2000]") == \
        "$Aborted"
