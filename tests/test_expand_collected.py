"""``Expand`` multiplies collected polynomials.

The engine's ``Expand`` used to distribute every product into all of its
terms — ``(x + y + 1)^n`` into 3^n of them — evaluate that sum, and only
then merge like terms.  It now multiplies monomial -> coefficient maps and
merges as it goes.  A frozen copy of the old algorithm below is the
reference: on integer-coefficient polynomials both give the same FullForm,
and where the old one cannot finish the new one's values are checked at
integer points instead.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Evaluator
from repro.engine.builtins.support import as_number, number_expr
from repro.engine.patterns import substitute
from repro.mexpr import full_form, parse
from repro.mexpr.atoms import MInteger
from repro.mexpr.expr import MExprNormal
from repro.mexpr.symbols import S, head_name, is_head

# -- the distribute-then-collect algorithm, frozen as the reference ----------------


def _distribute(node):
    if node.is_atom():
        return node
    node = MExprNormal(node.head, [_distribute(a) for a in node.args])
    name = head_name(node)
    if name == "Power" and len(node.args) == 2:
        base, exponent = node.args
        count = as_number(exponent)
        if is_head(base, "Plus") and isinstance(count, int) and 1 < count <= 16:
            product = base
            for _ in range(count - 1):
                product = _distribute(MExprNormal(S.Times, [product, base]))
            return product
    if name == "Times":
        for index, factor in enumerate(node.args):
            if is_head(factor, "Plus"):
                others = [*node.args[:index], *node.args[index + 1:]]
                return MExprNormal(S.Plus, [
                    _distribute(MExprNormal(S.Times, [term, *others]))
                    for term in factor.args
                ])
    return node


def _term_parts(term):
    coefficient, powers = 1, {}
    for factor in term.args if is_head(term, "Times") else [term]:
        value = as_number(factor)
        if value is not None:
            coefficient *= value
            continue
        if is_head(factor, "Power") and len(factor.args) == 2:
            exponent = as_number(factor.args[1])
            if isinstance(exponent, int) and exponent > 0:
                base = factor.args[0]
                powers[base] = powers.get(base, 0) + exponent
                continue
        powers[factor] = powers.get(factor, 0) + 1
    return coefficient, powers


def _rebuild_term(coefficient, powers):
    factors = [
        base if exponent == 1
        else MExprNormal(S.Power, [base, MInteger(exponent)])
        for base, exponent in sorted(powers.items(), key=lambda kv: str(kv[0]))
    ]
    if not factors:
        return number_expr(coefficient)
    if coefficient != 1:
        factors.insert(0, number_expr(coefficient))
    return factors[0] if len(factors) == 1 else MExprNormal(S.Times, factors)


def _collect(node):
    if not is_head(node, "Plus"):
        return _rebuild_term(*_term_parts(node))
    grouped, order = {}, []
    for term in node.args:
        coefficient, powers = _term_parts(term)
        key = tuple(sorted((str(b), e) for b, e in powers.items()))
        if key in grouped:
            grouped[key] = (grouped[key][0] + coefficient, grouped[key][1])
        else:
            grouped[key] = (coefficient, powers)
            order.append(key)
    terms = [_rebuild_term(*grouped[k]) for k in order if grouped[k][0] != 0]
    if not terms:
        return number_expr(0)
    return terms[0] if len(terms) == 1 else MExprNormal(S.Plus, terms)


def _reference_expand(evaluator, source):
    subject = evaluator.evaluate(parse(source))
    distributed = evaluator.evaluate(_distribute(subject))
    return evaluator.evaluate(_collect(distributed))


# -- random integer-coefficient polynomials ------------------------------------------

_SYMBOLS = ("a", "b", "c", "d")


@st.composite
def _monomials(draw):
    factors = [f"({draw(st.integers(min_value=-6, max_value=6))})"]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        symbol = draw(st.sampled_from(_SYMBOLS))
        power = draw(st.integers(min_value=1, max_value=6))
        factors.append(symbol if power == 1 else f"{symbol}^{power}")
    if draw(st.booleans()) and draw(st.booleans()):
        factors.append(f"({draw(st.integers(2, 3))} "
                       f"{draw(st.sampled_from(_SYMBOLS))})^2")
    return "*".join(factors)


@st.composite
def _polynomials(draw):
    def total():
        terms = draw(st.lists(_monomials(), min_size=1, max_size=3))
        return "(" + " + ".join(terms) + ")"

    factors = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        power = draw(st.integers(min_value=1, max_value=3))
        factors.append(total() + (f"^{power}" if power > 1 else ""))
    product = "*".join(factors)
    if draw(st.booleans()):
        product += " + " + total()
    return product


@given(_polynomials())
@settings(max_examples=60, deadline=None)
def test_same_fullform_as_distribute_then_collect(source):
    evaluator = Evaluator()
    expected = full_form(_reference_expand(evaluator, source))
    assert full_form(evaluator.run(f"Expand[{source}]")) == expected


@pytest.mark.parametrize("source", [
    "(x + y + 1)^5", "(x + 2)^6", "(x + y)*(x - y)", "3 x + 2 x", "x - x",
    "(a - a)^3", "(x + 1)^2*(x - 1)^2", "(d*d^2 + 1)^2", "{(x + 1)^2, y}",
    "(x + 1)^17", "Sin[x]*(x + 1)^2", "(2 b)^2*(b + 1)",
])
def test_same_fullform_on_named_shapes(source):
    evaluator = Evaluator()
    reference = full_form(_reference_expand(evaluator, source))
    got = full_form(evaluator.run(f"Expand[{source}]"))
    if source == "{(x + 1)^2, y}":
        # inside a non-polynomial head the old algorithm distributed but
        # never collected; the sum there is collected now
        assert reference == "List[Plus[1, x, x, Times[x, x]], y]"
        assert got == "List[Plus[1, Power[x, 2], Times[2, x]], y]"
    else:
        assert got == reference


def test_a_tenth_power_the_old_algorithm_cannot_finish():
    """4^10 ≈ 10^6 distributed products before: now 286 terms, checked
    against the unexpanded power at random integer points."""
    evaluator = Evaluator()
    expanded = evaluator.run("Expand[(a + b + c + d)^10]")
    assert len(expanded.args) == 286
    rng = random.Random(25)
    for _ in range(5):
        point = {s: MInteger(rng.randint(-9, 9)) for s in _SYMBOLS}
        at = evaluator.evaluate(substitute(expanded, point)).to_python()
        assert at == sum(p.value for p in point.values()) ** 10


def test_expand_cost_grows_with_the_answer_not_with_3_to_the_n():
    evaluator = Evaluator()
    started = time.perf_counter()
    result = evaluator.run("Expand[(a + b + c + d)^12]")
    assert len(result.args) == 455  # C(15, 3)
    assert time.perf_counter() - started < 5.0  # 623 ms for the 6th power
