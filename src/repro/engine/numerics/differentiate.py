"""Symbolic differentiation ``D[f, x]``.

§2.1: "The root solver symbolically computes the derivative of the input
equation and uses Newton's method" — this module is that symbolic step, and
it also powers the automatic-differentiation extension example (§5 mentions
developers "performed AST and IR manipulation for automatic
differentiation").
"""

from __future__ import annotations

from repro.engine.builtins.support import as_number, builtin, number_expr
from repro.engine.evaluator import canonical_order_key
from repro.errors import WolframEvaluationError
from repro.mexpr.atoms import MInteger, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.symbols import S, head_name, is_head


def differentiate(expression: MExpr, variable: MSymbol) -> MExpr:
    """The symbolic derivative d(expression)/d(variable), unsimplified."""
    if isinstance(expression, MSymbol):
        return MInteger(1 if expression.name == variable.name else 0)
    if expression.is_atom():
        return MInteger(0)

    name = head_name(expression)
    args = expression.args

    if name == "Plus":
        return MExprNormal(S.Plus, [differentiate(a, variable) for a in args])

    if name == "Times":
        # product rule over n factors
        terms = []
        for index in range(len(args)):
            factors = list(args)
            factors[index] = differentiate(args[index], variable)
            terms.append(MExprNormal(S.Times, factors))
        return MExprNormal(S.Plus, terms)

    if name == "Power" and len(args) == 2:
        base, exponent = args
        exponent_value = as_number(exponent)
        if exponent_value is not None:
            # d(u^c) = c*u^(c-1)*u'
            power = MExprNormal(
                S.Power,
                [base, MExprNormal(S.Plus, [exponent, MInteger(-1)])],
            )
            return MExprNormal(
                S.Times, [exponent, power, differentiate(base, variable)]
            )
        if isinstance(base, MSymbol) and base.name == "E":
            # d(e^v) = e^v * v'
            return MExprNormal(
                S.Times, [expression, differentiate(exponent, variable)]
            )
        # general u^v: u^v (v' Log[u] + v u'/u)
        log_term = MExprNormal(
            S.Times,
            [differentiate(exponent, variable), MExprNormal(S.Log, [base])],
        )
        ratio_term = MExprNormal(
            S.Times,
            [
                exponent,
                differentiate(base, variable),
                MExprNormal(S.Power, [base, MInteger(-1)]),
            ],
        )
        return MExprNormal(
            S.Times,
            [expression, MExprNormal(S.Plus, [log_term, ratio_term])],
        )

    unary_rules = {
        "Sin": lambda u: MExprNormal(S.Cos, [u]),
        "Cos": lambda u: MExprNormal(
            S.Times, [MInteger(-1), MExprNormal(S.Sin, [u])]
        ),
        "Tan": lambda u: MExprNormal(
            S.Power, [MExprNormal(S.Cos, [u]), MInteger(-2)]
        ),
        "Exp": lambda u: MExprNormal(S.Exp, [u]),
        "Log": lambda u: MExprNormal(S.Power, [u, MInteger(-1)]),
        "Sinh": lambda u: MExprNormal(S.Cosh, [u]),
        "Cosh": lambda u: MExprNormal(S.Sinh, [u]),
        "Tanh": lambda u: MExprNormal(
            S.Power, [MExprNormal(S.Cosh, [u]), MInteger(-2)]
        ),
        "Sqrt": lambda u: MExprNormal(
            S.Times,
            [
                MExprNormal(S.Power, [MInteger(2), MInteger(-1)]),
                MExprNormal(
                    S.Power,
                    [MExprNormal(S.Sqrt, [u]), MInteger(-1)],
                ),
            ],
        ),
        "ArcTan": lambda u: MExprNormal(
            S.Power,
            [
                MExprNormal(S.Plus, [MInteger(1), MExprNormal(S.Power, [u, MInteger(2)])]),
                MInteger(-1),
            ],
        ),
    }
    if name in unary_rules and len(args) == 1:
        inner = args[0]
        outer_derivative = unary_rules[name](inner)
        return MExprNormal(
            S.Times, [outer_derivative, differentiate(inner, variable)]
        )

    raise WolframEvaluationError(f"D: cannot differentiate {name}[...]")


#: ``Power[sum, n]`` is multiplied out for ``1 < n <=`` this; a higher (or
#: non-integer, or negative) power of a sum stays one factor
_MAX_EXPANDED_POWER = 16


class _Expansion:
    """``Expand`` as arithmetic on collected polynomials.

    A polynomial is a dict from monomial to numeric coefficient; a monomial
    is a sorted tuple of ``(base index, exponent)`` pairs over the bases
    interned in ``self.bases`` (a symbol, or any factor that is not a sum, a
    product or a number).  Sums add maps, products multiply them and merge
    like terms as they go, so ``(a + b + c + d)^n`` holds at most the
    C(n + 3, 3) terms of its answer at every step instead of distributing
    into 4^n products first.

    A factor is split the way a term's factors always were: a number is a
    coefficient, ``Power[b, k]`` with a positive integer ``k`` is ``b`` to
    the ``k``, anything else is a base to the first power — its arguments
    expanded first when a sum occurs in them.  Coefficients of like terms
    are exact sums for integers; machine reals are added in multiplication
    order.
    """

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.bases: list[MExpr] = []
        self._index: dict[MExpr, int] = {}

    def expression(self, node: MExpr) -> MExpr:
        """The expanded form of ``node``, not yet evaluated."""
        return self._rebuild(self.terms(node))

    def terms(self, node: MExpr) -> dict:
        value = as_number(node)
        if value is not None:
            return {(): value}
        name = head_name(node)
        if name == "Plus":
            total: dict = {}
            for argument in node.args:
                for monomial, coefficient in self.terms(argument).items():
                    total[monomial] = total.get(monomial, 0) + coefficient
            return {m: c for m, c in total.items() if c != 0}
        if name == "Times":
            product: dict = {(): 1}
            for argument in node.args:
                product = _multiply(product, self.terms(argument))
            return product
        if name == "Power" and len(node.args) == 2:
            base, exponent = node.args
            count = as_number(exponent)
            if (
                isinstance(count, int) and 1 < count <= _MAX_EXPANDED_POWER
                and _is_sum(base)
            ):
                base_terms = self.terms(base)
                product = base_terms
                for _ in range(count - 1):
                    product = _multiply(product, base_terms)
                return product
        return self._factor(node)

    def _factor(self, node: MExpr) -> dict:
        if not node.is_atom() and any(map(_contains_sum, node.args)):
            arguments = [self.expression(a) for a in node.args]
            if any(new != old for new, old in zip(arguments, node.args)):
                node = self.evaluator.evaluate(
                    MExprNormal(node.head, arguments)
                )
                value = as_number(node)
                if value is not None:
                    return {(): value}
        exponent = 1
        if is_head(node, "Power") and len(node.args) == 2:
            power = as_number(node.args[1])
            if isinstance(power, int) and power > 0:
                node, exponent = node.args[0], power
        index = self._index.get(node)
        if index is None:
            index = self._index[node] = len(self.bases)
            self.bases.append(node)
        return {((index, exponent),): 1}

    def _rebuild(self, terms: dict) -> MExpr:
        summands: list[MExpr] = []
        for monomial, coefficient in terms.items():
            factors: list[MExpr] = [
                self.bases[index] if exponent == 1 else MExprNormal(
                    S.Power, [self.bases[index], MInteger(exponent)]
                )
                for index, exponent in monomial
            ]
            if not factors:
                summands.append(number_expr(coefficient))
                continue
            if coefficient != 1:
                factors.append(number_expr(coefficient))
            factors.sort(key=canonical_order_key)
            summands.append(
                factors[0] if len(factors) == 1
                else MExprNormal(S.Times, factors)
            )
        if not summands:
            return MInteger(0)
        if len(summands) == 1:
            return summands[0]
        summands.sort(key=canonical_order_key)
        return MExprNormal(S.Plus, summands)


def _is_sum(node: MExpr) -> bool:
    """Does distributing products over sums turn ``node`` into a sum?"""
    name = head_name(node)
    if name == "Plus":
        return True
    if name == "Times":
        return any(_is_sum(a) for a in node.args)
    if name == "Power" and len(node.args) == 2:
        count = as_number(node.args[1])
        return (isinstance(count, int) and 1 < count <= _MAX_EXPANDED_POWER
                and _is_sum(node.args[0]))
    return False


def _contains_sum(node: MExpr) -> bool:
    stack = [node]
    while stack:
        node = stack.pop()
        if not node.is_atom():
            if is_head(node, "Plus"):
                return True
            stack.extend(node.args)
    return False


def _multiply(left: dict, right: dict) -> dict:
    """The product of two polynomials, like terms merged."""
    product: dict = {}
    for left_monomial, left_coefficient in left.items():
        for right_monomial, right_coefficient in right.items():
            if not left_monomial:
                monomial = right_monomial
            elif not right_monomial:
                monomial = left_monomial
            else:
                exponents = dict(left_monomial)
                for index, exponent in right_monomial:
                    exponents[index] = exponents.get(index, 0) + exponent
                monomial = tuple(sorted(exponents.items()))
            product[monomial] = (product.get(monomial, 0)
                                 + left_coefficient * right_coefficient)
    return {m: c for m, c in product.items() if c != 0}


@builtin("Expand")
def expand(evaluator, expression):
    """Symbolic polynomial expansion (the §2.1 symbolic-compute surface):
    one collected polynomial, evaluated once."""
    if len(expression.args) != 1:
        return None
    return evaluator.evaluate(
        _Expansion(evaluator).expression(expression.args[0]))


@builtin("D")
def d(evaluator, expression):
    if len(expression.args) != 2:
        return None
    subject, variable = expression.args
    if not isinstance(variable, MSymbol):
        if is_head(variable, "List") and len(variable.args) == 2:
            inner, order = variable.args
            count = as_number(order)
            if isinstance(inner, MSymbol) and isinstance(count, int):
                result = subject
                for _ in range(count):
                    result = evaluator.evaluate(
                        differentiate(result, inner)
                    )
                return result
        return None
    return evaluator.evaluate(differentiate(subject, variable))
