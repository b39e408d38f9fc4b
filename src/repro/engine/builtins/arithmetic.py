"""Numeric builtins: arithmetic, elementary functions, integer functions.

Arithmetic is arbitrary precision: integers are Python ints, so the
interpreter is the overflow-free fallback target the compiled code reverts
to on ``IntegerOverflow`` (feature F2, the ``cfib[200]`` transcript in §2.2).
"""

from __future__ import annotations

import cmath
import math
from operator import attrgetter
from typing import Optional

from repro.engine.attributes import FLAT, LISTABLE, NUMERIC_FUNCTION, ORDERLESS, ONE_IDENTITY
from repro.engine.builtins.support import (
    NUMERIC_CONSTANTS,
    Number,
    as_number,
    boolean,
    builtin,
    number_expr,
    numeric_value,
)
from repro.mexpr.atoms import MComplex, MInteger, MReal, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.symbols import S, is_head


_VALUE = attrgetter("value")


# -- the numeric cores ---------------------------------------------------------
# Each is the one definition of what its builtin does with numbers: the
# builtin calls it, and so does the evaluator step when every argument is
# exactly an ``MInteger`` or ``MReal`` (the ``fold`` of the registration;
# see ``Evaluator.evaluate``), handing over the arguments in the order the
# builtin would have seen them.


def add(numbers) -> Number:
    """Plus's numeric core: the sum in the order given."""
    total = 0
    for number in numbers:
        total += number
    return total


def multiply(numbers) -> Number:
    """Times's numeric core: the product in the order given."""
    product = 1
    for number in numbers:
        product *= number
    return product


def _row_plus(row: tuple) -> Number:
    return row[0] if len(row) == 1 else add(row)


def _row_times(row: tuple) -> Number:
    return row[0] if len(row) == 1 else multiply(row)


def _fold_plus(values: list) -> MExpr:
    if len(values) == 1:
        return values[0]
    return number_expr(add(map(_VALUE, values)))


def _fold_times(values: list) -> MExpr:
    if len(values) == 1:
        return values[0]
    return number_expr(multiply(map(_VALUE, values)))


@builtin("Plus", FLAT, ORDERLESS, LISTABLE, ONE_IDENTITY, NUMERIC_FUNCTION,
         fold=_fold_plus, core=_row_plus)
def plus(evaluator, expression):
    if len(expression.args) == 0:
        return MInteger(0)
    if len(expression.args) == 1:
        return expression.args[0]
    numbers: list[Number] = []
    symbolic: list[MExpr] = []
    for argument in expression.args:
        value = as_number(argument)
        if value is None:
            symbolic.append(argument)
        else:
            numbers.append(value)
    numeric_total = add(numbers)
    if not symbolic:
        return number_expr(numeric_total)
    count = len(numbers)
    if count <= 1 and not (count == 1 and numeric_total == 0):
        return None  # nothing to fold
    parts = list(symbolic)
    if numeric_total != 0 or not parts:
        parts.insert(0, number_expr(numeric_total))
    if len(parts) == 1:
        return parts[0]
    return MExprNormal(S.Plus, parts)


def _reciprocal_integer(node: MExpr):
    """Match ``Power[n, -1]`` with integer n (our stand-in for Rational)."""
    if (
        is_head(node, "Power")
        and len(node.args) == 2
        and isinstance(node.args[0], MInteger)
        and node.args[1] == MInteger(-1)
        and node.args[0].value != 0
    ):
        return node.args[0].value
    return None


@builtin("Times", FLAT, ORDERLESS, LISTABLE, ONE_IDENTITY, NUMERIC_FUNCTION,
         fold=_fold_times, core=_row_times)
def times(evaluator, expression):
    if len(expression.args) == 0:
        return MInteger(1)
    if len(expression.args) == 1:
        return expression.args[0]
    numbers: list[Number] = []
    divisor = 1
    symbolic: list[MExpr] = []
    count = 0
    for argument in expression.args:
        value = as_number(argument)
        if value is None:
            reciprocal = _reciprocal_integer(argument)
            if reciprocal is not None:
                divisor *= reciprocal
                count += 1
            else:
                symbolic.append(argument)
        else:
            numbers.append(value)
    numeric_product = multiply(numbers)
    count += len(numbers)
    if divisor != 1 and not symbolic:
        if isinstance(numeric_product, int) and numeric_product % divisor == 0:
            return MInteger(numeric_product // divisor)
        return number_expr(numeric_product / divisor)
    if divisor != 1:
        # fold the numeric part; keep the symbolic factors and the divisor
        parts: list[MExpr] = []
        if numeric_product != 1:
            parts.append(number_expr(numeric_product))
        parts.extend(symbolic)
        parts.append(
            MExprNormal(S.Power, [MInteger(divisor), MInteger(-1)])
        )
        rebuilt = MExprNormal(S.Times, parts)
        if rebuilt == expression:
            return None
        return rebuilt
    if not symbolic:
        return number_expr(numeric_product)
    if numeric_product == 0 and count:
        return number_expr(0)
    if count <= 1 and not (count == 1 and numeric_product == 1):
        return None
    parts = list(symbolic)
    if numeric_product != 1 or not parts:
        parts.insert(0, number_expr(numeric_product))
    if len(parts) == 1:
        return parts[0]
    return MExprNormal(S.Times, parts)


def _power_value(base: Number, exponent: Number) -> Optional[Number]:
    """Power's numeric core on two numbers, or ``None`` where the power
    stays symbolic; ``0^-n`` raises ``ZeroDivisionError``."""
    if exponent == 1:
        return base
    if exponent == 0 and base != 0:
        return 1
    if isinstance(base, int) and isinstance(exponent, int):
        if exponent >= 0:
            return base ** exponent
        if base in (1, -1):
            return base ** (-exponent)
        # negative integer powers stay symbolic so Times can fold exact
        # integer division (we have no Rational type; see DESIGN.md)
        return None
    result = base ** exponent
    if isinstance(result, complex) and result.imag == 0:
        result = result.real
    return result


def _power(arguments) -> Optional[MExpr]:
    """Power on its evaluated arguments (the builtin and its fold)."""
    if len(arguments) != 2:
        return None
    base, exponent = arguments
    base_value, exp_value = as_number(base), as_number(exponent)
    if exp_value == 1:
        return base
    if base_value is None or exp_value is None:
        return MInteger(1) if exp_value == 0 else None
    try:
        result = _power_value(base_value, exp_value)
    except ZeroDivisionError:
        return MSymbol("ComplexInfinity")
    return None if result is None else number_expr(result)


def _row_power(row: tuple) -> Optional[Number]:
    return _power_value(*row) if len(row) == 2 else None


@builtin("Power", LISTABLE, NUMERIC_FUNCTION, fold=_power,
         core=_row_power)
def power(evaluator, expression):
    return _power(expression.args)


@builtin("Subtract", LISTABLE, NUMERIC_FUNCTION)
def subtract(evaluator, expression):
    if len(expression.args) != 2:
        return None
    minus_rhs = MExprNormal(S.Times, [MInteger(-1), expression.args[1]])
    return MExprNormal(S.Plus, [expression.args[0], minus_rhs])


@builtin("Divide", LISTABLE, NUMERIC_FUNCTION)
def divide(evaluator, expression):
    if len(expression.args) != 2:
        return None
    inverse = MExprNormal(S.Power, [expression.args[1], MInteger(-1)])
    return MExprNormal(S.Times, [expression.args[0], inverse])


@builtin("Minus", LISTABLE, NUMERIC_FUNCTION)
def minus(evaluator, expression):
    if len(expression.args) != 1:
        return None
    return MExprNormal(S.Times, [MInteger(-1), expression.args[0]])


def _real_pair(arguments):
    """The two real numbers of a ``Mod``/``Quotient`` call with a non-zero
    divisor, else ``None``."""
    if len(arguments) != 2:
        return None
    a, b = as_number(arguments[0]), as_number(arguments[1])
    if a is None or b is None or b == 0:
        return None
    if isinstance(a, complex) or isinstance(b, complex):
        return None
    return a, b


def _mod_value(a, b):
    return a - b * math.floor(a / b)


def _quotient_value(a, b):
    return math.floor(a / b)


def _mod(arguments) -> Optional[MExpr]:
    """Mod on its evaluated arguments (the builtin and its fold)."""
    pair = _real_pair(arguments)
    return None if pair is None else number_expr(_mod_value(*pair))


def _quotient(arguments) -> Optional[MExpr]:
    """Quotient on its evaluated arguments (the builtin and its fold)."""
    pair = _real_pair(arguments)
    return None if pair is None else number_expr(_quotient_value(*pair))


def _row_pair(value):
    """A two-argument core over one row of machine numbers (no complex
    among them): ``None`` for a zero divisor, as :func:`_real_pair` says."""

    def core(row: tuple) -> Optional[Number]:
        if len(row) != 2 or row[1] == 0:
            return None
        return value(*row)

    return core


@builtin("Mod", LISTABLE, NUMERIC_FUNCTION, fold=_mod,
         core=_row_pair(_mod_value))
def mod(evaluator, expression):
    return _mod(expression.args)


@builtin("Quotient", LISTABLE, NUMERIC_FUNCTION, fold=_quotient,
         core=_row_pair(_quotient_value))
def quotient(evaluator, expression):
    return _quotient(expression.args)


def _pi_multiple(node: MExpr):
    """n for expressions of the form n*Pi (or Pi itself); else None."""
    if isinstance(node, MSymbol) and node.name == "Pi":
        return 1
    if (
        is_head(node, "Times")
        and len(node.args) == 2
        and isinstance(node.args[0], MInteger)
        and node.args[1] == MSymbol("Pi")
    ):
        return node.args[0].value
    return None


#: exact values at integer multiples of Pi, keyed by function name
_EXACT_AT_PI = {
    "Sin": lambda n: MInteger(0),
    "Cos": lambda n: MInteger(1 if n % 2 == 0 else -1),
    "Tan": lambda n: MInteger(0),
}


def _unary_math(name, real_func, complex_func=None, integer_exact=None,
                binary=None):
    """One builtin ``name``; ``binary``, when given, evaluates its
    two-argument form."""

    @builtin(name, LISTABLE, NUMERIC_FUNCTION)
    def implementation(evaluator, expression, _rf=real_func, _cf=complex_func,
                       _ie=integer_exact, _name=name):
        if len(expression.args) == 2 and binary is not None:
            return binary(*expression.args)
        if len(expression.args) != 1:
            return None
        value = as_number(expression.args[0])
        if value is None:
            exact = _EXACT_AT_PI.get(_name)
            if exact is not None:
                multiple = _pi_multiple(expression.args[0])
                if multiple is not None:
                    return exact(multiple)
            return None
        if isinstance(value, complex):
            if _cf is None:
                return None
            return number_expr(_cf(value))
        if _ie is not None and isinstance(value, int):
            exact = _ie(value)
            if exact is not None:
                return exact if isinstance(exact, MExpr) else number_expr(exact)
        if isinstance(value, int):
            # exact zero results stay exact (Sin[0] -> 0)
            result = _rf(float(value))
            if (not isinstance(result, complex) and result == int(result)
                    and name in {"Abs", "Sign", "Floor", "Ceiling"}):
                return number_expr(int(result))
            return number_expr(result)
        return number_expr(_rf(value))

    return implementation


def _safe(func):
    def wrapped(x):
        try:
            return func(x)
        except ValueError:
            return cmath_fallback(func, x)
    return wrapped


def cmath_fallback(func, x):
    mapping = {math.sqrt: cmath.sqrt, math.log: cmath.log, math.asin: cmath.asin,
               math.acos: cmath.acos}
    alt = mapping.get(func)
    if alt is None:
        raise ValueError
    return alt(x)


def _arctan2(x_expr, y_expr):
    """``ArcTan[x, y]``: the angle of the point ``(x, y)``, in its own
    quadrant."""
    x, y = as_number(x_expr), as_number(y_expr)
    if x is None or y is None or isinstance(x, complex) \
            or isinstance(y, complex) or x == y == 0:
        return None
    return number_expr(math.atan2(y, x))


_unary_math("Sin", math.sin, cmath.sin, lambda n: 0 if n == 0 else None)
_unary_math("Cos", math.cos, cmath.cos, lambda n: 1 if n == 0 else None)
_unary_math("Tan", math.tan, cmath.tan, lambda n: 0 if n == 0 else None)
_unary_math("ArcSin", _safe(math.asin), cmath.asin, lambda n: 0 if n == 0 else None)
_unary_math("ArcCos", _safe(math.acos), cmath.acos)
_unary_math("ArcTan", math.atan, cmath.atan, lambda n: 0 if n == 0 else None,
            binary=_arctan2)
_unary_math("Sinh", math.sinh, cmath.sinh, lambda n: 0 if n == 0 else None)
_unary_math("Cosh", math.cosh, cmath.cosh, lambda n: 1 if n == 0 else None)
_unary_math("Tanh", math.tanh, cmath.tanh, lambda n: 0 if n == 0 else None)
_unary_math("Exp", math.exp, cmath.exp, lambda n: 1 if n == 0 else None)


def _exact_sqrt(n: int):
    """``Sqrt`` of a perfect square, exactly: ``Sqrt[-4]`` is ``2 I``."""
    root = math.isqrt(abs(n))
    if root * root != abs(n):
        return None
    if n >= 0:
        return root
    return S.I if root == 1 else MExprNormal(S.Times, [MInteger(root), S.I])


_unary_math("Sqrt", _safe(math.sqrt), cmath.sqrt, _exact_sqrt)


@builtin("Log", LISTABLE, NUMERIC_FUNCTION)
def log(evaluator, expression):
    args = expression.args
    if len(args) == 1:
        value = as_number(args[0])
        if value is None:
            return MInteger(0) if args[0] == MSymbol("E") else None
        if value == 1:
            return MInteger(0)
        if isinstance(value, complex) or value < 0:
            return number_expr(cmath.log(value))
        if value == 0:
            return None
        return number_expr(math.log(value))
    if len(args) == 2:
        base, value = (as_number(a) for a in args)
        if base is None or value is None:
            return None
        if isinstance(base, complex) or isinstance(value, complex):
            return number_expr(cmath.log(value) / cmath.log(base))
        if base <= 0 or value <= 0:
            return None
        return number_expr(math.log(value) / math.log(base))
    return None


def _log_in_base(name, base, real_func):
    """``Log10``/``Log2``: exact at an exact power of the base (like
    ``Log[1]``), a machine number at any other nonzero number."""

    @builtin(name, LISTABLE, NUMERIC_FUNCTION)
    def implementation(evaluator, expression):
        if len(expression.args) != 1:
            return None
        value = as_number(expression.args[0])
        if value is None or value == 0:
            return None
        if isinstance(value, int) and value > 0:
            exponent, rest = 0, value
            while rest % base == 0:
                exponent, rest = exponent + 1, rest // base
            if rest == 1:
                return MInteger(exponent)
        if isinstance(value, complex) or value < 0:
            return number_expr(cmath.log(value) / math.log(base))
        return number_expr(real_func(value))

    return implementation


_log_in_base("Log10", 10, math.log10)
_log_in_base("Log2", 2, math.log2)


@builtin("PowerMod", LISTABLE)
def power_mod(evaluator, expression):
    """``a^b mod m`` on integers; a negative ``b`` takes the modular
    inverse.  No inverse, or ``m == 0``: unevaluated."""
    args = expression.args
    if len(args) != 3 or not all(type(a) is MInteger for a in args):
        return None
    try:
        return MInteger(pow(*(a.value for a in args)))
    except ValueError:
        return None


@builtin("Abs", LISTABLE, NUMERIC_FUNCTION)
def abs_(evaluator, expression):
    if len(expression.args) != 1:
        return None
    value = as_number(expression.args[0])
    if value is None:
        return None
    return number_expr(abs(value))


@builtin("Sign", LISTABLE, NUMERIC_FUNCTION)
def sign(evaluator, expression):
    if len(expression.args) != 1:
        return None
    value = as_number(expression.args[0])
    if value is None or isinstance(value, complex):
        return None
    return MInteger((value > 0) - (value < 0))


@builtin("Floor", LISTABLE, NUMERIC_FUNCTION)
def floor(evaluator, expression):
    if len(expression.args) != 1:
        return None
    value = as_number(expression.args[0])
    if value is None or isinstance(value, complex):
        return None
    return MInteger(math.floor(value))


@builtin("Ceiling", LISTABLE, NUMERIC_FUNCTION)
def ceiling(evaluator, expression):
    if len(expression.args) != 1:
        return None
    value = as_number(expression.args[0])
    if value is None or isinstance(value, complex):
        return None
    return MInteger(math.ceil(value))


@builtin("Round", LISTABLE, NUMERIC_FUNCTION)
def round_(evaluator, expression):
    if len(expression.args) != 1:
        return None
    value = as_number(expression.args[0])
    if value is None or isinstance(value, complex):
        return None
    # banker's rounding matches Wolfram's Round on halves
    return MInteger(round(value))


@builtin("IntegerPart", LISTABLE, NUMERIC_FUNCTION)
def integer_part(evaluator, expression):
    if len(expression.args) != 1:
        return None
    value = as_number(expression.args[0])
    if value is None or isinstance(value, complex):
        return None
    return MInteger(int(value))


@builtin("FractionalPart", LISTABLE, NUMERIC_FUNCTION)
def fractional_part(evaluator, expression):
    if len(expression.args) != 1:
        return None
    value = as_number(expression.args[0])
    if value is None or isinstance(value, complex):
        return None
    return number_expr(value - int(value))


def _variadic_extremum(name, reducer):
    @builtin(name, FLAT, ORDERLESS, ONE_IDENTITY, NUMERIC_FUNCTION)
    def implementation(evaluator, expression, _reduce=reducer):
        values = []
        for argument in expression.args:
            if is_head(argument, "List"):
                inner = [as_number(x) for x in argument.args]
                if any(v is None for v in inner):
                    return None
                values.extend(inner)
            else:
                value = as_number(argument)
                if value is None:
                    return None
                values.append(value)
        if not values:
            return None
        if any(isinstance(v, complex) for v in values):
            return None
        return number_expr(_reduce(values))

    return implementation


_variadic_extremum("Max", max)
_variadic_extremum("Min", min)


@builtin("N", NUMERIC_FUNCTION)
def n(evaluator, expression):
    if len(expression.args) != 1:
        return None
    return _numericize(expression.args[0])


def _numericize(node: MExpr) -> MExpr:
    if isinstance(node, MInteger):
        return MReal(float(node.value))
    if isinstance(node, (MReal, MComplex)):
        return node
    if isinstance(node, MSymbol):
        constant = NUMERIC_CONSTANTS.get(node.name)
        return node if constant is None else MReal(constant)
    if node.is_atom():
        return node
    return MExprNormal(node.head, [_numericize(a) for a in node.args])


@builtin("Re", LISTABLE, NUMERIC_FUNCTION)
def re(evaluator, expression):
    if len(expression.args) != 1:
        return None
    value = as_number(expression.args[0])
    if value is None:
        return None
    if isinstance(value, complex):
        return number_expr(value.real)
    return expression.args[0]


@builtin("Im", LISTABLE, NUMERIC_FUNCTION)
def im(evaluator, expression):
    if len(expression.args) != 1:
        return None
    value = as_number(expression.args[0])
    if value is None:
        return None
    if isinstance(value, complex):
        return number_expr(value.imag)
    return MInteger(0)


@builtin("Conjugate", LISTABLE, NUMERIC_FUNCTION)
def conjugate(evaluator, expression):
    if len(expression.args) != 1:
        return None
    value = as_number(expression.args[0])
    if value is None:
        return None
    if isinstance(value, complex):
        return number_expr(value.conjugate())
    return expression.args[0]


@builtin("Arg", LISTABLE, NUMERIC_FUNCTION)
def arg(evaluator, expression):
    if len(expression.args) != 1:
        return None
    value = as_number(expression.args[0])
    if value is None:
        return None
    return number_expr(cmath.phase(complex(value)))


@builtin("Factorial", LISTABLE, NUMERIC_FUNCTION)
def factorial(evaluator, expression):
    if len(expression.args) != 1:
        return None
    value = as_number(expression.args[0])
    if not isinstance(value, int) or value < 0:
        return None
    return MInteger(math.factorial(value))


@builtin("Fibonacci", LISTABLE, NUMERIC_FUNCTION)
def fibonacci(evaluator, expression):
    if len(expression.args) != 1:
        return None
    value = as_number(expression.args[0])
    if not isinstance(value, int) or value < 0:
        return None
    a, b = 0, 1
    for _ in range(value):
        a, b = b, a + b
    return MInteger(a)


@builtin("GCD", FLAT, ORDERLESS, LISTABLE)
def gcd(evaluator, expression):
    values = [as_number(a) for a in expression.args]
    if not values or not all(isinstance(v, int) for v in values):
        return None
    return MInteger(math.gcd(*values))


@builtin("LCM", FLAT, ORDERLESS, LISTABLE)
def lcm(evaluator, expression):
    values = [as_number(a) for a in expression.args]
    if not values or not all(isinstance(v, int) for v in values):
        return None
    return MInteger(math.lcm(*values))


def _bit_op(name, op):
    @builtin(name, FLAT, ORDERLESS if name in {"BitAnd", "BitOr", "BitXor"} else ONE_IDENTITY)
    def implementation(evaluator, expression, _op=op):
        values = [as_number(a) for a in expression.args]
        if len(values) < 2 or not all(isinstance(v, int) for v in values):
            return None
        result = values[0]
        for value in values[1:]:
            result = _op(result, value)
        return MInteger(result)

    return implementation


_bit_op("BitAnd", lambda a, b: a & b)
_bit_op("BitOr", lambda a, b: a | b)
_bit_op("BitXor", lambda a, b: a ^ b)


@builtin("BitShiftLeft", LISTABLE)
def bit_shift_left(evaluator, expression):
    values = [as_number(a) for a in expression.args]
    if len(values) != 2 or not all(isinstance(v, int) for v in values):
        return None
    return MInteger(values[0] << values[1])


@builtin("BitShiftRight", LISTABLE)
def bit_shift_right(evaluator, expression):
    values = [as_number(a) for a in expression.args]
    if len(values) != 2 or not all(isinstance(v, int) for v in values):
        return None
    return MInteger(values[0] >> values[1])


@builtin("EvenQ", LISTABLE)
def even_q(evaluator, expression):
    if len(expression.args) != 1:
        return None
    value = as_number(expression.args[0])
    return boolean(isinstance(value, int) and value % 2 == 0)


@builtin("OddQ", LISTABLE)
def odd_q(evaluator, expression):
    if len(expression.args) != 1:
        return None
    value = as_number(expression.args[0])
    return boolean(isinstance(value, int) and value % 2 == 1)


@builtin("PrimeQ", LISTABLE)
def prime_q(evaluator, expression):
    if len(expression.args) != 1:
        return None
    value = as_number(expression.args[0])
    if not isinstance(value, int):
        return boolean(False)
    from repro.runtime.primes import is_probable_prime

    return boolean(is_probable_prime(value))


@builtin("Complex")
def complex_(evaluator, expression):
    if len(expression.args) != 2:
        return None
    re_value, im_value = (as_number(a) for a in expression.args)
    if re_value is None or im_value is None:
        return None
    if isinstance(re_value, complex) or isinstance(im_value, complex):
        return None
    if im_value == 0:
        return number_expr(re_value)
    return MComplex(complex(re_value, im_value))


@builtin("Boole", LISTABLE)
def boole(evaluator, expression):
    if len(expression.args) != 1:
        return None
    argument = expression.args[0]
    if isinstance(argument, MSymbol) and argument.name in ("True", "False"):
        return MInteger(1 if argument.name == "True" else 0)
    return None
