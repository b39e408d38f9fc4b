"""The compiled-code runtime library: one callable per primitive.

§A.6.3 shows resolved TWIR calling
``Native`PrimitiveFunction[checked_binary_plus_Integer64_Integer64]`` — "a
function defined within the compiler runtime library".  This module is that
library.  The Python backend either splices each primitive's inline template
(default) or emits a call to the callable registered here (when primitive
inlining is disabled — the §6 ablation), and the C backend declares the same
symbols.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

from repro.errors import WolframRuntimeError
from repro.mexpr.atoms import MComplex, MInteger, MReal, MString, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.symbols import S, boolean
from repro.runtime import (
    INT64_MAX,
    INT64_MIN,
    PackedArray,
    checked_binary_mod_Integer64_Integer64,
    checked_binary_plus_Integer64_Integer64,
    checked_binary_power_Integer64_Integer64,
    checked_binary_quotient_Integer64_Integer64,
    checked_binary_subtract_Integer64_Integer64,
    checked_binary_times_Integer64_Integer64,
    checked_divide_Real64,
    checked_unary_minus_Integer64,
    dgemm,
    memory_acquire,
    memory_charge,
    memory_release,
)

RUNTIME: dict[str, Callable] = {}


def primitive(name: str):
    def register(func):
        RUNTIME[name] = func
        return func

    return register


# -- checked Integer64 arithmetic (names match the paper's LLVM dump) ------------

RUNTIME["checked_binary_plus_Integer64_Integer64"] = (
    checked_binary_plus_Integer64_Integer64
)
RUNTIME["checked_binary_subtract_Integer64_Integer64"] = (
    checked_binary_subtract_Integer64_Integer64
)
RUNTIME["checked_binary_times_Integer64_Integer64"] = (
    checked_binary_times_Integer64_Integer64
)
RUNTIME["checked_binary_quotient_Integer64_Integer64"] = (
    checked_binary_quotient_Integer64_Integer64
)
RUNTIME["checked_binary_mod_Integer64_Integer64"] = (
    checked_binary_mod_Integer64_Integer64
)
RUNTIME["checked_binary_power_Integer64_Integer64"] = (
    checked_binary_power_Integer64_Integer64
)
RUNTIME["checked_unary_minus_Integer64"] = checked_unary_minus_Integer64
RUNTIME["checked_divide_Real64"] = checked_divide_Real64


# -- real / complex arithmetic ----------------------------------------------------

for _name, _func in {
    "binary_plus_Real64": lambda a, b: a + b,
    "binary_subtract_Real64": lambda a, b: a - b,
    "binary_times_Real64": lambda a, b: a * b,
    "binary_power_Real64": lambda a, b: a ** b,
    "binary_mod_Real64": lambda a, b: a - b * math.floor(a / b),
    "identity": lambda a: a,
    "plus_unchecked_Integer64": lambda a, b: a + b,
    "subtract_unchecked_Integer64": lambda a, b: a - b,
    "times_unchecked_Integer64": lambda a, b: a * b,
    "binary_min": min,
    "binary_max": max,
    "binary_atan2_Real64": math.atan2,
    "unary_minus_Real64": lambda a: -a,
    "binary_plus_ComplexReal64": lambda a, b: a + b,
    "binary_subtract_ComplexReal64": lambda a, b: a - b,
    "binary_times_ComplexReal64": lambda a, b: a * b,
    "binary_power_ComplexReal64": lambda a, b: a ** b,
    "unary_minus_ComplexReal64": lambda a: -a,
}.items():
    RUNTIME[_name] = _func


@primitive("binary_divide_ComplexReal64")
def binary_divide_ComplexReal64(a, b):
    if b == 0:
        raise WolframRuntimeError("DivideByZero", "complex division by zero")
    return a / b


# -- comparisons / logic ------------------------------------------------------------

for _name, _func in {
    "compare_less": lambda a, b: a < b,
    "compare_less_equal": lambda a, b: a <= b,
    "compare_greater": lambda a, b: a > b,
    "compare_greater_equal": lambda a, b: a >= b,
    "compare_equal": lambda a, b: a == b,
    "compare_unequal": lambda a, b: a != b,
    "boolean_not": lambda a: not a,
    "boolean_and": lambda a, b: a and b,
    "boolean_or": lambda a, b: a or b,
    "boolean_xor": lambda a, b: bool(a) != bool(b),
}.items():
    RUNTIME[_name] = _func


# -- bit operations -----------------------------------------------------------------

for _name, _func in {
    "bit_and_Integer64": lambda a, b: a & b,
    "bit_or_Integer64": lambda a, b: a | b,
    "bit_xor_Integer64": lambda a, b: a ^ b,
    "bit_shift_right_Integer64": lambda a, b: a >> b,
}.items():
    RUNTIME[_name] = _func


_U64_MASK = (1 << 64) - 1
for _name, _func in {
    "wrap_plus_UnsignedInteger64": lambda a, b: (a + b) & _U64_MASK,
    "wrap_subtract_UnsignedInteger64": lambda a, b: (a - b) & _U64_MASK,
    "wrap_times_UnsignedInteger64": lambda a, b: (a * b) & _U64_MASK,
    "bit_shift_left_UnsignedInteger64": lambda a, b: (a << b) & _U64_MASK,
}.items():
    RUNTIME[_name] = _func


@primitive("bit_shift_left_Integer64")
def bit_shift_left_Integer64(a: int, b: int) -> int:
    result = a << b
    if result > INT64_MAX or result < INT64_MIN:
        from repro.errors import IntegerOverflowError

        raise IntegerOverflowError()
    return result


# -- unary math ------------------------------------------------------------------------


def _real_or_complex(rf, cf):
    def apply(x):
        if isinstance(x, complex):
            return cf(x)
        return rf(x)

    return apply


for _name, _func in {
    "math_sin": _real_or_complex(math.sin, cmath.sin),
    "math_cos": _real_or_complex(math.cos, cmath.cos),
    "math_tan": _real_or_complex(math.tan, cmath.tan),
    "math_arcsin": _real_or_complex(math.asin, cmath.asin),
    "math_arccos": _real_or_complex(math.acos, cmath.acos),
    "math_arctan": _real_or_complex(math.atan, cmath.atan),
    "math_sinh": _real_or_complex(math.sinh, cmath.sinh),
    "math_cosh": _real_or_complex(math.cosh, cmath.cosh),
    "math_tanh": _real_or_complex(math.tanh, cmath.tanh),
    "math_exp": _real_or_complex(math.exp, cmath.exp),
    "math_log": _real_or_complex(math.log, cmath.log),
    "math_sqrt": _real_or_complex(math.sqrt, cmath.sqrt),
    "math_abs": abs,
    "complex_abs": abs,
    "cmath_sin": cmath.sin,
    "cmath_cos": cmath.cos,
    "cmath_tan": cmath.tan,
    "cmath_exp": cmath.exp,
    "cmath_sqrt": cmath.sqrt,
    "cmath_log": cmath.log,
    "math_floor": lambda x: math.floor(x),
    "math_ceiling": lambda x: math.ceil(x),
    "math_round": lambda x: round(x),
    "math_sign": lambda x: (x > 0) - (x < 0),
    "math_re": lambda x: x.real if isinstance(x, complex) else x,
    "math_im": lambda x: x.imag if isinstance(x, complex) else 0.0,
    "math_conjugate": lambda x: x.conjugate() if isinstance(x, complex) else x,
    "math_arg": lambda x: cmath.phase(complex(x)),
    "cast_Integer64_Real64": float,
    "cast_Real64_Integer64": int,
    "cast_Integer64_ComplexReal64": complex,
    "cast_Real64_ComplexReal64": complex,
    "cast_Boolean_Integer64": int,
}.items():
    RUNTIME[_name] = _func


# -- tensors ---------------------------------------------------------------------------


@primitive("tensor_create")
def tensor_create(length: int, fill) -> PackedArray:
    element_type = "Integer64" if isinstance(fill, int) else "Real64"
    memory_charge(length)
    return PackedArray([fill] * int(length), (int(length),), element_type)


@primitive("tensor_create_uninit")
def tensor_create_uninit(length: int) -> PackedArray:
    memory_charge(length)
    return PackedArray([0] * int(length), (int(length),), "Integer64")


@primitive("matrix_create")
def matrix_create(rows: int, cols: int, fill) -> PackedArray:
    element_type = "Real64" if isinstance(fill, float) else "Integer64"
    memory_charge(rows * cols)
    return PackedArray([fill] * (rows * cols), (rows, cols), element_type)


@primitive("tensor_part1")
def tensor_part1(t: PackedArray, index: int):
    data = t.data
    n = len(data)
    if index < 0:
        index += n + 1
    if index < 1 or index > n:
        raise WolframRuntimeError("PartOutOfRange", f"part {index} of {n}")
    return data[index - 1]


@primitive("tensor_part1_set")
def tensor_part1_set(t: PackedArray, index: int, value) -> PackedArray:
    data = t.data
    n = len(data)
    if index < 0:
        index += n + 1
    if index < 1 or index > n:
        raise WolframRuntimeError("PartOutOfRange", f"part {index} of {n}")
    data[index - 1] = value
    return t


@primitive("tensor_part1_unchecked")
def tensor_part1_unchecked(t: PackedArray, index: int):
    return t.data[index - 1]


@primitive("tensor_part1_set_unchecked")
def tensor_part1_set_unchecked(t: PackedArray, index: int, value) -> PackedArray:
    t.data[index - 1] = value
    return t


@primitive("tensor_part2")
def tensor_part2(t: PackedArray, i: int, j: int):
    return t.get2(i, j)


@primitive("tensor_part2_unchecked")
def tensor_part2_unchecked(t: PackedArray, i: int, j: int):
    return t.data[(i - 1) * t.dims[1] + j - 1]


@primitive("tensor_part2_set_unchecked")
def tensor_part2_set_unchecked(t: PackedArray, i: int, j: int, value) -> PackedArray:
    t.data[(i - 1) * t.dims[1] + j - 1] = value
    return t


@primitive("tensor_part2_set")
def tensor_part2_set(t: PackedArray, i: int, j: int, value) -> PackedArray:
    t.set2(i, j, value)
    return t


@primitive("tensor_row")
def tensor_row(t: PackedArray, i: int) -> PackedArray:
    rows, cols = t.dims[0], t.dims[1]
    start = t.part_index(i, rows) * cols
    return PackedArray(t.data[start : start + cols], (cols,), t.element_type)


@primitive("tensor_row_length")
def tensor_row_length(t: PackedArray, i: int) -> int:
    """``Length[t[[i]]]`` without the row: the bounds check and the count."""
    t.part_index(i, t.dims[0])
    return t.dims[1]


@primitive("tensor_row_base")
def tensor_row_base(t: PackedArray, i: int) -> int:
    """Flat index of the element before row ``i``'s first."""
    return (i - 1) * t.dims[1] - 1


@primitive("tensor_at")
def tensor_at(t: PackedArray, base: int, j: int):
    return t.data[base + j]


@primitive("tensor_at_set")
def tensor_at_set(t: PackedArray, base: int, j: int, value) -> PackedArray:
    t.data[base + j] = value
    return t


@primitive("tensor_length")
def tensor_length(t: PackedArray) -> int:
    return t.dims[0] if t.dims else 0


@primitive("tensor_copy")
def tensor_copy(t: PackedArray) -> PackedArray:
    memory_charge(t.flat_length)
    return t.copy()


@primitive("tensor_total")
def tensor_total(t: PackedArray):
    return sum(t.data)


@primitive("tensor_dot")
def tensor_dot(a: PackedArray, b: PackedArray) -> PackedArray:
    return dgemm(a, b)


@primitive("tensor_plus")
def tensor_plus(a: PackedArray, b: PackedArray) -> PackedArray:
    if a.dims != b.dims:
        raise WolframRuntimeError("ShapeMismatch", "unequal tensor shapes")
    data_b = b.data
    return PackedArray(
        [x + data_b[i] for i, x in enumerate(a.data)], a.dims, a.element_type
    )


@primitive("tensor_times")
def tensor_times(a: PackedArray, b: PackedArray) -> PackedArray:
    if a.dims != b.dims:
        raise WolframRuntimeError("ShapeMismatch", "unequal tensor shapes")
    data_b = b.data
    return PackedArray(
        [x * data_b[i] for i, x in enumerate(a.data)], a.dims, a.element_type
    )


@primitive("tensor_scale")
def tensor_scale(a: PackedArray, s) -> PackedArray:
    return PackedArray([x * s for x in a.data], a.dims, a.element_type)


@primitive("tensor_shift")
def tensor_shift(a: PackedArray, s) -> PackedArray:
    return PackedArray([x + s for x in a.data], a.dims, a.element_type)


@primitive("tensor_from_elements")
def tensor_from_elements(*elements) -> PackedArray:
    if elements and isinstance(elements[0], PackedArray):
        inner_dims = elements[0].dims
        memory_charge(len(elements) * math.prod(inner_dims))
        data: list = []
        for element in elements:
            if not isinstance(element, PackedArray) or element.dims != inner_dims:
                raise WolframRuntimeError("RaggedArray", "non-rectangular list")
            data.extend(element.data)
        return PackedArray(
            data, (len(elements), *inner_dims), elements[0].element_type
        )
    element_type = (
        "Integer64"
        if all(isinstance(e, int) and not isinstance(e, bool) for e in elements)
        else "Real64"
    )
    memory_charge(len(elements))
    return PackedArray(list(elements), (len(elements),), element_type)


@primitive("tensor_equal")
def tensor_equal(a: PackedArray, b: PackedArray) -> bool:
    return a.dims == b.dims and a.data == b.data


# -- strings ----------------------------------------------------------------------------

from repro.runtime.strings import (  # noqa: E402
    from_character_codes,
    string_utf8_bytes,
    to_character_codes,
)


@primitive("string_length")
def string_length(s: str) -> int:
    return len(s)


@primitive("string_join")
def string_join(a: str, b: str) -> str:
    return a + b


@primitive("string_utf8bytes")
def string_utf8bytes(s: str) -> PackedArray:
    data = string_utf8_bytes(s)
    return PackedArray(list(data), (len(data),), "UnsignedInteger8")


@primitive("string_to_character_codes")
def string_to_character_codes(s: str) -> PackedArray:
    codes = to_character_codes(s)
    return PackedArray(codes, (len(codes),), "Integer64")


@primitive("string_from_character_codes")
def string_from_character_codes(t: PackedArray) -> str:
    return from_character_codes(t.data)


@primitive("string_take")
def string_take(s: str, n: int) -> str:
    return s[:n] if n >= 0 else s[n:]


@primitive("string_drop")
def string_drop(s: str, n: int) -> str:
    return s[n:] if n >= 0 else s[:n]


@primitive("string_equal")
def string_equal(a: str, b: str) -> bool:
    return a == b


# -- expressions (symbolic compute inside compiled code, F8) ------------------------------


def _expr_number(node: MExpr):
    if isinstance(node, MInteger):
        return node.value
    if isinstance(node, MReal):
        return node.value
    if isinstance(node, MComplex):
        return node.value
    return None


def _number_to_expr(value) -> MExpr:
    if isinstance(value, bool):
        return boolean(value)
    if isinstance(value, int):
        return MInteger(value)
    if isinstance(value, complex):
        return MComplex(value)
    return MReal(value)


def _expr_binary(head, py_op):
    """Threaded-interpretation binary op on expressions (§4.5 Symbolic
    Computation): fold numerics directly, build symbolic nodes otherwise,
    without going through the full interpreter loop."""

    def apply(a: MExpr, b: MExpr) -> MExpr:
        na, nb = _expr_number(a), _expr_number(b)
        if na is not None and nb is not None:
            return _number_to_expr(py_op(na, nb))
        parts = []
        for item in (a, b):
            if not item.is_atom() and isinstance(item.head, MSymbol) and (
                item.head.name == head
            ):
                parts.extend(item.args)
            else:
                parts.append(item)
        return MExprNormal(MSymbol(head), parts)

    return apply


RUNTIME["expr_plus"] = _expr_binary("Plus", lambda a, b: a + b)
RUNTIME["expr_times"] = _expr_binary("Times", lambda a, b: a * b)


@primitive("expr_power")
def expr_power(a: MExpr, b: MExpr) -> MExpr:
    na, nb = _expr_number(a), _expr_number(b)
    if na is not None and nb is not None and not (
        isinstance(na, int) and isinstance(nb, int) and nb < 0
    ):
        return _number_to_expr(na ** nb)
    return MExprNormal(S.Power, [a, b])


@primitive("expr_equal")
def expr_equal(a: MExpr, b: MExpr) -> bool:
    return a == b


@primitive("expr_head")
def expr_head(a: MExpr) -> MExpr:
    return a.head


@primitive("expr_length")
def expr_length(a: MExpr) -> int:
    return 0 if a.is_atom() else len(a.args)


@primitive("expr_part")
def expr_part(a: MExpr, index: int) -> MExpr:
    if a.is_atom():
        raise WolframRuntimeError("PartOutOfRange", "Part of an atom")
    count = len(a.args)
    if index < 0:
        index += count + 1
    if index == 0:
        return a.head
    if index < 1 or index > count:
        raise WolframRuntimeError("PartOutOfRange", f"part {index} of {count}")
    return a.args[index - 1]


@primitive("expr_construct")
def expr_construct(head: MExpr, *args: MExpr) -> MExpr:
    return MExprNormal(head, list(args))


@primitive("expr_from_integer")
def expr_from_integer(value: int) -> MExpr:
    return MInteger(value)


@primitive("expr_from_real")
def expr_from_real(value: float) -> MExpr:
    return MReal(value)


@primitive("expr_from_string")
def expr_from_string(value: str) -> MExpr:
    return MString(value)


@primitive("expr_symbol")
def expr_symbol(name: str) -> MExpr:
    return MSymbol(name)


# -- structural products (§4.4 TypeProduct) -----------------------------------------------


@primitive("product_make")
def product_make(*fields):
    return tuple(fields)


@primitive("product_get1")
def product_get1(p):
    return p[0]


@primitive("product_get2")
def product_get2(p):
    return p[1]


@primitive("product_get3")
def product_get3(p):
    return p[2]


# -- random -----------------------------------------------------------------------------

import random as _random  # noqa: E402

_GENERATOR = _random.Random()


@primitive("seed_random")
def seed_random(seed: int) -> int:
    _GENERATOR.seed(seed)
    return seed


@primitive("random_real")
def random_real(lo: float, hi: float) -> float:
    return _GENERATOR.uniform(lo, hi)


@primitive("random_integer")
def random_integer(lo: int, hi: int) -> int:
    return _GENERATOR.randint(lo, hi)


# -- services ------------------------------------------------------------------------------

RUNTIME["memory_acquire"] = memory_acquire
RUNTIME["memory_release"] = memory_release
