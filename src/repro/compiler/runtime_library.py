"""The primitive table: every compiled-code primitive, defined once.

§A.6.3 shows resolved TWIR calling
``Native`PrimitiveFunction[checked_binary_plus_Integer64_Integer64]`` — "a
function defined within the compiler runtime library".  This module is that
library, and each primitive's row (a
:class:`~repro.compiler.types.environment.PrimitiveImpl`) sits next to its
callable: the Python templates the backend splices, the error its
check raises, the unchecked twin check elision may swap in, the interval
transfer of the dataflow analysis, the ``Part`` axes it proves, and the WVM
instruction.  The backends, the TWIR passes, the dataflow analysis and the
verifier read the row; none keeps a table of its own keyed by primitive
name.  Type signatures are declared against the rows in
:mod:`repro.compiler.types.builtin_env`, so adding a builtin is a row here
plus its ``declare_function`` there.

:data:`RUNTIME` is the name-keyed view generated code looks its callables
up in (``_rt['tensor_part1']``): the Python backend calls through it when
primitive inlining is disabled (the §6 ablation) or a template defers to
the library, and fault injection swaps its entries.
"""

from __future__ import annotations

import cmath
import math
import operator
import random as _random
from typing import Callable

from repro.compiler.types.environment import PrimitiveImpl
from repro.errors import WolframRuntimeError
from repro.mexpr.atoms import MComplex, MInteger, MReal, MString, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.symbols import S, boolean
from repro.runtime import (
    PackedArray,
    check_int64,
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
from repro.runtime.strings import (
    from_character_codes,
    string_utf8_bytes,
    to_character_codes,
)

#: every primitive's row, keyed by its runtime-library symbol
PRIMITIVE_IMPLS: dict[str, PrimitiveImpl] = {}


def _impl(name: str, py_inline=None, *, unchecked=None,
          checked=None, **fields) -> PrimitiveImpl:
    """Add the row of primitive ``name``.  ``unchecked`` names its twin
    (declared before it) and links the two both ways; ``checked`` names
    the primitive whose elided check one that is not a twin stands for."""
    # every primitive that acts is a store into its first operand
    row = PrimitiveImpl(name, py_inline,
                        mutates=fields.get("py_effect") is not None, **fields)
    if unchecked is not None:
        row.unchecked = PRIMITIVE_IMPLS[unchecked]
        row.unchecked.checked = row
    if checked is not None:
        row.checked = PRIMITIVE_IMPLS[checked]
    PRIMITIVE_IMPLS[name] = row
    return row


def primitive(py_inline=None, **fields):
    """Declare the decorated function the ``call`` of the primitive named
    after it."""

    def declare(function):
        _impl(function.__name__, py_inline, call=function, **fields)
        return function

    return declare


_OVERFLOW_GUARD = (
    "if {out} > 9223372036854775807 or {out} < -9223372036854775808:\n"
    "    raise IntegerOverflowError()"
)


def _zero_guard(what: str) -> str:
    return ("if {a1} == 0:\n"
            f"    raise WolframRuntimeError('DivideByZero', '{what}')")


# -- Integer64 arithmetic (checked names match the paper's LLVM dump) ---------------
# The unchecked twins run only where the dataflow interval analysis proved
# the checked guard can never fire (check elision).

_impl("plus_unchecked_Integer64", "{a0} + {a1}", call=operator.add, total=True,
      interval="add", wvm="ADD")
_impl("subtract_unchecked_Integer64", "{a0} - {a1}", call=operator.sub,
      total=True, interval="subtract", wvm="SUB")
_impl("times_unchecked_Integer64", "{a0} * {a1}", call=operator.mul,
      total=True, interval="multiply", wvm="MUL")
_impl(
    "checked_binary_plus_Integer64_Integer64",
    py_inline="{a0} + {a1}", py_guard=_OVERFLOW_GUARD,
    call=checked_binary_plus_Integer64_Integer64, error="IntegerOverflow",
    unchecked="plus_unchecked_Integer64", interval="add", wvm="ADD",
)
_impl(
    "checked_binary_subtract_Integer64_Integer64",
    py_inline="{a0} - {a1}", py_guard=_OVERFLOW_GUARD,
    call=checked_binary_subtract_Integer64_Integer64, error="IntegerOverflow",
    unchecked="subtract_unchecked_Integer64", interval="subtract", wvm="SUB",
)
_impl(
    "checked_binary_times_Integer64_Integer64",
    py_inline="{a0} * {a1}", py_guard=_OVERFLOW_GUARD,
    call=checked_binary_times_Integer64_Integer64, error="IntegerOverflow",
    unchecked="times_unchecked_Integer64", interval="multiply", wvm="MUL",
)
# a literal positive divisor decides the first test: no guard is emitted
_impl("checked_binary_quotient_Integer64_Integer64",
      py_inline="{a0} // {a1}",
      py_guard="if {a1} <= 0:\n"
               "    if {a1} == 0:\n"
               "        raise WolframRuntimeError('DivideByZero', "
               "'Quotient by zero')\n"
               "    if {a1} == -1 and {a0} == -9223372036854775808:\n"
               "        raise IntegerOverflowError()",
      call=checked_binary_quotient_Integer64_Integer64, error="DivideByZero",
      interval="quotient", wvm="QUOT")
_impl("checked_binary_mod_Integer64_Integer64",
      py_inline="{a0} % {a1}", py_guard=_zero_guard("Mod by zero"),
      call=checked_binary_mod_Integer64_Integer64, error="DivideByZero",
      interval="mod", wvm="MOD")
_impl("checked_binary_power_Integer64_Integer64",
      call=checked_binary_power_Integer64_Integer64, error="IntegerOverflow",
      wvm="POW")
_impl(
    "checked_unary_minus_Integer64",
    py_inline="-{a0}",
    py_guard="if {out} > 9223372036854775807:\n"
             "    raise IntegerOverflowError()",
    call=checked_unary_minus_Integer64, error="IntegerOverflow",
    interval="negate", wvm="Neg",
)
_impl("checked_divide_Real64",
      py_inline="{a0} / {a1}", py_guard=_zero_guard("division by zero"),
      call=checked_divide_Real64, error="DivideByZero", wvm="DIV")
_impl("power_mod_Integer64", "pow({a0}, {a1}, {a2})", call=pow)

# -- real / complex arithmetic ------------------------------------------------------

for _suffix in ("Real64", "ComplexReal64"):
    _impl(f"binary_plus_{_suffix}", "{a0} + {a1}", call=operator.add,
          total=True, wvm="ADD")
    _impl(f"binary_subtract_{_suffix}", "{a0} - {a1}",
          call=operator.sub, total=True, wvm="SUB")
    _impl(f"binary_times_{_suffix}", "{a0} * {a1}", call=operator.mul,
          total=True, wvm="MUL")
    _impl(f"unary_minus_{_suffix}", "-{a0}", call=operator.neg, total=True,
          wvm="Neg")
_impl("binary_power_Real64", "{a0} ** {a1}", call=operator.pow, wvm="POW")
_impl("binary_power_ComplexReal64", "{a0} ** {a1}",
      call=operator.pow, wvm="POW")


@primitive("{a0} / {a1}", error="DivideByZero", wvm="DIV")
def binary_divide_ComplexReal64(a, b):
    if b == 0:
        raise WolframRuntimeError("DivideByZero", "complex division by zero")
    return a / b


_impl("binary_mod_Real64", "{a0} - {a1} * _math.floor({a0} / {a1})",
      call=lambda a, b: a - b * math.floor(a / b), wvm="MOD")
_impl("binary_min", "{a0} if {a0} < {a1} else {a1}", call=min, total=True,
      interval="minimum", wvm="MIN")
_impl("binary_max", "{a1} if {a0} < {a1} else {a0}", call=max, total=True,
      interval="maximum", wvm="MAX")
# ArcTan[x, y] is the angle of the point (x, y): atan2 takes y first
_impl("binary_atan2_Real64", "_math.atan2({a1}, {a0})",
      call=lambda x, y: math.atan2(y, x))

# -- comparisons / logic ------------------------------------------------------------

for _name, _op, _call, _wvm in (
    ("compare_less", "<", operator.lt, "LT"),
    ("compare_less_equal", "<=", operator.le, "LE"),
    ("compare_greater", ">", operator.gt, "GT"),
    ("compare_greater_equal", ">=", operator.ge, "GE"),
    ("compare_equal", "==", operator.eq, "EQ"),
    ("compare_unequal", "!=", operator.ne, "NE"),
):
    _impl(_name, f"{{a0}} {_op} {{a1}}", call=_call, total=True, wvm=_wvm)
_impl("boolean_not", "not {a0}", call=operator.not_, total=True)
_impl("boolean_and", "{a0} and {a1}", call=lambda a, b: a and b, total=True,
      wvm="AND")
_impl("boolean_or", "{a0} or {a1}", call=lambda a, b: a or b, total=True,
      wvm="OR")
_impl("boolean_xor", "{a0} is not {a1}", call=lambda a, b: bool(a) != bool(b),
      total=True, wvm="XOR")

# -- bit operations -----------------------------------------------------------------

_impl("bit_and_Integer64", "{a0} & {a1}", call=operator.and_, total=True,
      interval="bit_and", wvm="BIT_AND")
_impl("bit_or_Integer64", "{a0} | {a1}", call=operator.or_, total=True,
      wvm="BIT_OR")
_impl("bit_xor_Integer64", "{a0} ^ {a1}", call=operator.xor, total=True,
      interval="bit_xor", wvm="BIT_XOR")
_impl("bit_shift_left_Integer64", "{a0} << {a1}", py_guard=_OVERFLOW_GUARD,
      call=lambda a, b: check_int64(a << b), error="IntegerOverflow",
      wvm="BIT_SHL")
_impl("bit_shift_right_Integer64", "{a0} >> {a1}", call=operator.rshift,
      wvm="BIT_SHR")

# unsigned-64 wrapping arithmetic (C-style modular semantics; FNV1a, §6)
_U64_MASK = (1 << 64) - 1
_impl("wrap_plus_UnsignedInteger64", f"({{a0}} + {{a1}}) & {_U64_MASK}",
      call=lambda a, b: (a + b) & _U64_MASK, total=True)
_impl("wrap_subtract_UnsignedInteger64", f"({{a0}} - {{a1}}) & {_U64_MASK}",
      call=lambda a, b: (a - b) & _U64_MASK, total=True)
_impl("wrap_times_UnsignedInteger64", f"({{a0}} * {{a1}}) & {_U64_MASK}",
      call=lambda a, b: (a * b) & _U64_MASK, total=True)
_impl("bit_shift_left_UnsignedInteger64", f"({{a0}} << {{a1}}) & {_U64_MASK}",
      call=lambda a, b: (a << b) & _U64_MASK)

# -- unary math and casts -----------------------------------------------------------


def _real_or_complex(rf, cf):
    def apply(x):
        if isinstance(x, complex):
            return cf(x)
        return rf(x)

    return apply


for _name, _function, _wvm in (
    ("sin", "sin", "Sin"), ("cos", "cos", "Cos"), ("tan", "tan", "Tan"),
    ("exp", "exp", "Exp"), ("log", "log", "Log"), ("sqrt", "sqrt", "Sqrt"),
    ("sinh", "sinh", "Sinh"), ("cosh", "cosh", "Cosh"),
    ("tanh", "tanh", "Tanh"), ("arcsin", "asin", "ArcSin"),
    ("arccos", "acos", "ArcCos"), ("arctan", "atan", "ArcTan"),
):
    _impl(f"math_{_name}", f"_math.{_function}({{a0}})",
          call=_real_or_complex(getattr(math, _function),
                                getattr(cmath, _function)), wvm=_wvm)
for _name in ("sin", "cos", "tan", "exp", "sqrt", "log"):
    _impl(f"cmath_{_name}", f"_cmath.{_name}({{a0}})",
          call=getattr(cmath, _name), wvm=_name.capitalize())
_impl("math_abs", "abs({a0})", call=abs, total=True,
      interval="absolute", wvm="Abs")
_impl("complex_abs", "abs({a0})", call=abs, wvm="Abs")
_impl("math_floor", "_math.floor({a0})", call=math.floor, wvm="Floor")
_impl("math_ceiling", "_math.ceil({a0})", call=math.ceil, wvm="Ceiling")
_impl("math_round", "round({a0})", call=round, wvm="Round")
_impl("math_sign", "({a0} > 0) - ({a0} < 0)", call=lambda x: (x > 0) - (x < 0),
      total=True, interval="sign", wvm="Sign")
_impl("math_re", "{a0}.real",
      call=lambda x: x.real if isinstance(x, complex) else x, total=True,
      wvm="Re")
_impl("math_im", "{a0}.imag",
      call=lambda x: x.imag if isinstance(x, complex) else 0.0, total=True,
      wvm="Im")
_impl("math_conjugate", "{a0}.conjugate()",
      call=lambda x: x.conjugate() if isinstance(x, complex) else x,
      total=True, wvm="Conjugate")
_impl("math_arg", "_cmath.phase({a0})", call=lambda x: cmath.phase(complex(x)))

_impl("identity", "{a0_bare}", call=lambda a: a, total=True, wvm="MOVE")
_impl("cast_Integer64_Real64", "float({a0})", call=float, total=True,
      wvm="CAST_REAL")
_impl("cast_Real64_Integer64", "int({a0})", call=int, wvm="CAST_INT")
_impl("cast_Integer64_ComplexReal64", "complex({a0})",
      call=complex, total=True)
_impl("cast_Real64_ComplexReal64", "complex({a0})", call=complex, total=True)
_impl("cast_Boolean_Integer64", "1 if {a0} else 0", call=int, total=True)

# -- tensors ---------------------------------------------------------------------------
# Template fields beyond ``{aN}``: ``{aN_data}`` / ``{aN_cols}`` /
# ``{aN_len}`` are the tensor's data list, column count and flat length
# (locals bound once per tensor value: ``data`` is never resized in
# place), ``{aN_zero}`` is the index operand less one, written without the
# ``+ c ... - c`` round trip when the index is ``e + c``.
#
# Storage is charged against the active guard where it is created, so a
# MemoryConstrained budget trips before the buffer exists; unguarded, the
# statement is one test of the checkpoint word.

_ROW = ((1, "row"),)
_ROW_COLUMN = ((1, "row"), (2, "column"))


@primitive(pure=False, allocates=True, wvm="TENSOR_CREATE")
def tensor_create(length: int, fill) -> PackedArray:
    element_type = "Integer64" if isinstance(fill, int) else "Real64"
    memory_charge(length)
    return PackedArray([fill] * int(length), (int(length),), element_type)


@primitive("PackedArray([0] * {a0}, ({a0},), 'Integer64')", pure=False,
           py_guard="if _armed[0]: _mem_charge({a0})", allocates=True,
           wvm="TENSOR_CREATE")
def tensor_create_uninit(length: int) -> PackedArray:
    memory_charge(length)
    return PackedArray([0] * int(length), (int(length),), "Integer64")


@primitive("PackedArray([{a2}] * ({a0} * {a1}), ({a0}, {a1}), '{elem}')",
           pure=False,
           py_guard="if _armed[0]: _mem_charge({a0} * {a1})", allocates=True)
def matrix_create(rows: int, cols: int, fill) -> PackedArray:
    element_type = "Real64" if isinstance(fill, float) else "Integer64"
    memory_charge(rows * cols)
    return PackedArray([fill] * (rows * cols), (rows, cols), element_type)


# a too-large index makes an unchecked rank-1 access raise IndexError, which
# the soft-failure path classifies as PartOutOfRange; a rank-2 one reads the
# next row instead, so it raises nothing
@primitive("{a0_data}[{a1_zero}]", error="PartOutOfRange", index_axes=_ROW,
           interval="element", wvm="TENSOR_GET")
def tensor_part1_unchecked(t: PackedArray, index: int):
    return t.data[index - 1]


@primitive("{a0_data}[{a1_zero}] if 0 < {a1} <= {a0_len} "
           "else _rt['tensor_part1']({a0}, {a1})",
           error="PartOutOfRange", unchecked="tensor_part1_unchecked",
           index_axes=_ROW, interval="element", wvm="TENSOR_GET")
def tensor_part1(t: PackedArray, index: int):
    data = t.data
    n = len(data)
    if index < 0:
        index += n + 1
    if index < 1 or index > n:
        raise WolframRuntimeError("PartOutOfRange", f"part {index} of {n}")
    return data[index - 1]


@primitive("{a0}", py_effect="{a0_data}[{a1_zero}] = {a2}", pure=False,
           error="PartOutOfRange", index_axes=_ROW, wvm="TENSOR_SET")
def tensor_part1_set_unchecked(t: PackedArray, index: int,
                               value) -> PackedArray:
    t.data[index - 1] = value
    return t


@primitive("{a0}", py_effect="if 0 < {a1} <= {a0_len}:\n"
                     "    {a0_data}[{a1_zero}] = {a2}\n"
                     "else:\n"
                     "    _rt['tensor_part1_set']({a0}, {a1}, {a2})",
           pure=False, error="PartOutOfRange",
           unchecked="tensor_part1_set_unchecked", index_axes=_ROW,
           wvm="TENSOR_SET")
def tensor_part1_set(t: PackedArray, index: int, value) -> PackedArray:
    data = t.data
    n = len(data)
    if index < 0:
        index += n + 1
    if index < 1 or index > n:
        raise WolframRuntimeError("PartOutOfRange", f"part {index} of {n}")
    data[index - 1] = value
    return t


@primitive("{a0_data}[({a1_zero}) * {a0_cols} + {a2_zero}]",
           index_axes=_ROW_COLUMN)
def tensor_part2_unchecked(t: PackedArray, i: int, j: int):
    return t.data[(i - 1) * t.dims[1] + j - 1]


@primitive("_rt['tensor_part2']({a0}, {a1}, {a2})", error="PartOutOfRange",
           unchecked="tensor_part2_unchecked", index_axes=_ROW_COLUMN)
def tensor_part2(t: PackedArray, i: int, j: int):
    return t.get2(i, j)


@primitive("{a0}",
           py_effect="{a0_data}[({a1_zero}) * {a0_cols} + {a2_zero}] = {a3}",
           pure=False, index_axes=_ROW_COLUMN)
def tensor_part2_set_unchecked(t: PackedArray, i: int, j: int,
                               value) -> PackedArray:
    t.data[(i - 1) * t.dims[1] + j - 1] = value
    return t


@primitive("{a0}", py_effect="_rt['tensor_part2_set']({a0}, {a1}, {a2}, {a3})",
           pure=False, error="PartOutOfRange",
           unchecked="tensor_part2_set_unchecked", index_axes=_ROW_COLUMN)
def tensor_part2_set(t: PackedArray, i: int, j: int, value) -> PackedArray:
    t.set2(i, j, value)
    return t


# explicit addressing for unchecked rank-2 access: the row base (the flat
# index of the element before the row's first) is its own value, so CSE
# shares it between the accesses of one row and the loop-invariant pass
# takes it out of the loop over the columns; the row base carries the row
# index's part of the proof, the access itself the column index's


@primitive("({a1_zero}) * {a0_cols} - 1", total=True, checked="tensor_part2",
           index_axes=_ROW)
def tensor_row_base(t: PackedArray, i: int) -> int:
    """Flat index of the element before row ``i``'s first."""
    return (i - 1) * t.dims[1] - 1


@primitive("{a0_data}[{a1} + {a2}]", checked="tensor_part2",
           index_axes=((2, "column"),))
def tensor_at(t: PackedArray, base: int, j: int):
    return t.data[base + j]


@primitive("{a0}", py_effect="{a0_data}[{a1} + {a2}] = {a3}", pure=False,
           checked="tensor_part2_set", index_axes=((2, "column"),))
def tensor_at_set(t: PackedArray, base: int, j: int, value) -> PackedArray:
    t.data[base + j] = value
    return t


@primitive(error="PartOutOfRange", allocates=True)
def tensor_row(t: PackedArray, i: int) -> PackedArray:
    rows, cols = t.dims[0], t.dims[1]
    start = t.part_index(i, rows) * cols
    return PackedArray(t.data[start : start + cols], (cols,), t.element_type)


@primitive(error="PartOutOfRange", interval="count")
def tensor_row_length(t: PackedArray, i: int) -> int:
    """``Length[t[[i]]]`` without the row: the bounds check and the count."""
    t.part_index(i, t.dims[0])
    return t.dims[1]


@primitive("{a0}.dims[0]", total=True, interval="count", wvm="TENSOR_LENGTH")
def tensor_length(t: PackedArray) -> int:
    return t.dims[0] if t.dims else 0


@primitive(pure=False, allocates=True)
def tensor_copy(t: PackedArray) -> PackedArray:
    memory_charge(t.flat_length)
    return t.copy()


@primitive("sum({a0_data})", wvm="TENSOR_TOTAL")
def tensor_total(t: PackedArray):
    return sum(t.data)


@primitive(allocates=True, wvm="TENSOR_DOT")
def tensor_dot(a: PackedArray, b: PackedArray) -> PackedArray:
    return dgemm(a, b)


@primitive(error="ShapeMismatch", allocates=True,
           elementwise=("binary_plus", 2))
def tensor_plus(a: PackedArray, b: PackedArray) -> PackedArray:
    if a.dims != b.dims:
        raise WolframRuntimeError("ShapeMismatch", "unequal tensor shapes")
    data_b = b.data
    return PackedArray(
        [x + data_b[i] for i, x in enumerate(a.data)], a.dims, a.element_type
    )


@primitive(error="ShapeMismatch", allocates=True,
           elementwise=("binary_times", 2))
def tensor_times(a: PackedArray, b: PackedArray) -> PackedArray:
    if a.dims != b.dims:
        raise WolframRuntimeError("ShapeMismatch", "unequal tensor shapes")
    data_b = b.data
    return PackedArray(
        [x * data_b[i] for i, x in enumerate(a.data)], a.dims, a.element_type
    )


@primitive(allocates=True, elementwise=("binary_times", 1))
def tensor_scale(a: PackedArray, s) -> PackedArray:
    return PackedArray([x * s for x in a.data], a.dims, a.element_type)


@primitive(allocates=True, elementwise=("binary_plus", 1))
def tensor_shift(a: PackedArray, s) -> PackedArray:
    return PackedArray([x + s for x in a.data], a.dims, a.element_type)


@primitive(pure=False, error="RaggedArray", allocates=True)
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


@primitive()
def tensor_equal(a: PackedArray, b: PackedArray) -> bool:
    return a.dims == b.dims and a.data == b.data


# -- strings ----------------------------------------------------------------------------

_impl("string_length", "len({a0})", call=len, total=True, interval="count")
_impl("string_join", "{a0} + {a1}", call=operator.add, total=True,
      allocates=True)


@primitive(allocates=True, element_range=(0, 0xFF))
def string_utf8bytes(s: str) -> PackedArray:
    data = string_utf8_bytes(s)
    return PackedArray(list(data), (len(data),), "UnsignedInteger8")


@primitive(allocates=True, element_range=(0, 0x10FFFF))
def string_to_character_codes(s: str) -> PackedArray:
    codes = to_character_codes(s)
    return PackedArray(codes, (len(codes),), "Integer64")


@primitive()
def string_from_character_codes(t: PackedArray) -> str:
    return from_character_codes(t.data)


@primitive("{a0}[:{a1}] if {a1} >= 0 else {a0}[{a1}:]", total=True,
           allocates=True)
def string_take(s: str, n: int) -> str:
    return s[:n] if n >= 0 else s[n:]


@primitive("{a0}[{a1}:] if {a1} >= 0 else {a0}[:{a1}]", total=True,
           allocates=True)
def string_drop(s: str, n: int) -> str:
    return s[n:] if n >= 0 else s[:n]


_impl("string_equal", "{a0} == {a1}", call=operator.eq, total=True)

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


def _expr_power(a: MExpr, b: MExpr) -> MExpr:
    na, nb = _expr_number(a), _expr_number(b)
    if na is not None and nb is not None and not (
        isinstance(na, int) and isinstance(nb, int) and nb < 0
    ):
        return _number_to_expr(na ** nb)
    return MExprNormal(S.Power, [a, b])


def _expr_part(a: MExpr, index: int) -> MExpr:
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


for _name, _call, _fields in (
    ("expr_plus", _expr_binary("Plus", operator.add), {}),
    ("expr_times", _expr_binary("Times", operator.mul), {}),
    ("expr_power", _expr_power, {}),
    ("expr_equal", operator.eq, {}),
    ("expr_head", lambda a: a.head, {}),
    ("expr_length", lambda a: 0 if a.is_atom() else len(a.args),
     {"interval": "count"}),
    ("expr_part", _expr_part, {"error": "PartOutOfRange"}),
    ("expr_construct", lambda head, *args: MExprNormal(head, list(args)), {}),
    ("expr_from_integer", MInteger, {}),
    ("expr_from_real", MReal, {}),
    ("expr_from_string", MString, {}),
    ("expr_symbol", MSymbol, {}),
):
    _impl(_name, call=_call, **_fields)

# -- structural products (§4.4 TypeProduct) -----------------------------------------------

_impl("product_make", "({args})", call=lambda *fields: tuple(fields),
      total=True)
for _position in (1, 2, 3):
    _impl(f"product_get{_position}", f"{{a0}}[{_position - 1}]",
          call=operator.itemgetter(_position - 1), total=True)

# -- random -----------------------------------------------------------------------------

_GENERATOR = _random.Random()


@primitive(pure=False)
def seed_random(seed: int) -> int:
    _GENERATOR.seed(seed)
    return seed


@primitive(pure=False, wvm="RANDOM_REAL")
def random_real(lo: float, hi: float) -> float:
    return _GENERATOR.uniform(lo, hi)


@primitive(pure=False, wvm="RANDOM_INT")
def random_integer(lo: int, hi: int) -> int:
    return _GENERATOR.randint(lo, hi)


#: ``{runtime name: callable}``: what generated code's ``_rt`` is
RUNTIME: dict[str, Callable] = {
    name: row.call for name, row in PRIMITIVE_IMPLS.items()
}
RUNTIME["memory_acquire"] = memory_acquire
RUNTIME["memory_release"] = memory_release
