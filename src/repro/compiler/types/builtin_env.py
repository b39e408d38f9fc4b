"""The default builtin type environment (§4.4).

Declares the compilable surface of the language: every source function the
new compiler supports, with its overloads (by type, arity, and return type)
and implementations.  Implementations are either :class:`PrimitiveImpl`
records — inline templates plus runtime-library callables — or Wolfram
``Function`` expressions that the compiler instantiates and compiles
(§4.5 Function Resolution), like the paper's container ``Min``:

    tyEnv["declareFunction", Min, TypeForAll[...]@Function[{arry}, Fold[Min, arry]]]
"""

from __future__ import annotations

from repro.compiler.types.environment import PrimitiveImpl, TypeEnvironment
from repro.compiler.types.specifier import (
    AtomicType,
    fn,
    forall,
    tensor,
    ty,
)
from repro.mexpr.parser import parse

I64 = ty("Integer64")
R64 = ty("Real64")
C64 = ty("ComplexReal64")
BOOL = ty("Boolean")
STR = ty("String")
EXPR = ty("Expression")
VOID = ty("Void")

_OVERFLOW_GUARD = (
    "if {out} > 9223372036854775807 or {out} < -9223372036854775808:\n"
    "    raise IntegerOverflowError()"
)

#: every primitive implementation, keyed by runtime-library symbol
PRIMITIVE_IMPLS: dict[str, PrimitiveImpl] = {}


def _impl(runtime_name: str, py_inline=None, c_inline=None, pure=True,
          py_guard=None, py_effect=None, total=False) -> PrimitiveImpl:
    # every primitive that acts is a store into its first operand
    impl = PrimitiveImpl(runtime_name, py_inline, c_inline, pure,
                         py_guard, py_effect, total,
                         mutates=py_effect is not None)
    PRIMITIVE_IMPLS[runtime_name] = impl
    return impl


def _zero_guard(what: str) -> str:
    return ("if {a1} == 0:\n"
            f"    raise WolframRuntimeError('DivideByZero', '{what}')")


# -- checked Integer64 arithmetic -------------------------------------------------

_impl(
    "checked_binary_plus_Integer64_Integer64",
    py_inline="{a0} + {a1}", py_guard=_OVERFLOW_GUARD,
    c_inline="if (__builtin_add_overflow({a0}, {a1}, &{out})) "
             "wolfram_rt_throw(RTERR_INTEGER_OVERFLOW);",
)
_impl(
    "checked_binary_subtract_Integer64_Integer64",
    py_inline="{a0} - {a1}", py_guard=_OVERFLOW_GUARD,
    c_inline="if (__builtin_sub_overflow({a0}, {a1}, &{out})) "
             "wolfram_rt_throw(RTERR_INTEGER_OVERFLOW);",
)
_impl(
    "checked_binary_times_Integer64_Integer64",
    py_inline="{a0} * {a1}", py_guard=_OVERFLOW_GUARD,
    c_inline="if (__builtin_mul_overflow({a0}, {a1}, &{out})) "
             "wolfram_rt_throw(RTERR_INTEGER_OVERFLOW);",
)
_impl("checked_binary_quotient_Integer64_Integer64",
      py_inline="{a0} // {a1}", py_guard=_zero_guard("Quotient by zero"),
      c_inline="{out} = wolfram_rt_quotient_i64({a0}, {a1});")
_impl("checked_binary_mod_Integer64_Integer64",
      py_inline="{a0} % {a1}", py_guard=_zero_guard("Mod by zero"),
      c_inline="{out} = wolfram_rt_mod_i64({a0}, {a1});")
_impl("checked_binary_power_Integer64_Integer64",
      c_inline="{out} = wolfram_rt_power_i64({a0}, {a1});")
_impl(
    "checked_unary_minus_Integer64",
    py_inline="-{a0}",
    py_guard="if {out} > 9223372036854775807:\n"
             "    raise IntegerOverflowError()",
    c_inline="{out} = wolfram_rt_negate_i64({a0});",
)
_impl("checked_divide_Real64",
      py_inline="{a0} / {a1}", py_guard=_zero_guard("division by zero"),
      c_inline="{out} = wolfram_rt_divide_r64({a0}, {a1});")

# -- real / complex arithmetic ------------------------------------------------------

for _suffix, _t in (("Real64", "double"), ("ComplexReal64", "double _Complex")):
    _impl(f"binary_plus_{_suffix}", "{a0} + {a1}",
          "{out} = {a0} + {a1};", total=True)
    _impl(f"binary_subtract_{_suffix}", "{a0} - {a1}",
          "{out} = {a0} - {a1};", total=True)
    _impl(f"binary_times_{_suffix}", "{a0} * {a1}",
          "{out} = {a0} * {a1};", total=True)
_impl("binary_power_Real64", "{a0} ** {a1}",
      "{out} = pow({a0}, {a1});")
_impl("binary_power_ComplexReal64", "{a0} ** {a1}",
      "{out} = cpow({a0}, {a1});")
_impl("binary_divide_ComplexReal64", "{a0} / {a1}",
      "{out} = {a0} / {a1};")
_impl("binary_mod_Real64", "{a0} - {a1} * _math.floor({a0} / {a1})",
      "{out} = {a0} - {a1} * floor({a0} / {a1});")
_impl("binary_min", "{a0} if {a0} < {a1} else {a1}",
      "{out} = ({a0} < {a1}) ? {a0} : {a1};", total=True)
_impl("binary_max", "{a1} if {a0} < {a1} else {a0}",
      "{out} = ({a0} < {a1}) ? {a1} : {a0};", total=True)
_impl("binary_atan2_Real64", "_math.atan2({a0}, {a1})",
      "{out} = atan2({a0}, {a1});")
_impl("unary_minus_Real64", "-{a0}", "{out} = -{a0};", total=True)
_impl("unary_minus_ComplexReal64", "-{a0}", "{out} = -{a0};", total=True)

# -- comparisons / logic ----------------------------------------------------------------

_impl("compare_less", "{a0} < {a1}", "{out} = {a0} < {a1};", total=True)
_impl("compare_less_equal", "{a0} <= {a1}", "{out} = {a0} <= {a1};",
      total=True)
_impl("compare_greater", "{a0} > {a1}", "{out} = {a0} > {a1};", total=True)
_impl("compare_greater_equal", "{a0} >= {a1}", "{out} = {a0} >= {a1};",
      total=True)
_impl("compare_equal", "{a0} == {a1}", "{out} = {a0} == {a1};", total=True)
_impl("compare_unequal", "{a0} != {a1}", "{out} = {a0} != {a1};",
      total=True)
_impl("boolean_not", "not {a0}", "{out} = !{a0};", total=True)
_impl("boolean_and", "{a0} and {a1}", "{out} = {a0} && {a1};", total=True)
_impl("boolean_or", "{a0} or {a1}", "{out} = {a0} || {a1};", total=True)
_impl("boolean_xor", "{a0} is not {a1}", "{out} = {a0} != {a1};",
      total=True)

# -- bit operations ------------------------------------------------------------------------

_impl("bit_and_Integer64", "{a0} & {a1}", "{out} = {a0} & {a1};",
      total=True)
_impl("bit_or_Integer64", "{a0} | {a1}", "{out} = {a0} | {a1};",
      total=True)
_impl("bit_xor_Integer64", "{a0} ^ {a1}", "{out} = {a0} ^ {a1};",
      total=True)
_impl(
    "bit_shift_left_Integer64",
    py_inline="{a0} << {a1}", py_guard=_OVERFLOW_GUARD,
    c_inline="{out} = {a0} << {a1};",
)
_impl("bit_shift_right_Integer64", "{a0} >> {a1}",
      "{out} = {a0} >> {a1};")

# -- unary math -------------------------------------------------------------------------------

for _py_name, _c_name in (
    ("sin", "sin"), ("cos", "cos"), ("tan", "tan"), ("exp", "exp"),
    ("log", "log"), ("sqrt", "sqrt"), ("sinh", "sinh"), ("cosh", "cosh"),
    ("tanh", "tanh"),
):
    _impl(f"math_{_py_name}", f"_math.{_py_name}({{a0}})",
          f"{{out}} = {_c_name}({{a0}});")
_impl("math_arcsin", "_math.asin({a0})", "{out} = asin({a0});")
_impl("math_arccos", "_math.acos({a0})", "{out} = acos({a0});")
_impl("math_arctan", "_math.atan({a0})", "{out} = atan({a0});")
_impl("math_abs", "abs({a0})", "{out} = fabs({a0});", total=True)
_impl("math_floor", "_math.floor({a0})", "{out} = (int64_t)floor({a0});")
_impl("math_ceiling", "_math.ceil({a0})", "{out} = (int64_t)ceil({a0});")
_impl("math_round", "round({a0})", "{out} = llround({a0});")
_impl("math_sign", "({a0} > 0) - ({a0} < 0)",
      "{out} = ({a0} > 0) - ({a0} < 0);", total=True)
_impl("math_re", "{a0}.real", "{out} = creal({a0});", total=True)
_impl("math_im", "{a0}.imag", "{out} = cimag({a0});", total=True)
_impl("math_conjugate", "{a0}.conjugate()", "{out} = conj({a0});",
      total=True)
_impl("math_arg", "_cmath.phase({a0})", "{out} = carg({a0});")
_impl("complex_abs", "abs({a0})", "{out} = cabs({a0});")
for _fname in ("sin", "cos", "tan", "exp", "sqrt", "log"):
    _impl(f"cmath_{_fname}", f"_cmath.{_fname}({{a0}})",
          f"{{out}} = c{_fname}({{a0}});")

_impl("identity", "{a0_bare}", "{out} = {a0};", total=True)
# unchecked Integer64 arithmetic, used only where the dataflow interval
# analysis proves the checked guard can never fire (check elision)
_impl("plus_unchecked_Integer64", "{a0} + {a1}",
      "{out} = {a0} + {a1};", total=True)
_impl("subtract_unchecked_Integer64", "{a0} - {a1}",
      "{out} = {a0} - {a1};", total=True)
_impl("times_unchecked_Integer64", "{a0} * {a1}",
      "{out} = {a0} * {a1};", total=True)

# unsigned-64 wrapping arithmetic (C-style modular semantics; FNV1a, §6)
_U64_MASK = "18446744073709551615"
_impl("wrap_plus_UnsignedInteger64",
      "({a0} + {a1}) & " + _U64_MASK,
      "{out} = {a0} + {a1};", total=True)
_impl("wrap_subtract_UnsignedInteger64",
      "({a0} - {a1}) & " + _U64_MASK,
      "{out} = {a0} - {a1};", total=True)
_impl("wrap_times_UnsignedInteger64",
      "({a0} * {a1}) & " + _U64_MASK,
      "{out} = {a0} * {a1};", total=True)
_impl("bit_shift_left_UnsignedInteger64",
      "({a0} << {a1}) & " + _U64_MASK,
      "{out} = {a0} << {a1};")
_impl("cast_Integer64_Real64", "float({a0})",
      "{out} = (double){a0};", total=True)
_impl("cast_Real64_Integer64", "int({a0})",
      "{out} = (int64_t){a0};")
_impl("cast_Integer64_ComplexReal64", "complex({a0})",
      "{out} = (double _Complex){a0};", total=True)
_impl("cast_Real64_ComplexReal64", "complex({a0})",
      "{out} = (double _Complex){a0};", total=True)
_impl("cast_Boolean_Integer64", "1 if {a0} else 0",
      "{out} = {a0} ? 1 : 0;", total=True)
_impl("power_mod_Integer64", "pow({a0}, {a1}, {a2})",
      "{out} = wolfram_rt_powmod_i64({a0}, {a1}, {a2});")

# -- tensors -----------------------------------------------------------------------------------
# Template fields beyond ``{aN}``: ``{aN_data}`` / ``{aN_cols}`` /
# ``{aN_len}`` are the tensor's data list, column count and flat length
# (locals bound once per tensor value: ``data`` is never resized in
# place), ``{aN_zero}`` is the index operand less one, written without the
# ``+ c ... - c`` round trip when the index is ``e + c``.

# storage is charged against the active guard where it is created, so a
# MemoryConstrained budget trips before the buffer exists; unguarded, the
# statement is one test of the checkpoint word
_impl("tensor_create", pure=False,
      c_inline="{out} = wolfram_rt_tensor_create({a0}, {a1});")
_impl("tensor_create_uninit", pure=False,
      py_guard="if _armed[0]: _mem_charge({a0})",
      py_inline="PackedArray([0] * {a0}, ({a0},), 'Integer64')",
      c_inline="{out} = wolfram_rt_tensor_create_uninit({a0});")
_impl("matrix_create", pure=False,
      py_guard="if _armed[0]: _mem_charge({a0} * {a1})",
      py_inline="PackedArray([{a2}] * ({a0} * {a1}), ({a0}, {a1}), '{elem}')",
      c_inline="{out} = wolfram_rt_matrix_create({a0}, {a1}, {a2});")
_impl(
    "tensor_part1",
    py_inline="{a0_data}[{a1_zero}] if 0 < {a1} <= {a0_len} "
              "else _rt['tensor_part1']({a0}, {a1})",
    c_inline="{out} = wolfram_rt_tensor_part1({a0}, {a1});",
)
_impl(
    "tensor_part1_unchecked",
    py_inline="{a0_data}[{a1_zero}]",
    c_inline="{out} = {a0}->data.i64[{a1} - 1];",
)
_impl(
    "tensor_part1_set",
    py_effect="if 0 < {a1} <= {a0_len}:\n"
              "    {a0_data}[{a1_zero}] = {a2}\n"
              "else:\n"
              "    _rt['tensor_part1_set']({a0}, {a1}, {a2})",
    py_inline="{a0}",
    pure=False,
    c_inline="wolfram_rt_tensor_part1_set({a0}, {a1}, {a2}); {out} = {a0};",
)
_impl(
    "tensor_part1_set_unchecked",
    py_effect="{a0_data}[{a1_zero}] = {a2}", py_inline="{a0}",
    pure=False,
    c_inline="{a0}->data.i64[{a1} - 1] = {a2}; {out} = {a0};",
)
_impl("tensor_part2",
      py_inline="_rt['tensor_part2']({a0}, {a1}, {a2})",
      c_inline="{out} = wolfram_rt_tensor_part2({a0}, {a1}, {a2});")
_impl(
    "tensor_part2_unchecked",
    py_inline="{a0_data}[({a1_zero}) * {a0_cols} + {a2_zero}]",
    c_inline="{out} = {a0}->data.i64[({a1} - 1) * {a0}->dims[1] + {a2} - 1];",
)
_impl("tensor_part2_set", pure=False,
      py_effect="_rt['tensor_part2_set']({a0}, {a1}, {a2}, {a3})",
      py_inline="{a0}",
      c_inline="wolfram_rt_tensor_part2_set({a0}, {a1}, {a2}, {a3}); "
               "{out} = {a0};")
_impl(
    "tensor_part2_set_unchecked",
    py_effect="{a0_data}[({a1_zero}) * {a0_cols} + {a2_zero}] = {a3}",
    py_inline="{a0}",
    pure=False,
    c_inline="{a0}->data.i64[({a1} - 1) * {a0}->dims[1] + {a2} - 1] = {a3}; "
             "{out} = {a0};",
)
# explicit addressing for unchecked rank-2 access: the row base (the flat
# index of the element before the row's first) is its own value, so CSE
# shares it between the accesses of one row and the loop-invariant pass
# takes it out of the loop over the columns
_impl("tensor_row_base", py_inline="({a1_zero}) * {a0_cols} - 1",
      c_inline="{out} = ({a1} - 1) * {a0}->dims[1] - 1;", total=True)
_impl("tensor_at", py_inline="{a0_data}[{a1} + {a2}]",
      c_inline="{out} = {a0}->data.i64[{a1} + {a2}];")
_impl("tensor_at_set", pure=False,
      py_effect="{a0_data}[{a1} + {a2}] = {a3}", py_inline="{a0}",
      c_inline="{a0}->data.i64[{a1} + {a2}] = {a3}; {out} = {a0};")
_impl("tensor_row", c_inline="{out} = wolfram_rt_tensor_row({a0}, {a1});")
_impl("tensor_row_length",
      c_inline="{out} = wolfram_rt_tensor_row_length({a0}, {a1});")
_impl("tensor_length", py_inline="{a0}.dims[0]",
      c_inline="{out} = {a0}->dims[0];", total=True)
_impl("tensor_copy", pure=False,
      c_inline="{out} = wolfram_rt_tensor_copy({a0});")
_impl("tensor_total", py_inline="sum({a0_data})",
      c_inline="{out} = wolfram_rt_tensor_total({a0});")
_impl("tensor_dot", c_inline="{out} = wolfram_rt_dgemm({a0}, {a1});")
_impl("tensor_plus", c_inline="{out} = wolfram_rt_tensor_plus({a0}, {a1});")
_impl("tensor_times", c_inline="{out} = wolfram_rt_tensor_times({a0}, {a1});")
_impl("tensor_scale", c_inline="{out} = wolfram_rt_tensor_scale({a0}, {a1});")
_impl("tensor_shift", c_inline="{out} = wolfram_rt_tensor_shift({a0}, {a1});")
_impl("tensor_from_elements", pure=False,
      c_inline="{out} = wolfram_rt_tensor_pack({nargs}, {args});")
_impl("tensor_equal", c_inline="{out} = wolfram_rt_tensor_equal({a0}, {a1});")

# -- strings ---------------------------------------------------------------------------------------

_impl("string_length", py_inline="len({a0})",
      c_inline="{out} = wolfram_rt_string_length({a0});", total=True)
_impl("string_join", py_inline="{a0} + {a1}",
      c_inline="{out} = wolfram_rt_string_join({a0}, {a1});", total=True)
_impl("string_utf8bytes",
      c_inline="{out} = wolfram_rt_string_utf8({a0});")
_impl("string_to_character_codes",
      c_inline="{out} = wolfram_rt_string_codes({a0});")
_impl("string_from_character_codes",
      c_inline="{out} = wolfram_rt_string_from_codes({a0});")
_impl("string_take", py_inline="{a0}[:{a1}] if {a1} >= 0 else {a0}[{a1}:]",
      c_inline="{out} = wolfram_rt_string_take({a0}, {a1});", total=True)
_impl("string_drop", py_inline="{a0}[{a1}:] if {a1} >= 0 else {a0}[:{a1}]",
      c_inline="{out} = wolfram_rt_string_drop({a0}, {a1});", total=True)
_impl("string_equal", py_inline="{a0} == {a1}",
      c_inline="{out} = wolfram_rt_string_equal({a0}, {a1});", total=True)

# -- expressions (F8) ---------------------------------------------------------------------------------

for _expr_op in ("expr_plus", "expr_times", "expr_power", "expr_equal",
                 "expr_head", "expr_length", "expr_part", "expr_construct",
                 "expr_from_integer", "expr_from_real", "expr_from_string",
                 "expr_symbol"):
    _impl(_expr_op, c_inline="{out} = wolfram_rt_" + _expr_op + "({args});")

# -- random / services -----------------------------------------------------------------------------------

# structural products compile to tuples (§4.4 TypeProduct)
_impl("product_make", "({args})",
      c_inline=None, total=True)
_impl("product_get1", "{a0}[0]", "{out} = {a0}.f1;", total=True)
_impl("product_get2", "{a0}[1]", "{out} = {a0}.f2;", total=True)
_impl("product_get3", "{a0}[2]", "{out} = {a0}.f3;", total=True)

_impl("random_real", pure=False,
      c_inline="{out} = wolfram_rt_random_real({a0}, {a1});")
_impl("random_integer", pure=False,
      c_inline="{out} = wolfram_rt_random_integer({a0}, {a1});")
_impl("seed_random", pure=False,
      c_inline="{out} = wolfram_rt_seed_random({a0});")


def _p(name: str) -> PrimitiveImpl:
    return PRIMITIVE_IMPLS[name]


def build_default_environment() -> TypeEnvironment:
    """Construct the compiler's default builtin type environment."""
    env = TypeEnvironment()

    # ---- arithmetic -----------------------------------------------------------
    env.declare_function("Plus", fn([I64, I64], I64),
                         _p("checked_binary_plus_Integer64_Integer64"))
    env.declare_function("Plus", fn([R64, R64], R64), _p("binary_plus_Real64"))
    env.declare_function("Plus", fn([C64, C64], C64),
                         _p("binary_plus_ComplexReal64"))
    env.declare_function("Plus", fn([EXPR, EXPR], EXPR), _p("expr_plus"))
    env.declare_function(
        "Plus",
        forall(["a", "r"], fn([tensor("a", "r"), tensor("a", "r")], tensor("a", "r")),
               [("a", "Number")]),
        _p("tensor_plus"),
    )
    env.declare_function(
        "Plus",
        forall(["a", "r"], fn([tensor("a", "r"), "a"], tensor("a", "r")),
               [("a", "Number")]),
        _p("tensor_shift"),
    )
    env.declare_function(
        "Plus",
        forall(["a", "r"], fn(["a", tensor("a", "r")], tensor("a", "r")),
               [("a", "Number")]),
        parse("Function[{s, t}, Plus[t, s]]"),
        inline_always=True,
    )

    env.declare_function("Subtract", fn([I64, I64], I64),
                         _p("checked_binary_subtract_Integer64_Integer64"))
    env.declare_function("Subtract", fn([R64, R64], R64),
                         _p("binary_subtract_Real64"))
    env.declare_function("Subtract", fn([C64, C64], C64),
                         _p("binary_subtract_ComplexReal64"))

    env.declare_function("Times", fn([I64, I64], I64),
                         _p("checked_binary_times_Integer64_Integer64"))
    env.declare_function("Times", fn([R64, R64], R64), _p("binary_times_Real64"))
    env.declare_function("Times", fn([C64, C64], C64),
                         _p("binary_times_ComplexReal64"))
    env.declare_function("Times", fn([EXPR, EXPR], EXPR), _p("expr_times"))
    env.declare_function(
        "Times",
        forall(["a", "r"], fn([tensor("a", "r"), tensor("a", "r")], tensor("a", "r")),
               [("a", "Number")]),
        _p("tensor_times"),
    )
    env.declare_function(
        "Times",
        forall(["a", "r"], fn([tensor("a", "r"), "a"], tensor("a", "r")),
               [("a", "Number")]),
        _p("tensor_scale"),
    )
    env.declare_function(
        "Times",
        forall(["a", "r"], fn(["a", tensor("a", "r")], tensor("a", "r")),
               [("a", "Number")]),
        parse("Function[{s, t}, Times[t, s]]"),
        inline_always=True,
    )

    env.declare_function("Divide", fn([R64, R64], R64), _p("checked_divide_Real64"))
    env.declare_function("Divide", fn([C64, C64], C64),
                         _p("binary_divide_ComplexReal64"))

    env.declare_function("Power", fn([I64, I64], I64),
                         _p("checked_binary_power_Integer64_Integer64"))
    env.declare_function("Power", fn([R64, R64], R64), _p("binary_power_Real64"))
    env.declare_function("Power", fn([R64, I64], R64), _p("binary_power_Real64"))
    env.declare_function("Power", fn([C64, C64], C64),
                         _p("binary_power_ComplexReal64"))
    env.declare_function("Power", fn([C64, I64], C64),
                         _p("binary_power_ComplexReal64"))
    env.declare_function("Power", fn([EXPR, EXPR], EXPR), _p("expr_power"))

    env.declare_function("Minus", fn([I64], I64),
                         _p("checked_unary_minus_Integer64"))
    env.declare_function("Minus", fn([R64], R64), _p("unary_minus_Real64"))
    env.declare_function("Minus", fn([C64], C64),
                         _p("unary_minus_ComplexReal64"))

    env.declare_function("Mod", fn([I64, I64], I64),
                         _p("checked_binary_mod_Integer64_Integer64"))
    env.declare_function("Mod", fn([R64, R64], R64), _p("binary_mod_Real64"))
    env.declare_function("Quotient", fn([I64, I64], I64),
                         _p("checked_binary_quotient_Integer64_Integer64"))
    env.declare_function("PowerMod", fn([I64, I64, I64], I64),
                         _p("power_mod_Integer64"))

    # The paper's §4.4 example, verbatim: scalar Min is polymorphic over
    # Ordered; container Min is a Wolfram-level Fold over any container.
    for name, impl in (("Min", _p("binary_min")), ("Max", _p("binary_max"))):
        env.declare_function(
            name,
            forall(["a"], fn(["a", "a"], "a"), [("a", "Ordered")]),
            impl,
        )
        env.declare_function(
            name,
            forall(["a", "r"], fn([tensor("a", "r")], "a"),
                   [("a", "Ordered")]),
            parse(f"Function[{{arry}}, Fold[{name}, arry]]"),
        )

    env.declare_function("Abs", fn([I64], I64), _p("math_abs"))
    env.declare_function("Abs", fn([R64], R64), _p("math_abs"))
    env.declare_function("Abs", fn([C64], R64), _p("complex_abs"))

    env.declare_function("Sign", fn([I64], I64), _p("math_sign"))
    env.declare_function("Sign", fn([R64], I64), _p("math_sign"))
    env.declare_function("Floor", fn([R64], I64), _p("math_floor"))
    env.declare_function("Ceiling", fn([R64], I64), _p("math_ceiling"))
    env.declare_function("Round", fn([R64], I64), _p("math_round"))
    env.declare_function("IntegerPart", fn([R64], I64),
                         _p("cast_Real64_Integer64"))
    env.declare_function("N", fn([I64], R64), _p("cast_Integer64_Real64"))
    env.declare_function("N", fn([R64], R64), _p("identity"))

    # ---- comparisons and logic ------------------------------------------------
    for name, impl_name in (
        ("Less", "compare_less"), ("LessEqual", "compare_less_equal"),
        ("Greater", "compare_greater"),
        ("GreaterEqual", "compare_greater_equal"),
    ):
        env.declare_function(
            name,
            forall(["a"], fn(["a", "a"], BOOL), [("a", "Ordered")]),
            _p(impl_name),
        )
    for name in ("Equal", "SameQ"):
        env.declare_function(
            name,
            forall(["a"], fn(["a", "a"], BOOL), [("a", "Equal")]),
            _p("compare_equal"),
        )
        env.declare_function(name, fn([EXPR, EXPR], BOOL), _p("expr_equal"))
        env.declare_function(
            name,
            forall(["a", "r"], fn([tensor("a", "r"), tensor("a", "r")], BOOL)),
            _p("tensor_equal"),
        )
    for name in ("Unequal", "UnsameQ"):
        env.declare_function(
            name,
            forall(["a"], fn(["a", "a"], BOOL), [("a", "Equal")]),
            _p("compare_unequal"),
        )
    env.declare_function("Not", fn([BOOL], BOOL), _p("boolean_not"))
    env.declare_function("Xor", fn([BOOL, BOOL], BOOL), _p("boolean_xor"))
    env.declare_function("Boole", fn([BOOL], I64), _p("cast_Boolean_Integer64"))

    env.declare_function(
        "EvenQ", fn([I64], BOOL),
        parse("Function[{n}, Mod[n, 2] == 0]"), inline_always=True,
    )
    env.declare_function(
        "OddQ", fn([I64], BOOL),
        parse("Function[{n}, Mod[n, 2] == 1]"), inline_always=True,
    )

    # ---- elementary functions ----------------------------------------------------
    for name, impl_name in (
        ("Sin", "sin"), ("Cos", "cos"), ("Tan", "tan"), ("Exp", "exp"),
        ("Log", "log"), ("Sqrt", "sqrt"),
    ):
        env.declare_function(name, fn([R64], R64), _p(f"math_{impl_name}"))
        if impl_name in ("sin", "cos", "tan", "exp", "sqrt", "log"):
            env.declare_function(name, fn([C64], C64), _p(f"cmath_{impl_name}"))
    for name, impl_name in (
        ("ArcSin", "math_arcsin"), ("ArcCos", "math_arccos"),
        ("ArcTan", "math_arctan"), ("Sinh", "math_sinh"),
        ("Cosh", "math_cosh"), ("Tanh", "math_tanh"),
    ):
        env.declare_function(name, fn([R64], R64), _p(impl_name))
    env.declare_function("ArcTan", fn([R64, R64], R64),
                         _p("binary_atan2_Real64"))
    env.declare_function("Re", fn([C64], R64), _p("math_re"))
    env.declare_function("Im", fn([C64], R64), _p("math_im"))
    env.declare_function("Conjugate", fn([C64], C64), _p("math_conjugate"))
    env.declare_function("Arg", fn([C64], R64), _p("math_arg"))

    # ---- unsigned-64 modular arithmetic (FNV1a-style hashing) ------------------
    U64 = ty("UnsignedInteger64")
    env.declare_function("Plus", fn([U64, U64], U64),
                         _p("wrap_plus_UnsignedInteger64"))
    env.declare_function("Subtract", fn([U64, U64], U64),
                         _p("wrap_subtract_UnsignedInteger64"))
    env.declare_function("Times", fn([U64, U64], U64),
                         _p("wrap_times_UnsignedInteger64"))
    env.declare_function("BitAnd", fn([U64, U64], U64), _p("bit_and_Integer64"))
    env.declare_function("BitOr", fn([U64, U64], U64), _p("bit_or_Integer64"))
    env.declare_function("BitXor", fn([U64, U64], U64), _p("bit_xor_Integer64"))
    env.declare_function("BitShiftLeft", fn([U64, U64], U64),
                         _p("bit_shift_left_UnsignedInteger64"))
    env.declare_function("BitShiftRight", fn([U64, U64], U64),
                         _p("bit_shift_right_Integer64"))
    env.declare_function("Mod", fn([U64, U64], U64),
                         _p("checked_binary_mod_Integer64_Integer64"))

    # ---- bit operations --------------------------------------------------------------
    env.declare_function("BitAnd", fn([I64, I64], I64), _p("bit_and_Integer64"))
    env.declare_function("BitOr", fn([I64, I64], I64), _p("bit_or_Integer64"))
    env.declare_function("BitXor", fn([I64, I64], I64), _p("bit_xor_Integer64"))
    env.declare_function("BitShiftLeft", fn([I64, I64], I64),
                         _p("bit_shift_left_Integer64"))
    env.declare_function("BitShiftRight", fn([I64, I64], I64),
                         _p("bit_shift_right_Integer64"))

    # ---- tensors ------------------------------------------------------------------------
    env.declare_function(
        "Native`CreateTensor",
        forall(["a"], fn([I64, "a"], tensor("a", 1))),
        _p("tensor_create"),
    )
    # element type left to inference: unified with the later PartSet writes
    env.declare_function(
        "Native`CreateTensorUninit",
        forall(["a"], fn([I64], tensor("a", 1))),
        _p("tensor_create_uninit"),
    )
    env.declare_function(
        "Native`CreateMatrix",
        forall(["a"], fn([I64, I64, "a"], tensor("a", 2))),
        _p("matrix_create"),
    )
    env.declare_function(
        "Part", forall(["a"], fn([tensor("a", 1), I64], "a")),
        _p("tensor_part1"),
    )
    env.declare_function(
        "Part", forall(["a"], fn([tensor("a", 2), I64, I64], "a")),
        _p("tensor_part2"),
    )
    env.declare_function(
        "Part", forall(["a"], fn([tensor("a", 2), I64], tensor("a", 1))),
        _p("tensor_row"),
    )
    env.declare_function("Part", fn([EXPR, I64], EXPR), _p("expr_part"))
    # PartSet returns the (mutated) tensor so lowering can rebind the
    # variable in SSA and the copy-insertion pass can see the data flow (F5)
    env.declare_function(
        "Native`PartSet",
        forall(["a"], fn([tensor("a", 1), I64, "a"], tensor("a", 1))),
        _p("tensor_part1_set"),
    )
    env.declare_function(
        "Native`PartSet",
        forall(["a"], fn([tensor("a", 2), I64, I64, "a"], tensor("a", 2))),
        _p("tensor_part2_set"),
    )
    env.declare_function(
        "Length", forall(["a", "r"], fn([tensor("a", "r")], I64)),
        _p("tensor_length"),
    )
    env.declare_function("Length", fn([EXPR], I64), _p("expr_length"))
    env.declare_function(
        "Native`CopyTensor",
        forall(["a", "r"], fn([tensor("a", "r")], tensor("a", "r"))),
        _p("tensor_copy"),
    )
    env.declare_function(
        "Total", forall(["a"], fn([tensor("a", 1)], "a"), [("a", "Number")]),
        _p("tensor_total"),
    )
    env.declare_function(
        "Dot", fn([tensor(R64, 2), tensor(R64, 2)], tensor(R64, 2)),
        _p("tensor_dot"),
    )
    env.declare_function(
        "Dot", fn([tensor(R64, 2), tensor(R64, 1)], tensor(R64, 1)),
        _p("tensor_dot"),
    )
    env.declare_function(
        "Dot", fn([tensor(R64, 1), tensor(R64, 1)], R64), _p("tensor_dot")
    )

    # ---- strings (L1: native string support is new-compiler-only) ----------------------------
    env.declare_function("StringLength", fn([STR], I64), _p("string_length"))
    env.declare_function("StringJoin", fn([STR, STR], STR), _p("string_join"))
    env.declare_function("Native`UTF8Bytes",
                         fn([STR], tensor("UnsignedInteger8", 1)),
                         _p("string_utf8bytes"))
    env.declare_function("ToCharacterCode", fn([STR], tensor(I64, 1)),
                         _p("string_to_character_codes"))
    env.declare_function("FromCharacterCode", fn([tensor(I64, 1)], STR),
                         _p("string_from_character_codes"))
    env.declare_function("StringTake", fn([STR, I64], STR), _p("string_take"))
    env.declare_function("StringDrop", fn([STR, I64], STR), _p("string_drop"))
    env.declare_function("Equal", fn([STR, STR], BOOL), _p("string_equal"))
    env.declare_function("SameQ", fn([STR, STR], BOOL), _p("string_equal"))
    env.declare_function("StringJoin", fn([STR, STR, STR], STR),
                         parse("Function[{a, b, c}, StringJoin[StringJoin[a, b], c]]"),
                         inline_always=True)

    # ---- expression construction (F8) ------------------------------------------------------------
    env.declare_function("Native`ExprConstruct", fn([EXPR, EXPR], EXPR),
                         _p("expr_construct"))
    env.declare_function("Native`ExprConstruct", fn([EXPR, EXPR, EXPR], EXPR),
                         _p("expr_construct"))
    env.declare_function("Native`ExprFromInteger", fn([I64], EXPR),
                         _p("expr_from_integer"))
    env.declare_function("Native`ExprFromReal", fn([R64], EXPR),
                         _p("expr_from_real"))
    env.declare_function("Native`ExprFromString", fn([STR], EXPR),
                         _p("expr_from_string"))
    env.declare_function("Head", fn([EXPR], EXPR), _p("expr_head"))

    # ---- structural product types (§4.4 TypeProduct / TypeProjection) ---------
    from repro.compiler.types.specifier import CompoundType, TypeVariable

    def product(*names: str) -> CompoundType:
        return CompoundType("Product", tuple(TypeVariable(n) for n in names))

    env.declare_function(
        "Native`MakeProduct",
        forall(["a", "b"], fn(["a", "b"], product("a", "b"))),
        _p("product_make"),
    )
    env.declare_function(
        "Native`MakeProduct",
        forall(["a", "b", "c"], fn(["a", "b", "c"], product("a", "b", "c"))),
        _p("product_make"),
    )
    env.declare_function(
        "Native`Projection1",
        forall(["a", "b"], fn([product("a", "b")], "a")),
        _p("product_get1"),
    )
    env.declare_function(
        "Native`Projection2",
        forall(["a", "b"], fn([product("a", "b")], "b")),
        _p("product_get2"),
    )
    env.declare_function(
        "Native`Projection1",
        forall(["a", "b", "c"], fn([product("a", "b", "c")], "a")),
        _p("product_get1"),
    )
    env.declare_function(
        "Native`Projection2",
        forall(["a", "b", "c"], fn([product("a", "b", "c")], "b")),
        _p("product_get2"),
    )
    env.declare_function(
        "Native`Projection3",
        forall(["a", "b", "c"], fn([product("a", "b", "c")], "c")),
        _p("product_get3"),
    )

    # ---- random -----------------------------------------------------------------------------------------
    env.declare_function("RandomReal", fn([R64, R64], R64), _p("random_real"))
    env.declare_function("RandomInteger", fn([I64, I64], I64),
                         _p("random_integer"))
    env.declare_function("SeedRandom", fn([I64], I64), _p("seed_random"))

    return env


#: process-wide default environment instance (users derive children from it)
_DEFAULT_ENV: TypeEnvironment | None = None


def default_environment() -> TypeEnvironment:
    global _DEFAULT_ENV
    if _DEFAULT_ENV is None:
        _DEFAULT_ENV = build_default_environment()
    return _DEFAULT_ENV
