"""The default builtin type environment (§4.4).

Declares the compilable surface of the language: every source function the
new compiler supports, with its overloads (by type, arity, and return type)
and implementations.  Implementations are either rows of the primitive
table (:data:`repro.compiler.runtime_library.PRIMITIVE_IMPLS`) or Wolfram
``Function`` expressions that the compiler instantiates and compiles
(§4.5 Function Resolution), like the paper's container ``Min``:

    tyEnv["declareFunction", Min, TypeForAll[...]@Function[{arry}, Fold[Min, arry]]]
"""

from __future__ import annotations

from repro.compiler.runtime_library import PRIMITIVE_IMPLS
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
