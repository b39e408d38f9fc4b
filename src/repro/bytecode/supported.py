"""The bytecode compiler's opcode selection (§2.2's baseline).

Which source functions its single forward pass maps onto one WVM opcode
(binary, comparison, unary math sub-code), and which features it refuses
outright (strings, symbolic expressions — limitations L1).  The rest of
what it translates is its ``_emit_<Head>`` handlers; anything else escapes
to the interpreter at run time.  This is the baseline's private table: the
new compiler's surface, which tier-up and lint read, is
:func:`repro.compiler.surface.compilable_heads`.
"""

from __future__ import annotations

from repro.bytecode.instructions import MATH_CODES, Op

#: binary source functions lowering to a single binary opcode
BINARY_OPS = {
    "Plus": Op.ADD,
    "Subtract": Op.SUB,
    "Times": Op.MUL,
    "Divide": Op.DIV,
    "Power": Op.POW,
    "Mod": Op.MOD,
    "Quotient": Op.QUOT,
    "Min": Op.MIN,
    "Max": Op.MAX,
    "BitAnd": Op.BIT_AND,
    "BitOr": Op.BIT_OR,
    "BitXor": Op.BIT_XOR,
    "BitShiftLeft": Op.BIT_SHL,
    "BitShiftRight": Op.BIT_SHR,
}

COMPARISON_OPS = {
    "Less": Op.LT,
    "LessEqual": Op.LE,
    "Greater": Op.GT,
    "GreaterEqual": Op.GE,
    "Equal": Op.EQ,
    "Unequal": Op.NE,
    "SameQ": Op.EQ,
    "UnsameQ": Op.NE,
}

#: unary source functions lowering to MATH_UNARY with a sub-code
UNARY_MATH = dict(MATH_CODES)

_STRINGS = "strings are not supported by the bytecode compiler"

#: features the VM cannot represent at all -> hard compile errors (L1),
#: as a call head or as an argument pattern (``_String``, ``_Expression``)
UNSUPPORTED_FEATURES = {
    **dict.fromkeys(
        ("String", "StringJoin", "StringLength", "StringTake", "StringDrop",
         "Characters", "StringReplace", "ToCharacterCode"), _STRINGS),
    "Expression": "symbolic expressions cannot be represented in bytecode",
}
