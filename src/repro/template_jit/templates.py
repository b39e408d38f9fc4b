"""Pre-generated per-op source templates for the baseline tier.

Copy-and-patch compilation (Xu & Kjolstad 2021) pre-generates one machine
-code stencil per IR op at *build* time and only stitches and patches them
at *compile* time.  This module is the Python analogue: for every bytecode
instruction / typed-IR op the table below holds a Python source fragment
with numbered holes; :mod:`repro.template_jit.compiler` fills the holes
with operand expressions in a single linear pass and ``compile()``s the
stitched source.  Nothing here runs an optimization pipeline — the whole
point of the tier is that this table *is* the compiler back end.

Semantics mirror :mod:`repro.bytecode.vm` exactly:

* integer-kind ``Plus``/``Subtract``/``Times``/``BitShiftLeft`` are
  range-checked against int64 (``_ci``) and overflow raises
  :class:`~repro.errors.IntegerOverflowError` — the canonical soft failure;
* ``Divide`` / ``Mod`` / ``Quotient`` raise ``DivideByZero`` on a zero
  divisor; ``Divide`` is true division (``5/2`` is ``2.5``, matching the
  engine's machine-real semantics at this tier);
* ``Power`` of an integer base with a negative integer exponent goes
  through ``float`` (``_pow``), exactly like the VM's ``POW``;
* unary math reuses the VM's *own* real-or-complex callables, so e.g.
  ``Sin`` of a complex argument agrees bit-for-bit;
* ``Part`` access is 1-based and sign-predicated (negative indices count
  from the end) with ``PartOutOfRange`` on violation, like
  :class:`~repro.bytecode.boxed.BoxedTensor` — but over plain Python lists,
  which is where the tier's steady-state win over the boxed VM comes from.

``RUNTIME_GLOBALS`` is the namespace every stitched function executes in;
it contains only these helpers (plus the per-artifact ``_checkpoint`` and
``_self`` slots installed by the compiler).
"""

from __future__ import annotations

from repro.errors import IntegerOverflowError, WolframRuntimeError
from repro.runtime.checked import INT64_MAX as _INT64_MAX
from repro.runtime.checked import INT64_MIN as _INT64_MIN
from repro.runtime.guard import CHECKPOINT, charge_memory


# -- runtime helpers (the "runtime library" the stencils link against) ---------


def _ci(value):
    """int64 range check; type-guarded because the stitcher's one-pass kind
    propagation may conservatively mark a float expression integer."""
    if type(value) is int and (value > _INT64_MAX or value < _INT64_MIN):
        raise IntegerOverflowError()
    return value


def _div(a, b):
    if b == 0:
        raise WolframRuntimeError("DivideByZero", "division by zero")
    return a / b


def _pow(a, b):
    if isinstance(a, int) and isinstance(b, int) and b < 0:
        return float(a) ** b
    return a ** b


def _mod(a, b):
    if b == 0:
        raise WolframRuntimeError("DivideByZero", "Mod by zero")
    return a % b


def _quot(a, b):
    if b == 0:
        raise WolframRuntimeError("DivideByZero", "Quotient by zero")
    return a // b


def _part(tensor, index):
    """1-based, sign-predicated element access over plain Python lists."""
    if not isinstance(tensor, list):
        raise WolframRuntimeError("TypeMismatch", "Part of a scalar")
    count = len(tensor)
    if index < 0:
        index = count + index + 1
    if index < 1 or index > count:
        raise WolframRuntimeError(
            "PartOutOfRange", f"part {index} of length-{count} tensor"
        )
    return tensor[index - 1]


def _part_set(tensor, index, value):
    if not isinstance(tensor, list):
        raise WolframRuntimeError("TypeMismatch", "Part of a scalar")
    count = len(tensor)
    if index < 0:
        index = count + index + 1
    if index < 1 or index > count:
        raise WolframRuntimeError(
            "PartOutOfRange", f"part {index} of length-{count} tensor"
        )
    tensor[index - 1] = value


def _len(value):
    return len(value) if isinstance(value, list) else 0


def _const_array(fill, length):
    charge_memory(8 * int(length))
    return [fill] * int(length)


def _total(tensor):
    total = 0
    for item in tensor:
        total = total + item
    return _ci(total)


def _dot(a, b):
    from repro.runtime.blas import dot_nested

    return dot_nested(a, b)


def _build_math_runtime() -> dict:
    """Borrow the VM's real-or-complex unary callables, keyed ``_m<Name>``:
    identical objects, identical semantics, zero duplication."""
    from repro.bytecode.instructions import MATH_CODES
    from repro.bytecode.vm import _MATH_FUNCS

    return {
        f"_m{name}": _MATH_FUNCS[code]
        for name, code in MATH_CODES.items()
        if code in _MATH_FUNCS
    }


MATH_RUNTIME = _build_math_runtime()

#: the namespace stitched code executes in — copied per artifact so the
#: per-function ``_checkpoint`` / ``_self`` slots never alias
RUNTIME_GLOBALS: dict = {
    "__builtins__": {},  # stitched code calls only what the table emits
    "_armed": CHECKPOINT,
    "_ci": _ci,
    "_div": _div,
    "_pow": _pow,
    "_mod": _mod,
    "_quot": _quot,
    "_part": _part,
    "_part_set": _part_set,
    "_len": _len,
    "_const_array": _const_array,
    "_total": _total,
    "_dot": _dot,
    "min": min,
    "max": max,
    "abs": abs,
    "bool": bool,
    "type": type,
    "int": int,
    "float": float,
    "complex": complex,
    "range": range,
    **MATH_RUNTIME,
}


# -- the template table --------------------------------------------------------

#: binary/variadic expression stencils (variadic heads left-fold)
BINARY_TEMPLATES: dict[str, str] = {
    "Plus": "({0} + {1})",
    "Subtract": "({0} - {1})",
    "Times": "({0} * {1})",
    "Divide": "_div({0}, {1})",
    "Power": "_pow({0}, {1})",
    "Mod": "_mod({0}, {1})",
    "Quotient": "_quot({0}, {1})",
    "Min": "min({0}, {1})",
    "Max": "max({0}, {1})",
    "BitAnd": "({0} & {1})",
    "BitOr": "({0} | {1})",
    "BitXor": "({0} ^ {1})",
    "BitShiftLeft": "({0} << {1})",
    "BitShiftRight": "({0} >> {1})",
    "Less": "({0} < {1})",
    "LessEqual": "({0} <= {1})",
    "Greater": "({0} > {1})",
    "GreaterEqual": "({0} >= {1})",
    "Equal": "({0} == {1})",
    "Unequal": "({0} != {1})",
    "SameQ": "({0} == {1})",
    "UnsameQ": "({0} != {1})",
    "And": "({0} and {1})",
    "Or": "({0} or {1})",
    "Xor": "(bool({0}) != bool({1}))",
    "Dot": "_dot({0}, {1})",
}

#: overflow-checked variants, used when both operands are statically
#: integer-kind — the same ops the VM routes through ``_check_int``
INT_CHECKED_TEMPLATES: dict[str, str] = {
    "Plus": "_ci({0} + {1})",
    "Subtract": "_ci({0} - {1})",
    "Times": "_ci({0} * {1})",
    "BitShiftLeft": "_ci({0} << {1})",
}

#: heads whose result stays integer-kind when every operand is
_INT_PRESERVING = frozenset({
    "Plus", "Subtract", "Times", "Mod", "Quotient", "Min", "Max",
    "BitAnd", "BitOr", "BitXor", "BitShiftLeft", "BitShiftRight",
})

#: comparison/logic heads: result kind is boolean
_BOOLEAN_RESULT = frozenset({
    "Less", "LessEqual", "Greater", "GreaterEqual", "Equal", "Unequal",
    "SameQ", "UnsameQ", "And", "Or", "Xor", "Not", "EvenQ", "OddQ",
    "IntegerQ", "Positive", "Negative", "TrueQ",
})

#: unary expression stencils; math heads delegate to the VM's callables
UNARY_TEMPLATES: dict[str, str] = {
    "Not": "(not {0})",
    "Minus": "(-{0})",
    "EvenQ": "({0} % 2 == 0)",
    "OddQ": "({0} % 2 != 0)",
    "IntegerQ": "(type({0}) is int)",
    "Positive": "({0} > 0)",
    "Negative": "({0} < 0)",
    "TrueQ": "({0} is True)",
    "Length": "_len({0})",
    "Total": "_total({0})",
    **{name[2:]: name + "({0})" for name in MATH_RUNTIME},
}

# Abs on a negative machine integer stays integer in the engine; ``abs`` is
# already exact for ints and floats, so prefer it over the math-table hop.
UNARY_TEMPLATES["Abs"] = "abs({0})"

#: statement-form heads the stitcher lowers structurally (not via a stencil)
STRUCTURED_HEADS = frozenset({
    "If", "While", "Do", "For", "Module", "Block", "With",
    "CompoundExpression", "Set", "Increment", "Decrement", "PreIncrement",
    "PreDecrement", "AddTo", "SubtractFrom", "TimesBy", "DivideBy",
    "Return", "Break", "Continue", "List", "Part", "ConstantArray",
})

#: every head the template tier can stitch (the promotion gate asks this)
SUPPORTED_HEADS = frozenset(
    set(BINARY_TEMPLATES) | set(UNARY_TEMPLATES) | STRUCTURED_HEADS
)
