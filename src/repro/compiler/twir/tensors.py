"""Tensor code that needs no tensor (§6, "reduce the frequency of array
unboxing", taken one step further).

:func:`simplify_tensors` runs in the optimisation loop, before memory
management, so what it removes never gets an acquire/release pair:

* an **allocation nothing reads** (blur's placeholder
  ``Native`CreateMatrix[1, 1, 0.0]``) is dropped;
* ``Length[m[[i]]]`` — a row copied only to be measured — becomes
  ``tensor_row_length``, which checks ``i`` and reads the column count;
* **small fixed-shape tensors are scalarised.**  ``{-Cos[a], Sin[a]} + p``
  builds a two-element list only to hand it to the runtime library's
  ``tensor_plus``, which builds another.  When both operands provably have
  the same length of at most :data:`SCALARIZE_LIMIT`
  (:func:`repro.analyze.dataflow.static_lengths`), the call becomes element
  arithmetic and one list display; an operand that is itself a list display
  gives its elements directly and then has no use left.  Unequal or unknown
  shapes keep the library call, which is what raises ``ShapeMismatch``.
  Only ``Real64`` and ``ComplexReal64`` elements qualify: their scalar
  arithmetic cannot trap, as the library's loop over them cannot.

**Row-base addressing** (:func:`lower_row_addressing`, after check elision
and alias collapse).  An unchecked rank-2 ``Part``/``PartSet`` computes
``(i - 1) * columns + j - 1`` on every access.  Splitting off
``tensor_row_base(t, i)`` makes the row base a value: CSE shares it between
the accesses of one row and loop-invariant code motion lifts it out of the
loop over ``j``.  Each half keeps its half of the ``elided_check`` proof.

``Profile -> True`` runs neither (nor the loop-invariant pass): its
counters are calls of the source program's functions.
"""

from __future__ import annotations

from repro.compiler.wir.function_module import FunctionModule
from repro.compiler.wir.instructions import (
    BuildListInstr,
    CallPrimitiveInstr,
    ConstantInstr,
    Value,
)

#: longest tensor whose element-wise arithmetic is written out
SCALARIZE_LIMIT = 4

#: library call -> (scalar primitive stem, how many operands are tensors)
_SCALAR_FORM = {
    "tensor_plus": ("binary_plus", 2),
    "tensor_times": ("binary_times", 2),
    "tensor_scale": ("binary_times", 1),
}

#: marked impure only so that CSE never merges two of them: one that
#: nothing reads has no alias either, and goes like any dead value
_ALLOCATIONS = ("tensor_create", "tensor_create_uninit", "matrix_create",
                "tensor_copy")

_SIMPLIFIED = frozenset((*_ALLOCATIONS, *_SCALAR_FORM, "tensor_length"))

_ROW_ACCESS = {
    "tensor_part2_unchecked": "tensor_at",
    "tensor_part2_set_unchecked": "tensor_at_set",
}


def _primitive(instruction, names) -> bool:
    return isinstance(instruction, CallPrimitiveInstr) and (
        instruction.primitive.runtime_name in names
    )


def simplify_tensors(function: FunctionModule) -> bool:
    from repro.compiler.types.builtin_env import PRIMITIVE_IMPLS

    blocks = [
        block for block in function.ordered_blocks()
        if any(
            isinstance(i, CallPrimitiveInstr)
            and i.primitive.runtime_name in _SIMPLIFIED
            for i in block.instructions
        )
    ]
    if not blocks:
        return False
    changed = False
    used = lengths = None
    for block in blocks:
        rewritten = []
        for instruction in block.instructions:
            if _primitive(instruction, _ALLOCATIONS):
                if used is None:
                    used = {
                        operand
                        for other in function.instructions()
                        for operand in other.operands
                    }
                if instruction.result not in used:
                    changed = True
                    continue
            rewritten.append(instruction)
            if _primitive(instruction, ("tensor_length",)):
                row = instruction.operands[0].definition
                if _primitive(row, ("tensor_row",)):
                    instruction.primitive = PRIMITIVE_IMPLS["tensor_row_length"]
                    instruction.operands = list(row.operands)
                    changed = True
                continue
            if not _primitive(instruction, _SCALAR_FORM):
                continue
            stem, tensors = _SCALAR_FORM[instruction.primitive.runtime_name]
            result = instruction.result
            element = result.type.params[0]
            scalar = PRIMITIVE_IMPLS.get(
                f"{stem}_{getattr(element, 'name', None)}")
            if scalar is None or not scalar.total:
                continue
            if lengths is None:
                from repro.analyze.dataflow import static_lengths

                lengths = static_lengths(function)
            sizes = {lengths.get(v.id) for v in instruction.operands[:tensors]}
            size = sizes.pop()
            if sizes or size is None or not 0 < size <= SCALARIZE_LIMIT:
                continue
            rewritten.pop()
            elements = []
            for position in range(size):
                parts = [
                    _element(tensor, position, element, rewritten)
                    for tensor in instruction.operands[:tensors]
                ] + instruction.operands[tensors:]
                value = Value(type_=element)
                rewritten.append(CallPrimitiveInstr(value, scalar, parts))
                elements.append(value)
            rewritten.append(BuildListInstr(result, elements))
            changed = True
        block.instructions = rewritten
    return changed


def _element(tensor: Value, position: int, element_type, out: list) -> Value:
    """Element ``position`` (0-based) of a tensor of known length: the
    operand itself when the tensor is a list display, else a read that
    needs no check, appended to ``out``."""
    from repro.compiler.types.builtin_env import I64, PRIMITIVE_IMPLS

    if isinstance(tensor.definition, BuildListInstr):
        return tensor.definition.operands[position]
    index = Value(type_=I64)
    out.append(ConstantInstr(index, position + 1))
    value = Value(type_=element_type)
    read = CallPrimitiveInstr(
        value, PRIMITIVE_IMPLS["tensor_part1_unchecked"], [tensor, index])
    read.properties["elided_check"] = "part-bounds"
    out.append(read)
    return value


def lower_row_addressing(function: FunctionModule) -> bool:
    from repro.compiler.types.builtin_env import I64, PRIMITIVE_IMPLS

    changed = False
    for block in function.ordered_blocks():
        if not any(_primitive(i, _ROW_ACCESS) for i in block.instructions):
            continue
        rewritten = []
        for instruction in block.instructions:
            if _primitive(instruction, _ROW_ACCESS):
                tensor, row, *rest = instruction.operands
                base = Value(type_=I64)
                row_base = CallPrimitiveInstr(
                    base, PRIMITIVE_IMPLS["tensor_row_base"], [tensor, row])
                row_base.properties["elided_check"] = (
                    instruction.properties["elided_check"])
                rewritten.append(row_base)
                instruction.primitive = PRIMITIVE_IMPLS[
                    _ROW_ACCESS[instruction.primitive.runtime_name]]
                instruction.operands = [tensor, base, *rest]
                changed = True
            rewritten.append(instruction)
        block.instructions = rewritten
    return changed
