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
  (:func:`repro.analyze.dataflow.structure_of`), the call becomes element
  arithmetic and one list display; an operand that is itself a list display
  gives its elements directly and then has no use left.  Unequal or unknown
  shapes keep the library call, which is what raises ``ShapeMismatch``.
  Only ``Real64`` and ``ComplexReal64`` elements qualify: their scalar
  arithmetic cannot trap, as the library's loop over them cannot;
* **fixed-shape rows get one buffer** (:func:`_rows_to_matrix`).  The
  ``Native`CreateTensorUninit`` of ``Table``, ``Map`` and ``NestList``
  makes a list of row objects, one ``PackedArray`` per step, which the
  call boundary then concatenates.  When every row stored has one static
  length L <= :data:`SCALARIZE_LIMIT`, the tensor is created as an ``n x
  L`` matrix of the rows' element type, a row store is L element stores
  (rank-2 ``PartSet``, so check elision, row-base addressing and CSE
  treat them as any other), and a row read back out is L element reads,
  or ``tensor_row`` when the row itself is needed.  Rows of unequal or
  unknown length keep the list of rows, and with it today's
  ``ShapeMismatch`` / ``RaggedArray``;
* **a loop-carried fixed-shape row is L scalars** (:func:`_split_row_phi`):
  the phi of ``cur$`` in ``Nest``/``NestList``/``Fold`` over such rows
  splits into one phi per element; whatever still needs the row outside
  the loop (the ``Return`` of a ``Fold``) gets a list display there.

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

from functools import partial
from typing import Optional

from repro.compiler.wir.function_module import (
    Forwarding,
    FunctionModule,
    ProgramModule,
)
from repro.compiler.wir.instructions import (
    BuildListInstr,
    CallFunctionInstr,
    CallPrimitiveInstr,
    ConstantInstr,
    LoadArgumentInstr,
    MemoryAcquireInstr,
    MemoryReleaseInstr,
    PhiInstr,
    ReturnInstr,
    Value,
)

#: longest tensor whose element-wise arithmetic is written out
SCALARIZE_LIMIT = 4

#: marked impure only so that CSE never merges two of them: one that
#: nothing reads has no alias either, and goes like any dead value
_ALLOCATIONS = ("tensor_create", "tensor_create_uninit", "matrix_create",
                "tensor_copy")

_SIMPLIFIED = frozenset((*_ALLOCATIONS, "tensor_length"))

_ROW_ACCESS = {
    "tensor_part2_unchecked": "tensor_at",
    "tensor_part2_set_unchecked": "tensor_at_set",
}


def _primitive(instruction, names) -> bool:
    return isinstance(instruction, CallPrimitiveInstr) and (
        instruction.primitive.runtime_name in names
    )


def simplify_tensors(function: FunctionModule,
                     program: Optional[ProgramModule] = None) -> bool:
    """``program`` is what ``function`` belongs to: a tensor of rows that
    the function returns changes type with its representation, which only
    the main function of a program that never calls it may do."""
    from repro.compiler.types.builtin_env import PRIMITIVE_IMPLS

    blocks = [
        block for block in function.ordered_blocks()
        if any(
            isinstance(i, CallPrimitiveInstr)
            and (i.primitive.runtime_name in _SIMPLIFIED
                 or i.primitive.elementwise is not None)
            for i in block.instructions
        )
    ]
    if not blocks:
        return _scalarize_rows(function, program, blocks)
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
            if not isinstance(instruction, CallPrimitiveInstr) or (
                instruction.primitive.elementwise is None
            ):
                continue
            stem, tensors = instruction.primitive.elementwise
            result = instruction.result
            element = result.type.params[0]
            scalar = PRIMITIVE_IMPLS.get(
                f"{stem}_{getattr(element, 'name', None)}")
            if scalar is None or not scalar.total or (
                _row_element(result.type) is None  # a matrix has columns
            ):
                continue
            if lengths is None:
                from repro.analyze.dataflow import structure_of

                lengths = structure_of(function).last_extents()
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
    # after the calls: a row that has become a list display gives its
    # elements to the stores below directly
    return _scalarize_rows(function, program, blocks) or changed


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


# -- fixed-shape rows -----------------------------------------------------------


def _scalarize_rows(function: FunctionModule,
                    program: Optional[ProgramModule], blocks: list) -> bool:
    """``blocks`` are the ones with an allocation in them."""
    creations = [
        i for block in blocks for i in block.instructions
        if _primitive(i, ("tensor_create_uninit",))
        and _row_element(i.result.type.params[0]) is not None
    ]
    phis = [
        phi for block in function.ordered_blocks() for phi in block.phis
        if _row_element(phi.result.type) is not None
    ]
    if not creations and not phis:
        return False
    from repro.analyze.dataflow import structure_of

    lengths = structure_of(function).last_extents()
    if not lengths:
        return False
    changed = False
    users = _users(function)
    rewrites = [
        partial(_rows_to_matrix, function, program, creation)
        for creation in creations
    ] + [partial(_split_row_phi, function, phi) for phi in phis]
    for rewrite in rewrites:
        if rewrite(lengths, users):
            # every rewrite leaves the function whole: the next one
            # reads the uses as they are now
            changed = True
            users = _users(function)
    return changed


def _users(function: FunctionModule) -> dict:
    users: dict[Value, list] = {}
    for instruction in function.instructions():
        for operand in instruction.operands:
            users.setdefault(operand, []).append(instruction)
    return users


def _finish(function: FunctionModule, forwarding: Forwarding,
            dropped: set) -> None:
    """Take out the reads a rewrite replaced and forward their uses."""
    if dropped:
        for block in function.ordered_blocks():
            if any(i in dropped for i in block.instructions):
                block.instructions = [
                    i for i in block.instructions if i not in dropped
                ]
    forwarding.apply(function)


def _row_element(type_):
    """The element type of ``type_`` if it is a rank-1 tensor whose
    element arithmetic cannot trap, else ``None``."""
    if (
        getattr(type_, "constructor", None) == "Tensor"
        and getattr(type_.params[1], "value", None) == 1
        and getattr(type_.params[0], "name", None)
        in ("Real64", "ComplexReal64")
    ):
        return type_.params[0]
    return None


def _constant_index(value: Value, length: int) -> Optional[int]:
    """The 0-based position a constant ``Part`` index names in a tensor of
    ``length`` elements; ``None`` if it is not a constant or out of range
    (that read keeps its check, and its error)."""
    definition = value.definition
    index = definition.value if isinstance(definition, ConstantInstr) else None
    if type(index) is not int or not 0 < abs(index) <= length:
        return None
    return index - 1 if index > 0 else length + index


def _only_boundary_sees_result(program: Optional[ProgramModule],
                               function: FunctionModule) -> bool:
    if program is None or program.main != function.name:
        return False
    return not any(
        isinstance(i, CallFunctionInstr) and i.function_name == function.name
        or isinstance(i, ConstantInstr)
        and i.properties.get("resolved_function") == function.name
        for other in program.functions.values()
        for i in other.instructions()
    )


def _rows_to_matrix(function, program, creation, lengths, users) -> bool:
    """``creation`` makes a tensor of rows.  If all that ever happens to it
    (through every phi and store that carries it on) is storing rows of one
    static length, reading rows, measuring it and returning it, make it an
    ``n x L`` matrix."""
    from repro.compiler.types.builtin_env import I64, PRIMITIVE_IMPLS
    from repro.compiler.types.specifier import tensor as tensor_type

    element = creation.result.type.params[0].params[0]
    web = {creation.result}
    pending = [creation.result]
    stores, reads, returns = set(), set(), False
    while pending:
        value = pending.pop()
        for user in users.get(value, ()):
            if isinstance(user, PhiInstr):
                carried = user.result
            elif _primitive(user, ("tensor_part1_set",)) and (
                user.operands[0] is value and user.operands[2] is not value
            ):
                stores.add(user)
                carried = user.result
            elif _primitive(user, ("tensor_part1",)):
                reads.add(user)
                continue
            elif _primitive(user, ("tensor_length",)):
                continue
            elif isinstance(user, ReturnInstr):
                returns = True
                continue
            else:
                return False
            if carried not in web:
                web.add(carried)
                pending.append(carried)
    sizes = {lengths.get(store.operands[2].id) for store in stores}
    size = sizes.pop() if len(sizes) == 1 else None
    if size is None or not 0 < size <= SCALARIZE_LIMIT:
        return False
    if any(
        operand not in web
        for value in web if isinstance(value.definition, PhiInstr)
        for operand in value.definition.operands
    ):
        return False  # merges with a tensor made elsewhere
    if returns and not _only_boundary_sees_result(program, function):
        return False

    matrix = tensor_type(element, 2)
    for value in web:
        value.type = matrix
    if returns:
        function.result_type = matrix

    def constant(value, type_, out):
        result = Value(type_=type_)
        out.append(ConstantInstr(result, value))
        return result

    part2 = PRIMITIVE_IMPLS["tensor_part2"]
    part2_set = PRIMITIVE_IMPLS["tensor_part2_set"]
    forwarding = Forwarding()
    dropped = set()
    rewritten_blocks = {}
    for block in function.ordered_blocks():
        if not any(i is creation or i in stores or i in reads
                   for i in block.instructions):
            continue
        out = []
        for instruction in block.instructions:
            if instruction is creation:
                zero = 0.0 if element.name == "Real64" else 0j
                instruction.primitive = PRIMITIVE_IMPLS["matrix_create"]
                instruction.operands = [
                    instruction.operands[0], constant(size, I64, out),
                    constant(zero, element, out),
                ]
            elif instruction in stores:
                # L element stores; the last one defines the stored-into
                # tensor the rest of the function goes on with
                target, index, row = instruction.operands
                for position in range(size):
                    item = _element(row, position, element, out)
                    column = constant(position + 1, I64, out)
                    result = (
                        instruction.result if position == size - 1
                        else Value(type_=matrix)
                    )
                    out.append(CallPrimitiveInstr(
                        result, part2_set, [target, index, column, item]))
                    target = result
                continue
            elif instruction in reads:
                target, index = instruction.operands
                positions = _element_reads(instruction.result, size, users)
                if positions is None:
                    instruction.primitive = PRIMITIVE_IMPLS["tensor_row"]
                else:
                    # only elements are ever taken from this row: read
                    # them here, where the row was read
                    items = {}
                    for read, position in positions:
                        if position not in items:
                            items[position] = Value(type_=element)
                            out.append(CallPrimitiveInstr(
                                items[position], part2,
                                [target, index,
                                 constant(position + 1, I64, out)]))
                        forwarding.replace(read.result, items[position])
                        dropped.add(read)
                    continue
            out.append(instruction)
        rewritten_blocks[block] = out
    for block, out in rewritten_blocks.items():
        block.instructions = out
    _finish(function, forwarding, dropped)
    return True


def _element_reads(row: Value, size: int, users) -> Optional[list]:
    """``[(read, 0-based position)]`` when every use of ``row`` is a
    ``Part`` at a constant index inside it, else ``None``."""
    found = []
    for user in users.get(row, ()):
        if not _primitive(user, ("tensor_part1", "tensor_part1_unchecked")):
            return None
        position = _constant_index(user.operands[1], size)
        if position is None:
            return None
        found.append((user, position))
    return found or None


def _split_row_phi(function, phi, lengths, users) -> bool:
    """Split the phi of a fixed-shape row into one phi per element, when
    every use of the row inside the phi's loop is a read of one element.
    A use outside the loop that needs the row gets a list display."""
    element = phi.result.type.params[0]
    row = phi.result
    size = lengths.get(row.id)
    if size is None or not 0 < size <= SCALARIZE_LIMIT:
        return False
    sources = [(pred, value) for pred, value in phi.incoming
               if value is not row]
    if any(lengths.get(value.id) != size for _, value in sources):
        return False
    block = next(b for b in function.ordered_blocks() if phi in b.phis)
    loops = [loop for loop in function.cfg().loops if block.name in loop.body]
    inside = min(loops, key=lambda loop: len(loop.body)).body if loops else None
    where = {
        instruction: b.name
        for b in function.ordered_blocks()
        for instruction in b.all_instructions()
    }
    reads, others = [], []
    for user in dict.fromkeys(users.get(row, ())):  # once each, in order
        position = (
            _constant_index(user.operands[1], size)
            if _primitive(user, ("tensor_part1", "tensor_part1_unchecked"))
            and user.operands[0] is row else None
        )
        if position is not None:
            reads.append((user, position))
        elif user is not phi:
            # a phi reads its operand at the end of the predecessor
            places = (
                [pred for pred, value in user.incoming if value is row]
                if isinstance(user, PhiInstr) else [where[user]]
            )
            if inside is None or any(place in inside for place in places):
                return False
            others.append((user, places))

    scalars = [Value(type_=element) for _ in range(size)]
    for position, scalar in enumerate(scalars):
        incoming = []
        for pred, value in phi.incoming:
            if value is row:
                incoming.append((pred, scalar))
            else:
                incoming.append((pred, _element(
                    value, position, element,
                    function.blocks[pred].instructions)))
        block.phis.append(PhiInstr(scalar, incoming))
    block.phis.remove(phi)
    forwarding = Forwarding()
    for read, position in reads:
        forwarding.replace(read.result, scalars[position])
    _finish(function, forwarding, {read for read, _ in reads})
    for user, places in others:
        for place in places:
            display = Value(type_=row.type)
            target = function.blocks[place].instructions
            at = (
                target.index(user) if user in target else len(target)
            )
            target.insert(at, BuildListInstr(display, scalars))
            if isinstance(user, PhiInstr):
                user.set_incoming([
                    (pred, display if pred == place and value is row
                     else value)
                    for pred, value in user.incoming
                ])
            else:
                user.replace_operand(row, display)
    return True


#: primitives that read a tensor operand as an ndarray (or by ``dims``
#: alone) and never through its ``data`` list
_NDARRAY_NATIVE = frozenset(("tensor_dot", "tensor_length"))


def ndarray_parameters(function: FunctionModule) -> tuple:
    """Indices of the ``Tensor`` parameters that only ndarray-native
    primitives (and reference counting) use: the call boundary builds
    those as ndarray-resident arrays.  A wrong answer here would cost a
    conversion, never a result — ``data`` is made on first use."""
    candidates = {
        instruction.result: instruction.index
        for instruction in function.blocks[function.entry].instructions
        if isinstance(instruction, LoadArgumentInstr)
        and getattr(instruction.result.type, "constructor", None) == "Tensor"
    }
    if not candidates:
        return ()
    for instruction in function.instructions():
        if isinstance(instruction, (MemoryAcquireInstr, MemoryReleaseInstr)):
            continue
        if _primitive(instruction, _NDARRAY_NATIVE):
            continue
        for operand in instruction.operands:
            candidates.pop(operand, None)
    return tuple(sorted(candidates.values()))


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
