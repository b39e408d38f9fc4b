"""The IR verifier: machine-checked invariants over ``FunctionModule``.

The pipeline runs six TWIR optimization passes in a fixpoint loop of at
most 8 rounds plus a stack of semantic passes; a pass that silently corrupts the CFG
or types would otherwise only surface (maybe) in codegen or as a wrong
answer.  This module checks the invariants every pass must preserve and
reports violations as structured :class:`~repro.analyze.diagnostics.Diagnostic`
objects rather than bare asserts:

**CFG well-formedness** (any stage)
    every block terminated (``cfg.terminated``), every branch target exists
    (``cfg.target``), the entry block exists and has no predecessors
    (``cfg.entry``); unreachable blocks are a *warning* (``cfg.unreachable``)
    because the CFG clean-up that deletes them legitimately lags branch
    folding within an optimization round.

**SSA discipline** (any stage)
    each value defined exactly once (``ssa.unique-def``), every use
    dominated by its definition (``ssa.dominance``, computed with the
    existing :mod:`repro.compiler.wir.analysis` dominator machinery), phi
    incoming edges exactly matching the block's predecessors (``phi.edges``),
    phi operands consistent with the incoming list (``phi.operands``).

**Call/argument consistency** (when the enclosing program is supplied)
    ``CallFunction`` arity matches the callee's parameter list
    (``call.arity``) and, when both sides are typed, argument types match
    or widen into the parameter types (``call.type``).

**Type consistency** (typed functions only — TWIR)
    every value carries a type (``type.presence``), branch conditions are
    Boolean (``type.branch``), phi incoming types agree with the phi result
    (``type.phi``), ``Copy`` preserves its operand type (``type.copy``),
    returned values match the function's result type (``type.return``).

**TWIR semantic-stage invariants** (gated on the pass having run)
    abort checkpoints present at every loop header and in the prologue when
    abort handling is on (``twir.abort``, per :mod:`repro.compiler.twir.abort`)
    — headers listed in ``CoalescedHeaders`` are exempt, their checkpoint was
    deliberately coalesced; memory ops well-paired — every ``MemoryRelease``
    names a value some ``MemoryAcquire`` acquired and every acquire names an
    allocating definition (``twir.memory``, per :mod:`repro.compiler.twir.memory`).

**Fact consistency** (gated on elided checks being present)
    every unchecked primitive must carry the ``elided_check`` justification
    the elision pass stamped, and an *independently recomputed* dataflow
    analysis (:mod:`repro.analyze.dataflow`) must re-prove it — the exact
    abstract result of an unchecked arithmetic op fits Integer64, Part
    indices are in the justified range, coalesced checkpoint headers still
    have a bounded/innermost/effect-local trip proof (``analysis.fact``).
    A pass that plants a wrong fact (see the ``analysis.bad_fact`` fault
    class in :mod:`repro.testing`) is caught here and attributed by name.

Use :func:`verify_function` / :func:`verify_program` to collect
diagnostics, or :func:`raise_on_errors` to turn error-severity findings
into a :class:`~repro.errors.VerificationError` attributed to a pass.
"""

from __future__ import annotations

from typing import Optional

from repro.analyze.diagnostics import Diagnostic
from repro.compiler.wir.analysis import CFG, dominates
from repro.compiler.wir.function_module import FunctionModule, ProgramModule
from repro.compiler.wir.instructions import (
    BranchInstr,
    CheckAbortInstr,
    CallFunctionInstr,
    CallPrimitiveInstr,
    CopyInstr,
    MemoryAcquireInstr,
    MemoryReleaseInstr,
    ReturnInstr,
    Terminator,
    Value,
)
from repro.errors import VerificationError


def verify_program(
    program: ProgramModule, check_types: Optional[bool] = None
) -> list[Diagnostic]:
    """Verify every function of a program module; cross-function call
    checks use the program's function table."""
    diagnostics: list[Diagnostic] = []
    for function in program.functions.values():
        diagnostics.extend(
            verify_function(function, program=program, check_types=check_types)
        )
    return diagnostics


def verify_function(
    function: FunctionModule,
    program: Optional[ProgramModule] = None,
    check_types: Optional[bool] = None,
) -> list[Diagnostic]:
    """All invariant checks applicable to this function's current stage.

    ``check_types=None`` auto-detects: type consistency is only enforced on
    fully typed (TWIR) functions — the resolve stage legitimately introduces
    untyped instructions that a re-inference round will type (§4.5).
    """
    diagnostics: list[Diagnostic] = []
    # Predecessors, dominators and loops come from the blocks as they are
    # now, never from `function.cfg()`: a pass that rewires a terminator
    # below the CFG version counter leaves those shared facts stale, and
    # that pass is what the verifier is here to name.
    cfg = CFG(function)
    _check_cfg(function, cfg, diagnostics)
    # a structurally broken CFG makes dominance analysis meaningless (and
    # possibly non-terminating); report the structural findings alone
    if any(d.invariant.startswith("cfg.") and d.is_error()
           for d in diagnostics):
        return diagnostics
    reachable = _reachable_blocks(function)
    definitions = _check_ssa_definitions(function, diagnostics)
    _check_dominance(function, cfg, reachable, definitions, diagnostics)
    _check_phis(function, cfg, reachable, diagnostics)
    if program is not None:
        _check_calls(function, program, diagnostics)
    if check_types is None:
        check_types = function.is_typed()
    if check_types:
        _check_types(function, diagnostics)
    _check_abort_checkpoints(function, cfg, diagnostics)
    _check_memory_pairing(function, cfg, diagnostics)
    _check_fact_consistency(function, cfg, diagnostics)
    return diagnostics


def raise_on_errors(
    diagnostics: list[Diagnostic], pass_name: str, function: str = ""
) -> None:
    """Raise :class:`VerificationError` naming the offending pass if any
    error-severity diagnostic is present (warnings never raise)."""
    found = [d for d in diagnostics if d.is_error()]
    if found:
        raise VerificationError(
            pass_name, found,
            function=function or (found[0].function or ""),
        )


# -- CFG well-formedness ---------------------------------------------------------


def _diag(diagnostics, invariant, message, function, block=None,
          instruction=None, severity="error", **data):
    diagnostics.append(Diagnostic(
        invariant=invariant,
        message=message,
        severity=severity,
        function=function.name,
        block=block,
        instruction=str(instruction) if instruction is not None else None,
        data=data,
    ))


def _check_cfg(function: FunctionModule, cfg: CFG,
               diagnostics: list) -> None:
    if function.entry is None or function.entry not in function.blocks:
        _diag(diagnostics, "cfg.entry",
              f"entry block {function.entry!r} does not exist", function)
        return
    for block in function.ordered_blocks():
        if block.terminator is None:
            _diag(diagnostics, "cfg.terminated",
                  f"block {block.name} has no terminator",
                  function, block=block.name)
        elif not isinstance(block.terminator, Terminator):
            _diag(diagnostics, "cfg.terminated",
                  f"block {block.name} ends in a non-terminator "
                  f"{block.terminator}", function, block=block.name,
                  instruction=block.terminator)
        for successor in block.successors():
            if successor not in function.blocks:
                _diag(diagnostics, "cfg.target",
                      f"block {block.name} targets unknown block "
                      f"{successor}", function, block=block.name,
                      instruction=block.terminator)
        # terminators live in the terminator slot, never mid-block
        for instruction in block.instructions:
            if isinstance(instruction, Terminator):
                _diag(diagnostics, "cfg.terminated",
                      f"terminator {instruction} appears mid-block in "
                      f"{block.name}", function, block=block.name,
                      instruction=instruction)
    predecessors = cfg.predecessors
    if predecessors.get(function.entry):
        _diag(diagnostics, "cfg.entry",
              f"entry block {function.entry} has predecessors "
              f"{predecessors[function.entry]}", function,
              block=function.entry)
    for name in _reachable_blocks(function) ^ set(function.blocks):
        _diag(diagnostics, "cfg.unreachable",
              f"block {name} is unreachable from the entry", function,
              block=name, severity="warning")


def _reachable_blocks(function: FunctionModule) -> set[str]:
    reachable: set[str] = set()
    stack = [function.entry]
    while stack:
        name = stack.pop()
        if name in reachable or name not in function.blocks:
            continue
        reachable.add(name)
        stack.extend(function.blocks[name].successors())
    return reachable


# -- SSA discipline ---------------------------------------------------------------


def _check_ssa_definitions(
    function: FunctionModule, diagnostics: list
) -> dict[int, tuple[str, int]]:
    """Unique-definition check; returns ``{value id: (block, position)}``.

    Position encodes intra-block order: phis come first (position -1 — all
    phis execute "simultaneously" at block entry), then instructions by
    index, then the terminator.
    """
    definitions: dict[int, tuple[str, int]] = {}
    for block in function.ordered_blocks():
        numbered = [(-1, phi) for phi in block.phis]
        numbered += list(enumerate(block.instructions))
        if block.terminator is not None:
            numbered.append((len(block.instructions), block.terminator))
        for position, instruction in numbered:
            result = instruction.result
            if result is None:
                continue
            if result.id in definitions:
                earlier_block, _ = definitions[result.id]
                _diag(diagnostics, "ssa.unique-def",
                      f"value {result.name} defined in {earlier_block} and "
                      f"again in {block.name}", function, block=block.name,
                      instruction=instruction)
            else:
                definitions[result.id] = (block.name, position)
    return definitions


def _check_dominance(
    function: FunctionModule,
    cfg: CFG,
    reachable: set[str],
    definitions: dict[int, tuple[str, int]],
    diagnostics: list,
) -> None:
    idom = cfg.idom

    def defined_at(value: Value) -> Optional[tuple[str, int]]:
        return definitions.get(value.id)

    def check_use(value: Value, block_name: str, position: int,
                  instruction) -> None:
        where = defined_at(value)
        if where is None:
            _diag(diagnostics, "ssa.dominance",
                  f"use of undefined value {value.name}", function,
                  block=block_name, instruction=instruction)
            return
        def_block, def_position = where
        if def_block == block_name:
            if def_position >= position:
                _diag(diagnostics, "ssa.dominance",
                      f"value {value.name} used before its definition in "
                      f"{block_name}", function, block=block_name,
                      instruction=instruction)
        elif def_block in reachable and not dominates(
            idom, def_block, block_name
        ):
            _diag(diagnostics, "ssa.dominance",
                  f"use of {value.name} in {block_name} is not dominated "
                  f"by its definition in {def_block}", function,
                  block=block_name, instruction=instruction)

    for block in function.ordered_blocks():
        if block.name not in reachable:
            continue  # no dominator tree over unreachable code
        for phi in block.phis:
            # a phi operand must reach the *end* of its incoming block
            for pred_name, value in phi.incoming:
                where = defined_at(value)
                if where is None:
                    _diag(diagnostics, "ssa.dominance",
                          f"phi operand {value.name} has no definition",
                          function, block=block.name, instruction=phi)
                    continue
                def_block, _ = where
                if pred_name in reachable and def_block in reachable and (
                    not dominates(idom, def_block, pred_name)
                ):
                    _diag(diagnostics, "ssa.dominance",
                          f"phi operand {value.name} from edge {pred_name} "
                          f"is not dominated by its definition in "
                          f"{def_block}", function, block=block.name,
                          instruction=phi)
        for position, instruction in enumerate(block.instructions):
            for operand in instruction.operands:
                check_use(operand, block.name, position, instruction)
        if block.terminator is not None:
            for operand in block.terminator.operands:
                check_use(operand, block.name, len(block.instructions),
                          block.terminator)


def _check_phis(
    function: FunctionModule, cfg: CFG, reachable: set[str],
    diagnostics: list,
) -> None:
    predecessors = cfg.predecessors
    for block in function.ordered_blocks():
        if block.name not in reachable:
            continue
        actual = set(predecessors.get(block.name, ()))
        for phi in block.phis:
            incoming_blocks = [p for p, _ in phi.incoming]
            if len(set(incoming_blocks)) != len(incoming_blocks):
                _diag(diagnostics, "phi.edges",
                      f"phi lists duplicate incoming edges "
                      f"{incoming_blocks}", function, block=block.name,
                      instruction=phi)
            if set(incoming_blocks) != actual:
                _diag(diagnostics, "phi.edges",
                      f"phi covers edges {sorted(set(incoming_blocks))}, "
                      f"block predecessors are {sorted(actual)}", function,
                      block=block.name, instruction=phi)
            if [v for _, v in phi.incoming] != phi.operands:
                _diag(diagnostics, "phi.operands",
                      "phi operand list disagrees with its incoming list",
                      function, block=block.name, instruction=phi)


# -- call/argument consistency across functions -----------------------------------


def _check_calls(
    function: FunctionModule, program: ProgramModule, diagnostics: list
) -> None:
    from repro.compiler.types.environment import widens_to

    for block in function.ordered_blocks():
        for instruction in block.instructions:
            if not isinstance(instruction, CallFunctionInstr):
                continue
            callee = program.functions.get(instruction.function_name)
            if callee is None:
                _diag(diagnostics, "call.arity",
                      f"call to unknown function "
                      f"{instruction.function_name}", function,
                      block=block.name, instruction=instruction)
                continue
            if len(instruction.operands) != len(callee.parameters):
                _diag(diagnostics, "call.arity",
                      f"call to {callee.name} passes "
                      f"{len(instruction.operands)} arguments, callee "
                      f"declares {len(callee.parameters)}", function,
                      block=block.name, instruction=instruction)
                continue
            for operand, parameter in zip(
                instruction.operands, callee.parameters
            ):
                if operand.type is None or parameter.type is None:
                    continue
                if operand.type != parameter.type and not widens_to(
                    operand.type, parameter.type
                ):
                    _diag(diagnostics, "call.type",
                          f"call to {callee.name} passes {operand.name}:"
                          f"{operand.type}, parameter expects "
                          f"{parameter.type}", function, block=block.name,
                          instruction=instruction,
                          expected=str(parameter.type),
                          actual=str(operand.type))


# -- type consistency (TWIR) -------------------------------------------------------


def _check_types(function: FunctionModule, diagnostics: list) -> None:
    from repro.compiler.types.environment import widens_to
    from repro.compiler.types.specifier import AtomicType

    for value in function.values():
        if value.type is None:
            _diag(diagnostics, "type.presence",
                  f"value {value.name} has no type in a typed function",
                  function)

    def is_boolean(type_) -> bool:
        return isinstance(type_, AtomicType) and type_.name == "Boolean"

    for block in function.ordered_blocks():
        for phi in block.phis:
            if phi.result.type is None:
                continue
            for pred_name, value in phi.incoming:
                if value.type is None:
                    continue
                if value.type != phi.result.type and not widens_to(
                    value.type, phi.result.type
                ):
                    _diag(diagnostics, "type.phi",
                          f"phi result {phi.result!r} disagrees with "
                          f"incoming {value!r} from {pred_name}", function,
                          block=block.name, instruction=phi,
                          expected=str(phi.result.type),
                          actual=str(value.type))
        for instruction in block.instructions:
            if isinstance(instruction, CopyInstr):
                operand = instruction.operands[0]
                if (
                    instruction.result is not None
                    and instruction.result.type is not None
                    and operand.type is not None
                    and instruction.result.type != operand.type
                ):
                    _diag(diagnostics, "type.copy",
                          f"Copy changes type {operand.type} -> "
                          f"{instruction.result.type}", function,
                          block=block.name, instruction=instruction)
        terminator = block.terminator
        if isinstance(terminator, BranchInstr):
            condition = terminator.condition
            if condition.type is not None and not is_boolean(condition.type):
                _diag(diagnostics, "type.branch",
                      f"branch condition {condition!r} is not Boolean",
                      function, block=block.name, instruction=terminator)
        if isinstance(terminator, ReturnInstr) and terminator.value is not None:
            returned = terminator.value.type
            declared = function.result_type
            if returned is not None and declared is not None and (
                returned != declared and not widens_to(returned, declared)
            ):
                _diag(diagnostics, "type.return",
                      f"returns {returned}, function declares {declared}",
                      function, block=block.name, instruction=terminator,
                      expected=str(declared), actual=str(returned))


# -- TWIR semantic-stage invariants ------------------------------------------------


def _check_abort_checkpoints(
    function: FunctionModule, cfg: CFG, diagnostics: list
) -> None:
    """After abort insertion ran (``GuardCheckpoints`` recorded and abort
    handling on), every non-inhibited loop header and the prologue must
    poll (:mod:`repro.compiler.twir.abort`)."""
    information = function.information
    if not information.get("AbortHandling", False):
        return
    if "GuardCheckpoints" not in information:
        return  # the insertion pass has not run yet for this function
    coalesced = information.get("CoalescedHeaders", {})
    for name in {loop.header for loop in cfg.loops}:
        if name in coalesced:
            continue  # deliberately removed; analysis.fact re-proves it
        block = function.blocks.get(name)
        if block is None:
            continue
        if any(i.properties.get("abort_inhibit")
               for i in block.all_instructions()):
            continue
        if not any(isinstance(i, CheckAbortInstr)
                   for i in block.instructions):
            _diag(diagnostics, "twir.abort",
                  f"loop header {name} has no abort checkpoint", function,
                  block=name)
    entry = function.blocks.get(function.entry)
    if entry is not None and not any(
        isinstance(i, CheckAbortInstr) for i in entry.instructions
    ):
        _diag(diagnostics, "twir.abort",
              "function prologue has no abort checkpoint", function,
              block=function.entry)


def _check_memory_pairing(
    function: FunctionModule, cfg: CFG, diagnostics: list
) -> None:
    """After memory management ran, acquires/releases must be well-paired:
    every release names an acquired value, every acquire names an
    allocating definition (:mod:`repro.compiler.twir.memory`)."""
    if not function.information.get("MemoryManaged", False):
        return
    from repro.compiler.twir.memory import _is_allocation

    acquired: set[int] = set()
    for block in function.ordered_blocks():
        for instruction in block.instructions:
            if isinstance(instruction, MemoryAcquireInstr):
                value = instruction.operands[0]
                acquired.add(value.id)
                definition = value.definition
                if definition is not None and not _is_allocation(definition):
                    _diag(diagnostics, "twir.memory",
                          f"MemoryAcquire of {value.name} whose definition "
                          f"is not an allocation: {definition}", function,
                          block=block.name, instruction=instruction)
    # the pass releases a value at its last use on *each* path, so several
    # releases across sibling branches are correct refcounting; a double
    # free is two releases on ONE path — same block, or one releasing
    # block dominating another (both execute whenever the dominated one does)
    released: dict[int, list[str]] = {}
    for block in function.ordered_blocks():
        for instruction in block.instructions:
            if isinstance(instruction, MemoryReleaseInstr):
                value = instruction.operands[0]
                if value.id not in acquired:
                    _diag(diagnostics, "twir.memory",
                          f"MemoryRelease of {value.name} which no "
                          f"MemoryAcquire acquired", function,
                          block=block.name, instruction=instruction)
                released.setdefault(value.id, []).append(block.name)
    multi = {vid: blocks for vid, blocks in released.items()
             if len(blocks) > 1}
    if multi:
        idom = cfg.idom
        reachable = _reachable_blocks(function)
        for value_id, blocks in multi.items():
            for i, first in enumerate(blocks):
                for second in blocks[i + 1:]:
                    if first == second:
                        _diag(diagnostics, "twir.memory",
                              f"value %{value_id} released twice in block "
                              f"{first}", function, block=first)
                    elif (
                        first in reachable and second in reachable
                        and (dominates(idom, first, second)
                             or dominates(idom, second, first))
                    ):
                        _diag(diagnostics, "twir.memory",
                              f"value %{value_id} released in both {first} "
                              f"and {second}, which lie on one path",
                              function, block=second)


# -- fact consistency: elided checks must stay provable ----------------------------


def _check_fact_consistency(
    function: FunctionModule, cfg: CFG, diagnostics: list
) -> None:
    """Every elided check must be re-provable from *recomputed* facts.

    The elision pass stamps each swapped primitive with an
    ``elided_check`` justification; this rule recomputes the dataflow
    analysis from scratch and re-derives the proof, so a pass that plants
    a wrong fact (or a later pass that invalidates one) is caught rather
    than miscompiled.  Each is re-proven by the rule that elided it
    (:func:`~repro.compiler.twir.check_elision.justified_at`: a Part per
    axis) over the recomputed facts.  The sites are the primitives whose
    row names the ``checked`` one they stand in for.  Skipped entirely
    when the function contains none and no coalesced checkpoints — the
    worklist recompute is not free and verify-each runs this after every
    pass.
    """
    from repro.compiler.twir.check_elision import justified_at

    sites: list[tuple] = []
    for block in function.ordered_blocks():
        for instruction in block.instructions:
            if isinstance(instruction, CallPrimitiveInstr) and (
                instruction.primitive.checked is not None
            ):
                sites.append((block, instruction))
    coalesced = function.information.get("CoalescedHeaders", {})
    if not sites and not coalesced:
        return
    from repro.analyze.dataflow import (
        COALESCE_TRIP_LIMIT,
        analyze_function,
    )

    facts = analyze_function(function, cfg=cfg)
    for block, instruction in sites:
        name = instruction.primitive.runtime_name
        justification = instruction.properties.get("elided_check")
        if justification is None:
            _diag(diagnostics, "analysis.fact",
                  f"unchecked primitive {name} carries no elided_check "
                  f"justification", function, block=block.name,
                  instruction=instruction)
            continue
        if not justified_at(instruction, block.name, facts):
            kind = "bounds" if instruction.primitive.index_axes else "overflow"
            _diag(diagnostics, "analysis.fact",
                  f"elided {kind} check on {name} is not justified by the "
                  f"recomputed facts ({justification})", function,
                  block=block.name, instruction=instruction,
                  justification=justification)
    for header, bound in coalesced.items():
        loop = facts.loops.get(header)
        if (
            loop is None
            or loop.trip_bound is None
            or loop.trip_bound > COALESCE_TRIP_LIMIT
            or not loop.innermost
            or not loop.effect_local
        ):
            _diag(diagnostics, "analysis.fact",
                  f"coalesced checkpoint at {header} (recorded trip bound "
                  f"{bound}) is no longer provably bounded, innermost and "
                  f"effect-local", function, block=header)
