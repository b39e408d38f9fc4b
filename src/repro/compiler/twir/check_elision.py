"""Dataflow-driven check elision (§6, "removal of redundant ... checks").

Consumes :class:`~repro.analyze.dataflow.FunctionFacts` to delete three
kinds of per-instruction safety tax, each swap stamped with a justifying
``elided_check`` property that the verifier's fact-consistency rules
(:mod:`repro.analyze.verify`) re-derive independently:

* **Integer64 overflow guards** — a checked ``Plus``/``Subtract``/
  ``Times`` whose *exact* abstract result fits the Integer64 range swaps
  to the unchecked primitive (``int64-overflow`` justification).  This
  subsumes the former counter-pattern pass: a loop counter under a
  ``i <= Length[v]`` guard is simply an interval that tops out near
  2^48, far from the boundary.

* **Part bounds predicates** — a checked Part whose indices are proven
  in range swaps to the direct-index primitive, proven per axis (see
  :func:`proof_of`).  When every index is proven ``<=`` its axis's count
  (symbolically against the measured tensor, or via a known shape) the
  justification is ``part-bounds``.  A row (or rank-1) index may instead
  be proven only ``>= 1`` — ``part-positive``, sound because positive
  indexing needs no predication and a residual too-large row is a
  *trapped* runtime error handled by the soft-failure path (F2), never a
  silent wrong answer.  A rank-2 column index never has that fallback:
  ``(i - 1) * columns + j - 1`` with a too-large ``j`` stays inside the
  flat data and reads the next row.

* **Abort checkpoints** — :func:`coalesce_checkpoints` removes the
  loop-header poll from innermost loops with a statically bounded trip
  count and local effects: the bounded body cannot run long enough for
  checkpoint granularity to matter, and the prologue/outer checkpoints
  still poll.  Runs *after* abort insertion; coalesced headers are
  recorded in ``information["CoalescedHeaders"]`` so the verifier can
  both exempt them from the ``twir.abort`` rule and re-prove the bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.compiler.wir.function_module import FunctionModule
from repro.compiler.wir.instructions import (
    CallPrimitiveInstr,
    CheckAbortInstr,
)

if TYPE_CHECKING:  # pragma: no cover - the analyze import is deferred at
    # runtime (repro.analyze pulls in the differential oracle, which pulls
    # the whole compiler back in)
    from repro.analyze.dataflow import FunctionFacts


def proof_of(instruction: CallPrimitiveInstr, block: str,
             facts: "FunctionFacts") -> Optional[str]:
    """The ``elided_check`` justification under which ``instruction`` — a
    primitive with an ``unchecked`` twin, or one that stands in for a
    ``checked`` one — needs no check inside ``block``; ``None`` when the
    facts prove none.

    A Part's indices are proven per axis
    (:meth:`~repro.analyze.dataflow.FunctionFacts.index_proof`), and the
    access is as safe as its least safe index: ``part-bounds`` when every
    one is within its count, ``part-positive`` when one may only trap."""
    primitive = instruction.primitive
    if not primitive.index_axes:
        # Integer64 arithmetic: the exact result, before its check (or the
        # proof standing in for it) keeps it in range, must fit
        a, *rest = (facts.interval_at(v, block) for v in instruction.operands)
        exact = getattr(a, primitive.interval)(*rest)
        return "int64-overflow" if exact.fits_int64() else None
    tensor = instruction.operands[0]
    justification = "part-bounds"
    for position, axis in primitive.index_axes:
        proven = facts.index_proof(instruction.operands[position], tensor,
                                   block, column=axis == "column")
        if proven is None:
            return None
        if proven == "part-positive":
            justification = proven
    return justification


def justified_at(instruction: CallPrimitiveInstr, block: str,
                 facts: "FunctionFacts") -> bool:
    """Does the proof recorded on ``instruction`` also hold in ``block``
    (where a pass is about to move it)?"""
    recorded = instruction.properties["elided_check"]
    proven = proof_of(instruction, block, facts)
    return proven == recorded or (
        proven == "part-bounds" and recorded == "part-positive"
    )


def elide_redundant_checks(
    function: FunctionModule, facts: Optional["FunctionFacts"] = None
) -> dict[str, int]:
    """Swap provably redundant checked primitives for unchecked ones.

    Returns ``{"int64": N, "bounds": M}`` and records the totals in
    ``function.information`` (``OverflowChecksElided`` /
    ``IndexChecksElided``, the keys the former pattern passes used).
    """
    from repro.analyze.dataflow import analyze_function

    if facts is None:
        facts = analyze_function(function)
    counts = {"int64": 0, "bounds": 0}
    for block in function.ordered_blocks():
        for instruction in block.instructions:
            if not isinstance(instruction, CallPrimitiveInstr):
                continue
            primitive = instruction.primitive
            if primitive.unchecked is None:
                continue
            justification = proof_of(instruction, block.name, facts)
            if justification is None:
                continue
            instruction.primitive = primitive.unchecked
            instruction.properties["elided_check"] = justification
            counts["bounds" if primitive.index_axes else "int64"] += 1
    if counts["int64"]:
        function.information["OverflowChecksElided"] = counts["int64"]
    if counts["bounds"]:
        function.information["IndexChecksElided"] = counts["bounds"]
    return counts


def coalesce_checkpoints(
    function: FunctionModule,
    facts: Optional["FunctionFacts"] = None,
    limit: Optional[int] = None,
) -> int:
    """Remove the abort checkpoint from bounded innermost local loops.

    Must run after :func:`repro.compiler.twir.abort.insert_abort_checks`
    (which would otherwise re-insert).  Returns the number coalesced.
    """
    from repro.analyze.dataflow import (
        COALESCE_TRIP_LIMIT,
        analyze_function,
        loop_facts,
    )

    if limit is None:
        limit = COALESCE_TRIP_LIMIT
    if not function.information.get("AbortHandling", False):
        return 0
    # the IR has changed since the facts were computed (copy insertion,
    # abort checkpoints), so the loops are re-derived on the current CFG;
    # their trip bounds read the intervals already computed, in which a
    # value created since is unbounded and can only refuse a coalescing
    if facts is None:
        loops = analyze_function(function).loops
    else:
        loops = loop_facts(function, facts)
    coalesced: dict[str, int] = {}
    for header_name, loop in loops.items():
        if loop.trip_bound is None or loop.trip_bound > limit:
            continue
        if not loop.innermost or not loop.effect_local:
            continue
        block = function.blocks.get(header_name)
        if block is None:
            continue
        removed = [
            i for i in block.instructions if isinstance(i, CheckAbortInstr)
        ]
        if not removed:
            continue
        block.instructions = [
            i for i in block.instructions
            if not isinstance(i, CheckAbortInstr)
        ]
        coalesced[header_name] = loop.trip_bound
    if coalesced:
        existing = dict(function.information.get("CoalescedHeaders", {}))
        existing.update(coalesced)
        function.information["CoalescedHeaders"] = existing
        function.information["CheckpointsCoalesced"] = len(existing)
        function.information["GuardCheckpoints"] = max(
            0,
            function.information.get("GuardCheckpoints", 0) - len(coalesced),
        )
    return len(coalesced)
