"""Abort-check insertion (§4.5, feature F3).

"While a valid solution of handling aborts is by inserting a check after
each TWIR instruction, this would inhibit many optimizations.  Instead, the
compiler performs analysis to compute the loops and then inserts an abort
check at the head of each loop.  Since functions can be recursive ... the
compiler also inserts an abort check in each function's prologue."

Each inserted check is a checkpoint of the shared protocol
(:mod:`repro.runtime.guard`): one test of the checkpoint word inline, and a
slow path that polls the host engine's abort flag and raises through the
runtime; generated cleanup is Python unwinding.  The slow path also
polls the active :class:`~repro.runtime.guard.ExecutionGuard`, which is how
``TimeConstrained``/``MemoryConstrained`` deadlines and budgets reach
compiled code at exactly the loop-header/prologue granularity the paper
chose for aborts.  Stripping the checks (``AbortHandling -> False`` or a
``Native`AbortInhibit`` region) therefore also exempts that code from
guard enforcement — the §6 ablation trades robustness for speed.
"""

from __future__ import annotations

from repro.compiler.wir.analysis import loop_headers
from repro.compiler.wir.function_module import FunctionModule
from repro.compiler.wir.instructions import CheckAbortInstr


def insert_abort_checks(function: FunctionModule) -> int:
    """Insert loop-header + prologue abort checks; returns the count.

    Loops whose header instructions carry the ``abort_inhibit`` property
    (from a ``Native`AbortInhibit[...]`` region, §6) are skipped.
    """
    inserted = 0
    headers = loop_headers(function)
    for name in headers:
        block = function.blocks.get(name)
        if block is None:
            continue
        if any(isinstance(i, CheckAbortInstr) for i in block.instructions):
            continue
        if any(i.properties.get("abort_inhibit")
               for i in block.all_instructions()):
            continue
        block.instructions.insert(0, CheckAbortInstr())
        inserted += 1
    entry = function.blocks[function.entry]
    if not any(isinstance(i, CheckAbortInstr) for i in entry.instructions):
        # prologue check, after the argument loads
        from repro.compiler.wir.instructions import LoadArgumentInstr

        position = 0
        while position < len(entry.instructions) and isinstance(
            entry.instructions[position], LoadArgumentInstr
        ):
            position += 1
        entry.instructions.insert(position, CheckAbortInstr())
        inserted += 1
    function.information["AbortHandling"] = True
    function.information["GuardCheckpoints"] = inserted
    return inserted


def strip_abort_checks(function: FunctionModule) -> int:
    """Remove every abort check (``Native`AbortInhibit`` / option off)."""
    removed = 0
    for block in function.ordered_blocks():
        before = len(block.instructions)
        block.instructions = [
            i for i in block.instructions if not isinstance(i, CheckAbortInstr)
        ]
        removed += before - len(block.instructions)
    function.information["AbortHandling"] = False
    function.information["GuardCheckpoints"] = 0
    return removed
