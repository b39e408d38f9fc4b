"""The ``corrupt-ir`` fault class: break an IR invariant mid-pipeline.

The verify-each sanitizer's whole promise is *attribution* — when a pass
corrupts the IR, the resulting :class:`~repro.errors.VerificationError`
must name that pass, not whichever later pass happened to trip over the
damage.  That promise is only testable by actually corrupting the IR from
inside the pipeline, which is what this module does: each corruption is a
deliberately broken :class:`~repro.compiler.pipeline.UserPass` that mutates
the :class:`~repro.compiler.wir.function_module.FunctionModule` it is
handed, violating exactly one named invariant.

=====================  ==========================================  ==============
corruption             mutation                                    invariant hit
=====================  ==========================================  ==============
``drop-terminator``    clears one block's terminator               ``cfg.terminated``
``bad-target``         retargets a jump at a nonexistent block     ``cfg.target``
``duplicate-def``      re-defines an existing value with a Copy    ``ssa.unique-def``
``dangling-operand``   swaps an operand for an undefined value     ``ssa.dominance``
``phi-edge``           adds a phi edge from a non-predecessor      ``phi.edges``
``type-mismatch``      forces a non-Boolean branch condition type  ``type.branch``
``analysis.bad_fact``  unsoundly elides an overflow check by       ``analysis.fact``
                       planting an interval fact the dataflow
                       analysis cannot re-derive
=====================  ==========================================  ==============

Usage (the robustness suite's pattern)::

    pipeline = CompilerPipeline(
        options=CompilerOptions(verify_ir="each"),
        user_passes=[corrupt_ir_pass("drop-terminator")],
    )
    with pytest.raises(VerificationError) as failure:
        pipeline.compile_program(source_function)
    assert failure.value.pass_name == "user:corrupt-ir[drop-terminator]"

Corruptions fire on hit counts like :class:`~repro.testing.faults.Fault`
(``after`` skips the first N functions through the pass), so multi-function
programs can target a specific function deterministically.
"""

from __future__ import annotations

# NOTE: compiler modules are imported lazily inside the mutators —
# ``repro.testing`` is pulled in by ``repro.runtime.guard`` during engine
# initialization, long before the compiler package finishes importing.


class CorruptionUnapplicable(AssertionError):
    """The module has no site for the requested corruption (e.g. a
    straight-line function has no phi to damage) — a test-setup bug, so
    an assertion rather than a compiler error."""


def _first_function(subject):
    from repro.compiler.wir.function_module import ProgramModule

    if isinstance(subject, ProgramModule):
        return next(iter(subject.functions.values()))
    return subject


def _drop_terminator(subject) -> None:
    function = _first_function(subject)
    for block in function.ordered_blocks():
        if block.terminator is not None:
            block.terminator = None
            return
    raise CorruptionUnapplicable("no terminated block to corrupt")


def _bad_target(subject) -> None:
    from repro.compiler.wir.instructions import BranchInstr, JumpInstr

    function = _first_function(subject)
    for block in function.ordered_blocks():
        if isinstance(block.terminator, JumpInstr):
            block.terminator.target = "no-such-block"
            return
        if isinstance(block.terminator, BranchInstr):
            block.terminator.true_target = "no-such-block"
            return
    raise CorruptionUnapplicable("no jump/branch terminator to corrupt")


def _duplicate_def(subject) -> None:
    from repro.compiler.wir.instructions import CopyInstr

    function = _first_function(subject)
    for block in function.ordered_blocks():
        for instruction in block.instructions:
            if instruction.result is not None:
                block.instructions.append(
                    CopyInstr(instruction.result, [instruction.result])
                )
                return
    raise CorruptionUnapplicable("no defining instruction to duplicate")


def _dangling_operand(subject) -> None:
    from repro.compiler.wir.instructions import Value

    function = _first_function(subject)
    for block in function.ordered_blocks():
        for instruction in block.instructions:
            if instruction.operands:
                ghost = Value("ghost", type_=instruction.operands[0].type)
                instruction.operands[0] = ghost
                return
    raise CorruptionUnapplicable("no operand-bearing instruction to corrupt")


def _phi_edge(subject) -> None:
    function = _first_function(subject)
    for block in function.ordered_blocks():
        for phi in block.phis:
            phi.incoming.append(("no-such-predecessor", phi.incoming[0][1]))
            return
    raise CorruptionUnapplicable("no phi to corrupt (function has no loops)")


def _bad_fact(subject) -> None:
    """Swap a checked arithmetic op to unchecked with a *planted* fact.

    Targets a site whose recomputed intervals can exceed Integer64 — a
    correct elision would be invisible to the verifier by construction —
    so the ``analysis.fact`` recompute must refuse the justification.
    """
    from repro.analyze.dataflow import analyze_function
    from repro.compiler.twir.check_elision import proof_of
    from repro.compiler.wir.instructions import CallPrimitiveInstr

    function = _first_function(subject)
    facts = analyze_function(function)
    for block in function.ordered_blocks():
        for instruction in block.instructions:
            if not isinstance(instruction, CallPrimitiveInstr):
                continue
            primitive = instruction.primitive
            if primitive.unchecked is None or primitive.index_axes:
                continue
            if proof_of(instruction, block.name, facts) is not None:
                continue  # genuinely safe: eliding it would be sound
            instruction.primitive = primitive.unchecked
            instruction.properties["elided_check"] = "int64-overflow"
            return
    raise CorruptionUnapplicable(
        "no checked arithmetic whose guard the facts cannot discharge"
    )


def _type_mismatch(subject) -> None:
    from repro.compiler.wir.instructions import BranchInstr

    function = _first_function(subject)
    for block in function.ordered_blocks():
        if isinstance(block.terminator, BranchInstr):
            condition = block.terminator.condition
            condition.type = function.result_type
            return
    raise CorruptionUnapplicable("no branch condition to corrupt")


#: corruption name -> mutator over a FunctionModule/ProgramModule
CORRUPTIONS = {
    "drop-terminator": _drop_terminator,
    "bad-target": _bad_target,
    "duplicate-def": _duplicate_def,
    "dangling-operand": _dangling_operand,
    "phi-edge": _phi_edge,
    "type-mismatch": _type_mismatch,
    "analysis.bad_fact": _bad_fact,
}


def corrupt_ir_pass(corruption: str = "drop-terminator",
                    stage: str = "wir", after: int = 0):
    """A ``UserPass`` that applies ``corruption`` to the ``after``-th
    module through the given ``stage`` ('wir' or 'twir')."""
    from repro.compiler.pipeline import UserPass

    mutator = CORRUPTIONS.get(corruption)
    if mutator is None:
        raise ValueError(
            f"unknown corruption {corruption!r}; "
            f"choose from {sorted(CORRUPTIONS)}"
        )
    state = {"seen": 0}

    def run(subject) -> None:
        state["seen"] += 1
        if state["seen"] == after + 1:
            mutator(subject)

    return UserPass(stage=stage, run=run, name=f"corrupt-ir[{corruption}]")


# -- the ``artifact.corrupt`` fault class ------------------------------------
#
# The persistent artifact cache (repro.artifacts) promises that a bad
# entry is a miss, never a crash.  These mutators damage a stored entry
# file in a specific way so the recovery path — evict + recompile — can
# be asserted per failure shape.  The injectable counterpart is
# ``Fault("artifact.load", "corrupt")``, which raises inside the store's
# read path without touching the file.


def _artifact_truncate(path: str) -> None:
    with open(path, "r+b") as handle:
        size = handle.seek(0, 2)
        handle.truncate(max(0, size // 2))


def _artifact_garbage(path: str) -> None:
    with open(path, "wb") as handle:
        handle.write(b"\x00\xffnot json at all\x00")


def _artifact_bad_json(path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"schema": 1, "key": ')  # unterminated document


def _artifact_rewrite(path: str, **changes) -> None:
    """Store ``changes`` in the entry as a well-formed object file — its
    content digest is that of the changed entry — so the read gets past
    the digest and meets the member itself."""
    import json

    from repro.artifacts.store import _encode

    with open(path, "rb") as handle:
        entry = json.load(handle)
    del entry["sha256"]
    entry.update(changes)
    with open(path, "wb") as handle:
        handle.write(_encode(entry)[1])


def _artifact_wrong_schema(path: str) -> None:
    _artifact_rewrite(path, schema=-1)


def _artifact_key_mismatch(path: str) -> None:
    _artifact_rewrite(path, key="0" * 64)


def _artifact_flip(path: str, member: str, offset: int) -> None:
    """Change one character ``offset`` into the JSON string ``member`` for
    another letter or digit: the file is still JSON, a flipped ``source``
    is still Python and a flipped ``code`` still base64."""
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    opening = b'"%s":"' % member.encode("ascii")
    if opening not in data:
        raise CorruptionUnapplicable(f"the entry has no {member!r} string")
    at = data.index(opening) + len(opening) + offset
    if not chr(data[at]).isalnum():
        raise CorruptionUnapplicable(f"no letter or digit at {member}+{offset}")
    data[at] = ord("b") if data[at] == ord("a") else ord("a")
    with open(path, "wb") as handle:
        handle.write(data)


def _artifact_flip_code(path: str) -> None:
    _artifact_flip(path, "code", 40)


def _artifact_flip_source(path: str) -> None:
    _artifact_flip(path, "source", 4)  # in the header comment


def _artifact_flip_digest(path: str) -> None:
    _artifact_flip(path, "sha256", 5)


def _artifact_schema_1(path: str) -> None:
    """The file as the schema-1 store wrote it: plain JSON, no content
    digest, no code object."""
    import json

    with open(path, "rb") as handle:
        entry = json.load(handle)
    del entry["sha256"]
    entry.pop("code", None)
    entry["schema"] = 1
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, separators=(",", ":"))


#: corruption name -> mutator over a stored artifact entry file
ARTIFACT_CORRUPTIONS = {
    "truncate": _artifact_truncate,
    "garbage": _artifact_garbage,
    "bad-json": _artifact_bad_json,
    "wrong-schema": _artifact_wrong_schema,
    "key-mismatch": _artifact_key_mismatch,
    "flip-code": _artifact_flip_code,
    "flip-source": _artifact_flip_source,
    "flip-digest": _artifact_flip_digest,
    "schema-1": _artifact_schema_1,
}


def corrupt_artifact(store, digest: str, corruption: str = "garbage") -> str:
    """Damage the stored entry for ``digest`` in place; returns the path.

    The entry must exist (a missing entry is a test-setup bug)."""
    import os

    mutator = ARTIFACT_CORRUPTIONS.get(corruption)
    if mutator is None:
        raise ValueError(
            f"unknown artifact corruption {corruption!r}; "
            f"choose from {sorted(ARTIFACT_CORRUPTIONS)}"
        )
    path = store._object_path(digest)
    if not os.path.exists(path):
        raise CorruptionUnapplicable(f"no stored entry for {digest[:12]}")
    mutator(path)
    return path
