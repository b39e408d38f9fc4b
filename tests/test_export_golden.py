"""Golden export identity: a compile-time change must not move one byte
of generated code.

``tests/golden/export_sha256.json`` holds the sha256 of the Python export
of every ``repro.benchsuite.programs`` kernel.  Generated code names
variables after SSA value ids, and ids come from a process-wide counter,
so each program is exported in a fresh interpreter, where numbering starts
at 1.

A PR that changes code generation on purpose regenerates the file::

    PYTHONPATH=src python tests/test_export_golden.py

and reviews the diff; every other PR must leave it alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "export_sha256.json")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: runs in the child: argv[1] names the program
_CHILD = '''
import hashlib, json, sys
from repro import FunctionCompileExportString
from repro.benchsuite import programs, reference

name = sys.argv[1]
source = getattr(programs, name)
keywords = {}
if "primeTable" in source:
    keywords["constants"] = {"primeTable": reference.prime_sieve_bitmap(),
                             "witnesses": programs.RM_WITNESSES}
print(json.dumps({
    target: hashlib.sha256(
        FunctionCompileExportString(source, target, **keywords)
        .encode("utf-8")).hexdigest()
    for target in ("Python",)
}))
'''


def _program_names() -> list[str]:
    from repro.benchsuite import programs

    return sorted(n for n in vars(programs) if n.startswith("NEW_")) + [
        "ITERATIVE_FIB"
    ]


def export_digests(name: str) -> dict[str, str]:
    """``{"Python": sha256}`` of one program's export, taken in a fresh
    interpreter."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, environment.get("PYTHONPATH")) if p
    )
    environment["REPRO_ARTIFACT_CACHE"] = "off"
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, name], env=environment,
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


@pytest.mark.parametrize("name", _program_names())
def test_exports_match_the_golden_digests(name):
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert name in golden, (
        f"{name} has no golden digest; regenerate with "
        "`PYTHONPATH=src python tests/test_export_golden.py`"
    )
    assert export_digests(name) == golden[name], (
        f"the generated code of {name} changed.  If this PR changes code "
        "generation on purpose, regenerate tests/golden/export_sha256.json "
        "with `PYTHONPATH=src python tests/test_export_golden.py` and "
        "review the diff; a compile-time PR must not move it."
    )


def test_golden_file_names_exactly_the_shipped_programs():
    with open(GOLDEN, encoding="utf-8") as handle:
        assert sorted(json.load(handle)) == sorted(_program_names())


if __name__ == "__main__":
    digests = {name: export_digests(name) for name in _program_names()}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
