"""Standalone export (F10, §4.6): every backend, end to end.

* ``FunctionCompileExportString[..., "WVM"]`` — the prototype backend
  targeting the *legacy* virtual machine (F4);
* ``FunctionCompileExportLibrary`` + ``LibraryFunctionLoad`` — ahead-of-time
  compilation to an importable module and loading it back, the paper's
  ``LibraryFunctionLoad`` workflow.

Run:  python examples/export_standalone.py
"""

import os
import tempfile

from repro.compiler import (
    FunctionCompileExportLibrary,
    FunctionCompileExportString,
    LibraryFunctionLoad,
)

HYPOT = (
    'Function[{Typed[a, "Real64"], Typed[b, "Real64"]},'
    ' Sqrt[a*a + b*b]]'
)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        # -- WVM export (the F4 prototype backend) --------------------------------
        print("--- WVM listing ---")
        print(FunctionCompileExportString(HYPOT, "WVM"))

        # -- ahead-of-time library export + load ----------------------------------
        lib_path = os.path.join(tmp, "hypot_lib.py")
        FunctionCompileExportLibrary(lib_path, HYPOT)
        main_fn = LibraryFunctionLoad(lib_path)
        print("\nloaded library: Main(3.0, 4.0) =", main_fn(3.0, 4.0))

        # standalone code has no engine: abortability and kernel escapes are
        # disabled, exactly as §4.6 specifies (the checkpoint slow path is
        # bound to no engine's abort flag)
        with open(lib_path) as handle:
            text = handle.read()
        assert "checkpoint as _check_abort" in text and "def _kernel" in text
        print("standalone stubs present ✓ (abort + kernel disabled, §4.6)")


if __name__ == "__main__":
    main()
