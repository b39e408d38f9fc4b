"""Write ``expected.json``: the value of every seed-independent session
script, from the interpreter with the hotspot profiler off.

Run once, from the repository root, when a script's text changes::

    PYTHONPATH=src python3 bench/programs/generate_expected.py

The result is committed; the benchmark never regenerates it, so a tier
that starts returning something else is caught.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from programs import scripts  # noqa: E402


def main() -> None:
    from repro.compiler import install_engine_support
    from repro.engine import Evaluator
    from repro.mexpr import full_form
    from repro.runtime.hotspot import disable_hotspot

    os.environ["REPRO_ARTIFACT_CACHE"] = "off"
    expected = {}
    for name, lines in scripts.STATIC.items():
        session = Evaluator()
        install_engine_support(session)  # the softfail script compiles
        disable_hotspot(session)
        for line in lines:
            value = session.run(line)
        expected[name] = full_form(value)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
