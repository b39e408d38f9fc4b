"""Session scripts for ``interp_tierup``: each runs in a fresh engine
session, line by line; the value of the last line is checked.

Half define DownValue functions and call them hot from cold, so the
template stitch (2 applications) and the full-pipeline promotion (16)
happen inside the timed op; half never promote and measure the
interpreter alone.  The seed draws literals (coefficients, list and string
data) that leave the amount of work unchanged; script text is otherwise
fixed.  Seed-independent scripts are checked against ``expected.json``
(written once by ``generate_expected.py`` from the interpreter with the
hotspot profiler off); seeded ones against plain Python.
"""

from __future__ import annotations

import json
import os
import random

_ORDERLESS_TERMS = " + ".join(f"z{i}" for i in range(60, 0, -1))

#: seed-independent scripts
STATIC = {
    # -- promote ----------------------------------------------------------
    "fib_rec": [
        "fib[0] = 0",
        "fib[1] = 1",
        "fib[n_] := fib[n-1] + fib[n-2]",
        "Total[Table[fib[k], {k, 3, 20}]]",
    ],
    "collatz": [
        "steps[1, acc_] := acc",
        "steps[n_, acc_] := If[EvenQ[n], steps[Quotient[n, 2], acc + 1],"
        " steps[3*n + 1, acc + 1]]",
        "Total[Table[steps[k, 0], {k, 1, 400}]]",
    ],
    "realsum": [
        "lg[x_Real] := 3.7*x*(1.0 - x)",
        "Total[Table[lg[0.0005*k], {k, 1, 1500}]]",
    ],
    # §2.2's transcript: the compiled iterative fib overflows Integer64 at
    # n = 93 and the call is re-evaluated by the interpreter with bignums
    "softfail": [
        'cfib = FunctionCompile[Function[{Typed[n, "MachineInteger"]},'
        ' Module[{a = 0, b = 1, i = 1},'
        '  While[i <= n, Module[{t = a + b}, a = b; b = t]; i = i + 1]; a]]]',
        "cfib[90]",
        "cfib[200]",
    ],
    # -- never promote ----------------------------------------------------
    "dispatch_1k": (
        [f"table[{k}] = {k * k}" for k in range(1000)]
        + ["table[n_] := -1",
           "Total[Table[table[Mod[7*k, 1200]], {k, 1, 600}]]"]
    ),
    "orderless": [
        f"f[{_ORDERLESS_TERMS}]",
        f"Length[Table[{_ORDERLESS_TERMS}, {{120}}]]",
    ],
    "symbolic": [
        "Expand[(x + y + 1)^5]",
        "D[Expand[(x + 2)^6]*Sin[x], x]",
    ],
    "listsum": [
        "Total[Table[Total[Range[k]], {k, 1, 180}]]",
    ],
}

PROMOTING = ("fib_rec", "sumto", "collatz", "poly", "realsum", "softfail")
INTERPRETED = ("dispatch_1k", "orderless", "symbolic", "functional",
               "strings", "listsum")
NAMES = PROMOTING + INTERPRETED

_EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "expected.json")


def load_expected() -> dict:
    with open(_EXPECTED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def build(name: str, seed: int) -> tuple[list[str], str | None]:
    """``(lines, expected FullForm)`` of one script; ``expected`` is
    ``None`` for the seed-independent scripts in ``expected.json``."""
    if name in STATIC:
        return STATIC[name], None
    rng = random.Random(f"{seed}:{name}")
    if name == "poly":
        a, b, c = (rng.randrange(2, 10) for _ in range(3))
        lines = [f"poly[x_] := {a}*x*x*x - {b}*x*x + x - {c}",
                 "Total[Table[poly[k], {k, 1, 1000}]]"]
        value = sum(a * k ** 3 - b * k * k + k - c for k in range(1, 1001))
        return lines, str(value)
    if name == "sumto":
        a = rng.randrange(0, 1000)
        lines = ["sumto[0, acc_] := acc",
                 "sumto[n_, acc_] := sumto[n - 1, acc + n]",
                 f"Total[Table[sumto[250, k + {a}], {{k, 1, 40}}]]"]
        value = sum(250 * 251 // 2 + k + a for k in range(1, 41))
        return lines, str(value)
    if name == "functional":
        data = [rng.randrange(0, 10_000) for _ in range(500)]
        lines = ["data = {" + ", ".join(map(str, data)) + "}",
                 "Fold[Plus, 0, Map[Function[v, v*v],"
                 " Select[Sort[data], EvenQ]]]"]
        return lines, str(sum(v * v for v in data if v % 2 == 0))
    if name == "strings":
        letters = "abcdefghijklmnopqrstuvwxyz"
        words = ["".join(rng.choice(letters) for _ in range(6))
                 for _ in range(250)]
        lines = ["words = {" + ", ".join(f'"{w}"' for w in words) + "}",
                 "StringJoin[Map[ToUpperCase, Reverse[words]]]"]
        return lines, '"' + "".join(reversed(words)).upper() + '"'
    raise KeyError(name)


def matches(got: str, expected: str) -> bool:
    """Equal FullForm text, or equal reals to 1e-9 (a promoted tier may
    sum in another order than the interpreter)."""
    if got == expected:
        return True
    try:
        a, b = float(got), float(expected)
    except ValueError:
        return False
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b))
