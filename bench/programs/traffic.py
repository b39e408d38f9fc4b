"""Request templates for ``server_mix``: what a REPL-like client sends to
``python -m repro serve``, and what must come back.

One pass of one connection is a fixed number of requests of each kind;
the seed draws their order and their literals, which change the values
returned but not the work.  ``malformed`` requests (1 in 50) are broken
JSON or an unknown op: the server must answer each with a classified
``BadRequest`` and keep the connection.
"""

from __future__ import annotations

import json
import random

#: requests of each kind per 1,000 (one connection, one pass)
MIX = {
    "define": 100, "call": 200, "table": 140, "map": 140, "fold": 140,
    "string": 130, "tierup": 130, "malformed": 20,
}
KINDS = tuple(MIX)

FUNCTIONS = 8  # f0 .. f7, defined per session
_HOT_BASE = sum(i * i for i in range(29))  # hot[28]


def prelude(session: str) -> list[tuple[str, str, str]]:
    """Definitions every session starts with, as (kind, line, expected)."""
    sources = [f"f{j}[x_] := x + {j}" for j in range(FUNCTIONS)]
    sources += ["hot[0] = 0", "hot[n_] := n*n + hot[n-1]"]
    return [("define", _eval_line(source, session),
             "0" if source == "hot[0] = 0" else "Null")
            for source in sources]


def _eval_line(source: str, session: str) -> str:
    return json.dumps({"expr": source, "session": session})


def make_request(kind: str, rng: random.Random,
                 session: str) -> tuple[str, str, str]:
    """``(kind, request line, expected result)``; for ``malformed`` the
    expected value is the error kind."""
    a = rng.randrange(1, 1000)
    j = rng.randrange(FUNCTIONS)
    if kind == "define":
        return kind, _eval_line(f"f{j}[x_] := x + {j}", session), "Null"
    if kind == "call":
        return kind, _eval_line(f"f{j}[{a}]", session), str(a + j)
    if kind == "table":
        source = f"Total[Table[i + {a}, {{i, 40}}]]"
        return kind, _eval_line(source, session), str(820 + 40 * a)
    if kind == "map":
        source = f"Map[Function[x, x*x + {a}], Range[12]]"
        values = ", ".join(str(x * x + a) for x in range(1, 13))
        return kind, _eval_line(source, session), f"List[{values}]"
    if kind == "fold":
        source = f"Fold[Plus, {a}, Range[25]]"
        return kind, _eval_line(source, session), str(325 + a)
    if kind == "string":
        source = f'StringJoin["client", "-", "{a}"]'
        return kind, _eval_line(source, session), f'"client-{a}"'
    if kind == "tierup":
        source = f"hot[28] + {a}"
        return kind, _eval_line(source, session), str(_HOT_BASE + a)
    if kind == "malformed":
        line = ('{"expr": ' if a % 2 else
                json.dumps({"op": f"bogus-{a}", "session": session}))
        return kind, line, "BadRequest"
    raise KeyError(kind)


def make_pass(seed: int, connection: int, count: int,
              session: str) -> list[tuple[str, str, str]]:
    """The requests one connection sends in one pass: ``count`` requests
    with the kinds in ``MIX`` proportions, in seeded order."""
    rng = random.Random(f"{seed}:{connection}")
    kinds = [kind for kind, share in MIX.items()
             for _ in range(share * count // 1000)]
    rng.shuffle(kinds)
    return [make_request(kind, rng, session) for kind in kinds]


def response_ok(kind: str, response: dict, expected: str) -> bool:
    if kind == "malformed":
        error = response.get("error") or {}
        return response.get("ok") is False and error.get("kind") == expected
    return response.get("ok") is True and response.get("result") == expected
