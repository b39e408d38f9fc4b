"""Data nested deeper than Python's frame limit never crashes a session.

``$RecursionLimit`` (1024) is above what the host stack allows on nested
data, so ``Nest[f, x, 5000]`` used to escape the evaluator as a raw
``RecursionError`` — from the printer rendering the result, or from the
evaluator walking the tree again.  Every call now returns a value or the
classified :class:`~repro.errors.WolframRecursionError`, and the session
answers its next request.  The printers and the serializer keep their
own stacks, so they render and write a tree of any depth.
"""

from __future__ import annotations

import json
import sys

import pytest

from repro.engine import Evaluator
from repro.errors import WolframParseError, WolframRecursionError
from repro.mexpr import full_form, input_form
from repro.mexpr import serialize
from repro.mexpr.atoms import MInteger, MSymbol
from repro.mexpr.expr import MExprNormal
from repro.server import EngineServer

#: well past Python's default frame limit of 1000
DEPTH = 5000


def _nested(head: str, depth: int = DEPTH):
    node = MSymbol("x")
    for _ in range(depth):
        node = MExprNormal(MSymbol(head), [node])
    return node


def test_the_depth_is_past_the_frame_limit():
    assert DEPTH > sys.getrecursionlimit()


class TestPrintersAndSerializer:
    def test_full_form_renders_any_depth(self):
        text = full_form(_nested("f"))
        assert text == "f[" * DEPTH + "x" + "]" * DEPTH

    def test_input_form_renders_any_depth(self):
        assert input_form(_nested("List")) == "{" * DEPTH + "x" + "}" * DEPTH
        assert input_form(_nested("f")) == "f[" * DEPTH + "x" + "]" * DEPTH
        # infix precedence still decides the parentheses on the way down
        sum_of_products = MInteger(1)
        for _ in range(DEPTH):
            sum_of_products = MExprNormal(MSymbol("Times"), [
                MExprNormal(MSymbol("Plus"), [sum_of_products, MInteger(1)]),
                MInteger(2),
            ])
        text = input_form(sum_of_products)
        assert text.startswith("(" * DEPTH + "1 + 1)*2 + 1)*2")
        assert text.endswith(" + 1)*2")

    def test_serialize_writes_any_depth(self):
        tree = _nested("f")
        text = serialize.dumps(tree)
        assert text.startswith('{"t":"n","h":{"t":"y","v":"f"},"a":[' * 3)
        wire = serialize.to_wire(tree)
        assert full_form(serialize.from_wire(wire)) == full_form(tree)
        # the JSON decoder recurses: too deep to decode is classified
        with pytest.raises(WolframParseError):
            serialize.loads(text)

    def test_serialize_round_trips_what_json_can_decode(self):
        tree = _nested("f", 200)
        tree.set_property("mark", 1)
        text = serialize.dumps(tree)
        assert text == json.dumps(serialize.to_wire(tree),
                                  separators=(",", ":"))
        assert serialize.loads(text) == tree


class TestInterpreter:
    def test_a_deep_result_is_a_value(self):
        session = Evaluator()
        value = session.run(f"Nest[f, x, {DEPTH}]")
        assert full_form(value) == "f[" * DEPTH + "x" + "]" * DEPTH

    @pytest.mark.parametrize("source", [
        f"deep = Nest[f, x, {DEPTH}]; y = 1; Length[deep]",
        "Depth[Nest[List, 1, 3000]]",
        "Nest[List, 1, 3000] === Nest[List, 1, 3000]",
    ])
    def test_walking_deep_data_again_is_a_classified_error(self, source):
        session = Evaluator()
        with pytest.raises(WolframRecursionError):
            session.run(source)
        assert full_form(session.run("1 + 1")) == "2"


class TestServer:
    @pytest.mark.parametrize("source", [
        f"Nest[f, x, {DEPTH}]",
        "Nest[List, 1, 3000]",
        "deep = Nest[List, 1, 3000]; Depth[deep]",
    ])
    def test_deep_nest_never_crashes_the_session(self, source):
        server = EngineServer()
        try:
            response = server.submit(source, session_id="deep")
            assert response.ok or response.error["kind"] == \
                "WolframRecursionError", response.error
            after = server.submit("1 + 1", session_id="deep")
            assert after.ok and after.result == "2"
            assert server.stats()["sessions"]["deep"]["state"] == "idle"
        finally:
            server.close()

    def test_a_deep_result_is_served(self):
        server = EngineServer()
        try:
            response = server.submit(f"Nest[f, x, {DEPTH}]", session_id="d")
            assert response.ok
            assert response.result == "f[" * DEPTH + "x" + "]" * DEPTH
        finally:
            server.close()
