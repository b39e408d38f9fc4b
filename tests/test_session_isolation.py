"""Session isolation over the copy-on-write base+overlay KernelState (S3).

The server's core correctness claim: sessions layered over one frozen
base image can redefine, clear, and Block-scope symbols freely without
any effect observable from a sibling session — including the caches that
hang off definitions (dispatch indexes) and off evaluators (hotspot
promotion tables).
"""

from __future__ import annotations

from repro.engine import Evaluator
from repro.engine.definitions import KernelState, _VERSION_STRIDE
from repro.mexpr import full_form, parse
from repro.server import BaseImage


def run(evaluator: Evaluator, source: str) -> str:
    return full_form(evaluator.run(source))


def make_base(*prelude: str) -> BaseImage:
    return BaseImage(prelude=prelude)


class TestCopyOnWriteState:
    def test_overlay_reads_fall_through_to_base(self):
        base = make_base("shared[x_] := x + 100")
        session = Evaluator(state=base.create_state())
        assert run(session, "shared[1]") == "101"
        # a pure read never copies the definition into the overlay
        assert "shared" not in session.state.overlay_names()

    def test_redefinition_copies_not_mutates(self):
        base = make_base("f[x_] := x * 2")
        a = Evaluator(state=base.create_state())
        b = Evaluator(state=base.create_state())
        assert run(a, "f[x_] := x * 3; f[10]") == "30"
        assert run(b, "f[10]") == "20"  # b still sees the base rule
        # the base Definition object itself kept exactly one rule
        assert len(base.definitions["f"].down_values) == 1

    def test_added_rule_shadows_whole_definition(self):
        # COW copies the *definition*: a session adding a second, more
        # specific rule keeps the base rule too (snapshot semantics)
        base = make_base("g[x_] := x + 1")
        a = Evaluator(state=base.create_state())
        assert run(a, "g[0] = 99; g[0]") == "99"
        assert run(a, "g[5]") == "6"  # the copied base rule still fires
        b = Evaluator(state=base.create_state())
        assert run(b, "g[0]") == "1"

    def test_ownvalue_assignment_isolated(self):
        base = make_base("setting = 7")
        a = Evaluator(state=base.create_state())
        b = Evaluator(state=base.create_state())
        assert run(a, "setting = 8; setting") == "8"
        assert run(b, "setting") == "7"

    def test_clear_masks_base_definition(self):
        base = make_base("h[x_] := x * x")
        a = Evaluator(state=base.create_state())
        b = Evaluator(state=base.create_state())
        assert run(a, "Clear[h]; h[4]") == "h[4]"  # cleared: unevaluated
        assert run(b, "h[4]") == "16"              # sibling unaffected
        assert len(base.definitions["h"].down_values) == 1

    def test_block_restore_over_base_symbol(self):
        base = make_base("x = 5")
        a = Evaluator(state=base.create_state())
        b = Evaluator(state=base.create_state())
        assert run(a, "Block[{x = 10}, x]") == "10"
        assert run(a, "x") == "5"  # restored after the Block
        assert run(b, "x") == "5"
        # the restore went through the overlay, never the base
        assert base.definitions["x"].has_own_value
        assert full_form(base.definitions["x"].own_value) == "5"

    def test_block_restore_of_base_function(self):
        base = make_base("f[x_] := x + 1")
        a = Evaluator(state=base.create_state())
        assert run(a, "Block[{f}, f[x_] := x - 1; f[10]]") == "9"
        assert run(a, "f[10]") == "11"

    def test_version_ranges_are_disjoint(self):
        base = make_base()
        states = [base.create_state() for _ in range(3)]
        slots = {state.state_version // _VERSION_STRIDE for state in states}
        assert len(slots) == 3
        # a plain (base-less) state keeps the historic 0 origin
        assert KernelState().state_version == 0

    def test_evaluated_stamps_do_not_cross_sessions(self):
        # shared base MExpr nodes carry $evalv stamps; disjoint version
        # ranges must keep one session's stamps meaningless to another
        base = make_base("stamped = Plus[deep, nest]")
        a = Evaluator(state=base.create_state())
        b = Evaluator(state=base.create_state())
        assert run(a, "stamped") == run(b, "stamped")
        assert run(b, "deep = 1; nest = 2; stamped") == "3"
        assert run(a, "stamped") == "Plus[deep, nest]"


class TestDispatchAndHotspotIsolation:
    def test_dispatch_index_survives_sibling_redefinition(self):
        source = "; ".join(f"table[{i}] = {i * i}" for i in range(40))
        base = make_base(source)
        a = Evaluator(state=base.create_state())
        b = Evaluator(state=base.create_state())
        assert run(a, "table[7]") == "49"
        index_before = base.definitions["table"]._index
        assert index_before is not None  # freeze() pre-built it
        # b redefines the whole table; a's dispatch path is untouched
        assert run(b, "Clear[table]; table[x_] := 0; table[7]") == "0"
        assert base.definitions["table"]._index is index_before
        assert run(a, "table[9]") == "81"

    def test_promoted_hot_function_survives_sibling_redefinition(self):
        base = make_base("fib[0] = 0", "fib[1] = 1",
                         "fib[n_] := fib[n - 1] + fib[n - 2]")
        a = base.create_evaluator()
        b = base.create_evaluator()
        assert full_form(a.evaluate(parse("fib[12]"))) == "144"
        assert "fib" in a.hotspot.promoted
        # b redefines fib: its own session, its own hotspot bookkeeping
        assert full_form(b.evaluate(parse("fib[n_] := 0; fib[12]"))) == "0"
        assert "fib" in a.hotspot.promoted  # a's promotion is untouched
        assert full_form(a.evaluate(parse("fib[13]"))) == "233"

    def test_own_redefinition_still_invalidates(self):
        base = make_base("fib[0] = 0", "fib[1] = 1",
                         "fib[n_] := fib[n - 1] + fib[n - 2]")
        a = base.create_evaluator()
        assert full_form(a.evaluate(parse("fib[12]"))) == "144"
        assert "fib" in a.hotspot.promoted
        assert full_form(a.evaluate(parse("fib[n_] := 7; fib[12]"))) == "7"
        assert "fib" not in a.hotspot.promoted


class TestFreezeAndOverlayAccounting:
    def test_freeze_is_immutable(self):
        base = make_base("k = 1")
        import pytest

        with pytest.raises(TypeError):
            base.definitions["new"] = None  # type: ignore[index]

    def test_overlay_accounting(self):
        base = make_base("a = 1", "b = 2")
        state = base.create_state()
        session = Evaluator(state=state)
        assert state.overlay_size() == 0
        run(session, "a = 10")
        run(session, "c = 3")
        assert sorted(state.overlay_names()) == ["a", "c"]
        assert state.base is base.definitions

    def test_plain_state_unchanged(self):
        # the non-server path: no base, dict semantics as before
        state = KernelState()
        assert state.base is None
        assert state.overlay_size() == 0
        session = Evaluator(state=state)
        assert run(session, "q = 1; q") == "1"
        assert sorted(state.overlay_names()) == ["q"]
