"""Profile-guided tier-up: promotion, gating, invalidation, demotion.

The promotion half of tier governance (`runtime/hotspot.py`): hot DownValue
definitions are synthesized into typed functions and promoted to the
compiled tier; the existing circuit breaker demotes a bad
promotion; any redefinition invalidates the promoted artifact in the same
``state_version`` bump.
"""

import pytest

from repro.compiler import install_engine_support
from repro.compiler.api import clear_failure_records, failure_records
from repro.engine import Evaluator
from repro.mexpr import full_form, parse
from repro.runtime.guard import Tier
from repro.runtime.hotspot import (
    DEFAULT_THRESHOLD,
    disable_hotspot,
    enable_hotspot,
)


@pytest.fixture()
def hosted():
    session = Evaluator(recursion_limit=8192)
    install_engine_support(session)
    session.hotspot.threshold = 4
    return session


@pytest.fixture(autouse=True)
def _clean_failure_log():
    clear_failure_records()
    yield
    clear_failure_records()


def _define_fib(session):
    session.run("fib[0] = 0")
    session.run("fib[1] = 1")
    session.run("fib[n_] := fib[n-1] + fib[n-2]")


class TestPromotion:
    def test_recursive_fib_promotes_and_stays_correct(self, hosted):
        _define_fib(hosted)
        assert hosted.run("fib[20]").to_python() == 6765
        assert "fib" in hosted.hotspot.promoted
        entry = hosted.hotspot.promoted["fib"]
        assert entry.tier_kind == "compiled"
        # promoted dispatch produces the same values as rule dispatch
        assert hosted.run("fib[25]").to_python() == 75025
        assert entry.hits > 0

    def test_multi_rule_literal_synthesis_preserves_rule_order(self, hosted):
        """Multiple literal base cases fold into an If chain in rule order."""
        hosted.run("step[0] = 100")
        hosted.run("step[1] = 200")
        hosted.run("step[2] = 300")
        hosted.run("step[n_] := n * 10")
        for _ in range(6):
            assert hosted.run("step[7]").to_python() == 70
        assert "step" in hosted.hotspot.promoted
        assert hosted.run("step[0]").to_python() == 100
        assert hosted.run("step[1]").to_python() == 200
        assert hosted.run("step[2]").to_python() == 300
        assert hosted.run("step[3]").to_python() == 30

    def test_promotion_event_and_stats_table(self, hosted):
        _define_fib(hosted)
        hosted.run("fib[15]")
        events = [(e.name, e.action) for e in hosted.hotspot.events]
        assert ("fib", "promoted") in events
        rows = hosted.hotspot.table()
        assert rows and rows[0][0] == "fib"
        assert rows[0][2] == "promoted:compiled"

    def test_real_typed_definition_promotes(self, hosted):
        hosted.run("scale[x_Real] := x * 2.0 + 1.0")
        for _ in range(6):
            assert hosted.run("scale[3.0]").to_python() == 7.0
        assert "scale" in hosted.hotspot.promoted
        assert hosted.run("scale[0.5]").to_python() == 2.0

    def test_bare_evaluator_has_no_profiler(self):
        session = Evaluator()
        assert session.hotspot is None
        session.run("f[n_] := n + 1")
        for _ in range(40):
            assert session.run("f[1]").to_python() == 2

    def test_enable_hotspot_is_idempotent(self):
        session = Evaluator()
        first = enable_hotspot(session, threshold=7)
        second = enable_hotspot(session, threshold=99)
        assert first is second
        assert session.hotspot.threshold == 7
        disable_hotspot(session)
        assert session.hotspot is None


class TestGating:
    def test_symbolic_arguments_fall_through_to_rules(self, hosted):
        hosted.run("twice[n_] := n + n")
        for _ in range(6):
            hosted.run("twice[3]")
        assert "twice" in hosted.hotspot.promoted
        # a symbolic argument fails the type gate; the general rule still
        # applies interpretively
        assert full_form(hosted.run("twice[y]")) == "Plus[y, y]"
        # the promotion survives the gated call and keeps working
        assert "twice" in hosted.hotspot.promoted
        assert hosted.run("twice[21]").to_python() == 42

    def test_out_of_range_integer_is_evaluated_exactly(self, hosted):
        hosted.run("dbl[n_] := n + n")
        for _ in range(6):
            hosted.run("dbl[3]")
        assert "dbl" in hosted.hotspot.promoted
        huge = 2 ** 80
        assert hosted.run(f"dbl[{huge}]").to_python() == 2 * huge
        # no soft-failure message: the gate declined before the artifact ran
        assert not hosted.messages

    def test_observed_int_gate_rejects_reals(self, hosted):
        hosted.run("dbl[n_] := n + n")
        for _ in range(6):
            hosted.run("dbl[3]")
        assert "dbl" in hosted.hotspot.promoted
        assert hosted.hotspot.promoted["dbl"].kinds == ("i",)
        assert hosted.run("dbl[1.25]").to_python() == 2.5

    def test_unsupported_bodies_are_blocked_not_promoted(self, hosted):
        hosted.run('name[n_] := StringJoin["x", "y"]')
        for _ in range(8):
            hosted.run("name[1]")
        assert "name" not in hosted.hotspot.promoted
        assert any(e.action == "blocked" for e in hosted.hotspot.events)

    def test_integer_division_is_never_promoted(self, hosted):
        """Machine integer division (5/2 -> 2) would diverge from the
        engine's real-valued division (5/2 -> 2.5)."""
        hosted.run("half[n_] := n / 2")
        for _ in range(8):
            result = hosted.run("half[5]")
        assert "half" not in hosted.hotspot.promoted
        assert result.to_python() == 2.5

    def test_overflow_soft_fails_to_exact_interpretation(self, hosted):
        hosted.run("cube[n_] := n*n*n")
        for _ in range(6):
            assert hosted.run("cube[5]").to_python() == 125
        assert "cube" in hosted.hotspot.promoted
        # 1e10^3 overflows int64 in the artifact; the interpreter answers
        value = hosted.run("cube[10000000000]").to_python()
        assert value == 10 ** 30
        assert failure_records(kind="IntegerOverflow")
        assert any("reverting to uncompiled" in m for m in hosted.messages)


class TestInvalidation:
    def test_set_invalidates_in_same_state_version_bump(self, hosted):
        hosted.run("g[0] = 0")
        hosted.run("g[n_] := g[n-1] + 2")
        assert hosted.run("g[10]").to_python() == 20
        assert "g" in hosted.hotspot.promoted
        stale = hosted.hotspot.promoted["g"]
        version_before = hosted.state.state_version
        hosted.run("g[n_] := g[n-1] + 3")  # one Set, one version bump
        assert hosted.state.state_version == version_before + 1
        # the very next call sees the new rule, not the stale artifact
        assert hosted.run("g[10]").to_python() == 30
        assert hosted.hotspot.promoted.get("g") is not stale
        assert any(
            e.name == "g" and e.action == "invalidated"
            for e in hosted.hotspot.events
        )

    def test_clear_invalidates_promotion(self, hosted):
        hosted.run("h[n_] := n + 1")
        for _ in range(6):
            hosted.run("h[1]")
        assert "h" in hosted.hotspot.promoted
        hosted.run("Clear[h]")
        assert full_form(hosted.run("h[1]")) == "h[1]"
        hosted.run("h[n_] := n + 5")
        assert hosted.run("h[1]").to_python() == 6

    def test_block_scoped_redefinition_is_honoured(self, hosted):
        hosted.run("k[n_] := n + 1")
        for _ in range(6):
            hosted.run("k[1]")
        assert "k" in hosted.hotspot.promoted
        result = hosted.run("Block[{k}, k[n_] := n + 100; k[1]]")
        assert result.to_python() == 101
        # after the Block exits the original definition is live again
        assert hosted.run("k[1]").to_python() == 2


class TestDemotion:
    def test_tripped_breaker_withdraws_the_promotion(self, hosted):
        hosted.run("p[n_] := n + 1")
        for _ in range(6):
            hosted.run("p[1]")
        entry = hosted.hotspot.promoted["p"]
        # trip the artifact's breaker
        entry.artifact.breaker.tier = Tier.INTERPRETER
        assert hosted.run("p[41]").to_python() == 42
        assert "p" not in hosted.hotspot.promoted
        assert any(
            e.name == "p" and e.action == "demoted"
            for e in hosted.hotspot.events
        )
        # blocked: staying hot does not re-promote the known-bad definition
        for _ in range(10):
            hosted.run("p[1]")
        assert "p" not in hosted.hotspot.promoted
        # ... until the definition changes
        hosted.run("p[n_] := n + 2")
        for _ in range(6):
            hosted.run("p[1]")
        assert "p" in hosted.hotspot.promoted

    def test_compiled_tier_decline_leaves_the_definition_interpreted(
        self, hosted, monkeypatch
    ):
        from repro.errors import CompilerError

        def refuse(*args, **kwargs):
            raise CompilerError("compiled tier unavailable in this test")

        monkeypatch.setattr("repro.compiler.api.FunctionCompile", refuse)
        hosted.run("q[n_] := n * 3")
        for _ in range(6):
            assert hosted.run("q[2]").to_python() == 6
        # no other tier steps in: the definition stays interpreted, blocked
        # from re-promotion until it changes
        assert "q" not in hosted.hotspot.promoted
        assert [e.action for e in hosted.hotspot.events] == ["blocked"]
        assert hosted.run("q[14]").to_python() == 42
        assert hosted.hotspot.table()[0][:3] == ("q", 7, "blocked")
        # the block is of those rules: the new definition's count profiles
        hosted.run("q[n_] := n * 4")
        assert hosted.run("q[2]").to_python() == 8
        assert hosted.hotspot.table()[0][1:3] == (1, "profiling")


class TestTwoRungLadder:
    """Interpreter, then the full pipeline at one threshold; the count
    belongs to the definition it was taken against."""

    @pytest.fixture()
    def session(self):
        session = Evaluator(recursion_limit=8192)
        install_engine_support(session)
        session.hotspot.threshold = DEFAULT_THRESHOLD
        return session

    def test_symbol_redefined_every_few_calls_never_promotes(self, session):
        """A ``define``/``call`` mix: each definition is applied fewer
        times than the threshold, so nothing is ever compiled."""
        from repro.observe import with_tracing

        with with_tracing() as tracer:
            for version in range(12):
                session.run(f"f[x_] := x + {version}")
                for argument in range(5):
                    assert session.run(f"f[{argument}]").to_python() == \
                        argument + version
        assert session.hotspot.promoted == {}
        assert session.hotspot.events == []
        assert session.hotspot.counts["f"] == 5
        assert session.hotspot.compile_count == 0
        assert not tracer.spans("hotspot.promote")
        assert not tracer.spans("compile.function")
        assert not tracer.spans("template.compile")

    def test_one_definition_promotes_once_straight_to_compiled(
        self, session
    ):
        from repro.observe import with_tracing

        session.run("sq[n_] := n*n + 1")
        with with_tracing() as tracer:
            for _ in range(DEFAULT_THRESHOLD - 1):
                assert session.run("sq[3]").to_python() == 10
            assert "sq" not in session.hotspot.promoted
            for _ in range(DEFAULT_THRESHOLD + 4):
                assert session.run("sq[3]").to_python() == 10
        promotions = [(e.name, e.tier) for e in session.hotspot.events
                      if e.action == "promoted"]
        assert promotions == [("sq", "compiled")]
        assert session.hotspot.promoted["sq"].tier_kind == "compiled"
        (promote,) = tracer.instants("tier.promote")
        assert promote.args["tier"] == "compiled"
        assert promote.args["applications"] == DEFAULT_THRESHOLD
        assert not tracer.spans("template.compile")
        (attempt,) = tracer.spans("hotspot.promote")
        assert set(attempt.args) == {"symbol"}
        assert session.hotspot.compile_time_table()[0][:2] == ("compiled", 1)

    def test_count_restarts_after_a_block_restore(self, session):
        session.run("k[n_] := n + 1")
        for _ in range(10):
            session.run("k[1]")
        assert session.hotspot.counts["k"] == 10
        assert session.run("Block[{k}, k[n_] := n + 100; k[1]]") \
            .to_python() == 101
        assert session.hotspot.counts["k"] == 1
        # the restored rules are the same, but the count is of the restore
        for _ in range(10):
            assert session.run("k[1]").to_python() == 2
        assert session.hotspot.counts["k"] == 10
        assert "k" not in session.hotspot.promoted
        for _ in range(6):
            session.run("k[1]")
        assert session.hotspot.promoted["k"].tier_kind == "compiled"

    def test_count_restarts_after_clear(self, session):
        session.run("c[n_] := n + 1")
        for _ in range(10):
            session.run("c[1]")
        session.run("Clear[c]")
        session.run("c[n_] := n + 1")
        for _ in range(10):
            assert session.run("c[1]").to_python() == 2
        assert session.hotspot.counts["c"] == 10
        assert "c" not in session.hotspot.promoted

    def test_retry_later_symbol_promotes_on_its_next_numeric_call(
        self, session
    ):
        session.run("tw[n_] := n + n")
        for _ in range(DEFAULT_THRESHOLD - 1):
            session.run("tw[1]")
        # the threshold call has a symbolic argument: no type to compile
        # for, so the promotion waits without blocking the definition
        assert full_form(session.run("tw[y]")) == "Plus[y, y]"
        assert "tw" not in session.hotspot.promoted
        assert session.hotspot.events == []
        assert session.run("tw[2]").to_python() == 4
        assert session.hotspot.promoted["tw"].kinds == ("i",)

    def test_redefinition_invalidates_promotion(self, session):
        session.hotspot.threshold = 3
        session.run("f[n_] := n + 1")
        for _ in range(3):
            assert session.run("f[1]").to_python() == 2
        stale = session.hotspot.promoted["f"]
        assert stale.tier_kind == "compiled"
        session.run("f[n_] := n + 100")
        # the very next call sees the new rule, not the stale artifact
        assert session.run("f[1]").to_python() == 101
        assert "f" not in session.hotspot.promoted
        assert any(
            e.name == "f" and e.action == "invalidated"
            for e in session.hotspot.events
        )
        # the new definition earns its own promotion
        for _ in range(2):
            session.run("f[1]")
        assert session.hotspot.promoted["f"] is not stale
        assert session.run("f[1]").to_python() == 101


class TestThresholdKnob:
    def test_below_threshold_no_promotion(self):
        session = Evaluator()
        install_engine_support(session)
        session.hotspot.threshold = 1000
        session.run("r[n_] := n + 1")
        for _ in range(20):
            session.run("r[1]")
        assert "r" not in session.hotspot.promoted
        assert session.hotspot.counts["r"] == 20


class TestStatsSurface:
    def test_stats_report_includes_hot_function_table(self, hosted):
        import io

        from repro.__main__ import _print_session_stats

        _define_fib(hosted)
        hosted.run("fib[15]")
        out = io.StringIO()
        _print_session_stats(hosted, out)
        text = out.getvalue()
        assert "hot functions" in text
        assert "fib" in text
        assert "promoted:compiled" in text

    def test_parse_roundtrip_for_promoted_result(self, hosted):
        """Promoted results re-enter the evaluator as ordinary MExprs."""
        _define_fib(hosted)
        hosted.run("fib[15]")
        assert full_form(parse("fib[10] + fib[10]")) == \
            "Plus[fib[10], fib[10]]"
        assert hosted.run("fib[10] + fib[10]").to_python() == 110


class TestPromotedCall:
    """A promoted call is gated once: no lock on the read path (an entry
    is valid while its ``rules_version`` is the definition's), one check
    and conversion per argument, and the artifact's call protocol past its
    own boundary — breaker, soft failure and its counts as ever."""

    @staticmethod
    def _promote(session):
        session.run("sq[n_] := n*n + 1")
        session.run("Table[sq[k], {k, 1, 10}]")
        entry = session.hotspot.promoted["sq"]
        assert entry.tier_kind == "compiled"
        return entry

    def test_a_loop_over_a_promoted_call_takes_no_lock(self, hosted):
        """Every ``Table`` iteration moves ``state_version``; the promotion
        stays valid without the table's lock being taken."""
        entry = self._promote(hosted)

        class Untouchable:
            def __enter__(self):
                raise AssertionError("the read path took the lock")

            def __exit__(self, *exc):
                return False

        hosted.hotspot._lock = Untouchable()
        hits = entry.hits
        assert hosted.run("Total[Table[sq[k], {k, 1, 50}]]").to_python() == \
            sum(k * k + 1 for k in range(1, 51))
        assert entry.hits == hits + 50

    def test_redefinition_inside_a_running_table_drops_it_in_that_bump(
        self, hosted
    ):
        self._promote(hosted)
        values = hosted.run(
            "Table[If[k == 5, sq[n_] := n + 100]; sq[k], {k, 1, 8}]"
        ).to_python()
        assert values == [2, 5, 10, 17, 105, 106, 107, 108]
        assert ("sq", "invalidated") in [
            (e.name, e.action) for e in hosted.hotspot.events
        ]

    def test_a_real_argument_to_an_integer_gate_declines(self, hosted):
        entry = self._promote(hosted)
        calls = dict(entry.artifact.stats().calls)
        assert hosted.run("sq[2.5]").to_python() == 7.25
        assert hosted.run("sq[2^70]").to_python() == 2 ** 140 + 1
        # interpreted by the rules: the native code never ran, no warning
        assert entry.artifact.stats().calls == calls
        assert hosted.messages == []
        assert hosted.hotspot.promoted["sq"] is entry

    def test_a_tripped_breaker_still_withdraws(self, hosted):
        hosted.run("cube[n_] := n*n*n")
        hosted.run("Table[cube[k], {k, 1, 10}]")
        entry = hosted.hotspot.promoted["cube"]
        big = 3_000_000_000_000
        values = hosted.run(
            f"Table[cube[{big} + k], {{k, 1, 5}}]").to_python()
        assert values == [(big + k) ** 3 for k in range(1, 6)]
        # three overflows trip it; the next call withdraws the promotion
        assert len(hosted.messages) == entry.artifact.breaker.threshold
        assert "cube" not in hosted.hotspot.promoted
        assert ("cube", "demoted") in [
            (e.name, e.action) for e in hosted.hotspot.events
        ]

    def test_an_abort_mid_table_over_a_promoted_body(self, hosted):
        import threading

        entry = self._promote(hosted)
        hits = entry.hits
        timer = threading.Timer(0.05, hosted.request_abort)
        timer.start()
        try:
            result = hosted.evaluate_protected(
                parse("Table[sq[k], {k, 1, 10^6}]"))
        finally:
            timer.cancel()
            hosted.clear_abort()
        assert full_form(result) == "$Aborted"
        assert entry.hits > hits
        assert hosted.run("sq[3]").to_python() == 10

    def test_fallback_stats_count_each_promoted_call_once(self, hosted):
        entry = self._promote(hosted)
        before = entry.artifact.stats().calls.get("compiled", 0)
        hits = entry.hits
        hosted.run("Table[sq[k], {k, 1, 100}]")
        assert entry.artifact.stats().calls == {"compiled": before + 100}
        assert entry.hits == hits + 100
        assert entry.artifact.fallback_count == 0
