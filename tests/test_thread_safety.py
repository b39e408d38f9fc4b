"""Thread-safety regression tests for the runtime guard layer (S2).

The server executes requests on a worker pool, so the process-wide
structures requests share — the failure-log ring buffer, per-function
circuit breakers, and the hotspot promotion table — are hammered here
from many threads at once.  Before the locks these tests pin down, the
races were: lost failure-log records, duplicated breaker demotion
records, double-withdrawn promotions (KeyError), and torn tier counters.
"""

from __future__ import annotations

import threading

import pytest

from repro.runtime.guard import (
    CircuitBreaker,
    FailureLog,
    Tier,
)

THREADS = 8
ROUNDS = 200


def hammer(worker, threads: int = THREADS):
    """Run ``worker(index)`` in ``threads`` threads behind one barrier."""
    barrier = threading.Barrier(threads)
    errors: list = []

    def entry(index: int) -> None:
        barrier.wait()
        try:
            worker(index)
        except Exception as error:  # pragma: no cover - the failure signal
            errors.append(error)

    pool = [threading.Thread(target=entry, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert errors == []


class TestFailureLogRing:
    def test_bounded_capacity(self):
        log = FailureLog(capacity=16)
        for index in range(100):
            log.record(f"f{index}", Tier.COMPILED, "Overflow", "boom")
        records = log.records()
        assert len(records) == 16
        # the ring keeps the newest records
        assert records[-1].function == "f99"
        assert records[0].function == "f84"
        # sequence numbers keep counting past evictions
        assert records[-1].sequence == 100

    def test_concurrent_records_none_lost(self):
        log = FailureLog(capacity=THREADS * ROUNDS + 10)

        def worker(index: int) -> None:
            for round_number in range(ROUNDS):
                log.record(f"t{index}", Tier.TEMPLATE, "Overflow",
                           f"r{round_number}")

        hammer(worker)
        assert len(log) == THREADS * ROUNDS
        sequences = [record.sequence for record in log.records()]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == THREADS * ROUNDS

    def test_concurrent_records_with_small_ring(self):
        log = FailureLog(capacity=32)

        def worker(index: int) -> None:
            for round_number in range(ROUNDS):
                log.record(f"t{index}", Tier.COMPILED, "Overflow",
                           f"r{round_number}")
                if round_number % 50 == 0:
                    log.records(function=f"t{index}")  # reads interleave

        hammer(worker)
        assert len(log) == 32


class TestCircuitBreakerThreads:
    def test_exactly_one_transition_record(self):
        log = FailureLog(capacity=10_000)
        breaker = CircuitBreaker("hot", log=log, threshold=THREADS * ROUNDS)

        def worker(index: int) -> None:
            for _ in range(ROUNDS):
                breaker.record_failure(Tier.COMPILED, "Overflow", "boom")

        hammer(worker)
        # every failure was counted (no torn increments)...
        assert breaker.failures[Tier.COMPILED] == THREADS * ROUNDS
        # ...and the threshold crossing tripped exactly once
        transitions = [record.transition for record in log.records()
                       if record.transition is not None]
        assert transitions == [(Tier.COMPILED, Tier.INTERPRETER)]
        assert breaker.tier is Tier.INTERPRETER

    def test_concurrent_reset_and_failures(self):
        breaker = CircuitBreaker("hot", log=FailureLog(capacity=64),
                                 threshold=3)

        def worker(index: int) -> None:
            for _ in range(ROUNDS):
                if index % 2:
                    breaker.record_failure(Tier.COMPILED, "Overflow", "x")
                else:
                    breaker.reset()
                    breaker.tripped(Tier.COMPILED)

        hammer(worker)
        assert breaker.tier in (Tier.COMPILED, Tier.INTERPRETER)


def _entry(name: str, tier: Tier):
    from repro.runtime.hotspot import PromotedFunction

    class _Artifact:
        def __init__(self):
            self.breaker = CircuitBreaker(name, log=FailureLog(capacity=4))

        def __call__(self, *args):
            return None

    return PromotedFunction(
        name=name, artifact=_Artifact(), tier_kind=tier.value,
        kinds=(), rules_version=0,
    )


class TestHotspotTableThreads:
    def _profiler(self):
        from repro.runtime.hotspot import HotspotProfiler

        return HotspotProfiler(threshold=5)

    def test_concurrent_invalidate_and_demote(self):
        profiler = self._profiler()

        def refill() -> None:
            with profiler._lock:
                for name in ("f", "g", "h"):
                    profiler.promoted[name] = _entry(name, Tier.COMPILED)

        refill()

        def worker(index: int) -> None:
            for round_number in range(ROUNDS):
                if index == 0 and round_number % 10 == 0:
                    refill()
                elif index % 3 == 0:
                    profiler.demote_all(Tier.INTERPRETER, reason="test")
                    profiler.demote_all(Tier.COMPILED, reason="recover")
                elif index % 3 == 1:
                    profiler.invalidate("f")
                    profiler.invalidate("g")
                else:
                    profiler.invalidate("h")

        hammer(worker)

    def test_demote_all_caps_future_promotions(self):
        class _Definition:
            rules_version = 0

        profiler = self._profiler()
        profiler.demote_all(Tier.INTERPRETER)
        for _ in range(20):
            # past the threshold, record() must hit the max_tier floor and
            # return before touching the evaluator or the rules at all
            profiler.record(None, "f", _Definition(), None)
        assert profiler.counts["f"] == 20
        assert profiler.promoted == {}
        assert profiler.max_tier is Tier.INTERPRETER

    def test_promotion_install_rechecks_cap_lowered_mid_compile(self,
                                                                monkeypatch):
        """A promotion compiling while ``demote_all`` lowers the cap must
        not install an over-cap artifact: ``demote_all`` only withdraws
        entries already in the table, so a late install would stick until
        the *next* cap change."""
        from repro.runtime.hotspot import HotspotProfiler, _Plan

        class _Definition:
            down_values: list = []
            rules_version = 0

        class _State:
            state_version = 0

        class _Evaluator:
            state = _State()

        def scenario(lower_cap_mid_compile: bool) -> HotspotProfiler:
            profiler = HotspotProfiler(threshold=5)
            plan = _Plan(parameters=("x",), kinds=("i",), gate_types=(int,),
                         body=None)
            monkeypatch.setattr(
                profiler, "_synthesize",
                lambda name, definition, expression: plan,
            )

            def compile_plan(evaluator, name, the_plan):
                if lower_cap_mid_compile:
                    profiler.demote_all(Tier.INTERPRETER, reason="pressure")
                return _entry(name, Tier.COMPILED).artifact

            monkeypatch.setattr(
                profiler, "_compile_compiled_tier", compile_plan
            )
            profiler.counts["f"] = 5
            profiler._attempt_promotion_inner(
                _Evaluator(), "f", _Definition(), None
            )
            return profiler

        # sanity: without the concurrent demotion the entry installs
        untouched = scenario(lower_cap_mid_compile=False)
        assert "f" in untouched.promoted

        raced = scenario(lower_cap_mid_compile=True)
        assert "f" not in raced.promoted
        blocked = [event for event in raced.events
                   if event.action == "blocked"]
        assert blocked and "cap lowered" in blocked[0].detail

    def test_concurrent_promotions(self):
        """Many threads drive the same symbol through ``record``: exactly
        one promotion installs (``_in_progress`` gate), straight to the
        compiled tier, and the table never tears."""
        from repro.compiler import install_engine_support
        from repro.engine import Evaluator
        from repro.mexpr import parse

        session = Evaluator()
        install_engine_support(session)
        session.hotspot.threshold = 2
        session.run("tw[n_] := n * 2 + 1")
        expression = parse("tw[21]")

        def worker(index: int) -> None:
            for _ in range(50):
                assert session.evaluate(expression).to_python() == 43

        hammer(worker)
        entry = session.hotspot.promoted["tw"]
        assert entry.tier_kind == "compiled"
        promotions = [event for event in session.hotspot.events
                      if event.action == "promoted"]
        assert len(promotions) == 1
        assert session.hotspot.compile_count == 1

    def test_demote_all_reports_withdrawn_count(self):
        profiler = self._profiler()
        for name in ("a", "b"):
            profiler.promoted[name] = _entry(name, Tier.COMPILED)
        # the compiled cap withdraws nothing; the interpreter floor all
        assert profiler.demote_all(Tier.COMPILED) == 0
        assert sorted(profiler.promoted) == ["a", "b"]
        assert profiler.demote_all(Tier.INTERPRETER) == 2
        assert profiler.promoted == {}


class TestMetricsRegistryThreads:
    """PR 9: the worker pool counts and observes on one shared registry;
    per-thread counter shards and the histogram lock must reconcile to
    exact totals with no torn increments."""

    def test_concurrent_counts_reconcile_exactly(self):
        from repro.observe import MetricsRegistry

        registry = MetricsRegistry()

        def worker(index: int) -> None:
            for round_number in range(ROUNDS):
                registry.count("shared")
                registry.count(f"per-thread.{index}")
                if round_number % 50 == 0:
                    # merged reads interleave with shard writes
                    assert registry.counter("shared") >= 0
                    registry.as_dict()

        hammer(worker)
        assert registry.counter("shared") == THREADS * ROUNDS
        for index in range(THREADS):
            assert registry.counter(f"per-thread.{index}") == ROUNDS
        merged = registry.as_dict()["counters"]
        assert merged["shared"] == THREADS * ROUNDS

    def test_concurrent_observes_reconcile_exactly(self):
        from repro.observe import MetricsRegistry

        registry = MetricsRegistry()

        def worker(index: int) -> None:
            for round_number in range(ROUNDS):
                registry.observe("latency", 0.001 * (round_number + 1))

        hammer(worker)
        hist = registry.histogram("latency")
        assert hist.count == THREADS * ROUNDS
        assert hist.minimum == pytest.approx(0.001)
        assert hist.maximum == pytest.approx(0.001 * ROUNDS)
        # the bucketed mass matches the count: no torn bucket updates
        snapshot = hist.snapshot()
        assert sum(snapshot["buckets"].values()) == THREADS * ROUNDS
        assert hist.p50 is not None and hist.p99 is not None

    def test_snapshot_under_write_load_is_consistent(self):
        from repro.observe import Histogram, MetricsRegistry

        registry = MetricsRegistry()
        stop = threading.Event()
        snapshots: list = []

        def reader() -> None:
            while not stop.is_set():
                snap = registry.as_dict()
                for payload in snap["histograms"].values():
                    clone = Histogram.from_snapshot(payload)
                    # invariant at every instant: bucket mass == count
                    assert sum(clone.buckets.values()) == clone.count
                snapshots.append(snap)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            def worker(index: int) -> None:
                for _ in range(ROUNDS):
                    registry.observe("hammered", 0.5)

            hammer(worker)
        finally:
            stop.set()
            thread.join()
        assert registry.histogram("hammered").count == THREADS * ROUNDS
        assert snapshots  # the reader actually ran


class TestTracerThreads:
    """PR 9: spans and instants from many threads land in one bounded
    ring; emitted == retained + dropped, always."""

    def test_bounded_ring_accounts_for_every_emission(self):
        from repro.observe import Tracer

        tracer = Tracer(max_spans=256)
        emitted = THREADS * ROUNDS * 2  # one span + one instant per round

        def worker(index: int) -> None:
            for round_number in range(ROUNDS):
                with tracer.span("work", "test", thread=index):
                    tracer.event("tick", "test", round=round_number)

        hammer(worker)
        assert len(tracer.events) == 256
        assert len(tracer.events) + tracer.dropped_spans == emitted
        # the export path stays coherent over the survivors
        assert len(tracer.chrome_trace()) == 256

    def test_unbounded_ring_loses_nothing(self):
        from repro.observe import Tracer

        tracer = Tracer(max_spans=THREADS * ROUNDS * 2 + 10)

        def worker(index: int) -> None:
            for _ in range(ROUNDS):
                with tracer.span("work", "test"):
                    tracer.event("tick", "test")
                tracer.metrics.count("emissions", 2)

        hammer(worker)
        assert tracer.dropped_spans == 0
        assert len(tracer.events) == THREADS * ROUNDS * 2
        assert tracer.metrics.counter("emissions") == THREADS * ROUNDS * 2

    def test_flight_recorder_routes_under_contention(self):
        """Threads emit under distinct request contexts concurrently; every
        finished request retains its own records and nothing leaks across
        request buffers."""
        from repro.observe import FlightRecorder, mint_context
        from repro.observe.context import activate

        recorder = FlightRecorder(sample=1.0, max_events=10_000)
        contexts = [mint_context(session=f"s{i}") for i in range(THREADS)]

        def worker(index: int) -> None:
            with activate(contexts[index]):
                for round_number in range(ROUNDS):
                    with recorder.span("work", "test"):
                        recorder.event("tick", "test", round=round_number)

        hammer(worker)
        for index, context in enumerate(contexts):
            recorder.finish_request(context, ok=False, rejected=False,
                                    retries=0, latency=0.0)
            timeline = recorder.timeline(context.request_id)
            assert len(timeline) == ROUNDS * 2
            assert all(record.request == context.request_id
                       for record in timeline)


@pytest.mark.slow
class TestGuardedSessionThreads:
    def test_parallel_sessions_share_one_base(self):
        """End-to-end: many worker threads each run a private session over
        one frozen base, concurrently, with redefinitions in flight."""
        from repro.engine import Evaluator
        from repro.mexpr import full_form, parse
        from repro.server import BaseImage

        base = BaseImage(prelude=("mix[x_] := x * 2",))

        def worker(index: int) -> None:
            session = Evaluator(state=base.create_state())
            for round_number in range(40):
                value = session.evaluate(parse(f"mix[{round_number}]"))
                expected = (round_number * 2 if index % 2 == 0
                            else round_number * 3)
                if index % 2 and round_number == 0:
                    session.run("mix[x_] := x * 3")
                    continue
                if index % 2 and round_number > 0:
                    assert full_form(value) == str(round_number * 3)
                else:
                    assert full_form(value) == str(expected)

        hammer(worker)


class TestCheckpointWordThreads:
    """The checkpoint word (``repro.runtime.guard.CHECKPOINT``) is a count
    every thread arms and disarms; a lost update would leave it non-zero (a
    permanent slow path) or negative (checkpoints that never poll)."""

    def test_hammered_word_returns_to_zero_and_is_never_negative(self):
        import sys

        from repro.runtime.guard import CHECKPOINT, AbortFlag, guard_scope

        shared = AbortFlag()  # requested and cleared by every thread at once
        lows: list[int] = []

        def worker(index: int) -> None:
            own = AbortFlag()
            low = 0
            for _ in range(ROUNDS):
                with guard_scope(step_budget=10):
                    own.set(True)
                    shared.set(True)
                    with guard_scope(time_limit=60):
                        low = min(low, CHECKPOINT[0])
                    shared.set(False)
                    own.set(False)
                low = min(low, CHECKPOINT[0])
            lows.append(low)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            hammer(worker)
        finally:
            sys.setswitchinterval(interval)
            shared.set(False)
        assert min(lows) >= 0
        assert CHECKPOINT[0] == 0

    def test_one_sessions_return_does_not_detach_anothers_abort(self):
        """Regression: the abort source used to be one process global that
        every ``CompiledCodeFunction.__call__`` reset to ``None`` on exit —
        session B finishing a call made session A's running loop deaf to
        ``request_abort`` until the loop ended."""
        import time

        from repro.compiler import FunctionCompile
        from repro.engine import Evaluator
        from repro.errors import WolframAbort

        source = (
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{i = 0}, While[i < n, i = i + 1]; i]]'
        )
        session_a, session_b = Evaluator(), Evaluator()
        long_loop = FunctionCompile(source, evaluator=session_a)
        short_call = FunctionCompile(source, evaluator=session_b)
        outcome = {}
        entered = threading.Event()

        def run_a():
            entered.set()
            try:
                # bounded, so a deaf loop ends (and fails the test) by itself
                outcome["result"] = long_loop(100_000_000)
            except WolframAbort:
                outcome["result"] = "aborted"

        worker = threading.Thread(target=run_a, daemon=True)
        worker.start()
        assert entered.wait(timeout=10)
        time.sleep(0.05)
        assert short_call(1000) == 1000  # B's call starts and returns
        session_a.request_abort()
        worker.join(timeout=3)
        session_a.clear_abort()
        assert not worker.is_alive(), "A's loop no longer hears its abort"
        assert outcome["result"] == "aborted"
        assert not session_b.abort_pending()
