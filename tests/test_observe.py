"""The ``repro.observe`` tracing + metrics layer (DESIGN.md §7).

Covers the tentpole contract end to end: span nesting and the Chrome-trace
export shape, the zero-allocation disabled path, metrics JSON round-trips,
the tier-transition event vocabulary emitted by hotspot promotion and
circuit-breaker demotion, guard trips, VM counters, the pipeline
pass-report aggregation bugfix, and the ``python -m repro --trace`` CLI
acceptance shape (spans from at least three subsystems).
"""

import io
import json

import pytest

from repro.compiler import install_engine_support
from repro.compiler.api import clear_failure_records
from repro.engine import Evaluator
from repro.mexpr import parse
from repro.observe import (
    MetricsRegistry,
    Tracer,
    active_tracer,
    disable_tracing,
    enable_tracing,
    with_tracing,
)
from repro.observe import trace as trace_module
from repro.runtime.guard import (
    FAILURE_LOG,
    CircuitBreaker,
    ExecutionGuard,
    Tier,
    WolframBudgetError,
)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test must leave the process-wide tracer disabled."""
    assert trace_module.TRACER is None
    yield
    assert trace_module.TRACER is None
    clear_failure_records()


def _fib_session(threshold=4):
    session = Evaluator(recursion_limit=8192)
    install_engine_support(session)
    session.hotspot.threshold = threshold
    session.run("fib[0] = 0")
    session.run("fib[1] = 1")
    session.run("fib[n_] := fib[n-1] + fib[n-2]")
    return session


class TestTracer:
    def test_span_nesting_records_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer", "test"):
            with tracer.span("inner", "test"):
                pass
        inner, outer = tracer.events  # inner closes (and appends) first
        assert outer.name == "outer" and outer.parent == "" and outer.depth == 0
        assert inner.name == "inner" and inner.parent == "outer"
        assert inner.depth == 1
        # the child interval nests inside the parent interval
        assert outer.start <= inner.start
        assert inner.start + inner.duration <= outer.start + outer.duration + 1e-9

    def test_instant_events_carry_args(self):
        tracer = Tracer()
        tracer.event("tier.promote", "hotspot", symbol="fib", tier="compiled")
        (instant,) = tracer.instants("tier.promote")
        assert not instant.is_span()
        assert instant.args == {"symbol": "fib", "tier": "compiled"}

    def test_chrome_trace_shape(self):
        tracer = Tracer()
        with tracer.span("work", "test", n=3):
            tracer.event("tick", "test")
        payload = json.loads(json.dumps(tracer.chrome_trace()))
        assert {entry["ph"] for entry in payload} == {"X", "i"}
        span = next(e for e in payload if e["ph"] == "X")
        assert span["name"] == "work" and span["cat"] == "test"
        assert span["dur"] >= 0 and span["args"] == {"n": 3}
        instant = next(e for e in payload if e["ph"] == "i")
        assert instant["s"] == "t"

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("work", "test"):
            pass
        path = tracer.write_chrome_trace(str(tmp_path / "trace.json"))
        assert json.load(open(path))[0]["name"] == "work"

    def test_with_tracing_installs_and_removes(self):
        assert active_tracer() is None
        with with_tracing() as tracer:
            assert active_tracer() is tracer
        assert active_tracer() is None

    def test_with_tracing_rejects_nesting(self):
        with with_tracing():
            with pytest.raises(RuntimeError):
                with with_tracing():
                    pass

    def test_enable_disable_roundtrip(self):
        tracer = enable_tracing()
        try:
            assert active_tracer() is tracer
        finally:
            assert disable_tracing() is tracer
        assert active_tracer() is None


class TestDisabledPath:
    def test_disabled_tracer_allocates_nothing(self):
        """With tracing off, evaluation emits no events anywhere."""
        sentinel = Tracer()  # never installed
        session = _fib_session()
        session.run("fib[12]")
        assert list(sentinel.events) == []
        assert sentinel.metrics.as_dict() == {"counters": {}, "histograms": {}}
        assert trace_module.TRACER is None

    def test_hot_sites_guard_on_module_flag(self):
        """The instrumented hot paths all test ``TRACER`` before any work."""
        import inspect

        from repro.bytecode.vm import WVM
        from repro.engine.definitions import DownValueIndex
        from repro.engine.evaluator import Evaluator as Engine

        for site in (Engine.evaluate, Engine.evaluate_protected,
                     DownValueIndex.candidates, WVM.run):
            assert "_trace.TRACER" in inspect.getsource(site)


class TestMetrics:
    def test_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.count("calls")
        registry.count("calls", 4)
        registry.observe("latency", 0.25)
        registry.observe("latency", 0.75)
        assert registry.counter("calls") == 5
        hist = registry.histogram("latency")
        assert hist.count == 2 and hist.mean == pytest.approx(0.5)
        assert hist.minimum == 0.25 and hist.maximum == 0.75

    def test_json_round_trip(self):
        registry = MetricsRegistry()
        registry.count("eval.rule_applications", 7)
        registry.observe("pipeline.pass.cse", 0.002)
        registry.observe("pipeline.pass.cse", 0.004)
        clone = MetricsRegistry.from_json(registry.to_json())
        assert clone == registry
        assert clone.counter("eval.rule_applications") == 7
        assert clone.histogram("pipeline.pass.cse").count == 2


class TestTierEvents:
    def test_hotspot_promotion_emits_tier_promote(self):
        session = _fib_session(threshold=4)
        with with_tracing() as tracer:
            session.run("fib[12]")
        assert "fib" in session.hotspot.promoted
        # one promotion, straight to the compiled tier
        (promote,) = tracer.instants("tier.promote")
        assert promote.args["tier"] == "compiled"
        assert promote.args["symbol"] == "fib"
        assert promote.args["applications"] == 4
        assert tracer.spans("hotspot.promote")  # the attempt span wraps it

    def test_breaker_demotion_emits_tier_demote_with_symbol(self):
        breaker = CircuitBreaker("fib", threshold=2, log=FAILURE_LOG)
        with with_tracing() as tracer:
            breaker.record_failure("IntegerOverflow")
            breaker.record_failure("IntegerOverflow")
        assert breaker.tier is not Tier.COMPILED
        (demote,) = tracer.instants("tier.demote")
        assert demote.args["symbol"] == "fib"
        assert demote.args["from"] == Tier.COMPILED.value
        assert demote.args["to"] == breaker.tier.value

    def test_guard_trip_emits_kind(self):
        guard = ExecutionGuard.with_step_budget(3, label="test")
        with with_tracing() as tracer:
            with pytest.raises(WolframBudgetError):
                guard.check(steps=10)
        (trip,) = tracer.instants("guard.trip")
        assert trip.args["kind"] == "steps"
        assert trip.args["budget"] == 3


class TestSubsystemCounters:
    def test_evaluator_counters(self):
        session = _fib_session(threshold=10**9)  # never promote
        with with_tracing() as tracer:
            session.run("fib[8]")
        counters = tracer.metrics.as_dict()["counters"]
        assert counters["eval.rule_applications"] > 0
        assert counters["eval.fixed_point_iterations"] > 0
        assert ("eval.dispatch_index.hits" in counters
                or "eval.dispatch_index.misses" in counters)

    def test_vm_counters_and_span(self):
        session = Evaluator()
        install_engine_support(session)
        session.run(
            'f = Compile[{{n, _Integer}}, Module[{i = 0},'
            ' While[i < n, i = i + 1]; i]]'
        )
        with with_tracing() as tracer:
            session.run("f[50]")
        counters = tracer.metrics.as_dict()["counters"]
        assert counters["vm.dispatches"] == 1
        assert counters["vm.instructions"] > 50  # the loop body dominates
        (run_span,) = tracer.spans("vm.run")
        assert run_span.args["instructions"] == counters["vm.instructions"]


class TestPipelineReport:
    def test_pass_report_aggregates_repeated_passes(self):
        """A pass name that runs twice accumulates — no silent overwrite."""
        from repro.compiler.pipeline import CompilerPipeline

        source = parse('Function[{Typed[x, "MachineInteger"]}, x*x + x]')
        pipeline = CompilerPipeline()
        with with_tracing() as tracer:
            pipeline.compile_program(source)
        report = pipeline.pass_report()
        assert report, "pass report is empty"
        names = [name for name, _elapsed in pipeline.pass_timings]
        repeated = {n for n in names if names.count(n) > 1}
        assert repeated, "expected at least one pass to run more than once"
        sample = next(iter(repeated))
        assert report[sample]["calls"] == names.count(sample)
        # per-pass histograms mirror the aggregate call counts
        hist = tracer.metrics.histogram(f"pipeline.pass.{sample}")
        assert hist.count == report[sample]["calls"]
        # spans carry IR node-count deltas
        pass_spans = tracer.spans(category="pipeline")
        assert pass_spans
        assert any("ir_nodes_after" in s.args for s in pass_spans)

    def test_pass_report_surfaces_in_program_metadata(self):
        from repro.compiler.pipeline import CompilerPipeline

        program = CompilerPipeline().compile_program(
            parse('Function[{Typed[x, "MachineInteger"]}, x + 1]')
        )
        report = program.metadata["passReport"]
        assert all({"calls", "seconds"} <= set(v) for v in report.values())
        assert sum(v["calls"] for v in report.values()) >= len(report)
        # analysis passes surface their fact counts alongside the timings
        assert report["dataflow"]["facts"] > 0


class TestCLI:
    def test_trace_flag_produces_three_subsystems(self, tmp_path):
        """The ISSUE acceptance invocation, as an in-process call."""
        from repro.__main__ import main

        trace_path = tmp_path / "out.json"
        metrics_path = tmp_path / "metrics.json"
        out = io.StringIO()
        # the first fib[19] applies the rules thousands of times: past the
        # threshold it promotes to the compiled tier mid-call
        calls = [arg for _ in range(16) for arg in ("-e", "fib[19]")]
        status = main(
            [
                "--trace", str(trace_path),
                "--metrics", str(metrics_path),
                "-e", "fib[0] = 0",
                "-e", "fib[1] = 1",
                "-e", "fib[n_] := fib[n-1] + fib[n-2]",
                *calls,
            ],
            output=out,
        )
        assert status == 0
        assert "Out[4]= 4181" in out.getvalue()
        events = json.load(open(trace_path))
        categories = {e["cat"] for e in events}
        assert {"evaluator", "pipeline", "hotspot"} <= categories
        promotes = [e for e in events if e["name"] == "tier.promote"]
        assert [p["args"]["tier"] for p in promotes] == ["compiled"]
        metrics = json.load(open(metrics_path))
        assert metrics["counters"]["eval.rule_applications"] >= 1

    def test_metrics_to_stdout(self):
        from repro.__main__ import main

        out = io.StringIO()
        assert main(["--metrics", "-e", "1 + 1"], output=out) == 0
        text = out.getvalue()
        payload = json.loads(text[text.index("{"):])
        assert set(payload) == {"counters", "histograms"}

    def test_batch_reports_syntax_errors(self):
        from repro.__main__ import main

        out = io.StringIO()
        assert main(["-e", "f[«bogus"], output=out) == 1
        assert "Syntax" in out.getvalue()
