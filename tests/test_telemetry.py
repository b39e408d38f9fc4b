"""The PR 9 telemetry plane (DESIGN.md §7.5–7.7).

Covers the tentpole end to end: request-scoped trace contexts and their
propagation into executor threads, the always-on flight recorder's
routing / head-sampling / tail-retention rules and auto-snapshots, the
log-bucket quantile histograms, the bounded span buffer, the server's
``metrics``/``events``/``trace`` protocol ops, the ``repro top``
rendering, and — the acceptance criterion — a ``trace <request-id>``
round trip against a live ``python -m repro serve`` subprocess returning
the complete admission → session → tier timeline.
"""

from __future__ import annotations

import contextvars
import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.observe import context as context_module
from repro.observe import trace as trace_module
from repro.observe.context import activate, current_context, mint_context
from repro.observe.flight import (
    MAX_REQUEST_EVENTS,
    FlightRecorder,
    telemetry_enabled,
)
from repro.observe.metrics import Histogram, MetricsRegistry
from repro.observe.trace import (
    Tracer,
    with_tracing,
)
from repro.server.core import EngineServer, ServerConfig
from repro.server.top import render_top


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test must leave the process-wide tracer disabled."""
    assert trace_module.TRACER is None
    yield
    assert trace_module.TRACER is None
    assert current_context() is None


class TestTraceContext:
    def test_mint_assigns_sequential_request_ids(self):
        first = mint_context(session="s1")
        second = mint_context(session="s1")
        assert first.request_id.startswith("req-")
        assert second.request_id != first.request_id
        assert first.trace_id.startswith("tr-")
        assert first.trace_id != second.trace_id

    def test_explicit_trace_id_is_preserved(self):
        ctx = mint_context(session="s", trace_id="tr-client-chosen")
        assert ctx.trace_id == "tr-client-chosen"

    def test_activate_scopes_the_current_context(self):
        assert current_context() is None
        ctx = mint_context(session="s")
        with activate(ctx):
            assert current_context() is ctx
        assert current_context() is None

    def test_records_are_stamped_inside_a_context(self):
        tracer = Tracer()
        ctx = mint_context(session="s")
        with activate(ctx):
            tracer.event("inside", "test")
            with tracer.span("work", "test"):
                pass
        tracer.event("outside", "test")
        inside = [r for r in tracer.events if r.name in ("inside", "work")]
        assert all(r.request == ctx.request_id for r in inside)
        assert all(r.trace_id == ctx.trace_id for r in inside)
        (outside,) = [r for r in tracer.events if r.name == "outside"]
        assert outside.request == "" and outside.trace_id == ""
        # the stamped identity survives into the wire/Chrome forms
        stamped = next(e for e in tracer.chrome_trace()
                       if e["name"] == "work")
        assert stamped["args"]["request"] == ctx.request_id
        assert tracer.spans(request=ctx.request_id)

    def test_copy_context_carries_the_stamp_into_worker_threads(self):
        """A copied context carries the request stamp to another thread."""
        tracer = Tracer()
        ctx = mint_context(session="s")
        results = []

        def worker():
            tracer.event("on-thread", "test")
            results.append(current_context())

        with activate(ctx):
            carrier = contextvars.copy_context()
        thread = threading.Thread(target=lambda: carrier.run(worker))
        thread.start()
        thread.join()
        assert results == [ctx]
        (record,) = tracer.instants("on-thread")
        assert record.request == ctx.request_id


class TestQuantileHistogram:
    def test_quantiles_track_known_distribution(self):
        histogram = Histogram()
        values = [i / 1000.0 for i in range(1, 101)]  # 1ms .. 100ms
        for value in values:
            histogram.record(value)
        # log buckets are a tenth of a decade wide: ±12% relative error
        assert histogram.p50 == pytest.approx(0.050, rel=0.15)
        assert histogram.p99 == pytest.approx(0.099, rel=0.15)
        assert histogram.quantile(0.0) == pytest.approx(0.001, rel=0.15)

    def test_estimates_clamp_into_observed_range(self):
        histogram = Histogram()
        histogram.record(0.0042)
        assert histogram.p50 == pytest.approx(0.0042)
        assert histogram.p99 == pytest.approx(0.0042)

    def test_underflow_and_empty(self):
        assert Histogram().p50 is None
        histogram = Histogram()
        histogram.record(0.0)
        histogram.record(-1.0)
        assert histogram.p50 == pytest.approx(-1.0)  # the observed minimum

    def test_snapshot_round_trips_buckets_and_quantiles(self):
        registry = MetricsRegistry()
        for value in (0.001, 0.01, 0.1, 1.0, 10.0):
            registry.observe("lat", value)
        clone = MetricsRegistry.from_json(registry.to_json())
        original = registry.histogram("lat")
        restored = clone.histogram("lat")
        assert restored.buckets == original.buckets
        assert restored.p99 == original.p99
        snapshot = original.snapshot()
        assert snapshot["p50"] == original.p50
        assert all(isinstance(k, str) for k in snapshot["buckets"])

    def test_pre_bucket_snapshot_degrades_to_none(self):
        """Stats written before PR 9 have no buckets: quantiles say so."""
        old = Histogram.from_snapshot(
            {"count": 5, "total": 1.0, "min": 0.1, "max": 0.3}
        )
        assert old.count == 5
        assert old.p99 is None


class TestBoundedTracer:
    def test_span_buffer_evicts_oldest_first(self):
        tracer = Tracer(max_spans=10)
        for index in range(25):
            tracer.event(f"e{index}", "test")
        assert len(tracer.events) == 10
        assert tracer.dropped_spans == 15
        assert [r.name for r in tracer.events][0] == "e15"
        assert [r.name for r in tracer.events][-1] == "e24"


class TestFlightRecorder:
    def test_request_records_buffer_until_finish(self):
        recorder = FlightRecorder(max_events=100)
        ctx = mint_context(session="s", sampled=True)
        with activate(ctx):
            recorder.event("server.admit", "server")
        assert recorder.open_requests() == 1
        assert list(recorder.events) == []  # nothing in the ring yet
        assert recorder.finish_request(ctx, ok=True)
        assert recorder.open_requests() == 0
        assert [r.name for r in recorder.timeline(ctx.request_id)] == [
            "server.admit"
        ]
        assert recorder.retained_requests == 1

    def test_unsampled_healthy_request_is_dropped(self):
        recorder = FlightRecorder(max_events=100)
        ctx = mint_context(session="s", sampled=False)
        with activate(ctx):
            recorder.event("server.admit", "server")
        assert not recorder.finish_request(ctx, ok=True)
        assert recorder.dropped_requests == 1
        assert recorder.timeline(ctx.request_id) == []

    @pytest.mark.parametrize(
        "finish_kwargs",
        [
            {"ok": False},
            {"ok": True, "rejected": True},
            {"ok": True, "retries": 2},
            {"ok": True, "latency": 99.0},
        ],
        ids=["failed", "shed", "retried", "slow"],
    )
    def test_tail_retention_keeps_interesting_requests(self, finish_kwargs):
        recorder = FlightRecorder(max_events=100, slow_seconds=0.5)
        ctx = mint_context(session="s", sampled=False)
        with activate(ctx):
            recorder.event("server.admit", "server")
        assert recorder.finish_request(ctx, **finish_kwargs)
        assert recorder.timeline(ctx.request_id)

    def test_notable_event_in_buffer_forces_retention(self):
        recorder = FlightRecorder(max_events=100)
        ctx = mint_context(session="s", sampled=False)
        with activate(ctx):
            recorder.event("guard.trip", "guard", kind="deadline")
        assert recorder.finish_request(ctx, ok=True)

    def test_head_sampling_is_deterministic(self):
        recorder = FlightRecorder(sample=0.25)
        decisions = [recorder.sample_next() for _ in range(20)]
        assert decisions.count(True) == 5
        # error diffusion: exactly every fourth request, not a random 25%
        assert decisions == [False, False, False, True] * 5

    def test_per_request_buffer_is_bounded(self):
        recorder = FlightRecorder(max_events=MAX_REQUEST_EVENTS * 2)
        ctx = mint_context(session="s", sampled=True)
        with activate(ctx):
            for index in range(MAX_REQUEST_EVENTS + 50):
                recorder.event(f"e{index}", "test")
        assert recorder.dropped_events == 50
        recorder.finish_request(ctx, ok=True)
        assert recorder.truncated_requests == 1
        assert len(recorder.timeline(ctx.request_id)) == MAX_REQUEST_EVENTS

    def test_breaker_open_event_auto_snapshots(self):
        recorder = FlightRecorder(max_events=100)
        recorder.event("server.breaker", "server", scope="bad1",
                       **{"from": "closed", "to": "open"})
        assert [s["reason"] for s in recorder.snapshots] == [
            "breaker-open:bad1"
        ]
        recorder.event("server.pressure", "server",
                       **{"from": "ELEVATED", "to": "CRITICAL"})
        assert [s["reason"] for s in recorder.snapshots] == [
            "breaker-open:bad1", "pressure-critical",
        ]
        # half-open → closed transitions do not snapshot
        recorder.event("server.breaker", "server", scope="bad1",
                       **{"from": "half-open", "to": "closed"})
        assert len(recorder.snapshots) == 2

    def test_snapshots_are_bounded_and_written_as_chrome_traces(
        self, tmp_path
    ):
        recorder = FlightRecorder(max_events=100, max_snapshots=2)
        recorder.event("noise", "test")
        for index in range(4):
            recorder.auto_snapshot(f"reason-{index}")
        assert [s["reason"] for s in recorder.snapshots] == [
            "reason-2", "reason-3",
        ]
        written = recorder.write_snapshots(str(tmp_path))
        assert len(written) == 3  # two snapshots + the live ring
        for path in written:
            payload = json.load(open(path))
            assert all({"name", "ph", "ts"} <= set(entry)
                       for entry in payload)
        assert (tmp_path / "flight-ring.json").exists()

    def test_with_tracing_steps_aside_and_restores_the_recorder(self):
        recorder = FlightRecorder()
        trace_module.enable_tracing(recorder)
        try:
            with with_tracing() as explicit:
                assert trace_module.TRACER is explicit
                assert explicit is not recorder
            assert trace_module.TRACER is recorder
        finally:
            trace_module.disable_tracing()

    def test_telemetry_enabled_reads_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert telemetry_enabled()
        for value in ("0", "off", "false", "no", "disabled", "OFF"):
            monkeypatch.setenv("REPRO_TELEMETRY", value)
            assert not telemetry_enabled()
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert telemetry_enabled()


def server_config(**overrides) -> ServerConfig:
    defaults = dict(max_concurrent=2, prelude=("inc[x_] := x + 1",))
    defaults.update(overrides)
    return ServerConfig(**defaults)


class TestServerTelemetry:
    def test_submit_returns_ids_and_a_complete_timeline(self):
        def scenario():
            server = EngineServer(config=server_config())
            try:
                assert trace_module.TRACER is server.flight
                response = server.submit("inc[41]", session_id="s1")
                timeline = server.timeline(response.request_id)
                return (response, timeline, server.stats(),
                        server.metrics_dict())
            finally:
                server.close()

        response, timeline, stats, metrics = scenario()
        assert response.ok and response.result == "42"
        assert response.request_id.startswith("req-")
        assert response.trace_id.startswith("tr-")
        names = [entry["name"] for entry in timeline]
        # admission → session → engine execution, one request id
        assert "server.request" in names
        assert "server.admit" in names
        assert "session.execute" in names
        assert "eval.evaluate" in names
        assert {entry["trace_id"] for entry in timeline} == {
            response.trace_id
        }
        # the session's spans carry the owning request's stamp
        execute = next(e for e in timeline
                       if e["name"] == "session.execute")
        assert execute["args"]["session"] == "s1"
        telemetry = stats["telemetry"]
        assert telemetry["retained_requests"] == 1
        histogram = metrics["histograms"]["server.latency_seconds"]
        assert histogram["count"] == 1

    def test_tier_promotion_lands_in_the_owning_requests_timeline(self):
        def scenario():
            server = EngineServer(config=server_config())
            try:
                server.submit(
                    "fib[n_] := If[n < 2, n, fib[n-1] + fib[n-2]]", "s1"
                )
                response = server.submit("fib[10]", session_id="s1")
                return response, server.timeline(response.request_id)
            finally:
                server.close()

        response, timeline = scenario()
        assert response.ok
        names = [entry["name"] for entry in timeline]
        assert "tier.promote" in names  # fib[10] promoted in-request
        assert "hotspot.promote" in names

    def test_shed_request_timeline_records_the_shed_event(self):
        def scenario():
            config = server_config(session_queue_limit=0)
            server = EngineServer(config=config)
            try:
                response = server.submit("inc[1]", session_id="s1")
                return response, server.timeline(response.request_id)
            finally:
                server.close()

        response, timeline = scenario()
        assert response.rejected
        names = [entry["name"] for entry in timeline]
        assert "server.shed" in names
        shed = next(e for e in timeline if e["name"] == "server.shed")
        assert shed["args"]["reason"] == "session-queue-full"

    def test_telemetry_disabled_serves_without_a_recorder(self):
        def scenario():
            server = EngineServer(config=server_config(telemetry=False))
            try:
                assert server.flight is None
                assert trace_module.TRACER is None
                response = server.submit("inc[1]", session_id="s1")
                return response, server.timeline(response.request_id)
            finally:
                server.close()

        response, timeline = scenario()
        assert response.ok and response.result == "2"
        assert response.request_id  # identity is minted regardless
        assert timeline == []  # but nothing records it

    def test_recorder_uninstalls_on_close_only_if_owned(self):
        def scenario():
            explicit = trace_module.enable_tracing()
            try:
                server = EngineServer(config=server_config())
                assert server.flight is None  # explicit tracer wins
                server.close()
                assert trace_module.TRACER is explicit
            finally:
                trace_module.disable_tracing()

        scenario()

    def test_sampling_drops_healthy_but_keeps_failed(self):
        def scenario():
            server = EngineServer(
                config=server_config(telemetry_sample=0.0)
            )
            try:
                healthy = server.submit("inc[1]", session_id="s1")
                server.submit("boom[x_] := boom[x + 1]",
                              session_id="s1")
                failed = server.submit("boom[0]", session_id="s1")
                return (
                    healthy, server.timeline(healthy.request_id),
                    failed, server.timeline(failed.request_id),
                )
            finally:
                server.close()

        healthy, healthy_tl, failed, failed_tl = scenario()
        assert healthy.ok and healthy_tl == []
        assert not failed.ok and failed_tl  # tail retention


class TestProtocolOps:
    def run_ops(self, serve_wire, exchanges):
        """Drive the newline-JSON protocol over a real TCP socket."""
        engine = EngineServer(config=server_config())
        try:
            client = serve_wire(engine)()
            replies = []
            for payload in exchanges(replies):
                replies.append(client.request(payload))
            return replies
        finally:
            engine.close()

    def test_trace_op_returns_the_request_timeline(self, serve_wire):
        def exchanges(replies):
            yield {"expr": "inc[1]", "session": "s1"}
            yield {"op": "trace", "request_id": replies[0]["request_id"]}
            # the shorter "request" key works too
            yield {"op": "trace", "request": replies[0]["request_id"]}
            yield {"op": "trace", "request_id": "req-does-not-exist"}

        replies = self.run_ops(serve_wire, exchanges)
        assert replies[0]["ok"] and replies[0]["request_id"]
        trace_reply = replies[1]
        assert trace_reply["ok"]
        names = [entry["name"] for entry in trace_reply["timeline"]]
        assert "server.request" in names and "session.execute" in names
        assert replies[2]["timeline"] == trace_reply["timeline"]
        assert not replies[3]["ok"] and replies[3]["timeline"] == []

    def test_metrics_and_events_ops(self, serve_wire):
        def exchanges(replies):
            yield {"expr": "inc[5]", "session": "s1"}
            yield {"op": "metrics"}
            yield {"op": "events", "limit": 3}
            yield {"op": "events", "limit": "junk"}

        replies = self.run_ops(serve_wire, exchanges)
        metrics = replies[1]["metrics"]
        assert metrics["counters"]["server.requests"] == 1
        assert "server.latency_seconds" in metrics["histograms"]
        assert len(replies[2]["events"]) == 3
        assert replies[3]["ok"]  # junk limit falls back, never errors

    def test_client_supplied_trace_id_propagates(self, serve_wire):
        def exchanges(replies):
            yield {"expr": "inc[1]", "session": "s1",
                   "trace_id": "tr-from-client"}

        (reply,) = self.run_ops(serve_wire, exchanges)
        assert reply["trace_id"] == "tr-from-client"


class TestTopRendering:
    def test_render_top_summarizes_a_live_server(self):
        def scenario():
            server = EngineServer(config=server_config())
            try:
                server.submit("inc[1]", session_id="s1")
                server.submit("inc[2]", session_id="s2")
                return server.stats(), server.metrics_dict()
            finally:
                server.close()

        stats, metrics = scenario()
        text = render_top(stats, metrics)
        assert "pressure NORMAL" in text
        assert "sessions 2" in text
        assert "p50" in text and "p99" in text
        assert "tiers: compiled=2" in text
        assert "retained 2" in text
        assert "s1" in text and "s2" in text

    def test_render_top_handles_empty_payloads(self):
        text = render_top({}, {})
        assert "no samples yet" in text
        assert "recorder off" in text


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.mark.slow
class TestServeEndToEnd:
    def test_trace_op_against_a_live_serve_process(self):
        """The ISSUE acceptance: ``trace <request-id>`` against a real
        ``python -m repro serve`` returns the admission → session → tier
        timeline, and ``repro top``'s fetch path reads the same server."""
        import os

        port = _free_port()
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        env["REPRO_ARTIFACT_CACHE"] = "off"
        env.pop("REPRO_TELEMETRY", None)  # recorder on, its default
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port", str(port), "--max-concurrent", "2"],
            cwd=repo_root, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "listening" in banner, banner

            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as conn:
                handle = conn.makefile("rwb")

                def rpc(payload):
                    handle.write(json.dumps(payload).encode() + b"\n")
                    handle.flush()
                    return json.loads(handle.readline())

                rpc({"expr":
                     "fib[n_] := If[n < 2, n, fib[n-1] + fib[n-2]]",
                     "session": "e2e"})
                response = rpc({"expr": "fib[10]", "session": "e2e"})
                assert response["ok"] and response["result"] == "55"
                request_id = response["request_id"]

                trace_reply = rpc({"op": "trace",
                                   "request_id": request_id})
                assert trace_reply["ok"]
                names = [e["name"] for e in trace_reply["timeline"]]
                for expected in ("server.request", "server.admit",
                                 "session.execute", "eval.evaluate",
                                 "tier.promote"):
                    assert expected in names, (expected, names)
                assert all(e.get("request") == request_id
                           for e in trace_reply["timeline"])

            # the `repro top` client path against the same live server
            from repro.server.top import fetch

            stats, metrics = fetch("127.0.0.1", port, timeout=10)
            text = render_top(stats, metrics)
            assert "requests   total 2" in text
            assert "p50" in text
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
