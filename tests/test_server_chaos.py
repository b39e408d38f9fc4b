"""The server chaos suite (``pytest -m chaos``; the CI ``server-chaos``
job runs exactly this).

Adversarial tenants — runaway loops, poisoned recursive definitions,
memory spikes, mid-evaluation aborts, machine-math overflow — are driven
through the normal request path alongside healthy traffic, and the suite
asserts the server's containment invariants:

* zero crashed sessions, ever — machine-math overflow included;
* healthy sessions keep completing while the chaos runs;
* misbehaving sessions are isolated by their circuit breakers, healthy
  breakers stay closed;
* no cross-session definition leakage (a poisoned definition is
  invisible everywhere but its own session);
* the shed rate stays strictly below 100% — overload sheds, it never
  blackholes.
"""

from __future__ import annotations

import threading

import pytest

from repro.server import (
    ChaosSpec,
    EngineServer,
    RequestBudget,
    RetryPolicy,
    ServerConfig,
    unleash,
)

pytestmark = pytest.mark.chaos


def chaos_config() -> ServerConfig:
    config = ServerConfig(
        max_concurrent=2,
        queue_limit=8,
        breaker_threshold=3,
        tenant_breaker_threshold=9,
        breaker_cooldown=0.2,
        prelude=("stable[x_] := x + 1",),
    )
    config.budget = RequestBudget(deadline_seconds=0.4, steps=200_000,
                                  memory_bytes=8 * 1024 * 1024)
    config.retry = RetryPolicy(attempts=2, base_delay=0.005, max_delay=0.02)
    return config


def run_chaos_round(seed: int, spec: ChaosSpec | None = None):
    def scenario():
        server = EngineServer(config=chaos_config())
        try:
            report = unleash(
                server,
                spec if spec is not None else ChaosSpec(
                    adversaries=3, healthy_clients=3,
                    requests_per_client=4, seed=seed,
                ),
            )
            probes = {}
            for index in range(3):
                response = server.submit(
                    f"poison{index}[0]", session_id="leak-probe",
                    tenant="auditor",
                )
                probes[index] = response
            stats = server.stats()
            return report, stats, probes
        finally:
            server.close()

    return scenario()


class TestChaosContainment:
    def test_no_crashes_healthy_completes_breakers_isolate(self):
        report, stats, probes = run_chaos_round(seed=1)

        # 1. zero crashed sessions, and no request that crashed one on the
        # way — the machine-math overflow poison among them
        crashed = [sid for sid, info in stats["sessions"].items()
                   if info["state"] == "crashed"]
        assert crashed == []
        assert "Crash" not in report.failure_kinds
        assert report.behaviour_counts.get("overflow", 0) > 0
        assert report.requests > 0

        # 2. healthy sessions keep completing
        assert report.healthy_requests > 0
        assert report.healthy_success_rate >= 0.9

        # 3. adversaries were contained, not served to completion
        assert report.adversary_contained > 0

        # 4. healthy breakers closed; the healthy tenant never tripped
        breakers = stats["breakers"]["sessions"]
        for session_id, info in breakers.items():
            if session_id.startswith("good"):
                assert info["state"] == "closed", session_id
                assert info["times_opened"] == 0
        tenant_breakers = stats["breakers"]["tenants"]
        assert tenant_breakers["healthy"]["times_opened"] == 0

        # 5. misbehaving sessions tripped at least one breaker
        opened = [sid for sid, info in breakers.items()
                  if info["times_opened"] > 0]
        assert opened
        assert all(sid.startswith("bad") for sid in opened)

        # 6. shed rate strictly below 100%
        assert 0.0 <= report.shed_rate < 1.0
        assert stats["shed_rate"] < 1.0

    def test_no_cross_session_definition_leakage(self):
        report, stats, probes = run_chaos_round(seed=2)
        poisoned = report.behaviour_counts.get("poison", 0)
        # the auditor session must see every poison symbol as undefined:
        # its call returns unevaluated (or is shed — never a recursion blow)
        for index, response in probes.items():
            if response.ok:
                assert response.result == f"poison{index}[0]"
            else:
                assert response.rejected or response.error["kind"] in (
                    "Aborted",
                )
        # and the poison stayed *somewhere*: sessions that defined it have
        # overlay entries, the auditor has none for those symbols
        if poisoned:
            bad_overlays = [info["overlay_definitions"]
                            for sid, info in stats["sessions"].items()
                            if sid.startswith("bad")]
            assert any(count > 0 for count in bad_overlays)

    def test_abort_leaves_session_reusable(self):
        def scenario():
            server = EngineServer(config=chaos_config())
            try:
                aborter = threading.Timer(0.05, server.abort_session,
                                          args=("victim",))
                aborter.start()
                slow = server.submit(
                    "Module[{acc = 0}, Do[acc = acc + i, {i, 2000000}]; acc]",
                    session_id="victim",
                )
                aborter.join()
                followup = server.submit("1 + 1", session_id="victim")
                return slow, followup, server.stats()
            finally:
                server.close()

        slow, followup, stats = scenario()
        assert not slow.ok  # aborted or budget-tripped, never served
        assert followup.ok and followup.result == "2"
        assert stats["sessions"]["victim"]["state"] == "idle"

    def test_memory_spike_is_contained(self):
        def scenario():
            server = EngineServer(config=chaos_config())
            try:
                spike = server.submit(
                    "Total[Table[i * i, {i, 400000}]]", session_id="hog",
                )
                healthy = server.submit("stable[41]", session_id="ok")
                return spike, healthy
            finally:
                server.close()

        spike, healthy = scenario()
        assert not spike.ok
        assert spike.error["kind"] in ("BudgetExhausted", "Timeout")
        assert healthy.ok and healthy.result == "42"

    def test_chaos_is_deterministic_in_shape(self):
        # same seed, same adversarial request sequence: the behaviour mix
        # is identical run to run (latencies differ, the workload doesn't)
        first, _, _ = run_chaos_round(seed=3)
        second, _, _ = run_chaos_round(seed=3)
        assert first.behaviour_counts == second.behaviour_counts
        assert first.adversary_requests == second.adversary_requests


class TestChaosTelemetry:
    """PR 9: the flight recorder under adversarial traffic — every shed,
    retried, or demoted request reconstructs as one coherent timeline
    under its request id, and breaker trips / critical pressure freeze
    auto-snapshots without any test-side plumbing."""

    def test_chaos_round_yields_coherent_timelines_and_snapshots(self):
        def scenario():
            server = EngineServer(config=chaos_config())
            try:
                unleash(server, ChaosSpec(
                    adversaries=3, healthy_clients=3,
                    requests_per_client=4, seed=1,
                ))
                flight = server.flight
                stats = server.stats()
                by_request: dict = {}
                for record in list(flight.events):
                    if record.request:
                        by_request.setdefault(
                            record.request, set()
                        ).add(record.trace_id)
                timelines = {
                    request_id: flight.timeline_dict(request_id)
                    for request_id in list(by_request)[:10]
                }
                snapshots = [s["reason"] for s in flight.snapshots]
                return stats, by_request, timelines, snapshots
            finally:
                server.close()

        stats, by_request, timelines, snapshots = scenario()

        # breakers opened during the round, and each opening froze a
        # snapshot from inside the event stream
        opened = [sid for sid, info in stats["breakers"]["sessions"].items()
                  if info["times_opened"] > 0]
        assert opened
        assert any(reason.startswith("breaker-open:")
                   for reason in snapshots)
        assert stats["telemetry"]["retained_requests"] > 0

        # one trace id per request id, everywhere in the ring
        assert by_request
        assert all(len(traces) == 1 for traces in by_request.values())

        # each retained request reconstructs as an ordered timeline
        # rooted in the server.request span
        for request_id, timeline in timelines.items():
            assert timeline, request_id
            names = [entry["name"] for entry in timeline]
            assert "server.request" in names
            starts = [entry["start"] for entry in timeline]
            assert starts == sorted(starts)
            assert all(entry.get("request") == request_id
                       for entry in timeline)

    def test_retried_request_timeline_records_every_attempt(self,
                                                            monkeypatch):
        from repro.server.session import Outcome

        def scenario():
            config = chaos_config()
            config.telemetry_sample = 0.0  # tail retention must carry it
            config.retry = RetryPolicy(attempts=3, base_delay=0.001,
                                       max_delay=0.002)
            server = EngineServer(config=config)
            try:
                server.submit("1 + 1", session_id="flaky")
                session = server.sessions["flaky"]
                outcomes = [
                    Outcome(ok=False, error_kind="Transient",
                            error_message="blip", transient=True),
                    Outcome(ok=False, error_kind="Transient",
                            error_message="blip", transient=True),
                    Outcome(ok=True, value="42"),
                ]
                monkeypatch.setattr(
                    type(session), "execute",
                    lambda self, source, budget: outcomes.pop(0),
                )
                response = server.submit("whatever",
                                         session_id="flaky")
                return response, server.timeline(response.request_id)
            finally:
                server.close()

        response, timeline = scenario()
        assert response.ok and response.retries == 2
        retries = [entry for entry in timeline
                   if entry["name"] == "server.retry"]
        assert len(retries) == 2
        assert [entry["args"]["attempt"] for entry in retries] == [1, 2]
        # three admissions: the original attempt plus both retries
        admits = [entry for entry in timeline
                  if entry["name"] == "server.admit"]
        assert len(admits) == 3

    def test_critical_pressure_snapshots_and_stamps_demotions(self):
        def scenario():
            reading = {"bytes": 0}
            config = chaos_config()
            config.soft_limit_bytes = 1000
            config.hard_limit_bytes = 2000
            config.idle_ttl = 1e9  # demote, don't evict
            server = EngineServer(config=config,
                                  memory_probe=lambda: reading["bytes"])
            try:
                # promote something so CRITICAL has a tier to withdraw
                server.submit(
                    "hot[n_] := If[n < 2, n, hot[n-1] + hot[n-2]]", "s1"
                )
                server.submit("hot[10]", session_id="s1")
                reading["bytes"] = 5000  # past the hard limit
                squeezed = server.submit("hot[5]", session_id="s1")
                flight = server.flight
                snapshots = [s["reason"] for s in flight.snapshots]
                return (squeezed, server.timeline(squeezed.request_id),
                        snapshots, server.stats())
            finally:
                server.close()

        squeezed, timeline, snapshots, stats = scenario()
        assert stats["pressure"]["level"] == "CRITICAL"
        assert "pressure-critical" in snapshots
        names = [entry["name"] for entry in timeline]
        # the pressure transition and the demotions it forced are stamped
        # with the request that tripped them
        assert "server.pressure" in names
        assert "tier.demote" in names
        pressure = next(entry for entry in timeline
                        if entry["name"] == "server.pressure")
        assert pressure["args"]["to"] == "CRITICAL"
        assert stats["sessions"]["s1"]["tier_cap"] == "interpreter"
