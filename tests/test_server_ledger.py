"""The server's request ledger: one count per served fact.

Every published request count — ``stats()["requests"]``, each session's
counts, the admission and pressure blocks, the six ``server.*`` counters
of the ``metrics`` reply — is computed on read from one ledger: a
``SessionStats`` row per live session plus one server row for what no live
session owns.  This module drives one server through a fixed script that
produces every outcome and refusal the request path knows, and pins each
count.  The expected values are those of the tallies the ledger replaced,
on the same script, except for two fixes named where they are asserted:

* ``pressure.evicted`` counted every idle session the pressure step
  *proposed*, including the requester it then kept; it now counts the
  evictions applied;
* ``server.shed`` counted only the queue-bound refusals; it now counts
  every request answered ``rejected: true``, as ``stats()`` does.

The reconciliation cases check the ledger against the independent tallies
the in-process drivers keep on the client side.
"""

from __future__ import annotations

import json
import sys
import time

import pytest

from repro.server import (
    ChaosSpec,
    EngineServer,
    LoadSpec,
    RequestBudget,
    RetryPolicy,
    ServerConfig,
    generate,
    unleash,
)
from repro.testing import Fault, inject_faults

#: a compiled function whose prologue polls ``abort.check``
COMPILE = ('cf = FunctionCompile[Function[{Typed[n, "MachineInteger"]}, '
           'Module[{t = 0}, Do[t = t + i, {i, n}]; t]]]')
SERVER_COUNTERS = ("server.requests", "server.ok", "server.failures",
                   "server.retries", "server.shed", "server.admitted")


def run_script(server: EngineServer, reading: dict) -> list:
    """Drive ``server`` through every outcome and refusal; returns the
    responses in order."""
    config = server.config
    replies = []

    def submit(source, session_id, tenant):
        replies.append(server.submit(source, session_id=session_id,
                                     tenant=tenant))
        return replies[-1]

    assert submit("1 + 1", "a", "t1").ok
    assert submit("oops[", "a", "t1").error["kind"] == "WolframParseError"
    assert submit(COMPILE, "a", "t1").ok  # stores the artifact
    # the stored entry fails to load once: a transient, retried failure
    with inject_faults(Fault("artifact.load", "runtime")):
        assert submit(COMPILE, "a", "t1").retries == 1
    with inject_faults(Fault("abort.check", "abort")):
        assert submit("cf[10]", "a", "t1").error["kind"] == "Aborted"
    server.admission.queue_limit, limit = 0, server.admission.queue_limit
    assert submit("1 + 1", "a", "t1").error["reason"] == "queue-full"
    server.admission.queue_limit = limit
    config.session_queue_limit, limit = 0, config.session_queue_limit
    assert submit("1 + 1", "a", "t1").error["reason"] == \
        "session-queue-full"
    config.session_queue_limit = limit
    assert submit("2 + 2", "b", "t2").ok
    for _ in range(config.breaker_threshold):
        assert not submit("oops[", "c", "t2").ok
    assert submit("1 + 1", "c", "t2").error["reason"] == \
        "session-breaker-open"
    assert submit("1 + 1", "d", "t2").error["reason"] == "session-limit"
    # every session is cold now; the pressure step of a's request evicts
    # the other two (a itself is the requester, and stays)
    reading["bytes"] = config.hard_limit_bytes
    time.sleep(2 * config.idle_ttl)
    assert submit("1 + 1", "a", "t1").ok
    return replies


@pytest.fixture()
def scripted(artifact_cache, monkeypatch):
    # the script's retried COMPILE is a fault on an artifact load, and
    # verify-each compiles bypass the artifact cache
    monkeypatch.delenv("REPRO_VERIFY_IR", raising=False)
    reading = {"bytes": 0}
    config = ServerConfig(
        max_sessions=3, breaker_threshold=2, breaker_cooldown=60.0,
        idle_ttl=0.05, telemetry=True,
        retry=RetryPolicy(attempts=3, base_delay=0.001, max_delay=0.002),
    )
    server = EngineServer(config, memory_probe=lambda: reading["bytes"])
    try:
        replies = run_script(server, reading)
        yield server, replies
    finally:
        server.close()


#: the script's counts under the tallies the ledger replaced
PARENT = {
    "requests": {"requests": 13, "ok": 5, "failed": 4, "shed": 4,
                 "retries": 1, "aborted": 1, "evicted": 2},
    "session_a": {"requests": 7, "ok": 4, "soft_failures": 2, "rejected": 2,
                  "retries": 1, "aborted": 1,
                  "failure_kinds": {"WolframParseError": 1, "Injected": 1}},
    "admission": {"waiting": 0, "running": 0, "admitted": 10, "shed": 2,
                  "peak_queue_depth": 1},
    "pressure": {"level": "CRITICAL", "transitions": 1, "evicted": 3,
                 "demotions": 0},
    "counters": {"server.requests": 13, "server.ok": 5,
                 "server.failures": 4, "server.retries": 1,
                 "server.shed": 2, "server.admitted": 10},
}


def rows(server: EngineServer) -> list:
    return [server.server_row] + [session.stats
                                  for session in server.sessions.values()]


def assert_reconciles(server: EngineServer, stats: dict) -> None:
    """The identities every dump satisfies: each request is answered ok,
    failed or shed once, and the rows sum to the totals."""
    totals = stats["requests"]
    assert totals["requests"] == totals["ok"] + totals["failed"] \
        + totals["shed"]
    ledger = rows(server)
    assert sum(row.answered for row in ledger) == totals["requests"]
    for key, field in (("ok", "ok"), ("failed", "failed"),
                       ("shed", "rejected"), ("retries", "retries"),
                       ("aborted", "aborted")):
        assert sum(getattr(row, field) for row in ledger) == totals[key]
    assert stats["pressure"]["evicted"] == totals["evicted"] \
        == len(stats["evicted_sessions"])


class TestScriptedLedger:
    def test_every_count_on_scripted_traffic(self, scripted):
        server, replies = scripted
        assert len(replies) == PARENT["requests"]["requests"]
        stats = server.stats()
        assert stats["schema"] == 1
        assert stats["requests"] == PARENT["requests"]
        assert stats["shed_rate"] == 4 / 13
        assert list(stats["sessions"]) == ["a"]
        session = stats["sessions"]["a"]
        assert {key: session[key] for key in PARENT["session_a"]} \
            == PARENT["session_a"]
        assert {key: stats["admission"][key]
                for key in PARENT["admission"]} == PARENT["admission"]
        assert stats["evicted_sessions"] == ["b", "c"]
        pressure = {key: stats["pressure"][key]
                    for key in PARENT["pressure"]}
        # fix: the pressure step proposed a, b and c; it evicted b and c
        assert pressure == {**PARENT["pressure"], "evicted": 2}
        counters = server.metrics_dict()["counters"]
        # fix: the breaker-open and session-limit refusals are shed too
        assert {name: counters[name] for name in SERVER_COUNTERS} \
            == {**PARENT["counters"], "server.shed": 4}
        assert_reconciles(server, stats)

    def test_rows_hold_what_they_own(self, scripted):
        server, _ = scripted
        row = server.server_row
        # b and c folded in at eviction, d's refusal before it existed
        assert row.attempts == 3
        assert (row.ok, row.failed, row.aborted) == (1, 2, 0)
        assert row.failure_kinds == {"WolframParseError": 2}
        assert row.refusals == {"session-breaker-open": 1,
                                "session-limit": 1}
        assert server.sessions["a"].stats.refusals == {
            "queue-full": 1, "session-queue-full": 1}

    def test_the_dump_keeps_every_key(self, scripted, tmp_path):
        server, _ = scripted
        path = tmp_path / "stats.json"
        server.dump_stats(str(path))
        dump = json.loads(path.read_text())
        assert set(dump) == {
            "schema", "kind", "uptime_seconds", "requests", "shed_rate",
            "admission", "pressure", "breakers", "sessions",
            "evicted_sessions", "base_image_definitions", "telemetry",
        }
        assert set(dump["requests"]) == set(PARENT["requests"])
        assert set(dump["admission"]) == {
            "waiting", "running", "admitted", "shed", "queue_limit",
            "max_concurrent", "peak_queue_depth"}
        assert set(dump["pressure"]) == {
            "level", "soft_limit_bytes", "hard_limit_bytes", "transitions",
            "evicted", "demotions"}


class TestEvictionCount:
    def _server(self):
        config = ServerConfig(idle_ttl=0.01, telemetry=False)
        return EngineServer(config, memory_probe=lambda: 1 << 40)

    def test_a_kept_requester_is_not_counted(self):
        server = self._server()
        try:
            for _ in range(5):
                assert server.submit("1+1", session_id="a").ok
                time.sleep(0.02)
            stats = server.stats()
        finally:
            server.close()
        # the pressure step proposed a four times and kept it each time
        assert stats["pressure"]["evicted"] == 0
        assert stats["requests"]["evicted"] == 0
        assert "a" in stats["sessions"]

    def test_a_cold_session_is_counted_once(self):
        server = self._server()
        try:
            assert server.submit("1+1", session_id="b").ok
            time.sleep(0.02)
            assert server.submit("1+1", session_id="a").ok
            stats = server.stats()
        finally:
            server.close()
        assert stats["pressure"]["evicted"] == 1
        assert stats["requests"]["evicted"] == 1
        assert stats["evicted_sessions"] == ["b"]
        assert list(stats["sessions"]) == ["a"]


class TestShedCount:
    def test_server_shed_counts_every_refusal(self):
        server = EngineServer(ServerConfig(max_sessions=1, telemetry=True))
        try:
            assert server.submit("1+1", session_id="a").ok
            refused = server.submit("1+1", session_id="b")
            stats = server.stats()
            counters = server.metrics_dict()["counters"]
        finally:
            server.close()
        assert refused.rejected
        assert refused.error["reason"] == "session-limit"
        assert stats["requests"]["shed"] == 1
        assert counters["server.shed"] == 1
        # the queue-bound subset
        assert stats["admission"]["shed"] == 0

    def test_counters_are_served_with_telemetry_off(self):
        server = EngineServer(ServerConfig(telemetry=False))
        try:
            assert server.flight is None
            assert server.submit("1+1", session_id="a").ok
            assert not server.submit("oops[", session_id="a").ok
            counters = server.metrics_dict()["counters"]
        finally:
            server.close()
        assert {name: counters[name] for name in SERVER_COUNTERS} == {
            "server.requests": 2, "server.ok": 1, "server.failures": 1,
            "server.retries": 0, "server.shed": 0, "server.admitted": 2}


class TestReconciliation:
    """The ledger against the drivers' own client-side tallies."""

    def test_load_report_matches_the_ledger(self):
        """Eight clients, two to a session, through one evaluation slot
        and a short queue, switching threads every microsecond: a lost
        update to any row breaks the match."""
        server = EngineServer(ServerConfig(max_concurrent=1, queue_limit=2,
                                           telemetry=False))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = generate(server, LoadSpec(clients=8, sessions=4,
                                               requests_per_client=10,
                                               seed=1))
        finally:
            sys.setswitchinterval(interval)
            server.close()
        stats = server.stats()
        assert_reconciles(server, stats)
        totals = stats["requests"]
        assert (report.requests, report.ok, report.failed, report.shed,
                report.retries) == (
            totals["requests"], totals["ok"], totals["failed"],
            totals["shed"], totals["retries"])
        assert totals["requests"] == 80
        assert stats["admission"]["admitted"] == sum(
            row.attempts for row in rows(server))

    def test_chaos_report_matches_the_ledger(self):
        config = ServerConfig(
            max_concurrent=2, queue_limit=8, breaker_cooldown=0.2,
            telemetry=False,
            budget=RequestBudget(deadline_seconds=0.4, steps=200_000,
                                 memory_bytes=8 * 1024 * 1024),
            retry=RetryPolicy(attempts=2, base_delay=0.005, max_delay=0.02),
        )
        server = EngineServer(config)
        try:
            report = unleash(server, ChaosSpec(adversaries=2,
                                               healthy_clients=2,
                                               requests_per_client=3,
                                               seed=1, spike_cells=50_000))
            stats = server.stats()
            assert_reconciles(server, stats)
        finally:
            server.close()
        totals = stats["requests"]
        ok = report.healthy_ok + report.adversary_ok
        assert (report.requests, ok, report.requests - ok - report.shed,
                report.shed, report.retries) == (
            totals["requests"], totals["ok"], totals["failed"],
            totals["shed"], totals["retries"])
