"""Unit tests for ``repro.server``: admission, breakers, retry,
degradation, and the ``EngineServer`` request path."""

from __future__ import annotations

import io
import json
import threading
import time

import pytest

from repro.errors import RejectedError, WolframTimeoutError
from repro.errors import WolframRuntimeError
from repro.runtime.guard import Tier
from repro.server import (
    AdmissionController,
    BaseImage,
    BaseImageError,
    BreakerBoard,
    DegradationManager,
    EngineServer,
    LoadSpec,
    PressureLevel,
    RequestBreaker,
    RequestBudget,
    RetryPolicy,
    ServerConfig,
    generate,
)
from repro.server.session import Outcome, SessionState


def wait_until(predicate, timeout: float = 5.0) -> bool:
    """Poll ``predicate`` until it holds or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- admission ---------------------------------------------------------------


class TestAdmission:
    def test_budget_guard_and_scaling(self):
        budget = RequestBudget(deadline_seconds=2.0, steps=1000,
                               memory_bytes=4096)
        guard = budget.make_guard(label="t")
        assert guard.step_budget == 1000
        assert guard.memory_budget == 4096
        assert guard.remaining_time() is not None
        scaled = budget.scaled(0.5)
        assert scaled.deadline_seconds == 1.0
        assert scaled.steps == 500
        assert scaled.memory_bytes == 2048
        unlimited = RequestBudget(None, None, None).scaled(0.25)
        assert unlimited.deadline_seconds is None

    def test_sheds_past_queue_limit(self):
        controller = AdmissionController(max_concurrent=1, queue_limit=1)
        holding = threading.Event()
        release = threading.Event()

        def occupant():
            with controller.slot():
                holding.set()
                release.wait()

        def waiter():
            with controller.slot():
                pass

        holder = threading.Thread(target=occupant)
        holder.start()
        assert holding.wait(5)
        queued = threading.Thread(target=waiter)
        queued.start()
        # one waiting: the queue is full
        assert wait_until(lambda: controller.waiting == 1)
        with pytest.raises(RejectedError) as excinfo:
            with controller.slot():
                pass
        assert excinfo.value.reason == "queue-full"
        assert excinfo.value.retry_after > 0
        release.set()
        holder.join()
        queued.join()

        assert controller.shed == 1
        assert controller.admitted == 2
        assert controller.waiting == 0
        assert controller.running == 0
        assert controller.peak_queue_depth == 1

    def test_rejected_error_envelope(self):
        error = RejectedError("queue-full", "busy", retry_after=0.25,
                              scope="s1")
        payload = error.to_dict()
        assert payload["reason"] == "queue-full"
        assert payload["retry_after"] == 0.25
        assert payload["scope"] == "s1"
        assert payload["error"] == "RejectedError"


# -- breakers ----------------------------------------------------------------


class TestRequestBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        defaults = dict(threshold=3, window=30.0, cooldown=1.0,
                        max_cooldown=8.0, clock=clock)
        defaults.update(kwargs)
        return RequestBreaker("s1", **defaults), clock

    def test_trips_at_threshold(self):
        breaker, _clock = self.make()
        breaker.record_failure("Timeout")
        breaker.record_failure("Timeout")
        breaker.admit()  # still closed
        breaker.record_failure("Timeout")
        with pytest.raises(RejectedError) as excinfo:
            breaker.admit()
        assert excinfo.value.reason == "session-breaker-open"
        assert 0 < excinfo.value.retry_after <= 1.0

    def test_half_open_probe_then_close(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure("Timeout")
        clock.advance(1.5)
        breaker.admit()  # the probe
        assert breaker.state == "half-open"
        with pytest.raises(RejectedError):
            breaker.admit()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.admit()

    def test_reopen_doubles_cooldown(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure("Timeout")
        first = breaker.retry_after()
        clock.advance(1.5)
        breaker.admit()
        breaker.record_failure("Timeout")  # the probe failed: re-open
        second = breaker.retry_after()
        assert second > first
        assert second == pytest.approx(2.0)
        # cap: repeated failures never exceed max_cooldown
        for _ in range(6):
            clock.advance(10.0)
            breaker.admit()
            breaker.record_failure("Timeout")
        assert breaker.retry_after() <= 8.0

    def test_rolling_window_ages_out_failures(self):
        breaker, clock = self.make(window=5.0)
        breaker.record_failure("Timeout")
        breaker.record_failure("Timeout")
        clock.advance(6.0)
        breaker.record_failure("Timeout")  # the first two aged out
        assert breaker.state == "closed"

    def test_admit_reports_probe_and_abandon_releases_it(self):
        breaker, clock = self.make()
        assert breaker.admit() is False  # closed: no probe involved
        for _ in range(3):
            breaker.record_failure("Timeout")
        clock.advance(1.5)
        assert breaker.admit() is True  # this caller is the probe
        assert breaker.state == "half-open"
        breaker.abandon_probe()
        # the slot is free again: the next caller becomes the probe instead
        assert breaker.admit() is True
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.abandon_probe()  # no probe held: a no-op, never an error
        assert breaker.state == "closed"

    def test_tenant_probe_released_when_session_breaker_rejects(self):
        clock = FakeClock()
        board = BreakerBoard(session_threshold=1, tenant_threshold=1,
                             cooldown=1.0, clock=clock)
        board.record("b", "acme", ok=False, kind="Timeout")  # trips both
        clock.advance(2.0)  # tenant cooldown elapsed...
        board.record("a", None, ok=False, kind="Timeout")  # session a opens
        # tenant grants its half-open probe, then session a refuses: the
        # tenant probe must be handed back, not leak in flight forever
        with pytest.raises(RejectedError) as excinfo:
            board.admit("a", "acme")
        assert excinfo.value.reason == "session-breaker-open"
        assert board.tenant("acme").state == "half-open"
        clock.advance(1.5)  # session a's cooldown elapses too
        probes = board.admit("a", "acme")  # would raise before the fix
        assert {probe.kind for probe in probes} == {"session", "tenant"}
        board.record("a", "acme", ok=True)
        assert board.tenant("acme").state == "closed"
        assert board.session("a").state == "closed"

    def test_board_scopes_session_and_tenant(self):
        clock = FakeClock()
        board = BreakerBoard(session_threshold=2, tenant_threshold=4,
                             clock=clock)
        # two sessions of one tenant fail alternately: each session stays
        # under its threshold... until it doesn't, and later the tenant trips
        board.record("a", "acme", ok=False, kind="Timeout")
        board.record("b", "acme", ok=False, kind="Timeout")
        board.admit("a", "acme")
        board.record("a", "acme", ok=False, kind="Timeout")
        with pytest.raises(RejectedError) as excinfo:
            board.admit("a", "acme")  # session a tripped (2 failures)
        assert excinfo.value.reason == "session-breaker-open"
        board.admit("b", "acme")  # b is still fine
        board.record("b", "acme", ok=False, kind="Timeout")
        with pytest.raises(RejectedError) as excinfo:
            board.admit("c", "acme")  # 4 tenant-wide failures: tenant open
        assert excinfo.value.reason == "tenant-breaker-open"
        snapshot = board.snapshot()
        assert snapshot["tenants"]["acme"]["state"] == "open"
        board.drop_session("a")
        assert "a" not in board.snapshot()["sessions"]


# -- retry -------------------------------------------------------------------


class TestRetryPolicy:
    def test_transience_classification(self):
        policy = RetryPolicy()
        assert policy.is_transient(WolframRuntimeError("Transient", "x"))
        assert policy.is_transient(WolframRuntimeError("Injected", "x"))
        assert not policy.is_transient(WolframRuntimeError("Overflow", "x"))
        assert not policy.is_transient(WolframTimeoutError("deadline"))

    def test_deterministic_jittered_schedule(self):
        first = RetryPolicy(attempts=4, seed=42).schedule()
        second = RetryPolicy(attempts=4, seed=42).schedule()
        assert first == second
        assert len(first) == 3
        assert all(0.0 <= delay <= 0.25 for delay in first)
        assert RetryPolicy(attempts=4, seed=1).schedule() != first

    def test_delay_ceiling_grows_then_caps(self):
        policy = RetryPolicy(attempts=10, base_delay=0.01, max_delay=0.04,
                             seed=0)
        # the *ceiling* doubles per attempt then caps; sample many draws
        draws = [max(policy.delay(attempt) for _ in range(200))
                 for attempt in (1, 3, 9)]
        assert draws[0] <= 0.01
        assert draws[1] <= 0.04
        assert draws[2] <= 0.04


# -- degradation -------------------------------------------------------------


class _StubSession:
    def __init__(self, idle: float = 0.0, memory: int = 0):
        self.idle = idle
        self.memory = memory
        self.caps: list = []
        self.state = SessionState.IDLE

    def apply_tier_cap(self, cap, reason=""):
        self.caps.append(cap)
        return 1 if self.caps and cap is not Tier.COMPILED else 0

    def idle_seconds(self, now=None):
        return self.idle

    def memory_estimate(self):
        return self.memory


class TestDegradation:
    def make(self):
        reading = {"bytes": 0}
        manager = DegradationManager(
            soft_limit_bytes=1000, hard_limit_bytes=2000, idle_ttl=10.0,
            memory_probe=lambda: reading["bytes"],
        )
        return manager, reading

    def test_levels_and_budget_scale(self):
        manager, reading = self.make()
        sessions = {"s": _StubSession()}
        control = manager.evaluate(sessions, now=0.0)
        assert control["level"] is PressureLevel.NORMAL
        assert control["budget_scale"] == 1.0
        reading["bytes"] = 1500
        control = manager.evaluate(sessions, now=0.0)
        assert control["level"] is PressureLevel.ELEVATED
        assert control["budget_scale"] == 0.5
        assert sessions["s"].caps[-1] is Tier.INTERPRETER
        reading["bytes"] = 2500
        control = manager.evaluate(sessions, now=0.0)
        assert control["level"] is PressureLevel.CRITICAL
        assert control["budget_scale"] == 0.25
        assert sessions["s"].caps[-1] is Tier.INTERPRETER

    def test_hysteresis_holds_level_near_boundary(self):
        manager, reading = self.make()
        sessions: dict = {}
        reading["bytes"] = 1100
        assert manager.evaluate(sessions)["level"] is PressureLevel.ELEVATED
        reading["bytes"] = 950  # above soft*0.9: still elevated
        assert manager.evaluate(sessions)["level"] is PressureLevel.ELEVATED
        reading["bytes"] = 800  # below the hysteresis band: recovered
        assert manager.evaluate(sessions)["level"] is PressureLevel.NORMAL

    def test_critical_evicts_only_cold_sessions(self):
        manager, reading = self.make()
        cold = _StubSession(idle=60.0)
        warm = _StubSession(idle=1.0)
        reading["bytes"] = 3000
        control = manager.evaluate({"cold": cold, "warm": warm}, now=0.0)
        assert set(control["evict"]) == {"cold"}
        assert manager.snapshot()["evicted"] == 1

    def test_default_probe_sums_session_estimates(self):
        manager = DegradationManager(soft_limit_bytes=100,
                                     hard_limit_bytes=200)
        sessions = {"a": _StubSession(memory=80), "b": _StubSession(memory=70)}
        assert manager.pressure_bytes(sessions.values()) == 150
        assert manager.evaluate(sessions)["level"] is PressureLevel.ELEVATED


# -- the server core ---------------------------------------------------------


class TestEngineServer:
    def make(self, **overrides) -> EngineServer:
        config = ServerConfig(prelude=("double[x_] := x * 2",))
        for key, value in overrides.items():
            setattr(config, key, value)
        return EngineServer(config=config)

    def test_submit_roundtrip_and_isolation(self):
        def scenario(server):
            ok = server.submit("double[21]", session_id="a")
            masked = server.submit("double[x_] := 0; double[21]",
                                   session_id="b")
            again = server.submit("double[21]", session_id="a")
            return ok, masked, again

        server = self.make()
        ok, masked, again = scenario(server)
        assert (ok.ok, ok.result) == (True, "42")
        assert masked.result == "0"
        assert again.result == "42"
        payload = ok.to_dict()
        assert payload["ok"] and payload["result"] == "42"

    def test_failures_are_soft_and_tracked(self):
        def scenario(server):
            return server.submit("missing[", session_id="a")

        server = self.make()
        response = scenario(server)
        assert not response.ok
        assert response.error["kind"]
        session = server.sessions["a"]
        assert session.state is SessionState.IDLE
        assert session.stats.soft_failures == 1
        assert session.snapshot()["failure_kinds"]

    def test_guard_budget_enforced_per_request(self):
        server = self.make()
        server.config.budget = RequestBudget(
            deadline_seconds=5.0, steps=2_000, memory_bytes=None
        )

        def scenario():
            runaway = server.submit(
                "Do[Length[Range[10]], {i, 100000}]", session_id="a"
            )
            healthy = server.submit("double[2]", session_id="b")
            return runaway, healthy

        runaway, healthy = scenario()
        assert not runaway.ok
        assert healthy.ok  # one tenant's budget trip never hurts another

    def test_session_limit_rejects(self):
        server = self.make(max_sessions=1)

        def scenario():
            server.submit("1 + 1", session_id="a")
            return server.submit("1 + 1", session_id="b")

        response = scenario()
        assert response.rejected
        assert response.error["reason"] == "session-limit"

    def test_tenant_mismatch_rejects(self):
        server = self.make()

        def scenario():
            server.submit("1", session_id="a", tenant="t1")
            return server.submit("2", session_id="a", tenant="t2")

        response = scenario()
        assert response.rejected
        assert response.error["reason"] == "tenant-mismatch"

    def test_breaker_opens_after_repeated_failures(self):
        server = self.make(breaker_threshold=2)

        def scenario():
            for _ in range(2):
                server.submit("oops[", session_id="a")
            return server.submit("1 + 1", session_id="a")

        response = scenario()
        assert response.rejected
        assert response.error["reason"] == "session-breaker-open"
        assert response.retry_after > 0

    def test_probe_released_when_rejected_downstream(self):
        # the review scenario: breaker opens, cooldown elapses while the
        # session queue is still full, the half-open probe is shed — the
        # probe slot must come back, or the session is locked out forever
        clock = FakeClock()
        config = ServerConfig(breaker_threshold=1, breaker_cooldown=1.0)
        server = EngineServer(config=config, clock=clock)

        def scenario():
            tripped = server.submit("oops[", session_id="a")
            assert not tripped.ok
            clock.advance(2.0)  # cooldown elapsed: next admit is the probe
            server._pending["a"] = config.session_queue_limit  # queue full
            shed = server.submit("1", session_id="a")
            assert shed.rejected
            assert shed.error["reason"] == "session-queue-full"
            server._pending.pop("a")  # the queue drains
            return server.submit("1 + 1", session_id="a")

        recovered = scenario()
        assert recovered.ok and recovered.result == "2"
        assert server.breakers.session("a").state == "closed"

    def test_probe_released_when_tenant_mismatch_rejects(self):
        clock = FakeClock()
        config = ServerConfig(breaker_threshold=1, breaker_cooldown=1.0)
        server = EngineServer(config=config, clock=clock)

        def scenario():
            server.submit("1", session_id="a", tenant="t1")
            tripped = server.submit("oops[", session_id="a",
                                    tenant="t1")
            assert not tripped.ok
            clock.advance(2.0)
            # the probe is admitted, then rejected by the tenant check
            mismatch = server.submit("1", session_id="a", tenant="t2")
            assert mismatch.error["reason"] == "tenant-mismatch"
            return server.submit("1 + 1", session_id="a", tenant="t1")

        recovered = scenario()
        assert recovered.ok and recovered.result == "2"

    def test_transient_failures_retry_until_success(self, monkeypatch):
        server = self.make()
        server.config.retry = RetryPolicy(attempts=3, base_delay=0.001,
                                          max_delay=0.002)
        session = self._prime(server)
        outcomes = [
            Outcome(ok=False, error_kind="Transient", error_message="blip",
                    transient=True),
            Outcome(ok=False, error_kind="Transient", error_message="blip",
                    transient=True),
            Outcome(ok=True, value="42"),
        ]
        monkeypatch.setattr(type(session), "execute",
                            lambda self, source, budget: outcomes.pop(0))
        response = server.submit("whatever", session_id="a")
        assert response.ok and response.result == "42"
        assert response.retries == 2
        assert server.totals["retries"] == 2

    def test_transient_failures_respect_attempt_bound(self, monkeypatch):
        server = self.make()
        server.config.retry = RetryPolicy(attempts=2, base_delay=0.001,
                                          max_delay=0.002)
        session = self._prime(server)
        monkeypatch.setattr(
            type(session), "execute",
            lambda self, source, budget: Outcome(
                ok=False, error_kind="Transient", error_message="blip",
                transient=True,
            ),
        )
        response = server.submit("whatever", session_id="a")
        assert not response.ok
        assert response.retries == 1  # attempts=2 -> exactly one retry

    def _prime(self, server):
        server.submit("1 + 1", session_id="a")
        return server.sessions["a"]

    def test_retry_backoff_does_not_hold_admission_slot(self, monkeypatch):
        server = self.make()
        server.config.retry = RetryPolicy(attempts=3, base_delay=0.001,
                                          max_delay=0.002)
        session = self._prime(server)
        outcomes = [
            Outcome(ok=False, error_kind="Transient", error_message="blip",
                    transient=True),
            Outcome(ok=False, error_kind="Transient", error_message="blip",
                    transient=True),
            Outcome(ok=True, value="42"),
        ]
        monkeypatch.setattr(type(session), "execute",
                            lambda self, source, budget: outcomes.pop(0))
        real_sleep = time.sleep
        slots_held_during_backoff = []

        def spying_sleep(delay):
            slots_held_during_backoff.append(server.admission.running)
            real_sleep(0)

        monkeypatch.setattr(time, "sleep", spying_sleep)
        response = server.submit("whatever", session_id="a")
        assert response.ok and response.retries == 2
        # both backoff sleeps ran with zero worker slots pinned
        assert slots_held_during_backoff == [0, 0]

    def test_abort_on_idle_session_does_not_poison_next_request(self):
        server = self.make()
        server.submit("1 + 1", session_id="a")
        # the session is idle: the abort targets nothing and must be
        # dropped, not left armed for the next unrelated request
        assert server.abort_session("a") is True
        assert server.abort_session("missing") is False
        response = server.submit("double[3]", session_id="a")
        assert response.ok and response.result == "6"
        assert server.sessions["a"].stats.aborted == 0

    def test_submit_never_raises_on_internal_error(self, monkeypatch):
        server = self.make()
        session = self._prime(server)

        def explode(self, source, budget):
            raise RuntimeError("cannot schedule new futures after shutdown")

        monkeypatch.setattr(type(session), "execute", explode)
        response = server.submit("1", session_id="a")
        assert not response.ok
        assert response.error["kind"] == "InternalError"
        assert "RuntimeError" in response.error["message"]
        assert server.totals["failed"] == 1
        # the protocol boundary stayed intact: the next request still works
        monkeypatch.undo()
        healthy = server.submit("double[4]", session_id="a")
        assert healthy.ok and healthy.result == "8"

    def test_guard_trips_never_retry(self):
        server = self.make()
        server.config.budget = RequestBudget(deadline_seconds=5.0,
                                             steps=1_000, memory_bytes=None)

        def scenario():
            return server.submit("Do[i, {i, 100000}]", session_id="a")

        response = scenario()
        assert not response.ok
        assert response.retries == 0

    def test_degradation_demotes_and_evicts(self):
        reading = {"bytes": 0}
        config = ServerConfig()
        server = EngineServer(config=config,
                              memory_probe=lambda: reading["bytes"])
        server.degrade.soft_limit_bytes = 1000
        server.degrade.hard_limit_bytes = 2000
        server.degrade.idle_ttl = 0.0

        def scenario():
            server.submit("1 + 1", session_id="old")
            reading["bytes"] = 5000  # critical from here on
            response = server.submit("2 + 2", session_id="fresh")
            return response

        response = scenario()
        assert response.ok
        # the idle "old" session was evicted by the critical sweep; the
        # session serving the request survived it
        assert "old" not in server.sessions
        assert "fresh" in server.sessions
        assert "old" in server.stats()["evicted_sessions"]
        assert server.sessions["fresh"].tier_cap is Tier.INTERPRETER

    def test_stats_dump_shape(self, tmp_path):
        server = self.make()
        server.submit("double[2]", session_id="a", tenant="t")
        path = tmp_path / "dump.json"
        server.dump_stats(str(path))
        dump = json.loads(path.read_text())
        assert dump["kind"] == "repro-server-stats"
        assert dump["schema"] == 1
        assert dump["requests"]["ok"] == 1
        assert "a" in dump["sessions"]
        assert dump["breakers"]["sessions"]["a"]["state"] == "closed"
        assert dump["base_image_definitions"] >= 1

    def test_base_image_rejects_bad_prelude(self):
        with pytest.raises(BaseImageError):
            BaseImage(prelude=("this is not [ valid",))


# -- the wire server: real sockets, one thread per connection ----------------


def wire_config(**overrides) -> ServerConfig:
    """A server whose long requests run until aborted."""
    config = ServerConfig(**overrides)
    config.budget = RequestBudget(deadline_seconds=30.0, steps=None,
                                  memory_bytes=None)
    return config


LONG_LOOP = {"expr": "Do[i, {i, 10^9}]", "session": "a"}


def running(engine: EngineServer, session_id: str) -> bool:
    session = engine.sessions.get(session_id)
    return session is not None and session.state is SessionState.RUNNING


class TestWireServer:
    def test_ping_is_answered_while_another_connection_evaluates(
            self, serve_wire):
        engine = EngineServer(config=wire_config())
        connect = serve_wire(engine)
        first, second = connect(), connect()
        first.send(LONG_LOOP)
        assert wait_until(lambda: running(engine, "a"))
        assert second.request({"op": "ping"}) == {"ok": True,
                                                  "result": "pong"}
        assert running(engine, "a")  # the loop is still going
        assert second.request({"op": "abort", "session": "a"})["ok"]
        assert first.receive()["error"]["kind"] == "Aborted"
        engine.close()

    def test_abort_from_another_connection_stops_the_loop(self, serve_wire):
        engine = EngineServer(config=wire_config())
        connect = serve_wire(engine)
        first, second = connect(), connect()
        first.send(LONG_LOOP)
        assert wait_until(lambda: running(engine, "a"))
        assert second.request({"op": "abort", "session": "a"}) == {"ok": True}
        aborted = first.receive()
        assert not aborted["ok"]
        assert aborted["error"]["kind"] == "Aborted"
        # the session serves its next request
        after = first.request({"expr": "1 + 1", "session": "a"})
        assert after["ok"] and after["result"] == "2"
        assert engine.sessions["a"].state is SessionState.IDLE
        engine.close()

    def test_third_concurrent_request_is_shed_queue_full(self, serve_wire):
        from repro.server.cli import build_parser, config_from_args

        config = config_from_args(build_parser().parse_args(
            ["--max-concurrent", "1", "--queue-limit", "1"]))
        config.budget = wire_config().budget
        engine = EngineServer(config=config)
        connect = serve_wire(engine)
        first, second, third, control = (connect() for _ in range(4))
        first.send(LONG_LOOP)
        assert wait_until(lambda: running(engine, "a"))
        second.send({"expr": "2 + 2", "session": "b"})
        assert wait_until(lambda: engine.admission.waiting == 1)
        shed = third.request({"expr": "3 + 3", "session": "c"})
        assert shed["rejected"]
        assert shed["error"]["reason"] == "queue-full"
        assert shed["retry_after"] > 0
        control.request({"op": "abort", "session": "a"})
        assert first.receive()["error"]["kind"] == "Aborted"
        queued = second.receive()
        assert queued["ok"] and queued["result"] == "4"
        engine.close()

    def test_client_hanging_up_mid_request_frees_its_slot(self, serve_wire):
        engine = EngineServer(config=wire_config())
        connect = serve_wire(engine)
        leaving, control = connect(), connect()
        leaving.send(LONG_LOOP)
        assert wait_until(lambda: running(engine, "a"))
        leaving.close()
        control.request({"op": "abort", "session": "a"})
        assert wait_until(lambda: not running(engine, "a"))
        assert wait_until(lambda: engine.admission.running == 0)
        reply = connect().request({"expr": "6 * 7"})
        assert reply["ok"] and reply["result"] == "42"
        assert engine.admission.running == 0
        engine.close()

    @pytest.mark.parametrize("line, message", [
        ("[1, 2]", "a request is a JSON object, not list"),
        ('"text"', "a request is a JSON object, not str"),
        ("7", "a request is a JSON object, not int"),
        ('{"op": "abort", "session": ["x"]}', "'session' must be a string"),
        ('{"expr": "1", "session": 5}', "'session' must be a string"),
        ('{"expr": "1", "tenant": {"t": 1}}', "'tenant' must be a string"),
        ('{"op": 3}', "'op' must be a string"),
        ('{"expr": "1", "trace_id": [1]}', "'trace_id' must be a string"),
    ])
    def test_malformed_request_shapes_are_bad_requests(self, serve_wire,
                                                       line, message):
        engine = EngineServer(config=ServerConfig())
        client = serve_wire(engine)()
        reply = client.request(line)
        assert reply == {"ok": False, "error": {"kind": "BadRequest",
                                                "message": message}}
        # the connection stays open and keeps serving
        assert client.request({"op": "ping"})["result"] == "pong"
        assert client.request({"expr": "1 + 1"})["result"] == "2"
        assert engine.totals["failed"] == 0
        engine.close()

    def test_overlong_line_is_answered_then_closed(self, serve_wire):
        from repro.server.cli import MAX_LINE_BYTES

        engine = EngineServer(config=ServerConfig())
        connect = serve_wire(engine)
        client = connect()
        reply = client.request("x" * (MAX_LINE_BYTES + 10))
        assert reply["error"]["kind"] == "BadRequest"
        assert client.stream.readline() == b""  # closed by the server
        assert connect().request({"op": "ping"})["ok"]
        engine.close()

    @pytest.mark.parametrize("source, result", [
        ("Exp[1000.]", "Exp[1000.0]"),
        ("Cosh[1000.]", "Cosh[1000.0]"),
        ("Sqrt[-4]", "Times[2, I]"),
    ])
    def test_machine_math_never_crashes_a_session(self, serve_wire, source,
                                                  result):
        engine = EngineServer(config=ServerConfig())
        client = serve_wire(engine)()
        reply = client.request({"expr": source, "session": "m"})
        assert reply["ok"] and reply["result"] == result
        assert engine.sessions["m"].state is SessionState.IDLE
        engine.close()

    def test_n_of_a_huge_integer_over_the_wire(self, serve_wire):
        engine = EngineServer(config=ServerConfig())
        client = serve_wire(engine)()
        reply = client.request({"expr": "N[10^400]", "session": "m"})
        assert reply["ok"] and reply["result"].startswith("N[1000")
        assert engine.sessions["m"].state is SessionState.IDLE
        engine.close()

    def test_serve_banner_and_sigterm(self, wire_connect):
        """The CLI's network mode: the banner ``bench/`` parses, requests
        over TCP, and a prompt exit on SIGTERM."""
        import os
        import signal
        import subprocess
        import sys

        import repro

        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--max-concurrent", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            assert banner.startswith("repro engine server listening on ")
            address = banner.split(" listening on ")[1].split()[0]
            host, port = address.rsplit(":", 1)
            assert banner.rstrip().endswith("(0 base definitions)")
            client = wire_connect((host, int(port)))
            assert client.request({"expr": "2^10"})["result"] == "1024"
            client.close()
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=5) == 0
            assert "server stopped" in process.stderr.read()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
            process.stderr.close()


# -- load generator ----------------------------------------------------------


class TestLoadGenerator:
    def test_deterministic_load_and_report_math(self):
        from repro.server.loadgen import percentile

        assert percentile([], 0.5) == 0.0
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
        assert percentile([3.0, 1.0, 2.0], 0.99) == 3.0

        def scenario():
            server = EngineServer(config=ServerConfig())
            spec = LoadSpec(clients=4, requests_per_client=6, seed=3)
            report = generate(server, spec)
            server.close()
            return report

        report = scenario()
        assert report.requests == 24
        assert report.ok == 24
        assert report.shed_rate == 0.0
        assert report.p99 >= report.p50 >= 0.0
        payload = report.to_dict()
        assert payload["throughput_rps"] > 0


# -- the --stats DUMP renderer ----------------------------------------------


class TestStatsRenderer:
    def test_renders_tables_from_dump(self, tmp_path):
        from repro.__main__ import main as repro_main

        server = EngineServer(
            config=ServerConfig(prelude=("double[x_] := x * 2",))
        )

        def scenario():
            server.submit("double[4]", session_id="a", tenant="t1")
            server.submit("oops[", session_id="b", tenant="t2")

        scenario()
        path = tmp_path / "stats.json"
        server.dump_stats(str(path))
        out = io.StringIO()
        assert repro_main(["--stats", str(path)], output=out) == 0
        text = out.getvalue()
        assert "-- sessions --" in text
        assert "-- tenant breakers --" in text
        assert "a" in text and "t1" in text
        assert "-- failure kinds --" in text

    def test_rejects_non_dump_files(self, tmp_path):
        from repro.__main__ import main as repro_main

        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        out = io.StringIO()
        assert repro_main(["--stats", str(path)], output=out) == 1
        assert "not a repro server stats dump" in out.getvalue()
