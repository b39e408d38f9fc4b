"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os
import socket
import threading

import pytest

# Hermetic tests: the persistent artifact cache (repro.artifacts) must
# neither leak compiles between tests nor touch ~/.cache on CI runners.
# Cache-specific tests repoint this at a tmp_path with monkeypatch.
os.environ["REPRO_ARTIFACT_CACHE"] = "off"

from repro.engine import Evaluator  # noqa: E402


@pytest.fixture(autouse=True)
def _uninstall_leaked_flight_recorder():
    """A server constructed without ``close()`` leaves its auto-installed
    FlightRecorder as the process tracer; sweep *background* tracers so
    telemetry state never leaks between tests.  Explicitly-installed
    (foreground) tracers are a test's own responsibility and still fail
    the test_observe/test_telemetry leak assertions."""
    yield
    from repro.observe import trace as _trace

    tracer = _trace.TRACER
    if tracer is not None and getattr(tracer, "background", False):
        _trace.TRACER = None


@pytest.fixture(autouse=True)
def _checkpoint_word_disarmed():
    """A leaked arm (a guard never popped, an abort never cleared, an
    injector never disarmed) is a silent permanent slow path on every tier:
    the checkpoint word must be back at 0 after every test."""
    yield
    from repro.runtime.guard import CHECKPOINT

    leaked, CHECKPOINT[0] = CHECKPOINT[0], 0  # don't cascade into later tests
    assert leaked == 0, f"checkpoint word left at {leaked}"


@pytest.fixture()
def artifact_cache(tmp_path, monkeypatch):
    """An enabled, isolated artifact store rooted in ``tmp_path``."""
    from repro.artifacts import get_store

    monkeypatch.setenv("REPRO_ARTIFACT_CACHE", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_ARTIFACT_CACHE_MAX", raising=False)
    return get_store()


@pytest.fixture()
def evaluator() -> Evaluator:
    return Evaluator()


@pytest.fixture()
def run(evaluator):
    """Evaluate Wolfram source and return the FullForm string."""
    from repro.mexpr import full_form

    def runner(source: str) -> str:
        return full_form(evaluator.run(source))

    return runner


@pytest.fixture()
def run_value(evaluator):
    """Evaluate Wolfram source and return the Python value."""

    def runner(source: str):
        return evaluator.run(source).to_python()

    return runner


class WireClient:
    """A newline-JSON client of ``python -m repro serve`` over a real
    socket."""

    def __init__(self, address):
        self.socket = socket.create_connection(address, timeout=10)
        self.stream = self.socket.makefile("rwb")

    def send(self, payload) -> None:
        """Send one request line: a dict is encoded, a str goes raw."""
        if isinstance(payload, dict):
            payload = json.dumps(payload)
        self.stream.write(payload.encode("utf-8") + b"\n")
        self.stream.flush()

    def receive(self) -> dict:
        line = self.stream.readline()
        assert line, "the server closed the connection"
        return json.loads(line)

    def request(self, payload) -> dict:
        self.send(payload)
        return self.receive()

    def close(self) -> None:
        self.stream.close()
        self.socket.close()


@pytest.fixture()
def wire_connect():
    """``wire_connect(address)`` opens a :class:`WireClient`; every client
    opened is closed afterwards."""
    clients = []

    def connect(address) -> WireClient:
        client = WireClient(address)
        clients.append(client)
        return client

    yield connect
    for client in clients:
        client.close()


@pytest.fixture()
def serve_wire(wire_connect):
    """``serve_wire(engine)`` serves ``engine`` over TCP on an ephemeral
    port from a background thread and returns a ``connect()`` that opens a
    :class:`WireClient` to it; server and thread are stopped afterwards."""
    from repro.server.cli import WireServer

    servers = []

    def start(engine):
        wire = WireServer(engine, ("127.0.0.1", 0))
        thread = threading.Thread(target=wire.serve_forever, args=(0.05,),
                                  daemon=True)
        thread.start()
        servers.append((wire, thread))
        return lambda: wire_connect(wire.server_address)

    yield start
    for wire, thread in servers:
        wire.shutdown()
        wire.server_close()
        thread.join(5)
