"""Chaos mode: adversarial tenants driven through the normal server path.

The fault-injection registry (``repro.testing.faults``) is process-global
and not reentrant, so a multi-session chaos run cannot lean on it without
coupling every session's faults together.  Chaos here is therefore
*adversarial traffic*: seeded misbehaving clients submit requests that are
themselves the faults —

``slow``
    an unbounded accumulation loop that burns the step budget (and, with
    tight deadlines, the clock) until the guard trips;
``poison``
    defines an infinitely recursive function in the session, then calls
    it — the recursion limit or step budget must contain it, and the
    poisoned definition must stay invisible to every other session;
``spike``
    materializes a large ``Table`` to trip the memory budget;
``abort``
    schedules a mid-evaluation ``abort_session`` against its own session
    while a long request runs;
``overflow``
    machine arithmetic past the float range (``Exp[1000.]``,
    ``N[10^1000]``) and a square root of a negative integer: each must
    come back as a value or stay unevaluated with a message, never
    escape the interpreter as a raw Python error;
``deep``
    data nested deeper than Python's frame limit (``Nest[f, x, 5000]``)
    rendered, and walked again by the evaluator: a value or the
    classified ``$RecursionLimit`` error, never a crashed session.

Each client is its own thread calling ``EngineServer.submit``, as a
connection thread of the wire server does; ``abort`` fires from a
:class:`threading.Timer`.

Healthy clients run the same workload as the load generator alongside the
adversaries.  The report is the chaos suite's evidence base: zero crashed
sessions, healthy traffic still completing, misbehaving sessions tripping
their breakers, shed rate under 100%.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.server.core import EngineServer, ServerConfig
from repro.server.loadgen import DEFAULT_WORKLOAD, percentile, run_clients

BEHAVIOURS = ("slow", "poison", "spike", "abort", "overflow", "deep")

#: adversarial request bodies, by behaviour
_SLOW_REQUEST = (
    "Module[{acc = 0}, Do[acc = acc + i * i, {i, 500000}]; acc]"
)
_POISON_DEFINE = "poison{n}[x_] := poison{n}[x + 1]"
_POISON_CALL = "poison{n}[0]"
_SPIKE_REQUEST = "Total[Table[i * i, {{i, {cells}}}]]"
_ABORT_REQUEST = "Module[{acc = 0}, Do[acc = acc + i, {i, 2000000}]; acc]"
_OVERFLOW_REQUESTS = ("Exp[{big}.]", "N[10^{big}]", "Cosh[{big}.] + Sqrt[-4]")
_DEEP_REQUESTS = (
    "Nest[f, x, {depth}]",
    "deep = Nest[List, 1, {depth}]; Depth[deep]",
)


@dataclass
class ChaosSpec:
    """Shape of one chaos run (deterministic given ``seed``)."""

    adversaries: int = 4
    healthy_clients: int = 4
    requests_per_client: int = 10
    seed: int = 0
    spike_cells: int = 400_000
    abort_delay: float = 0.05


@dataclass
class ChaosReport:
    """Evidence collected by one chaos run."""

    requests: int = 0
    healthy_requests: int = 0
    healthy_ok: int = 0
    adversary_requests: int = 0
    adversary_contained: int = 0  # failed softly: guard, breaker, or shed
    adversary_ok: int = 0
    shed: int = 0
    retries: int = 0
    duration_seconds: float = 0.0
    behaviour_counts: dict = field(default_factory=dict)
    failure_kinds: dict = field(default_factory=dict)
    healthy_latencies: list = field(default_factory=list)

    def count(self, table: dict, key: str) -> None:
        table[key] = table.get(key, 0) + 1

    @property
    def healthy_success_rate(self) -> float:
        if not self.healthy_requests:
            return 0.0
        return self.healthy_ok / self.healthy_requests

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "healthy_requests": self.healthy_requests,
            "healthy_ok": self.healthy_ok,
            "healthy_success_rate": self.healthy_success_rate,
            "healthy_latency_p99_seconds": percentile(
                self.healthy_latencies, 0.99
            ),
            "adversary_requests": self.adversary_requests,
            "adversary_contained": self.adversary_contained,
            "adversary_ok": self.adversary_ok,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "retries": self.retries,
            "duration_seconds": self.duration_seconds,
            "behaviour_counts": dict(self.behaviour_counts),
            "failure_kinds": dict(self.failure_kinds),
        }


def _adversary_requests(behaviour: str, index: int,
                        spec: ChaosSpec) -> list:
    if behaviour == "poison":
        return [
            _POISON_DEFINE.format(n=index),
            _POISON_CALL.format(n=index),
        ]
    if behaviour == "spike":
        return [_SPIKE_REQUEST.format(cells=spec.spike_cells)]
    if behaviour == "abort":
        return [_ABORT_REQUEST]
    if behaviour == "overflow":
        return [source.format(big=1000 + index)
                for source in _OVERFLOW_REQUESTS]
    if behaviour == "deep":
        return [source.format(depth=3000 + 1000 * index)
                for source in _DEEP_REQUESTS]
    return [_SLOW_REQUEST]


def unleash(server: EngineServer,
            spec: Optional[ChaosSpec] = None) -> ChaosReport:
    """Run adversarial and healthy clients concurrently, one thread each;
    never raises."""
    spec = spec if spec is not None else ChaosSpec()
    report = ChaosReport()
    tally = threading.Lock()

    def adversary(index: int) -> None:
        rng = random.Random(spec.seed * 7919 + index)
        session_id = f"bad{index}"
        tenant = f"chaos-t{index % 2}"
        for _ in range(spec.requests_per_client):
            behaviour = BEHAVIOURS[rng.randrange(len(BEHAVIOURS))]
            with tally:
                report.count(report.behaviour_counts, behaviour)
            aborter = None
            if behaviour == "abort":
                aborter = threading.Timer(spec.abort_delay,
                                          server.abort_session,
                                          args=(session_id,))
                aborter.start()
            for source in _adversary_requests(behaviour, index, spec):
                response = server.submit(
                    source, session_id=session_id, tenant=tenant
                )
                with tally:
                    report.requests += 1
                    report.adversary_requests += 1
                    report.retries += response.retries
                    if response.ok:
                        report.adversary_ok += 1
                    else:
                        report.adversary_contained += 1
                        if response.rejected:
                            report.shed += 1
                        if response.error:
                            kind = (response.error.get("kind")
                                    or response.error.get("reason")
                                    or "unknown")
                            report.count(report.failure_kinds, kind)
            if aborter is not None:
                aborter.join()

    def healthy(index: int) -> None:
        rng = random.Random(spec.seed * 104_729 + index)
        session_id = f"good{index}"
        tenant = "healthy"
        for _ in range(spec.requests_per_client):
            source = rng.choice(DEFAULT_WORKLOAD).format(n=index)
            response = server.submit(
                source, session_id=session_id, tenant=tenant
            )
            with tally:
                report.requests += 1
                report.healthy_requests += 1
                report.retries += response.retries
                report.healthy_latencies.append(response.latency_seconds)
                if response.ok:
                    report.healthy_ok += 1
                elif response.rejected:
                    report.shed += 1
            # pause so adversaries interleave rather than batch
            time.sleep(rng.uniform(0, 0.002))

    start = time.monotonic()
    run_clients(
        [lambda i=i: adversary(i) for i in range(spec.adversaries)]
        + [lambda i=i: healthy(i) for i in range(spec.healthy_clients)]
    )
    report.duration_seconds = time.monotonic() - start
    return report


def run_chaos(config: Optional[ServerConfig] = None,
              spec: Optional[ChaosSpec] = None,
              flight_dir: Optional[str] = None):
    """Chaos against a fresh server; returns the
    :class:`ChaosReport` and the server's final stats dump.  With
    ``flight_dir``, the flight recorder's snapshots (auto-frozen on
    breaker trips and critical pressure during the run) are written
    there before shutdown — the CI chaos job uploads them as artifacts."""
    server = EngineServer(config=config)
    try:
        report = unleash(server, spec)
        stats = server.stats()
        if flight_dir and server.flight is not None:
            server.flight.write_snapshots(flight_dir)
        return report, stats
    finally:
        server.close()
