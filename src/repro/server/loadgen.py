"""A deterministic load generator for the engine server.

Drives an in-process :class:`~repro.server.core.EngineServer` with a
seeded mixture of realistic requests — definition writes, pattern
dispatch, arithmetic, small list workloads — spread across sessions and
tenants, and reports the latency distribution (p50 / p99), throughput,
and shed rate (``python -m repro serve --loadgen``).

Everything is seeded: the same :class:`LoadSpec` produces the same
request sequence, so regressions in the latency distribution are
attributable to the engine, not the workload.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.server.core import EngineServer, ServerConfig

#: the default request mixture; ``{n}`` is a per-client integer so
#: definition-heavy clients exercise the copy-on-write overlay path
DEFAULT_WORKLOAD = (
    "f{n}[x_] := x + {n}",
    "f{n}[{n}]",
    "Total[Table[i, {{i, 40}}]]",
    "Map[Function[x, x * x], Range[12]]",
    "Fold[Plus, 0, Range[25]]",
    "StringJoin[\"client\", \"-\", \"{n}\"]",
    "If[{n} > 2, \"big\", \"small\"]",
    "Length[Range[30]]",
)


@dataclass
class LoadSpec:
    """Shape of one load run (all deterministic given ``seed``)."""

    clients: int = 8
    requests_per_client: int = 25
    sessions: int = 4
    tenants: int = 2
    think_time: float = 0.0
    seed: int = 0
    workload: tuple = DEFAULT_WORKLOAD


def percentile(values: list, fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[rank]


@dataclass
class LoadReport:
    """What one load run measured."""

    requests: int = 0
    ok: int = 0
    failed: int = 0
    shed: int = 0
    retries: int = 0
    duration_seconds: float = 0.0
    latencies: list = field(default_factory=list)
    #: quantiles read back from the flight recorder's
    #: ``server.latency_seconds`` log-bucket histogram — the estimates the
    #: ``metrics`` op serves in production, cross-checkable here against
    #: the exact nearest-rank ``p50``/``p99`` from the raw sample
    hist_p50: Optional[float] = None
    hist_p99: Optional[float] = None

    @property
    def p50(self) -> float:
        return percentile(self.latencies, 0.50)

    @property
    def p99(self) -> float:
        return percentile(self.latencies, 0.99)

    @property
    def throughput(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.requests / self.duration_seconds

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    def to_dict(self) -> dict:
        payload = {
            "requests": self.requests,
            "ok": self.ok,
            "failed": self.failed,
            "shed": self.shed,
            "retries": self.retries,
            "duration_seconds": self.duration_seconds,
            "throughput_rps": self.throughput,
            "latency_p50_seconds": self.p50,
            "latency_p99_seconds": self.p99,
            "shed_rate": self.shed_rate,
        }
        if self.hist_p50 is not None:
            payload["latency_hist_p50_seconds"] = self.hist_p50
        if self.hist_p99 is not None:
            payload["latency_hist_p99_seconds"] = self.hist_p99
        return payload


async def generate(server: EngineServer,
                   spec: Optional[LoadSpec] = None) -> LoadReport:
    """Run the load against ``server`` and collect a report."""
    spec = spec if spec is not None else LoadSpec()
    report = LoadReport()

    async def client(index: int) -> None:
        rng = random.Random(spec.seed * 10_007 + index)
        session_id = f"s{index % max(1, spec.sessions)}"
        tenant = f"t{index % max(1, spec.tenants)}"
        for _ in range(spec.requests_per_client):
            source = rng.choice(spec.workload).format(n=index)
            response = await server.submit(source, session_id=session_id,
                                           tenant=tenant)
            report.requests += 1
            report.latencies.append(response.latency_seconds)
            report.retries += response.retries
            if response.ok:
                report.ok += 1
            elif response.rejected:
                report.shed += 1
            else:
                report.failed += 1
            if spec.think_time:
                await asyncio.sleep(rng.uniform(0, spec.think_time))

    start = time.monotonic()
    await asyncio.gather(*(client(i) for i in range(spec.clients)))
    report.duration_seconds = time.monotonic() - start
    return report


def attach_hist_quantiles(report: LoadReport, server: EngineServer) -> None:
    """Copy the recorder's latency-histogram quantiles onto the report."""
    flight = server.flight
    if flight is None:
        return
    histogram = flight.metrics.histogram("server.latency_seconds")
    if histogram is not None:
        report.hist_p50 = histogram.p50
        report.hist_p99 = histogram.p99


def run_load(config: Optional[ServerConfig] = None,
             spec: Optional[LoadSpec] = None,
             flight_dir: Optional[str] = None):
    """Synchronous wrapper: build a server, run the load, return both
    the :class:`LoadReport` and the server's final stats dump.  With
    ``flight_dir``, the flight recorder's snapshots and ring are written
    there before shutdown."""

    async def _run():
        server = EngineServer(config=config)
        try:
            report = await generate(server, spec)
            attach_hist_quantiles(report, server)
            stats = server.stats()
            if flight_dir and server.flight is not None:
                server.flight.write_snapshots(flight_dir)
            return report, stats
        finally:
            await server.close()

    return asyncio.run(_run())
