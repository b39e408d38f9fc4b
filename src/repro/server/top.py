"""``python -m repro top`` — a live terminal overview of a running server.

A tiny newline-JSON client for the ``serve`` protocol: it issues one
``{"op": "stats"}`` and one ``{"op": "metrics"}`` round trip per refresh
and renders the operator's one-screen answer to "is the server healthy
right now?" —

* request totals and shed rate, uptime;
* latency quantiles (p50/p95/p99) from the flight recorder's
  ``server.latency_seconds`` log-bucket histogram;
* the degradation level and admission queue occupancy;
* the breaker board: every tenant's breaker, and every session breaker
  that is not closed;
* the session table with each session's tier cap — the tier *mix* line
  summarizes how much of the fleet is degraded — and each session's
  failures by kind;
* artifact-cache hit rate and hotspot promotions by landing tier;
* flight-recorder health (ring occupancy, retained/dropped requests,
  frozen snapshots).

``render_top`` is a pure function of the two reply payloads, so tests
drive it without a socket; the CLI adds ``--watch`` (clear + redraw every
``--interval`` seconds) and ``--json`` (dump the merged payload instead,
for scripting).  ``python -m repro --stats DUMP`` renders a stats dump
(``repro serve --dump-stats``) through it too, without the metrics lines.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from typing import Optional

from repro.server.cli import DEFAULT_PORT

#: session rows shown before the table elides (busiest first)
MAX_SESSION_ROWS = 12


def _fmt_seconds(value) -> str:
    if value is None:
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def _fmt_rate(numerator: int, denominator: int) -> str:
    if not denominator:
        return "-"
    return f"{100.0 * numerator / denominator:.1f}%"


def _latency_line(metrics: dict) -> str:
    histogram = metrics.get("histograms", {}).get("server.latency_seconds")
    if not histogram:
        return "latency    no samples yet"
    return (
        f"latency    p50 {_fmt_seconds(histogram.get('p50'))}   "
        f"p95 {_fmt_seconds(histogram.get('p95'))}   "
        f"p99 {_fmt_seconds(histogram.get('p99'))}   "
        f"n={histogram.get('count', 0)}"
    )


def _cache_line(counters: dict) -> str:
    hits = counters.get("artifact.cache.hits", 0)
    misses = counters.get("artifact.cache.misses", 0)
    promotions = {
        name.rsplit(".", 1)[-1]: value
        for name, value in counters.items()
        if name.startswith("hotspot.promotions.")
    }
    parts = [
        f"cache      hits {hits}  misses {misses}  "
        f"hit-rate {_fmt_rate(hits, hits + misses)}"
    ]
    if promotions:
        mix = "  ".join(
            f"{tier}={count}" for tier, count in sorted(promotions.items())
        )
        parts.append(f"promotions {mix}")
    return "\n".join(parts)


def _breaker_rows(board: dict) -> tuple:
    """The rows of every tenant breaker and every session breaker not
    closed, and how many of them are tripped."""
    rows, tripped = [], 0
    for kind in ("sessions", "tenants"):
        for scope, breaker in sorted(board.get(kind, {}).items()):
            state = breaker.get("state", "?")
            tripped += state != "closed"
            if state == "closed" and kind == "sessions":
                continue
            retry = breaker.get("retry_after")
            rows.append(
                f"  {breaker.get('kind', kind[:-1]):<8}{scope:<16}"
                f"{state:<10}"
                f"in window {breaker.get('failures_in_window', 0):<4}"
                f"opened x{breaker.get('times_opened', 0)}"
                + (f"  retry in {_fmt_seconds(retry)}" if retry else "")
            )
    return rows, tripped


def _session_rows(ordered: list) -> list:
    rows = []
    for info in ordered[:MAX_SESSION_ROWS]:
        rows.append(
            f"  {info.get('id', '?'):<14}{str(info.get('tenant') or '-'):<10}"
            f"{info.get('state', '?'):<9}{info.get('tier_cap', '?'):<12}"
            f"req {info.get('requests', 0):<6}"
            f"ok {info.get('ok', 0):<6}"
            f"fail {info.get('soft_failures', 0):<5}"
            f"shed {info.get('rejected', 0):<5}"
            f"mem {info.get('memory_estimate', 0) // 1024}K"
        )
    if len(ordered) > MAX_SESSION_ROWS:
        rows.append(f"  ... and {len(ordered) - MAX_SESSION_ROWS} more")
    return rows


def _failure_kind_rows(ordered: list) -> list:
    return [
        f"  {info.get('id', '?'):<14}" + "  ".join(
            f"{kind}:{count}"
            for kind, count in sorted(info["failure_kinds"].items())
        )
        for info in ordered[:MAX_SESSION_ROWS]
        if info.get("failure_kinds")
    ]


def render_top(stats: dict, metrics: Optional[dict] = None) -> str:
    """The one-screen server overview, as a string (pure; testable).
    Without ``metrics`` (a stats dump alone) the latency and cache lines
    are left out."""
    totals = stats.get("requests", {})
    pressure = stats.get("pressure", {})
    admission = stats.get("admission", {})
    sessions = stats.get("sessions", {})
    telemetry = stats.get("telemetry", {})

    tiers: dict[str, int] = {}
    for info in sessions.values():
        cap = info.get("tier_cap", "?")
        tiers[cap] = tiers.get(cap, 0) + 1
    tier_mix = "  ".join(
        f"{tier}={count}" for tier, count in sorted(tiers.items())
    ) or "-"

    lines = [
        f"repro server  up {_fmt_seconds(stats.get('uptime_seconds', 0.0))}  "
        f"pressure {pressure.get('level', '?')}  "
        f"sessions {len(sessions)} (tiers: {tier_mix})",
        f"requests   total {totals.get('requests', 0)}  "
        f"ok {totals.get('ok', 0)}  failed {totals.get('failed', 0)}  "
        f"shed {totals.get('shed', 0)} "
        f"({_fmt_rate(totals.get('shed', 0), totals.get('requests', 0))})  "
        f"retries {totals.get('retries', 0)}  "
        f"evicted {totals.get('evicted', 0)}",
    ]
    if metrics is not None:
        lines.append(_latency_line(metrics))
    lines.append(
        f"admission  running {admission.get('running', 0)}/"
        f"{admission.get('max_concurrent', 0)}  "
        f"waiting {admission.get('waiting', 0)}/"
        f"{admission.get('queue_limit', 0)}  "
        f"peak queue {admission.get('peak_queue_depth', 0)}"
    )
    if metrics is not None:
        lines.append(_cache_line(metrics.get("counters", {})))

    breaker_rows, tripped = _breaker_rows(stats.get("breakers", {}))
    lines.append(f"breakers   {tripped} tripped")
    lines.extend(breaker_rows)

    if telemetry:
        snapshots = telemetry.get("snapshots", [])
        lines.append(
            f"flight     ring {telemetry.get('ring_events', 0)}/"
            f"{telemetry.get('ring_capacity', 0)}  "
            f"retained {telemetry.get('retained_requests', 0)}  "
            f"dropped {telemetry.get('dropped_requests', 0)}  "
            f"snapshots {len(snapshots)}"
            + ("".join(f"\n  snapshot: {s.get('reason', '?')}"
                       f" ({s.get('events', 0)} events)"
                       for s in snapshots))
        )
    else:
        lines.append("flight     recorder off")

    # busiest first
    ordered = sorted(sessions.values(),
                     key=lambda info: info.get("requests", 0), reverse=True)
    if ordered:
        lines.append("sessions")
        lines.extend(_session_rows(ordered))
    kind_rows = _failure_kind_rows(ordered)
    if kind_rows:
        lines.append("failure kinds")
        lines.extend(kind_rows)
    return "\n".join(lines)


# -- the TCP client ----------------------------------------------------------


def fetch(host: str, port: int, timeout: float = 5.0) -> tuple:
    """One stats + metrics round trip against a running ``repro serve``."""
    with socket.create_connection((host, port), timeout=timeout) as conn:
        handle = conn.makefile("rwb")
        replies = []
        for op in ("stats", "metrics"):
            handle.write(json.dumps({"op": op}).encode("utf-8") + b"\n")
            handle.flush()
            line = handle.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            replies.append(json.loads(line))
    return replies[0].get("stats", {}), replies[1].get("metrics", {})


def build_parser(parser: Optional[argparse.ArgumentParser] = None
                 ) -> argparse.ArgumentParser:
    if parser is None:
        parser = argparse.ArgumentParser(prog="repro top")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--watch", action="store_true",
                        help="clear and redraw until interrupted")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="refresh period with --watch, seconds")
    parser.add_argument("--count", type=int, default=0,
                        help="with --watch, stop after N refreshes "
                        "(0 = until interrupted)")
    parser.add_argument("--json", action="store_true",
                        help="print the merged stats+metrics JSON instead "
                        "of the rendered view")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    refreshes = 0
    try:
        while True:
            try:
                stats, metrics = fetch(args.host, args.port)
            except OSError as error:
                print(f"repro top: cannot reach {args.host}:{args.port} "
                      f"({error})", file=sys.stderr)
                return 1
            if args.json:
                print(json.dumps({"stats": stats, "metrics": metrics},
                                 indent=2))
            else:
                if args.watch:
                    sys.stdout.write("\x1b[2J\x1b[H")  # clear + home
                print(render_top(stats, metrics))
            refreshes += 1
            if not args.watch or (args.count and refreshes >= args.count):
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
