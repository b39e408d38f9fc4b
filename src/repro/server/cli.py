"""``python -m repro serve`` — the server's command-line front door.

Two modes:

* **network** (default): a newline-delimited-JSON TCP protocol, served
  by a :class:`socketserver.ThreadingTCPServer` with one thread per
  connection; that thread reads a line, calls
  :meth:`~repro.server.core.EngineServer.submit` itself, and writes the
  reply.  Each request line is ``{"expr": "...", "session": "...", "tenant": "..."}``
  (``session`` defaults to one id per connection); special ops are
  ``{"op": "stats"}``, ``{"op": "abort", "session": "..."}``,
  ``{"op": "ping"}``, and the PR 9 introspection ops —
  ``{"op": "metrics"}`` (counters + quantile histograms),
  ``{"op": "events", "limit": N}`` (newest retained flight-recorder
  records), ``{"op": "trace", "request_id": "req-..."}`` (one request's
  full timeline, the id every eval response returns as
  ``request_id``).  Each response line is the structured
  :class:`~repro.server.core.Response` envelope; a line that is not a
  JSON object of that shape is answered with a ``BadRequest`` error and
  the connection stays open.  SIGTERM stops the server like Ctrl-C.
* **--loadgen / --chaos**: spin up an in-process server, drive it with
  the load generator or the chaos harness, print the report, and (with
  ``--dump-stats PATH``) write the full stats dump — the file
  ``python -m repro --stats PATH`` renders as ``repro top`` does.

The protocol is deliberately line-oriented and dependency-free so a
shell one-liner is a client::

    printf '{"expr": "1 + 1"}\\n' | nc localhost 7311
"""

from __future__ import annotations

import argparse
import itertools
import json
import signal
import socketserver
import sys
from typing import Optional

from repro.server.chaos import ChaosSpec, run_chaos
from repro.server.core import EngineServer, ServerConfig
from repro.server.loadgen import LoadSpec, run_load

DEFAULT_PORT = 7311
#: the longest request line read; past it the connection is answered with
#: a ``BadRequest`` and closed, since the next request cannot be found
MAX_LINE_BYTES = 1 << 16

_connection_ids = itertools.count(1)


def build_parser(parser: Optional[argparse.ArgumentParser] = None
                 ) -> argparse.ArgumentParser:
    if parser is None:
        parser = argparse.ArgumentParser(prog="repro serve")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--prelude", metavar="FILE", default=None,
                        help="file of definitions warmed into the shared "
                        "base image (one expression per line)")
    parser.add_argument("--image", metavar="IMAGE", default=None,
                        help="boot the base image from an AOT warm image "
                        "built by 'python -m repro aot' (overrides "
                        "--prelude)")
    parser.add_argument("--max-concurrent", type=int, default=4)
    parser.add_argument("--queue-limit", type=int, default=32)
    parser.add_argument("--deadline", type=float, default=1.0,
                        help="per-request deadline budget, seconds")
    parser.add_argument("--dump-stats", metavar="PATH", default=None,
                        help="write the server stats dump here on exit")
    parser.add_argument("--flight-dir", metavar="DIR", default=None,
                        help="write flight-recorder snapshots (Chrome-trace "
                        "JSON) into this directory on exit")
    parser.add_argument("--loadgen", action="store_true",
                        help="run the load generator in-process and exit")
    parser.add_argument("--chaos", action="store_true",
                        help="run the chaos harness in-process and exit")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=25,
                        help="requests per client (loadgen/chaos)")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def config_from_args(args: argparse.Namespace) -> ServerConfig:
    from repro.server.admission import RequestBudget

    prelude: tuple = ()
    if args.prelude:
        with open(args.prelude, "r", encoding="utf-8") as handle:
            prelude = tuple(
                line.strip() for line in handle
                if line.strip() and not line.strip().startswith("#")
            )
    config = ServerConfig(
        prelude=prelude,
        image_path=args.image,
        max_concurrent=args.max_concurrent,
        queue_limit=args.queue_limit,
    )
    config.budget = RequestBudget(deadline_seconds=args.deadline)
    return config


def _bad_request(message: str) -> dict:
    return {"ok": False, "error": {"kind": "BadRequest", "message": message}}


def _shape_error(request) -> Optional[str]:
    """Why ``request`` is not a request, or ``None`` if it is one."""
    if not isinstance(request, dict):
        return f"a request is a JSON object, not {type(request).__name__}"
    for key in ("op", "session", "tenant", "trace_id"):
        value = request.get(key)
        if value is not None and not isinstance(value, str):
            return f"{key!r} must be a string"
    return None


def respond(engine: EngineServer, text: str, default_session: str) -> dict:
    """The reply to one request line; never raises."""
    try:
        request = json.loads(text)
    except (ValueError, RecursionError) as error:
        return _bad_request(str(error) or type(error).__name__)
    problem = _shape_error(request)
    if problem is not None:
        return _bad_request(problem)
    session = request.get("session")
    if session is None:
        session = default_session
    op = request.get("op", "eval")
    if op == "eval":
        return engine.submit(
            str(request.get("expr", "")), session_id=session,
            tenant=request.get("tenant"), trace_id=request.get("trace_id"),
        ).to_dict()
    if op == "ping":
        return {"ok": True, "result": "pong"}
    if op == "stats":
        return {"ok": True, "stats": engine.stats()}
    if op == "abort":
        return {"ok": engine.abort_session(session)}
    if op == "metrics":
        return {"ok": True, "metrics": engine.metrics_dict()}
    if op == "events":
        try:
            limit = int(request.get("limit", 50))
        except (TypeError, ValueError):
            limit = 50
        return {"ok": True, "events": engine.recent_events(limit)}
    if op == "trace":
        request_id = str(request.get("request_id")
                         or request.get("request", ""))
        timeline = engine.timeline(request_id)
        return {"ok": bool(timeline), "request": request_id,
                "timeline": timeline}
    return _bad_request(f"unknown op {op!r}")


class _Connection(socketserver.StreamRequestHandler):
    """One client connection, served start to end on its own thread."""

    disable_nagle_algorithm = True  # TCP_NODELAY on every accepted socket

    def handle(self) -> None:
        engine = self.server.engine
        default_session = f"conn{next(_connection_ids)}"
        read, write = self.rfile.readline, self.wfile.write
        try:
            while True:
                line = read(MAX_LINE_BYTES + 1)
                if not line:
                    return
                if len(line) > MAX_LINE_BYTES and not line.endswith(b"\n"):
                    reply = _bad_request(
                        f"request line longer than {MAX_LINE_BYTES} bytes"
                    )
                    write(json.dumps(reply).encode("utf-8") + b"\n")
                    return
                text = line.decode("utf-8", errors="replace").strip()
                if text:
                    reply = respond(engine, text, default_session)
                    write(json.dumps(reply).encode("utf-8") + b"\n")
        except OSError:
            pass  # the client hung up: close quietly


class WireServer(socketserver.ThreadingTCPServer):
    """The TCP front end of one :class:`EngineServer`: one daemon thread
    per connection, each running its requests to completion itself."""

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 100

    def __init__(self, engine: EngineServer, address: tuple):
        self.engine = engine
        super().__init__(address, _Connection)


def serve(config: ServerConfig, host: str, port: int,
          dump_stats: Optional[str] = None,
          flight_dir: Optional[str] = None) -> None:
    engine = EngineServer(config=config)
    wire = WireServer(engine, (host, port))
    address = wire.server_address
    print(f"repro engine server listening on {address[0]}:{address[1]} "
          f"({len(engine.base_image)} base definitions)", flush=True)
    try:
        wire.serve_forever()
    finally:
        wire.server_close()
        if dump_stats:
            engine.dump_stats(dump_stats)
        if flight_dir and engine.flight is not None:
            engine.flight.write_snapshots(flight_dir)
        engine.close()


def _print_report(title: str, report: dict) -> None:
    print(title)
    width = max(len(key) for key in report)
    for key, value in report.items():
        if isinstance(value, float):
            value = f"{value:.6g}"
        print(f"  {key:<{width}}  {value}")


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    if args.loadgen:
        spec = LoadSpec(clients=args.clients,
                        requests_per_client=args.requests, seed=args.seed)
        report, stats = run_load(config=config, spec=spec,
                                 flight_dir=args.flight_dir)
        _print_report("load generator report:", report.to_dict())
        if args.dump_stats:
            _write_stats(args.dump_stats, stats)
        return 0
    if args.chaos:
        spec = ChaosSpec(requests_per_client=args.requests, seed=args.seed)
        report, stats = run_chaos(config=config, spec=spec,
                                  flight_dir=args.flight_dir)
        _print_report("chaos report:", report.to_dict())
        if args.dump_stats:
            _write_stats(args.dump_stats, stats)
        crashed = [sid for sid, info in stats["sessions"].items()
                   if info["state"] == "crashed"]
        return 1 if crashed or "Crash" in report.failure_kinds else 0
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        serve(config, args.host, args.port, dump_stats=args.dump_stats,
              flight_dir=args.flight_dir)
    except KeyboardInterrupt:
        print("server stopped", file=sys.stderr)
    return 0


def _write_stats(path: str, stats: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(stats, handle, indent=2)
        handle.write("\n")
    print(f"stats dump written to {path}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
