"""An interactive session in the style of the paper's Figure 1 notebook.

Run:  python -m repro [--stats [DUMP]] [--trace FILE] [--metrics [FILE]]
                      [-e EXPR]...
      python -m repro serve [--port N] [--image IMG] [--loadgen | --chaos]
                            [--dump-stats PATH] [--flight-dir DIR]
      python -m repro top [--host H] [--port N] [--watch] [--json]
      python -m repro aot [--prelude FILE] [--out IMG] [--boot IMG]

Each input gets an ``In[n]``/``Out[n]`` pair; ``FunctionCompile`` and
``Compile`` are available (F1), aborts are Ctrl-C (F3), and the session
state persists across inputs, exactly as §2.3's programming-environment
constraints require ("sessions cannot crash, code must be abortable").

Flags
-----

``-e EXPR`` (repeatable)
    Batch mode: evaluate each expression in order in one session and
    exit instead of starting the REPL.

``--trace FILE``
    Record structured events (evaluator spans, pipeline passes, tier
    transitions; see :mod:`repro.observe`) and write a Chrome-trace JSON
    file loadable in ``chrome://tracing`` / Perfetto.

``--metrics [FILE]``
    Dump the metrics registry (counters + histograms) as JSON at session
    end — to ``FILE``, or to stdout when no file is given.

``--stats [DUMP]``
    With no argument: print, at session end, each compiled function's
    :class:`~repro.runtime.guard.FallbackStats` (per-tier calls, soft
    failures, circuit-breaker tier), the artifact cache's hit / miss /
    store / unstorable counts, and the guarded-execution failure log.
    With a ``DUMP`` path (a stats file written by ``python -m repro serve
    --dump-stats``): render the server's per-session breaker and failure
    tables instead of starting a session.

Subcommands
-----------

``lint``
    Source-level static analysis (:mod:`repro.analyze.lint`): unbound
    symbols, arity mismatches, unreachable branches, and
    compiler-unsupported constructs annotated with their fallback tier.
    See ``python -m repro lint --help``.

``serve``
    The resilient multi-tenant engine server (:mod:`repro.server`):
    copy-on-write session isolation over a shared base image, admission
    control with load shedding, circuit breakers, and graceful
    degradation; ``--loadgen``/``--chaos`` drive it in-process.  See
    ``python -m repro serve --help`` and DESIGN.md §10.

``top``
    The live server overview (:mod:`repro.server.top`): one screen of
    request totals, latency quantiles (from the always-on flight
    recorder), tier mix, breaker board, cache hit rate, and degradation
    state, fetched over the serve protocol's ``stats``/``metrics`` ops.
    ``--watch`` redraws every ``--interval`` seconds.  See DESIGN.md §7.

``aot``
    Ahead-of-time warm images (:mod:`repro.artifacts.aot`): warm a
    prelude's hot definitions through the compiler, emit a self-contained
    image manifest, and boot servers from it with ``repro serve --image``
    — warm boots promote from the artifact cache with zero pipeline
    passes.  See ``python -m repro aot --help`` and DESIGN.md §11.
"""

from __future__ import annotations

import argparse
import sys
import threading

from repro.compiler import install_engine_support
from repro.engine import Evaluator
from repro.errors import ReproError
from repro.mexpr import full_form, parse
from repro.observe import trace as _trace


def _print_session_stats(session, out) -> None:
    """The ``--stats`` report: hot functions, fallback stats, artifact
    cache outcomes, failure log."""
    from repro.artifacts import get_store
    from repro.compiler.api import _ENGINE_TABLE_KEY, failure_records

    hotspot = getattr(session, "hotspot", None)
    if hotspot is not None and hotspot.counts:
        out.write("\n-- hot functions (profile-guided tier-up) --\n")
        out.write(
            f"{'function':<20} {'applications':>12} {'status':<20} "
            f"{'tier':<12} {'tier hits':>9}\n"
        )
        for name, count, status, tier, hits in hotspot.table():
            out.write(
                f"{name:<20} {count:>12} {status:<20} {tier:<12} {hits:>9}\n"
            )
        compile_times = hotspot.compile_time_table()
        if compile_times:
            out.write("compile time by tier:\n")
            for tier_kind, promotions, seconds in compile_times:
                out.write(
                    f"  {tier_kind:<10} {promotions:>3} promotion(s) "
                    f"{seconds * 1000:>10.2f} ms total\n"
                )
    out.write("\n-- guarded execution statistics --\n")
    compiled = session.extensions.get(_ENGINE_TABLE_KEY, {})
    bytecode = session.extensions.get("bytecode_compiled_functions", {})
    if not compiled and not bytecode:
        out.write("no compiled functions in this session\n")
    for handle, fn in compiled.items():
        out.write(
            f"CompiledCodeFunction[{handle}] <{fn.program.main}>: "
            f"{fn.stats().summary()}\n"
        )
    for handle, fn in bytecode.items():
        out.write(f"CompiledFunction[{handle}]: {fn.stats().summary()}\n")
    elided = {"int64": 0, "bounds": 0, "checkpoints": 0}
    for fn in compiled.values():
        program = getattr(fn, "program", None)
        if program is None:
            continue
        for function in program.functions.values():
            information = function.information
            elided["int64"] += information.get("OverflowChecksElided", 0)
            elided["bounds"] += information.get("IndexChecksElided", 0)
            elided["checkpoints"] += information.get(
                "CheckpointsCoalesced", 0
            )
    if any(elided.values()):
        out.write(
            f"checks elided: {elided['int64']} int64, "
            f"{elided['bounds']} bounds, "
            f"{elided['checkpoints']} checkpoints\n"
        )
    store = get_store()
    if store is not None:
        stats = store.stats
        out.write(
            f"artifact cache: {stats['hits']} hits, {stats['misses']} "
            f"misses, {stats['stores']} stores, {stats['unstorable']} "
            f"unstorable\n"
        )
    records = failure_records()
    if records:
        out.write(f"failure log ({len(records)} records):\n")
        for record in records:
            arrow = (
                f" [{record.transition[0].value} -> "
                f"{record.transition[1].value}]"
                if record.transition
                else ""
            )
            out.write(
                f"  #{record.sequence} {record.function} "
                f"{record.tier.value}: {record.kind}{arrow}\n"
            )


def _print_server_stats(path: str, out) -> int:
    """The ``--stats DUMP`` report: per-session breaker/failure tables
    rendered from a server stats dump (``repro serve --dump-stats``)."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            dump = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        out.write(f"cannot read stats dump {path!r}: {error}\n")
        return 1
    if dump.get("kind") != "repro-server-stats":
        out.write(f"{path!r} is not a repro server stats dump "
                  f"(kind={dump.get('kind')!r})\n")
        return 1

    totals = dump.get("requests", {})
    out.write(f"-- server summary (uptime "
              f"{dump.get('uptime_seconds', 0.0):.1f}s) --\n")
    out.write(
        f"requests {totals.get('requests', 0)}  ok {totals.get('ok', 0)}  "
        f"failed {totals.get('failed', 0)}  shed {totals.get('shed', 0)}  "
        f"retries {totals.get('retries', 0)}  "
        f"evicted {totals.get('evicted', 0)}\n"
    )
    pressure = dump.get("pressure", {})
    out.write(f"shed rate {dump.get('shed_rate', 0.0):.1%}  "
              f"pressure {pressure.get('level', 'NORMAL')}  "
              f"demotions {pressure.get('demotions', 0)}\n")

    sessions = dump.get("sessions", {})
    breakers = dump.get("breakers", {}).get("sessions", {})
    out.write("\n-- sessions --\n")
    out.write(
        f"{'session':<12} {'tenant':<10} {'state':<8} {'tier cap':<12} "
        f"{'requests':>8} {'ok':>6} {'soft':>5} {'shed':>5} "
        f"{'breaker':<9} {'opened':>6}\n"
    )
    for session_id in sorted(sessions):
        info = sessions[session_id]
        breaker = breakers.get(session_id, {})
        out.write(
            f"{session_id:<12} {str(info.get('tenant') or '-'):<10} "
            f"{info.get('state', '?'):<8} {info.get('tier_cap', '?'):<12} "
            f"{info.get('requests', 0):>8} {info.get('ok', 0):>6} "
            f"{info.get('soft_failures', 0):>5} "
            f"{info.get('rejected', 0):>5} "
            f"{breaker.get('state', '-'):<9} "
            f"{breaker.get('times_opened', 0):>6}\n"
        )

    tenants = dump.get("breakers", {}).get("tenants", {})
    if tenants:
        out.write("\n-- tenant breakers --\n")
        out.write(f"{'tenant':<12} {'state':<9} {'in window':>9} "
                  f"{'opened':>6}\n")
        for tenant_id in sorted(tenants):
            breaker = tenants[tenant_id]
            out.write(
                f"{tenant_id:<12} {breaker.get('state', '?'):<9} "
                f"{breaker.get('failures_in_window', 0):>9} "
                f"{breaker.get('times_opened', 0):>6}\n"
            )

    kinds_by_session = {
        session_id: info.get("failure_kinds") or {}
        for session_id, info in sessions.items()
        if info.get("failure_kinds")
    }
    if kinds_by_session:
        out.write("\n-- failure kinds --\n")
        for session_id in sorted(kinds_by_session):
            kinds = kinds_by_session[session_id]
            rendered = "  ".join(
                f"{kind}:{count}" for kind, count in sorted(kinds.items())
            )
            out.write(f"{session_id:<12} {rendered}\n")
    evicted = dump.get("evicted_sessions") or []
    if evicted:
        out.write(f"\nevicted sessions: {', '.join(evicted)}\n")
    return 0


def repl(input_stream=None, output=None, show_stats: bool = False) -> int:
    stdin = input_stream or sys.stdin
    out = output or sys.stdout
    session = Evaluator()
    install_engine_support(session)
    counter = 0
    out.write("repro — Wolfram Language compiler reproduction "
              "(Ctrl-D to quit, Ctrl-C aborts the running evaluation)\n")
    while True:
        counter += 1
        out.write(f"\nIn[{counter}]:= ")
        out.flush()
        line = stdin.readline()
        if not line:
            out.write("\n")
            if show_stats:
                _print_session_stats(session, out)
            return 0
        source = line.strip()
        if not source:
            counter -= 1
            continue
        try:
            expression = parse(source)
        except ReproError as error:
            out.write(f"Syntax: {error}\n")
            continue

        result_holder: dict = {}
        # Completion is signalled via an Event, not Thread.join(): a join
        # interrupted by Ctrl-C marks the thread stopped (CPython gh-89857),
        # so a follow-up join can return before the worker has produced
        # $Aborted — or while it is still running.
        done = threading.Event()

        def evaluate():
            try:
                result_holder["value"] = session.evaluate_protected(expression)
            except ReproError as error:  # §2.3: the session must not crash
                session.message(f"{type(error).__name__}: {error}")
            finally:
                done.set()

        worker = threading.Thread(target=evaluate, daemon=True)
        worker.start()
        try:
            while not done.wait(timeout=0.1):
                pass
        except KeyboardInterrupt:
            session.request_abort()  # F3: abort, keep the session alive
            done.wait()
        for message in session.messages:
            out.write(message + "\n")
        session.messages.clear()
        value = result_holder.get("value")
        if value is not None and full_form(value) != "Null":
            out.write(f"Out[{counter}]= {full_form(value)}\n")
    return 0


def batch(sources, show_stats: bool = False, output=None) -> int:
    """Evaluate each ``-e`` expression in order in one shared session."""
    out = output or sys.stdout
    session = Evaluator()
    install_engine_support(session)
    status = 0
    for counter, source in enumerate(sources, 1):
        try:
            expression = parse(source)
        except ReproError as error:
            out.write(f"Syntax: {error}\n")
            status = 1
            continue
        try:
            value = session.evaluate_protected(expression)
        except ReproError as error:  # §2.3: the session must not crash
            session.message(f"{type(error).__name__}: {error}")
            value = None
        for message in session.messages:
            out.write(message + "\n")
        session.messages.clear()
        if value is not None and full_form(value) != "Null":
            out.write(f"Out[{counter}]= {full_form(value)}\n")
    if show_stats:
        _print_session_stats(session, out)
    return status


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Wolfram Language compiler reproduction session",
    )
    parser.add_argument(
        "-e", "--evaluate", action="append", default=[], metavar="EXPR",
        dest="expressions",
        help="evaluate EXPR and exit (repeatable; shares one session)",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome-trace JSON of the session's structured events",
    )
    parser.add_argument(
        "--metrics", nargs="?", const="-", default=None, metavar="FILE",
        help="dump the metrics registry as JSON to FILE (stdout if "
             "omitted) at session end",
    )
    parser.add_argument(
        "--stats", nargs="?", const=True, default=False, metavar="DUMP",
        help="print guarded-execution and hotspot statistics at exit; "
             "with a DUMP path (from 'repro serve --dump-stats'), render "
             "the server's per-session breaker/failure tables instead",
    )
    return parser


def main(argv=None, input_stream=None, output=None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        from repro.analyze.lint import run_lint_cli

        return run_lint_cli(arguments[1:], output=output)
    if arguments and arguments[0] == "serve":
        from repro.server.cli import main as serve_main

        return serve_main(arguments[1:])
    if arguments and arguments[0] == "top":
        from repro.server.top import main as top_main

        return top_main(arguments[1:])
    if arguments and arguments[0] == "aot":
        from repro.artifacts.aot import main as aot_main

        return aot_main(arguments[1:], output=output)
    try:
        args = _parser().parse_args(arguments)
    except SystemExit as error:  # argparse exits; the CLI returns codes
        return int(error.code or 0)
    out = output or sys.stdout
    if isinstance(args.stats, str):
        return _print_server_stats(args.stats, out)
    tracer = None
    if args.trace or args.metrics:
        tracer = _trace.enable_tracing()
    try:
        if args.expressions:
            status = batch(args.expressions, show_stats=args.stats,
                           output=out)
        else:
            status = repl(input_stream, out, show_stats=args.stats)
    finally:
        if tracer is not None:
            _trace.disable_tracing()
            if args.trace:
                tracer.write_chrome_trace(args.trace)
                out.write(f"trace: {len(tracer.events)} events -> "
                          f"{args.trace}\n")
            if args.metrics == "-":
                out.write(tracer.metrics.to_json() + "\n")
            elif args.metrics:
                with open(args.metrics, "w", encoding="utf-8") as handle:
                    handle.write(tracer.metrics.to_json() + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
