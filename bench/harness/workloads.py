"""The five workloads.

A workload object is built once per process (that is its set-up: whatever
a user pays once), then ``run_pass`` runs its fixed op list once and
returns one ``Op`` per op.  Only the calls into ``repro`` are timed;
checking a result against its reference happens after the clock stops.
Every call into a layer's public function is wrapped in a recorder span,
which costs nothing while the recorder is off.
"""

from __future__ import annotations

import json
import os
import random
import resource
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass

from harness.measure import CpuProbe
from harness.spans import Recorder
from programs import kernels, probes, reference, scripts, traffic


@dataclass
class Context:
    seed: int
    scale: float          # 1.0; 0.05 under --quick
    recorder: Recorder
    cpu: CpuProbe         # run_op samples the calibration kernel between ops
    cache_dir: str        # this process's own artifact store


@dataclass
class Op:
    kind: str
    seconds: float
    ok: bool


def run_op(ctx: Context, kind: str, timed, check) -> Op:
    """One op: ``timed()`` is on the clock, ``check(its value)`` is not.
    An op that raises, in either, is a failed op."""
    ctx.recorder.op_id += 1
    ctx.cpu.sample_if_due()
    start = time.perf_counter()
    try:
        value = timed()
        seconds = time.perf_counter() - start
        ok = check(value)
    except Exception:
        seconds, ok = time.perf_counter() - start, False
    return Op(kind, seconds, ok)


class Workload:
    """Interface of a workload."""

    name = ""

    def run_pass(self) -> list[Op]:
        raise NotImplementedError

    def pass_seconds(self, ops: list[Op]) -> float:
        """Seconds one pass took: the ops run one after another."""
        return sum(op.seconds for op in ops)

    def counts(self) -> dict:
        """Counts that must repeat exactly from run to run."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


# -- kernels_hot -------------------------------------------------------------


class KernelsHot(Workload):
    """The eight kernels, compiled once, called on paper-shaped inputs."""

    name = "kernels_hot"

    def __init__(self, ctx: Context):
        from repro import FunctionCompile

        self.ctx, self.rec = ctx, ctx.recorder
        self.compiled = {
            name: FunctionCompile(kernels.SOURCES[name],
                                  **kernels.compile_options(name))
            for name in kernels.NAMES
        }
        self.inputs = {name: kernels.make_inputs(name, ctx.seed, ctx.scale)
                       for name in kernels.NAMES}
        self.expected = {name: reference.expected(name, self.inputs[name])
                         for name in kernels.NAMES}

    def run_pass(self) -> list[Op]:
        def call(name):
            with self.rec.span(f"kernel:{name}", "bench"):
                with self.rec.span("CompiledCodeFunction.__call__", "runtime"):
                    return kernels.call(name, self.compiled[name],
                                        self.inputs[name])

        return [
            run_op(self.ctx, name, lambda: call(name),
                   lambda value: reference.agrees(
                       name, value, self.expected[name], self.inputs[name]))
            for name in kernels.NAMES
        ]

    def counts(self) -> dict:
        return {"ops_per_pass": len(kernels.NAMES)}


# -- compile_cold / compile_warm ---------------------------------------------


def compile_programs(seed: int) -> list[dict]:
    """The fifteen programs the compile workloads build — the eight
    kernels and the seven probes — each with a tiny input and the value
    the compiled artifact must return on it."""
    programs = []
    for name in kernels.NAMES:
        args = kernels.make_inputs(name, seed, scale=0.002)
        programs.append({
            "name": name, "source": kernels.SOURCES[name],
            "options": kernels.compile_options(name), "args": args,
            "call": lambda fn, a, n=name: kernels.call(n, fn, a),
            "agrees": lambda v, a, e, n=name: reference.agrees(n, v, e, a),
            "expected": reference.expected(name, args),
        })
    for name in probes.NAMES:
        programs.append({
            "name": f"probe-{name}", "source": probes.SOURCES[name],
            "options": {}, "args": probes.argument(name, 16),
            "call": lambda fn, a: fn(*a),
            "agrees": lambda v, a, e: reference.plain(v) == e,
            "expected": probes.expected(name, 16),
        })
    return programs


class CompilePrograms(Workload):
    """``FunctionCompile`` from source text under the shipped defaults.
    Cold: the store is emptied before each pass, so every op is a miss,
    the whole pipeline, and a put.  Warm: the store was filled in set-up,
    so every cacheable program is a hit."""

    def __init__(self, ctx: Context, warm: bool):
        from repro.artifacts import get_store

        self.name = "compile_warm" if warm else "compile_cold"
        self.warm = warm
        self.ctx, self.rec = ctx, ctx.recorder
        self.store = get_store()
        self.programs = compile_programs(ctx.seed)
        if warm:
            self.store.clear()
            self.run_pass()

    def run_pass(self) -> list[Op]:
        from repro import FunctionCompile, parse

        if not self.warm:
            with self.rec.span("store.clear", "artifacts"):
                self.store.clear()
        def compile_(program):
            with self.rec.span(f"compile:{program['name']}", "bench"):
                with self.rec.span("parse", "mexpr"):
                    tree = parse(program["source"])
                with self.rec.span("FunctionCompile", "compiler"):
                    return FunctionCompile(tree, **program["options"])

        def check(program, function):
            value = program["call"](function, program["args"])
            return program["agrees"](value, program["args"],
                                     program["expected"])

        return [
            run_op(self.ctx, program["name"], lambda: compile_(program),
                   lambda function: check(program, function))
            for program in self.programs
        ]

    def counts(self) -> dict:
        return {"ops_per_pass": len(self.programs)}


# -- interp_tierup -----------------------------------------------------------


class InterpTierup(Workload):
    """One op = one fresh engine session running one script from cold."""

    name = "interp_tierup"

    def __init__(self, ctx: Context):
        from repro.artifacts import get_store

        self.ctx, self.rec = ctx, ctx.recorder
        self.store = get_store()
        committed = scripts.load_expected()
        self.scripts = []
        for name in scripts.NAMES:
            lines, expected = scripts.build(name, ctx.seed)
            self.scripts.append({
                "name": name, "lines": lines,
                "expected": committed[name] if expected is None else expected,
            })
        random.Random(ctx.seed).shuffle(self.scripts)
        self.promotions = {"template": 0, "compiled": 0, "bytecode": 0}

    def run_pass(self) -> list[Op]:
        from repro.compiler import install_engine_support
        from repro.engine import Evaluator
        from repro.mexpr import full_form

        self.promotions = dict.fromkeys(self.promotions, 0)

        def run_script(script):
            with self.rec.span(f"session:{script['name']}", "bench"):
                with self.rec.span("Evaluator+install_engine_support",
                                   "engine"):
                    session = Evaluator()
                    install_engine_support(session)
                with self.rec.span("Evaluator.run", "engine"):
                    for line in script["lines"]:
                        value = session.run(line)
            return session, value

        def check(script, session, value):
            for event in session.hotspot.events:
                if event.action == "promoted":
                    self.promotions[event.tier] += 1
            return scripts.matches(full_form(value), script["expected"])

        ops = []
        for script in self.scripts:
            self.store.clear()
            ops.append(run_op(self.ctx, script["name"],
                              lambda: run_script(script),
                              lambda result: check(script, *result)))
        return ops

    def counts(self) -> dict:
        return {"ops_per_pass": len(self.scripts),
                "promotions_template": self.promotions["template"],
                "promotions_full": self.promotions["compiled"],
                "landing_bytecode": self.promotions["bytecode"]}


# -- server_mix --------------------------------------------------------------


def share_one_cpu(child_pid: int) -> None:
    """Keep this process and the server child on one CPU.  The server is
    GIL-bound and each client waits for its reply, so the two processes
    take turns whichever CPUs they have; left to the scheduler they land
    on different vCPUs and every request pays two cross-CPU wake-ups,
    which on this box made 400 requests a quarter slower (0.36 s against
    0.29 s) and their p99 twice as unsteady.  The pinned shape is what
    ``server_mix`` measures; BENCHMARK.json says so."""
    try:
        cpu = {max(os.sched_getaffinity(0))}
        os.sched_setaffinity(0, cpu)
        os.sched_setaffinity(child_pid, cpu)
    except (AttributeError, OSError):
        pass  # not Linux, or not allowed: run unpinned


class ServerProcess:
    """A real ``python -m repro serve`` child with its own fresh store."""

    def __init__(self, cache_dir: str, max_concurrent: int = 2):
        env = dict(os.environ, REPRO_ARTIFACT_CACHE=cache_dir)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--max-concurrent", str(max_concurrent)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )  # stderr carries only the shutdown notice
        share_one_cpu(self.process.pid)
        banner = self.process.stdout.readline()
        # "repro engine server listening on 127.0.0.1:PORT (...)"
        try:
            address = banner.split(" listening on ")[1].split()[0]
            host, port = address.rsplit(":", 1)
            self.address = (host, int(port))
        except (IndexError, ValueError):
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")

    def connect(self) -> "Connection":
        return Connection(self.address)

    def stop(self) -> float:
        """Stop the child, wait for it, and return its peak RSS in MB."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return children.ru_maxrss / 1024.0


class Connection:
    """One closed-loop client: send a line, wait for the reply."""

    def __init__(self, address):
        self.socket = socket.create_connection(address, timeout=30)
        self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stream = self.socket.makefile("rwb")

    def send(self, line: str) -> None:
        self.stream.write(line.encode("utf-8") + b"\n")
        self.stream.flush()

    def receive(self) -> dict:
        reply = self.stream.readline()
        if not reply:
            raise ConnectionError("server closed the connection")
        return json.loads(reply)

    def request(self, line: str) -> dict:
        self.send(line)
        return self.receive()

    def close(self) -> None:
        self.stream.close()
        self.socket.close()


class ServerMix(Workload):
    """Two closed-loop connections against a two-worker server, one session
    each; a pass is ``per_connection`` requests on each.  Two requests are
    in flight at any time, so admission and the session locks are taken
    concurrently, on the one CPU the server shares with this client."""

    name = "server_mix"
    connections = 2
    per_connection = 100
    warmup_requests = 500

    def __init__(self, ctx: Context):
        self.ctx, self.rec = ctx, ctx.recorder
        self.seed = ctx.seed
        self.per_connection = max(50, int(self.per_connection * ctx.scale))
        self.pass_index = 0
        self._pass_seconds = 0.0
        self._rss_mb = None
        self.server = ServerProcess(os.path.join(ctx.cache_dir, "server"))
        try:
            self.clients = [self.server.connect()
                            for _ in range(self.connections)]
            warm = max(20, int(self.warmup_requests * ctx.scale))
            for index, client in enumerate(self.clients):
                session = f"c{index}"
                requests = traffic.prelude(session) + traffic.make_pass(
                    f"warm{ctx.seed}", index,
                    warm // self.connections, session)
                for kind, line, expected in requests:
                    reply = client.request(line)
                    if not traffic.response_ok(kind, reply, expected):
                        raise RuntimeError(f"warm-up failed: {line} -> {reply}")
        except BaseException:
            self.close()
            raise

    def _drive(self, plans: list) -> list[list]:
        """Closed loop on every connection from one thread: each connection
        has one request in flight, and its next one is sent when the reply
        arrives.  One client thread keeps the client's own scheduling out
        of the latencies."""
        clock = time.perf_counter
        results: list[list] = [[] for _ in plans]
        pending = [iter(plan) for plan in plans]
        in_flight: dict[int, tuple] = {}
        selector = selectors.DefaultSelector()

        def send(index: int) -> None:
            request = next(pending[index], None)
            if request is None:
                selector.unregister(self.clients[index].socket)
                return
            in_flight[index] = (request, clock())
            self.clients[index].send(request[1])

        for index, client in enumerate(self.clients):
            selector.register(client.socket, selectors.EVENT_READ, index)
            send(index)
        while selector.get_map():
            for key, _ in selector.select():
                index = key.data
                (kind, _, expected), began = in_flight[index]
                try:
                    reply = self.clients[index].receive()
                except (OSError, ValueError) as error:
                    reply = {"ok": None, "transport_error": str(error)}
                results[index].append((kind, began, clock(), reply, expected))
                send(index)
        selector.close()
        return results

    def run_pass(self) -> list[Op]:
        self.pass_index += 1
        plans = [
            traffic.make_pass(f"{self.seed}:{self.pass_index}", index,
                              self.per_connection, f"c{index}")
            for index in range(self.connections)
        ]
        start = time.perf_counter()
        results = self._drive(plans)
        self._pass_seconds = time.perf_counter() - start
        ops = []
        for index, connection_results in enumerate(results):
            for kind, began, ended, reply, expected in connection_results:
                ops.append(Op(kind, ended - began,
                              traffic.response_ok(kind, reply, expected)))
                if self.rec.enabled:
                    self._record(index, kind, began, ended, reply)
        return ops

    def _record(self, index, kind, began, ended, reply) -> None:
        """The client's round trip, and inside it the time the server says
        it spent in ``submit`` (its reply's ``latency_seconds``)."""
        self.rec.op_id += 1
        parent = self.rec.add(f"request:{kind}", "bench", began, ended,
                              tid=index + 1)
        inside = reply.get("latency_seconds")
        if inside is not None:
            slack = max(0.0, (ended - began) - inside) / 2.0
            self.rec.add("EngineServer.submit", "server", began + slack,
                         began + slack + inside, parent=parent,
                         tid=index + 1)

    def pass_seconds(self, ops: list[Op]) -> float:
        """Both connections run at once: a pass takes the wall time until
        the last of them has its last reply."""
        return self._pass_seconds

    def counts(self) -> dict:
        return {"ops_per_pass": self.connections * sum(
            share * self.per_connection // 1000
            for share in traffic.MIX.values())}

    def peak_rss_mb(self) -> float:
        """Of the process under test: the server child, once it exited."""
        self.close()
        return self._rss_mb

    def close(self) -> None:
        for client in getattr(self, "clients", []):
            try:
                client.close()
            except OSError:
                pass
        self.clients = []
        if self._rss_mb is None:
            self._rss_mb = self.server.stop()


NAMES = ("kernels_hot", "compile_cold", "compile_warm", "interp_tierup",
         "server_mix")


def build(name: str, ctx: Context) -> Workload:
    if name == "kernels_hot":
        return KernelsHot(ctx)
    if name == "compile_cold":
        return CompilePrograms(ctx, warm=False)
    if name == "compile_warm":
        return CompilePrograms(ctx, warm=True)
    if name == "interp_tierup":
        return InterpTierup(ctx)
    if name == "server_mix":
        return ServerMix(ctx)
    raise KeyError(name)
