"""Per-layer probes: what the traced run measures besides the workload.

Every probe times calls into one layer's public functions, from outside;
a layer is a ``repro`` module.  Where a layer cannot be called alone, its
cost is the difference between two arms that differ only in that layer:
a pipeline stage is ``CompileToIR`` with one more stage enabled, a runtime
check is the default program minus the same program compiled with the
check's public option off.  Counts (IR instructions, facts, promotions)
repeat exactly; ``--selfcheck`` fails when they do not.

``UNITS`` is the one table of per-layer metric names and units;
``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import gc
import os
from contextlib import contextmanager
from statistics import geometric_mean, median

from harness.measure import best_seconds, per_item_seconds, timed
from harness.workloads import ServerProcess, compile_programs
from programs import kernels, probes, reference, scripts, traffic

PASSES = ("lower", "infer", "dataflow", "resolve", "macro-expansion",
          "checkpoint-coalescing", "cse", "constant-propagation")

UNITS = {
    "mexpr.parse_ms": "ms", "mexpr.parse_nodes_per_s": "1/s",
    "mexpr.nodes": "count",
    "compiler.macros_ms": "ms", "compiler.lower_infer_ms": "ms",
    "compiler.optimize_ms": "ms", "analyze.dataflow_ms": "ms",
    "compiler.codegen_ms": "ms", "compiler.function_compile_ms": "ms",
    **{f"compiler.pass.{name}.ms": "ms" for name in PASSES},
    "compiler.pass_calls": "count", "compiler.ir_instructions": "count",
    "compiler.source_bytes": "bytes", "analyze.facts": "count",
    "analyze.checks_elided": "count",
    "runtime.call_floor_us": "us", "runtime.unbox_ns_per_elem": "ns",
    "runtime.rebox_ns_per_elem": "ns", "runtime.loop_iter_ns": "ns",
    "runtime.abort_check_ns": "ns", "runtime.part_read_ns": "ns",
    "runtime.int_mul_ns": "ns", "runtime.libcall_ns": "ns",
    "runtime.refcount_ns": "ns",
    **{f"kernel.{name}.{column}": unit for name in kernels.NAMES
       for column, unit in (("new_ms", "ms"), ("ref_ms", "ms"),
                            ("ref_ratio", "ratio"))},
    "kernels.ref_ratio_geomean": "ratio", "kernels.within_2x": "count",
    "template_jit.stitch_us": "us", "template_jit.run_ms": "ms",
    "template_jit.source_bytes": "bytes",
    "bytecode.compile_ms": "ms", "bytecode.vm_run_ms": "ms",
    "engine.session_boot_ms": "ms", "engine.interp_ms": "ms",
    "engine.dispatch_1k_us": "us", "engine.orderless_ms": "ms",
    "engine.softfail_ms": "ms",
    "runtime.hotspot.tierup_cold_ms": "ms",
    "runtime.hotspot.promoted_call_us": "us",
    "runtime.hotspot.promotions_template": "count",
    "runtime.hotspot.promotions_full": "count",
    "runtime.hotspot.landing_bytecode": "count",
    "artifacts.key_us": "us", "artifacts.put_ms": "ms",
    "artifacts.hit_ms": "ms", "artifacts.hit_ratio": "ratio",
    "artifacts.store_bytes": "bytes", "artifacts.uncached_programs": "count",
    "server.ping_rtt_us": "us", "server.wire_overhead_us": "us",
    "server.submit_p50_ms": "ms",
    **{f"server.req.{kind}.p50_ms": "ms" for kind in traffic.KINDS},
    "server.shed": "count", "server.retries": "count",
    "server.promotions": "count",
    "bench.trace_overhead": "ratio", "bench.harness_self_frac": "ratio",
    "bench.fail_frac": "ratio", "bench.cpu_noise": "ratio",
}

#: the counts among them: two runs of the same code must agree exactly.
#: ``artifacts.store_bytes`` is left out: entries hold generated source,
#: whose variable numbering depends on what was compiled before.
EXACT = tuple(name for name, unit in UNITS.items()
              if unit in ("count", "bytes") or name == "artifacts.hit_ratio"
              if name != "artifacts.store_bytes")


@contextmanager
def store_off():
    """``FunctionCompile`` with the artifact store disabled, through the
    public ``REPRO_ARTIFACT_CACHE`` switch (read on every compile)."""
    saved = os.environ.get("REPRO_ARTIFACT_CACHE")
    os.environ["REPRO_ARTIFACT_CACHE"] = "off"
    try:
        yield
    finally:
        os.environ["REPRO_ARTIFACT_CACHE"] = saved


def _fresh_session(hotspot: bool = True):
    from repro.compiler import install_engine_support
    from repro.engine import Evaluator
    from repro.runtime.hotspot import disable_hotspot

    session = Evaluator()
    install_engine_support(session)
    if not hotspot:
        disable_hotspot(session)
    return session


def _run_script(lines, hotspot: bool = True):
    session = _fresh_session(hotspot)
    for line in lines:
        session.run(line)
    return session


# -- mexpr -------------------------------------------------------------------


def mexpr(programs) -> dict:
    from repro import parse

    sources = [p["source"] for p in programs]
    seconds = best_seconds(lambda: [parse(s) for s in sources], repeats=5)
    nodes = sum(1 for s in sources for _ in parse(s).subexpressions())
    return {"mexpr.parse_ms": seconds * 1e3,
            "mexpr.parse_nodes_per_s": nodes / seconds,
            "mexpr.nodes": nodes}


# -- compiler, analyze: the staged pipeline ----------------------------------


def compiler(programs, repeats: int) -> dict:
    """Each stage is the public entry point that stops one stage later;
    a stage's cost is the difference to the one before, so the six
    differences add up to the measured ``FunctionCompile`` time."""
    from repro import CompileToAST, CompileToIR, FunctionCompile, parse

    def constants(p):
        return {k: v for k, v in p["options"].items() if k == "constants"}

    stages = {
        "parse": lambda p: parse(p["source"]),
        "ast": lambda p: CompileToAST(p["source"]),
        "lowered": lambda p: CompileToIR(p["source"], OptimizationLevel=None,
                                         **constants(p)),
        "optimized": lambda p: CompileToIR(p["source"], Dataflow=False,
                                           **constants(p)),
        "analyzed": lambda p: CompileToIR(p["source"], **constants(p)),
        "compiled": lambda p: FunctionCompile(p["source"], **p["options"]),
    }
    # the stages of one program are timed back to back, so a slow phase of
    # the machine hits all of them alike and their differences stay sound
    total = dict.fromkeys(stages, 0.0)
    with store_off():
        for p in programs:
            best = dict.fromkeys(stages, float("inf"))
            for _ in range(repeats):
                for stage, run in stages.items():
                    best[stage] = min(best[stage], timed(run, p)[0])
            for stage in stages:
                total[stage] += best[stage]

    pass_seconds: dict[str, float] = {}
    pass_calls = instructions = facts = elided = 0

    def log(name: str, seconds: float) -> None:
        nonlocal pass_calls
        base = name.split(":")[0]
        pass_seconds[base] = pass_seconds.get(base, 0.0) + seconds
        pass_calls += 1

    for p in programs:
        stage = CompileToIR(p["source"], PassLogger=log, **constants(p))
        program = stage["program"]
        instructions += sum(1 for function in program.functions.values()
                            for _ in function.instructions())
        fact_map = program.metadata.get("dataflow")
        if fact_map is not None:
            facts += sum(sum(counts.values())
                         for counts in fact_map.summary().values())
        elided += sum(entry.get("elided", 0)
                      for entry in stage["passReport"].values())

    ms = 1e3
    out = {
        "compiler.macros_ms": (total["ast"] - total["parse"]) * ms,
        "compiler.lower_infer_ms": (total["lowered"] - total["ast"]) * ms,
        "compiler.optimize_ms": (total["optimized"] - total["lowered"]) * ms,
        "analyze.dataflow_ms": (total["analyzed"] - total["optimized"]) * ms,
        "compiler.codegen_ms": (total["compiled"] - total["analyzed"]) * ms,
        "compiler.function_compile_ms": total["compiled"] * ms,
        "compiler.pass_calls": pass_calls,
        "compiler.ir_instructions": instructions,
        "compiler.source_bytes": sum(len(p["source"].encode("utf-8"))
                                     for p in programs),
        "analyze.facts": facts,
        "analyze.checks_elided": elided,
    }
    for name in PASSES:
        out[f"compiler.pass.{name}.ms"] = pass_seconds.get(name, 0.0) * ms
    return out


# -- runtime: generated code, boundary, runtime library ----------------------


def runtime(scale: float) -> dict:
    from repro import FunctionCompile, parse

    def sized(name, **options):
        function = FunctionCompile(probes.SOURCES[name], **options)

        def make_call(n):
            args = probes.argument(name, n)
            return lambda: function(*args)
        return make_call

    def rebox_through_engine(n):
        expression = parse(f"Length[rebox[{n}]]")
        return lambda: session.evaluate(expression)

    small = 1_000
    large = max(int(40_000 * scale), 4 * small)
    with store_off():
        identity = FunctionCompile(probes.SOURCES["identity"])
        # a tensor result is reboxed where the engine takes it back: the
        # probe runs hosted in a session, which converts it to an expression
        session = _run_script(
            ["rebox = FunctionCompile[" + probes.SOURCES["rebox"] + "]"],
            hotspot=False)
        slope = {
            name: per_item_seconds(sized(name), small, large)
            for name in ("unbox", "loop", "part", "mul", "libcall")
        }
        slope["rebox"] = per_item_seconds(rebox_through_engine, small, large)
        loop_no_abort = per_item_seconds(
            sized("loop", AbortHandling=False), small, large)
        libcall_no_refcount = per_item_seconds(
            sized("libcall", MemoryManagement=False), small, large)
    calls = max(int(20_000 * scale), 2_000)

    def call_many():
        for _ in range(calls):
            identity(7)

    ns = 1e9
    return {
        "runtime.call_floor_us": best_seconds(call_many) / calls * 1e6,
        "runtime.unbox_ns_per_elem": slope["unbox"] * ns,
        "runtime.rebox_ns_per_elem": slope["rebox"] * ns,
        "runtime.loop_iter_ns": slope["loop"] * ns,
        "runtime.abort_check_ns": (slope["loop"] - loop_no_abort) * ns,
        "runtime.part_read_ns": (slope["part"] - slope["loop"]) * ns,
        "runtime.int_mul_ns": (slope["mul"] - slope["loop"]) * ns,
        "runtime.libcall_ns": (slope["libcall"] - slope["loop"]) * ns,
        "runtime.refcount_ns": (slope["libcall"] - libcall_no_refcount) * ns,
    }


def kernel_rows(seed: int, scale: float, passes: int) -> dict:
    """Compiled kernel and hand-written reference on the same inputs, on
    interleaved passes; the ratio is against the vendored reference only."""
    from repro import FunctionCompile

    compiled = {name: FunctionCompile(kernels.SOURCES[name],
                                      **kernels.compile_options(name))
                for name in kernels.NAMES}
    inputs = {name: kernels.make_inputs(name, seed, scale)
              for name in kernels.NAMES}
    new = {name: [] for name in kernels.NAMES}
    ref = {name: [] for name in kernels.NAMES}
    for _ in range(passes):
        gc.collect()
        for name in kernels.NAMES:
            seconds, value = timed(kernels.call, name, compiled[name],
                                   inputs[name])
            new[name].append(seconds)
            seconds, expected = timed(kernels.call, name,
                                      reference.FUNCTIONS[name], inputs[name])
            ref[name].append(seconds)
            if not reference.agrees(name, value, expected, inputs[name]):
                raise AssertionError(f"kernel {name} disagrees with reference")
    out = {}
    ratios = []
    for name in kernels.NAMES:
        new_s, ref_s = min(new[name]), min(ref[name])
        ratios.append(new_s / ref_s)
        out[f"kernel.{name}.new_ms"] = new_s * 1e3
        out[f"kernel.{name}.ref_ms"] = ref_s * 1e3
        out[f"kernel.{name}.ref_ratio"] = new_s / ref_s
    out["kernels.ref_ratio_geomean"] = geometric_mean(ratios)
    out["kernels.within_2x"] = sum(1 for r in ratios if r <= 2.0)
    return out


# -- template_jit, bytecode --------------------------------------------------


def baseline_tiers(seed: int, scale: float) -> dict:
    """The two baseline compilers on the three kernels both accept, at
    1/50 of the kernel sizes (the VM is that much slower)."""
    from repro import parse
    from repro.bytecode import compile_function
    from repro.template_jit import compile_template_function

    small = scale / 50.0
    text = kernels.make_inputs("fnv1a", seed, small)[0]
    inputs = {
        "fnv1a": (list(text.encode("utf-8")),),
        "mandelbrot": kernels.make_inputs("mandelbrot", seed, small),
        "histogram": kernels.make_inputs("histogram", seed, small),
    }
    expected = {
        "fnv1a": reference.fnv1a(text),
        "mandelbrot": reference.expected("mandelbrot", inputs["mandelbrot"]),
        "histogram": reference.histogram(*inputs["histogram"]),
    }
    stitch = build = run_template = run_vm = 0.0
    source_bytes = 0
    for name, (specs_text, body_text) in probes.COMPILE_STYLE.items():
        specs, body = parse(specs_text), parse(body_text)
        stitch += best_seconds(compile_template_function, specs, body,
                                 repeats=5)
        with store_off():
            build += best_seconds(compile_function, specs, body)
        template = compile_template_function(specs, body)
        vm = compile_function(specs, body)
        source_bytes += len(template.source.encode("utf-8"))
        for function, label in ((template, "template"), (vm, "bytecode")):
            value = kernels.call(name, function, inputs[name])
            if reference.plain(value) != expected[name]:
                raise AssertionError(f"{label} tier wrong on {name}")
        run_template += best_seconds(kernels.call, name, template,
                                       inputs[name])
        run_vm += best_seconds(kernels.call, name, vm, inputs[name])
    count = len(probes.COMPILE_STYLE)
    return {
        "template_jit.stitch_us": stitch / count * 1e6,
        "template_jit.run_ms": run_template * 1e3,
        "template_jit.source_bytes": source_bytes,
        "bytecode.compile_ms": build / count * 1e3,
        "bytecode.vm_run_ms": run_vm * 1e3,
    }


# -- engine, runtime.hotspot -------------------------------------------------


def engine(seed: int) -> dict:
    from repro import parse
    from repro.artifacts import get_store

    store = get_store()
    built = {name: scripts.build(name, seed)[0] for name in scripts.NAMES}

    def interpreted():
        for name in scripts.INTERPRETED:
            _run_script(built[name], hotspot=False)

    table = _run_script(built["dispatch_1k"][:-1], hotspot=False)
    lookup = parse("table[617]")
    lookups = 1_000

    def dispatch():
        for _ in range(lookups):
            table.evaluate(lookup)

    orderless = _fresh_session(hotspot=False)
    terms = parse(built["orderless"][0])

    def soft_failure():
        """cfib[200] on a freshly compiled function: the overflow, the
        warning, and the interpreter's bignum re-evaluation (§2.2)."""
        session = _run_script(built["softfail"][:1])
        return timed(session.run, "cfib[200]")[0]

    def tier_up():
        store.clear()
        return timed(_run_script, built["fib_rec"])[0]

    promotions = {"template": 0, "compiled": 0, "bytecode": 0}
    for name in scripts.PROMOTING:
        store.clear()
        for event in _run_script(built[name]).hotspot.events:
            if event.action == "promoted":
                promotions[event.tier] += 1

    hot = _run_script(built["poly"])
    if hot.hotspot.promoted["poly"].tier_kind != "compiled":
        raise AssertionError("poly did not reach the compiled tier")
    call = parse("poly[7]")
    calls = 2_000

    def promoted():
        for _ in range(calls):
            hot.evaluate(call)

    return {
        "engine.session_boot_ms": best_seconds(_fresh_session,
                                                 repeats=5) * 1e3,
        "engine.interp_ms": best_seconds(interpreted, repeats=2) * 1e3,
        "engine.dispatch_1k_us": best_seconds(dispatch) / lookups * 1e6,
        "engine.orderless_ms": best_seconds(orderless.evaluate, terms,
                                              repeats=5) * 1e3,
        "engine.softfail_ms": min(soft_failure() for _ in range(3)) * 1e3,
        "runtime.hotspot.tierup_cold_ms":
            min(tier_up() for _ in range(3)) * 1e3,
        "runtime.hotspot.promoted_call_us":
            best_seconds(promoted) / calls * 1e6,
        "runtime.hotspot.promotions_template": promotions["template"],
        "runtime.hotspot.promotions_full": promotions["compiled"],
        "runtime.hotspot.landing_bytecode": promotions["bytecode"],
    }


# -- artifacts ---------------------------------------------------------------


def artifacts(programs) -> dict:
    from repro import FunctionCompile, parse
    from repro.artifacts import function_key, get_store
    from repro.compiler import CompilerOptions

    store = get_store()

    def compile_all(subset):
        for p in subset:
            FunctionCompile(p["source"], **p["options"])

    # a program is cached when compiling it twice produces a hit
    store.clear()
    cached = []
    for p in programs:
        compile_all([p])
        hits = store.stats["hits"]
        compile_all([p])
        if store.stats["hits"] > hits:
            cached.append(p)

    size = store.size_bytes()
    # entries are files named by their key (the documented store layout)
    digests = [name[:-len(".json")]
               for _, _, names in os.walk(os.path.join(store.root, "objects"))
               for name in names if name.endswith(".json")]
    entries = [(digest, store.get(digest)) for digest in digests]
    if len(entries) != len(cached) or any(e is None for _, e in entries):
        raise AssertionError("store does not hold one entry per program")

    def put_all():
        for digest, entry in entries:
            store.put(digest, entry)

    trees = [parse(p["source"]) for p in cached]
    options = CompilerOptions()

    def keys():
        for tree in trees:
            function_key(tree, options, backend="python")

    return {
        "artifacts.key_us": best_seconds(keys, repeats=5) / len(trees) * 1e6,
        "artifacts.put_ms": best_seconds(put_all, repeats=5) * 1e3,
        "artifacts.hit_ms": best_seconds(compile_all, cached,
                                           repeats=5) * 1e3,
        "artifacts.store_bytes": size,
        "artifacts.uncached_programs": len(programs) - len(cached),
    }


# -- server ------------------------------------------------------------------


def server(seed: int, scale: float, cache_dir: str) -> dict:
    """One closed-loop connection against a fresh server child, so the
    per-kind medians carry no queueing."""
    child = ServerProcess(os.path.join(cache_dir, "probe-server"))
    try:
        client = child.connect()
        pings = [timed(client.request, '{"op": "ping"}')[0]
                 for _ in range(max(int(400 * scale), 50))]
        session = "probe"
        for kind, line, expected in traffic.prelude(session):
            client.request(line)
        requests = traffic.make_pass(seed, 0, max(int(1000 * scale), 100),
                                     session)
        for kind, line, expected in requests[:100]:  # warm-up, tier-up
            client.request(line)
        round_trip = {kind: [] for kind in traffic.KINDS}
        inside, wire = [], []
        for kind, line, expected in requests:
            seconds, reply = timed(client.request, line)
            if not traffic.response_ok(kind, reply, expected):
                raise AssertionError(f"server answered {line} with {reply}")
            round_trip[kind].append(seconds)
            if "latency_seconds" in reply:
                inside.append(reply["latency_seconds"])
                wire.append(seconds - reply["latency_seconds"])
        counters = client.request('{"op": "metrics"}')["metrics"]["counters"]
        client.close()
    finally:
        child.stop()
    out = {
        "server.ping_rtt_us": median(pings) * 1e6,
        "server.wire_overhead_us": median(wire) * 1e6,
        "server.submit_p50_ms": median(inside) * 1e3,
        "server.shed": counters.get("server.shed", 0),
        "server.retries": counters.get("server.retries", 0),
        "server.promotions": sum(
            value for name, value in counters.items()
            if name.startswith("hotspot.promotions.")),
    }
    for kind, samples in round_trip.items():
        out[f"server.req.{kind}.p50_ms"] = median(samples) * 1e3
    return out


def measure_all(seed: int, scale: float, cache_dir: str) -> dict:
    """Every per-layer metric except those that come from the workload's
    own traced passes (``bench.*``, ``artifacts.hit_ratio``).  Per-layer
    times carry no bound; each is the fastest of a few repeats."""
    programs = compile_programs(seed)
    repeats = 3 if scale >= 1.0 else 1
    out = {}
    out.update(mexpr(programs))
    out.update(compiler(programs, repeats))
    out.update(runtime(scale))
    out.update(kernel_rows(seed, scale, passes=repeats))
    out.update(baseline_tiers(seed, scale))
    out.update(engine(seed))
    out.update(artifacts(programs))
    out.update(server(seed, scale, cache_dir))
    return out
