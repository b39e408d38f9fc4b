"""The persistent artifact cache and the AOT warm-image mode.

Covers the tentpole's acceptance criteria end to end: canonical keys
(stable, hash-busting on every input), the on-disk store (hit/miss/evict,
LRU cap, corruption recovery, fault injection), the ``FunctionCompile``
and bytecode-tier wiring (a warm compile runs **zero pipeline passes**,
including from a different process), and the AOT round trip into a
server :class:`~repro.server.base.BaseImage`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.artifacts import (
    ArtifactStore,
    bytecode_key,
    function_key,
    get_store,
    runtime_fingerprint,
)
from repro.compiler import FunctionCompile
from repro.compiler.options import CompilerOptions
from repro.mexpr import parse
from repro.observe import with_tracing

FIB = ('Function[{Typed[n, "MachineInteger"]}, '
       'Module[{a = 0, b = 1, i = 1}, '
       'While[i <= n, Module[{t = a + b}, a = b; b = t]; i = i + 1]; a]]')


#: verify-each exists to *run* the pipeline, so ``FunctionCompile`` bypasses
#: the artifact cache under it; tests that assert a cache hit or store skip
caches_function_compiles = pytest.mark.skipif(
    CompilerOptions().verify_ir != "off",
    reason="REPRO_VERIFY_IR bypasses the FunctionCompile artifact cache",
)


def _pass_spans(tracer) -> list:
    return [e for e in tracer.events if e.name.startswith("pass:")]


# -- keys --------------------------------------------------------------------


class TestKeys:
    def test_same_source_same_key(self):
        options = CompilerOptions()
        first = function_key(parse(FIB), options, "python")
        second = function_key(parse(FIB), options, "python")
        assert first == second

    def test_source_change_busts_key(self):
        options = CompilerOptions()
        other = FIB.replace("a + b", "a + b + 0")
        assert function_key(parse(FIB), options, "python") != \
            function_key(parse(other), options, "python")

    def test_semantic_option_busts_key(self):
        base = function_key(parse(FIB), CompilerOptions(), "python")
        tuned = function_key(
            parse(FIB), CompilerOptions(optimization_level=0), "python"
        )
        assert base != tuned

    def test_backend_and_extra_bust_key(self):
        options = CompilerOptions()
        expr = parse(FIB)
        assert function_key(expr, options, "python") != \
            function_key(expr, options, "bytecode")
        assert function_key(expr, options, "python") != \
            function_key(expr, options, "python", extra={"compiler": 99})

    def test_bytecode_key_depends_on_body_and_versions(self):
        specs = parse('{{x, _Real}}')
        body, other = parse("x + 1.0"), parse("x + 2.0")
        assert bytecode_key(specs, body, (1, 2, 3)) != \
            bytecode_key(specs, other, (1, 2, 3))
        assert bytecode_key(specs, body, (1, 2, 3)) != \
            bytecode_key(specs, body, (1, 2, 4))

    def test_runtime_fingerprint_is_stable_hex(self):
        assert runtime_fingerprint() == runtime_fingerprint()
        assert len(runtime_fingerprint()) == 64


# -- the store ---------------------------------------------------------------


class TestStore:
    def test_miss_hit_evict_counters(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = "ab" * 32
        assert store.get(digest) is None
        assert store.put(digest, {"kind": "python", "x": 1}) is not None
        entry = store.get(digest)
        assert entry["x"] == 1 and entry["key"] == digest
        assert store.evict(digest) and store.get(digest) is None
        assert store.stats == {
            "hits": 1, "misses": 2, "stores": 1,
            "evictions": 1, "corrupt": 0,
        }

    def test_unserializable_entry_declined(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.put("cd" * 32, {"bad": object()}) is None
        assert store.stats["stores"] == 0

    def test_lru_cap_evicts_oldest_not_newest(self, tmp_path):
        store = ArtifactStore(str(tmp_path), max_bytes=400)
        digests = [f"{i:02x}" * 32 for i in range(8)]
        for digest in digests:
            store.put(digest, {"kind": "python", "pad": "x" * 50})
        assert store.size_bytes() <= 400
        assert store.stats["evictions"] > 0
        # the most recent store is exempt from its own sweep
        assert store.get(digests[-1]) is not None

    @pytest.mark.parametrize("corruption", [
        "truncate", "garbage", "bad-json", "wrong-schema", "key-mismatch",
    ])
    def test_corrupt_entry_is_miss_plus_evict(self, tmp_path, corruption):
        from repro.testing import corrupt_artifact

        store = ArtifactStore(str(tmp_path))
        digest = "ee" * 32
        store.put(digest, {"kind": "python", "x": 1})
        path = corrupt_artifact(store, digest, corruption)
        assert store.get(digest) is None  # never raises
        assert not os.path.exists(path)
        assert store.stats["corrupt"] == 1
        assert store.stats["evictions"] == 1

    def test_injected_load_fault_recovers(self, tmp_path):
        from repro.testing import Fault, inject_faults

        store = ArtifactStore(str(tmp_path))
        digest = "ff" * 32
        store.put(digest, {"kind": "python", "x": 1})
        with inject_faults(Fault("artifact.load", "corrupt")):
            assert store.get(digest) is None
        assert store.stats["corrupt"] == 1
        assert store.get(digest) is None  # the entry was evicted
        store.put(digest, {"kind": "python", "x": 1})
        assert store.get(digest)["x"] == 1  # recompile-and-store recovers

    def test_disabled_by_default_in_tests(self):
        # conftest pins REPRO_ARTIFACT_CACHE=off for hermeticity
        assert get_store() is None


# -- FunctionCompile wiring --------------------------------------------------


class TestFunctionCompileCache:
    @caches_function_compiles
    def test_second_compile_hits_with_zero_pipeline_passes(
        self, artifact_cache
    ):
        cold = FunctionCompile(FIB)
        assert artifact_cache.stats["stores"] == 1
        with with_tracing() as tracer:
            warm = FunctionCompile(FIB)
        assert artifact_cache.stats["hits"] == 1
        assert _pass_spans(tracer) == []  # the acceptance criterion
        assert [e.name for e in tracer.events
                if e.name == "artifact.cache"]
        assert cold(30) == warm(30) == 832040

    @caches_function_compiles
    def test_option_change_recompiles(self, artifact_cache):
        FunctionCompile(FIB)
        FunctionCompile(FIB, OptimizationLevel=0)
        assert artifact_cache.stats["hits"] == 0
        assert artifact_cache.stats["stores"] == 2

    def test_constants_bypass_cache(self, artifact_cache):
        source = ('Function[{Typed[n, "MachineInteger"]}, '
                  'Part[myTable, n]]')
        FunctionCompile(source, constants={"myTable": [10, 20, 30]})
        FunctionCompile(source, constants={"myTable": [10, 20, 30]})
        assert artifact_cache.stats["stores"] == 0
        assert artifact_cache.stats["hits"] == 0

    @caches_function_compiles
    def test_corrupted_entry_recompiles_transparently(self, artifact_cache):
        from repro.testing import corrupt_artifact

        FunctionCompile(FIB)
        objects = artifact_cache._entries()
        assert len(objects) == 1
        digest = os.path.basename(objects[0][0])[:-len(".json")]
        corrupt_artifact(artifact_cache, digest, "garbage")
        warm = FunctionCompile(FIB)  # corrupt -> miss -> fresh compile
        assert warm(10) == 55
        assert artifact_cache.stats["corrupt"] == 1
        assert artifact_cache.stats["stores"] == 2

    @caches_function_compiles
    def test_tensor_constant_pool_roundtrips(self, artifact_cache):
        source = ('Function[{Typed[v, TypeSpecifier["Tensor"["Real64", 1]]]},'
                  ' Total[v]]')
        cold = FunctionCompile(source)
        warm = FunctionCompile(source)
        assert artifact_cache.stats["hits"] == 1
        assert cold([1.0, 2.5]) == warm([1.0, 2.5]) == 3.5


# -- bytecode tier -----------------------------------------------------------


class TestBytecodeCache:
    def test_compile_function_hits(self, artifact_cache):
        from repro.bytecode import compile_function

        specs, body = parse('{{x, _Real}}'), parse("Sin[x] + x*x")
        cold = compile_function(specs, body)
        warm = compile_function(specs, body)
        assert artifact_cache.stats["hits"] == 1
        assert cold(0.5) == warm(0.5)

    def test_payload_roundtrips_interpreter_escape(self):
        from repro.bytecode import compile_function
        from repro.bytecode.compiled_function import CompiledFunction
        from repro.engine import Evaluator

        specs, body = parse('{{x, _Real}}'), parse("x + Gamma[x]")
        original = compile_function(specs, body, evaluator=Evaluator())
        payload = original.to_payload()
        json.dumps(payload)  # the wire form must be pure JSON
        restored = CompiledFunction.from_payload(payload)
        restored.evaluator = Evaluator()
        from repro.mexpr import full_form

        assert full_form(original(3.0)) == full_form(restored(3.0))


# -- cross-process -----------------------------------------------------------


_CHILD = r"""
import json, sys
from repro.compiler import FunctionCompile
from repro.artifacts import get_store
from repro.observe import with_tracing

source = sys.argv[1]
with with_tracing() as tracer:
    fn = FunctionCompile(source)
passes = [e.name for e in tracer.events if e.name.startswith("pass:")]
print(json.dumps({
    "result": fn(30),
    "passes": len(passes),
    "stats": get_store().stats,
}))
"""


class TestCrossProcess:
    @caches_function_compiles
    def test_second_process_hits_with_zero_passes(self, tmp_path):
        env = dict(os.environ)
        env["REPRO_ARTIFACT_CACHE"] = str(tmp_path / "cache")
        src_root = os.path.dirname(
            os.path.dirname(os.path.abspath(sys.modules["repro"].__file__))
        )
        env["PYTHONPATH"] = src_root

        def compile_in_child() -> dict:
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD, FIB],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        first = compile_in_child()
        assert first["stats"]["stores"] == 1 and first["passes"] > 0
        second = compile_in_child()
        assert second["stats"]["hits"] == 1
        assert second["passes"] == 0  # zero pipeline passes, new process
        assert first["result"] == second["result"] == 832040


# -- AOT warm images ---------------------------------------------------------


_PRELUDE = (
    "fib[n_Integer] := If[n < 2, n, fib[n - 1] + fib[n - 2]]",
    "sq[x_Integer] := x * x",
)


class TestAOT:
    @caches_function_compiles
    def test_build_image_is_self_contained_json(self, artifact_cache):
        from repro.artifacts import aot

        manifest = aot.build_image(_PRELUDE)
        json.dumps(manifest)
        assert manifest["kind"] == "repro-aot-image"
        assert sorted(manifest["preload"]) == ["fib", "sq"]
        assert len(manifest["objects"]) >= 2
        # the build ran in a private store: the session store is untouched
        assert artifact_cache.stats["stores"] == 0

    @caches_function_compiles
    def test_round_trip_into_server_base_image(self, artifact_cache):
        from repro.artifacts import aot
        from repro.server.base import BaseImage

        manifest = aot.build_image(_PRELUDE)
        image = BaseImage.from_image(manifest)
        with with_tracing() as tracer:
            evaluator = image.create_evaluator()
        assert _pass_spans(tracer) == []  # every preload was a cache probe
        promoted = evaluator.hotspot.promoted
        assert promoted["fib"].tier_kind == "compiled"
        assert promoted["sq"].tier_kind == "compiled"
        assert evaluator.run("fib[20] + sq[3]").to_python() == 6765 + 9

    def test_engine_server_boots_from_image_path(
        self, artifact_cache, tmp_path
    ):
        import asyncio

        from repro.artifacts import aot
        from repro.server.core import EngineServer, ServerConfig

        path = str(tmp_path / "image.json")
        aot.build_image(_PRELUDE, out=path)

        async def drive():
            server = EngineServer(
                config=ServerConfig(image_path=path)
            )
            try:
                return await server.submit("fib[15]", session_id="s1")
            finally:
                await server.close()

        response = asyncio.run(drive())
        assert response.ok and response.result == "610"

    def test_version_skew_degrades_to_cold_boot(self, artifact_cache):
        from repro.artifacts import aot
        from repro.server.base import BaseImage

        manifest = aot.build_image(_PRELUDE[:1])
        # simulate artifacts built by a different package/runtime: their
        # keys can never match this process's lookups
        manifest["objects"] = {
            ("0" * 63 + str(i)): dict(entry, key="0" * 63 + str(i))
            for i, entry in enumerate(manifest["objects"].values())
        }
        image = BaseImage.from_image(manifest)
        evaluator = image.create_evaluator()  # boots cold, does not raise
        assert evaluator.run("fib[10]").to_python() == 55

    def test_cli_build_and_boot(self, artifact_cache, tmp_path, capsys):
        from repro.artifacts.aot import main as aot_main

        prelude = tmp_path / "prelude.wl"
        prelude.write_text("# comment\n" + "\n".join(_PRELUDE) + "\n")
        image = str(tmp_path / "image.json")
        assert aot_main(["--prelude", str(prelude), "--out", image]) == 0
        assert aot_main(["--boot", image]) == 0
        out = capsys.readouterr().out
        assert "warmed 2 definition(s)" in out
        assert "2 preloaded" in out

    def test_preload_defers_untyped_definitions(self, artifact_cache):
        from repro.artifacts import aot

        manifest = aot.build_image(("g[x_] := x + 1",) + _PRELUDE[:1])
        assert manifest["preload"] == ["fib"]
        assert "g" in manifest["deferred"]
