"""The persistent artifact cache and the AOT warm-image mode.

Covers the tentpole's acceptance criteria end to end: canonical keys
(stable, hash-busting on every input), the on-disk store (hit/miss/evict,
LRU cap, corruption recovery, fault injection), the ``FunctionCompile``
and bytecode-tier wiring (a warm compile runs **zero pipeline passes**,
including from a different process), and the AOT round trip into a
server :class:`~repro.server.base.BaseImage`.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts import (
    ArtifactStore,
    bytecode_key,
    function_key,
    get_store,
    runtime_fingerprint,
    type_from_wire,
    type_to_wire,
)
from repro.benchsuite import programs, reference
from repro.compiler import FunctionCompile
from repro.compiler.options import CompilerOptions
from repro.compiler.pipeline import normalize_constants
from repro.compiler.types.specifier import (
    ATOMIC_TYPE_NAMES,
    AtomicType,
    CompoundType,
    FunctionType,
    TypeLiteral,
    TypeVariable,
)
from repro.mexpr import parse
from repro.mexpr.atoms import MComplex, MInteger, MReal, MString, MSymbol
from repro.mexpr.expr import MExprNormal
from repro.mexpr.serialize import from_wire, to_wire
from repro.observe import with_tracing
from repro.runtime.packed import PackedArray

FIB = ('Function[{Typed[n, "MachineInteger"]}, '
       'Module[{a = 0, b = 1, i = 1}, '
       'While[i <= n, Module[{t = a + b}, a = b; b = t]; i = i + 1]; a]]')


#: verify-each exists to *run* the pipeline, so ``FunctionCompile`` bypasses
#: the artifact cache under it; tests that assert a cache hit or store skip
caches_function_compiles = pytest.mark.skipif(
    CompilerOptions().verify_ir != "off",
    reason="REPRO_VERIFY_IR bypasses the FunctionCompile artifact cache",
)


_METADATA = st.dictionaries(
    st.sampled_from(["a", "b", "scope"]),
    st.none() | st.booleans() | st.integers(-1, 1)
    | st.sampled_from([0.0, -0.0, 1.0]) | st.sampled_from(["", "1", "x"])
    | st.builds(object),  # not serialisable: never part of a key
    max_size=2,
)


def _annotated(node, metadata):
    for name, value in metadata.items():
        node.set_property(name, value)
    return node


#: small alphabets, so that equal trees turn up by chance as well
_ATOMS = st.one_of(
    st.integers(-1, 2).map(MInteger),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 1e300]).map(MReal),
    st.sampled_from(["", "1", "x", "y1:x", "π"]).map(MString),
    st.sampled_from(["x", "y", "Plus", "1"]).map(MSymbol),
    st.sampled_from([1 + 0j, 1j]).map(MComplex),
)
_TREES = st.recursive(
    st.builds(_annotated, _ATOMS, _METADATA),
    lambda children: st.builds(
        _annotated,
        st.builds(MExprNormal, children, st.lists(children, max_size=3)),
        _METADATA,
    ),
    max_leaves=8,
)


_RETYPE = {
    MInteger: lambda node: MReal(float(node.value)),
    MReal: lambda node: MString(repr(node.value)),
    MString: lambda node: MSymbol(node.value),
    MSymbol: lambda node: MString(node.name),
    MComplex: lambda node: MReal(node.value.real),
}


def _retyped(node):
    """``node`` with its first atom replaced by one of another type that
    prints alike; everything else, metadata included, as it was."""
    if isinstance(node, MExprNormal):
        changed = MExprNormal(_retyped(node.head), node.args)
    else:
        changed = _RETYPE[type(node)](node)
    return _annotated(changed, node._properties or {})


def _pass_spans(tracer) -> list:
    return [e for e in tracer.events if e.name.startswith("pass:")]


TABLE_READ = 'Function[{Typed[n, "MachineInteger"]}, Part[myTable, n]]'


def _constants_key(constants: dict, source: str = TABLE_READ) -> str:
    return function_key(parse(source), CompilerOptions(), "python",
                        constants=normalize_constants(constants))


def _primeq_constants() -> dict:
    return {"primeTable": reference.prime_sieve_bitmap(),
            "witnesses": programs.RM_WITNESSES}


@contextlib.contextmanager
def _counting_compiles():
    """Count ``builtins.compile`` calls and ``CompilerPipeline``s built by
    ``FunctionCompile`` while the block runs."""
    import builtins

    from repro.compiler import api

    counts = {"compile": 0, "pipeline": 0}
    real_compile, real_pipeline = builtins.compile, api.CompilerPipeline

    def counting_compile(*args, **kwargs):
        counts["compile"] += 1
        return real_compile(*args, **kwargs)

    def counting_pipeline(*args, **kwargs):
        counts["pipeline"] += 1
        return real_pipeline(*args, **kwargs)

    builtins.compile, api.CompilerPipeline = counting_compile, counting_pipeline
    try:
        yield counts
    finally:
        builtins.compile, api.CompilerPipeline = real_compile, real_pipeline


def _counting_marshal_loads(monkeypatch) -> list:
    """One element per ``marshal.loads`` the entry codec makes from now."""
    import marshal
    import types

    from repro.artifacts import codec

    loads = []
    monkeypatch.setattr(codec, "marshal", types.SimpleNamespace(
        dumps=marshal.dumps,
        loads=lambda data: loads.append(1) or marshal.loads(data),
    ))
    return loads


def _only_digest(store) -> str:
    (path, _, _), = store._entries()
    return os.path.basename(path)[:-len(".json")]


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

    def test_ten_thousand_deep_tree_keys_without_recursion(self):
        from repro.artifacts.keys import _write_tree

        def chain(depth):
            tree = MSymbol("x")
            for _ in range(depth):
                tree = MExprNormal(MSymbol("f"), (tree,))
            return tree

        deep = chain(10_000)
        assert sys.getrecursionlimit() < 10_000
        written: list[str] = []
        _write_tree(deep, written.append)
        assert "".join(written) == "n1:y1:f" * 10_000 + "y1:x"
        key = function_key(deep, CompilerOptions(), "python")
        assert key != function_key(chain(9_999), CompilerOptions(), "python")

    def test_constant_in_either_array_state_has_one_key(self):
        """An ndarray-resident constant is the same constant: same
        content digest, same function key, same entry form."""
        import numpy as np

        from repro.artifacts.keys import constants_digest, packed_to_wire
        from repro.compiler.pipeline import normalize_constants
        from repro.runtime.packed import PackedArray

        table = [[1.0, 2.5], [3.0, -0.0]]
        listed = PackedArray.from_nested(table, "Real64")
        resident = PackedArray.from_numpy(np.array(table))
        assert constants_digest({"t": listed}) == \
            constants_digest({"t": resident})
        resident = PackedArray.from_numpy(np.array(table))
        assert packed_to_wire(listed) == packed_to_wire(resident)
        resident = PackedArray.from_numpy(np.array(table))
        keys = [
            function_key(parse(FIB), CompilerOptions(), "python",
                         constants=normalize_constants({"t": constant}))
            for constant in (listed, resident)
        ]
        assert keys[0] == keys[1]

    @given(st.lists(_TREES, min_size=2, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_streamed_key_separates_exactly_what_the_wire_form_did(
        self, trees
    ):
        """The one-walk key against the key it replaced (the sorted-key
        JSON of the tagged wire form): two trees share a key exactly when
        their wire forms are equal — same structure, atom types and
        serialisable metadata."""
        options = CompilerOptions()
        trees.append(_retyped(trees[0]))  # one atom's type changed
        trees.append(from_wire(to_wire(trees[0])))  # an equal tree, rebuilt
        new = [function_key(tree, options, "python") for tree in trees]
        old = [json.dumps(to_wire(tree), sort_keys=True) for tree in trees]
        assert new[0] == new[-1] != new[-2]
        for i in range(len(trees)):
            for j in range(i):
                assert (new[i] == new[j]) == (old[i] == old[j]), (
                    trees[i], trees[j])

    def test_key_tells_atom_types_and_metadata_apart(self):
        options = CompilerOptions()

        def key(node, **properties):
            tree = MExprNormal(MSymbol("f"), [node])
            for name, value in properties.items():
                node.set_property(name, value)
            return function_key(tree, options, "python")

        assert len({
            key(MInteger(1)), key(MReal(1.0)), key(MString("1")),
            key(MSymbol("1")), key(MComplex(1 + 0j)),
            key(MReal(0.0)), key(MReal(-0.0)),
            key(MString("i1;")), key(MString("")),
            key(MInteger(1), tag=1), key(MInteger(1), tag=1.0),
            key(MInteger(1), tag=True), key(MInteger(1), tag="1"),
            key(MInteger(1), tag=None), key(MInteger(1), other=1),
            key(MInteger(1), tag=1, other=1),
            key(MExprNormal(MSymbol("f"), [])),
            key(MExprNormal(MSymbol("f"), [MSymbol("f")])),
        }) == 18
        # order of annotation and unserialisable metadata do not matter
        assert key(MInteger(1), a=1, b=2) == key(MInteger(1), b=2, a=1)
        assert key(MInteger(1), scope=object()) == key(MInteger(1))

    def test_key_covers_the_python_that_will_load_the_code(
        self, monkeypatch
    ):
        from repro.artifacts import keys

        options = CompilerOptions()
        base = function_key(parse(FIB), options, "python")
        monkeypatch.setattr(keys, "PYTHON_TAG", ("cpython-00", "00000000"))
        assert function_key(parse(FIB), options, "python") != base

    def test_bytecode_key_depends_on_body_and_versions(self):
        specs = parse('{{x, _Real}}')
        body, other = parse("x + 1.0"), parse("x + 2.0")
        assert bytecode_key(specs, body, (1, 2, 3)) != \
            bytecode_key(specs, other, (1, 2, 3))
        assert bytecode_key(specs, body, (1, 2, 3)) != \
            bytecode_key(specs, body, (1, 2, 4))

    def test_constants_are_keyed_by_content(self):
        table = reference.prime_sieve_bitmap()  # the 2^14-entry §6 table
        base = _constants_key({"myTable": table})
        edited = list(table)
        edited[9001] ^= 1
        assert len({
            base,
            _constants_key({}),
            _constants_key({"myTable": edited}),  # one element of 16 384
            _constants_key({"myTable": [float(x) for x in table]}),
            _constants_key({"otherTable": table}),  # renamed
            _constants_key({"myTable": [0.0]}), _constants_key({"myTable": [-0.0]}),
            _constants_key({"myTable": [1]}), _constants_key({"myTable": [True]}),
            _constants_key({"myTable": [2 ** 70]}),  # no int64 buffer
            _constants_key({"myTable": [[1, 2], [3, 4]]}),
            _constants_key({"myTable": [[1, 2, 3, 4]]}),  # same data, dims
        }) == 12

    def test_constant_spelling_and_order_do_not_matter(self):
        packed = PackedArray([10, 20, 30], (3,), "Integer64")
        assert _constants_key({"myTable": [10, 20, 30]}) == \
            _constants_key({"myTable": (10, 20, 30)}) == \
            _constants_key({"myTable": packed})
        assert _constants_key({"a": [1], "myTable": [2.5]}) == \
            _constants_key({"myTable": [2.5], "a": [1]})

    def test_normalize_constants_is_idempotent(self):
        once = normalize_constants({"t": [1, 2], "u": [1, 2.5], "e": []})
        assert [(a.element_type, a.dims, a.data) for a in once.values()] == [
            ("Integer64", (2,), [1, 2]), ("Real64", (2,), [1, 2.5]),
            ("Integer64", (0,), []),
        ]
        again = normalize_constants(once)
        assert all(again[name] is once[name] for name in once)
        assert normalize_constants(None) == {}

    @given(st.recursive(
        st.sampled_from(sorted(ATOMIC_TYPE_NAMES)).map(AtomicType)
        | st.builds(TypeLiteral, st.integers(-3, 9),
                    st.sampled_from(["Integer64", "MachineInteger"])),
        lambda inner: st.builds(
            CompoundType, st.sampled_from(["Tensor", "List", "Complex"]),
            st.lists(inner, max_size=3).map(tuple))
        | st.builds(FunctionType, st.lists(inner, max_size=3).map(tuple),
                    inner),
        max_leaves=8,
    ))
    @settings(max_examples=150, deadline=None)
    def test_signature_types_round_trip(self, type_):
        wire = json.loads(json.dumps(type_to_wire(type_)))
        assert type_from_wire(wire) == type_

    def test_unknown_specifier_class_fails_loudly(self):
        with pytest.raises(TypeError):
            type_to_wire(FunctionType((TypeVariable("a"),),
                                      AtomicType("Integer64")))
        with pytest.raises(ValueError):
            type_from_wire({"z": 1})

    def test_runtime_fingerprint_is_stable_hex(self):
        assert runtime_fingerprint() == runtime_fingerprint()
        assert len(runtime_fingerprint()) == 64

    @pytest.mark.parametrize("edited", [
        os.path.join("types", "builtin_env.py"),   # every py_inline template
        os.path.join("twir", "passes.py"),         # a pass
        os.path.join("codegen", "structurize.py"),
        os.path.join("wir", "lower.py"),
    ])
    def test_one_byte_of_the_compiler_changes_the_fingerprint(
        self, tmp_path, edited
    ):
        """A fixed pass or template must not keep serving what the broken
        one produced."""
        import shutil

        import repro.compiler
        from repro.artifacts.keys import source_fingerprint

        copy = tmp_path / "compiler"
        shutil.copytree(os.path.dirname(repro.compiler.__file__), copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        before = source_fingerprint([str(copy)], [])
        assert before == source_fingerprint([str(copy)], [])
        with open(copy / edited, "ab") as handle:
            handle.write(b"#")
        assert source_fingerprint([str(copy)], []) != before

    def test_fingerprint_covers_the_compiler_and_the_analysis(self):
        from repro.artifacts import keys

        assert {"repro.compiler", "repro.analyze"} <= set(
            keys._COMPILER_PACKAGES)


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
            "evictions": 1, "corrupt": 0, "unstorable": 0,
        }

    def test_unserializable_entry_declined_and_counted(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.put("cd" * 32, {"bad": object()}) is None
        assert store.stats["stores"] == 0
        assert store.stats["unstorable"] == 1

    def test_lru_cap_evicts_oldest_not_newest(self, tmp_path):
        store = ArtifactStore(str(tmp_path), max_bytes=400)
        digests = [f"{i:02x}" * 32 for i in range(8)]
        for digest in digests:
            store.put(digest, {"kind": "python", "pad": "x" * 50})
        assert store.size_bytes() <= 400
        assert store.stats["evictions"] > 0
        # the most recent store is exempt from its own sweep
        assert store.get(digests[-1]) is not None

    def test_entry_evicted_between_two_lookups_is_a_plain_miss(
        self, tmp_path, monkeypatch
    ):
        """Another process's sweep unlinks the file just before this one
        opens it: that is a miss, not corruption."""
        import builtins

        store = ArtifactStore(str(tmp_path))
        digest = "ab" * 32
        path = store.put(digest, {"kind": "python", "x": 1})
        real_open = builtins.open

        def racing_open(file, *args, **kwargs):
            if file == path:
                os.unlink(path)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", racing_open)
        assert store.get(digest) is None
        assert store.stats == {
            "hits": 0, "misses": 1, "stores": 1,
            "evictions": 0, "corrupt": 0, "unstorable": 0,
        }

    def test_a_hit_opens_the_file_once(self, tmp_path, monkeypatch):
        import builtins

        store = ArtifactStore(str(tmp_path))
        digest = "ab" * 32
        path = store.put(digest, {"kind": "python", "x": 1})
        os.utime(path, (1, 1))
        opened = []
        real_open = builtins.open
        monkeypatch.setattr(
            builtins, "open",
            lambda file, *a, **k: opened.append(file) or real_open(file, *a, **k),
        )
        monkeypatch.setattr(os.path, "exists", lambda path: 1 / 0)
        assert store.get(digest)["x"] == 1
        assert opened == [path]
        assert os.stat(path).st_mtime > 1  # the hit refreshed LRU recency

    def test_put_accepts_what_get_returned_and_nothing_edited(
        self, tmp_path
    ):
        store = ArtifactStore(str(tmp_path))
        digest = "ab" * 32
        path = store.put(digest, {"kind": "python", "x": 1.5, "s": "π\ud800"})
        with open(path, "rb") as handle:
            before = handle.read()
        entry = store.get(digest)
        assert len(entry["sha256"]) == 64
        assert store.put(digest, entry) == path
        with open(path, "rb") as handle:
            assert handle.read() == before  # byte-identical round trip
        # an entry is written back only under the digest it carries
        assert store.put(digest, {**entry, "x": 2.5}) is None
        assert store.put("cd" * 32, entry) is None
        assert store.stats["corrupt"] == 2 and store.stats["stores"] == 2
        assert store.get(digest)["x"] == 1.5

    @pytest.mark.parametrize("corruption", [
        "truncate", "garbage", "bad-json", "wrong-schema", "key-mismatch",
        "flip-digest", "schema-1",
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
        with with_tracing() as tracer, _counting_compiles() as counts:
            warm = FunctionCompile(FIB)
        assert artifact_cache.stats["hits"] == 1
        assert _pass_spans(tracer) == []  # the acceptance criterion
        # a hit is a lookup: the stored source is not compiled again and
        # no pipeline is even built
        assert counts == {"compile": 0, "pipeline": 0}
        assert [e.name for e in tracer.events
                if e.name == "artifact.cache"]
        assert cold(30) == warm(30) == 832040
        assert warm.generated_source == cold.generated_source
        with _counting_compiles() as counts:
            FunctionCompile(FIB.replace("a + b", "b + a"))  # a miss
        assert counts["compile"] >= 1 and counts["pipeline"] == 1

    @caches_function_compiles
    def test_store_filled_by_another_compiler_misses(
        self, artifact_cache, monkeypatch
    ):
        """What a user's ``~/.cache/repro`` holds from before a compiler
        change is keyed on that compiler's fingerprint: it is not served."""
        from repro.artifacts import keys

        monkeypatch.setattr(keys, "_fingerprint_cache", "0" * 64)
        FunctionCompile(FIB)
        assert artifact_cache.stats["stores"] == 1
        monkeypatch.setattr(keys, "_fingerprint_cache", None)
        fresh = FunctionCompile(FIB)
        assert artifact_cache.stats["hits"] == 0
        assert artifact_cache.stats["stores"] == 2
        assert fresh(20) == 6765

    @caches_function_compiles
    def test_option_change_recompiles(self, artifact_cache):
        FunctionCompile(FIB)
        FunctionCompile(FIB, OptimizationLevel=0)
        assert artifact_cache.stats["hits"] == 0
        assert artifact_cache.stats["stores"] == 2

    @caches_function_compiles
    def test_same_constants_store_once_then_hit(self, artifact_cache):
        cold = FunctionCompile(TABLE_READ, constants={"myTable": [10, 20, 30]})
        with with_tracing() as tracer:
            warm = FunctionCompile(
                TABLE_READ,
                constants={"myTable": PackedArray([10, 20, 30], (3,),
                                                  "Integer64")},
            )
        assert _pass_spans(tracer) == []
        assert artifact_cache.stats["stores"] == 1
        assert artifact_cache.stats["hits"] == 1
        assert [cold(i) for i in (1, 2, 3)] == [warm(i) for i in (1, 2, 3)] \
            == [10, 20, 30]

    @caches_function_compiles
    def test_changed_constants_never_serve_a_stale_artifact(
        self, artifact_cache
    ):
        variants = [[10, 20, 30], [10, 21, 30], [10.0, 20.0, 30.0]]
        for table in variants:
            fn = FunctionCompile(TABLE_READ, constants={"myTable": table})
            assert fn(2) == table[1] and type(fn(2)) is type(table[1])
        assert artifact_cache.stats["stores"] == 3
        assert artifact_cache.stats["hits"] == 0

    @pytest.mark.parametrize("table", [
        [],  # empty: no element buffer
        [-2 ** 63, 2 ** 63 - 1],
        [0.0, -0.0, float("inf"), float("nan")],
        [1, 2.5],  # mixed: spelled element by element
        [True, False],
        [[1.5, 2.5], [3.5, 4.5]],
    ], ids=["empty", "int64-extremes", "signed-zero-nan", "mixed", "bool",
            "rank2"])
    def test_constant_pool_codec_is_exact(self, table):
        from repro.artifacts.keys import packed_from_wire, packed_to_wire

        original = normalize_constants({"myTable": table})["myTable"]
        wire = json.loads(json.dumps(packed_to_wire(original)))
        restored = packed_from_wire(wire)
        assert restored.element_type == original.element_type
        assert restored.dims == original.dims
        assert list(map(repr, restored.data)) == list(map(repr, original.data))
        complex_pool = PackedArray([1 + 2j, -0.0 + 0j], (2,), "ComplexReal64")
        assert packed_from_wire(packed_to_wire(complex_pool)).data == \
            complex_pool.data

    @caches_function_compiles
    def test_large_pool_is_a_named_reference_and_corruption_recompiles(
        self, artifact_cache
    ):
        from repro.testing import corrupt_artifact

        limit = 2000
        expected = reference.primeq_count_c_port(
            limit, reference.prime_sieve_bitmap()
        )
        FunctionCompile(programs.NEW_PRIMEQ, constants=_primeq_constants())
        digest = _only_digest(artifact_cache)
        consts = artifact_cache.get(digest)["consts"]
        # the 16 384-element table is stored as its name, never its elements
        assert {"n": "primeTable"} in consts
        assert not any("pa" in c for c in consts)
        assert os.path.getsize(artifact_cache._object_path(digest)) < 12_000
        corrupt_artifact(artifact_cache, digest, "truncate")
        warm = FunctionCompile(programs.NEW_PRIMEQ,
                               constants=_primeq_constants())
        assert warm(limit) == expected
        assert artifact_cache.stats["corrupt"] == 1
        assert artifact_cache.stats["evictions"] == 1
        assert artifact_cache.stats["stores"] == 2
        # a well-formed entry naming a constant the caller did not pass
        # (stored as a fresh payload: the store refuses an edited entry
        # under its old digest): evict, recompile
        entry = artifact_cache.get(digest)
        assert artifact_cache.put(digest, {**entry, "main": "x"}) is None
        del entry["sha256"]
        for const in entry["consts"]:
            if "n" in const:
                const["n"] = "noSuchTable"
        artifact_cache.put(digest, entry)
        again = FunctionCompile(programs.NEW_PRIMEQ,
                                constants=_primeq_constants())
        assert again(limit) == expected
        assert artifact_cache.stats["evictions"] == 2
        assert artifact_cache.stats["stores"] == 4

    @caches_function_compiles
    def test_named_constant_hit_binds_the_callers_array(self, artifact_cache):
        table = PackedArray([10, 20, 30], (3,), "Integer64")
        cold = FunctionCompile(TABLE_READ, constants={"myTable": table})
        warm = FunctionCompile(TABLE_READ, constants={"myTable": table})
        assert artifact_cache.stats["hits"] == 1
        # the hit's pool holds the very array the miss embedded
        for compiled in (cold, warm):
            assert any(c is table for c in compiled.namespace["_consts"])
        assert warm.generated_source == cold.generated_source
        assert [warm(i) for i in (1, 2, 3)] == [10, 20, 30]

    @caches_function_compiles
    def test_named_constant_beside_a_kernel_escape_stores_and_hits(
        self, artifact_cache
    ):
        from repro.compiler import install_engine_support
        from repro.engine import Evaluator

        evaluator = Evaluator()
        install_engine_support(evaluator)
        source = ('Function[{Typed[n, "MachineInteger"]}, Module[{x = '
                  'Part[myTable, n]}, KernelFunction[Fibonacci][n]; x]]')
        table = {"myTable": [100, 200, 300]}
        cold = FunctionCompile(source, evaluator=evaluator, constants=table)
        assert artifact_cache.stats["stores"] == 1
        assert artifact_cache.stats["unstorable"] == 0
        entry = artifact_cache.get(_only_digest(artifact_cache))
        assert entry["kexprs"] and {"n": "myTable"} in entry["consts"]
        hits = artifact_cache.stats["hits"]
        warm = FunctionCompile(source, evaluator=evaluator, constants=table)
        assert artifact_cache.stats["hits"] == hits + 1
        assert [warm(n) for n in (1, 2, 3)] == [cold(n) for n in (1, 2, 3)] \
            == [100, 200, 300]

    @caches_function_compiles
    def test_one_changed_element_of_a_large_table_misses(self, artifact_cache):
        constants = _primeq_constants()
        FunctionCompile(programs.NEW_PRIMEQ, constants=constants)
        edited = list(constants["primeTable"])
        edited[9973] = 0
        FunctionCompile(programs.NEW_PRIMEQ,
                        constants={**constants, "primeTable": edited})
        assert artifact_cache.stats["hits"] == 0
        assert artifact_cache.stats["stores"] == 2
        FunctionCompile(programs.NEW_PRIMEQ,
                        constants={**constants, "primeTable": edited})
        assert artifact_cache.stats["hits"] == 1

    @caches_function_compiles
    @pytest.mark.parametrize("table", [
        [-2 ** 63, 2 ** 63 - 1],
        [0.0, -0.0, float("nan"), float("inf")],
        [1, 2.5],
        [True, False],
        [[1.5, -0.0], [float("nan"), 4.5]],
    ], ids=["int64-extremes", "signed-zero-nan", "mixed", "bool", "rank2"])
    def test_named_constant_round_trips_exactly(self, artifact_cache, table):
        source = (TABLE_READ if not isinstance(table[0], list) else
                  'Function[{Typed[n, "MachineInteger"]}, '
                  'Part[myTable, n, 2] + Part[myTable, n, 1]]')
        cold = FunctionCompile(source, constants={"myTable": table})
        warm = FunctionCompile(source, constants={"myTable": table})
        assert artifact_cache.stats["hits"] == 1
        normalized = normalize_constants({"myTable": table})["myTable"]
        bound, = [c for c in warm.namespace["_consts"]
                  if isinstance(c, PackedArray)]
        assert (bound.element_type, bound.dims) == \
            (normalized.element_type, normalized.dims)
        assert list(map(repr, bound.data)) == \
            list(map(repr, normalized.data))
        assert [repr(warm(i)) for i in range(1, len(table) + 1)] == \
            [repr(cold(i)) for i in range(1, len(table) + 1)]

    @caches_function_compiles
    def test_entry_with_a_packed_buffer_still_restores(self, artifact_cache):
        """An entry written before pools became named references holds
        the table's elements (``pa``); it restores them."""
        from repro.artifacts.keys import packed_to_wire

        table = [10, 20, 30]
        FunctionCompile(TABLE_READ, constants={"myTable": table})
        digest = _only_digest(artifact_cache)
        entry = artifact_cache.get(digest)
        del entry["sha256"]
        entry["consts"] = [
            {"pa": packed_to_wire(PackedArray(table, (3,), "Integer64"))}
            if "n" in const else const for const in entry["consts"]
        ]
        artifact_cache.put(digest, entry)
        hits = artifact_cache.stats["hits"]
        warm = FunctionCompile(TABLE_READ, constants={"myTable": table})
        assert artifact_cache.stats["hits"] == hits + 1
        assert artifact_cache.stats["evictions"] == 0
        assert [warm(i) for i in (1, 2, 3)] == table

    @caches_function_compiles
    def test_function_typed_parameter_hits(self, artifact_cache):
        cold = FunctionCompile(programs.NEW_QSORT)
        with with_tracing() as tracer:
            warm = FunctionCompile(programs.NEW_QSORT)
        assert _pass_spans(tracer) == []
        assert artifact_cache.stats["hits"] == 1
        assert warm.signature == cold.signature
        assert isinstance(warm.signature.params[1], FunctionType)
        data = [5, 3, 9, 1]
        assert warm(data, lambda a, b: a > b).to_nested() == [9, 5, 3, 1]

    @caches_function_compiles
    def test_unstorable_compile_is_counted_and_shown(
        self, artifact_cache, monkeypatch
    ):
        import io

        from repro.__main__ import batch
        from repro.artifacts import codec

        def no_wire_form(value, names):
            raise TypeError("no wire form")

        monkeypatch.setattr(codec, "_const_to_wire", no_wire_form)
        with with_tracing() as tracer:
            fn = FunctionCompile(TABLE_READ, constants={"myTable": [7]})
        assert fn(1) == 7
        assert artifact_cache.stats["unstorable"] == 1
        assert artifact_cache.stats["stores"] == 0
        assert tracer.metrics.counters["artifact.cache.unstorable"] == 1
        out = io.StringIO()
        batch(["1 + 1"], show_stats=True, output=out)
        assert "1 unstorable" in out.getvalue()

    @caches_function_compiles
    def test_stats_report_survives_a_cache_restored_function(
        self, artifact_cache
    ):
        import io

        from repro.__main__ import batch

        line = f"cf = FunctionCompile[{FIB}]; cf[10]"
        for expected in ("0 hits, 1 misses, 1 stores", "1 hits, 0 misses"):
            out = io.StringIO()
            artifact_cache.stats.update(dict.fromkeys(artifact_cache.stats, 0))
            assert batch([line], show_stats=True, output=out) == 0
            assert "Out[1]= 55" in out.getvalue()
            assert f"artifact cache: {expected}" in out.getvalue()

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

    @pytest.mark.faults
    @caches_function_compiles
    @pytest.mark.parametrize("corruption", [
        "flip-code", "flip-source", "flip-digest", "truncate", "schema-1",
    ])
    def test_damaged_schema_2_entry_is_never_unmarshalled(
        self, artifact_cache, monkeypatch, corruption
    ):
        """One byte anywhere in a stored entry — still JSON, still Python,
        still base64 — is a miss, an eviction and a recompile with the
        right value; the bytes never reach ``marshal``."""
        from repro.testing import corrupt_artifact

        loads = _counting_marshal_loads(monkeypatch)
        FunctionCompile(FIB)
        digest = _only_digest(artifact_cache)
        corrupt_artifact(artifact_cache, digest, corruption)
        with _counting_compiles() as counts:
            again = FunctionCompile(FIB)  # never raises
        assert again(30) == 832040
        assert loads == []
        assert counts["pipeline"] == 1  # recompiled, not restored
        assert artifact_cache.stats == {
            "hits": 0, "misses": 2, "stores": 2,
            "evictions": 1, "corrupt": 1, "unstorable": 0,
        }
        # the recompile healed the store
        assert FunctionCompile(FIB)(30) == 832040
        assert artifact_cache.stats["hits"] == 1
        assert loads == [1]

    @pytest.mark.faults
    @caches_function_compiles
    def test_injected_load_fault_recompiles_without_unmarshalling(
        self, artifact_cache, monkeypatch
    ):
        from repro.testing import Fault, inject_faults

        loads = _counting_marshal_loads(monkeypatch)
        FunctionCompile(FIB)
        with inject_faults(Fault("artifact.load", "corrupt")):
            again = FunctionCompile(FIB)
        assert again(30) == 832040 and loads == []
        assert artifact_cache.stats["corrupt"] == 1
        assert artifact_cache.stats["evictions"] == 1
        assert artifact_cache.stats["stores"] == 2

    @pytest.mark.faults
    @caches_function_compiles
    def test_entry_of_another_python_is_another_key(
        self, artifact_cache, monkeypatch
    ):
        """A store shared by two interpreters is two key spaces: what the
        other one stored is neither loaded nor evicted."""
        from repro.artifacts import keys

        with monkeypatch.context() as other:
            other.setattr(keys, "PYTHON_TAG", ("cpython-00", "00000000"))
            FunctionCompile(FIB)
        foreign = _only_digest(artifact_cache)
        with _counting_compiles() as counts:
            mine = FunctionCompile(FIB)
        assert mine(30) == 832040 and counts["pipeline"] == 1
        assert artifact_cache.stats == {
            "hits": 0, "misses": 2, "stores": 2,
            "evictions": 0, "corrupt": 0, "unstorable": 0,
        }
        assert os.path.exists(artifact_cache._object_path(foreign))
        assert len(artifact_cache._entries()) == 2

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

import builtins
from repro.compiler import api

# a fresh process also compiles the modules it imports on the way (no
# .pyc is guaranteed); what must not happen is a compile of generated code
compiles, pipelines = [], []
real_compile, real_pipeline = builtins.compile, api.CompilerPipeline


def counting_compile(source, filename, *rest, **options):
    if not str(filename).endswith(".py"):
        compiles.append(filename)
    return real_compile(source, filename, *rest, **options)


def counting_pipeline(*args, **options):
    pipelines.append(1)
    return real_pipeline(*args, **options)


builtins.compile, api.CompilerPipeline = counting_compile, counting_pipeline

source = sys.argv[1]
with with_tracing() as tracer:
    fn = FunctionCompile(source)
passes = [e.name for e in tracer.events if e.name.startswith("pass:")]
print(json.dumps({
    "result": fn(30),
    "passes": len(passes),
    "compiles": len(compiles),
    "pipelines": len(pipelines),
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
        assert first["compiles"] >= 1 and first["pipelines"] == 1
        assert second["compiles"] == 0 and second["pipelines"] == 0
        assert first["result"] == second["result"] == 832040


    @caches_function_compiles
    def test_child_fills_the_store_parent_hits_primeq_and_qsort(
        self, tmp_path, monkeypatch
    ):
        child = (
            "from repro.benchsuite import programs, reference\n"
            "from repro.compiler import FunctionCompile\n"
            "from repro.artifacts import get_store\n"
            "FunctionCompile(programs.NEW_PRIMEQ, constants={\n"
            "    'primeTable': reference.prime_sieve_bitmap(),\n"
            "    'witnesses': programs.RM_WITNESSES})\n"
            "FunctionCompile(programs.NEW_QSORT)\n"
            "print(get_store().stats['stores'])\n"
        )
        cache = str(tmp_path / "cache")
        env = dict(os.environ, REPRO_ARTIFACT_CACHE=cache, PYTHONPATH=(
            os.path.dirname(os.path.dirname(
                os.path.abspath(sys.modules["repro"].__file__)))
        ))
        proc = subprocess.run([sys.executable, "-c", child],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "2"

        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", cache)
        with with_tracing() as tracer:
            primeq = FunctionCompile(programs.NEW_PRIMEQ,
                                     constants=_primeq_constants())
            qsort = FunctionCompile(programs.NEW_QSORT)
        assert _pass_spans(tracer) == []  # zero pipeline passes, both
        limit = 19_000  # the layered benchmark's PrimeQ input
        assert primeq(limit) == reference.primeq_count_c_port(
            limit, reference.prime_sieve_bitmap()
        )
        data = [(i * 7919) % 1000 for i in range(500)]
        assert qsort(data, lambda a, b: a < b).to_nested() == sorted(data)


# -- no silent holes ---------------------------------------------------------


def _shipped_programs() -> list:
    """Every ``repro.benchsuite`` / ``examples/programs`` function the
    new compiler builds, with the keyword arguments its compile needs."""
    shipped = [
        (name, getattr(programs, name), {})
        for name in sorted(vars(programs))
        if name.startswith("NEW_")
    ]
    shipped.append(("ITERATIVE_FIB", programs.ITERATIVE_FIB, {}))
    examples = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples", "programs")
    for name in sorted(os.listdir(examples)):
        with open(os.path.join(examples, name), encoding="utf-8") as handle:
            shipped.append((name, handle.read(), {}))
    return shipped


class TestNoSilentHoles:
    """The next unserialisable type or constant fails here, instead of
    costing a whole pipeline run per call forever."""

    @caches_function_compiles
    @pytest.mark.parametrize(
        "source,keywords",
        [pytest.param(source, keywords, id=name)
         for name, source, keywords in _shipped_programs()],
    )
    def test_every_shipped_program_hits_the_second_time(
        self, artifact_cache, source, keywords
    ):
        if "primeTable" in source:
            keywords = {"constants": _primeq_constants()}
        FunctionCompile(source, **keywords)
        with with_tracing() as tracer:
            FunctionCompile(source, **keywords)
        assert artifact_cache.stats["unstorable"] == 0
        assert artifact_cache.stats["stores"] == 1
        assert artifact_cache.stats["hits"] == 1
        assert _pass_spans(tracer) == []


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
        from repro.artifacts import aot
        from repro.server.core import EngineServer, ServerConfig

        path = str(tmp_path / "image.json")
        aot.build_image(_PRELUDE, out=path)

        server = EngineServer(config=ServerConfig(image_path=path))
        try:
            response = server.submit("fib[15]", session_id="s1")
        finally:
            server.close()
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

    @caches_function_compiles
    def test_cli_image_boots_with_zero_compiles(
        self, artifact_cache, tmp_path
    ):
        """An image built by ``python -m repro aot`` carries schema-2
        entries: booting from it restores every artifact from its
        marshalled code, with no ``compile`` and no pipeline."""
        from repro.artifacts import aot
        from repro.artifacts.store import ENTRY_SCHEMA
        from repro.server.base import BaseImage

        prelude = tmp_path / "prelude.wl"
        prelude.write_text("\n".join(_PRELUDE) + "\n")
        path = str(tmp_path / "image.json")
        assert aot.main(["--prelude", str(prelude), "--out", path],
                        output=open(os.devnull, "w")) == 0
        manifest = aot.load_image(path)
        assert manifest["objects"] and all(
            entry["schema"] == ENTRY_SCHEMA and entry["code"]
            and len(entry["sha256"]) == 64
            for entry in manifest["objects"].values()
        )
        image = BaseImage.from_image(manifest)
        with with_tracing() as tracer, _counting_compiles() as counts:
            evaluator = image.create_evaluator()
        assert counts == {"compile": 0, "pipeline": 0}
        assert _pass_spans(tracer) == []
        assert evaluator.hotspot.promoted["fib"].tier_kind == "compiled"
        assert evaluator.run("fib[20] + sq[3]").to_python() == 6765 + 9

    @caches_function_compiles
    def test_schema_1_or_tampered_image_degrades_to_cold_boot(
        self, artifact_cache
    ):
        from repro.artifacts import aot
        from repro.server.base import BaseImage

        manifest = aot.build_image(_PRELUDE)
        (first, entry), (second, other) = sorted(manifest["objects"].items())
        # one object as a schema-1 build wrote it, one with a byte of its
        # code changed inside the manifest: neither is seeded
        legacy = {k: v for k, v in entry.items() if k not in ("sha256", "code")}
        manifest["objects"][first] = dict(legacy, schema=1)
        flipped = "B" if other["code"][40] == "A" else "A"
        manifest["objects"][second] = dict(
            other, code=other["code"][:40] + flipped + other["code"][41:])
        image = BaseImage.from_image(manifest)
        assert artifact_cache.stats["stores"] == 0
        with _counting_compiles() as counts:
            evaluator = image.create_evaluator()  # boots cold, does not raise
        assert counts["pipeline"] == 2
        assert evaluator.run("fib[20] + sq[3]").to_python() == 6765 + 9

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
