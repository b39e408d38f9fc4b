"""Canonical content-addressed keys for compiled artifacts.

A cache that stores compiler *output* is only sound if its key captures
every compiler *input*.  The key is the SHA-256 of one text, built in one
pass with no intermediate form: a ``repr``-ed tuple of plain values, then
the source tree written node by node (:func:`_write_tree`: tag, a payload
that says where it ends, serialisable metadata sorted by name — nothing
depends on dict or set order, so ``PYTHONHASHSEED`` never leaks in).  It
covers:

* the **source function** — the ``Function[...]`` MExpr exactly as the
  pipeline will lower it, so alpha-identical re-parses of the same source
  text produce the same key across processes and machines, and ``1``,
  ``1.0`` and ``"1"`` produce different ones;
* the **embedded constants** — a content digest of the normalized
  ``constants=`` arrays (:func:`constants_digest`: name-sorted; element
  type, dimensions and the elements, typed, in one pass), the same objects
  the lowerer embeds, so ``[0, 1]`` and ``[0.0, 1.0]``, a one-element edit,
  or a renamed table are different keys;
* the **semantic compiler options** — every :class:`CompilerOptions`
  field that changes generated code (optimization level, inlining,
  abort handling, memory management, ...).  Non-semantic fields are
  deliberately excluded: ``pass_logger`` is a side channel and
  ``verify_ir`` is a diagnostic mode (compiles with the sanitizer on
  bypass the cache entirely rather than key on it);
* the **backend** the artifact was generated for (``python`` for the
  generated-Python JIT tier, ``bytecode`` for the WVM tier);
* the **Python bytecode identity** (:data:`PYTHON_TAG`:
  ``sys.implementation.cache_tag`` and ``importlib.util.MAGIC_NUMBER``) —
  a ``python`` entry holds a marshalled code object, which only the
  interpreter that wrote it can load, so a store shared by two
  interpreters is two key spaces and a hit never has to fall back to
  compiling the stored source;
* the **compiler and runtime fingerprint** — a content hash over the
  source of every module under ``repro.compiler`` and ``repro.analyze``
  (each pass, the inline templates of the type environment, the back
  ends, the analysis that elides checks) and of every module generated
  code calls back into (checked arithmetic, packed arrays, the guard, the
  WVM).  Editing any of those invalidates every cached artifact: a fixed
  pass must not keep serving what the broken one produced, and stored
  code may embed assumptions about the runtime;
* the **repro package version**, the key schema, and any caller-supplied
  extra versions (e.g. ``CompiledCodeFunction.COMPILER_VERSION``).

Not in the key: the source *text* (two spellings of one tree share an
entry, and the tree is what a caller holds), the host evaluator, ``bind=``,
and the typed-IR digest of the *output* program — that is recorded inside
stored entries for tooling, but hashing the TWIR would require running the
very pipeline the cache exists to skip.
"""

from __future__ import annotations

import hashlib
import marshal
import math
import os
import sys
import zlib
from dataclasses import fields
from importlib.util import MAGIC_NUMBER
from typing import Any, Optional

import numpy as np

from repro.compiler.options import CompilerOptions
from repro.mexpr.atoms import MComplex, MInteger, MReal, MString, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.runtime.packed import PackedArray

#: schema version of the key text; bump to invalidate every entry
KEY_SCHEMA = 2

#: which interpreter's bytecode a ``python`` entry holds: entries carry
#: marshalled code objects, which only the Python that wrote them can load
PYTHON_TAG = (sys.implementation.cache_tag, MAGIC_NUMBER.hex())

#: CompilerOptions fields that change generated code, in canonical order:
#: every field but the two that only observe a compile.  Derived, never
#: listed by hand, so that a new option can never be left out of the key
_SEMANTIC_OPTION_FIELDS = tuple(
    field.name for field in fields(CompilerOptions)
    if field.name not in ("pass_logger", "verify_ir")
)

#: packages whose every module decides what code a compile produces: the
#: pipeline, each pass, the type environment with its inline templates,
#: the back ends, and the analysis that elides checks
_COMPILER_PACKAGES = ("repro.compiler", "repro.analyze")

#: modules the generated code (or the VM) links against when it runs
_RUNTIME_FINGERPRINT_MODULES = (
    "repro.runtime.guard",
    "repro.runtime.checked",
    "repro.runtime.memory",
    "repro.runtime.packed",
    "repro.runtime.blas",
    "repro.bytecode.compiler",
    "repro.bytecode.instructions",
    "repro.bytecode.vm",
)

_fingerprint_cache: Optional[str] = None


def source_fingerprint(package_directories, module_files) -> str:
    """SHA-256 over every ``*.py`` file under ``package_directories`` and
    every file of ``module_files``, each with its path relative to where
    it was found, so that one changed byte anywhere is a different
    digest."""
    digest = hashlib.sha256()
    for directory in package_directories:
        for folder, folders, files in os.walk(directory):
            folders.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(
                        os.path.relpath(path, directory).encode("utf-8"))
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    for path in module_files:
        digest.update(os.path.basename(path).encode("utf-8"))
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def runtime_fingerprint() -> str:
    """The :func:`source_fingerprint` of everything a cached artifact
    depends on besides its own inputs: the whole compiler and analysis
    packages (a fixed pass or template must not keep serving what the
    broken one produced) and the runtime modules generated code links
    against; computed once per process."""
    global _fingerprint_cache
    if _fingerprint_cache is None:
        from importlib.util import find_spec

        _fingerprint_cache = source_fingerprint(
            [
                directory
                for package in _COMPILER_PACKAGES
                for directory in find_spec(package).submodule_search_locations
            ],
            [find_spec(name).origin for name in _RUNTIME_FINGERPRINT_MODULES],
        )
    return _fingerprint_cache


_NODE_KINDS = (MExprNormal, MSymbol, MInteger, MReal, MString, MComplex)


def _write_tree(node: MExpr, emit) -> None:
    """``emit`` the canonical text of ``node`` in one pre-order walk: per
    node a tag, then a payload that says where it ends (a length before a
    name or string, the argument count before the children, a terminator
    after a number's ``repr``), then its serialisable metadata sorted by
    name.  Equal trees give equal text and different trees different text
    — ``1``, ``1.0`` and ``"1"`` differ in the tag.  The walk is a loop
    over an explicit stack, so keying does not depend on tree depth."""
    stack = [node]
    pop, push, append = stack.pop, stack.extend, stack.append
    while stack:
        node = pop()
        kind = type(node)
        while True:
            if kind is MExprNormal:
                arguments = node.args
                emit(f"n{len(arguments)}:")
                push(arguments[::-1])
                append(node.head)
            elif kind is MSymbol:
                emit(f"y{len(node.name)}:{node.name}")
            elif kind is MInteger:
                emit(f"i{node.value};")
            elif kind is MReal:
                emit(f"r{node.value!r};")
            elif kind is MString:
                emit(f"s{len(node.value)}:{node.value}")
            elif kind is MComplex:
                emit(f"c{node.value.real!r},{node.value.imag!r};")
            else:  # a subclass keys as the node kind it extends
                kind = next(
                    (k for k in _NODE_KINDS if isinstance(node, k)), None)
                if kind is None:
                    raise TypeError(f"cannot key {type(node).__name__}")
                continue
            break
        properties = node._properties
        if properties:
            for name in sorted(properties):
                value = properties[name]
                if value is None or isinstance(value, (str, int, float, bool)):
                    text = repr(value)
                    emit(f"m{len(name)}:{name}{len(text)}:{text}")


def _digest(fields: tuple, *trees: MExpr) -> str:
    """SHA-256 over what every key shares — key schema, Python bytecode
    identity, compiler/runtime fingerprint, package version — then the
    caller's ``fields`` (a tuple of plain values, keyed by ``repr``), then
    each tree."""
    from repro import __version__

    parts = [repr((KEY_SCHEMA, PYTHON_TAG, runtime_fingerprint(),
                   __version__, *fields))]
    for tree in trees:
        _write_tree(tree, parts.append)
    text = "".join(parts)
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def function_key(
    source_function: MExpr,
    options,
    backend: str,
    extra: Optional[dict] = None,
    constants: Optional[dict] = None,
) -> str:
    """The lookup key for one compile of ``source_function``;
    ``constants`` is the normalized ``constants=`` mapping
    (:func:`repro.compiler.pipeline.normalize_constants`)."""
    return _digest(
        (
            backend,
            tuple(getattr(options, name) for name in _SEMANTIC_OPTION_FIELDS),
            sorted(extra.items()) if extra else None,
            constants_digest(constants) if constants else None,
        ),
        source_function,
    )


def bytecode_key(specs: MExpr, body: MExpr, versions) -> str:
    """The lookup key for one bytecode-tier (WVM) compile."""
    return _digest(("bytecode", tuple(versions)), specs, body)


# -- packed arrays: one pass per array in a key, one buffer in an entry ------


def content_digest(elements: list) -> str:
    """SHA-256 of a list of constant elements as their version-2 ``marshal``
    text — one pass in C that writes each element with its type and by
    value only (that version has no object references), so ``1``, ``1.0``
    and ``True`` (and ``-0.0`` and ``0.0``) differ; elements ``marshal``
    rejects are digested by ``repr``.  The first letter names the form."""
    try:
        return "m" + hashlib.sha256(marshal.dumps(elements, 2)).hexdigest()
    except ValueError:
        return "r" + hashlib.sha256(
            repr(elements).encode("utf-8", "surrogatepass")).hexdigest()


def constants_digest(constants: dict) -> str:
    """Content digest of named :class:`PackedArray` constants, name-sorted
    so dict insertion order never matters: per name its element type,
    dimensions and :func:`content_digest`.  That digest is the one
    :func:`~repro.compiler.pipeline.normalize_constants` took while
    building the array (``constants.digests``), else taken here."""
    known = getattr(constants, "digests", {})
    digest = hashlib.sha256()
    for name in sorted(constants):
        array = constants[name]
        built, content = known.get(name, (None, None))
        if built is not array:
            content = content_digest(array.data)
        digest.update(repr(
            (name, array.element_type, tuple(array.dims), content)
        ).encode("utf-8"))
    return digest.hexdigest()


#: homogeneous element lists travel as one little-endian machine buffer
_BULK_DTYPES = {int: "<i8", float: "<f8", complex: "<c16"}


def _bulk_bytes(data: list) -> Optional[tuple[str, bytes]]:
    """``(dtype, buffer)`` when every element is exactly one machine
    ``int``/``float``/``complex``; ``None`` for empty, mixed, ``bool`` or
    out-of-int64-range data, which is spelled element by element."""
    kinds = set(map(type, data))
    dtype = _BULK_DTYPES.get(kinds.pop()) if len(kinds) == 1 else None
    if dtype is None:
        return None
    try:
        return dtype, np.array(data, dtype=dtype).tobytes()
    except OverflowError:
        return None


def packed_to_wire(array: PackedArray) -> dict:
    """Entry form of a constant-pool array: the element buffer, deflated,
    as one hex string (restored by a bulk decode), else a plain JSON list."""
    wire: dict[str, Any] = {"e": array.element_type, "d": list(array.dims)}
    bulk = _bulk_bytes(array.data)
    if bulk is None:
        wire["v"] = list(array.data)
    else:
        wire["t"], wire["b"] = bulk[0], zlib.compress(bulk[1], 1).hex()
    return wire


def packed_from_wire(wire: dict) -> PackedArray:
    if "b" in wire:
        if wire["t"] not in _BULK_DTYPES.values():
            raise ValueError(f"unknown element buffer type {wire['t']!r}")
        buffer = zlib.decompress(bytes.fromhex(wire["b"]))
        data = np.frombuffer(buffer, wire["t"]).tolist()
    else:
        data = list(wire["v"])
    if len(data) != math.prod(wire["d"]):
        raise ValueError("constant-pool elements do not fill the dimensions")
    return PackedArray(data, tuple(wire["d"]), wire["e"])


# -- type wire form (signatures stored inside entries) -----------------------


def type_to_wire(type_) -> dict:
    """Serialize a signature type (atomic / compound / literal /
    function); any other specifier class is a ``TypeError``."""
    from repro.compiler.types.specifier import (
        AtomicType,
        CompoundType,
        FunctionType,
        TypeLiteral,
    )

    if isinstance(type_, AtomicType):
        return {"a": type_.name}
    if isinstance(type_, TypeLiteral):
        return {"l": type_.value, "t": type_.of_type}
    if isinstance(type_, CompoundType):
        return {
            "c": type_.constructor,
            "p": [type_to_wire(p) for p in type_.params],
        }
    if isinstance(type_, FunctionType):
        return {
            "f": [type_to_wire(p) for p in type_.params],
            "r": type_to_wire(type_.result),
        }
    raise TypeError(f"cannot serialize signature type {type_!r}")


def type_from_wire(payload: dict):
    """Rebuild a signature type from :func:`type_to_wire` output."""
    from repro.compiler.types.specifier import (
        AtomicType,
        CompoundType,
        FunctionType,
        TypeLiteral,
    )

    if "a" in payload:
        return AtomicType(payload["a"])
    if "l" in payload:
        return TypeLiteral(payload["l"], payload.get("t", "Integer64"))
    if "c" in payload:
        return CompoundType(
            payload["c"],
            tuple(type_from_wire(p) for p in payload["p"]),
        )
    if "f" in payload:
        return FunctionType(
            tuple(type_from_wire(p) for p in payload["f"]),
            type_from_wire(payload["r"]),
        )
    raise ValueError(f"unknown type wire payload {payload!r}")
