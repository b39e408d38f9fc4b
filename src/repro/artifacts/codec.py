"""What a compile stores in the artifact cache and how a hit is rebuilt.

``FunctionCompile`` makes two calls, one each side of the pipeline:
:func:`lookup` before it and :func:`store` after it.  Only that tier is
cached; an entry's ``kind`` is always ``python``.

An entry carries the generated module's code object — ``marshal``,
base64 — beside its source, the signature, the constant pool and the
kernel-escape expressions.  A hit unmarshals the code object and
``exec``s it: no ``compile`` of the source, no pipeline pass.  A pool
entry that *is* one of the caller's named ``constants=`` arrays is
stored as its name (``{"n": name}``), never as its elements: the key
holds that array's content digest, so a hit binds the caller's
normalized array — the object a miss embeds — and decodes nothing.  Any
other array is one deflated element buffer (``{"pa": ...}``).  That is
the only way an entry is restored; the source is kept for
``generated_source``, ``--stats`` and tooling.  ``marshal`` is safe
here because nothing reaches it but what
:meth:`~repro.artifacts.store.ArtifactStore.get` returned, and ``get``
checks the content digest of the bytes it read before decoding any of
them; that the code object is this interpreter's is the key's business
(:data:`repro.artifacts.keys.PYTHON_TAG`).

An entry whose payload does not decode — whatever the reason — is evicted
and reported as a miss; the caller recompiles.
"""

from __future__ import annotations

import base64
import marshal
from types import CodeType
from typing import Optional

from repro.artifacts import keys
from repro.artifacts.keys import type_from_wire, type_to_wire
from repro.artifacts.store import ArtifactStore
from repro.mexpr.expr import MExpr
from repro.mexpr.serialize import from_wire, to_wire
from repro.runtime.packed import PackedArray


def cacheable(options, user_passes, type_environment,
              macro_environment) -> bool:
    """Only compiles fully described by (function, constants, options)
    are cached.

    User passes and custom type/macro environments are process-local
    code the key cannot capture; a pass logger is a side channel;
    verify-each exists to *run* the pipeline; other targets have their
    own artifacts."""
    return (
        options.target_system == "Python"
        and not user_passes
        and type_environment is None
        and macro_environment is None
        and options.pass_logger is None
        and options.verify_ir == "off"
    )


class CachedProgram:
    """Placeholder for :class:`ProgramModule` on a cache-restored function.

    Carries only the main-function name: nothing at run time reads the
    TWIR module, and reports that walk ``functions`` find none."""

    def __init__(self, main: str, ndarray_parameters=()):
        self.main = main
        self.functions: dict = {}
        self.metadata: dict = {
            "restoredFromCache": True,
            # which boundary each parameter gets is decided from the TWIR
            "ndarrayParameters": tuple(ndarray_parameters),
        }


def lookup(cache: ArtifactStore, key: str, **context):
    """The compiled function stored under ``key``, rebuilt, or ``None`` on
    a miss.  ``context`` is what the entry does not hold:
    ``source_function``, ``evaluator``, ``options`` and the normalized
    ``constants`` the key was taken over."""
    entry = cache.get(key)
    if entry is None:
        return None
    try:
        if entry.get("kind") != "python":
            raise ValueError(f"unexpected entry kind {entry.get('kind')!r}")
        return _python_function(entry, **context)
    except Exception:
        cache.evict(key)
        return None


def store(cache: ArtifactStore, key: str, **artifact) -> None:
    """Store a fresh compile under ``key``; one with no wire form (an
    exotic constant, a polymorphic type) is counted as unstorable."""
    payload = _python_payload(**artifact)
    if payload is None:
        cache.decline()
    else:
        cache.put(key, {"kind": "python", **payload})


def _const_to_wire(value, named: dict):
    """A pool entry's wire form; ``named`` maps ``id`` of each named
    ``constants=`` array to its name."""
    if isinstance(value, PackedArray):
        name = named.get(id(value))
        if name is not None:
            return {"n": name}
        return {"pa": keys.packed_to_wire(value)}
    if isinstance(value, MExpr):
        return {"x": to_wire(value)}
    raise TypeError(f"uncacheable constant {type(value).__name__}")


def _const_from_wire(payload, constants: dict):
    if "n" in payload:
        return constants[payload["n"]]
    if "pa" in payload:
        return keys.packed_from_wire(payload["pa"])
    return from_wire(payload["x"])


def _python_payload(program, compiled, backend,
                    constants: dict) -> Optional[dict]:
    named = {id(array): name for name, array in constants.items()}
    try:
        kexprs = []
        for expression, names, result_type in backend.kernel_expressions:
            kexprs.append({
                "e": to_wire(expression),
                "v": list(names),
                "t": type_to_wire(result_type)
                if result_type is not None else None,
            })
        return {
            "main": program.main,
            "code": base64.b64encode(marshal.dumps(backend.code)).decode(
                "ascii"),
            "source": compiled.generated_source,
            "params": [type_to_wire(t) for t in compiled.signature.params],
            "result": type_to_wire(compiled.signature.result),
            "ndarray": list(program.metadata.get("ndarrayParameters", ())),
            "consts": [_const_to_wire(c, named) for c in backend.constants],
            "kexprs": kexprs,
        }
    except (TypeError, ValueError):
        return None


def _python_function(entry, source_function, evaluator, options, constants):
    from repro.compiler.api import CompiledCodeFunction
    from repro.compiler.codegen.python_backend import execute_module
    from repro.compiler.types.specifier import FunctionType

    code = marshal.loads(base64.b64decode(entry["code"]))
    if not isinstance(code, CodeType):
        raise ValueError("entry code is not a code object")
    main = entry["main"]
    pool = [_const_from_wire(c, constants) for c in entry["consts"]]
    kernel_expressions = [
        (from_wire(k["e"]), list(k["v"]),
         type_from_wire(k["t"]) if k["t"] is not None else None)
        for k in entry["kexprs"]
    ]
    signature = FunctionType(
        tuple(type_from_wire(p) for p in entry["params"]),
        type_from_wire(entry["result"]),
    )
    holder: dict = {}

    def kernel_call(expression_spec, argument_values):
        return holder["fn"]._kernel_call(expression_spec, argument_values)

    holder["fn"] = compiled = CompiledCodeFunction(
        program=CachedProgram(main, entry["ndarray"]),
        namespace=execute_module(code, entry["source"], kernel_call,
                                 pool, kernel_expressions),
        signature=signature,
        source_function=source_function,
        evaluator=evaluator,
        options=options,
    )
    return compiled

