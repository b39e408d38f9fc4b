"""The compiler's public API (§4.1, §4.6, Appendix A).

* :func:`FunctionCompile` — compile a ``Function[{Typed[x, t], ...}, body]``
  (given as an MExpr or Wolfram source text) into a
  :class:`CompiledCodeFunction`;
* :func:`CompileToAST` / :func:`CompileToIR` — inspect intermediate stages
  (``["toString"]`` mirrors the appendix transcripts);
* :func:`FunctionCompileExportString` — textual code for a chosen backend;
* :func:`FunctionCompileExportLibrary` / :func:`LibraryFunctionLoad` —
  ahead-of-time export to a standalone module and reloading (F10).

``CompiledCodeFunction`` implements the paper's runtime contract: argument
unpack/check/pack (§4.5 boxing), abortable execution when hosted (F3), and
the soft numeric failure path — on a runtime error it prints the paper's
warning and re-evaluates through the interpreter with arbitrary precision
(F2, the ``cfib[200]`` transcript).

:func:`FunctionCompile` consults the persistent artifact cache
(:mod:`repro.artifacts`, DESIGN.md §11) before running the pipeline: a
hit re-execs the stored generated module — constant pool, kernel-escape
expressions, and signature included — with **zero pipeline passes**, and
a fresh compile stores its artifact for every later process.  Embedded
``constants=`` are part of the key (by content).  Only compiles that are
uncacheable by definition bypass the cache: user passes, custom
type/macro environments, a pass logger, the verify-each sanitizer, or a
non-Python target.  What an entry holds and how a hit is rebuilt is
:mod:`repro.artifacts.codec`; a cache-restored function carries its
:class:`~repro.artifacts.codec.CachedProgram` placeholder instead of a
TWIR module.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional, Union

import numpy as np

from repro import observe as _observe
from repro.compiler.codegen.python_backend import PythonBackend, sanitize
from repro.compiler.macros import MacroEnvironment
from repro.compiler.options import CompilerOptions
from repro.compiler.pipeline import (
    CompilerPipeline,
    UserPass,
    normalize_constants,
)
from repro.compiler.types.environment import TypeEnvironment
from repro.compiler.types.specifier import (
    AtomicType,
    CompoundType,
    FunctionType,
    INTEGER_RANGES,
    Type,
    python_check,
)
from repro.compiler.wir.function_module import ProgramModule
from repro.errors import (
    SOFT_FAILURE_EXCEPTIONS,
    CompilerError,
    IntegerOverflowError,
    WolframRuntimeError,
)
from repro.mexpr.atoms import MComplex, MInteger, MReal, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.packed import PackedList
from repro.mexpr.parser import parse
from repro.mexpr.printer import input_form
from repro.mexpr.symbols import S, to_mexpr
from repro.runtime.guard import (
    FAILURE_LOG,
    CircuitBreaker,
    FailureRecord,
    GovernedFunction,
    Tier,
    checkpoint,
)
from repro.runtime.checked import INT64_MAX, INT64_MIN
from repro.runtime.packed import PackedArray

FunctionLike = Union[MExpr, str]

#: soft failures on the compiled tier before the circuit breaker trips
CIRCUIT_BREAKER_THRESHOLD = 3


def failure_records(
    function: Optional[str] = None, **filters
) -> list[FailureRecord]:
    """Query the global guarded-execution failure log.

    Every soft failure and every circuit-breaker tier transition of every
    compiled function lands here; filter by ``function`` (the breaker's
    name: ``CompiledCodeFunction[k]`` / ``CompiledFunction[k]`` for an
    engine-registered handle, the symbol for a hotspot promotion, the
    program's main-function name otherwise), ``tier``, or ``kind``.
    """
    return FAILURE_LOG.records(function, **filters)


def failure_transitions(
    function: Optional[str] = None,
) -> list[FailureRecord]:
    """Only the tier-transition records (``transition`` set)."""
    return FAILURE_LOG.transitions(function)


def clear_failure_records() -> None:
    FAILURE_LOG.clear()


def _as_function(function: FunctionLike) -> MExpr:
    if isinstance(function, str):
        return parse(function)
    return function


class StageWrapper:
    """Appendix-style access: ``CompileToIR(f)["toString"]``."""

    def __init__(self, payload, renderers: dict[str, Any]):
        self.payload = payload
        self._renderers = renderers

    def __getitem__(self, key: str):
        renderer = self._renderers.get(key)
        if renderer is None:
            raise KeyError(key)
        return renderer()


def CompileToAST(
    function: FunctionLike,
    macro_environment: Optional[MacroEnvironment] = None,
    **option_rules,
) -> StageWrapper:
    """The macro-expanded AST (§A.6.1)."""
    pipeline = _pipeline(None, macro_environment, option_rules)
    expanded = pipeline.expand_macros(_as_function(function))
    return StageWrapper(
        expanded,
        {
            "toString": lambda: input_form(expanded),
            "toExpression": lambda: expanded,
        },
    )


def CompileToIR(
    function: FunctionLike,
    type_environment: Optional[TypeEnvironment] = None,
    macro_environment: Optional[MacroEnvironment] = None,
    constants: Optional[dict] = None,
    **option_rules,
) -> StageWrapper:
    """The WIR/TWIR program module (§A.6.2–A.6.3).

    ``OptimizationLevel=None`` (or 0) shows the raw lowered WIR; default
    options show the resolved, optimized TWIR.
    """
    pipeline = _pipeline(type_environment, macro_environment, option_rules)
    program = pipeline.compile_program(
        _as_function(function), constants=constants
    )
    return StageWrapper(
        program,
        {
            "toString": program.to_string,
            "program": lambda: program,
            "passTimings": lambda: program.metadata.get("passTimings", []),
            "passReport": lambda: program.metadata.get("passReport", {}),
        },
    )


def _options(option_rules) -> CompilerOptions:
    if option_rules and set(option_rules) == {"options"} and isinstance(
        option_rules["options"], CompilerOptions
    ):
        return option_rules["options"]
    if option_rules:
        return CompilerOptions.from_wolfram(option_rules)
    return CompilerOptions()


def _pipeline(type_environment, macro_environment, option_rules,
              user_passes=None) -> CompilerPipeline:
    return CompilerPipeline(
        type_environment=type_environment,
        macro_environment=macro_environment,
        options=_options(option_rules),
        user_passes=user_passes,
    )


class CompiledCodeFunction(GovernedFunction):
    """The callable artifact of :func:`FunctionCompile` (§4.6)."""

    native_tier = Tier.COMPILED
    #: a boxing failure is not the compiled code's fault: a hosted call
    #: reruns in the interpreter, uncounted by the breaker
    soft_boundary = True
    soft_exceptions = SOFT_FAILURE_EXCEPTIONS
    warning = (
        "CompiledCodeFunction: A compiled code runtime error occurred; "
        "reverting to uncompiled evaluation: {kind}"
    )

    def __init__(
        self,
        program: ProgramModule,
        namespace: dict,
        signature: FunctionType,
        source_function: MExpr,
        evaluator=None,
        options: Optional[CompilerOptions] = None,
    ):
        self.program = program
        self.namespace = namespace
        self.signature = signature
        self.source_function = source_function
        self.evaluator = evaluator
        self.options = options or CompilerOptions()
        self._entry = namespace[sanitize(program.main)]
        #: one boundary check per parameter, chosen from the signature here
        #: so a call does no type dispatch of its own; a tensor parameter
        #: the code hands only to the BLAS arrives as one ndarray
        resident = program.metadata.get("ndarrayParameters", ())
        # without copy insertion there is no entry copy either, so a
        # packed list's buffer must be copied here before the code sees it
        private = self.options.argument_alias or not self.options.copy_insertion
        self._unpackers = tuple(
            unpacker(type_, index in resident, private)
            for index, type_ in enumerate(signature.params)
        )
        if isinstance(signature.result, AtomicType):
            # no tensor to repack: the native runner is the generated entry
            # itself, no wrapper frame between the protocol and the code
            self._native = self._entry
        self.breaker = CircuitBreaker(
            program.main, threshold=CIRCUIT_BREAKER_THRESHOLD,
            start=self.native_tier,
        )

    @property
    def evaluator(self):
        """The host engine, or ``None`` for a standalone artifact."""
        return self._evaluator

    @evaluator.setter
    def evaluator(self, evaluator) -> None:
        # bound per artifact, never process-wide: concurrent sessions
        # cannot detach each other's abort flag (F3)
        self._evaluator = evaluator
        self.namespace["_check_abort"] = partial(
            checkpoint,
            evaluator.abort_flag if evaluator is not None else None,
            "abort.check",
        )

    # -- introspection -------------------------------------------------------------

    @property
    def generated_source(self) -> str:
        return self.namespace.get("__wolfram_source__", "")

    @property
    def profile_counts(self) -> dict:
        """Per-primitive execution counters; populated when compiled with
        ``Profile -> True`` (the §A.6.2 Information flag)."""
        return self.namespace.get("_prof", {})

    def input_form(self) -> str:
        params = ", ".join(str(p) for p in self.signature.params)
        return (
            f"CompiledCodeFunction[{{{params}}} -> {self.signature.result}, "
            f"{input_form(self.source_function)}]"
        )

    def __repr__(self) -> str:
        return f"CompiledCodeFunction[<{self.program.main}>]"

    # -- the boxing boundary (§4.5) ---------------------------------------------------

    def _to_native(self, arguments: tuple) -> list:
        unpackers = self._unpackers
        if len(arguments) != len(unpackers):
            raise WolframRuntimeError(
                "ArgumentCount",
                f"expected {len(unpackers)} arguments, got {len(arguments)}",
            )
        unpacked = []
        for unpack, value in zip(unpackers, arguments):
            unpacked.append(unpack(value))
        return unpacked

    # -- execution (the protocol is GovernedFunction.__call__) ---------------------------

    def _native(self, *unpacked):
        result = self._entry(*unpacked)
        if isinstance(result, PackedArray):
            return _repack(result)
        return result

    def _interpreter_form(self, arguments) -> MExpr:
        return MExprNormal(
            self.source_function, [to_mexpr(a) for a in arguments]
        )

    # -- persistence (the §2.2 versioned-artifact behaviour, F10) ---------------------

    #: compiler version serialized into saved artifacts; stale artifacts
    #: recompile from their stored input function, as §2.2 specifies
    COMPILER_VERSION = "1.0.3.0"

    def save(self, path: str) -> str:
        """Serialize this compiled function (source + version + options)."""
        import json

        from repro.mexpr.serialize import to_wire

        payload = {
            "compilerVersion": self.COMPILER_VERSION,
            "inputFunction": to_wire(self.source_function),
            "generatedSource": self.generated_source,
            "options": self.options.semantic_wolfram(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path

    @classmethod
    def load(cls, path: str, evaluator=None) -> "CompiledCodeFunction":
        """Load a saved artifact; version mismatches recompile from the
        stored input function (the paper's CompiledFunction behaviour)."""
        import json

        from repro.mexpr.serialize import from_wire

        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        source_function = from_wire(payload["inputFunction"])
        # any version skew — or simply loading into a fresh process, where
        # the cached namespace is gone — recompiles from source, under the
        # options save() stored (files older than the block: defaults)
        return FunctionCompile(source_function, evaluator=evaluator,
                               **payload.get("options", {}))

    # -- hosting ----------------------------------------------------------------------

    def install(self, evaluator, name: str) -> None:
        """Bind this compiled function to a symbol in an engine session (F1);
        required for self-recursive fallback (``cfib``)."""
        self.evaluator = evaluator
        handle = _register_with_engine(evaluator, self)
        evaluator.state.set_own_value(
            name, MExprNormal(S.CompiledCodeFunction, [to_mexpr(handle)])
        )

    def _kernel_call(self, expression_spec, argument_values: tuple):
        """The KernelFunction escape hatch used by generated code (F9)."""
        if self.evaluator is None:
            raise WolframRuntimeError(
                "NoKernel", "interpreter escape without a host engine"
            )
        expression, variable_names, result_type = expression_spec
        from repro.engine.patterns import substitute

        bindings = {}
        for name, value in zip(variable_names, argument_values):
            # a copy: the code may write its tensor in place after the
            # escape returns, and the engine may have kept the list
            bindings[name] = (
                _packed_to_mexpr(value.copy())
                if isinstance(value, PackedArray) else to_mexpr(value)
            )
        result = self.evaluator.evaluate(substitute(expression, bindings))
        return _convert_kernel_result(result, result_type)


def _unpack_one(value, type_: Type, private: bool = False):
    """Check and convert one argument at the boundary: the general case
    (``MExpr`` inputs, tensors, ``Expression`` parameters, and whatever the
    scalar fast paths of :func:`unpacker` do not recognise).

    A packed list meets a ``Tensor`` parameter of its element type and
    rank with its own buffer, no element converted — copy insertion
    copies a parameter the code writes, unless ``ArgumentAlias`` says the
    code may write it in place or ``CopyInsertion -> False`` left out the
    entry copy (``private``: then it gets a copy here);
    any other pairing converts as the nested list would, with its errors.
    """
    if type(value) is PackedList and isinstance(type_, CompoundType) and (
        type_.constructor == "Tensor"
    ):
        element, rank = _tensor_shape(type_)
        array = value.array
        if array.element_type == element and rank in (None, len(array.dims)):
            return array.copy() if private else array
    if isinstance(value, MExpr) and not (
        isinstance(type_, AtomicType) and type_.name == "Expression"
    ):
        try:
            value = value.to_python()
        except ValueError:
            pass
    if isinstance(type_, AtomicType) and type_.name == "Expression":
        return to_mexpr(value) if not isinstance(value, MExpr) else value
    if isinstance(type_, CompoundType) and type_.constructor == "Tensor":
        element, rank = _tensor_shape(type_)
        if isinstance(value, PackedArray):
            return value
        if isinstance(value, (list, tuple)):
            return PackedArray.from_nested(value, element, rank=rank)
        if isinstance(value, np.ndarray):
            return PackedArray.resident_from(value, element, rank)
        raise WolframRuntimeError(
            "TypeMismatch", f"{value!r} is not a tensor"
        )
    if not python_check(type_, value):
        raise WolframRuntimeError(
            "TypeMismatch", f"{value!r} does not match {type_}"
        )
    if isinstance(type_, AtomicType) and type_.name == "Real64":
        return float(value)
    if isinstance(type_, AtomicType) and type_.name in INTEGER_RANGES:
        least, greatest = INTEGER_RANGES[type_.name]
        value = int(value)
        if value > greatest or value < least:
            raise IntegerOverflowError()
    return value


def _tensor_shape(type_: CompoundType) -> tuple:
    """``(element type name, rank)`` of a (possibly nested) ``Tensor``
    type; the rank is ``None`` where the type leaves it open."""
    rank = 0
    while isinstance(type_, CompoundType) and type_.constructor == "Tensor":
        level = getattr(type_.params[1], "value", None)
        rank = None if rank is None or type(level) is not int else rank + level
        type_ = type_.params[0]
    return getattr(type_, "name", "Real64"), rank


def unpacker(type_: Type, resident: bool = False, private: bool = False):
    """The boundary check of one declared parameter type, as a function of
    the argument alone.  A machine integer or real that arrives as an exact
    Python ``int``/``float`` — what the hotspot gate and every hosted call
    of a numeric function pass — is checked inline; anything else takes
    :func:`_unpack_one`, so both raise the same errors.  ``resident`` is
    for a tensor parameter whose every use is ndarray-native
    (:func:`repro.compiler.twir.tensors.ndarray_parameters`): a nested
    list becomes an ndarray-resident array, never a flat list.
    ``private`` is ``ArgumentAlias`` or no copy insertion: see
    :func:`_unpack_one`."""
    general = partial(_unpack_one, type_=type_, private=private)
    if resident:
        element, rank = _tensor_shape(type_)

        def unpack_resident(value):
            if type(value) is list:
                return PackedArray.resident_from(value, element, rank)
            return general(value)

        return unpack_resident
    if isinstance(type_, AtomicType) and type_.name == "Integer64":

        def unpack_integer(value):
            if type(value) is int:  # excludes bool, as python_check does
                if value > INT64_MAX or value < INT64_MIN:
                    raise IntegerOverflowError()
                return value
            return general(value)

        return unpack_integer
    if isinstance(type_, AtomicType) and type_.name in INTEGER_RANGES:
        least, greatest = INTEGER_RANGES[type_.name]

        def unpack_narrow(value):
            if type(value) is int and least <= value <= greatest:
                return value
            return general(value)  # raises on a value out of range

        return unpack_narrow
    if isinstance(type_, AtomicType) and type_.name == "Real64":

        def unpack_real(value):
            kind = type(value)
            if kind is float:
                return value
            if kind is int:
                return float(value)
            return general(value)

        return unpack_real
    return general


def _convert_kernel_result(result, result_type):
    """Convert an interpreter result back to the machine type a
    ``Typed[KernelFunction[...], ...]`` annotation promised (F9)."""
    if result_type is None or (
        isinstance(result_type, AtomicType) and result_type.name == "Expression"
    ):
        return result
    try:
        value = result.to_python()
    except (ValueError, AttributeError):
        raise WolframRuntimeError(
            "KernelResultType",
            f"interpreter returned non-{result_type} value {result}",
        ) from None
    if isinstance(result_type, CompoundType):
        element = getattr(result_type.params[0], "name", "Real64")
        return PackedArray.from_nested(value, element)
    if isinstance(result_type, AtomicType):
        name = result_type.name
        if name.startswith("Integer") or name.startswith("UnsignedInteger"):
            if not isinstance(value, int) or isinstance(value, bool):
                raise WolframRuntimeError(
                    "KernelResultType", f"{value!r} is not an integer"
                )
            return value
        if name.startswith("Real"):
            return float(value)
        if name == "Boolean":
            return bool(value)
        if name == "String":
            return str(value)
    return result


def _repack(result: PackedArray):
    """Pack a tensor-of-tensors result into one rectangular PackedArray,
    the way the engine packs rank-n output (e.g. NestList over vectors)."""
    if (
        result.resident is None  # rows are objects: never an ndarray
        and result.data and isinstance(result.data[0], PackedArray)
    ):
        # children are already flat row-major: concatenate their data and
        # prepend the outer length (no per-child nested-list round trip)
        dims = tuple(result.data[0].dims)
        flat: list = []
        for child in result.data:
            if tuple(child.dims) != dims:
                raise WolframRuntimeError(
                    "RaggedArray", "array is not rectangular"
                )
            flat.extend(child.data)
        return PackedArray(
            flat, (len(result.data), *dims), result.data[0].element_type
        )
    return result


#: element type stem -> the atom every element of such a tensor becomes
_ATOMS = {"Integer": MInteger, "UnsignedInteger": MInteger, "Real": MReal,
          "Complex": MComplex}


def _packed_to_mexpr(array: PackedArray) -> MExpr:
    """A tensor as the ``List`` expression the engine takes it back as
    (§4.5 reboxing).  An ``Integer64``/``Real64`` tensor is wrapped as a
    packed list over the same buffer (no atom is made until something
    reads ``args``); any other, in one pass: each element goes through the
    one atom constructor its element type names, and rows are slices of
    that flat list, cut by ``dims`` innermost first."""
    if array.element_type in ("Integer64", "Real64") and array.dims:
        return PackedList.wrap(array)
    atom = _ATOMS.get(array.element_type.rstrip("0123456789"))
    if atom is None or not array.dims or 0 in array.dims:
        return to_mexpr(array.to_nested())
    resident = array.resident
    flat = array.data if resident is None else resident.ravel().tolist()
    items = list(map(atom, flat))
    for size in reversed(array.dims[1:]):
        items = [MExprNormal(S.List, items[start:start + size])
                 for start in range(0, len(items), size)]
    return MExprNormal(S.List, items)


def FunctionCompile(
    function: FunctionLike,
    evaluator=None,
    type_environment: Optional[TypeEnvironment] = None,
    macro_environment: Optional[MacroEnvironment] = None,
    constants: Optional[dict] = None,
    user_passes: Optional[list[UserPass]] = None,
    options: Optional[CompilerOptions] = None,
    bind: Optional[str] = None,
    **option_rules,
) -> CompiledCodeFunction:
    """Compile a function to native (generated-Python) code (§4.1).

    When the persistent artifact cache is enabled (it is by default; see
    :mod:`repro.artifacts`), a previously compiled function — in this or
    any earlier process — is restored from the store without running a
    single pipeline pass."""
    with _observe.span("compile.function", "compiler") as span_record:
        return _function_compile(
            function, evaluator, type_environment, macro_environment,
            constants, user_passes, options, bind, span_record,
            **option_rules,
        )


def _function_compile(
    function, evaluator, type_environment, macro_environment,
    constants, user_passes, options, bind, span_record, **option_rules,
) -> CompiledCodeFunction:
    if options is not None and option_rules:
        raise CompilerError("pass either options= or WL-style option rules")
    if span_record is not None:
        span_record.args["cache"] = "off"
    if options is None:
        options = _options(option_rules)
    source_function = _as_function(function)
    constants = normalize_constants(constants)

    # on first use, as before: importing the compiler does not load the cache
    from repro.artifacts import codec, function_key, get_store

    # key and look up before anything the compile itself needs is built
    store = cache_key = None
    if codec.cacheable(options, user_passes,
                       type_environment, macro_environment):
        store = get_store()
    if store is not None:
        cache_key = function_key(
            source_function, options, backend="python",
            extra={"compiler": CompiledCodeFunction.COMPILER_VERSION},
            constants=constants,
        )
        compiled = codec.lookup(
            store, cache_key, source_function=source_function,
            evaluator=evaluator, options=options, constants=constants,
        )
        if span_record is not None:
            span_record.args["cache"] = "miss" if compiled is None else "hit"
        if compiled is not None:
            return _bound(compiled, evaluator, bind)

    pipeline = _pipeline(type_environment, macro_environment,
                         {"options": options}, user_passes)
    program = pipeline.compile_program(source_function, constants=constants)

    if options.target_system == "WVM":
        # F4: target the existing virtual machine instead of the JIT
        from repro.compiler.codegen.wvm_backend import WVMBackend

        artifact = WVMBackend(program, options).compile_main()
        artifact.evaluator = evaluator
        return artifact

    backend = PythonBackend(program, options)
    compiled_holder: dict[str, CompiledCodeFunction] = {}

    def kernel_call(expression_spec, argument_values):
        return compiled_holder["fn"]._kernel_call(
            expression_spec, argument_values
        )

    namespace = backend.compile(kernel_call=kernel_call)
    main = program.main_function()
    signature = FunctionType(
        tuple(p.type for p in main.parameters), main.result_type
    )
    compiled = CompiledCodeFunction(
        program=program,
        namespace=namespace,
        signature=signature,
        source_function=source_function,
        evaluator=evaluator,
        options=options,
    )
    compiled_holder["fn"] = compiled
    if store is not None:
        codec.store(store, cache_key, program=program,
                    compiled=compiled, backend=backend, constants=constants)
    return _bound(compiled, evaluator, bind)


def _bound(compiled: CompiledCodeFunction, evaluator,
           bind: Optional[str]) -> CompiledCodeFunction:
    if bind is not None:
        if evaluator is None:
            raise CompilerError("bind= requires an evaluator")
        compiled.install(evaluator, bind)
    return compiled


def FunctionCompileExportString(
    function: FunctionLike,
    target: str = "Python",
    type_environment: Optional[TypeEnvironment] = None,
    constants: Optional[dict] = None,
    **option_rules,
) -> str:
    """Textual code for a backend: 'Python', 'IR', or 'WVM' (§A.6.4-5).

    The paper's LLVM/Assembler targets map onto our Python and WVM
    backends — the substitution table in DESIGN.md records why.
    """
    pipeline = _pipeline(type_environment, None, option_rules)
    program = pipeline.compile_program(
        _as_function(function), constants=constants
    )
    if target in ("Python", "LLVM"):
        return PythonBackend(program, pipeline.options).generate_source(
            standalone=True
        )
    if target == "IR":
        return program.to_string()
    if target in ("WVM", "Assembler"):
        from repro.compiler.codegen.wvm_backend import WVMBackend

        return WVMBackend(program, pipeline.options).generate_listing()
    raise CompilerError(f"unknown export target {target!r}")


def FunctionCompileExportLibrary(
    path: str,
    function: FunctionLike,
    **option_rules,
) -> str:
    """Ahead-of-time export to a standalone importable module (F10)."""
    source = FunctionCompileExportString(function, "Python", **option_rules)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(source)
    return path


def LibraryFunctionLoad(path: str):
    """Load a library produced by :func:`FunctionCompileExportLibrary`."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("wolfram_library", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # type: ignore[union-attr]
    return module.Main


# -- engine hosting (F1) ----------------------------------------------------------------

_ENGINE_TABLE_KEY = "compiled_code_functions"


def _register_with_engine(evaluator, compiled: CompiledCodeFunction) -> int:
    table = evaluator.extensions.setdefault(_ENGINE_TABLE_KEY, {})
    handle = len(table) + 1
    table[handle] = compiled
    # the failure log names the handle ``--stats`` prints
    compiled.breaker.function = f"CompiledCodeFunction[{handle}]"
    return handle


def install_engine_support(evaluator) -> None:
    """Teach an engine session FunctionCompile + CompiledCodeFunction (F1),
    auto-compilation for numerical solvers (§1's FindRoot speedup), and
    profile-guided tier-up of hot DownValue definitions."""
    from repro.engine.builtins import HEAD_APPLICATORS
    from repro.runtime.hotspot import enable_hotspot

    HEAD_APPLICATORS["CompiledCodeFunction"] = _apply_compiled_code_function
    evaluator.extensions.setdefault(_ENGINE_TABLE_KEY, {})
    enable_auto_compilation(evaluator)
    enable_hotspot(evaluator)  # idempotent: keeps an existing profiler


def _apply_compiled_code_function(evaluator, head: MExpr, arguments: list):
    from repro.engine.builtins.support import as_number

    handle = as_number(head.args[0]) if head.args else None
    compiled = evaluator.extensions.get(_ENGINE_TABLE_KEY, {}).get(handle)
    if compiled is None:
        return None
    python_arguments = []
    for argument in arguments:
        if type(argument) is PackedList:
            python_arguments.append(argument)  # the boundary takes its buffer
            continue
        try:
            python_arguments.append(argument.to_python())
        except ValueError:
            python_arguments.append(argument)
    result = compiled(*python_arguments)
    if isinstance(result, PackedArray):
        return _packed_to_mexpr(result)
    if isinstance(result, MExpr):
        return result
    return to_mexpr(result)


def enable_auto_compilation(evaluator) -> None:
    """Install the auto-compile hook used by FindRoot and friends (§1)."""
    from repro.engine.numerics.findroot import AUTO_COMPILE_HOOK

    cache: dict = {}

    def hook(equation: MExpr, variable, result_type: str):
        key = (equation, variable.name, result_type)
        if key not in cache:
            typed_param = MExprNormal(
                S.Typed, [MSymbol(variable.name), to_mexpr("Real64")]
            )
            fn = MExprNormal(
                S.Function,
                [MExprNormal(S.List, [typed_param]), equation],
            )
            cache[key] = FunctionCompile(fn, evaluator=evaluator)
        return cache[key]

    evaluator.extensions[AUTO_COMPILE_HOOK] = hook


def disable_auto_compilation(evaluator) -> None:
    from repro.engine.numerics.findroot import AUTO_COMPILE_HOOK

    evaluator.extensions.pop(AUTO_COMPILE_HOOK, None)


# -- the engine-side FunctionCompile builtin -----------------------------------------------


def _register_function_compile_builtin() -> None:
    from repro.engine.attributes import HOLD_ALL
    from repro.engine.builtins.support import builtin

    @builtin("FunctionCompile", HOLD_ALL)
    def function_compile_builtin(evaluator, expression):
        if len(expression.args) != 1:
            return None
        function = evaluator.evaluate(
            MExprNormal(S.Hold, [expression.args[0]])
        ).args[0]
        compiled = FunctionCompile(function, evaluator=evaluator)
        handle = _register_with_engine(evaluator, compiled)
        install_engine_support(evaluator)
        return MExprNormal(S.CompiledCodeFunction, [to_mexpr(handle)])

    @builtin("KernelFunction", HOLD_ALL)
    def kernel_function_builtin(evaluator, expression):
        return None  # inert marker; consumed by the compiler's lowering


_register_function_compile_builtin()
