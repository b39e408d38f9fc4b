"""The staged compiler pipeline: ``MExpr -> WIR -> TWIR -> codegen`` (§4).

Each stage is a pass over the AST or IR; users can inject their own passes
at any point (§4.7).  Per-pass wall-clock timings are recorded (the internal
benchmark suite of §6 "measures ... time to run specific passes") and can be
streamed to a ``PassLogger``; :meth:`CompilerPipeline.pass_report`
aggregates repeated runs of the same pass (the optimizer loops to a fixed
point, so most passes run several times) into per-name call counts and
totals, and when tracing is enabled (:mod:`repro.observe`) every pass also
emits a ``pass:<name>`` span carrying its IR node-count delta plus a
``pipeline.pass.<name>`` timing histogram.

The resolve stage can introduce untyped instructions (inlined Wolfram-level
implementations), turning the TWIR back into a WIR; the pipeline re-runs
inference until the program stabilizes, exactly as §4.5 describes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.compiler.binding import analyze_bindings
from repro.compiler.macros import (
    MacroEnvironment,
    MacroExpander,
    default_macro_environment,
)
from repro.compiler.options import CompilerOptions
from repro.compiler.twir.abort import insert_abort_checks, strip_abort_checks
from repro.compiler.twir.check_elision import (
    coalesce_checkpoints,
    elide_redundant_checks,
)
from repro.compiler.twir.copy_insert import insert_copies
from repro.compiler.twir.memory import insert_memory_management
from repro.compiler.twir.passes import (
    common_subexpression_elimination,
    constant_propagation,
    dead_code_elimination,
    hoist_constants,
    lint,
    simplify_cfg,
)
from repro.compiler.twir.resolve import FunctionResolver
from repro.compiler.types.builtin_env import default_environment
from repro.compiler.types.environment import TypeEnvironment
from repro.compiler.types.inference import TypeInference
from repro.compiler.types.specifier import (
    FunctionType,
    Type,
    fresh_type_variable,
    parse_type_specifier,
)
from repro.compiler.wir.function_module import FunctionModule, ProgramModule
from repro.compiler.wir.lower import Lowerer
from repro.errors import CompilerError
from repro.mexpr.atoms import MSymbol
from repro.mexpr.expr import MExpr
from repro.mexpr.symbols import is_head
from repro.observe import trace as _trace
from repro.runtime.packed import PackedArray


def _ir_size(subject) -> int:
    """Instruction count of a function module (or whole program module)."""
    if isinstance(subject, ProgramModule):
        return sum(
            _ir_size(function) for function in subject.functions.values()
        )
    return sum(1 for _ in subject.instructions())


@dataclass
class UserPass:
    """A user-injected pass (§4.7): stage 'ast' | 'wir' | 'twir'."""

    stage: str
    run: Callable
    name: str = "user-pass"
    #: predicate over options, like Conditioned macros
    condition: Optional[Callable[[CompilerOptions], bool]] = None


class CompilerPipeline:
    def __init__(
        self,
        type_environment: Optional[TypeEnvironment] = None,
        macro_environment: Optional[MacroEnvironment] = None,
        options: Optional[CompilerOptions] = None,
        user_passes: Optional[list[UserPass]] = None,
    ):
        self.type_environment = type_environment or default_environment()
        self.macro_environment = macro_environment or default_macro_environment()
        self.options = options or CompilerOptions()
        self.user_passes = list(user_passes or [])
        self.pass_timings: list[tuple[str, float]] = []
        #: per-pass-name aggregation: repeated runs of the same pass (the
        #: optimizer loops to a fixed point) *accumulate* here instead of
        #: silently overwriting each other
        self.pass_totals: dict[str, dict] = {}
        #: IR-verifier sanitizer bookkeeping: wall-clock and run count are
        #: tracked *outside* pass_timings/pass_totals so enabling
        #: ``verify_ir`` never skews ``pass_report()`` (which reports
        #: passes, not the sanitizer)
        self.verify_seconds: float = 0.0
        self.verify_runs: int = 0
        #: the program being compiled, for cross-function call checks
        self._program = None

    # -- logging ------------------------------------------------------------------

    def _timed(self, name: str, thunk: Callable, subject=None):
        tracer = _trace.TRACER
        nodes_before = (
            _ir_size(subject) if tracer is not None and subject is not None
            else None
        )
        start = time.perf_counter()
        result = thunk()
        elapsed = time.perf_counter() - start
        self.pass_timings.append((name, elapsed))
        total = self.pass_totals.get(name)
        if total is None:
            total = self.pass_totals[name] = {"calls": 0, "seconds": 0.0}
        total["calls"] += 1
        total["seconds"] += elapsed
        if tracer is not None:
            tracer.metrics.observe(f"pipeline.pass.{name}", elapsed)
            args = {"pass": name}
            if nodes_before is not None:
                nodes_after = _ir_size(subject)
                args["ir_nodes_before"] = nodes_before
                args["ir_nodes_after"] = nodes_after
                args["ir_nodes_delta"] = nodes_after - nodes_before
            tracer.complete(
                f"pass:{name}", "pipeline", tracer.since(start), **args
            )
        logger = self.options.pass_logger
        if logger is not None:
            logger(name, elapsed)
        # verify-each sanitizer: check every invariant after the pass ran
        # and attribute any violation to this pass by name.  Runs *after*
        # the timing/tracing block above, so verifier wall-clock is
        # excluded from the pass's own span and report entry.
        if self.options.verify_ir == "each" and subject is not None:
            self.verify(name, subject)
        return result

    def verify(self, pass_name: str, subject) -> None:
        """Run the IR verifier over ``subject`` (a function or program)
        and raise :class:`~repro.errors.VerificationError` naming
        ``pass_name`` if an invariant is broken.

        Verifier time accumulates in :attr:`verify_seconds` (surfaced as a
        ``verify:<pass>`` span and the ``pipeline.verify`` histogram when
        tracing), never in :meth:`pass_report` pass timings.
        """
        from repro.analyze.verify import (
            raise_on_errors,
            verify_function,
            verify_program,
        )

        start = time.perf_counter()
        if isinstance(subject, ProgramModule):
            diagnostics = verify_program(subject)
            function_name = ""
        else:
            diagnostics = verify_function(subject, program=self._program)
            function_name = subject.name
        elapsed = time.perf_counter() - start
        self.verify_seconds += elapsed
        self.verify_runs += 1
        tracer = _trace.TRACER
        if tracer is not None:
            tracer.metrics.observe("pipeline.verify", elapsed)
            tracer.metrics.count("analyze.verify.runs")
            tracer.complete(
                f"verify:{pass_name}", "analyze", tracer.since(start),
                diagnostics=len(diagnostics),
            )
        raise_on_errors(diagnostics, pass_name, function=function_name)

    def pass_report(self) -> dict[str, dict]:
        """Aggregated per-pass timings: ``{name: {calls, seconds}}``.

        Unlike the raw ``pass_timings`` event list, repeated runs of one
        pass sum their durations and count their invocations, so the report
        answers "what did this pass cost in total" directly.
        """
        return {
            name: dict(total)
            for name, total in sorted(
                self.pass_totals.items(),
                key=lambda item: -item[1]["seconds"],
            )
        }

    def _run_user_passes(self, stage: str, payload):
        for user_pass in self.user_passes:
            if user_pass.stage != stage:
                continue
            if user_pass.condition is not None and not user_pass.condition(
                self.options
            ):
                continue
            result = self._timed(
                f"user:{user_pass.name}", lambda: user_pass.run(payload),
                subject=payload if stage != "ast" else None,
            )
            if stage == "ast" and result is not None:
                payload = result
        return payload

    # -- front end -----------------------------------------------------------------

    def parse_function(self, function: MExpr):
        """Split ``Function[{Typed[x, t], ...}, body]`` into params + body."""
        if not is_head(function, "Function"):
            raise CompilerError("FunctionCompile expects a Function[...]")
        if len(function.args) == 1:
            raise CompilerError(
                "slot-style functions need Typed argument annotations; "
                "use Function[{Typed[x, \"type\"]}, body]"
            )
        params_node, body = function.args[0], function.args[1]
        items = (
            params_node.args if is_head(params_node, "List") else [params_node]
        )
        parameters: list[tuple[str, Optional[Type]]] = []
        for item in items:
            if is_head(item, "Typed") and len(item.args) == 2 and isinstance(
                item.args[0], MSymbol
            ):
                parameters.append(
                    (item.args[0].name, parse_type_specifier(item.args[1]))
                )
            elif isinstance(item, MSymbol):
                parameters.append((item.name, None))
            else:
                raise CompilerError(f"bad compiled-function parameter {item}")
        return parameters, body

    def expand_macros(self, node: MExpr) -> MExpr:
        from repro.compiler.macros import inline_function_bindings

        node = self._timed(
            "lambda-inlining", lambda: inline_function_bindings(node)
        )
        expander = MacroExpander(
            self.macro_environment,
            options={"TargetSystem": self.options.target_system},
        )
        return self._timed("macro-expansion", lambda: expander.expand(node))

    # -- whole-program compilation ------------------------------------------------------

    def compile_program(
        self,
        function: MExpr,
        name: str = "Main",
        constants: Optional[dict[str, object]] = None,
    ) -> ProgramModule:
        program = ProgramModule(name=name)
        program.type_environment = self.type_environment
        parameters, body = self.parse_function(function)
        for parameter, declared in parameters:
            if declared is None:
                raise CompilerError(
                    f"compiled-function argument {parameter} needs a Typed "
                    "annotation (type inference covers everything else, §4.4)"
                )
        body = self._run_user_passes("ast", body)
        body = self.expand_macros(body)

        self._program = program
        try:
            main = self._lower(
                name, parameters, body, constants=constants
            )
            main.information["ArgumentAlias"] = self.options.argument_alias
            main.information["Profile"] = self.options.profile
            program.add_function(main, main=True)
            program.metadata["options"] = self.options

            self._infer_and_resolve(program)
            _prune_unreachable_functions(program)
            self._optimize(program)
            self._semantic_passes(program)
            for function_module in program.functions.values():
                self._timed(
                    "lint", lambda f=function_module: lint(f),
                    subject=function_module,
                )
            if self.options.verify_ir in ("final", "each"):
                self.verify("final", program)
            from repro.compiler.twir.tensors import ndarray_parameters

            program.metadata["ndarrayParameters"] = ndarray_parameters(main)
        finally:
            self._program = None
        program.metadata["passTimings"] = list(self.pass_timings)
        program.metadata["passReport"] = self.pass_report()
        if self.options.verify_ir != "off":
            program.metadata["verify"] = {
                "mode": self.options.verify_ir,
                "runs": self.verify_runs,
                "seconds": self.verify_seconds,
            }
        return program

    def _lower(self, name, parameters, body, constants=None) -> FunctionModule:
        def lower():
            lowerer = Lowerer(name, self.type_environment)
            if constants:
                lowerer = _with_constants(
                    lowerer, normalize_constants(constants)
                )
            return lowerer.lower(parameters, body)

        module = self._timed(f"lower:{name}", lower)
        # the lowering thunk builds the module, so _timed cannot verify it
        # as a subject; sanitize its output here before user passes see it
        if self.options.verify_ir == "each":
            self.verify(f"lower:{name}", module)
        self._run_user_passes("wir", module)
        return module

    def _compile_implementation(
        self, mangled: str, implementation: MExpr, fn_type: FunctionType
    ) -> FunctionModule:
        """Instantiate a Wolfram-level implementation at concrete types."""
        expanded = self.expand_macros(implementation)
        if not is_head(expanded, "Function") or len(expanded.args) != 2:
            raise CompilerError(
                f"implementation of {mangled} must be Function[{{...}}, body]"
            )
        params_node, body = expanded.args
        names = []
        items = (
            params_node.args if is_head(params_node, "List") else [params_node]
        )
        for item in items:
            inner = item.args[0] if is_head(item, "Typed") else item
            names.append(inner.name)
        parameters = list(zip(names, fn_type.params))
        module = self._lower(mangled, parameters, body)
        inference = TypeInference(
            self.type_environment, self_name=mangled, self_type=fn_type
        )
        inference.run(module)
        return module

    def _infer_and_resolve(self, program: ProgramModule) -> None:
        resolver = FunctionResolver(
            program,
            self.type_environment,
            self._compile_implementation,
            inline_policy=self.options.inline_policy,
        )
        for _ in range(32):
            dirty = False
            for function_module in list(program.functions.values()):
                if not function_module.is_typed() or (
                    function_module.result_type is None
                ):
                    self_type = _signature_of(function_module)
                    inference = TypeInference(
                        self.type_environment,
                        self_name=function_module.name,
                        self_type=self_type,
                    )
                    self._timed(
                        f"infer:{function_module.name}",
                        lambda f=function_module, i=inference: i.run(f),
                        subject=function_module,
                    )
                    dirty = True
                needs_reinference = self._timed(
                    f"resolve:{function_module.name}",
                    lambda f=function_module: resolver.run(f),
                    subject=function_module,
                )
                dirty |= needs_reinference
            if not dirty:
                return
        raise CompilerError("inference/resolution did not stabilize")

    def _optimize(self, program: ProgramModule) -> None:
        if self.options.optimization_level < 1:
            return
        from repro.compiler.twir.tensors import simplify_tensors

        passes = [
            ("constant-hoisting", hoist_constants),
            ("constant-propagation", constant_propagation),
            ("cfg-simplification", simplify_cfg),
            ("tensor-simplification",
             lambda f: simplify_tensors(f, program)),
            ("cse", common_subexpression_elimination),
            ("dce", dead_code_elimination),
        ]
        # Profile counts calls of the source program's functions: one
        # tensor Plus stays the one call it was written as
        if self.options.profile:
            passes = [p for p in passes if p[0] != "tensor-simplification"]
        for function_module in program.functions.values():
            for _ in range(8):
                changed = False
                for name, run in passes:
                    changed |= self._timed(
                        name, lambda f=function_module, run=run: run(f),
                        subject=function_module,
                    )
                if not changed:
                    break
            self._run_user_passes("twir", function_module)

    def _semantic_passes(self, program: ProgramModule) -> None:
        from repro import observe
        from repro.compiler.twir.loops import hoist_loop_invariants
        from repro.compiler.twir.tensors import lower_row_addressing

        fact_map = None
        if self.options.dataflow and self.options.optimization_level >= 1:
            from repro.analyze.dataflow import FactMap

            fact_map = FactMap()
        for function_module in program.functions.values():
            facts = None
            if fact_map is not None:
                from repro.analyze.dataflow import analyze_function

                facts = self._timed(
                    "dataflow",
                    lambda f=function_module: analyze_function(f),
                    subject=function_module,
                )
                fact_map[function_module.name] = facts
                total = self.pass_totals["dataflow"]
                total["facts"] = total.get("facts", 0) + sum(
                    facts.fact_counts().values()
                )
            elide = facts is not None and self.options.elide_checks
            if elide:
                counts = self._timed(
                    "check-elision",
                    lambda f=function_module, facts=facts:
                        elide_redundant_checks(f, facts),
                    subject=function_module,
                )
                total = self.pass_totals["check-elision"]
                total["elided"] = total.get("elided", 0) + sum(
                    counts.values()
                )
                observe.count("analysis.checks_elided.int64",
                              counts["int64"])
                observe.count("analysis.checks_elided.bounds",
                              counts["bounds"])
            if self.options.copy_insertion:
                self._timed(
                    "copy-insertion",
                    lambda f=function_module: insert_copies(f),
                    subject=function_module,
                )
            # a store writes into its operand, and its result is that
            # operand: after copy insertion that is also what the program
            # means, and with CopyInsertion -> False it is what was asked for
            from repro.compiler.twir.alias_collapse import (
                collapse_mutation_aliases,
            )

            self._timed(
                "alias-collapse",
                lambda f=function_module: collapse_mutation_aliases(f),
                subject=function_module,
            )
            if self.options.optimization_level >= 1 and (
                not self.options.profile
            ):
                # addressing made explicit only now: the accesses it splits
                # are the ones check elision proved, and after alias
                # collapse a tensor stored into in a loop is one value, so
                # its row base is invariant there.  For the same reason the
                # clean-up shares row bases but no reads: two reads of that
                # one value may have a store between them
                if self._timed(
                    "row-addressing",
                    lambda f=function_module: lower_row_addressing(f),
                    subject=function_module,
                ):
                    self._timed(
                        "cse",
                        lambda f=function_module:
                            common_subexpression_elimination(
                                f, stores_in_place=True),
                        subject=function_module,
                    )
                self._timed(
                    "loop-invariant-motion",
                    lambda f=function_module, facts=facts:
                        hoist_loop_invariants(f, facts),
                    subject=function_module,
                )
            if self.options.abort_handling:
                self._timed(
                    "abort-insertion",
                    lambda f=function_module: insert_abort_checks(f),
                    subject=function_module,
                )
                if elide:
                    coalesced = self._timed(
                        "checkpoint-coalescing",
                        lambda f=function_module, facts=facts:
                            coalesce_checkpoints(f, facts),
                        subject=function_module,
                    )
                    if coalesced:
                        total = self.pass_totals["checkpoint-coalescing"]
                        total["elided"] = total.get("elided", 0) + coalesced
                        observe.count("analysis.checks_elided.checkpoints",
                                      coalesced)
            else:
                strip_abort_checks(function_module)
            if self.options.memory_management:
                self._timed(
                    "memory-management",
                    lambda f=function_module: insert_memory_management(f),
                    subject=function_module,
                )
        if fact_map is not None:
            program.metadata["dataflow"] = fact_map


def _prune_unreachable_functions(program: ProgramModule) -> None:
    """Drop instantiated implementations whose every call was inlined."""
    from repro.compiler.wir.instructions import (
        CallFunctionInstr,
        ConstantInstr,
    )

    referenced: set[str] = set()
    stack = [program.main]
    while stack:
        name = stack.pop()
        if name in referenced or name not in program.functions:
            continue
        referenced.add(name)
        for instruction in program.functions[name].instructions():
            if isinstance(instruction, CallFunctionInstr):
                stack.append(instruction.function_name)
            elif isinstance(instruction, ConstantInstr):
                target = instruction.properties.get("resolved_function")
                if target:
                    stack.append(target)
    for name in list(program.functions):
        if name not in referenced:
            del program.functions[name]


def _signature_of(function_module: FunctionModule) -> FunctionType:
    params = tuple(
        p.type if p.type is not None else fresh_type_variable(p.hint or "p")
        for p in function_module.parameters
    )
    result = (
        function_module.result_type
        if function_module.result_type is not None
        and not getattr(function_module.result_type, "free_variables", lambda: set())()
        else fresh_type_variable("ret")
    )
    return FunctionType(params, result)


class NamedConstants(dict):
    """The normalized ``constants=`` mapping, name to :class:`PackedArray`,
    with ``digests``: for each array built from a list, ``(array, content
    digest)`` as taken while building it — the digest the artifact key
    needs (:func:`repro.artifacts.keys.constants_digest`)."""

    def __init__(self):
        super().__init__()
        self.digests: dict[str, tuple[PackedArray, str]] = {}


#: what a ``constants=`` list normalizes to — ``Integer64``, ``Real64`` or
#: ``nested`` — by its content digest, which spells every element's type,
#: so it decides as surely as the element scan it saves (a list is
#: mutable: never by identity).  Cleared when full.
_ELEMENT_TYPES: dict[str, str] = {}
_ELEMENT_TYPES_MAX = 256


def _element_type(data: list) -> str:
    kinds = set(map(type, data))
    if any(issubclass(k, (list, tuple)) for k in kinds):
        return "nested"
    return "Integer64" if all(issubclass(k, int) for k in kinds) else "Real64"


def normalize_constants(constants: Optional[dict]) -> NamedConstants:
    """The ``constants=`` mapping as named packed arrays — the one object
    both the artifact key and the lowerer read (idempotent: a
    :class:`PackedArray` passes through; a flat list is ``Integer64`` when
    every element is an ``int``, anything else is ``Real64``; a nested
    one is a ``Real64`` tensor).  A list is copied, then digested in one
    pass in C; the element scan runs only for content not seen before."""
    if isinstance(constants, NamedConstants):
        return constants
    packed = NamedConstants()
    if not constants:
        return packed
    from repro.artifacts.keys import content_digest

    for name, data in constants.items():
        if not isinstance(data, PackedArray):
            data = list(data)
            digest = content_digest(data)
            element_type = _ELEMENT_TYPES.get(digest)
            if element_type is None:
                element_type = _element_type(data)
                if len(_ELEMENT_TYPES) >= _ELEMENT_TYPES_MAX:
                    _ELEMENT_TYPES.clear()
                _ELEMENT_TYPES[digest] = element_type
            if element_type == "nested":  # the key digests the flat rows
                data = PackedArray.from_nested(data, "Real64")
            else:
                data = PackedArray(data, (len(data),), element_type)
                packed.digests[name] = (data, digest)
        packed[name] = data
    return packed


def _with_constants(lowerer: Lowerer, packed: dict[str, PackedArray]) -> Lowerer:
    """Teach the lowerer to resolve named embedded constant arrays (§6
    PrimeQ: 'a 2^14 seed table ... embedded into the compiled code as a
    constant array')."""
    from repro.compiler.types.specifier import CompoundType, TypeLiteral, ty

    original = lowerer._lower_symbol

    def lower_symbol(node):
        array = packed.get(node.name)
        if array is not None:
            tensor_type = CompoundType(
                "Tensor", (ty(array.element_type), TypeLiteral(array.rank))
            )
            return lowerer._constant(array, tensor_type, node)
        return original(node)

    lowerer._lower_symbol = lower_symbol  # type: ignore[method-assign]
    return lowerer
