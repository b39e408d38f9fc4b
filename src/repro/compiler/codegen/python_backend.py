"""The Python code-generation backend — our LLVM-JIT substitute (§4.6).

Generates Python source from fully typed TWIR and compiles it with CPython's
``compile``/``exec`` (the "JIT").  A codegen error is issued if any value is
missing a type, exactly as §4.6 specifies.

Primitive calls splice their inline statement templates by default — this is
the "compiler inlines primitive functions" behaviour §6 credits for the 10×
gap over the bytecode compiler.  With ``inline_policy="none"`` every
primitive becomes a call through the runtime-library table instead, which is
the inlining ablation.

Tensor-typed values get a ``.data`` alias local right after definition, so
inner-loop element accesses compile to plain list indexing — the "reduce the
frequency of array unboxing" optimization of §6.
"""

from __future__ import annotations

import math
import string
from typing import Optional

from repro.compiler.codegen.structurize import (
    BlockNode,
    EdgeNode,
    IfNode,
    LoopNode,
    Plan,
    ReturnNode,
    Structurizer,
    StructurizeError,
)
from repro.compiler.options import CompilerOptions
from repro.compiler.types.specifier import CompoundType, Type
from repro.compiler.wir.function_module import FunctionModule, ProgramModule
from repro.compiler.wir.instructions import (
    BranchInstr,
    BuildListInstr,
    CallFunctionInstr,
    CallIndirectInstr,
    CallPrimitiveInstr,
    CheckAbortInstr,
    ConstantInstr,
    CopyInstr,
    FunctionRef,
    Instruction,
    JumpInstr,
    KernelCallInstr,
    LoadArgumentInstr,
    MemoryAcquireInstr,
    MemoryReleaseInstr,
    PhiInstr,
    ReturnInstr,
    Value,
)
from repro.errors import CodegenError
from repro.mexpr.expr import MExpr

_FORMATTER = string.Formatter()


class _TemplateMap(dict):
    def __missing__(self, key):  # pragma: no cover - template typo guard
        raise CodegenError(f"unknown template placeholder {{{key}}}")


def _is_tensor(type_: Optional[Type]) -> bool:
    return isinstance(type_, CompoundType) and type_.constructor in (
        "Tensor", "PackedArray", "List"
    )


def sanitize(name: str) -> str:
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out or "_fn"


def runtime_globals(kernel_call, constants, kernel_expressions) -> dict:
    """The exec namespace generated (non-standalone) modules run in.

    Module-level so a cache-restored artifact (repro.artifacts) can
    re-exec its stored source with a rebuilt constant pool, without a
    live backend or :class:`ProgramModule`.  ``_check_abort`` starts as
    the unbound checkpoint slow path; :class:`CompiledCodeFunction`
    rebinds it to its host engine's abort flag.
    """
    import cmath as _cmath
    import math as _math

    from repro.compiler.runtime_library import RUNTIME
    from repro.errors import IntegerOverflowError, WolframRuntimeError
    from repro.runtime.guard import CHECKPOINT, checkpoint
    from repro.runtime.memory import memory_acquire, memory_release
    from repro.runtime.packed import PackedArray

    def _no_kernel(expression, arguments):  # standalone behaviour (§4.6)
        raise WolframRuntimeError(
            "NoKernel", "interpreter escape without a host engine"
        )

    return {
        "_prof": {},
        "_math": _math,
        "_cmath": _cmath,
        "_rt": RUNTIME,
        "PackedArray": PackedArray,
        "IntegerOverflowError": IntegerOverflowError,
        "WolframRuntimeError": WolframRuntimeError,
        "_armed": CHECKPOINT,
        "_check_abort": checkpoint,
        "_mem_acquire": memory_acquire,
        "_mem_release": memory_release,
        "_consts": constants,
        "_kexprs": kernel_expressions,
        "_kernel": kernel_call or _no_kernel,
    }


def _float_literal(value: float) -> str:
    """Source text for a float: ``repr``, except that ``nan``/``inf`` are
    names no module defines."""
    text = repr(value)
    return text if math.isfinite(value) else f"float({text!r})"


def execute_module(source: str, name: str, kernel_call,
                   constants, kernel_expressions) -> dict:
    """Exec one generated module (fresh or cache-restored) and return its
    namespace, with ``__wolfram_source__`` attached."""
    namespace = runtime_globals(kernel_call, constants, kernel_expressions)
    code = compile(source, f"<wolfram-compiled:{name}>", "exec")
    exec(code, namespace)
    namespace["__wolfram_source__"] = source
    return namespace


class PythonBackend:
    """Generates one Python module for a :class:`ProgramModule`."""

    def __init__(self, program: ProgramModule,
                 options: Optional[CompilerOptions] = None):
        self.program = program
        self.options = options or CompilerOptions()
        self.constants: list[object] = []
        self.kernel_expressions: list[tuple[MExpr, list[str]]] = []
        self._lines: list[str] = []
        self._indent = 0
        self._aliased: set[int] = set()

    # -- source assembly ---------------------------------------------------------

    def generate_source(self, standalone: bool = False) -> str:
        self._lines = []
        self.constants = []
        self.kernel_expressions = []
        self._emit_prelude(standalone)
        ordered = sorted(
            self.program.functions,
            key=lambda name: name != self.program.main,
        )
        # emit callees first so references resolve at def time
        for name in reversed(ordered):
            self._emit_function(self.program.functions[name])
            self._line("")
        if standalone:
            self._emit_standalone_constants()
        return "\n".join(self._lines) + "\n"

    def compile(self, kernel_call=None) -> dict:
        """Exec the generated module; returns its namespace."""
        source = self.generate_source(standalone=False)
        return execute_module(
            source, self.program.name, kernel_call,
            self.constants, self.kernel_expressions,
        )

    def _emit_prelude(self, standalone: bool) -> None:
        self._line(f"# generated by the Wolfram compiler Python backend")
        self._line(f"# program: {self.program.name}")
        if standalone:
            self._line("_prof = {}")
            self._line("import math as _math")
            self._line("import cmath as _cmath")
            self._line("from repro.runtime.packed import PackedArray")
            self._line(
                "from repro.errors import IntegerOverflowError, "
                "WolframRuntimeError"
            )
            self._line(
                "from repro.compiler.runtime_library import RUNTIME as _rt"
            )
            self._line(
                "# abortability is engine-hosted only (§4.6); deadline and "
                "budget guards"
            )
            self._line(
                "# are engine-independent and still enforced by wall clock"
            )
            self._line(
                "from repro.runtime.guard import CHECKPOINT as _armed, "
                "checkpoint as _check_abort"
            )
            self._line("def _mem_acquire(v):")
            self._line("    return v")
            self._line("def _mem_release(v):")
            self._line("    return v")
            self._line("def _kernel(expression, arguments):")
            self._line(
                "    raise WolframRuntimeError('NoKernel', "
                "'standalone code cannot escape to the interpreter')"
            )
            self._line("")

    def _emit_standalone_constants(self) -> None:
        self._line("_kexprs = []")
        parts = []
        for constant in self.constants:
            from repro.runtime.packed import PackedArray

            if isinstance(constant, PackedArray):
                parts.append(
                    f"PackedArray({constant.data!r}, {constant.dims!r}, "
                    f"{constant.element_type!r})"
                )
            else:
                parts.append(repr(constant))
        self._line("_consts = [")
        for part in parts:
            self._line(f"    {part},")
        self._line("]")

    # -- function emission -------------------------------------------------------------

    def _line(self, text: str) -> None:
        self._lines.append(("    " * self._indent) + text if text else "")

    def _emit_function(self, function: FunctionModule) -> None:
        if not function.is_typed():
            untyped = [v for v in function.values() if v.type is None]
            raise CodegenError(
                f"cannot generate code: values missing types in "
                f"{function.name}: {untyped[:5]}"
            )
        self._aliased = set()
        parameters = ", ".join(
            f"a{i}" for i in range(len(function.parameters))
        )
        self._line(f"def {sanitize(function.name)}({parameters}):")
        self._indent += 1
        try:
            plan = Structurizer(function).build()
        except StructurizeError:
            plan = None
        if plan is not None:
            self._emit_plan(function, plan)
        else:
            self._emit_dispatcher(function)
        self._indent -= 1

    # -- structured emission ------------------------------------------------------------

    def _emit_plan(self, function: FunctionModule, plan: list[Plan]) -> None:
        if not plan:
            self._line("pass")
            return
        for node in plan:
            self._emit_plan_node(function, node)

    def _emit_plan_node(self, function: FunctionModule, node: Plan) -> None:
        if isinstance(node, BlockNode):
            block = function.blocks[node.name]
            for instruction in block.instructions:
                self._emit_instruction(instruction)
            return
        if isinstance(node, ReturnNode):
            block = function.blocks[node.block]
            terminator = block.terminator
            assert isinstance(terminator, ReturnInstr)
            if terminator.value is not None:
                self._line(f"return {self._ref(terminator.value)}")
            else:
                self._line("return None")
            return
        if isinstance(node, EdgeNode):
            self._emit_phi_copies(function, node.source, node.target)
            if node.transfer == "continue":
                self._line("continue")
            elif node.transfer == "break":
                self._line("break")
            return
        if isinstance(node, IfNode):
            block = function.blocks[node.block]
            terminator = block.terminator
            assert isinstance(terminator, BranchInstr)
            self._line(f"if {self._ref(terminator.condition)}:")
            self._indent += 1
            self._emit_plan_or_pass(function, node.then_plan)
            self._indent -= 1
            self._line("else:")
            self._indent += 1
            self._emit_plan_or_pass(function, node.else_plan)
            self._indent -= 1
            return
        if isinstance(node, LoopNode):
            self._line("while True:")
            self._indent += 1
            self._emit_plan_or_pass(function, node.body)
            self._indent -= 1
            return
        raise CodegenError(f"unknown plan node {node!r}")

    def _emit_plan_or_pass(self, function: FunctionModule,
                           plan: list[Plan]) -> None:
        before = len(self._lines)
        self._emit_plan(function, plan)
        if len(self._lines) == before:
            self._line("pass")

    def _emit_phi_copies(self, function: FunctionModule, source: str,
                         target: str) -> None:
        block = function.blocks.get(target)
        if block is None or not block.phis:
            return
        pairs = []
        for phi in block.phis:
            for predecessor, value in phi.incoming:
                if predecessor == source:
                    pairs.append((phi.result, value))
        if not pairs:
            return
        destinations = {destination for destination, _ in pairs}
        needs_temps = any(value in destinations for _, value in pairs)
        if needs_temps and len(pairs) > 1:
            for position, (destination, value) in enumerate(pairs):
                self._line(f"_phi{position} = {self._ref(value)}")
            for position, (destination, _) in enumerate(pairs):
                self._line(f"{self._var(destination)} = _phi{position}")
        else:
            for destination, value in pairs:
                self._line(f"{self._var(destination)} = {self._ref(value)}")
        for destination, _ in pairs:
            self._maybe_alias(destination)

    # -- dispatcher fallback --------------------------------------------------------------

    def _emit_dispatcher(self, function: FunctionModule) -> None:
        """State-machine emission: correct for any CFG shape."""
        self._line(f"_state = {function.entry!r}")
        self._line("while True:")
        self._indent += 1
        first = True
        for block in function.ordered_blocks():
            keyword = "if" if first else "elif"
            first = False
            self._line(f"{keyword} _state == {block.name!r}:")
            self._indent += 1
            emitted = False
            for instruction in block.instructions:
                self._emit_instruction(instruction)
                emitted = True
            terminator = block.terminator
            if isinstance(terminator, ReturnInstr):
                value = (
                    self._ref(terminator.value)
                    if terminator.value is not None
                    else "None"
                )
                self._line(f"return {value}")
            elif isinstance(terminator, JumpInstr):
                self._emit_phi_copies(function, block.name, terminator.target)
                self._line(f"_state = {terminator.target!r}")
                self._line("continue")
            elif isinstance(terminator, BranchInstr):
                self._line(f"if {self._ref(terminator.condition)}:")
                self._indent += 1
                self._emit_phi_copies(function, block.name,
                                      terminator.true_target)
                self._line(f"_state = {terminator.true_target!r}")
                self._indent -= 1
                self._line("else:")
                self._indent += 1
                self._emit_phi_copies(function, block.name,
                                      terminator.false_target)
                self._line(f"_state = {terminator.false_target!r}")
                self._indent -= 1
                self._line("continue")
            elif not emitted:
                self._line("pass")
            self._indent -= 1
        self._indent -= 1

    # -- instruction emission -----------------------------------------------------------------

    def _var(self, value: Value) -> str:
        return f"v{value.id}"

    def _ref(self, value: Value) -> str:
        return self._var(value)

    def _data_ref(self, value: Value) -> str:
        if value.id in self._aliased:
            return f"v{value.id}_d"
        return f"v{value.id}.data"

    def _maybe_alias(self, value: Optional[Value]) -> None:
        if value is None:
            return
        if _is_tensor(value.type):
            self._line(f"v{value.id}_d = v{value.id}.data")
            self._aliased.add(value.id)

    def _emit_instruction(self, instruction: Instruction) -> None:
        if isinstance(instruction, LoadArgumentInstr):
            self._line(f"{self._var(instruction.result)} = "
                       f"a{instruction.index}")
            self._maybe_alias(instruction.result)
            return
        if isinstance(instruction, ConstantInstr):
            self._emit_constant(instruction)
            return
        if isinstance(instruction, CallPrimitiveInstr):
            self._emit_primitive(instruction)
            return
        if isinstance(instruction, CallFunctionInstr):
            args = ", ".join(self._ref(v) for v in instruction.operands)
            self._line(
                f"{self._var(instruction.result)} = "
                f"{sanitize(instruction.function_name)}({args})"
            )
            self._maybe_alias(instruction.result)
            return
        if isinstance(instruction, CallIndirectInstr):
            callee, *arguments = instruction.operands
            args = ", ".join(self._ref(v) for v in arguments)
            self._line(
                f"{self._var(instruction.result)} = "
                f"{self._ref(callee)}({args})"
            )
            self._maybe_alias(instruction.result)
            return
        if isinstance(instruction, BuildListInstr):
            self._emit_build_list(instruction)
            return
        if isinstance(instruction, CopyInstr):
            source = instruction.operands[0]
            if _is_tensor(source.type):
                self._line(
                    f"{self._var(instruction.result)} = PackedArray("
                    f"list({self._data_ref(source)}), {self._ref(source)}.dims,"
                    f" {self._ref(source)}.element_type)"
                )
            else:
                self._line(
                    f"{self._var(instruction.result)} = {self._ref(source)}"
                )
            self._maybe_alias(instruction.result)
            return
        if isinstance(instruction, KernelCallInstr):
            index = len(self.kernel_expressions)
            result_type = instruction.result.type
            self.kernel_expressions.append(
                (instruction.expression, instruction.variable_names,
                 result_type)
            )
            args = ", ".join(self._ref(v) for v in instruction.operands)
            trailing = "," if len(instruction.operands) == 1 else ""
            self._line(
                f"{self._var(instruction.result)} = "
                f"_kernel(_kexprs[{index}], ({args}{trailing}))"
            )
            return
        if isinstance(instruction, CheckAbortInstr):
            self._line("if _armed[0]: _check_abort()")
            return
        if isinstance(instruction, MemoryAcquireInstr):
            self._line(f"_mem_acquire({self._ref(instruction.operands[0])})")
            return
        if isinstance(instruction, MemoryReleaseInstr):
            self._line(f"_mem_release({self._ref(instruction.operands[0])})")
            return
        if isinstance(instruction, PhiInstr):
            return  # handled on edges
        raise CodegenError(f"cannot emit instruction {instruction}")

    def _emit_constant(self, instruction: ConstantInstr) -> None:
        value = instruction.value
        target = self._var(instruction.result)
        if isinstance(value, FunctionRef):
            runtime_name = instruction.properties.get("resolved_runtime")
            function_name = instruction.properties.get("resolved_function")
            if runtime_name is not None:
                self._line(f"{target} = _rt[{runtime_name!r}]")
            elif function_name is not None:
                self._line(f"{target} = {sanitize(function_name)}")
            else:
                raise CodegenError(
                    f"unresolved function reference {value.name}"
                )
            return
        from repro.runtime.packed import PackedArray

        if isinstance(value, PackedArray):
            index = self._constant_index(value)
            if self.options.constant_array_handling == "naive":
                # re-materialized per execution: the §6 PrimeQ 1.5× issue
                self._line(
                    f"{target} = PackedArray(list(_consts[{index}].data), "
                    f"_consts[{index}].dims, _consts[{index}].element_type)"
                )
            else:
                self._line(f"{target} = _consts[{index}]")
            self._maybe_alias(instruction.result)
            return
        if isinstance(value, MExpr):
            index = self._constant_index(value)
            self._line(f"{target} = _consts[{index}]")
            return
        if isinstance(value, complex):
            self._line(
                f"{target} = complex({_float_literal(value.real)}, "
                f"{_float_literal(value.imag)})"
            )
            return
        if value is None:
            self._line(f"{target} = None")
            return
        if isinstance(value, float):
            self._line(f"{target} = {_float_literal(value)}")
            return
        self._line(f"{target} = {value!r}")

    def _constant_index(self, value) -> int:
        for index, existing in enumerate(self.constants):
            if existing is value:
                return index
        self.constants.append(value)
        return len(self.constants) - 1

    def _emit_build_list(self, instruction: BuildListInstr) -> None:
        result_type = instruction.result.type
        target = self._var(instruction.result)
        elements = ", ".join(self._ref(v) for v in instruction.operands)
        if isinstance(result_type, CompoundType) and result_type.params and (
            not _is_tensor(instruction.operands[0].type)
        ):
            element_type = getattr(result_type.params[0], "name", "Real64")
            count = len(instruction.operands)
            self._line(
                f"{target} = PackedArray([{elements}], ({count},), "
                f"{element_type!r})"
            )
        else:
            self._line(f"{target} = _rt['tensor_from_elements']({elements})")
        self._maybe_alias(instruction.result)

    def _emit_primitive(self, instruction: CallPrimitiveInstr) -> None:
        primitive = instruction.primitive
        template = primitive.py_inline
        result = instruction.result
        if self.options.profile:
            key = instruction.source_name or primitive.runtime_name
            self._line(f"_prof[{key!r}] = _prof.get({key!r}, 0) + 1")
        if template is None or self.options.inline_policy == "none":
            args = ", ".join(self._ref(v) for v in instruction.operands)
            call = f"_rt[{primitive.runtime_name!r}]({args})"
            if result is None:
                self._line(call)
            else:
                self._line(f"{self._var(result)} = {call}")
                self._maybe_alias(result)
            return
        mapping = _TemplateMap()
        mapping["out"] = self._var(result) if result is not None else "_"
        mapping["args"] = ", ".join(
            self._ref(v) for v in instruction.operands
        )
        for position, operand in enumerate(instruction.operands):
            mapping[f"a{position}"] = self._ref(operand)
            mapping[f"a{position}_data"] = self._data_ref(operand)
        rendered = _FORMATTER.vformat(template, (), mapping)
        for line in rendered.split("\n"):
            # alias-collapsed results: drop the now-pointless out-assignment
            if result is None and line.lstrip().startswith("_ ="):
                continue
            self._line(line)
        if result is not None:
            self._maybe_alias(result)
