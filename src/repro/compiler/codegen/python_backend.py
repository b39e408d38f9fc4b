"""The Python code-generation backend — our LLVM-JIT substitute (§4.6).

Generates Python source from fully typed TWIR and compiles it with CPython's
``compile``/``exec`` (the "JIT").  A codegen error is issued if any value is
missing a type, exactly as §4.6 specifies.

Primitive calls splice their inline expression templates by default — this
is the "compiler inlines primitive functions" behaviour §6 credits for the
10× gap over the bytecode compiler — and the expressions nest: the emitter
writes ``h = ((h ^ d[i - 1]) * 16777619) & 4294967295``, not one statement
per SSA value (:class:`PythonBackend` states the rule).  With
``inline_policy="none"`` every primitive becomes a call through the
runtime-library table instead, which is the inlining ablation.

A tensor whose elements are read gets a local for its ``.data`` list (and
one for its column count, if rank 2), so inner-loop element accesses compile
to plain list indexing — the "reduce the frequency of array unboxing"
optimization of §6.
"""

from __future__ import annotations

import functools
import math
import re
import string
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.compiler.codegen.structurize import (
    BlockNode,
    EdgeNode,
    IfNode,
    LoopNode,
    Plan,
    Structurizer,
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
    from repro.runtime.memory import (
        memory_acquire,
        memory_charge,
        memory_release,
    )
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
        "_mem_charge": memory_charge,
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


def module_code(source: str, name: str):
    """Compile one generated module to the code object
    :func:`execute_module` runs and the artifact cache stores."""
    return compile(source, f"<wolfram-compiled:{name}>", "exec")


def execute_module(code, source: str, kernel_call,
                   constants, kernel_expressions) -> dict:
    """Exec one generated module — ``code`` is :func:`module_code` of
    ``source``, just built or restored from the artifact cache — and
    return its namespace, with ``__wolfram_source__`` attached."""
    namespace = runtime_globals(kernel_call, constants, kernel_expressions)
    exec(code, namespace)
    namespace["__wolfram_source__"] = source
    return namespace


@dataclass
class _Pending:
    """A single-use pure result held back to be written inside its
    consumer: in the backend's ``_sequence`` when it may raise (there it
    keeps its place among everything that can), else in ``_free``.
    ``memory`` means it reads tensor data, so it is written out before the
    next store or call."""

    value: Value
    text: str
    reads: frozenset
    memory: bool
    depth: int


_BARE = re.compile(r"[\w.]+\Z")
_LIBRARY_NAME = re.compile(r"_rt\['(\w+)'\]|\b(_c?math)\.(\w+)")

#: deeper trees are named instead of folded: CPython's tokenizer stops at
#: 200 nested parentheses
_MAX_DEPTH = 24

#: what evaluating a piece of generated text does beyond its operands
FREE, RAISES, ACTS = range(3)

#: the operand "index" of the ``{args}`` placeholder: every operand
ALL = -1


def _wrap(text: str) -> str:
    """``text`` as an operand: parenthesised unless it is a name, a number,
    or a name followed only by calls and subscripts."""
    if _BARE.match(text):
        return text
    if text[-1] in ")]" and (text[0].isalpha() or text[0] == "_"):
        depth = 0
        for character in text:
            if character in "([":
                depth += 1
            elif character in ")]":
                depth -= 1
            elif character in "'\"" or depth == 0 and not (
                character.isalnum() or character in "_."
            ):
                break
        else:
            return text
    return f"({text})"


def _field(placeholder: str) -> tuple:
    """``a2_data`` -> ``(2, "data")``, ``a2`` -> ``(2, "")``; ``args`` ->
    ``(ALL, "")``; ``out`` / ``elem`` -> ``(None, name)``."""
    if placeholder == "args":
        return ALL, ""
    digits, _, form = placeholder[1:].partition("_")
    if placeholder[0] == "a" and digits.isdigit():
        return int(digits), form
    return None, placeholder


class _Plan(NamedTuple):
    """What filling one template needs, worked out once per template."""

    #: ``(literal text, operand index or None/ALL, form)`` pieces; with
    #: binding on, every ``_rt['name']`` / ``_math.name`` in the literal
    #: text is a local already
    segments: tuple
    #: the ``(local, initialiser)`` pairs that define those locals as
    #: default arguments of the generated function
    bindings: tuple
    #: operand indices in the order Python evaluates them (with repeats):
    #: textual, except that a store evaluates its value before the
    #: subscript it writes
    order: tuple
    #: a conditional expression may skip an operand
    conditional: bool


def _fields(template: str) -> list:
    return [
        (literal, *(_field(name) if name else (None, None)))
        for literal, name, _, _ in _FORMATTER.parse(template)
    ]


@functools.lru_cache(maxsize=None)
def _plan(template: str, bind: bool) -> _Plan:
    bindings = {}

    def local(match):
        name = (
            f"_rt_{match.group(1)}" if match.group(1)
            else f"{match.group(2)}_{match.group(3)}"
        )
        bindings[name] = match.group(0)
        return name

    evaluated = template
    one_line = "\n" not in template
    if one_line and " = " in template:
        target, _, value = template.partition(" = ")
        if target != "{out}":
            evaluated = value + target
    order = tuple(
        index for _, index, _ in _fields(evaluated) if index is not None
    )
    conditional = one_line and any(
        word in template for word in (" if ", " and ", " or ")
    )
    if bind:
        template = _LIBRARY_NAME.sub(local, template)
    return _Plan(tuple(_fields(template)), tuple(bindings.items()), order,
                 conditional)


@functools.lru_cache(maxsize=None)
def _plans(templates: tuple, bind: bool, arity: int) -> tuple:
    """The plans of the templates of one statement, the operand indices
    they evaluate (in order, once each) and how often each occurs."""
    plans = tuple(_plan(template, bind) for template in templates)
    counts: dict[int, int] = {}
    for plan in plans:
        for index in plan.order:
            for index in range(arity) if index == ALL else (index,):
                counts[index] = counts.get(index, 0) + 1
    return plans, tuple(counts), counts


def _index_offset(instruction) -> Optional[tuple]:
    """``(position of e, c)`` when ``instruction`` computes ``e + c`` with
    ``c`` a literal and no overflow check left on it; else ``None``."""
    if not isinstance(instruction, CallPrimitiveInstr) or (
        instruction.primitive.runtime_name != "plus_unchecked_Integer64"
    ):
        return None
    for position, operand in enumerate(instruction.operands):
        constant = getattr(operand.definition, "value", None)
        if isinstance(operand.definition, ConstantInstr) and (
            type(constant) is int
        ):
            return 1 - position, constant
    return None


class PythonBackend:
    """Generates one Python module for a :class:`ProgramModule`.

    Emission builds expression trees: a scalar constant is written where
    it is used; a pure, unguarded primitive whose result has exactly one
    use in its own block is held back (:class:`_Pending`) and written
    inside that use.  What may be held back past what:

    * a *total* primitive (cannot raise, reads no tensor data) commutes
      with everything, so it folds with no regard to order;
    * one that reads tensor data under a ``part-bounds`` proof cannot
      raise either, but is written out before the next store, call or
      reference-count change;
    * anything else may raise.  Those stay in definition order: a
      consumer takes them only as a run of ``_sequence`` matching the
      order Python evaluates its operands in, and a statement that can
      itself raise or act (a guard, a store, a call, an abort poll, a
      branch) first writes out everything older.

    ``Profile -> True`` and ``InlinePolicy -> None`` name every result.
    """

    def __init__(self, program: ProgramModule,
                 options: Optional[CompilerOptions] = None):
        self.program = program
        self.options = options or CompilerOptions()
        self.constants: list[object] = []
        self.kernel_expressions: list[tuple[MExpr, list[str]]] = []
        #: the module's code object, once :meth:`compile` has built it
        self.code = None
        self._lines: list[str] = []
        self._indent = 0
        self._fold = (
            not self.options.profile
            and self.options.inline_policy != "none"
        )

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
        """Exec the generated module; returns its namespace.  The code
        object stays on ``self.code`` for the artifact cache."""
        source = self.generate_source(standalone=False)
        self.code = module_code(source, self.program.name)
        return execute_module(
            self.code, source, kernel_call,
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
            self._line(
                "from repro.runtime.memory import memory_charge as _mem_charge"
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
        self._scan(function)
        module_lines, self._lines = self._lines, []
        self._indent += 1
        self._emit_plan(function, Structurizer(function).build())
        self._indent -= 1
        if self._free or self._sequence:  # pragma: no cover - backend bug
            raise CodegenError(
                f"results never written out in {function.name}: "
                f"{sorted(self._free)} {[p.value for p in self._sequence]}"
            )
        body, self._lines = self._lines, module_lines
        # library entry points the body calls are looked up once, when the
        # def statement runs, not once per call or per iteration
        parameters = [f"a{i}" for i in range(len(function.parameters))]
        parameters += [f"{name}={init}" for name, init in self._bound.items()]
        self._line(f"def {sanitize(function.name)}({', '.join(parameters)}):")
        self._lines.extend(body)

    def _scan(self, function: FunctionModule) -> None:
        """Per-function tables: use counts, the block of a sole use, which
        tensors have their data list or column count read, the literals."""
        self._names: dict[int, str] = {}
        self._literals: dict[int, str] = {}
        self._free: dict[int, _Pending] = {}
        self._sequence: list[_Pending] = []
        self._bound: dict[str, str] = {}
        self._aliased: set[int] = set()
        uses: dict[int, int] = {}
        where: dict[int, str] = {}
        definitions: dict[int, Instruction] = {}
        data_read: set[int] = set()
        columns_read: set[int] = set()
        length_read: set[int] = set()
        #: how many operand slots take the value only as ``{aN_zero}``
        zero_slots: dict[int, int] = {}
        inline = self.options.inline_policy != "none"
        for block in function.ordered_blocks():
            for phi in block.phis:
                for predecessor, value in phi.incoming:
                    uses[value.id] = uses.get(value.id, 0) + 1
                    where[value.id] = predecessor
            for instruction in block.instructions:
                for operand in instruction.operands:
                    uses[operand.id] = uses.get(operand.id, 0) + 1
                    where[operand.id] = block.name
                if instruction.result is not None:
                    definitions[instruction.result.id] = instruction
                if isinstance(instruction, ConstantInstr):
                    literal = self._literal(instruction)
                    if literal is not None:
                        self._literals[instruction.result.id] = literal
                elif isinstance(instruction, CallPrimitiveInstr) and inline:
                    primitive = instruction.primitive
                    forms: dict[int, set] = {}
                    for template in (primitive.py_inline, primitive.py_guard,
                                     primitive.py_effect):
                        if template is None:
                            continue
                        for _, index, form in _plan(template, True).segments:
                            if form == "data":
                                data_read.add(instruction.operands[index].id)
                            elif form == "cols":
                                columns_read.add(
                                    instruction.operands[index].id)
                            elif form == "len":
                                length_read.add(
                                    instruction.operands[index].id)
                            elif index is not None:
                                forms.setdefault(index, set()).add(form)
                    for index, seen in forms.items():
                        if seen == {"zero"}:
                            operand = instruction.operands[index]
                            zero_slots[operand.id] = (
                                zero_slots.get(operand.id, 0) + 1)
            if block.terminator is not None:
                for operand in block.terminator.operands:
                    uses[operand.id] = uses.get(operand.id, 0) + 1
                    where[operand.id] = block.name
        self._sole_use_in = {
            value_id: where[value_id]
            for value_id, count in uses.items() if count == 1
        }
        self._data_read = data_read
        self._columns_read = columns_read
        self._length_read = length_read
        # an index ``e + c`` that is only ever used less one is computed
        # as ``e + (c - 1)``, once: ``bins[[Mod[x, 256] + 1]]`` indexes
        # with ``x % 256``
        self._zero_based = {
            value_id: found
            for value_id, slots in zero_slots.items()
            if slots == uses.get(value_id)
            and (found := _index_offset(definitions.get(value_id)))
        }

    # -- structured emission ------------------------------------------------------------

    def _emit_plan(self, function: FunctionModule, plan: list[Plan]) -> None:
        """The plan's statements, or ``pass`` if they print nothing."""
        before = len(self._lines)
        for node in plan:
            self._emit_plan_node(function, node)
        if len(self._lines) == before:
            self._line("pass")

    def _emit_plan_node(self, function: FunctionModule, node: Plan) -> None:
        if isinstance(node, BlockNode):
            block = function.blocks[node.name]
            for instruction in block.instructions:
                self._emit_instruction(instruction, block.name)
            if isinstance(block.terminator, ReturnInstr):
                self._emit_return(block.terminator)
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
            self._emit_branch_test(terminator)
            self._indent += 1
            self._emit_plan(function, node.then_plan)
            self._indent -= 1
            self._line("else:")
            self._indent += 1
            self._emit_plan(function, node.else_plan)
            self._indent -= 1
            return
        if isinstance(node, LoopNode):
            self._line("while True:")
            self._indent += 1
            self._emit_plan(function, node.body)
            self._indent -= 1
            return
        raise CodegenError(f"unknown plan node {node!r}")

    def _emit_return(self, terminator: ReturnInstr) -> None:
        if terminator.value is None:
            self._write_out_before(ACTS)
            self._line("return None")
        else:
            self._statement("return {a0_bare}", [terminator.value], ACTS)

    def _emit_branch_test(self, terminator: BranchInstr) -> None:
        # a test that reads tensor data is still evaluated before either
        # arm acts, so it may take such a read in.  Any other held-back
        # read is named here: kept for a phi copy on one edge, a store or
        # return in the other arm would write it out there, on a path its
        # use is not on
        (text,), _, _ = self._render(
            ["if {a0_bare}:"], [terminator.condition], RAISES)
        for value_id in [i for i, p in self._free.items() if p.memory]:
            self._write_out(self._free.pop(value_id))
        self._line(text)

    def _emit_phi_copies(self, function: FunctionModule, source: str,
                         target: str) -> None:
        """The parallel copy of one CFG edge.  A held-back source is
        written straight into the phi's variable; the copies are ordered so
        that none reads a variable an earlier one assigned, and what is
        left of a cycle (a swap) goes through ``_phi`` temporaries."""
        block = function.blocks.get(target)
        if block is None or not block.phis:
            return
        pairs = [
            (phi.result, value)
            for phi in block.phis
            for predecessor, value in phi.incoming
            if predecessor == source and value is not phi.result
        ]
        # oldest held-back source first: writing it out then costs no name
        position = {p.value.id: i for i, p in enumerate(self._sequence)}
        pairs.sort(key=lambda pair: position.get(pair[1].id, -1))
        while pairs:
            ready = next(
                (pair for pair in pairs if not any(
                    pair[0].id in self._reads(other)
                    for _, other in pairs if other is not pair[1]
                )),
                None,
            )
            if ready is None:
                break
            pairs.remove(ready)
            destination, value = ready
            self._statement("{out} = {a0_bare}", [value], FREE, destination)
            self._emit_aliases(destination)
        for index, (_, value) in enumerate(pairs):
            self._statement("{out} = {a0_bare}", [value], FREE,
                            out=f"_phi{index}")
        for index, (destination, _) in enumerate(pairs):
            self._line(f"{self._var(destination)} = _phi{index}")
            self._emit_aliases(destination)

    # -- names, literals, library bindings -----------------------------------------------------

    def _var(self, value: Value) -> str:
        return self._names.get(value.id) or f"v{value.id}"

    def _emit_aliases(self, value: Optional[Value]) -> None:
        """Locals for the data list (§6, "reduce the frequency of array
        unboxing"), its length and the column count of a tensor, when
        something reads them."""
        if value is None or not _is_tensor(value.type):
            return
        name = self._var(value)
        length = f"{name}_d" if value.id in self._data_read else (
            f"{name}.data")
        for suffix, wanted, source in (
            ("d", self._data_read, f"{name}.data"),
            ("n", self._length_read, f"len({length})"),
            ("c", self._columns_read, f"{name}.dims[1]"),
        ):
            if value.id in wanted:
                self._line(f"{name}_{suffix} = {source}")
                self._aliased.add(value.id)

    def _literal(self, instruction: ConstantInstr) -> Optional[str]:
        """Source text of a constant that is written where it is used."""
        value = instruction.value
        if isinstance(value, FunctionRef):
            runtime_name = instruction.properties.get("resolved_runtime")
            function_name = instruction.properties.get("resolved_function")
            if runtime_name is not None:
                if self.options.inline_policy == "none":
                    return f"_rt['{runtime_name}']"
                self._bound[f"_rt_{runtime_name}"] = f"_rt['{runtime_name}']"
                return f"_rt_{runtime_name}"
            if function_name is not None:
                return sanitize(function_name)
            raise CodegenError(f"unresolved function reference {value.name}")
        if value is None or isinstance(value, (bool, int, str)):
            return repr(value)
        if isinstance(value, float):
            return _float_literal(value)
        return None

    # -- expression trees -----------------------------------------------------------------------

    def _held(self, value: Value) -> Optional[_Pending]:
        pending = self._free.get(value.id)
        if pending is None:
            pending = next(
                (p for p in self._sequence if p.value is value), None
            )
        return pending

    def _reads(self, value: Value) -> frozenset:
        """The named values the text of ``value`` will mention."""
        if value.id in self._literals:
            return frozenset()
        pending = self._held(value)
        return pending.reads if pending else frozenset((value.id,))

    def _write_out(self, pending: _Pending) -> None:
        self._line(f"{self._var(pending.value)} = {pending.text}")
        self._emit_aliases(pending.value)

    def _write_out_sequence(self, upto: int) -> None:
        for pending in self._sequence[:upto]:
            self._write_out(pending)
        del self._sequence[:upto]

    def _write_out_before(self, kind: int) -> None:
        """What is written now runs now: everything held back that may
        raise goes first, and a store or call (ACTS) also waits for the
        reads of the data it may change."""
        if self._sequence:
            self._write_out_sequence(len(self._sequence))
        if kind == ACTS and self._free:
            for value_id in [i for i, p in self._free.items() if p.memory]:
                self._write_out(self._free.pop(value_id))

    def _render(self, templates: list[str], operands: list[Value],
                kind: int, result: Optional[Value] = None,
                hold: bool = False, **names: str):
        """Fill ``templates`` with the text of ``operands``, taking
        held-back operands in where that keeps everything that can raise
        in its order.  ``kind`` says what evaluating the templates does
        beyond their operands (FREE nothing, RAISES may raise, ACTS may
        store or call); with ``hold`` the caller will hold the text back
        itself instead of writing it now.

        Returns the rendered templates, a :class:`_Pending` describing
        what they read, and the place in ``_sequence`` of the run of
        raising operands taken in (None when there was none).  Templates
        are constants (their plans are cached for the life of the
        process); what varies besides the operands — ``{out}`` / ``{elem}``
        of ``result``, a callee — comes in as ``names``."""
        # InlinePolicy -> None keeps every library call a look-up in the
        # shared table: that is the ablation, and where fault injection
        # swaps entries
        plans, evaluated, counts = _plans(
            tuple(templates), self.options.inline_policy != "none",
            len(operands))
        for plan in plans:
            if plan.bindings:
                self._bound.update(plan.bindings)
        taken: dict[int, _Pending] = {}
        start = None
        if self._sequence:
            start = self._take_run(plans, operands, evaluated, counts, kind,
                                   taken)
        if self._free:
            for index in evaluated:
                pending = self._free.pop(operands[index].id, None)
                if pending is not None:
                    if counts[index] == 1:
                        taken[index] = pending
                    else:
                        self._write_out(pending)
        if not hold:
            if kind != FREE:
                self._write_out_before(kind)
            elif start is not None:
                self._write_out_sequence(start)
        reads: set = set()
        memory = False
        depth = 0
        texts = []
        for index, operand in enumerate(operands):
            pending = taken.get(index)
            if pending is not None:
                text = pending.text
                reads |= pending.reads
                memory |= pending.memory
                depth = max(depth, pending.depth + 1)
            elif operand.id in self._literals:
                text = self._literals[operand.id]
            else:
                text = self._var(operand)
                if index in counts:
                    reads.add(operand.id)
            texts.append(text)

        def fill(index, form: str) -> str:
            if index is None:
                if form in names:
                    return names[form]
                if form == "out":
                    return self._var(result)
                if form == "elem":
                    return getattr(result.type.params[0], "name", "Real64")
                raise CodegenError(f"unknown template placeholder {{{form}}}")
            if index == ALL:
                return ", ".join(texts)
            text = texts[index]
            if form == "bare":
                return text
            if form == "":
                return _wrap(text)
            operand = operands[index]
            if form == "zero":
                if operand.id in self._zero_based:
                    return text  # computed less one already
                if operand.id in self._literals and (
                    type(operand.definition.value) is int
                ):
                    return str(operand.definition.value - 1)
                return f"{_wrap(text)} - 1"
            named_tensor = index not in taken and operand.id in self._aliased
            if form == "len":
                if named_tensor and operand.id in self._length_read:
                    return f"{text}_n"
                return f"len({_wrap(text)}.data)"
            if form == "data":
                if named_tensor and operand.id in self._data_read:
                    return f"{text}_d"
                return f"{_wrap(text)}.data"
            if named_tensor and operand.id in self._columns_read:
                return f"{text}_c"
            return f"{_wrap(text)}.dims[1]"

        rendered = [
            "".join([
                literal if form is None else literal + fill(index, form)
                for literal, index, form in plan.segments
            ])
            for plan in plans
        ]
        summary = _Pending(result, "", frozenset(reads), memory, depth)
        return rendered, summary, start

    def _take_run(self, plans, operands, evaluated, counts, kind,
                  taken: dict) -> Optional[int]:
        """Take out of ``_sequence`` the longest tail of the raising
        operands that is a run of it in evaluation order, into ``taken``;
        write out the other raising operands with everything older.  A
        text that itself raises or acts may only take the newest; a
        conditional expression may skip an operand, so nothing that can
        raise is folded into one.  Returns where the run was."""
        place = {p.value.id: i for i, p in enumerate(self._sequence)}
        candidates = [i for i in evaluated if operands[i].id in place]
        if not candidates:
            return None
        run: list[int] = []
        if not any(plan.conditional for plan in plans):
            for index in reversed(candidates):
                at = place[operands[index].id]
                expected = (
                    place[operands[run[0]].id] - 1 if run
                    else at if kind == FREE else len(self._sequence) - 1
                )
                if counts[index] != 1 or at != expected:
                    break
                run.insert(0, index)
        named = [i for i in candidates if i not in run]
        if named:
            deepest = max(place[operands[i].id] for i in named)
            if run and deepest > place[operands[run[0]].id]:
                run, deepest = [], max(place[operands[i].id]
                                       for i in candidates)
            self._write_out_sequence(deepest + 1)
        if not run:
            return None
        start = next(i for i, p in enumerate(self._sequence)
                     if p.value is operands[run[0]])
        for index, pending in zip(run, self._sequence[start:start + len(run)]):
            taken[index] = pending
        del self._sequence[start:start + len(run)]
        return start

    def _statement(self, template: str, operands: list[Value],
                   kind: int, result: Optional[Value] = None,
                   **names: str) -> None:
        (text,), _, _ = self._render([template], operands, kind, result,
                                     **names)
        for line in text.split("\n"):
            self._line(line)

    # -- instruction emission -----------------------------------------------------------------

    def _emit_instruction(self, instruction: Instruction,
                          block_name: str) -> None:
        result = instruction.result
        if isinstance(instruction, LoadArgumentInstr):
            self._names[result.id] = f"a{instruction.index}"
            self._emit_aliases(result)
            return
        if isinstance(instruction, ConstantInstr):
            self._emit_constant(instruction)
            return
        if isinstance(instruction, CallPrimitiveInstr):
            self._emit_primitive(instruction, block_name)
            return
        if isinstance(instruction, CallFunctionInstr):
            self._statement(
                "{out} = {callee}({args})", instruction.operands, ACTS,
                result, callee=sanitize(instruction.function_name),
            )
            self._emit_aliases(result)
            return
        if isinstance(instruction, CallIndirectInstr):
            self._statement(
                "{out} = {a0}("
                + ", ".join(f"{{a{i}}}"
                            for i in range(1, len(instruction.operands)))
                + ")",
                instruction.operands, ACTS, result,
            )
            self._emit_aliases(result)
            return
        if isinstance(instruction, BuildListInstr):
            self._emit_build_list(instruction)
            return
        if isinstance(instruction, CopyInstr):
            source = instruction.operands[0]
            template = "{out} = {a0_bare}"
            if _is_tensor(source.type):
                template = ("if _armed[0]: _mem_charge(len({a0_data}))\n"
                            "{out} = PackedArray(list({a0_data}), {a0}.dims, "
                            "{a0}.element_type)")
            self._statement(template, instruction.operands, ACTS, result)
            self._emit_aliases(result)
            return
        if isinstance(instruction, KernelCallInstr):
            index = len(self.kernel_expressions)
            self.kernel_expressions.append(
                (instruction.expression, instruction.variable_names,
                 result.type)
            )
            self._statement(
                "{out} = _kernel(_kexprs[{index}], ({args}{comma}))",
                instruction.operands, ACTS, result, index=str(index),
                comma="," if len(instruction.operands) == 1 else "",
            )
            return
        if isinstance(instruction, CheckAbortInstr):
            self._write_out_before(RAISES)
            self._line("if _armed[0]: _check_abort()")
            return
        if isinstance(instruction, MemoryAcquireInstr):
            self._statement("_mem_acquire({a0_bare})", instruction.operands, ACTS)
            return
        if isinstance(instruction, MemoryReleaseInstr):
            self._statement("_mem_release({a0_bare})", instruction.operands, ACTS)
            return
        if isinstance(instruction, PhiInstr):
            return  # handled on edges
        raise CodegenError(f"cannot emit instruction {instruction}")

    def _emit_constant(self, instruction: ConstantInstr) -> None:
        value = instruction.value
        result = instruction.result
        if result.id in self._literals:
            return
        target = self._var(result)
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
            self._emit_aliases(result)
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
        self._line(f"{target} = {value!r}")

    def _constant_index(self, value) -> int:
        for index, existing in enumerate(self.constants):
            if existing is value:
                return index
        self.constants.append(value)
        return len(self.constants) - 1

    def _emit_build_list(self, instruction: BuildListInstr) -> None:
        result = instruction.result
        result_type = result.type
        if isinstance(result_type, CompoundType) and result_type.params and (
            not _is_tensor(instruction.operands[0].type)
        ):
            template = ("if _armed[0]: _mem_charge({count})\n"
                        "{out} = PackedArray([{args}], ({count},), '{elem}')")
        else:
            template = "{out} = _rt['tensor_from_elements']({args})"
        self._statement(template, instruction.operands, ACTS, result,
                        count=str(len(instruction.operands)))
        self._emit_aliases(result)

    def _guard_of(self, instruction: CallPrimitiveInstr) -> Optional[str]:
        """The primitive's guard, unless the operands of its first test
        are literals that decide it: ``if 256 == 0`` is not emitted."""
        guard = instruction.primitive.py_guard
        if guard is None:
            return None
        test = guard.split("\n", 1)[0]
        if not (test.startswith("if ") and test.endswith(":")):
            return guard
        literals = {}
        for _, index, form in _plan(test, True).segments:
            if form is None:
                continue
            definition = (
                instruction.operands[index].definition
                if form == "" and index != ALL else None
            )
            if not isinstance(definition, ConstantInstr) or (
                type(definition.value) not in (int, float)
            ):
                return guard
            literals[f"a{index}"] = repr(definition.value)
        if eval(test[3:-1].format(**literals), {"__builtins__": {}}):
            return guard
        return None

    def _emit_primitive(self, instruction: CallPrimitiveInstr,
                        block_name: str) -> None:
        primitive = instruction.primitive
        result = instruction.result
        operands = instruction.operands
        if self.options.profile:
            key = instruction.source_name or primitive.runtime_name
            self._line(f"_prof[{key!r}] = _prof.get({key!r}, 0) + 1")
        expression = primitive.py_inline
        guard = self._guard_of(instruction)
        effect = primitive.py_effect
        if result is not None and result.id in self._zero_based:
            position, offset = self._zero_based[result.id]
            expression = (
                f"{{a{position}_bare}}" if offset == 1
                else f"{{a{position}}} + {_wrap(repr(offset - 1))}"
            )
        if expression is None or self.options.inline_policy == "none":
            expression = f"_rt['{primitive.runtime_name}']({{args}})"
            guard = effect = None
        # a rank-1 read inside proven bounds cannot raise; it only has to
        # stay ahead of the next store
        proven_read = (
            primitive.runtime_name == "tensor_part1_unchecked"
            and instruction.properties.get("elided_check") == "part-bounds"
        )
        if effect is not None or not primitive.pure:
            kind = ACTS
        elif guard is None and (primitive.total or proven_read):
            kind = FREE
        else:
            kind = RAISES
        hold = (
            self._fold and kind != ACTS and guard is None
            and result is not None
            and self._sole_use_in.get(result.id) == block_name
            and all(
                pending is None or pending.depth + 1 < _MAX_DEPTH
                for pending in map(self._held, operands)
            )
        )
        if hold:
            (text,), pending, start = self._render(
                [expression], operands, kind, result, hold=True)
            pending.text = text
            pending.memory |= proven_read
            if kind == RAISES or start is not None:
                # in the place of the run it took in, else the newest
                self._sequence.insert(
                    len(self._sequence) if start is None else start,
                    pending,
                )
            else:
                self._free[result.id] = pending
            return
        templates = []
        if guard is not None and "{out}" not in guard:
            templates.append(guard)
        if effect is not None:
            templates.append(effect)
        if result is not None:
            templates.append("{out} = " + expression)
        if guard is not None and "{out}" in guard:
            templates.append(guard)
        rendered, _, _ = self._render(templates, operands, kind, result)
        for text in rendered:
            for line in text.split("\n"):
                self._line(line)
        self._emit_aliases(result)
