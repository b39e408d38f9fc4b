"""The Wolfram Virtual Machine: the bytecode interpreter.

Register machine execution with the baseline's characteristic costs (§6):

* every instruction dispatches through the Python-level interpreter loop
  (the "bytecode interpretation/JIT cost", limitation L3);
* tensor loads/stores cross the :class:`BoxedTensor` boundary, paying the
  unboxing and index-predication overhead on every access;
* machine-integer operations are range-checked; overflow raises the runtime
  error that triggers the soft fallback (F2);
* every backward jump is a checkpoint of the shared protocol
  (:mod:`repro.runtime.guard`), so bytecode is abortable (F3) and bounded
  by deadlines and step budgets; tensor allocations are charged to memory
  budgets, so ``TimeConstrained``/``MemoryConstrained`` reach it too;
* each instruction boundary is a named fault-injection site
  (``vm.instruction``), so tests can prove mid-loop unwinds are clean;
* when tracing is enabled (:mod:`repro.observe`) each ``run`` emits a
  ``vm.run`` span and the ``vm.instructions`` / ``vm.dispatches``
  counters; disabled, the loop pays one ``None`` test per instruction.
"""

from __future__ import annotations

import cmath
import math
import random as _random
from typing import Callable, Optional

from repro.bytecode.boxed import BoxedTensor
from repro.bytecode.instructions import Instruction, Op
from repro.errors import WolframRuntimeError
from repro.observe import trace as _trace
from repro.runtime.checked import check_int64 as _check_int
from repro.runtime.guard import CHECKPOINT, charge_memory, checkpoint
from repro.testing import faults as _faults

#: ``MATH_UNARY`` sub-code -> callable: the ``call`` of the ``math_*`` row
#: in the primitive table whose ``wvm`` names the sub-code (it takes real
#: and complex operands alike); the table has no row for the rest
_MATH_FUNCS: dict[int, Callable] = {}


def _init_math_table() -> None:
    from repro.bytecode.instructions import MATH_CODES
    from repro.compiler.runtime_library import PRIMITIVE_IMPLS

    table = {
        "Log2": lambda x: (cmath.log(x) / math.log(2)
                           if isinstance(x, complex) else math.log2(x)),
        "Log10": lambda x: (cmath.log10(x)
                            if isinstance(x, complex) else math.log10(x)),
        "Neg": lambda x: -x,
        "Arg": lambda x: math.atan2(x.imag if isinstance(x, complex) else 0.0,
                                    x.real if isinstance(x, complex) else x),
    }
    for name, row in PRIMITIVE_IMPLS.items():
        if row.wvm in MATH_CODES and name.startswith("math_"):
            table[row.wvm] = row.call
    for name, code in MATH_CODES.items():
        _MATH_FUNCS[code] = table[name]


_init_math_table()


def _elementwise(op: Callable, a, b):
    """Boxed tensor arithmetic: unbox, apply, rebox — per element (§6)."""
    a_is_tensor = isinstance(a, BoxedTensor)
    b_is_tensor = isinstance(b, BoxedTensor)
    if a_is_tensor and b_is_tensor:
        if a.length != b.length:
            raise WolframRuntimeError("ShapeMismatch", "unequal tensor lengths")
        return BoxedTensor(
            [_elementwise(op, x, y) for x, y in zip(a.rows, b.rows)],
            a.type_char,
        )
    if a_is_tensor:
        return BoxedTensor([_elementwise(op, x, b) for x in a.rows], a.type_char)
    if b_is_tensor:
        return BoxedTensor([_elementwise(op, a, y) for y in b.rows], b.type_char)
    result = op(a, b)
    if isinstance(result, int):
        return _check_int(result)
    return result


def _binary_add(a, b):
    return a + b


def _binary_sub(a, b):
    return a - b


def _binary_mul(a, b):
    return a * b


def _binary_div(a, b):
    if b == 0:
        raise WolframRuntimeError("DivideByZero", "division by zero")
    result = a / b
    return result


def _binary_pow(a, b):
    if isinstance(a, int) and isinstance(b, int) and b < 0:
        return float(a) ** b
    result = a ** b
    return result


class WVM:
    """Executes one compiled function's instruction stream."""

    def __init__(self, evaluator=None):
        self.evaluator = evaluator
        #: the host's abort flag (F3); ``None`` standalone
        self.abort_flag = (
            evaluator.abort_flag if evaluator is not None else None
        )
        self.random = _random.Random()

    def run(self, instructions: list[Instruction], constants: list,
            arguments: list, register_total: int):
        tracer = _trace.TRACER
        if tracer is None:
            return self._run(instructions, constants, arguments,
                             register_total, None)
        start = tracer.now()
        executed_box = [0]
        try:
            return self._run(instructions, constants, arguments,
                             register_total, executed_box)
        finally:
            metrics = tracer.metrics
            metrics.count("vm.dispatches")
            metrics.count("vm.instructions", executed_box[0])
            tracer.complete("vm.run", "bytecode", start,
                            instructions=executed_box[0])

    def _run(self, instructions: list[Instruction], constants: list,
             arguments: list, register_total: int,
             executed_box: Optional[list]):
        regs: list = [None] * max(register_total, 1)
        pc = 0
        count = len(instructions)
        abort_flag = self.abort_flag
        armed = CHECKPOINT  # backward jumps are the VM's checkpoints (§4.5)
        while pc < count:
            if _faults._INJECTOR is not None:
                _faults.fire("vm.instruction")
            if executed_box is not None:
                executed_box[0] += 1
            ins = instructions[pc]
            op = ins.op
            operands = ins.operands
            if op == Op.ADD:
                a, b = regs[operands[0]], regs[operands[1]]
                if type(a) is int and type(b) is int:
                    regs[ins.target] = _check_int(a + b)
                else:
                    regs[ins.target] = _elementwise(_binary_add, a, b)
            elif op == Op.SUB:
                a, b = regs[operands[0]], regs[operands[1]]
                if type(a) is int and type(b) is int:
                    regs[ins.target] = _check_int(a - b)
                else:
                    regs[ins.target] = _elementwise(_binary_sub, a, b)
            elif op == Op.MUL:
                a, b = regs[operands[0]], regs[operands[1]]
                if type(a) is int and type(b) is int:
                    regs[ins.target] = _check_int(a * b)
                else:
                    regs[ins.target] = _elementwise(_binary_mul, a, b)
            elif op == Op.DIV:
                regs[ins.target] = _elementwise(
                    _binary_div, regs[operands[0]], regs[operands[1]]
                )
            elif op == Op.POW:
                regs[ins.target] = _elementwise(
                    _binary_pow, regs[operands[0]], regs[operands[1]]
                )
            elif op == Op.MOD:
                b = regs[operands[1]]
                if b == 0:
                    raise WolframRuntimeError("DivideByZero", "Mod by zero")
                regs[ins.target] = regs[operands[0]] % b
            elif op == Op.QUOT:
                b = regs[operands[1]]
                if b == 0:
                    raise WolframRuntimeError("DivideByZero", "Quotient by zero")
                regs[ins.target] = regs[operands[0]] // b
            elif op == Op.MIN:
                regs[ins.target] = min(regs[operands[0]], regs[operands[1]])
            elif op == Op.MAX:
                regs[ins.target] = max(regs[operands[0]], regs[operands[1]])
            elif op == Op.LT:
                regs[ins.target] = regs[operands[0]] < regs[operands[1]]
            elif op == Op.LE:
                regs[ins.target] = regs[operands[0]] <= regs[operands[1]]
            elif op == Op.GT:
                regs[ins.target] = regs[operands[0]] > regs[operands[1]]
            elif op == Op.GE:
                regs[ins.target] = regs[operands[0]] >= regs[operands[1]]
            elif op == Op.EQ:
                regs[ins.target] = regs[operands[0]] == regs[operands[1]]
            elif op == Op.NE:
                regs[ins.target] = regs[operands[0]] != regs[operands[1]]
            elif op == Op.NOT:
                regs[ins.target] = not regs[operands[0]]
            elif op == Op.MATH_UNARY:
                func = _MATH_FUNCS[operands[0]]
                value = regs[operands[1]]
                if isinstance(value, BoxedTensor):
                    regs[ins.target] = _map_tensor(func, value)
                else:
                    result = func(value)
                    if isinstance(result, int):
                        result = _check_int(result)
                    regs[ins.target] = result
            elif op == Op.MOVE:
                regs[ins.target] = regs[operands[0]]
            elif op == Op.LOAD_CONST:
                regs[ins.target] = constants[operands[0]]
            elif op == Op.LOAD_ARG:
                regs[ins.target] = arguments[operands[0]]
            elif op == Op.JUMP:
                destination = operands[0]
                if destination <= pc and armed[0]:
                    checkpoint(abort_flag)
                pc = destination
                continue
            elif op == Op.JUMP_IF:
                if regs[operands[1]]:
                    destination = operands[0]
                    if destination <= pc and armed[0]:
                        checkpoint(abort_flag)
                    pc = destination
                    continue
            elif op == Op.JUMP_IF_NOT:
                if not regs[operands[1]]:
                    destination = operands[0]
                    if destination <= pc and armed[0]:
                        checkpoint(abort_flag)
                    pc = destination
                    continue
            elif op == Op.RETURN:
                return regs[operands[0]] if operands else None
            elif op == Op.TENSOR_GET:
                tensor = regs[operands[0]]
                if not isinstance(tensor, BoxedTensor):
                    raise WolframRuntimeError("TypeMismatch", "Part of a scalar")
                index = regs[operands[1]]
                regs[ins.target] = tensor.get(index)
            elif op == Op.TENSOR_SET:
                tensor = regs[ins.target]
                if not isinstance(tensor, BoxedTensor):
                    raise WolframRuntimeError("TypeMismatch", "Part of a scalar")
                tensor.set(regs[operands[0]], regs[operands[1]])
            elif op == Op.TENSOR_LENGTH:
                tensor = regs[operands[0]]
                regs[ins.target] = (
                    tensor.length if isinstance(tensor, BoxedTensor) else 0
                )
            elif op == Op.TENSOR_CREATE:
                length = regs[operands[0]]
                fill = regs[operands[1]]
                charge_memory(8 * int(length))
                regs[ins.target] = BoxedTensor([fill] * int(length), "r")
            elif op == Op.TENSOR_COPY:
                tensor = regs[operands[0]]
                if isinstance(tensor, BoxedTensor):
                    charge_memory(8 * tensor.length)
                    regs[ins.target] = tensor.copy()
                else:
                    regs[ins.target] = tensor
            elif op == Op.TENSOR_FROM_REGS:
                charge_memory(8 * len(operands))
                regs[ins.target] = BoxedTensor(
                    [regs[r] for r in operands], "r"
                )
            elif op == Op.TENSOR_DOT:
                from repro.runtime.blas import dot_nested

                a, b = regs[operands[0]], regs[operands[1]]
                result = dot_nested(
                    a.to_nested() if isinstance(a, BoxedTensor) else a,
                    b.to_nested() if isinstance(b, BoxedTensor) else b,
                )
                regs[ins.target] = (
                    BoxedTensor.from_nested(result, "r")
                    if isinstance(result, list)
                    else result
                )
            elif op == Op.TENSOR_TOTAL:
                tensor = regs[operands[0]]
                total = 0
                for item in tensor.rows:
                    total = total + item
                if isinstance(total, int):
                    total = _check_int(total)
                regs[ins.target] = total
            elif op == Op.EVAL_EXPR:
                regs[ins.target] = self._eval_escape(ins, regs)
            elif op == Op.CAST_REAL:
                regs[ins.target] = float(regs[operands[0]])
            elif op == Op.CAST_INT:
                regs[ins.target] = int(regs[operands[0]])
            elif op == Op.RANDOM_REAL:
                regs[ins.target] = self.random.uniform(
                    regs[operands[0]], regs[operands[1]]
                )
            elif op == Op.RANDOM_INT:
                regs[ins.target] = self.random.randint(
                    int(regs[operands[0]]), int(regs[operands[1]])
                )
            elif op == Op.BIT_AND:
                regs[ins.target] = regs[operands[0]] & regs[operands[1]]
            elif op == Op.BIT_OR:
                regs[ins.target] = regs[operands[0]] | regs[operands[1]]
            elif op == Op.BIT_XOR:
                regs[ins.target] = regs[operands[0]] ^ regs[operands[1]]
            elif op == Op.BIT_SHL:
                regs[ins.target] = _check_int(
                    regs[operands[0]] << regs[operands[1]]
                )
            elif op == Op.BIT_SHR:
                regs[ins.target] = regs[operands[0]] >> regs[operands[1]]
            elif op == Op.AND:
                regs[ins.target] = regs[operands[0]] and regs[operands[1]]
            elif op == Op.OR:
                regs[ins.target] = regs[operands[0]] or regs[operands[1]]
            elif op == Op.XOR:
                regs[ins.target] = bool(regs[operands[0]]) != bool(regs[operands[1]])
            else:  # pragma: no cover - exhaustive over the ISA
                raise WolframRuntimeError("BadOpcode", f"unknown opcode {op}")
            pc += 1
        return None

    def _eval_escape(self, ins: Instruction, regs: list):
        """EVAL_EXPR: run an unsupported expression through the interpreter."""
        if self.evaluator is None:
            raise WolframRuntimeError(
                "NoInterpreter", "interpreter escape without a host engine"
            )
        expression, free_variables = ins.payload
        from repro.engine.patterns import substitute
        from repro.mexpr.symbols import to_mexpr

        bindings = {}
        for name, register in free_variables:
            value = regs[register]
            if isinstance(value, BoxedTensor):
                value = value.to_nested()
            bindings[name] = to_mexpr(value)
        result = self.evaluator.evaluate(substitute(expression, bindings))
        from repro.engine.builtins.support import as_number

        value = as_number(result)
        if value is None:
            from repro.mexpr.symbols import is_true, is_false, is_head

            if is_true(result):
                return True
            if is_false(result):
                return False
            if is_head(result, "List"):
                return BoxedTensor.from_nested(result.to_python(), "r")
            raise WolframRuntimeError(
                "NonNumericResult",
                f"interpreter escape produced non-numeric {result}",
            )
        return value


def _map_tensor(func: Callable, tensor: BoxedTensor) -> BoxedTensor:
    return BoxedTensor(
        [
            _map_tensor(func, item) if isinstance(item, BoxedTensor) else func(item)
            for item in tensor.rows
        ],
        tensor.type_char,
    )
