"""Mutability semantics (F5, §3) and abortable evaluation (F3, §3)."""

import threading
import time

import pytest

from repro.engine import Evaluator
from repro.mexpr import parse


class TestMutabilitySemantics:
    def test_symbols_are_mutable(self, run):
        """§3 F5: a="foo"; a="bar" rebinds the symbol."""
        assert run('a = "foo"; a = "bar"; a') == '"bar"'

    def test_part_mutation_through_symbol(self, run):
        """§3 F5: a={1,2,3}; a[[3]]=-20; a -> {1,2,-20}."""
        assert run("a = {1, 2, 3}; a[[3]] = -20; a") == "List[1, 2, -20]"

    def test_mutation_does_not_affect_other_references(self, run):
        """§3 F5: a={1,2,3}; b=a; a[[3]]=-20; b -> {1,2,3}."""
        assert run("a = {1, 2, 3}; b = a; a[[3]] = -20; b") == "List[1, 2, 3]"

    def test_expressions_are_immutable(self, run):
        """§3 F5: operations that modify expressions operate on a copy."""
        assert run(
            '({#, StringReplace[#, "foo" -> "grok"]}&)["foobar"]'
        ) == 'List["foobar", "grokbar"]'

    def test_reverse_does_not_mutate(self, run):
        assert run("lst = {1, 2, 3}; Reverse[lst]; lst") == "List[1, 2, 3]"

    def test_sort_does_not_mutate(self, run):
        assert run("lst = {3, 1, 2}; Sort[lst]; lst") == "List[3, 1, 2]"


class TestAbort:
    def test_abort_builtin_returns_aborted(self, evaluator):
        result = evaluator.evaluate_protected(parse("1 + Abort[]"))
        assert result == parse("$Aborted")

    def test_check_abort_recovers(self, run):
        assert run("CheckAbort[Abort[], 42]") == "42"

    def test_abort_interrupt_from_another_thread(self):
        """§3 F3: the infinite loop aborts without killing the session, and
        the session state remains usable (i was mutated by the aborted
        computation, as the paper specifies)."""
        evaluator = Evaluator()
        program = parse("i = 0; While[True, If[i > 3, i--, i++]]")
        outcome = {}

        def evaluate():
            outcome["result"] = evaluator.evaluate_protected(program)

        worker = threading.Thread(target=evaluate)
        worker.start()
        time.sleep(0.15)
        evaluator.request_abort()
        worker.join(timeout=10)
        assert not worker.is_alive(), "abort did not stop the loop"
        assert outcome["result"] == parse("$Aborted")
        # the session survives and i holds an intermediate value
        i_value = evaluator.run("i").to_python()
        assert isinstance(i_value, int)
        assert evaluator.run("1 + 1").to_python() == 2

    def test_abort_flag_cleared_after_protected_eval(self, evaluator):
        evaluator.request_abort()
        result = evaluator.evaluate_protected(parse("While[True]"))
        assert result == parse("$Aborted")
        assert not evaluator.abort_pending()
        assert evaluator.run("2 + 2").to_python() == 4

    def test_compiled_code_abort(self):
        """F3 for the new compiler: generated code polls the host's flag."""
        from repro.compiler import FunctionCompile

        evaluator = Evaluator()
        spin = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{i = 0}, While[i < n, i = i + 1;'
            '  If[i == 999999999, i = 0]]; i]]',
            evaluator=evaluator,
        )
        from repro.errors import WolframAbort

        outcome = {}

        def evaluate():
            try:
                outcome["result"] = spin(2_000_000_000)
            except WolframAbort:
                outcome["result"] = "aborted"

        worker = threading.Thread(target=evaluate)
        worker.start()
        time.sleep(0.2)
        evaluator.request_abort()
        worker.join(timeout=10)
        assert not worker.is_alive(), "compiled abort check did not fire"
        assert outcome["result"] == "aborted"
        evaluator.clear_abort()

    def test_bytecode_abort(self):
        """F3 for the bytecode VM: aborts poll on backward jumps."""
        from repro.bytecode import compile_function
        from repro.errors import WolframAbort

        evaluator = Evaluator()
        spin = compile_function(
            parse("{{n, _Integer}}"),
            parse("Module[{i = 0}, While[i < n, i++]; i]"),
            evaluator,
        )
        outcome = {}

        def evaluate():
            try:
                outcome["result"] = spin(2_000_000_000)
            except WolframAbort:
                outcome["result"] = "aborted"

        worker = threading.Thread(target=evaluate)
        worker.start()
        time.sleep(0.2)
        evaluator.request_abort()
        worker.join(timeout=15)
        assert not worker.is_alive()
        assert outcome["result"] == "aborted"
        evaluator.clear_abort()

    def test_abort_inhibited_code_runs_to_completion(self):
        """AbortHandling -> False removes the checks (§6's knob)."""
        from repro.compiler import FunctionCompile

        evaluator = Evaluator()
        fn = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{i = 0}, While[i < n, i = i + 1]; i]]',
            evaluator=evaluator,
            AbortHandling=False,
        )
        assert "_check_abort" not in fn.generated_source
        assert "_armed" not in fn.generated_source
        evaluator.request_abort()
        try:
            assert fn(1000) == 1000  # no poll, no abort
        finally:
            evaluator.clear_abort()
