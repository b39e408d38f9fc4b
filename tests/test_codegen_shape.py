"""The shape of generated Python, in counts not clocks, and the order of
effects that expression-tree emission must not disturb.

Shape: the eight ``repro.benchsuite.programs`` kernels and seven probe
shapes compile to code without literal-holding locals, without a
runtime-table or ``.dims`` look-up inside a loop, within stated CPython 3.11
bytecode bounds, polling for aborts exactly as often as before.

Order: every program is compared with the interpreter and with
``OptimizationLevel -> 0`` (no TWIR pass ran; the emitter folds the same).
"""

import ast
import dis
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchsuite import programs, reference
from repro.compiler import FunctionCompile, install_engine_support
from repro.engine import Evaluator
from repro.errors import WolframEvaluationError, WolframRuntimeError
from repro.runtime import memory_stats, reset_memory_stats

PROBES = {
    "identity": 'Function[{Typed[x, "MachineInteger"]}, x]',
    "unbox": 'Function[{Typed[v, TypeSpecifier["Tensor"["Integer64", 1]]]},'
             ' Length[v]]',
    "rebox": 'Function[{Typed[n, "MachineInteger"]},'
             ' Native`CreateTensor[n, 0]]',
    "loop": 'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{i = 0}, While[i < n, i = i + 1]; i]]',
    "part": 'Function[{Typed[v, TypeSpecifier["Tensor"["Integer64", 1]]]},'
            ' Module[{s = 0, i = 1, n = Length[v]},'
            '  While[i <= n, s = s + v[[i]]; i = i + 1]; s]]',
    "mul": 'Function[{Typed[n, "MachineInteger"]},'
           ' Module[{h = 2166136261, i = 0},'
           '  While[i < n, h = BitAnd[h * 16777619, 4294967295]; i = i + 1];'
           '  h]]',
    "libcall": 'Function[{Typed[n, "MachineInteger"]},'
               ' Module[{acc = {0.0, 0.0}, step = {1.0, 2.0}, i = 0},'
               '  While[i < n, acc = acc + step; i = i + 1]; acc]]',
}

KERNELS = {
    "fnv1a": programs.NEW_FNV1A, "mandelbrot": programs.NEW_MANDELBROT,
    "dot": programs.NEW_DOT, "blur": programs.NEW_BLUR,
    "histogram": programs.NEW_HISTOGRAM, "primeq": programs.NEW_PRIMEQ,
    "qsort": programs.NEW_QSORT, "randomwalk": programs.NEW_RANDOM_WALK,
}


def _less(a, b):
    return a < b


#: small inputs, one per kernel that loops
INPUTS = {
    "fnv1a": ("hello world",),
    "mandelbrot": (complex(0.1, 0.2),),
    "blur": ([[float(i * j) for i in range(6)] for j in range(5)],),
    "histogram": (list(range(17)),),
    "primeq": (16500,),
    "qsort": ([5, 3, 9, 1, 7, 2, 8], _less),
    "randomwalk": (9,),
}


def _compile(name, **options):
    if name == "primeq":
        options["constants"] = {
            "primeTable": reference.prime_sieve_bitmap(),
            "witnesses": programs.RM_WITNESSES,
        }
    return FunctionCompile({**KERNELS, **PROBES}[name], **options)


@pytest.fixture(scope="module")
def compiled():
    return {name: _compile(name) for name in {**KERNELS, **PROBES}}


def _loops(source):
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.While)]


class TestShape:
    @pytest.mark.parametrize("name", [*KERNELS, *PROBES])
    def test_no_local_only_holds_a_literal(self, compiled, name):
        """A constant is an operand.  ``i = 1`` survives only as the first
        of several assignments to a loop or merge variable."""
        source = compiled[name].generated_source
        assigned = re.findall(r"^\s*(v\d+) = (.+)$", source, re.MULTILINE)
        times = {}
        for target, _ in assigned:
            times[target] = times.get(target, 0) + 1
        for target, value in assigned:
            if re.fullmatch(r"-?\d+(\.\d+)?(e[-+]?\d+)?|True|False", value):
                assert times[target] > 1, f"{target} = {value}\n{source}"

    @pytest.mark.parametrize("name", [*KERNELS, *PROBES])
    def test_no_table_or_dims_lookup_inside_a_loop(self, compiled, name):
        source = compiled[name].generated_source
        for loop in _loops(source):
            for node in ast.walk(loop):
                if isinstance(node, ast.Subscript):
                    assert not (isinstance(node.value, ast.Name)
                                and node.value.id == "_rt"), source
                if isinstance(node, ast.Attribute):
                    assert node.attr != "dims", source

    def test_blur_inner_loop_addresses_without_multiplying(self, compiled):
        source = compiled["blur"].generated_source
        inner = min(_loops(source), key=lambda loop: len(ast.dump(loop)))
        subscripts = [node for node in ast.walk(inner)
                      if isinstance(node, ast.Subscript)]
        assert len(subscripts) >= 10  # nine reads and the store
        for subscript in subscripts:
            assert not any(isinstance(node, ast.Mult)
                           for node in ast.walk(subscript.slice)), source

    def test_mandelbrot_counter_needs_no_overflow_check(self, compiled):
        source = compiled["mandelbrot"].generated_source
        assert "IntegerOverflowError" not in source
        assert "_state" not in source  # threaded, and still structured

    def test_randomwalk_step_makes_no_array_and_no_library_call(self,
                                                                compiled):
        source = compiled["randomwalk"].generated_source
        (loop,) = _loops(source)
        assert "PackedArray(" not in ast.unparse(loop)
        assert source.count("PackedArray(") == 1  # the n x 2 result
        assert "tensor_plus" not in source

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="bounds are stated for CPython 3.11 bytecode")
    @pytest.mark.parametrize("name, bound", [
        ("fnv1a", 85), ("mandelbrot", 60), ("histogram", 100),
        ("blur", 270), ("randomwalk", 165),
    ])  # 112 / 78 / 125 / 406 / 195 with one statement per SSA value;
    # the random walk's loop is 61 of its 159: the rest is set-up, which
    # grew when the rows became one buffer (142 -> 159)
    def test_entry_function_bytecode_bound(self, compiled, name, bound):
        entry = compiled[name].namespace["Main"]
        assert len(list(dis.get_instructions(entry))) <= bound

    @pytest.mark.parametrize("name, polls", [
        ("fnv1a", 13), ("mandelbrot", 1), ("blur", 20), ("histogram", 19),
        ("primeq", 19829), ("qsort", 49), ("randomwalk", 11),
    ])
    def test_abort_polls_executed_are_unchanged(self, name, polls):
        """Counted with the flag armed, at the commit before expression
        trees: hoisting and threading moved no poll."""
        function = _compile(name)
        count = 0

        def poll():
            nonlocal count
            count += 1

        function.namespace["_armed"] = [1]
        function.namespace["_check_abort"] = poll
        function._native(*function._to_native(INPUTS[name]))
        assert count == polls

    @pytest.mark.parametrize("name, outstanding", [
        ("fnv1a", 1), ("blur", 2), ("histogram", 2), ("qsort", 2),
        ("randomwalk", 1),
    ])  # blur: the matrix it returns is reference counted like any other
    # allocation; randomwalk: one buffer, where there was a row per step
    def test_references_outstanding_are_unchanged(self, compiled, name,
                                                  outstanding):
        """A temporary that no longer exists took its acquire and its
        release with it; what a call leaves acquired is what it left
        before (arguments and the result)."""
        reset_memory_stats()
        compiled[name](*INPUTS[name])
        stats = memory_stats()
        assert stats["acquire"] - stats["release"] == outstanding

    def test_library_entry_points_are_bound_once(self, compiled):
        source = compiled["randomwalk"].generated_source
        header = next(line for line in source.splitlines()
                      if line.startswith("def Main("))
        assert "_rt_random_real=_rt['random_real']" in header
        assert "_math_cos=_math.cos" in header

    def test_aliases_only_when_read(self, compiled):
        assert "_d = " not in compiled["dot"].generated_source
        assert "_d = " not in compiled["unbox"].generated_source
        assert "a0_c = a0.dims[1]" in compiled["blur"].generated_source


# -- order of effects --------------------------------------------------------


def _interpreted(function_source: str, *arguments: str):
    evaluator = Evaluator()
    untyped = re.sub(r'Typed\[(\w+), (?:"[^"]*"|TypeSpecifier\[[^\]]*\]\]\])\]',
                     r"\1", function_source)
    return evaluator.run(
        f"{untyped}[{', '.join(arguments)}]").to_python()


def _both(source, **options):
    return (FunctionCompile(source, **options),
            FunctionCompile(source, OptimizationLevel=0, **options))


def _kind(function, *arguments):
    with pytest.raises(WolframRuntimeError) as info:
        function(*arguments)
    return info.value.kind


_VECTOR = 'TypeSpecifier["Tensor"["Integer64", 1]]'


class TestOrderOfEffects:
    def test_read_is_not_folded_past_a_store(self):
        """QSort's swap: ``t`` is read once, two stores later."""
        source = (
            f'Function[{{Typed[v, {_VECTOR}], Typed[i, "MachineInteger"],'
            ' Typed[j, "MachineInteger"]},'
            ' Module[{w = v, t = 0},'
            '  t = w[[i]]; w[[i]] = w[[j]]; w[[j]] = t; w]]'
        )
        for function in _both(source):
            assert function([10, 20, 30], 1, 3).to_nested() == [30, 20, 10]
        assert _interpreted(source, "{10, 20, 30}", "1", "3") == [30, 20, 10]

    @pytest.mark.parametrize("update, read, total", [
        ("m[[i, 1]] = m[[i, 1]] + 1.", "m[[i, 1]]", 12.0),
        # rank 1, where row addressing (and the clean-up after it) runs
        # only because the function also reads a matrix
        ("u[[i]] = u[[i]] + m[[i, 1]]", "u[[i]]", 9.0),
    ])
    def test_read_after_a_store_is_not_the_read_before_it(self, update,
                                                          read, total):
        """After alias collapse a store's result is its operand, so the
        reads either side of it have the same operands."""
        source = (
            'Function[{Typed[a, TypeSpecifier["Tensor"["Real64", 2]]]},'
            ' Module[{m = a, u = {0., 0., 0.}, s = 0., i = 1},'
            f'  While[i <= Length[m], {update}; s = s + {read}; i = i + 1];'
            '  s]]'
        )
        rows = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        assert _interpreted(
            source, "{{1., 2.}, {3., 4.}, {5., 6.}}") == total
        optimised, plain = _both(source)
        assert "_c - 1" in optimised.generated_source  # row bases lowered
        assert optimised(rows) == plain(rows) == total

    def test_read_held_for_one_edge_is_not_written_on_the_other(self):
        """A proven read whose only use is the phi copy on a branch's
        ``else`` edge, while the ``then`` arm stores.  The front end puts a
        block on every such edge; a pass that removes the empty ones (as
        jump threading does at loop exits) leaves the edge bare."""
        from repro.compiler import UserPass
        from repro.compiler.wir.instructions import JumpInstr

        def bypass_empty_blocks(function):
            for block in function.ordered_blocks():
                sources = function.predecessors().get(block.name, ())
                if (block.phis or block.instructions or len(sources) != 1
                        or not isinstance(block.terminator, JumpInstr)):
                    continue
                (source,), (target,) = sources, block.successors()
                for phi in function.blocks[target].phis:
                    phi.set_incoming([
                        (source if name == block.name else name, value)
                        for name, value in phi.incoming
                    ])
                function.blocks[source].retarget(block.name, target)
                function.remove_block(block.name)

        source = (
            f'Function[{{Typed[v, {_VECTOR}], Typed[c, "MachineInteger"]}},'
            ' Module[{w = v, s = 0, i = 1, t = 0},'
            '  While[i <= Length[w],'
            '   t = w[[i]]; If[c > i, w[[i]] = 0; t = 7];'
            '   s = s + t; i = i + 1];'
            '  s + Total[w]]]'
        )
        bare = FunctionCompile(source, user_passes=[UserPass(
            stage="twir", run=bypass_empty_blocks, name="bypass")])
        assert "_state" not in bare.generated_source
        for c in (0, 2, 9):
            expected = _interpreted(source, "{10, 20, 30}", str(c))
            assert bare([10, 20, 30], c) == expected
            for function in _both(source):
                assert function([10, 20, 30], c) == expected

    def test_text_inside_a_string_constant_is_left_alone(self):
        function = FunctionCompile(
            'Function[{Typed[s, "String"]},'
            ' StringJoin[s, "v[3 - 1] x + (-1)"]]')
        assert function("a") == "av[3 - 1] x + (-1)"

    def test_phi_copies_that_swap(self):
        source = (
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{a = 1, b = 2, t = 0, k = 0},'
            '  While[k < n, t = a; a = b; b = t; k = k + 1]; 10 a + b]]'
        )
        for n, expected in ((0, 12), (1, 21), (2, 12), (5, 21)):
            for function in _both(source):
                assert function(n) == expected
            assert _interpreted(source, str(n)) == expected
        assert "_phi" in FunctionCompile(source).generated_source

    def test_lost_copy(self):
        """``prev`` must take the counter's value before the counter
        takes its next one."""
        source = (
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{prev = 0, cur = 1, k = 0},'
            '  While[k < n, prev = cur; cur = cur + 3; k = k + 1];'
            '  100 prev + cur]]'
        )
        for n in (0, 1, 4):
            expected = _interpreted(source, str(n))
            for function in _both(source):
                assert function(n) == expected

    @pytest.mark.parametrize("body", [
        "v[[i]] + big * big",   # the read fails first
        "big * big + v[[i]]",   # the product overflows first
        "v[[i]] * (big + big) + v[[i + 1]]",
    ])
    def test_which_error_wins(self, body):
        source = (
            f'Function[{{Typed[v, {_VECTOR}], Typed[i, "MachineInteger"],'
            f' Typed[big, "MachineInteger"]}}, {body}]'
        )
        optimised, plain = _both(source)
        assert _kind(optimised, [1, 2], 7, 2 ** 62) == _kind(
            plain, [1, 2], 7, 2 ** 62)
        assert optimised([1, 2, 3], 1, 5) == plain([1, 2, 3], 1, 5)

    def test_kernel_escape_between_definition_and_use(self):
        """A failing read is not carried past an interpreter escape: the
        escape's side effect does not happen (the interpreter's rerun
        fails at the same read)."""
        source = (
            f'Function[{{Typed[v, {_VECTOR}], Typed[i, "MachineInteger"]}},'
            ' Module[{x = v[[i]]}, KernelFunction[bump][1]; x]]'
        )
        seen = []
        for level in ({}, {"OptimizationLevel": 0}):
            evaluator = Evaluator()
            install_engine_support(evaluator)
            evaluator.run("calls = 0; bump[k_] := (calls = calls + k)")
            function = FunctionCompile(source, evaluator=evaluator, **level)
            assert function([4, 5, 6], 2) == 5
            in_range = evaluator.run("calls").to_python()
            with pytest.raises(WolframEvaluationError):
                function([4, 5, 6], 9)  # soft failure, then the rerun's
            seen.append((in_range, evaluator.run("calls").to_python()))
        assert seen[0] == seen[1] == (1, 1)

    def test_loop_that_never_runs_computes_nothing_that_traps(self):
        source = (
            f'Function[{{Typed[v, {_VECTOR}], Typed[n, "MachineInteger"],'
            ' Typed[d, "MachineInteger"]},'
            ' Module[{s = 0, k = 0},'
            '  While[k < n,'
            '   s = s + Quotient[100, d] + v[[5]] + (n - 1) * 3; k = k + 1];'
            '  s]]'
        )
        for function in _both(source):
            assert function([1, 2], 0, 0) == 0      # nothing hoisted traps
            assert function([1, 2, 3, 4, 5], 2, 7) == 2 * (14 + 5 + 3)
        optimised, plain = _both(source)
        assert _kind(optimised, [1, 2], 1, 0) == _kind(plain, [1, 2], 1, 0)

    @pytest.mark.parametrize("test, expected", [
        ("While[i < n && s < m, s = s + i; i = i + 1]", None),
        ("While[i < n || s < m, s = s + i + 1; i = i + 1]", None),
        ("While[i < 6, If[i < n && s < m, s = s + 1, s = s + 10];"
         " i = i + 1]", None),
        ("While[i < n && (s < m || i < 2) && s < 50, s = s + i; i = i + 1]",
         None),
    ])
    def test_short_circuit_tests_under_threading(self, test, expected):
        source = (
            'Function[{Typed[n, "MachineInteger"],'
            ' Typed[m, "MachineInteger"]},'
            f' Module[{{i = 0, s = 0}}, {test}; 1000 i + s]]'
        )
        optimised, plain = _both(source)
        assert "_state" not in optimised.generated_source
        for n in (0, 1, 4):
            for m in (0, 3, 100):
                expected = _interpreted(source, str(n), str(m))
                assert optimised(n, m) == plain(n, m) == expected

    def test_unequal_shapes_still_raise_shape_mismatch(self):
        static = (
            'Function[{Typed[n, "MachineInteger"]},'
            ' {1.0, 2.0} + {1.0, 2.0, 3.0}]'
        )
        merged = (
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{a = {1.0, 2.0}, b = {1.0, 2.0, 3.0}},'
            '  If[n > 0, a = b]; a + {10.0, 20.0}]]'
        )
        for source in (static, merged):
            for function in _both(source):
                assert _kind(function, 1) == "ShapeMismatch"
        for function in _both(merged):
            assert function(0).to_nested() == [11.0, 22.0]
            assert "tensor_plus" in function.generated_source

    def test_profile_counters_are_unchanged(self):
        """As counted at the commit before expression trees."""
        function = FunctionCompile(programs.NEW_BLUR, Profile=True)
        function([[float(i * j) for i in range(5)] for j in range(4)])
        assert function.profile_counts == {
            "Divide": 6, "Length": 2, "LessEqual": 11,
            "Native`CreateMatrix": 2, "Native`PartSet": 6, "Part": 55,
            "Plus": 85, "Times": 30,
        }
        function = FunctionCompile(programs.NEW_RANDOM_WALK, Profile=True)
        function(3)
        assert function.profile_counts == {
            "Cos": 3, "LessEqual": 4, "Native`CreateTensorUninit": 1,
            "Native`PartSet": 4, "Plus": 7, "RandomReal": 3, "Sin": 3,
            "Times": 3,
        }

    def test_deep_expression_stays_within_the_parser(self):
        """A chain longer than CPython's 200 nested parentheses."""
        body = " + ".join(f"x * {k}.5" for k in range(1, 300))
        function = FunctionCompile(
            f'Function[{{Typed[x, "Real64"]}}, {body}]')
        assert function(2.0) == pytest.approx(
            sum(2.0 * (k + 0.5) for k in range(1, 300)))


# -- a tensor is one buffer from argument to result -----------------------------


def _calls(node):
    """Names called anywhere inside ``node``."""
    return {
        ast.unparse(call.func) for call in ast.walk(node)
        if isinstance(call, ast.Call)
    }


def _overflow_tests(source):
    return source.count("raise IntegerOverflowError()")


STEPPED_TABLE = (
    'Function[{Typed[n, "MachineInteger"]},'
    ' Table[{Cos[t], Sin[t], t}, {t, 0., 1., .01}]]'
)
FOLD_STATE = (
    'Function[{Typed[v, TypeSpecifier["Tensor"["Real64", 1]]]},'
    ' Fold[{#2, #2*#2, 1.} + #1 &, {0., 0., 0.}, v]]'
)


class TestFigure2Shapes:
    """What the last four Figure-2 kernels over 1.4x were paying for, by
    the AST of the code emitted for the benchmark's own programs."""

    def test_randomwalk_loop_allocates_nothing(self, compiled):
        source = compiled["randomwalk"].generated_source
        (loop,) = _loops(source)
        assert _calls(loop) == {
            "_check_abort", "_rt_random_real", "_math_cos", "_math_sin"}
        text = ast.unparse(loop)
        assert "PackedArray(" not in text and "_mem_acquire" not in text
        walk = compiled["randomwalk"](9)
        assert walk.dims == (10, 2) and walk.element_type == "Real64"
        assert walk.to_nested()[0] == [0.0, 0.0]

    def test_qsort_scans_without_len_or_increment_checks(self, compiled):
        source = compiled["qsort"].generated_source
        for loop in _loops(source):
            assert "len" not in _calls(loop), source
        # `lo + hi` can overflow and says so; `i + 1`, `j - 1`, `top +- k`
        # cannot once the Part beside them has succeeded
        assert _overflow_tests(source) == 1
        assert re.search(r"(v\d+) = (v\d+) \+ (v\d+)\n\s+if \1 > ", source)

    def test_histogram_indexes_with_the_remainder(self, compiled):
        source = compiled["histogram"].generated_source
        (loop,) = _loops(source)
        plus_one = {
            node.targets[0].id for node in ast.walk(loop)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.BinOp)
            and isinstance(node.value.op, ast.Add)
            and ast.unparse(node.value.right) == "1"
            # the 1-based loop counter steps by one; that is not a round trip
            and ast.unparse(node.value.left) != node.targets[0].id
        }
        for node in ast.walk(loop):
            if isinstance(node, ast.Subscript) and isinstance(
                    node.slice, ast.BinOp):
                assert not (
                    isinstance(node.slice.op, ast.Sub)
                    and ast.unparse(node.slice.left) in plus_one
                ), source
        assert compiled["histogram"]([0, 255, 256, 511]).to_nested()[
            ::255] == [2, 2]

    def test_dot_never_builds_a_list(self, compiled):
        import numpy as np

        from repro.runtime import PackedArray

        dot = compiled["dot"]
        left = PackedArray.from_numpy(np.arange(6.0).reshape(2, 3))
        right = PackedArray.from_numpy(np.ones((3, 2)))
        product = dot._native(left, right)
        for array in (left, right, product):
            assert array.resident is not None  # ``data`` is still unset
        assert product.to_nested() == [[3.0, 3.0], [12.0, 12.0]]
        # and through the boundary: one conversion per argument, no list
        product = dot([[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [1.0, 0.0]])
        assert product.resident is not None
        assert product.to_nested() == [[2.0, 1.0], [4.0, 3.0]]


class TestFixedShapeRows:
    """Rows of one static length live in one rank-2 buffer; a row carried
    round a loop is its elements."""

    @pytest.mark.parametrize("source, arguments", [
        (STEPPED_TABLE, (0,)),
        (FOLD_STATE, ([1.0, 2.0, 3.0],)),
    ], ids=["stepped-table", "fold-state"])
    def test_no_allocation_inside_the_loop(self, source, arguments):
        function = FunctionCompile(source)
        for loop in _loops(function.generated_source):
            text = ast.unparse(loop)
            assert "PackedArray(" not in text and "_mem_acquire" not in text
        plain = FunctionCompile(source, OptimizationLevel=0)
        assert function(*arguments).to_nested() == plain(
            *arguments).to_nested()

    def test_stepped_table_is_the_interpreters(self):
        rows = FunctionCompile(STEPPED_TABLE)(0)
        assert rows.dims == (101, 3)
        assert rows.to_nested() == _interpreted(STEPPED_TABLE, "0")

    def test_fold_state_is_the_interpreters(self):
        function = FunctionCompile(FOLD_STATE)
        assert function([1.0, 2.0, 3.0]).to_nested() == _interpreted(
            FOLD_STATE, "{1., 2., 3.}") == [6.0, 14.0, 3.0]

    @given(st.integers(1, 5),
           st.sampled_from(["table", "nestlist", "earlier-row", "unequal",
                            "run-time-length"]))
    @settings(max_examples=25, deadline=None)
    def test_rows_agree_with_interpreter_and_unoptimised(self, length, shape):
        """Row lengths 1...5 (4 is scalarised, 5 is not), sizes that do not
        enter the loop, enter it once, and run it: the same value from
        every tier where there is one, and where the compiled tiers fail
        (rows that do not make a rectangle) the same error kind from both
        and the interpreter's value from the hosted rerun."""
        def row(first, count=length):
            return "{" + ", ".join(
                f"{first} + {k}." for k in range(count)) + "}"

        body = {
            "table": f"Table[{row('N[i]')}, {{i, 1, n}}]",
            "nestlist": f"NestList[# + {row('1.')} &, {row('0.')}, n]",
            "earlier-row": (
                f"Module[{{res = Table[{row('N[i]')}, {{i, 1, n}}], k = 2}},"
                f" While[k <= n, res[[k]] = res[[k - 1]] + {row('1.')};"
                "  k = k + 1]; res]"),
            "unequal": (
                f"Table[If[i < 3, {row('N[i]')},"
                f" {row('N[i]', length + 1)}], {{i, 1, n}}]"),
            "run-time-length": (
                f"Table[Table[N[i] + N[j], {{j, 1, Min[n, {length}]}}],"
                " {i, 1, n}]"),
        }[shape]
        source = f'Function[{{Typed[n, "MachineInteger"]}}, {body}]'
        evaluator = Evaluator()
        install_engine_support(evaluator)
        hosted = FunctionCompile(source, evaluator=evaluator)
        for n in (0, 1, 2, 50):
            expected = _interpreted(source, str(n))
            outcomes = []
            for function in _both(source):
                try:
                    outcomes.append(function(n).to_nested())
                except WolframRuntimeError as error:
                    outcomes.append(error.kind)
            assert outcomes[0] == outcomes[1], (source, n)
            if isinstance(outcomes[0], list):
                assert outcomes[0] == expected, (source, n)
            value = hosted(n)  # reruns in the interpreter if it must
            assert getattr(value, "to_nested", lambda: value)() == expected

    def test_five_element_rows_keep_the_list_of_rows(self):
        source = (
            'Function[{Typed[n, "MachineInteger"]},'
            ' Table[{1., 2., 3., 4., N[i]}, {i, 1, n}]]'
        )
        function = FunctionCompile(source)
        assert "PackedArray([" in function.generated_source
        assert function(2).to_nested() == _interpreted(source, "2")

    def test_a_called_function_keeps_its_result_type(self):
        """Only what the call boundary alone sees may change shape."""
        from repro.compiler import CompileToIR

        source = (
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{walk = Function[{Typed[k, "MachineInteger"]},'
            '    NestList[# + {1., 2.} &, {0., 0.}, k]]},'
            '  Length[walk[n]] + Length[walk[n + 1]]]]'
        )
        assert FunctionCompile(source)(3) == 9
        program = CompileToIR(source, InlinePolicy="none")["program"]
        for function in program.functions.values():
            if function.name != program.main:
                assert '"Tensor"["Tensor"' in str(function.result_type)
        assert FunctionCompile(source, InlinePolicy="none")(3) == 9

    def test_data_is_never_resized_in_place(self):
        """Generated code binds ``len(v.data)`` once per tensor value, so
        nothing it can call may grow or shrink a ``data`` list."""
        import inspect

        from repro.compiler import runtime_library
        from repro.compiler.types.builtin_env import PRIMITIVE_IMPLS
        from repro.runtime import blas, packed

        resizing = re.compile(
            r"\.data\.(append|extend|insert|pop|remove|clear|sort)\b"
            r"|del [\w.]*\.data\b|\.data\s*\+=|\.data\[[^\]]*:[^\]]*\]\s*=")
        for module in (runtime_library, packed, blas):
            assert not resizing.search(inspect.getsource(module)), module
        for primitive in PRIMITIVE_IMPLS.values():
            for template in (primitive.py_inline, primitive.py_guard,
                             primitive.py_effect):
                assert not resizing.search(
                    (template or "").replace("{a0_data}", "x.data"))


# -- the exported module -------------------------------------------------------


class TestExportedSourceAgrees:
    """The standalone export is the same folded source under another
    prelude: its ``def`` lines bind library entry points as default
    arguments from names that prelude must have defined by then."""

    def test_oracle_programs_import_and_agree(self, tmp_path):
        """``REPRO_DIFF_COUNT`` / ``REPRO_DIFF_SEED`` size it, as they do
        the differential oracle whose generator this draws from."""
        import os

        from repro.analyze.differ import DifferentialOracle
        from repro.compiler import (
            FunctionCompileExportLibrary,
            LibraryFunctionLoad,
        )

        oracle = DifferentialOracle(
            seed=int(os.environ.get("REPRO_DIFF_SEED", "0")))
        for case in range(int(os.environ.get("REPRO_DIFF_COUNT", "25"))):
            spec = oracle.generator.spec()
            argument = oracle.generator.argument(spec.kind)
            kind = "MachineInteger" if spec.kind == "integer" else "Real64"
            source = f'Function[{{Typed[x, "{kind}"]}}, {spec.body()}]'
            path = FunctionCompileExportLibrary(
                str(tmp_path / f"case{case}.py"), source)
            exported = LibraryFunctionLoad(path)
            assert oracle.agree(exported(argument),
                                FunctionCompile(source)(argument)), source

    @pytest.mark.parametrize("name", ["blur", "randomwalk", "primeq",
                                      "histogram", "fnv1a"])
    def test_kernels_import_and_agree(self, tmp_path, compiled, name):
        """Library calls, ``_math`` functions, a column-count alias and an
        embedded constant pool, each through the export's prelude."""
        from repro.compiler import (
            FunctionCompileExportLibrary,
            LibraryFunctionLoad,
        )

        options = {}
        if name == "primeq":
            options["constants"] = {
                "primeTable": reference.prime_sieve_bitmap(),
                "witnesses": programs.RM_WITNESSES,
            }
        path = FunctionCompileExportLibrary(
            str(tmp_path / f"{name}.py"), KERNELS[name], **options)
        exported = LibraryFunctionLoad(path)
        arguments = compiled[name]._to_native(INPUTS[name])
        result = exported(*arguments)
        if name == "randomwalk":
            assert result.dims == (INPUTS[name][0] + 1, 2)
        else:
            hosted = compiled[name]._native(*arguments)
            assert getattr(result, "data", result) == getattr(
                hosted, "data", hosted)
