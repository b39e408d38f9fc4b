"""Source-level lint (repro.analyze.lint) and the ``repro lint`` CLI."""

import io
import json

import pytest

from repro.analyze import lint_text
from repro.analyze.lint import run_lint_cli
from repro.engine import Evaluator
from repro.mexpr import full_form


def findings(source: str, **kwargs) -> dict:
    """``{invariant: [diagnostics...]}`` for one source string."""
    result: dict = {}
    for diagnostic in lint_text(source, **kwargs):
        result.setdefault(diagnostic.invariant, []).append(diagnostic)
    return result


class TestUnboundSymbols:
    def test_unbound_lowercase_symbol_is_an_error(self):
        found = findings(
            'Function[{Typed[x, "MachineInteger"]}, x + yy]'
        )
        [diagnostic] = found["lint.unbound-symbol"]
        assert diagnostic.severity == "error"
        assert "yy" in diagnostic.message
        assert diagnostic.line == 1 and diagnostic.column is not None

    def test_unknown_uppercase_symbol_stays_symbolic_warning(self):
        found = findings('Function[{x}, x + SomethingUnknown]')
        [diagnostic] = found["lint.symbolic"]
        assert diagnostic.severity == "warning"

    def test_module_locals_are_bound(self):
        assert findings(
            'Function[{Typed[x, "MachineInteger"]},'
            ' Module[{a = 0, i = 1}, While[i <= x, a = a + i; i = i + 1];'
            ' a]]'
        ) == {}

    def test_module_initializer_sees_earlier_locals(self):
        assert findings(
            'Function[{x}, Module[{a = 1, b = a + 1}, a + b]]'
        ) == {}

    def test_iterator_variables_are_bound(self):
        assert findings('Function[{x}, Sum[i * i, {i, 1, x}]]') == {}
        assert findings('Function[{x}, Table[j + x, {j, 10}]]') == {}

    def test_for_init_binds_its_variable(self):
        assert findings(
            'Function[{x}, Module[{s = 0},'
            ' For[k = 1, k <= x, k = k + 1, s = s + k]; s]]'
        ) == {}

    def test_set_binds_going_forward(self):
        assert findings('Function[{x}, Module[{}, y = x + 1; y * 2]]') == {}

    def test_set_delayed_pattern_names_bound_in_body(self):
        assert "lint.unbound-symbol" not in findings(
            'Module[{}, f[n_] := n + 1; f[3]]'
        )

    def test_assume_bound_suppresses_externals(self):
        source = 'Function[{x}, x + externalTable]'
        assert "lint.unbound-symbol" in findings(source)
        assert findings(source, assume_bound={"externalTable"}) == {}

    def test_kernel_function_contents_exempt(self):
        assert findings(
            'Function[{x}, KernelFunction[someSessionThing[x]][x]]'
        ) == {}

    def test_constants_are_known(self):
        assert findings('Function[{x}, If[x > 0, Pi, E]]') == {}


class TestArity:
    def test_structural_arity_mismatch(self):
        found = findings('Function[{x}, If[x]]')
        assert any("If" in d.message for d in found["lint.arity"])

    def test_library_arity_mismatch(self):
        found = findings('Function[{x}, Mod[x]]')
        [diagnostic] = found["lint.arity"]
        assert diagnostic.severity == "error"
        assert diagnostic.data["count"] == 1

    def test_correct_arities_clean(self):
        assert findings('Function[{x}, Mod[x, 3] + Abs[x]]') == {}

    def test_nary_macro_heads_not_flagged(self):
        # Plus/Times are macro-normalized n-ary heads; any arity is fine
        assert findings('Function[{x}, Plus[x, x, x, x]]') == {}


class TestUnreachable:
    def test_if_true_else_branch(self):
        found = findings('Function[{x}, If[True, x, x + 1]]')
        [diagnostic] = found["lint.unreachable-branch"]
        assert diagnostic.data["branch"] == "else"
        assert diagnostic.severity == "warning"

    def test_if_false_then_branch(self):
        found = findings('Function[{x}, If[False, x, x + 1]]')
        assert found["lint.unreachable-branch"][0].data["branch"] == "then"

    def test_while_false_body(self):
        found = findings('Function[{x}, Module[{}, While[False, x]; x]]')
        assert found["lint.unreachable-branch"][0].data["branch"] == "body"


class TestIntervalLint:
    """Interval-powered provable-error rules (DESIGN.md §12): guaranteed
    overflow, out-of-bounds Part, and interval-decided dead branches."""

    def test_guaranteed_overflow_is_an_error(self):
        found = findings(
            'Function[{x}, Module[{a = 9223372036854775806}, a + 5]]'
        )
        [diagnostic] = found["lint.overflow"]
        assert diagnostic.severity == "error"
        assert "overflow" in diagnostic.message
        assert diagnostic.line == 1 and diagnostic.column is not None

    def test_possible_overflow_stays_silent(self):
        # x is unbounded: the sum *may* overflow, which is a runtime
        # trap, not a provable error — lint only reports certainties
        assert "lint.overflow" not in findings(
            'Function[{x}, Module[{}, x + 5]]'
        )

    def test_part_index_above_known_length(self):
        found = findings(
            'Function[{x}, Module[{v = {1, 2, 3}}, v[[5]]]]'
        )
        [diagnostic] = found["lint.part-bounds"]
        assert diagnostic.severity == "error"
        assert "length-3" in diagnostic.message

    def test_part_index_zero(self):
        found = findings(
            'Function[{x}, Module[{v = {1, 2, 3}}, v[[0]]]]'
        )
        assert found["lint.part-bounds"][0].column is not None

    @pytest.mark.parametrize("mutator", ["AppendTo", "PrependTo"])
    def test_held_mutator_invalidates_the_known_length(self, mutator):
        # the list grows in place: index 4 is in range, as the
        # interpreter's answer shows, so no provable error may be reported
        source = (
            f'Function[{{x}}, Module[{{v = {{1, 2, 3}}}},'
            f' {mutator}[v, 4]; v[[4]]]]'
        )
        assert "lint.part-bounds" not in findings(source)
        evaluator = Evaluator()
        assert full_form(evaluator.run(f"{source}[0]")) == (
            "4" if mutator == "AppendTo" else "3"
        )

    @pytest.mark.parametrize("holder", ["Table[v, {2}]", "Hold[v]",
                                        "Do[v, {2}]"])
    def test_holding_head_that_never_writes_keeps_the_length(self, holder):
        # Table, Hold and Do hold v unevaluated but never assign it, so
        # the provable error survives
        found = findings(
            f'Function[{{x}}, Module[{{v = {{1, 2, 3}}}}, {holder}; v[[5]]]]'
        )
        assert found["lint.part-bounds"][0].severity == "error"

    def test_in_range_iteration_stays_silent(self):
        # j in [1, 4] over a length-3 list is not *provably* wrong on
        # every execution — the runtime check handles the overshoot
        assert "lint.part-bounds" not in findings(
            'Function[{x}, Module[{v = {1, 2, 3}, a = 0},'
            ' Do[a = a + v[[j]], {j, 3}]; a]]'
        )

    def test_interval_decided_if_branch(self):
        found = findings(
            'Function[{x}, Module[{a = 1}, If[a > 5, x, x + 1]]]'
        )
        [diagnostic] = found["lint.unreachable-branch"]
        assert diagnostic.severity == "warning"
        assert "interval" in diagnostic.message

    def test_interval_decided_while(self):
        found = findings(
            'Function[{x}, Module[{n = 3}, While[n < 2, x]; x]]'
        )
        assert "never runs" in found["lint.unreachable-branch"][0].message


class TestLiveness:
    """Dead stores and never-read Module locals via the dataflow
    liveness walk (``dead_assignments``)."""

    def test_unused_module_variable(self):
        found = findings(
            'Function[{x}, Module[{a = 0, b = 1}, a = x; a + x]]'
        )
        [diagnostic] = found["lint.unused-variable"]
        assert diagnostic.severity == "warning"
        assert "'b'" in diagnostic.message

    def test_dead_store_overwritten_before_read(self):
        found = findings(
            'Function[{x}, Module[{a = 0}, a = 1; a = 2; a]]'
        )
        [diagnostic] = found["lint.dead-store"]
        assert diagnostic.severity == "warning"
        assert "'a'" in diagnostic.message

    def test_read_between_stores_is_live(self):
        assert "lint.dead-store" not in findings(
            'Function[{x}, Module[{a = 0}, a = 1; x = x + a; a = 2; a]]'
        )

    def test_loop_carried_variable_not_flagged(self):
        # writes inside control flow are summarized conservatively:
        # warnings must be certainties
        assert findings(
            'Function[{Typed[x, "MachineInteger"]},'
            ' Module[{a = 0, i = 1}, While[i <= x, a = a + i; i = i + 1];'
            ' a]]'
        ) == {}


class TestUnsupported:
    def test_interpreter_fallback_annotated(self):
        found = findings('Function[{x}, Append[{1, 2}, x]]')
        [diagnostic] = found["lint.unsupported"]
        assert diagnostic.severity == "warning"
        assert diagnostic.data["fallback"] == "interpreter"

    def test_unknown_head(self):
        found = findings('Function[{x}, TotallyMadeUpHead[x]]')
        assert "lint.unknown-head" in found

    def test_compilable_subset_clean(self):
        assert findings(
            'Function[{Typed[p, "ComplexReal64"]},'
            ' Module[{it = 0, z = p}, While[it < 10 && Abs[z] < 2,'
            ' z = z^2 + p; it = it + 1]; it]]'
        ) == {}


class TestTypeSpecs:
    def test_malformed_type_specifier(self):
        found = findings('Function[{Typed[x, "NoSuchType999"]}, x]')
        assert "lint.type-spec" in found

    def test_parse_error_becomes_diagnostic(self):
        found = findings('Function[{x}, If[x')
        assert "lint.parse" in found


class TestCli:
    def test_expression_error_exit_code(self):
        out = io.StringIO()
        status = run_lint_cli(["-e", "Function[{x}, x + yy]"], output=out)
        assert status == 1
        assert "lint.unbound-symbol" in out.getvalue()

    def test_clean_expression_exit_zero(self):
        out = io.StringIO()
        status = run_lint_cli(["-e", "Function[{x}, x + 1]"], output=out)
        assert status == 0

    def test_json_output_is_pure_json(self):
        out = io.StringIO()
        run_lint_cli(["--json", "-e", "Function[{x}, x + yy]"], output=out)
        # the human summary goes to stderr; the output stream must parse whole
        payload = json.loads(out.getvalue())
        assert payload[0]["invariant"] == "lint.unbound-symbol"

    def test_bench_programs_lint_clean(self):
        out = io.StringIO()
        status = run_lint_cli(["--bench"], output=out)
        assert status == 0, out.getvalue()

    def test_file_input(self, tmp_path):
        path = tmp_path / "program.wl"
        path.write_text(
            "Function[{Typed[x, \"MachineInteger\"]},\n  x + unboundName]\n"
        )
        out = io.StringIO()
        status = run_lint_cli([str(path)], output=out)
        assert status == 1
        assert f"{path}:2:" in out.getvalue()

    def test_strict_escalates_warnings(self):
        out = io.StringIO()
        source = "Function[{x}, If[True, x, x + 1]]"
        assert run_lint_cli(["-e", source], output=out) == 0
        assert run_lint_cli(["--strict", "-e", source], output=out) == 1

    def test_provable_errors_exit_nonzero_with_position(self, tmp_path):
        path = tmp_path / "program.wl"
        path.write_text(
            'Function[{x},\n  Module[{v = {1, 2, 3}},\n    v[[5]]]]\n'
        )
        out = io.StringIO()
        status = run_lint_cli([str(path)], output=out)
        assert status == 1
        text = out.getvalue()
        assert "lint.part-bounds" in text
        assert f"{path}:3:" in text
