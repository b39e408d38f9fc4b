"""The IR verifier and the verify-each sanitizer (repro.analyze.verify)."""

import pytest

from repro.analyze import (
    Diagnostic,
    errors,
    format_report,
    verify_function,
    verify_program,
    worst_severity,
)
from repro.analyze.diagnostics import position_to_line_column
from repro.compiler.options import CompilerOptions
from repro.compiler.pipeline import CompilerPipeline
from repro.compiler.wir.function_module import FunctionModule
from repro.compiler.wir.instructions import (
    BranchInstr,
    ConstantInstr,
    CopyInstr,
    JumpInstr,
    PhiInstr,
    ReturnInstr,
    Value,
)
from repro.errors import VerificationError
from repro.mexpr import parse

LOOP_SOURCE = (
    'Function[{Typed[x, "MachineInteger"]},'
    ' Module[{a = 0, i = 1}, While[i <= x, a = a + i; i = i + 1]; a]]'
)


def straight_line_function() -> FunctionModule:
    function = FunctionModule("F")
    block = function.new_block("entry")
    value = Value("c")
    block.append(ConstantInstr(value, 7))
    block.terminator = ReturnInstr(value)
    return function


def invariants(diagnostics) -> set:
    return {d.invariant for d in diagnostics}


class TestCfgChecks:
    def test_clean_function_verifies(self):
        assert verify_function(straight_line_function()) == []

    def test_missing_terminator(self):
        function = straight_line_function()
        function.blocks[function.entry].terminator = None
        assert "cfg.terminated" in invariants(verify_function(function))

    def test_unknown_branch_target(self):
        function = straight_line_function()
        function.blocks[function.entry].terminator = JumpInstr("nowhere")
        assert "cfg.target" in invariants(verify_function(function))

    def test_broken_cfg_short_circuits_dataflow_checks(self):
        # dominance analysis over a malformed CFG is meaningless; only the
        # structural findings are reported
        function = straight_line_function()
        function.blocks[function.entry].terminator = None
        found = verify_function(function)
        assert invariants(found) == {"cfg.terminated"}

    def test_unreachable_block_is_a_warning(self):
        function = straight_line_function()
        orphan = function.new_block("orphan")
        orphan.terminator = ReturnInstr(None)
        found = verify_function(function)
        assert not errors(found)
        assert "cfg.unreachable" in invariants(found)

    def test_entry_with_predecessors(self):
        function = straight_line_function()
        loop_back = function.new_block("back")
        loop_back.terminator = JumpInstr(function.entry)
        # make the back block reachable to focus the finding
        assert "cfg.entry" in invariants(verify_function(function))


class TestSsaChecks:
    def test_duplicate_definition(self):
        function = straight_line_function()
        block = function.blocks[function.entry]
        value = block.instructions[0].result
        block.instructions.append(CopyInstr(value, [value]))
        assert "ssa.unique-def" in invariants(verify_function(function))

    def test_undefined_operand(self):
        function = straight_line_function()
        block = function.blocks[function.entry]
        block.terminator = ReturnInstr(Value("ghost"))
        assert "ssa.dominance" in invariants(verify_function(function))

    def test_use_not_dominated_by_definition(self):
        function = FunctionModule("F")
        entry = function.new_block("entry")
        then_block = function.new_block("then")
        else_block = function.new_block("else")
        join = function.new_block("join")
        condition = Value("cond")
        entry.append(ConstantInstr(condition, True))
        entry.terminator = BranchInstr(
            condition, then_block.name, else_block.name
        )
        only_then = Value("t")
        then_block.append(ConstantInstr(only_then, 1))
        then_block.terminator = JumpInstr(join.name)
        else_block.terminator = JumpInstr(join.name)
        join.terminator = ReturnInstr(only_then)  # not on the else path
        assert "ssa.dominance" in invariants(verify_function(function))

    def test_phi_edges_must_match_predecessors(self):
        function = FunctionModule("F")
        entry = function.new_block("entry")
        join = function.new_block("join")
        value = Value("v")
        entry.append(ConstantInstr(value, 1))
        entry.terminator = JumpInstr(join.name)
        phi = PhiInstr(Value("p"), [
            (entry.name, value), ("no-such-block", value),
        ])
        join.phis.append(phi)
        join.terminator = ReturnInstr(phi.result)
        assert "phi.edges" in invariants(verify_function(function))


class TestVerifierBypassesCachedCfgFacts:
    """``FunctionModule.cfg()`` serves predecessors, dominators and loops
    derived at the current CFG version.  A write below the version counter
    (``terminator.target = ...``) leaves them stale, and such a write is
    what the verifier exists to catch — so it reads the blocks, never the
    cache."""

    @staticmethod
    def compiled_with_warm_caches():
        program = CompilerPipeline().compile_program(parse(LOOP_SOURCE))
        function = program.main_function()
        cfg = function.cfg()
        warmed = (cfg.predecessors, cfg.reverse_postorder, cfg.idom,
                  cfg.loops)
        assert function.cfg() is cfg and all(warmed)
        return program, function

    #: every ``corrupt-ir`` class and the invariant it must trip
    EXPECTED = {
        "drop-terminator": "cfg.terminated",
        "bad-target": "cfg.target",
        "duplicate-def": "ssa.unique-def",
        "dangling-operand": "ssa.dominance",
        "phi-edge": "phi.edges",
        "type-mismatch": "type.branch",
        "analysis.bad_fact": "analysis.fact",
    }

    @pytest.mark.parametrize("corruption", sorted(EXPECTED))
    def test_every_corruption_is_named_with_all_caches_warm(self, corruption):
        from repro.testing.corrupt import CORRUPTIONS

        assert set(CORRUPTIONS) == set(self.EXPECTED)
        program, function = self.compiled_with_warm_caches()
        CORRUPTIONS[corruption](function)
        found = verify_function(function, program=program)
        assert self.EXPECTED[corruption] in invariants(found), found

    def test_edge_rewired_below_the_version_counter(self):
        """The back edge is pointed at the loop exit by writing the jump's
        ``target`` directly: the CFG stays well-formed and the cached
        predecessors still show the old edge, so only a verifier that
        recomputes them sees a header phi fed by a non-predecessor."""
        _program, function = self.compiled_with_warm_caches()
        (loop,) = function.cfg().loops
        (latch, header), = loop.back_edges
        exit_name = next(
            s for s in function.blocks[header].successors()
            if s not in loop.body
        )
        version = function.cfg_version
        function.blocks[latch].terminator.target = exit_name
        assert function.cfg_version == version
        assert latch in function.predecessors()[header]  # stale, as built
        assert "phi.edges" in invariants(verify_function(function))


class TestPipelineIntegration:
    def test_real_compile_verifies_cleanly(self):
        pipeline = CompilerPipeline()
        program = pipeline.compile_program(parse(LOOP_SOURCE))
        assert not errors(verify_program(program))

    def test_verify_each_compile_succeeds(self):
        pipeline = CompilerPipeline(
            options=CompilerOptions(verify_ir="each")
        )
        program = pipeline.compile_program(parse(LOOP_SOURCE))
        assert pipeline.verify_runs > 0
        assert program.metadata["verify"]["mode"] == "each"
        assert program.metadata["verify"]["runs"] == pipeline.verify_runs

    def test_verifier_time_excluded_from_pass_report(self):
        pipeline = CompilerPipeline(
            options=CompilerOptions(verify_ir="each")
        )
        pipeline.compile_program(parse(LOOP_SOURCE))
        assert pipeline.verify_seconds > 0.0
        assert not any(
            name.startswith("verify") for name in pipeline.pass_report()
        )

    def test_verify_off_by_default(self, monkeypatch):
        # The CI static-analysis job exports REPRO_VERIFY_IR=each for the
        # whole suite; clear it so this test observes the built-in default.
        monkeypatch.delenv("REPRO_VERIFY_IR", raising=False)
        pipeline = CompilerPipeline()
        program = pipeline.compile_program(parse(LOOP_SOURCE))
        assert pipeline.verify_runs == 0
        assert "verify" not in program.metadata


class TestOptions:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_IR", raising=False)
        assert CompilerOptions().verify_ir == "off"

    @pytest.mark.parametrize("raw, expected", [
        ("0", "off"), ("1", "final"), ("each", "each"),
        ("EACH", "each"), ("on", "final"), ("garbage", "off"),
    ])
    def test_env_spellings(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_VERIFY_IR", raw)
        assert CompilerOptions().verify_ir == expected

    def test_from_wolfram_spellings(self):
        build = CompilerOptions.from_wolfram
        assert build({"VerifyIR": True}).verify_ir == "final"
        assert build({"VerifyIR": False}).verify_ir == "off"
        assert build({"VerifyIR": "Each"}).verify_ir == "each"


class TestErrorShape:
    def test_verification_error_to_dict(self):
        diagnostic = Diagnostic(
            invariant="cfg.terminated", message="no terminator",
            function="Main", block="entry(1)",
        )
        error = VerificationError("cse", [diagnostic], function="Main")
        payload = error.to_dict()
        assert payload["kind"] == "IRVerification"
        assert payload["pass"] == "cse"
        assert payload["function"] == "Main"
        assert payload["diagnostics"][0]["invariant"] == "cfg.terminated"
        # every Diagnostic key is always present (stable schema)
        assert set(payload["diagnostics"][0]) == {
            "invariant", "severity", "message", "function", "block",
            "instruction", "source", "position", "line", "column", "data",
        }

    def test_report_orders_errors_first(self):
        report = format_report([
            Diagnostic(invariant="cfg.unreachable", message="w",
                       severity="warning"),
            Diagnostic(invariant="ssa.unique-def", message="e"),
        ])
        assert report.splitlines()[0].startswith("error:")

    def test_worst_severity(self):
        assert worst_severity([]) is None
        assert worst_severity([
            Diagnostic(invariant="x", message="", severity="info"),
            Diagnostic(invariant="y", message="", severity="warning"),
        ]) == "warning"

    def test_position_to_line_column(self):
        text = "abc\ndef\nghi"
        assert position_to_line_column(text, 0) == (1, 1)
        assert position_to_line_column(text, 4) == (2, 1)
        assert position_to_line_column(text, 9) == (3, 2)
