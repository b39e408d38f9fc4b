"""One way to set each value.

A compile is configured by its ``CompilerOptions``; a profiler, tracer,
flight recorder or failure log by its constructor; a trace by ``--trace
FILE``.  The environment names that used to shadow those values are read
nowhere: set to junk or to non-default values, they change nothing.
"""

import re

import pytest

from repro.__main__ import _parser
from repro.analyze.differ import run_differential
from repro.compiler import FunctionCompile, install_engine_support
from repro.compiler.options import CompilerOptions
from repro.engine import Evaluator
from repro.errors import CompilerError
from repro.mexpr import parse
from repro.observe.flight import FlightRecorder
from repro.observe.trace import Tracer
from repro.runtime.guard import FailureLog
from repro.runtime.hotspot import DEFAULT_THRESHOLD

#: every deleted knob, with a value its parser used to act on (or junk)
DELETED_KNOBS = {
    "REPRO_DATAFLOW": "0",
    "REPRO_ELIDE_CHECKS": "off",
    "REPRO_HOTSPOT_THRESHOLD": "2",
    "REPRO_FAILURE_LOG_MAX": "7",
    "REPRO_TRACE_MAX_SPANS": "5",
    "REPRO_TELEMETRY_SAMPLE": "0.25",
    "REPRO_FLIGHT_MAX_EVENTS": "3",
    "REPRO_FLIGHT_SNAPSHOTS": "1",
    "REPRO_FLIGHT_SLOW_SECONDS": "not-a-number",
    "REPRO_TRACE": "trace.json",
    "REPRO_DIFF_BUDGET": "0.000001",
}

#: a bounded loop: dataflow proves its overflow checks away
BOUNDED_SUM = (
    'Function[{Typed[n, "MachineInteger"]},'
    ' Module[{s = 0}, Do[s = s + i, {i, 1, 100}]; s + n]]'
)


def _promoted_at() -> int:
    """The application at which a fresh session promotes ``f``."""
    session = Evaluator()
    install_engine_support(session)
    session.run("f[n_] := n + 1")
    for application in range(1, 4 * DEFAULT_THRESHOLD):
        session.run("f[1]")
        if "f" in session.hotspot.promoted:
            return application
    return 0


def _behaviour() -> dict:
    options = CompilerOptions()
    compiled = FunctionCompile(parse(BOUNDED_SUM))
    recorder = FlightRecorder()
    return {
        "options": (options.dataflow, options.elide_checks),
        # generated names count up process-wide; the code is the same
        "source": re.sub(r"\bv\d+\b", "v", compiled.generated_source),
        "result": compiled(1),
        "promoted_at": _promoted_at(),
        "tracer": Tracer().max_spans,
        "recorder": (recorder.max_events, recorder.sample,
                     recorder.max_snapshots, recorder.slow_seconds),
        "failure_log": FailureLog().capacity,
        "trace_flag": _parser().parse_args([]).trace,
        "differential": run_differential(count=2, seed=0).attempted,
    }


def test_deleted_knobs_change_nothing(monkeypatch):
    for name in DELETED_KNOBS:
        monkeypatch.delenv(name, raising=False)
    unset = _behaviour()
    assert unset["promoted_at"] == DEFAULT_THRESHOLD == 16
    checked = FunctionCompile(parse(BOUNDED_SUM),
                              options=CompilerOptions(elide_checks=False))
    assert unset["source"].count("Error()") < \
        checked.generated_source.count("Error()")
    assert unset["trace_flag"] is None
    assert unset["differential"] == 2
    for name, value in DELETED_KNOBS.items():
        monkeypatch.setenv(name, value)
    assert _behaviour() == unset


@pytest.mark.parametrize("rules", [
    {"TargetSystem": "Bogus"},
    {"TargetSystem": "C"},
    {"InlinePolicy": "bogus"},
    {"ConstantArrayHandling": "eager"},
    {"OptimizationLevel": "x"},
    {"OptimizationLevel": -1},
    {"OptimizationLevel": True},
])
def test_malformed_option_is_a_compiler_error(rules):
    """An enumerated option outside its values, or an optimization level
    that is not an integer >= 0, is refused; it never compiles the
    default instead."""
    with pytest.raises(CompilerError):
        FunctionCompile(BOUNDED_SUM, **rules)


@pytest.mark.parametrize("rules", [
    {"TargetSystem": "WVM"}, {"InlinePolicy": None},
    {"InlinePolicy": "aggressive"}, {"ConstantArrayHandling": "naive"},
    {"OptimizationLevel": None}, {"OptimizationLevel": 2},
])
def test_well_formed_options_compile(rules):
    assert FunctionCompile(BOUNDED_SUM, **rules) is not None
