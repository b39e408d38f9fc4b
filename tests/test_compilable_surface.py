"""One answer to "can this head compile": the compiler's surface.

``repro.compiler.surface.compilable_heads`` is built from the compiler's own
declarations (type environment, macro environment, structural heads), and
both the promotion gate and lint read it.  The cases are driven from the
same declarations: every surface head with a scalar Integer64/Real64
signature of arity 1-3 becomes a hot DownValue that either promotes and
agrees with the interpreter, or is refused by the gate before any compile;
every macro head gets a hot DownValue of its own, checked the same way.
"""

import math
import random

import pytest

from repro.analyze import lint_text
from repro.bytecode.supported import BINARY_OPS, COMPARISON_OPS, UNARY_MATH
from repro.compiler import install_engine_support
from repro.compiler.macros import default_macro_environment
from repro.compiler.surface import compilable_heads, macro_only_heads
from repro.compiler.types.builtin_env import default_environment
from repro.compiler.types.specifier import FunctionType, ty
from repro.engine import Evaluator
from repro.engine.builtins.support import registry
from repro.mexpr import full_form
from repro.runtime.hotspot import disable_hotspot

_KINDS = {ty("Integer64"): "i", ty("Real64"): "r"}

#: the gate's refusal, recorded before any compile is attempted
_NOT_PROMOTABLE = "definition is not promotable"


def _scalar_signatures() -> list[tuple[str, str]]:
    """``(head, kinds)`` for every surface declaration whose parameters are
    all Integer64 (``i``) or Real64 (``r``), arity 1-3."""
    env = default_environment()
    cases = set()
    for head in compilable_heads():
        if head.startswith("Native`"):
            continue
        for declaration in env.declarations(head):
            signature = declaration.type
            if not isinstance(signature, FunctionType):
                continue
            kinds = [_KINDS.get(param) for param in signature.params]
            if 1 <= len(kinds) <= 3 and None not in kinds:
                cases.add((head, "".join(kinds)))
    return sorted(cases)


def _session(hot: bool) -> Evaluator:
    session = Evaluator()
    install_engine_support(session)
    if hot:
        session.hotspot.threshold = 2
    else:
        disable_hotspot(session)
    return session


def _literal(rng: random.Random, kind: str) -> str:
    return str(rng.randint(1, 9)) if kind == "i" else repr(rng.uniform(0.1, 0.9))


def _outcome(session: Evaluator, call: str) -> str:
    """The FullForm of ``call``'s value, or the class name of its error."""
    try:
        return full_form(session.run(call))
    except Exception as error:
        return type(error).__name__


def _run_hot_and_cold(definition: str, calls: list[str]):
    """Evaluate ``calls`` after ``definition`` in a hot session (promotion
    at the 2nd application) and a cold one; the hot session and both
    sessions' outcomes."""
    hot, cold = _session(True), _session(False)
    results = []
    for session in (hot, cold):
        session.run(definition)
        session.run("SeedRandom[20261018]")  # the same draws in both
        results.append([_outcome(session, call) for call in calls])
    return hot, *results


def _promoted_or_refused(hot: Evaluator, got, want,
                         refusals=(_NOT_PROMOTABLE,)) -> str:
    """``"promoted"`` (and agreeing) or ``"refused"`` (by the gate, with
    no compile attempted, unless ``refusals`` admits more); anything else
    fails."""
    profiler = hot.hotspot
    entry = profiler.promoted.get("probe")
    if entry is not None:
        assert entry.hits > 0
        assert got == want
        return "promoted"
    assert profiler.compile_count == 0
    [event] = [e for e in profiler.events if e.name == "probe"]
    assert event.action == "blocked" and event.detail in refusals
    assert got == want
    return "refused"


@pytest.mark.parametrize("head, kinds", _scalar_signatures())
def test_scalar_declaration_promotes_or_is_refused(head, kinds):
    rng = random.Random(f"{head}:{kinds}")
    names = [f"a{position}" for position in range(len(kinds))]
    definition = (
        f"probe[{', '.join(name + '_' for name in names)}] := "
        f"{head}[{', '.join(names)}]"
    )
    calls = [
        f"probe[{', '.join(_literal(rng, kind) for kind in kinds)}]"
        for _ in range(6)
    ]
    _promoted_or_refused(*_run_hot_and_cold(definition, calls))


#: one hot ``probe[n_]`` per macro head: ``(head, body, kind)``, ``kind``
#: ``i`` for Integer arguments and ``r`` for Real ones
_MACRO_CASES = [
    ("And", "n > 1 && n < 5", "i"),
    ("Or", "n < 2 || n > 4", "i"),
    ("TrueQ", "TrueQ[n > 3]", "i"),
    ("Less", "1 < n < 5", "i"),
    ("Greater", "5 > n > 1", "i"),
    ("LessEqual", "1 <= n <= 4", "i"),
    ("GreaterEqual", "5 >= n >= 2", "i"),
    ("Equal", "Equal[n, n, 3]", "i"),
    ("SameQ", "SameQ[n, n, 3]", "i"),
    ("Plus", "n + 1 + n", "i"),
    ("Times", "n*2*n", "i"),
    ("Times", "n/2", "i"),
    ("Times", "n/2.", "r"),
    ("StringJoin", "StringLength[StringJoin["
                   "FromCharacterCode[65 + n], FromCharacterCode[66]]]", "i"),
    ("AddTo", "n += 2", "i"),
    ("SubtractFrom", "n -= 2", "i"),
    ("TimesBy", "n *= 2", "i"),
    ("DivideBy", "n /= 2.", "r"),
    ("PreIncrement", "++n", "i"),
    ("PreDecrement", "--n", "i"),
    ("Increment", "n++", "i"),
    ("Decrement", "n--", "i"),
    ("For", "For[n, False, n]", "i"),
    ("Which", "Which[n < 2, 10, n < 4, 20, True, 30]", "i"),
    ("Do", "Do[n, {3}]", "i"),
    ("Table", "Total[Table[n, {3}]]", "i"),
    ("Table", "Total[Table[n, {3}]]", "r"),
    ("Sum", "Sum[n, {3}]", "i"),
    ("Range", "Total[Range[n]]", "i"),
    ("ConstantArray", "Total[ConstantArray[n, 3]]", "i"),
    ("Map", "Total[Map[#*2 &, {n, n}]]", "i"),
    ("Fold", "Fold[Plus, n, {1, 2}]", "i"),
    ("Nest", "Nest[#*2 &, n, 3]", "i"),
    ("NestList", "Total[NestList[#*2 &, n, 3]]", "i"),
    ("NestWhile", "NestWhile[#*2 &, n, # < 100 &]", "i"),
    ("FixedPoint", "FixedPoint[Floor[#/2] &, n]", "i"),
    ("FixedPoint", "FixedPoint[(# + 2/#)/2 &, n]", "r"),
    ("Total", "Total[{n, n}, 1]", "i"),
    ("Mean", "Mean[{n, n}]", "i"),  # exact: 3, not 3.0
    ("Mean", "Mean[{n, n + 1}]", "i"),
    ("Mean", "Mean[{n, n + 1}]", "r"),
    ("RandomReal", "RandomReal[n]", "r"),
    ("RandomInteger", "RandomInteger[n]", "i"),
    ("Power", "n^2", "i"),
    ("Power", "n^2", "r"),
    ("First", "First[{n, 2}]", "i"),
    ("Last", "Last[{n, 2}]", "i"),
    ("Native`Projection",
     "Native`Projection[Native`MakeProduct[n, n], 1]", "i"),
]


def test_every_macro_head_has_a_case():
    assert default_macro_environment().heads() <= {
        head for head, _, _ in _MACRO_CASES}


@pytest.mark.parametrize(
    "head, body, kind", _MACRO_CASES,
    ids=[f"{head}-{kind}-{body}" for head, body, kind in _MACRO_CASES])
def test_macro_head_promotes_or_is_refused(head, body, kind):
    """A head only a macro compiles is refused by the gate when no macro
    rule takes its shape (``Sum[n, {3}]``), before any compile.  Any other
    head may still be declined by the compiled tier after the gate let it
    through — a refusal too, as long as the answers agree."""
    calls = [f"probe[{k if kind == 'i' else k + 0.25}]" for k in range(1, 7)]
    refusals = (_NOT_PROMOTABLE,)
    if head not in macro_only_heads():
        refusals += ("the compiled tier declined the definition",)
    outcome = _promoted_or_refused(
        *_run_hot_and_cold(f"probe[n_] := {body}", calls), refusals=refusals)
    if body == "Sum[n, {3}]":
        assert outcome == "refused"


def test_an_uncapped_loop_is_not_promoted():
    """The interpreter's ``FixedPoint`` stops after 2^16 steps; its
    compiled form is a bare ``While`` that would not stop on an orbit."""
    hot, cold = _session(True), _session(False)
    hot.hotspot.threshold = 1
    for session in (hot, cold):
        session.run("probe[x_] := FixedPoint[-# &, x]")
    assert _outcome(hot, "probe[1.5]") == _outcome(cold, "probe[1.5]")
    assert "probe" not in hot.hotspot.promoted


class TestDisagreementsReversed:
    @pytest.mark.parametrize("definition, call", [
        ("probe[n_] := Boole[n > 2]", "probe[{}]"),
        ("probe[n_] := Minus[n] + 1", "probe[{}]"),
        ("probe[x_] := IntegerPart[x]", "probe[{}.75]"),
        ("probe[n_] := N[n] + 0.5", "probe[{}]"),
        ("probe[n_] := PowerMod[n, 13, 97]", "probe[{}]"),
    ])
    def test_heads_the_compiler_declares_promote(self, definition, call):
        calls = [call.format(k) for k in range(1, 7)]
        assert _promoted_or_refused(
            *_run_hot_and_cold(definition, calls)) == "promoted"

    def test_integer_argument_takes_the_real_overload(self):
        """``Sin`` of an Integer64 is the Real64 overload's float, compiled
        directly and promoted alike, never a ``Complex``."""
        session = _session(False)
        value = session.run(
            'FunctionCompile[Function[{Typed[n, "MachineInteger"]}, Sin[n]]][3]'
        )
        assert full_form(value) == full_form(session.run("Sin[3]"))
        assert isinstance(value.to_python(), float)
        calls = [f"probe[{k}]" for k in range(1, 7)]
        assert _promoted_or_refused(
            *_run_hot_and_cold("probe[n_] := Sin[n]", calls)
        ) == "promoted"

    @pytest.mark.parametrize("head", ["Positive", "IntegerQ"])
    def test_heads_the_compiler_lacks_are_refused_before_compiling(
            self, head):
        calls = [f"probe[{k}]" for k in range(1, 7)]
        assert _promoted_or_refused(
            *_run_hot_and_cold(f"probe[n_] := {head}[n]", calls)
        ) == "refused"

    def test_undeclared_callee_is_not_promoted_into_a_self_call(self):
        """``Log10`` is no compiler head: promoting would type it as a
        self-call and recurse without end."""
        lines = ["lg[x_Real] := Log10[x] + 1.0",
                 "Total[Table[lg[1.0*k], {k, 1, 40}]]"]
        results = []
        for hot in (True, False):
            session = _session(hot)
            for line in lines:
                value = session.run(line)
            results.append(full_form(value))
        assert results[0] == results[1]
        assert float(results[0]) == pytest.approx(40.0 + sum(
            math.log10(k) for k in range(1, 41)))

    @pytest.mark.parametrize("head, source", [
        ("Switch", "Switch[x, 1, 2, _, 3]"),
        ("Product", "Product[i, {i, 1, x}]"),
        ("Log10", "Log10[x]"),
    ])
    def test_lint_reports_interpreter_only_heads(self, head, source):
        diagnostics = list(lint_text(f"Function[{{x}}, {source}]"))
        [unsupported] = [d for d in diagnostics
                         if d.invariant == "lint.unsupported"]
        assert unsupported.data["head"] == head
        assert unsupported.data["fallback"] == "interpreter"
        assert not any("bytecode" in d.message for d in diagnostics)


#: opcode-map names that are sub-codes of the VM, not source functions
_INTERNAL_CODES = {"Neg"}


def test_every_declared_head_has_an_interpreter_builtin():
    """The interpreter is every compiled tier's fallback: each head a
    compiler declares must evaluate there too."""
    declared = {
        name for name in default_environment().function_names()
        if not name.startswith("Native`")
    }
    opcodes = (set(BINARY_OPS) | set(COMPARISON_OPS) | set(UNARY_MATH)
               ) - _INTERNAL_CODES
    assert (declared | opcodes) - set(registry()) == set()


def test_two_argument_arctan_is_the_angle_of_the_point():
    """``ArcTan[x, y]`` is the angle of ``(x, y)`` on both tiers."""
    from repro.compiler import FunctionCompile

    compiled = FunctionCompile(
        'Function[{Typed[x, "Real64"], Typed[y, "Real64"]}, ArcTan[x, y]]')
    session = Evaluator()
    for x, y in ((-1.0, 1.0), (1.0, -2.0), (0.5, 0.0)):
        angle = math.atan2(y, x)
        assert compiled(x, y) == angle
        assert session.run(f"ArcTan[{x}, {y}]").to_python() == angle
