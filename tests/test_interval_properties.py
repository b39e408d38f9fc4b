"""Property tests: interval arithmetic vs concrete int64 semantics.

The soundness of every elided check reduces to one algebraic claim: the
abstract transfer functions over-approximate the concrete operations.
Hypothesis drives that claim with boundary-biased integers (int64 edges
get extra weight).  The suite is skipped gracefully where hypothesis is
not installed (the CI image has it; the baked toolchain may not).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analyze.dataflow import INT64_MAX, INT64_MIN, Interval  # noqa: E402

#: concrete values with the int64 boundary over-represented
boundary_ints = st.one_of(
    st.sampled_from([
        INT64_MAX, INT64_MAX - 1, INT64_MIN, INT64_MIN + 1, -1, 0, 1,
    ]),
    st.integers(min_value=INT64_MIN * 2, max_value=INT64_MAX * 2),
)


@st.composite
def interval_with_member(draw):
    """A (possibly half-unbounded) interval plus one value inside it."""
    value = draw(boundary_ints)
    lo_slack = draw(st.integers(min_value=0, max_value=1 << 70))
    hi_slack = draw(st.integers(min_value=0, max_value=1 << 70))
    lo = None if draw(st.booleans()) else value - lo_slack
    hi = None if draw(st.booleans()) else value + hi_slack
    return Interval(lo, hi), value


@settings(max_examples=300, deadline=None)
@given(interval_with_member(), interval_with_member())
def test_add_over_approximates(left, right):
    (a, x), (b, y) = left, right
    assert a.add(b).contains(x + y)


@settings(max_examples=300, deadline=None)
@given(interval_with_member(), interval_with_member())
def test_subtract_over_approximates(left, right):
    (a, x), (b, y) = left, right
    assert a.subtract(b).contains(x - y)


@settings(max_examples=300, deadline=None)
@given(interval_with_member(), interval_with_member())
def test_multiply_over_approximates(left, right):
    (a, x), (b, y) = left, right
    assert a.multiply(b).contains(x * y)


@settings(max_examples=300, deadline=None)
@given(interval_with_member(), interval_with_member())
def test_bit_and_over_approximates(left, right):
    (a, x), (b, y) = left, right
    assert a.bit_and(b).contains(x & y)


@settings(max_examples=300, deadline=None)
@given(interval_with_member(), interval_with_member())
def test_bit_xor_over_approximates(left, right):
    (a, x), (b, y) = left, right
    assert a.bit_xor(b).contains(x ^ y)


@settings(max_examples=300, deadline=None)
@given(interval_with_member())
def test_negate_over_approximates(pair):
    a, x = pair
    assert a.negate().contains(-x)


@settings(max_examples=300, deadline=None)
@given(interval_with_member(), interval_with_member())
def test_fits_int64_is_a_proof(left, right):
    """The elision criterion itself: when the abstract sum claims to fit,
    the concrete sum must be a legal int64 — no overflow trap possible."""
    (a, x), (b, y) = left, right
    if a.add(b).fits_int64():
        assert INT64_MIN <= x + y <= INT64_MAX
    if a.multiply(b).fits_int64():
        assert INT64_MIN <= x * y <= INT64_MAX


@settings(max_examples=300, deadline=None)
@given(interval_with_member(), interval_with_member())
def test_union_and_widen_contain_both(left, right):
    (a, x), (b, y) = left, right
    union = a.union(b)
    assert union.contains(x) and union.contains(y)
    widened = a.widen(b)
    assert widened.contains(x) and widened.contains(y)


@settings(max_examples=300, deadline=None)
@given(interval_with_member())
def test_widen_reaches_fixpoint(pair):
    """Widening is ascending and idempotent once a bound escapes —
    the termination argument for the worklist loop."""
    a, _ = pair
    grown = a.widen(Interval(None, None))
    assert grown.is_top
    assert grown.widen(grown).is_top


@settings(max_examples=300, deadline=None)
@given(interval_with_member(), interval_with_member())
def test_intersect_is_exact_meet(left, right):
    (a, x), (b, _) = left, right
    meet = a.intersect(b)
    assert meet.contains(x) == (a.contains(x) and b.contains(x))


@settings(max_examples=300, deadline=None)
@given(interval_with_member())
def test_clamp_result_fits(pair):
    a, x = pair
    clamped = a.clamp_int64()
    assert clamped.fits_int64() or clamped.is_empty
    if INT64_MIN <= x <= INT64_MAX:
        assert clamped.contains(x)


# -- the engine's widening, and what a Part that succeeded says ---------------


@settings(max_examples=300, deadline=None)
@given(interval_with_member(), interval_with_member())
def test_threshold_widening_contains_both_and_terminates(left, right):
    """``_widen`` stops a moving bound at the Integer64 range once, then
    lets it go: still an upper bound of both, and stable after at most two
    more steps whatever keeps arriving."""
    from repro.analyze.dataflow import _widen

    (a, x), (b, y) = left, right
    newer = a.union(b)  # the engine only ever widens towards a union
    widened = _widen(a, newer)
    assert widened.contains(x) and widened.contains(y)
    beyond = Interval(INT64_MIN * 4, INT64_MAX * 4)
    for _ in range(2):
        widened = _widen(widened, widened.union(beyond))
    assert _widen(widened, widened.union(beyond)) == widened


_AFTER_PART = (
    'Function[{{Typed[v, TypeSpecifier["Tensor"["Integer64", 1]]],'
    ' Typed[x, "MachineInteger"]}},'
    ' Module[{{a = 0}},'
    '  a = v[[x]]; If[a >= 0, a = x {sign} {offset}, a = x {sign} 1]; a]]'
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 5),
    st.sampled_from(["len", "-len", "len+1", "-(len+1)", "0", "max", "min"]),
    st.sampled_from(["+", "-"]),
    st.sampled_from([
        INT64_MAX, INT64_MAX - 1, INT64_MAX - (1 << 48),
        INT64_MAX - (1 << 48) + 1, INT64_MAX - 5, 0, 1,
    ]),
)
def test_part_survived_fact_never_hides_an_overflow(length, where, sign,
                                                    offset):
    """Indices at ``±len``, ``±(len + 1)``, ``0`` and the Integer64 ends:
    with the overflow check on ``x ± offset`` elided wherever the ``Part``
    before it proves the index short, the function returns what it
    returns with every check kept — value or error kind."""
    from repro.compiler import FunctionCompile
    from repro.errors import WolframRuntimeError

    index = {
        "len": length, "-len": -length, "len+1": length + 1,
        "-(len+1)": -(length + 1), "0": 0, "max": INT64_MAX,
        "min": INT64_MIN,
    }[where]
    source = _AFTER_PART.format(sign=sign, offset=offset)
    vector = [k - 2 for k in range(length)]
    outcomes = []
    for options in ({}, {"ElideChecks": False}, {"OptimizationLevel": 0}):
        try:
            outcomes.append(FunctionCompile(source, **options)(vector, index))
        except WolframRuntimeError as error:
            outcomes.append(error.kind)
    assert outcomes[0] == outcomes[1] == outcomes[2], (source, index)
    if where in ("len+1", "-(len+1)", "0", "max", "min"):
        assert outcomes[0] == "PartOutOfRange"
    elif length and sign == "+" and index + offset > INT64_MAX:
        assert outcomes[0] in ("IntegerOverflow", index + 1)


def test_part_bounds_its_index_only_past_the_part():
    """The fact holds in the blocks the ``Part``'s block strictly
    dominates, not in that block itself and not before it."""
    from repro.analyze.dataflow import LENGTH_BOUND, analyze_function
    from repro.compiler import CompileToIR

    program = CompileToIR(
        'Function[{Typed[v, TypeSpecifier["Tensor"["Integer64", 1]]],'
        ' Typed[x, "MachineInteger"]},'
        ' Module[{a = v[[x]]}, If[a > 0, x + 1, x - 1]]]',
        ElideChecks=False,
    )["program"]
    main = program.main_function()
    facts = analyze_function(main)
    x = main.parameters[1]
    assert facts.interval_at(x, main.entry).hi == INT64_MAX
    branches = [name for name in main.blocks if name.startswith("if_")]
    assert branches
    for name in branches:
        bounded = facts.interval_at(x, name)
        assert (bounded.lo, bounded.hi) == (-LENGTH_BOUND, LENGTH_BOUND)
