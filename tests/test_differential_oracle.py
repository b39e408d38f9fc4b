"""The differential oracle (repro.analyze.differ): generator determinism,
three-tier agreement, mismatch shrinking, the boundary-value elision
mode (checks elided vs kept), the constants mode (embedded tables, cache
miss vs hit vs interpreter), and the CI smoke entry points."""

import pytest

from repro.analyze import (
    ConstantsOracle,
    DifferentialOracle,
    ElisionOracle,
    run_boundary_differential,
    run_constants_differential,
    run_differential,
)
from repro.analyze.differ import (
    _BoundaryGenerator,
    _ElisionError,
    _Generator,
    _TierError,
    BOUNDARY_INTEGERS,
    INT64_MAX,
)
from repro.compiler.options import CompilerOptions
import random


class TestGenerator:
    def test_same_seed_same_programs(self):
        generator_a = _Generator(random.Random(7))
        generator_b = _Generator(random.Random(7))
        for _ in range(10):
            spec_a, spec_b = generator_a.spec(), generator_b.spec()
            assert spec_a.body() == spec_b.body()
            assert generator_a.argument(spec_a.kind) == (
                generator_b.argument(spec_b.kind)
            )

    def test_programs_terminate_quickly(self):
        generator = _Generator(random.Random(3))
        for _ in range(20):
            spec = generator.spec()
            assert 0 <= spec.trips <= 6
            assert spec.statement_count() >= 2


class TestComparison:
    def test_integers_compared_exactly(self):
        assert DifferentialOracle.agree(3, 3)
        assert not DifferentialOracle.agree(3, 4)

    def test_reals_compared_with_tolerance(self):
        assert DifferentialOracle.agree(1.0, 1.0 + 1e-12)
        assert not DifferentialOracle.agree(1.0, 1.001)

    def test_matching_errors_agree(self):
        left = _TierError(ZeroDivisionError("x"))
        right = _TierError(ZeroDivisionError("y"))
        assert DifferentialOracle.agree(left, right)
        assert not DifferentialOracle.agree(left, 3)


class TestOracle:
    def test_small_run_agrees(self):
        report = DifferentialOracle(seed=11).run(count=15)
        assert report.ok(), [m.to_dict() for m in report.mismatches]
        assert report.attempted == 15
        assert report.agreed == 15

    def test_time_budget_stops_early(self):
        report = DifferentialOracle(seed=1).run(
            count=10_000, time_budget=0.5
        )
        assert report.attempted < 10_000

    def test_report_serializes(self):
        report = DifferentialOracle(seed=2).run(count=3)
        payload = report.to_dict()
        assert payload["seed"] == 2
        assert payload["attempted"] == 3
        assert "agree across 4 tiers" in report.summary()


class _BrokenCompiledTier(DifferentialOracle):
    """A deliberately wrong compiled tier: off by one on integer kernels."""

    def _run_compiled(self, kind, body, argument):
        result = super()._run_compiled(kind, body, argument)
        if kind == "integer" and isinstance(result, int):
            return result + 1
        return result


class TestShrinking:
    def test_mismatch_detected_and_shrunk(self):
        oracle = _BrokenCompiledTier(seed=5)
        report = oracle.run(count=12)
        assert report.mismatches
        mismatch = next(
            m for m in report.mismatches if m.kind == "integer"
        )
        assert mismatch.shrunk_body is not None
        # the shrunk reproducer must still disagree...
        assert not oracle.consistent(mismatch.shrunk_results)
        # ...and must be no larger than the original program
        assert len(mismatch.shrunk_body) <= len(mismatch.body)

    def test_artifacts_written(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DIFF_ARTIFACTS", str(tmp_path))
        monkeypatch.setenv("REPRO_DIFF_COUNT", "8")
        import repro.analyze.differ as differ_module

        monkeypatch.setattr(
            differ_module, "DifferentialOracle", _BrokenCompiledTier
        )
        report = differ_module.run_differential(seed=5)
        if report.mismatches:  # guaranteed with the broken tier
            files = list(tmp_path.glob("mismatch-*.json"))
            assert len(files) == len(report.mismatches)


@pytest.fixture()
def _no_cache(monkeypatch):
    """Keep oracle compiles out of the persistent artifact cache."""
    monkeypatch.setenv("REPRO_ARTIFACT_CACHE", "off")


class TestBoundaryGenerator:
    def test_same_seed_same_programs(self):
        generator_a = _BoundaryGenerator(random.Random(9))
        generator_b = _BoundaryGenerator(random.Random(9))
        for _ in range(10):
            assert generator_a.spec().body() == generator_b.spec().body()
            assert generator_a.argument() == generator_b.argument()

    def test_programs_hit_the_boundaries(self):
        """Across a batch, the generator must actually emit INT64 edges,
        empty arrays, and off-by-one indices — the mode's whole point."""
        generator = _BoundaryGenerator(random.Random(0))
        bodies = [generator.spec().body() for _ in range(60)]
        text = "\n".join(bodies)
        assert str(INT64_MAX) in text or str(INT64_MAX - 1) in text
        # empty arrays appear, as an allocation: `{}` has no type
        assert "v = Native`CreateTensor[0, 0]" in text
        assert "[[0]]" in text  # below-range index appears

    def test_a_third_of_the_programs_index_a_matrix(self):
        """The rank-2 arm: ``m`` is a display of rows or an allocated
        matrix, indexed by row and column off-by-one biased, and looped
        over up to its row length."""
        generator = _BoundaryGenerator(random.Random(4))
        specs = [generator.spec() for _ in range(300)]
        matrices = [spec for spec in specs if spec.matrix is not None]
        assert 70 <= len(matrices) <= 130
        text = "\n".join(spec.body() for spec in matrices)
        assert "m = {{" in text and "m = Native`CreateMatrix[" in text
        assert "Length[m[[1]]]" in text and "Length[m]" in text
        assert f"m[[1, {INT64_MAX}]]" in text or f"m[[{INT64_MAX}, 1]]" in text
        assert "m[[0, " in text and ", 0]] = a" in text

    def test_arguments_are_boundary_biased(self):
        generator = _BoundaryGenerator(random.Random(1))
        arguments = {generator.argument() for _ in range(80)}
        assert arguments & set(BOUNDARY_INTEGERS)


class TestElisionErrors:
    def test_same_class_same_kind_agree(self):
        from repro.errors import WolframRuntimeError

        left = _ElisionError(WolframRuntimeError("PartOutOfRange", "x"))
        right = _ElisionError(WolframRuntimeError("PartOutOfRange", "y"))
        assert left == right

    def test_kind_difference_diverges(self):
        """Stricter than cross-tier agreement: the *classified kind* must
        survive elision, not just the exception class."""
        from repro.errors import WolframRuntimeError

        left = _ElisionError(WolframRuntimeError("PartOutOfRange", "x"))
        right = _ElisionError(WolframRuntimeError("IntegerOverflow", "y"))
        assert left != right
        assert left != _TierError(WolframRuntimeError("PartOutOfRange", "x"))


class _UnsoundProver:
    """Context manager: every interval claims to fit Integer64."""

    def __enter__(self):
        from unittest import mock

        from repro.analyze.dataflow import Interval

        self._patch = mock.patch.object(
            Interval, "fits_int64", lambda self: True
        )
        self._patch.__enter__()
        return self

    def __exit__(self, *exc_info):
        return self._patch.__exit__(*exc_info)


class _OffByOneColumnProof:
    """Context manager: a ``Part`` index up to one past its axis's extent
    counts as proven in bounds.  For a rank-1 or row index that is still a
    trap (it lands past the end of the data), but one column past the end
    of a row that is not the last reads or writes the next row."""

    def __enter__(self):
        from unittest import mock

        from repro.analyze.dataflow import FunctionFacts

        sound = FunctionFacts.index_proof

        def index_proof(facts, index, tensor, block, column=False):
            interval = facts.interval_at(index, block)
            extent = facts.extent(tensor, 1 if column else 0)
            if None not in (interval.lo, interval.hi, extent) \
                    and interval.lo >= 1 and interval.hi <= extent + 1:
                return "part-bounds"
            return sound(facts, index, tensor, block, column)

        self._patch = mock.patch.object(
            FunctionFacts, "index_proof", index_proof
        )
        self._patch.__enter__()
        return self

    def __exit__(self, *exc_info):
        return self._patch.__exit__(*exc_info)


@pytest.mark.usefixtures("_no_cache")
class TestOffByOneColumnProof:
    """The oracle's sensitivity to the column proof: CI's seed reaches a
    column one past the end of a row that is not the last."""

    def test_off_by_one_column_proof_is_detected(self, monkeypatch):
        # a planted fault's reproducers are not findings: write none
        monkeypatch.delenv("REPRO_DIFF_ARTIFACTS", raising=False)
        with _OffByOneColumnProof():
            report = run_boundary_differential(count=200, seed=20260808)
        assert report.mismatches, "an off-by-one column proof went unnoticed"

    @pytest.mark.parametrize("seed", [0, 20260808])
    def test_sound_proof_agrees(self, seed):
        report = run_boundary_differential(count=200, seed=seed)
        assert report.ok(), [m.to_dict() for m in report.mismatches]


@pytest.mark.usefixtures("_no_cache")
class TestElisionOracle:
    def test_boundary_programs_agree(self):
        report = ElisionOracle(seed=13).run(count=25)
        assert report.ok(), [m.to_dict() for m in report.mismatches]
        assert report.attempted == 25
        assert "checks elided vs kept" in report.summary()

    def test_unsound_prover_is_detected_and_shrunk(self):
        """The sensitivity bar: force ``fits_int64`` to lie and the oracle
        must observe divergence — elided bignum vs trapped overflow."""
        with _UnsoundProver():
            report = ElisionOracle(seed=0).run(count=60)
        assert report.mismatches, "unsound elision went unnoticed"
        mismatch = report.mismatches[0]
        assert mismatch.shrunk_body is not None
        assert len(mismatch.shrunk_body) <= len(mismatch.body)
        with _UnsoundProver():
            oracle = ElisionOracle(seed=0)
            assert not oracle.consistent(
                oracle.run_pair(mismatch.reproducer(), mismatch.argument)
            )

    def test_empty_arrays_are_typed(self):
        """An empty ``v`` is written so that it types: at CI's seed, one
        rank-1 program in six has one, and each used to stop at "cannot
        type an empty list literal" before any of its indices ran."""
        oracle = ElisionOracle(seed=20260808)
        empty = 0
        for _ in range(200):
            spec = oracle.generator.spec()
            argument = oracle.generator.argument()
            empty += not spec.values
            results = oracle.run_pair(spec.body(), argument)
            assert not any(
                isinstance(result, _ElisionError)
                and "empty list literal" in result.message
                for result in results.values()
            ), spec.body()
        assert empty == 22

    def test_artifacts_written(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DIFF_ARTIFACTS", str(tmp_path))
        monkeypatch.setenv("REPRO_DIFF_COUNT", "40")
        with _UnsoundProver():
            report = run_boundary_differential(seed=0)
        assert report.mismatches
        files = list(tmp_path.glob("boundary-seed0-*.json"))
        assert len(files) == len(report.mismatches)


class TestConstantsOracle:
    """Embedded-constant programs: interpreter = cache miss = cache hit,
    for both tables of every one-element-apart pair."""

    #: the sensitivity tests need compiles to reach the store
    needs_cache = pytest.mark.skipif(
        CompilerOptions().verify_ir != "off",
        reason="REPRO_VERIFY_IR bypasses the FunctionCompile artifact cache",
    )

    def test_same_seed_same_cases(self):
        first, second = ConstantsOracle(seed=4), ConstantsOracle(seed=4)
        assert [repr(first.case()) for _ in range(20)] == \
            [repr(second.case()) for _ in range(20)]

    def test_pairs_differ_and_cover_the_boundary_tables(self):
        oracle = ConstantsOracle(seed=1)
        cases = [oracle.case() for _ in range(300)]
        assert all(repr(table) != repr(variant)
                   for _, _, table, variant in cases)
        tables = {repr(table) for _, _, table, _ in cases}
        assert {"[]", "[7]", "[0.0, -0.0, 1.5]", "[nan, inf, -0.0]",
                f"[{-INT64_MAX - 1}, {INT64_MAX}, 0, -1]"} <= tables

    def test_constant_programs_agree_and_leave_no_store_behind(self):
        from repro.artifacts.store import active_override

        before = active_override()
        report = ConstantsOracle(seed=13).run(count=40)
        assert report.ok(), [m.to_dict() for m in report.mismatches]
        assert report.attempted == 40
        assert "cache miss and cache hit" in report.summary()
        assert active_override() is before

    @needs_cache
    def test_key_that_ignores_constants_is_detected(self, monkeypatch):
        from repro.artifacts import keys

        monkeypatch.setattr(keys, "constants_digest", lambda constants: "x")
        report = ConstantsOracle(seed=0).run(count=40)
        assert report.mismatches, "a stale artifact went unnoticed"
        results = report.mismatches[0].results
        # the variant's compiles were served the first table's artifact
        assert repr(results["variant:miss"]) == repr(results["table:hit"])

    @needs_cache
    def test_codec_that_drops_the_sign_of_zero_is_detected(self, monkeypatch):
        from repro.artifacts import codec
        from repro.runtime.packed import PackedArray

        exact = codec._const_from_wire

        def lossy(payload, constants):
            array = exact(payload, constants)
            if isinstance(array, PackedArray):
                array = PackedArray([value + 0 for value in array.data],
                                    array.dims, array.element_type)
            return array

        # every pool entry a hit restores, named or buffered, passes here
        monkeypatch.setattr(codec, "_const_from_wire", lossy)
        report = ConstantsOracle(seed=0).run(count=120)
        assert report.mismatches
        results = report.mismatches[0].results
        assert "-0.0" in {repr(results["table:miss"]),
                          repr(results["variant:miss"])}

    @needs_cache
    def test_artifacts_written(self, tmp_path, monkeypatch):
        from repro.artifacts import keys

        monkeypatch.setattr(keys, "constants_digest", lambda constants: "x")
        monkeypatch.setenv("REPRO_DIFF_ARTIFACTS", str(tmp_path))
        monkeypatch.setenv("REPRO_DIFF_COUNT", "30")
        report = run_constants_differential(seed=0)
        assert report.mismatches
        files = list(tmp_path.glob("constants-seed0-*.json"))
        assert len(files) == len(report.mismatches)


@pytest.mark.differential
class TestConstantsCiSmoke:
    """Rides in the static-analysis job's differential smoke step: table
    pairs through interpreter, cache miss and cache hit, zero divergences
    (a handful of seconds of its 60 s budget)."""

    def test_constant_table_pairs_agree(self):
        report = run_constants_differential(
            count=300, seed=0, time_budget=15.0
        )
        assert report.ok(), [m.to_dict() for m in report.mismatches]
        assert report.attempted >= 200

    def test_alternate_seed_agrees(self):
        report = run_constants_differential(
            count=150, seed=20260927, time_budget=10.0
        )
        assert report.ok(), [m.to_dict() for m in report.mismatches]


@pytest.mark.differential
class TestCiSmoke:
    """The CI ``static-analysis`` job's budgeted fuzz: ≥200 seeded programs
    across all four tiers with zero mismatches (``pytest -m differential``)."""

    def test_two_hundred_programs_agree(self):
        report = run_differential(count=200, seed=0, time_budget=60.0)
        assert report.ok(), [m.to_dict() for m in report.mismatches]
        assert report.attempted >= 200

    def test_alternate_seed_agrees(self):
        report = run_differential(count=100, seed=20260806, time_budget=30.0)
        assert report.ok(), [m.to_dict() for m in report.mismatches]


@pytest.mark.differential
@pytest.mark.usefixtures("_no_cache")
class TestBoundaryCiSmoke:
    """The static-analysis acceptance bar: ≥200 boundary-biased programs,
    elision on (the default), zero divergences against the checks-kept
    build."""

    def test_two_hundred_boundary_programs_agree(self):
        report = run_boundary_differential(
            count=200, seed=0, time_budget=120.0
        )
        assert report.ok(), [m.to_dict() for m in report.mismatches]
        assert report.attempted >= 200

    def test_alternate_seed_agrees(self):
        report = run_boundary_differential(
            count=100, seed=20260808, time_budget=60.0
        )
        assert report.ok(), [m.to_dict() for m in report.mismatches]
