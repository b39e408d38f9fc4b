"""The compiled-code runtime library: packed arrays, checked arithmetic,
memory management, strings, primes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IntegerOverflowError, WolframRuntimeError
from repro.runtime import (
    INT64_MAX,
    INT64_MIN,
    PackedArray,
    checked_binary_plus_Integer64_Integer64 as checked_plus,
    checked_binary_times_Integer64_Integer64 as checked_times,
    checked_unary_minus_Integer64 as checked_minus,
    is_probable_prime,
    memory_acquire,
    memory_release,
    small_prime_table,
)


class TestCheckedArithmetic:
    def test_plus_in_range(self):
        assert checked_plus(1, 2) == 3
        assert checked_plus(INT64_MAX - 1, 1) == INT64_MAX

    def test_plus_overflow(self):
        with pytest.raises(IntegerOverflowError):
            checked_plus(INT64_MAX, 1)

    def test_plus_underflow(self):
        with pytest.raises(IntegerOverflowError):
            checked_plus(INT64_MIN, -1)

    def test_times_overflow(self):
        with pytest.raises(IntegerOverflowError):
            checked_times(2 ** 32, 2 ** 32)

    def test_minus_overflow_on_min(self):
        with pytest.raises(IntegerOverflowError):
            checked_minus(INT64_MIN)

    def test_divide_by_zero(self):
        from repro.runtime import checked_divide_Real64

        with pytest.raises(WolframRuntimeError):
            checked_divide_Real64(1.0, 0.0)

    @given(st.integers(min_value=-2**61, max_value=2**61),
           st.integers(min_value=-2**61, max_value=2**61))
    @settings(max_examples=100)
    def test_plus_matches_python_in_range(self, a, b):
        assert checked_plus(a, b) == a + b


class TestPackedArray:
    def test_from_nested_rank1(self):
        array = PackedArray.from_nested([1.0, 2.0], "Real64")
        assert array.dims == (2,)
        assert array.data == [1.0, 2.0]

    def test_from_nested_rank2(self):
        array = PackedArray.from_nested([[1, 2, 3], [4, 5, 6]], "Integer64")
        assert array.dims == (2, 3)
        assert array.to_nested() == [[1, 2, 3], [4, 5, 6]]

    def test_ragged_rejected(self):
        with pytest.raises(WolframRuntimeError):
            PackedArray.from_nested([[1, 2], [3]], "Integer64")

    def test_compensating_ragged_rejected(self):
        """Row lengths that multiply out to the right flat total must still
        be rejected — the old flat-count check accepted this shape."""
        with pytest.raises(WolframRuntimeError):
            PackedArray.from_nested([[1, 2], [3], [4, 5, 6]], "Integer64")
        with pytest.raises(WolframRuntimeError):
            PackedArray.from_nested(
                [[[1], [2]], [[3, 4], []]], "Integer64"
            )
        # depth raggedness: a scalar where a row is expected, and vice versa
        with pytest.raises(WolframRuntimeError):
            PackedArray.from_nested([[1, 2], 3, [4, 5, 6]], "Integer64")
        with pytest.raises(WolframRuntimeError):
            PackedArray.from_nested([[1, [2]], [3, 4]], "Integer64")

    def test_one_based_indexing(self):
        array = PackedArray.from_nested([10, 20, 30], "Integer64")
        assert array.get1(1) == 10
        assert array.get1(3) == 30

    def test_negative_indexing(self):
        array = PackedArray.from_nested([10, 20, 30], "Integer64")
        assert array.get1(-1) == 30
        assert array.get1(-3) == 10

    def test_out_of_range(self):
        array = PackedArray.from_nested([1], "Integer64")
        with pytest.raises(WolframRuntimeError):
            array.get1(2)
        with pytest.raises(WolframRuntimeError):
            array.get1(0)
        with pytest.raises(WolframRuntimeError):
            array.get1(-2)

    def test_rank2_access(self):
        array = PackedArray.from_nested([[1, 2], [3, 4]], "Integer64")
        assert array.get2(2, 1) == 3
        array.set2(1, 2, 99)
        assert array.to_nested() == [[1, 99], [3, 4]]

    def test_copy_is_independent(self):
        array = PackedArray.from_nested([1, 2], "Integer64")
        clone = array.copy()
        clone.set1(1, 99)
        assert array.get1(1) == 1

    def test_numpy_round_trip(self):
        import numpy as np

        array = PackedArray.from_nested([[1.5, 2.5]], "Real64")
        round_tripped = PackedArray.from_numpy(array.to_numpy())
        assert round_tripped.to_nested() == array.to_nested()

    @given(st.lists(st.integers(min_value=-10**6, max_value=10**6),
                    min_size=1, max_size=32))
    @settings(max_examples=60)
    def test_indexing_matches_python_semantics(self, data):
        array = PackedArray.from_nested(data, "Integer64")
        for index in range(1, len(data) + 1):
            assert array.get1(index) == data[index - 1]
            assert array.get1(-index) == data[-index]


class TestPackedArrayStates:
    """One class, two states: a list of elements, or (for an array only
    the BLAS looks at) an ndarray until the first read of ``data``."""

    NESTED = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    def _pair(self):
        import numpy as np

        listed = PackedArray.from_nested(self.NESTED, "Real64")
        resident = PackedArray.from_numpy(np.array(self.NESTED))
        assert listed.resident is None and resident.resident is not None
        return listed, resident

    def test_both_states_answer_alike(self):
        import numpy as np

        listed, resident = self._pair()
        assert resident.dims == listed.dims == (2, 3)
        assert resident.element_type == listed.element_type == "Real64"
        assert len(resident) == len(listed) == 2
        assert resident.flat_length == listed.flat_length == 6
        assert resident.to_nested() == listed.to_nested() == self.NESTED
        assert np.array_equal(resident.to_numpy(), listed.to_numpy())
        assert resident == listed and listed == resident
        assert resident.copy() == listed.copy() == listed
        # none of that needed the list
        assert resident.resident is not None
        assert resident.copy().resident is not None

    def test_unequal_arrays_differ_across_states(self):
        import numpy as np

        listed, _ = self._pair()
        assert listed != PackedArray.from_numpy(np.zeros((2, 3)))
        assert listed != PackedArray.from_numpy(np.array(self.NESTED).T)

    def test_first_read_of_data_drops_the_ndarray(self):
        _, resident = self._pair()
        data = resident.data
        assert data == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert resident.resident is None and resident.data is data
        # one authority: a write through ``data`` is what to_numpy sees
        data[0] = 9.0
        assert resident.to_numpy()[0, 0] == 9.0
        assert resident.get2(1, 1) == 9.0

    def test_from_numpy_copies_what_it_is_given(self):
        import numpy as np

        source = np.array(self.NESTED)
        resident = PackedArray.from_numpy(source)
        source[0, 0] = -1.0
        assert resident.to_nested() == self.NESTED
        with pytest.raises(ValueError):
            resident.to_numpy()[0, 0] = 7.0  # shared, so read-only

    def test_integer_arrays_keep_their_element_type(self):
        import numpy as np

        resident = PackedArray.from_numpy(np.array([1, 2, 3]))
        assert resident.element_type == "Integer64"
        assert resident.data == [1, 2, 3]
        assert all(type(item) is int for item in resident.data)

    def test_dgemm_takes_and_returns_the_ndarray_state(self):
        import numpy as np

        from repro.runtime import dgemm

        listed, resident = self._pair()
        other = PackedArray.from_numpy(np.ones((3, 2)))
        for left in (listed, resident):
            product = dgemm(left, other)
            assert product.resident is not None
            assert product.to_nested() == [[6.0, 6.0], [15.0, 15.0]]
        assert resident.resident is not None and other.resident is not None

    def test_pickle_round_trips_either_state(self):
        import pickle

        listed, resident = self._pair()
        for array in (listed, resident):
            again = pickle.loads(pickle.dumps(array))
            assert again == listed and again.dims == (2, 3)


class TestMemoryManagement:
    def test_acquire_release_refcount(self):
        array = PackedArray.from_nested([1], "Integer64")
        assert array.ref_count == 1
        memory_acquire(array)
        assert array.ref_count == 2
        memory_release(array)
        assert array.ref_count == 1

    def test_noop_for_scalars(self):
        assert memory_acquire(5) == 5
        assert memory_release(2.5) == 2.5


class TestPrimes:
    def test_small_cases(self):
        assert not is_probable_prime(0)
        assert not is_probable_prime(1)
        assert is_probable_prime(2)
        assert is_probable_prime(3)
        assert not is_probable_prime(4)

    def test_against_sieve(self):
        table = set(small_prime_table(2000))
        for n in range(2000):
            assert is_probable_prime(n) == (n in table)

    def test_large_known_prime(self):
        assert is_probable_prime(2 ** 61 - 1)  # Mersenne prime
        assert not is_probable_prime(2 ** 61 - 3)

    def test_carmichael_numbers_rejected(self):
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(carmichael)

    def test_seed_table_size(self):
        """§6: the 2^14 seed table."""
        table = small_prime_table(1 << 14)
        assert table[0] == 2
        assert table[-1] < (1 << 14)
        assert len(table) == 1900  # π(16384)


class TestStrings:
    def test_utf8_bytes(self):
        from repro.runtime import string_utf8_bytes

        assert list(string_utf8_bytes("é")) == [0xC3, 0xA9]

    def test_byte_at_negative(self):
        from repro.runtime import string_byte_at, string_utf8_bytes

        data = string_utf8_bytes("abc")
        assert string_byte_at(data, -1) == ord("c")

    def test_character_codes_round_trip(self):
        from repro.runtime import from_character_codes, to_character_codes

        assert from_character_codes(to_character_codes("héllo")) == "héllo"


class TestBlasBridge:
    def test_dgemm_matches_numpy(self):
        import numpy as np

        from repro.runtime import dgemm

        a = PackedArray.from_nested([[1.0, 2.0], [3.0, 4.0]], "Real64")
        b = PackedArray.from_nested([[5.0, 6.0], [7.0, 8.0]], "Real64")
        ours = dgemm(a, b).to_numpy()
        reference = np.dot(a.to_numpy(), b.to_numpy())
        assert np.allclose(ours, reference)

    def test_dot_nested_scalar_result(self):
        from repro.runtime import dot_nested

        assert dot_nested([1.0, 2.0], [3.0, 4.0]) == 11.0


class TestMemoryBalance:
    def test_acquire_release_balance_for_temporary_tensor(self):
        """F7: a tensor consumed within the function balances its
        acquire/release events (the live-interval head and tail)."""
        from repro.compiler import FunctionCompile
        from repro.runtime import memory_stats, reset_memory_stats

        f = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]},'
            ' Total[Table[i, {i, 1, n}]]]'
        )
        reset_memory_stats()
        f(10)
        f(10)
        stats = memory_stats()
        assert stats["acquire"] == stats["release"] == 2

    def test_returned_tensor_not_released(self):
        """A value that escapes through Return keeps its reference."""
        from repro.compiler import FunctionCompile
        from repro.runtime import memory_stats, reset_memory_stats

        f = FunctionCompile(
            'Function[{Typed[n, "MachineInteger"]}, Table[i, {i, 1, n}]]'
        )
        reset_memory_stats()
        out = f(4)
        stats = memory_stats()
        assert stats["acquire"] >= 1
        assert stats["release"] < stats["acquire"]
        assert out.ref_count >= 1
