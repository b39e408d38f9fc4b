"""The compiled-code runtime library.

Generated code (Python backend) and the bytecode VM both link against this
package: checked machine arithmetic (F2), packed tensors, reference-counted
memory management (F7), UTF-8 string primitives, the abort/guard checkpoint
protocol (F3), and the shared BLAS bridge.
"""

from repro.runtime.blas import dgemm, dot_nested
from repro.runtime.guard import (
    ExecutionGuard,
    FailureLog,
    FailureRecord,
    FallbackStats,
    CircuitBreaker,
    Tier,
    FAILURE_LOG,
    active_guard,
    charge_memory,
    checkpoint,
    guard_scope,
)
from repro.runtime.checked import (
    INT64_MAX,
    INT64_MIN,
    check_int64,
    checked_binary_mod_Integer64_Integer64,
    checked_binary_plus_Integer64_Integer64,
    checked_binary_power_Integer64_Integer64,
    checked_binary_quotient_Integer64_Integer64,
    checked_binary_subtract_Integer64_Integer64,
    checked_binary_times_Integer64_Integer64,
    checked_divide_Real64,
    checked_unary_minus_Integer64,
)
from repro.runtime.memory import (
    memory_acquire,
    memory_charge,
    memory_release,
    memory_stats,
    reset_memory_stats,
)
from repro.runtime.packed import PackedArray, packed_from_iterable
from repro.runtime.primes import is_probable_prime, small_prime_table
from repro.runtime.strings import (
    from_character_codes,
    string_byte_at,
    string_drop,
    string_join,
    string_length,
    string_take,
    string_utf8_bytes,
    to_character_codes,
)

__all__ = [
    "CircuitBreaker", "ExecutionGuard", "FAILURE_LOG", "FailureLog",
    "FailureRecord", "FallbackStats", "INT64_MAX", "INT64_MIN",
    "PackedArray", "Tier", "active_guard",
    "charge_memory", "check_int64", "checkpoint", "guard_scope",
    "checked_binary_mod_Integer64_Integer64",
    "checked_binary_plus_Integer64_Integer64",
    "checked_binary_power_Integer64_Integer64",
    "checked_binary_quotient_Integer64_Integer64",
    "checked_binary_subtract_Integer64_Integer64",
    "checked_binary_times_Integer64_Integer64", "checked_divide_Real64",
    "checked_unary_minus_Integer64", "dgemm", "dot_nested",
    "from_character_codes", "is_probable_prime", "memory_acquire",
    "memory_charge", "memory_release", "memory_stats", "packed_from_iterable",
    "reset_memory_stats", "small_prime_table",
    "string_byte_at", "string_drop", "string_join", "string_length",
    "string_take", "string_utf8_bytes", "to_character_codes",
]
