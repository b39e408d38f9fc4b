"""Hand-optimized reference implementations — the "hand-written C" stand-ins.

DESIGN.md's substitution table: the paper compares against "highly tuned
hand-written C"; since our generated code runs on CPython, the comparable
reference is hand-written Python of the same algorithm.  Each benchmark has
two references:

* ``*_c_port`` — a straight translation of the C implementation (explicit
  index loops), the closest analog of the paper's C code;
* ``*_idiomatic`` — the fastest natural Python (iterator idioms), a stricter
  bar we also report.

``Dot`` calls the same BLAS bridge every tier uses (§6: "all
implementations use the MKL library").
"""

from __future__ import annotations

from repro.runtime.blas import dot_nested
from repro.runtime.primes import small_prime_table

# -- FNV1a (32-bit variant; see EXPERIMENTS.md on the width choice) -----------------

FNV_OFFSET_32 = 2166136261
FNV_PRIME_32 = 16777619
_MASK32 = 0xFFFFFFFF


def fnv1a_c_port(text: str) -> int:
    data = text.encode("utf-8")
    h = FNV_OFFSET_32
    n = len(data)
    i = 0
    while i < n:
        h = h ^ data[i]
        h = (h * FNV_PRIME_32) & _MASK32
        i += 1
    return h


def fnv1a_idiomatic(text: str) -> int:
    h = FNV_OFFSET_32
    for b in text.encode("utf-8"):
        h = ((h ^ b) * FNV_PRIME_32) & _MASK32
    return h


# -- Mandelbrot ----------------------------------------------------------------------

def mandelbrot_point(pixel0: complex, max_iters: int = 1000) -> int:
    iters = 1
    pixel = pixel0
    while iters < max_iters and abs(pixel) < 2:
        pixel = pixel * pixel + pixel0
        iters += 1
    return iters


# -- Dot (the shared BLAS path) ----------------------------------------------------------

def dot_reference(a: list, b: list) -> list:
    return dot_nested(a, b)


# -- Blur ------------------------------------------------------------------------------------

#: 3x3 Gaussian kernel weights (1 2 1 / 2 4 2 / 1 2 1) / 16
def blur_c_port(image: list, height: int, width: int) -> list:
    """Flat row-major single-channel 3x3 Gaussian blur, interior pixels."""
    out = [0.0] * (height * width)
    y = 1
    while y < height - 1:
        x = 1
        row = y * width
        up = row - width
        down = row + width
        while x < width - 1:
            out[row + x] = (
                image[up + x - 1] + 2.0 * image[up + x] + image[up + x + 1]
                + 2.0 * image[row + x - 1] + 4.0 * image[row + x]
                + 2.0 * image[row + x + 1]
                + image[down + x - 1] + 2.0 * image[down + x]
                + image[down + x + 1]
            ) / 16.0
            x += 1
        y += 1
    return out


def blur_idiomatic(image: list, height: int, width: int) -> list:
    out = [0.0] * (height * width)
    for y in range(1, height - 1):
        row = y * width
        up, down = row - width, row + width
        for x in range(1, width - 1):
            out[row + x] = (
                image[up + x - 1] + 2.0 * image[up + x] + image[up + x + 1]
                + 2.0 * image[row + x - 1] + 4.0 * image[row + x]
                + 2.0 * image[row + x + 1]
                + image[down + x - 1] + 2.0 * image[down + x]
                + image[down + x + 1]
            ) / 16.0
    return out


# -- Histogram --------------------------------------------------------------------------------

def histogram_c_port(data: list) -> list:
    bins = [0] * 256
    n = len(data)
    i = 0
    while i < n:
        bins[data[i] % 256] += 1
        i += 1
    return bins


def histogram_idiomatic(data: list) -> list:
    bins = [0] * 256
    for value in data:
        bins[value % 256] += 1
    return bins


# -- PrimeQ -----------------------------------------------------------------------------------

_RM_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def prime_sieve_bitmap(limit: int = 1 << 14) -> list[int]:
    """The 2^14 seed table (§6), as a 0/1 bitmap constant array."""
    primes = set(small_prime_table(limit))
    return [1 if i in primes else 0 for i in range(limit)]


def _modexp(base: int, exponent: int, modulus: int) -> int:
    """Binary modular exponentiation — the same loop every tier compiles."""
    result = 1
    base %= modulus
    while exponent > 0:
        if exponent % 2 == 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        exponent //= 2
    return result


def rabin_miller(n: int, table: list[int]) -> bool:
    if n < len(table):
        return table[n] == 1
    if n % 2 == 0:
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _RM_WITNESSES:
        x = _modexp(a, d, n)
        if x == 1 or x == n - 1:
            continue
        composite = True
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                composite = False
                break
        if composite:
            return False
    return True


def primeq_count_c_port(limit: int, table: list[int]) -> int:
    count = 0
    k = 0
    while k < limit:
        if rabin_miller(k, table):
            count += 1
        k += 1
    return count


# -- QSort -------------------------------------------------------------------------------------

def qsort_c_port(data: list, less) -> list:
    """Textbook in-place quicksort with an explicit stack and a caller-
    visible copy (the mutability-semantics copy the paper charges 1.2× for)."""
    array = list(data)  # the F5 copy
    stack = [(0, len(array) - 1)]
    while stack:
        lo, hi = stack.pop()
        if lo >= hi:
            continue
        mid = (lo + hi) // 2
        pivot = array[mid]
        i, j = lo, hi
        while i <= j:
            while less(array[i], pivot):
                i += 1
            while less(pivot, array[j]):
                j -= 1
            if i <= j:
                array[i], array[j] = array[j], array[i]
                i += 1
                j -= 1
        stack.append((lo, j))
        stack.append((i, hi))
    return array
