"""Hand-written Python for the eight kernels: the stand-in for the paper's
"hand-written C", and the reference every compiled result is checked
against.  Straight index-loop translations of the C implementations; they
import nothing from ``repro``, so the compiler under test cannot move its
own denominator.
"""

from __future__ import annotations

import math
import random

import numpy as np

from programs import kernels
from programs.kernels import PRIME_TABLE_SIZE, RM_WITNESSES, prime_table

_PRIME_TABLE = prime_table()


def fnv1a(text: str) -> int:
    data = text.encode("utf-8")
    h = 2166136261
    n = len(data)
    i = 0
    while i < n:
        h = ((h ^ data[i]) * 16777619) & 0xFFFFFFFF
        i += 1
    return h


def mandelbrot(pixel0: complex) -> int:
    iters = 1
    pixel = pixel0
    while iters < 1000 and abs(pixel) < 2:
        pixel = pixel * pixel + pixel0
        iters += 1
    return iters


def dot(a: list, b: list) -> list:
    """Every tier calls the host BLAS for Dot (§6), and so does this."""
    return np.dot(np.asarray(a), np.asarray(b)).tolist()


def blur(image: list) -> list:
    """3x3 Gaussian blur (1 2 1 / 2 4 2 / 1 2 1) / 16 of the interior."""
    height = len(image)
    width = len(image[0])
    out = [[0.0] * width for _ in range(height)]
    y = 1
    while y < height - 1:
        up, row, down = image[y - 1], image[y], image[y + 1]
        target = out[y]
        x = 1
        while x < width - 1:
            target[x] = (
                up[x - 1] + 2.0 * up[x] + up[x + 1]
                + 2.0 * row[x - 1] + 4.0 * row[x] + 2.0 * row[x + 1]
                + down[x - 1] + 2.0 * down[x] + down[x + 1]
            ) / 16.0
            x += 1
        y += 1
    return out


def histogram(data: list) -> list:
    bins = [0] * 256
    n = len(data)
    i = 0
    while i < n:
        bins[data[i] % 256] += 1
        i += 1
    return bins


def _rabin_miller(n: int) -> bool:
    if n < PRIME_TABLE_SIZE:
        return _PRIME_TABLE[n] == 1
    if n % 2 == 0:
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in RM_WITNESSES:
        base = a % n
        e = d
        x = 1
        while e > 0:
            if e % 2 == 1:
                x = (x * base) % n
            base = (base * base) % n
            e //= 2
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


def primeq(limit: int) -> int:
    count = 0
    k = 0
    while k < limit:
        if _rabin_miller(k):
            count += 1
        k += 1
    return count


def qsort(data: list, less) -> list:
    """In-place quicksort with an explicit stack, on a copy of the input
    (the mutability-semantics copy the paper charges the compiler for)."""
    array = list(data)
    stack = [(0, len(array) - 1)]
    while stack:
        lo, hi = stack.pop()
        if lo >= hi:
            continue
        pivot = array[(lo + hi) // 2]
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


def randomwalk(length: int) -> list:
    x = y = 0.0
    walk = [[x, y]]
    uniform = random.uniform
    for _ in range(length):
        arg = uniform(0.0, 2.0 * math.pi)
        x -= math.cos(arg)
        y += math.sin(arg)
        walk.append([x, y])
    return walk


FUNCTIONS = {
    "fnv1a": fnv1a, "mandelbrot": mandelbrot, "dot": dot, "blur": blur,
    "histogram": histogram, "primeq": primeq, "qsort": qsort,
    "randomwalk": randomwalk,
}


def expected(name: str, args: tuple):
    """The reference's result on ``args``; the random walk has none (it is
    checked by property)."""
    if name == "randomwalk":
        return None
    return kernels.call(name, FUNCTIONS[name], args)


def plain(value):
    """A compiled result as plain nested Python lists / scalars."""
    to_nested = getattr(value, "to_nested", None)
    return to_nested() if to_nested is not None else value


def is_unit_walk(value, length: int) -> bool:
    """The random walk is checked by property: it starts at the origin,
    has ``length`` steps, and every step has length 1."""
    walk = np.asarray(plain(value), dtype=float)
    if walk.shape != (length + 1, 2) or walk[0].tolist() != [0.0, 0.0]:
        return False
    steps = np.hypot(*np.diff(walk, axis=0).T)
    return bool(np.allclose(steps, 1.0, rtol=0.0, atol=1e-9))


def agrees(name: str, value, expected, args: tuple) -> bool:
    """Does a compiled kernel's result equal the reference's?"""
    if name == "randomwalk":
        return is_unit_walk(value, args[0])
    value = plain(value)
    if name in ("dot", "blur"):
        got = np.asarray(value, dtype=float)
        want = np.asarray(expected, dtype=float)
        return got.shape == want.shape and bool(
            np.allclose(got, want, rtol=1e-12, atol=0.0))
    return value == expected
