"""The eight kernel programs: the seven Figure-2 benchmarks (§6) and the
Figure-1 random walk, as Wolfram source text for ``FunctionCompile``.

Vendored so that no change under ``src/`` can move the benchmark's
programs.  The program text never depends on the seed; ``make_inputs``
draws only the data.  Every input keeps the amount of work fixed (same
lengths, same Mandelbrot grid, same PrimeQ limit up to a few units), so
run time does not depend on the seed.
"""

from __future__ import annotations

import random

import numpy as np

FNV1A = '''
Function[{Typed[s, "String"]},
  Module[{bytes = Native`UTF8Bytes[s], hash = 2166136261, i = 1, n = 0},
    n = Length[bytes];
    While[i <= n,
      hash = BitAnd[BitXor[hash, bytes[[i]]] * 16777619, 4294967295];
      i = i + 1];
    hash]]
'''

MANDELBROT = '''
Function[{Typed[pixel0, "ComplexReal64"]},
  Module[{iters = 1, maxIters = 1000, pixel = pixel0},
    While[iters < maxIters && Abs[pixel] < 2,
      pixel = pixel^2 + pixel0;
      iters = iters + 1];
    iters]]
'''

DOT = '''
Function[{Typed[a, TypeSpecifier["Tensor"["Real64", 2]]],
          Typed[b, TypeSpecifier["Tensor"["Real64", 2]]]},
  Dot[a, b]]
'''

BLUR = '''
Function[{Typed[img, TypeSpecifier["Tensor"["Real64", 2]]]},
  Module[{h = Length[img], w = 0, out = Native`CreateMatrix[1, 1, 0.0],
          y = 2, x = 2, acc = 0.0},
    w = Length[img[[1]]];
    out = Native`CreateMatrix[h, w, 0.0];
    While[y <= h - 1,
      x = 2;
      While[x <= w - 1,
        acc = img[[y-1, x-1]] + 2.0*img[[y-1, x]] + img[[y-1, x+1]]
            + 2.0*img[[y, x-1]] + 4.0*img[[y, x]] + 2.0*img[[y, x+1]]
            + img[[y+1, x-1]] + 2.0*img[[y+1, x]] + img[[y+1, x+1]];
        Set[Part[out, y, x], acc / 16.0];
        x = x + 1];
      y = y + 1];
    out]]
'''

HISTOGRAM = '''
Function[{Typed[data, TypeSpecifier["Tensor"["Integer64", 1]]]},
  Module[{bins = Native`CreateTensor[256, 0], i = 1, n = Length[data]},
    While[i <= n,
      Module[{b = Mod[data[[i]], 256] + 1},
        Set[Part[bins, b], bins[[b]] + 1]];
      i = i + 1];
    bins]]
'''

# Rabin–Miller with the 2^14 seed table as an embedded constant array (§6)
PRIMEQ = '''
Function[{Typed[limit, "MachineInteger"]},
  Module[{count = 0, k = 0, isPrime = False, d = 0, r = 0, wi = 1, a = 0,
          x = 0, base = 0, e = 0, loop = 0, composite = False},
    While[k < limit,
      If[k < 16384,
        isPrime = primeTable[[k + 1]] == 1,
        If[Mod[k, 2] == 0,
          isPrime = False,
          Module[{},
            d = k - 1; r = 0;
            While[Mod[d, 2] == 0, d = Quotient[d, 2]; r = r + 1];
            isPrime = True; wi = 1;
            While[wi <= 12 && isPrime,
              a = witnesses[[wi]];
              base = Mod[a, k]; e = d; x = 1;
              While[e > 0,
                If[Mod[e, 2] == 1, x = Mod[x*base, k]];
                base = Mod[base*base, k];
                e = Quotient[e, 2]];
              If[x != 1 && x != k - 1,
                Module[{},
                  composite = True; loop = 1;
                  While[loop <= r - 1 && composite,
                    x = Mod[x*x, k];
                    If[x == k - 1, composite = False];
                    loop = loop + 1];
                  If[composite, isPrime = False]]];
              wi = wi + 1]]]];
      If[isPrime, count = count + 1];
      k = k + 1];
    count]]
'''

# polymorphic in the comparator, which is passed as a function value (§6)
QSORT = '''
Function[{Typed[data, TypeSpecifier["Tensor"["Integer64", 1]]],
          Typed[less, TypeSpecifier[{"Integer64", "Integer64"} -> "Boolean"]]},
  Module[{arr = data, stack = Native`CreateTensor[256, 0], top = 0,
          lo = 0, hi = 0, i = 0, j = 0, pivot = 0, t = 0},
    stack[[1]] = 1; stack[[2]] = Length[arr]; top = 2;
    While[top > 0,
      hi = stack[[top]]; lo = stack[[top - 1]]; top = top - 2;
      If[lo < hi,
        Module[{},
          pivot = arr[[Quotient[lo + hi, 2]]];
          i = lo; j = hi;
          While[i <= j,
            While[less[arr[[i]], pivot], i = i + 1];
            While[less[pivot, arr[[j]]], j = j - 1];
            If[i <= j,
              Module[{},
                t = arr[[i]];
                Set[Part[arr, i], arr[[j]]];
                Set[Part[arr, j], t];
                i = i + 1; j = j - 1]]];
          stack[[top + 1]] = lo; stack[[top + 2]] = j; top = top + 2;
          stack[[top + 1]] = i; stack[[top + 2]] = hi; top = top + 2]]];
    arr]]
'''

RANDOMWALK = '''
Function[{Typed[len, "MachineInteger"]},
  NestList[
    Module[{arg = RandomReal[{0, 2 Pi}]},
      {-Cos[arg], Sin[arg]} + #
    ]&,
    {0.0, 0.0},
    len
  ]
]
'''

RM_WITNESSES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
PRIME_TABLE_SIZE = 1 << 14

#: order of the per-kernel rows everywhere in the benchmark
NAMES = ("fnv1a", "mandelbrot", "dot", "blur", "histogram", "primeq",
         "qsort", "randomwalk")

SOURCES = {
    "fnv1a": FNV1A, "mandelbrot": MANDELBROT, "dot": DOT, "blur": BLUR,
    "histogram": HISTOGRAM, "primeq": PRIMEQ, "qsort": QSORT,
    "randomwalk": RANDOMWALK,
}

#: input sizes at scale 1.0, chosen so one call of the compiled kernel
#: takes about 60 ms at the commit that added the benchmark
SIZES = {
    "fnv1a": 70_000,        # characters
    "mandelbrot": 0.065,    # grid step over [-1, 1] x [-1, 0.5]
    "dot": 420,             # n x n matrices
    "blur": 190,            # side of the square image
    "histogram": 70_000,    # integers
    "primeq": 19_000,       # count primes below this
    "qsort": 5_000,         # pre-sorted integers, as in the paper
    "randomwalk": 12_000,   # steps
}


def prime_table() -> list[int]:
    """0/1 primality bitmap below 2^14 (sieve of Eratosthenes)."""
    sieve = np.ones(PRIME_TABLE_SIZE, dtype=np.int64)
    sieve[:2] = 0
    for p in range(2, int(PRIME_TABLE_SIZE ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = 0
    return sieve.tolist()


def compile_options(name: str) -> dict:
    """Keyword arguments ``FunctionCompile`` needs besides the source."""
    if name == "primeq":
        return {"constants": {"primeTable": prime_table(),
                              "witnesses": RM_WITNESSES}}
    return {}


def less(a, b):
    """The comparator handed to QSort as a function value."""
    return a < b


def scaled(name: str, scale: float):
    """The size of one kernel's input at ``scale`` (1.0 = ``SIZES``)."""
    size = SIZES[name]
    if name == "mandelbrot":
        return size / scale ** 0.5
    if name in ("dot", "blur"):
        return max(int(size * scale ** 0.5), 8)
    return max(int(size * scale), 16)


def make_inputs(name: str, seed: int, scale: float = 1.0) -> tuple:
    """The argument tuple for one kernel, drawn from ``seed``."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    size = scaled(name, scale)
    if name == "fnv1a":
        alphabet = np.frombuffer(
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
            b"0123456789 .,;!?", dtype=np.uint8)
        return (alphabet[rng.integers(0, len(alphabet), size)]
                .tobytes().decode("ascii"),)
    if name == "mandelbrot":
        # the paper's region on a fixed grid; the seed only shuffles the
        # visiting order, so the iteration total is the same for any seed
        xs = np.arange(-1.0, 1.0 + 1e-9, size)
        ys = np.arange(-1.0, 0.5 + 1e-9, size)
        points = [complex(x, y) for x in xs.tolist() for y in ys.tolist()]
        random.Random(seed).shuffle(points)
        return (points,)
    if name == "dot":
        return (rng.random((size, size)).tolist(),
                rng.random((size, size)).tolist())
    if name == "blur":
        return ((rng.random((size, size)) * 255.0).tolist(),)
    if name == "histogram":
        return (rng.integers(0, 1_000_000, size).tolist(),)
    if name == "primeq":
        return (size + int(rng.integers(0, 8)),)
    if name == "qsort":
        start = int(rng.integers(0, 1_000_000))
        return (list(range(start, start + size)), less)
    if name == "randomwalk":
        return (size,)
    raise KeyError(name)


def call(name: str, function, args: tuple):
    """Run one op of kernel ``name``: ``function`` is the compiled kernel
    or its hand-written counterpart.  Mandelbrot is a per-point kernel
    (§A.7), so its op is the whole grid, one call per point."""
    if name == "mandelbrot":
        total = 0
        for point in args[0]:
            total += function(point)
        return total
    return function(*args)
