"""Wolfram-source benchmark programs (§6's seven benchmarks).

Each benchmark comes in two source forms:

* ``NEW_*`` — the program `FunctionCompile` compiles (typed arguments,
  strings and function values allowed);
* ``BYTECODE_*`` — the ``Compile[{{...}}, ...]`` variant with the paper's
  documented workarounds (FNV1a over an integer character-code vector, Blur
  over a flat rank-1 array), or ``None`` with the reason the bytecode
  compiler cannot express it (QSort's comparator argument).
"""

from __future__ import annotations

# -- FNV1a ------------------------------------------------------------------------
# "Since strings are not supported within the bytecode compiler, a
# workaround is used to represent them as an integer vector of their
# character codes." (§6)

NEW_FNV1A = '''
Function[{Typed[s, "String"]},
  Module[{bytes = Native`UTF8Bytes[s], hash = 2166136261, i = 1, n = 0},
    n = Length[bytes];
    While[i <= n,
      hash = BitAnd[BitXor[hash, bytes[[i]]] * 16777619, 4294967295];
      i = i + 1];
    hash]]
'''

#: the full 64-bit FNV1a, exercising the UnsignedInteger64 support the
#: bytecode compiler lacks entirely
NEW_FNV1A_64 = '''
Function[{Typed[s, "String"]},
  Module[{bytes = Native`UTF8Bytes[s], hash = 14695981039346656037, i = 1, n = 0},
    n = Length[bytes];
    While[i <= n,
      hash = BitXor[hash, bytes[[i]]];
      hash = BitAnd[hash * 1099511628211, 18446744073709551615];
      i = i + 1];
    hash]]
'''

BYTECODE_FNV1A_SPECS = "{{codes, _Integer, 1}}"
BYTECODE_FNV1A_BODY = '''
Module[{hash = 2166136261, i = 1, n = Length[codes]},
  While[i <= n,
    hash = BitAnd[BitXor[hash, codes[[i]]] * 16777619, 4294967295];
    i = i + 1];
  hash]
'''

# -- Mandelbrot (per-point kernel; the artifact's implementation, §A.7) ---------------

NEW_MANDELBROT = '''
Function[{Typed[pixel0, "ComplexReal64"]},
  Module[{iters = 1, maxIters = 1000, pixel = pixel0},
    While[iters < maxIters && Abs[pixel] < 2,
      pixel = pixel^2 + pixel0;
      iters = iters + 1];
    iters]]
'''

BYTECODE_MANDELBROT_SPECS = "{{pixel0, _Complex}}"
BYTECODE_MANDELBROT_BODY = '''
Module[{iters = 1, maxIters = 1000, pixel = pixel0},
  While[iters < maxIters && Abs[pixel] < 2,
    pixel = pixel^2 + pixel0;
    iters = iters + 1];
  iters]
'''

# -- Dot (all tiers call the shared BLAS, §6) -----------------------------------------

NEW_DOT = '''
Function[{Typed[a, TypeSpecifier["Tensor"["Real64", 2]]],
          Typed[b, TypeSpecifier["Tensor"["Real64", 2]]]},
  Dot[a, b]]
'''

BYTECODE_DOT_SPECS = "{{a, _Real, 2}, {b, _Real, 2}}"
BYTECODE_DOT_BODY = "Dot[a, b]"

# -- Blur (3x3 Gaussian; flat rank-1 layout for the bytecode tier) ----------------------

NEW_BLUR = '''
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

BYTECODE_BLUR_SPECS = "{{img, _Real, 1}, {h, _Integer}, {w, _Integer}}"
BYTECODE_BLUR_BODY = '''
Module[{out = ConstantArray[0.0, h*w], y = 2, x = 2, row = 0, up = 0,
        down = 0, acc = 0.0},
  While[y <= h - 1,
    x = 2;
    row = (y - 1)*w;
    up = row - w;
    down = row + w;
    While[x <= w - 1,
      acc = img[[up + x - 1]] + 2.0*img[[up + x]] + img[[up + x + 1]]
          + 2.0*img[[row + x - 1]] + 4.0*img[[row + x]] + 2.0*img[[row + x + 1]]
          + img[[down + x - 1]] + 2.0*img[[down + x]] + img[[down + x + 1]];
      out[[row + x]] = acc / 16.0;
      x = x + 1];
    y = y + 1];
  out]
'''

# -- Histogram -------------------------------------------------------------------------------

NEW_HISTOGRAM = '''
Function[{Typed[data, TypeSpecifier["Tensor"["Integer64", 1]]]},
  Module[{bins = Native`CreateTensor[256, 0], i = 1, n = Length[data]},
    While[i <= n,
      Module[{b = Mod[data[[i]], 256] + 1},
        Set[Part[bins, b], bins[[b]] + 1]];
      i = i + 1];
    bins]]
'''

BYTECODE_HISTOGRAM_SPECS = "{{data, _Integer, 1}}"
BYTECODE_HISTOGRAM_BODY = '''
Module[{bins = ConstantArray[0, 256], i = 1, n = Length[data], b = 0},
  While[i <= n,
    b = Mod[data[[i]], 256] + 1;
    bins[[b]] = bins[[b]] + 1;
    i = i + 1];
  bins]
'''

# -- PrimeQ (Rabin–Miller with the 2^14 seed table as a constant array, §6) -----------------
# The witness loop and binary modular exponentiation are written out so the
# same algorithm compiles on every tier.

NEW_PRIMEQ = '''
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

BYTECODE_PRIMEQ_SPECS = "{{limit, _Integer}, {primeTable, _Integer, 1}, {witnesses, _Integer, 1}}"
BYTECODE_PRIMEQ_BODY = '''
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
  count]
'''

# -- QSort (polymorphic, comparator passed as a function value, §6) ----------------------------
# "Function passing cannot be represented in the bytecode compiler, and
# therefore this program cannot be represented using the bytecode compiler."

NEW_QSORT = '''
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

BYTECODE_QSORT_SPECS = None
BYTECODE_QSORT_BODY = None
BYTECODE_QSORT_REASON = (
    "Function passing cannot be represented in the bytecode compiler (L1): "
    "the comparator argument has no bytecode datatype"
)

# -- Figure 1: the random-walk function ---------------------------------------------------------

INTERPRETED_RANDOM_WALK = '''
Function[{len},
  NestList[
    Module[{arg = RandomReal[{0, 2 Pi}]},
      {-Cos[arg], Sin[arg]} + #
    ]&,
    {0, 0},
    len
  ]
]
'''

BYTECODE_RANDOM_WALK_SPECS = "{{len, _Integer}}"
BYTECODE_RANDOM_WALK_BODY = '''
NestList[
  Module[{arg = RandomReal[{0, 2 Pi}]},
    {-Cos[arg], Sin[arg]} + #
  ]&,
  {0.0, 0.0},
  len
]
'''

NEW_RANDOM_WALK = '''
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

#: Rabin–Miller witness list shared by every tier
RM_WITNESSES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]

# -- §2.2: the soft-failure transcript workload -----------------------------------------------

#: iterative fib — overflows Integer64 at i = 93 and reverts to the
#: interpreter's bignums, reproducing the paper's ``cfib[200]`` transcript
ITERATIVE_FIB = (
    'Function[{Typed[n, "MachineInteger"]},'
    ' Module[{a = 0, b = 1, i = 1},'
    '  While[i <= n, Module[{t = a + b}, a = b; b = t]; i = i + 1]; a]]'
)
