"""Tiny probe programs that isolate one runtime cost each.

Each probe is timed at two sizes, so the fixed cost of a call and the cost
per element or per iteration separate (``harness.measure.per_item_seconds``).
``compile_cold`` and ``compile_warm`` also compile them, as the small end
of the compile-latency range.

The three ``Compile``-style (specs, body) pairs at the bottom are what the
template JIT and the bytecode compiler accept; they are the paper's
documented bytecode workarounds of FNV1a, Mandelbrot and Histogram.
"""

from __future__ import annotations

#: scalar identity — the floor of one call through the boxing boundary
IDENTITY = 'Function[{Typed[x, "MachineInteger"]}, x]'

#: a tensor argument is unboxed element by element on the way in
UNBOX = '''
Function[{Typed[v, TypeSpecifier["Tensor"["Integer64", 1]]]}, Length[v]]
'''

#: a tensor result is created and handed back across the boundary; the
#: rebox probe calls it from an engine session, which takes it as a List
REBOX = '''
Function[{Typed[n, "MachineInteger"]}, Native`CreateTensor[n, 0]]
'''

#: empty counted While: loop test, increment and its overflow check, and
#: the abort checkpoint (knocked out with AbortHandling -> False)
LOOP = '''
Function[{Typed[n, "MachineInteger"]},
  Module[{i = 0}, While[i < n, i = i + 1]; i]]
'''

#: LOOP plus one Part read (and one add) per iteration
PART = '''
Function[{Typed[v, TypeSpecifier["Tensor"["Integer64", 1]]]},
  Module[{s = 0, i = 1, n = Length[v]},
    While[i <= n, s = s + v[[i]]; i = i + 1]; s]]
'''

#: LOOP plus one checked integer multiply (and the mask that bounds it)
MUL = '''
Function[{Typed[n, "MachineInteger"]},
  Module[{h = 2166136261, i = 0},
    While[i < n, h = BitAnd[h * 16777619, 4294967295]; i = i + 1]; h]]
'''

#: LOOP plus one runtime-library call (tensor Plus) per iteration, whose
#: operand and result are reference counted (knocked out with
#: MemoryManagement -> False)
LIBCALL = '''
Function[{Typed[n, "MachineInteger"]},
  Module[{acc = {0.0, 0.0}, step = {1.0, 2.0}, i = 0},
    While[i < n, acc = acc + step; i = i + 1]; acc]]
'''

NAMES = ("identity", "unbox", "rebox", "loop", "part", "mul", "libcall")

SOURCES = {
    "identity": IDENTITY, "unbox": UNBOX, "rebox": REBOX, "loop": LOOP,
    "part": PART, "mul": MUL, "libcall": LIBCALL,
}


def argument(name: str, n: int) -> tuple:
    """The argument tuple of probe ``name`` at size ``n``."""
    if name in ("unbox", "part"):
        return ([k % 97 for k in range(n)],)
    return (n,)


def expected(name: str, n: int):
    """What probe ``name`` returns at size ``n``."""
    if name in ("identity", "unbox", "loop"):
        return n
    if name == "rebox":
        return [0] * n
    if name == "part":
        return sum(k % 97 for k in range(n))
    if name == "mul":
        h = 2166136261
        for _ in range(n):
            h = (h * 16777619) & 0xFFFFFFFF
        return h
    if name == "libcall":
        return [1.0 * n, 2.0 * n]
    raise KeyError(name)


# -- Compile-style pairs for the template JIT and the bytecode compiler ----

COMPILE_STYLE = {
    "fnv1a": (
        "{{codes, _Integer, 1}}",
        '''
Module[{hash = 2166136261, i = 1, n = Length[codes]},
  While[i <= n,
    hash = BitAnd[BitXor[hash, codes[[i]]] * 16777619, 4294967295];
    i = i + 1];
  hash]
''',
    ),
    "mandelbrot": (
        "{{pixel0, _Complex}}",
        '''
Module[{iters = 1, maxIters = 1000, pixel = pixel0},
  While[iters < maxIters && Abs[pixel] < 2,
    pixel = pixel^2 + pixel0;
    iters = iters + 1];
  iters]
''',
    ),
    "histogram": (
        "{{data, _Integer, 1}}",
        '''
Module[{bins = ConstantArray[0, 256], i = 1, n = Length[data], b = 0},
  While[i <= n,
    b = Mod[data[[i]], 256] + 1;
    bins[[b]] = bins[[b]] + 1;
    i = i + 1];
  bins]
''',
    ),
}
