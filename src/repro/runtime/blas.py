"""BLAS bridge shared by every implementation tier.

§6 (Dot): "Both the new compiler and bytecode compiler leverage the Wolfram
Engine's runtime to perform the matrix multiplication.  The Wolfram Engine's
runtime in turn calls the MKL library.  Since all implementations use the
MKL library ... no performance difference is observed."

Our MKL is ``numpy.dot``; the interpreter, the bytecode VM, compiled code,
and the hand-optimized reference all route matrix products through here.
What differs between tiers is only how the operands get to be ndarrays:
the reference does one ``np.asarray(nested)`` per argument and one
``tolist()``, and compiled code does the same — its boundary builds an
ndarray-resident :class:`PackedArray` for a parameter only ``Dot`` reads,
:func:`dgemm` consumes and returns that state, and no flat list is ever
made (``kernel.dot.ref_ratio`` measures 0.95-0.98, where the list round
trip of both arguments read 1.65).
"""

from __future__ import annotations

import math

import numpy as np

from repro.runtime.memory import memory_charge
from repro.runtime.packed import PackedArray


def dgemm(a: PackedArray, b: PackedArray) -> PackedArray:
    """Matrix-matrix (or matrix-vector) product via the host BLAS."""
    # the product's size is known from the operands' dims alone
    memory_charge(math.prod(a.dims[:-1]) * math.prod(b.dims[1:]))
    result = np.dot(a.to_numpy(), b.to_numpy())
    result_type = (
        "Integer64"
        if a.element_type.startswith("Integer") and b.element_type.startswith("Integer")
        else "Real64"
    )
    return PackedArray.from_numpy(np.atleast_1d(result), result_type,
                                  copy=False)


def dot_nested(a: list, b: list) -> list | float:
    """Dot for nested-list tensors (interpreter representation)."""
    result = np.dot(np.asarray(a), np.asarray(b))
    if np.ndim(result) == 0:
        return result.item()
    return result.tolist()
