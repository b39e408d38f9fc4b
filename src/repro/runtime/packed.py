"""Packed tensors for compiled code.

The new compiler operates on unboxed packed arrays (§6: the bytecode
compiler "operates on boxed array, and therefore any operation on arrays
incurs unboxing overhead").  ``PackedArray`` stores elements in a flat Python
list with explicit dimensions: flat-list indexing is the fastest random
element access CPython offers, which keeps the generated code's inner loops
comparable to the hand-optimized reference (our "hand-written C").

Wolfram part indexing is 1-based and supports negative indices; §6 notes
"all array accesses must be predicated at runtime" — ``part_index`` is that
predication, and the compiler can elide it when bounds are provably safe.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import WolframRuntimeError


class PackedArray:
    """A rank-``r`` rectangular tensor over one machine element type."""

    __slots__ = ("data", "dims", "element_type", "ref_count")

    def __init__(self, data: list, dims: tuple[int, ...], element_type: str):
        self.data = data
        self.dims = dims
        self.element_type = element_type
        self.ref_count = 1

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_nested(cls, nested: Sequence, element_type: str = "Real64") -> "PackedArray":
        dims: list[int] = []
        probe = nested
        while isinstance(probe, (list, tuple)):
            dims.append(len(probe))
            probe = probe[0] if probe else None
        flat: list = []
        # validate per level, not just the flat count: compensating ragged
        # rows like [[1,2],[3],[4,5,6]] multiply out to the right total
        _flatten_into(nested, dims, 0, flat)
        return cls(flat, tuple(dims), element_type)

    @classmethod
    def zeros(cls, dims: tuple[int, ...], element_type: str = "Real64") -> "PackedArray":
        size = 1
        for d in dims:
            size *= d
        zero = 0 if element_type.startswith("Integer") else 0.0
        return cls([zero] * size, dims, element_type)

    @classmethod
    def from_numpy(cls, array: np.ndarray, element_type: str | None = None) -> "PackedArray":
        if element_type is None:
            kind = array.dtype.kind
            element_type = {"i": "Integer64", "u": "UnsignedInteger64",
                            "f": "Real64", "c": "ComplexReal64"}.get(kind, "Real64")
        return cls(array.ravel().tolist(), array.shape, element_type)

    # -- structure ------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.dims)

    def __len__(self) -> int:
        return self.dims[0] if self.dims else 0

    @property
    def flat_length(self) -> int:
        return len(self.data)

    def copy(self) -> "PackedArray":
        """Structural copy; used by copy-on-write mutability semantics (F5)."""
        return PackedArray(list(self.data), self.dims, self.element_type)

    def to_numpy(self) -> np.ndarray:
        dtype = {"Integer64": np.int64, "UnsignedInteger8": np.uint8,
                 "Real64": np.float64, "ComplexReal64": np.complex128}.get(
            self.element_type, np.float64
        )
        return np.asarray(self.data, dtype=dtype).reshape(self.dims)

    def to_nested(self) -> list:
        return self.to_numpy().tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedArray):
            return NotImplemented
        return self.dims == other.dims and self.data == other.data

    def __repr__(self) -> str:
        return f"PackedArray({self.element_type}, dims={self.dims})"

    # -- element access -------------------------------------------------------

    def part_index(self, index: int, length: int | None = None) -> int:
        """Normalize a 1-based, possibly negative Wolfram index to 0-based."""
        limit = length if length is not None else (self.dims[0] if self.dims else 0)
        if index < 0:
            index = limit + index + 1
        if index < 1 or index > limit:
            raise WolframRuntimeError(
                "PartOutOfRange", f"part {index} of a length-{limit} array"
            )
        return index - 1

    def get1(self, index: int):
        """Rank-1 element access with Wolfram indexing semantics."""
        return self.data[self.part_index(index, len(self.data) if self.rank == 1 else None)]

    def set1(self, index: int, value) -> None:
        self.data[self.part_index(index)] = value

    def get2(self, i: int, j: int):
        rows, cols = self.dims[0], self.dims[1]
        return self.data[self.part_index(i, rows) * cols + self.part_index(j, cols)]

    def set2(self, i: int, j: int, value) -> None:
        rows, cols = self.dims[0], self.dims[1]
        self.data[self.part_index(i, rows) * cols + self.part_index(j, cols)] = value


def _flatten_into(nested, dims: list, level: int, out: list) -> None:
    if level == len(dims):
        if isinstance(nested, (list, tuple)):
            raise WolframRuntimeError(
                "RaggedArray", "array is not rectangular"
            )
        out.append(nested)
        return
    if not isinstance(nested, (list, tuple)) or len(nested) != dims[level]:
        raise WolframRuntimeError("RaggedArray", "array is not rectangular")
    if level == len(dims) - 1:
        # the per-element check runs at C speed: collect the distinct
        # element types, then test those few for being sequences
        for item_type in set(map(type, nested)):
            if issubclass(item_type, (list, tuple)):
                raise WolframRuntimeError(
                    "RaggedArray", "array is not rectangular"
                )
        out.extend(nested)
        return
    for item in nested:
        _flatten_into(item, dims, level + 1, out)


def packed_from_iterable(items: Iterable, element_type: str) -> PackedArray:
    data = list(items)
    return PackedArray(data, (len(data),), element_type)
