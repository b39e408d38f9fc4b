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

**Two states, one class.**  An array that only the BLAS will ever look at
(``Dot``'s arguments and result, §6) has no use for a Python list: it is
*ndarray-resident* — its elements live in one C-contiguous ``numpy`` array
and its ``data`` slot is unset.  The first read of ``.data`` (by generated
code, the runtime library, anything) fills the slot from the array and
drops the array, so there is one authority for the elements at any time
and the transition is one-way.  The list state pays nothing for this: the
hook is ``__getattr__``, which Python consults only for an unset slot.
``data`` is never resized in place (generated code binds ``len(v.data)``
once per tensor value).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import WolframRuntimeError


_DTYPES = {"Integer64": np.int64, "UnsignedInteger8": np.uint8,
           "Real64": np.float64, "ComplexReal64": np.complex128}
_ELEMENT_OF_KIND = {"i": "Integer64", "u": "UnsignedInteger64",
                    "f": "Real64", "c": "ComplexReal64"}


class PackedArray:
    """A rank-``r`` rectangular tensor over one machine element type."""

    __slots__ = ("data", "dims", "element_type", "ref_count", "_array")

    def __init__(self, data: list, dims: tuple[int, ...], element_type: str):
        self.data = data
        self.dims = dims
        self.element_type = element_type
        self.ref_count = 1

    def __getattr__(self, name: str):
        # reached only for an unset slot: ``data`` of an ndarray-resident
        # array is made on first use, and the ndarray is dropped with it
        if name != "data":
            raise AttributeError(name)
        data = self.data = self._array.ravel().tolist()
        del self._array
        return data

    @property
    def resident(self) -> Optional[np.ndarray]:
        """The ndarray holding the elements, or ``None`` in the list
        state.  Shared, not a copy: read it, hand it to the BLAS."""
        try:
            return self._array
        except AttributeError:
            return None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_nested(cls, nested: Sequence, element_type: str = "Real64",
                    rank: Optional[int] = None) -> "PackedArray":
        """Flatten a rectangular nested list.  With ``rank`` (the call
        boundary of a ``Tensor`` parameter) the nesting depth and every
        element's class are checked against the declared type; a real
        tensor takes ``int`` elements as a real parameter takes an
        ``int``, a ``bool`` is never a number."""
        dims: list[int] = []
        probe = nested
        while isinstance(probe, (list, tuple)):
            dims.append(len(probe))
            probe = probe[0] if probe else None
        accepted = None
        if rank is not None:
            if len(dims) != rank:
                raise WolframRuntimeError(
                    "TypeMismatch",
                    f"a rank-{len(dims)} list is not a rank-{rank} tensor",
                )
            accepted = _accepted_classes(element_type)
        flat: list = []
        # validate per level, not just the flat count: compensating ragged
        # rows like [[1,2],[3],[4,5,6]] multiply out to the right total
        _flatten_into(nested, dims, 0, flat, accepted)
        return cls(flat, tuple(dims), element_type)

    @classmethod
    def zeros(cls, dims: tuple[int, ...], element_type: str = "Real64") -> "PackedArray":
        size = 1
        for d in dims:
            size *= d
        zero = 0 if element_type.startswith("Integer") else 0.0
        return cls([zero] * size, dims, element_type)

    @classmethod
    def from_numpy(cls, array: np.ndarray, element_type: str | None = None,
                   copy: bool = True) -> "PackedArray":
        """An ndarray-resident array over ``array``'s elements.  ``copy``
        is for an array somebody else may still write to; the BLAS bridge
        and the boundary pass the one they just made."""
        if element_type is None:
            element_type = _ELEMENT_OF_KIND.get(array.dtype.kind, "Real64")
        self = cls.__new__(cls)
        array = (
            np.array(array, order="C") if copy
            else np.ascontiguousarray(array)
        )
        array.flags.writeable = False
        self._array = array
        self.dims = array.shape
        self.element_type = element_type
        self.ref_count = 1
        return self

    @classmethod
    def resident_from(cls, value, element_type: str,
                      rank: Optional[int]) -> "PackedArray":
        """The call boundary's other path: a nested list (or a caller's
        ndarray) as one ndarray-resident tensor — one ``np.array`` call,
        checked by ``ndim`` and ``dtype.kind`` where :meth:`from_nested`
        checks row by row."""
        try:
            array = np.array(value)
        except ValueError:
            raise WolframRuntimeError(
                "RaggedArray", "array is not rectangular") from None
        accepted = _accepted_classes(element_type)
        if (rank is not None and array.ndim != rank) or (
            accepted is not None and array.dtype.kind not in accepted[2]
        ):
            raise WolframRuntimeError(
                "TypeMismatch",
                f"a rank-{array.ndim} array of {array.dtype} is not a "
                f"rank-{rank} tensor of {element_type}",
            )
        dtype = _DTYPES.get(element_type, np.float64)
        if array.dtype != dtype:
            array = array.astype(dtype)
        return cls.from_numpy(array, element_type, copy=False)

    # -- structure ------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.dims)

    def __len__(self) -> int:
        return self.dims[0] if self.dims else 0

    @property
    def flat_length(self) -> int:
        array = self.resident
        return len(self.data) if array is None else array.size

    def copy(self) -> "PackedArray":
        """Structural copy; used by copy-on-write mutability semantics (F5)."""
        array = self.resident
        if array is not None:
            return PackedArray.from_numpy(array, self.element_type)
        return PackedArray(list(self.data), self.dims, self.element_type)

    def to_numpy(self) -> np.ndarray:
        """The elements as an ndarray of shape ``dims``: the resident one
        (shared, and read-only) or a fresh one built from the list."""
        array = self.resident
        if array is not None:
            return array
        return np.asarray(
            self.data, dtype=_DTYPES.get(self.element_type, np.float64)
        ).reshape(self.dims)

    def to_nested(self) -> list:
        return self.to_numpy().tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedArray):
            return NotImplemented
        if self.dims != other.dims:
            return False
        mine, theirs = self.resident, other.resident
        if mine is None and theirs is None:
            return self.data == other.data
        # no state change for a comparison: compare as nested lists
        return self.to_nested() == other.to_nested()

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


#: declared element type (by stem) -> what its tensors may be built from:
#: the exact classes nearly every row of a nested list holds, the classes
#: a row may hold at all, and the ``dtype.kind`` of an ndarray.  A real
#: tensor takes integers as a real parameter takes an ``int``; a ``bool``
#: is never a number.
_ELEMENT_CLASSES = {
    "Integer": (frozenset((int,)), (int, np.integer), "iu"),
    "Real": (frozenset((float, int)),
             (float, int, np.floating, np.integer), "fiu"),
    "Complex": (frozenset((complex, float, int)),
                (complex, float, int, np.number), "cfiu"),
}


def _accepted_classes(element_type: str):
    for stem, classes in _ELEMENT_CLASSES.items():
        if element_type.startswith((stem, "Unsigned" + stem)):
            return classes
    return None  # no machine class to hold the elements against


def _flatten_into(nested, dims: list, level: int, out: list,
                  accepted=None) -> None:
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
        # element types, then test those few for being sequences and for
        # being what the declared element type holds
        kinds = set(map(type, nested))
        for item_type in kinds:
            if issubclass(item_type, (list, tuple)):
                raise WolframRuntimeError(
                    "RaggedArray", "array is not rectangular"
                )
        if accepted is not None and not kinds <= accepted[0]:
            for item_type in kinds:
                if issubclass(item_type, bool) or not issubclass(
                    item_type, accepted[1]
                ):
                    raise WolframRuntimeError(
                        "TypeMismatch",
                        f"a {item_type.__name__} is not an element of a "
                        "tensor of this type",
                    )
        out.extend(nested)
        return
    for item in nested:
        _flatten_into(item, dims, level + 1, out, accepted)


def packed_from_iterable(items: Iterable, element_type: str) -> PackedArray:
    data = list(items)
    return PackedArray(data, (len(data),), element_type)
