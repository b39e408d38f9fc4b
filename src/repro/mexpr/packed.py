"""Packed lists: a ``List`` whose machine numbers live in one buffer.

The Wolfram Engine keeps numeric lists packed inside the expression tree,
and compiled code keeps a tensor in one unboxed buffer (§4.5).
:class:`PackedList` is both at once: a ``List`` normal expression whose
elements are held by one :class:`~repro.runtime.packed.PackedArray` of
``Integer64`` or ``Real64`` (rank 1 or rectangular) — the very object
compiled code reads and returns, so the call boundary hands it over and
takes it back without converting an element.

Its ``args`` slot is filled from the buffer on first read, by the
``__getattr__``-on-unset-slot trick ``PackedArray.data`` uses, so pattern
matching, the printers and serialisation see an ordinary ``List``; the
builtins that know the buffer (``Total``, ``Length``, ``Part``, ``Dot``,
``Listable`` arithmetic) read it instead.  Equality and hashing agree with
the unpacked list — the structure key is built from the values, without an
atom — so ``g[Range[3]] = 7`` answers ``g[{1, 2, 3}]``.

The buffer holds exactly the element type's Python class (``int`` for
``Integer64``, ``float`` for ``Real64``): consumers add, compare and
multiply the raw values.  Nothing writes it once the list exists.
"""

from __future__ import annotations

from math import prod
from typing import Any

from repro.mexpr.atoms import MInteger, MReal
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.symbols import S
from repro.runtime.packed import PackedArray

#: element type -> the atom an element becomes, its structure-key tag and
#: the one Python class the buffer holds
_ATOM = {"Integer64": MInteger, "Real64": MReal}
_TAG = {"Integer64": "Integer", "Real64": "Real"}
_CLASS = {"Integer64": int, "Real64": float}

_LIST = S.List
_LIST_KEY = _LIST.structure_key()


class PackedList(MExprNormal):
    """``List[...]`` over one ``Integer64``/``Real64`` :class:`PackedArray`."""

    __slots__ = ("array",)

    def __init__(self, array: PackedArray):
        # the base initialiser, inlined; ``args`` stays unset until read
        self._properties = self._hash = self._skey = self._okey = None
        self.head = _LIST
        self.array = array

    @classmethod
    def wrap(cls, array: PackedArray) -> "PackedList":
        """A list over ``array``, whose elements may be of any class its
        element type admits (a ``Real64`` tensor built from ``{1, 2.5}``
        holds an ``int``): one scan of the element classes finds those
        (O(n), at C speed, no copy), and they are converted in a new
        buffer."""
        wanted = _CLASS[array.element_type]
        if array.resident is None and not set(map(type, array.data)) <= {wanted}:
            array = PackedArray(list(map(wanted, array.data)), array.dims,
                                array.element_type)
        return cls(array)

    def __getattr__(self, name: str):
        # reached only for an unset slot: the arguments are made on first
        # read, and kept
        if name != "args":
            raise AttributeError(name)
        args = self.args = tuple(self._items())
        return args

    def _items(self):
        array = self.array
        if len(array.dims) == 1:
            return map(_ATOM[array.element_type], array.data)
        return map(self.item, range(array.dims[0]))

    def item(self, index: int) -> MExpr:
        """The 0-based ``index``-th element: an atom, or a row of a
        rectangular list as a packed list of its own."""
        array = self.array
        if len(array.dims) == 1:
            return _ATOM[array.element_type](array.data[index])
        size = prod(array.dims[1:])
        return PackedList(PackedArray(
            array.data[index * size:(index + 1) * size], array.dims[1:],
            array.element_type,
        ))

    def __len__(self) -> int:
        return self.array.dims[0]

    def _structure_key(self) -> tuple:
        # the unpacked list's key, made from the values (a row's from its
        # own buffer)
        array = self.array
        if len(array.dims) > 1:
            return ("Normal", _LIST_KEY,
                    tuple([row.structure_key() for row in self.args]))
        tag = _TAG[array.element_type]
        return ("Normal", _LIST_KEY,
                tuple([(tag, value) for value in array.data]))

    def __eq__(self, other: object) -> bool:
        if type(other) is PackedList:
            mine, theirs = self.array, other.array
            if mine.dims != theirs.dims:
                return False
            if mine.element_type != theirs.element_type:
                return not mine.flat_length  # {} is {} whatever it held
            return mine.data == theirs.data
        return MExpr.__eq__(self, other)

    def __hash__(self) -> int:
        # the key is not kept just for a hash: a big list's key is a
        # tuple per element
        if self._hash is None:
            self._hash = hash(self._skey or self._structure_key())
        return self._hash

    def to_python(self) -> Any:
        array = self.array
        if len(array.dims) == 1:
            return list(array.data)
        return array.to_nested()

    def __repr__(self) -> str:
        return f"PackedList({self.array.element_type}, dims={self.array.dims})"
