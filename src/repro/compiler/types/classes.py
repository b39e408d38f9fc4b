"""Type classes (§4.4): "Type classes are used to group types implementing
the same methods ('Integral', 'Ordered', 'Reals', 'Indexed',
'MemoryManaged', etc.)" — used as qualifiers on polymorphic functions.
"""

from __future__ import annotations

from repro.compiler.types.specifier import AtomicType, CompoundType, Type

_INTEGRAL = {
    "Integer8", "Integer16", "Integer32", "Integer64",
    "UnsignedInteger8", "UnsignedInteger16", "UnsignedInteger32",
    "UnsignedInteger64",
}
_REALS = _INTEGRAL | {"Real16", "Real32", "Real64"}
_NUMBERS = _REALS | {"ComplexReal64"}


class TypeClassRegistry:
    """Membership test for type classes; user-extensible (F6)."""

    def __init__(self):
        self._members: dict[str, set[str]] = {
            "Integral": set(_INTEGRAL),
            "Reals": set(_REALS),
            "Number": set(_NUMBERS),
            "Ordered": _REALS | {"String", "Boolean"},
            "Equal": _NUMBERS | {"String", "Boolean", "Expression"},
            "MemoryManaged": {"String", "Expression"},
            "Straightenable": set(_NUMBERS),
        }
        self._compound_members: dict[str, set[str]] = {
            "Container": {"Tensor", "List", "PackedArray"},
            "Indexed": {"Tensor", "List", "PackedArray"},
            "MemoryManaged": {"Tensor", "List", "PackedArray"},
        }
        #: moves with every membership change; anything remembered about
        #: which qualified overload a type selects is keyed on it
        self.version = 0

    def declare_class(self, name: str) -> None:
        self._members.setdefault(name, set())
        self._compound_members.setdefault(name, set())

    def add_member(self, class_name: str, type_name: str,
                   compound: bool = False) -> None:
        """Extend a class with a new member type (user extensibility)."""
        table = self._compound_members if compound else self._members
        table.setdefault(class_name, set()).add(type_name)
        self.version += 1

    def classes(self) -> list[str]:
        return sorted(set(self._members) | set(self._compound_members))

    def satisfies(self, type_: Type, class_name: str) -> bool:
        if isinstance(type_, AtomicType):
            return type_.name in self._members.get(class_name, ())
        if isinstance(type_, CompoundType):
            return type_.constructor in self._compound_members.get(class_name, ())
        return False


#: the default registry shared by the builtin type environment
DEFAULT_CLASSES = TypeClassRegistry()
