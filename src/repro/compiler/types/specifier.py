"""The compiler's type representation and ``TypeSpecifier`` grammar (§4.4).

A ``TypeSpecifier`` can be:

* an **atomic constructor**: ``"Integer64"``, ``"Real64"``, ...;
* a **compound constructor**: ``"Tensor"["Integer64", 2]``;
* a **literal**: ``TypeLiteral[1, "Integer64"]`` — a type-level constant;
* a **function**: ``{"Integer32", "Integer32"} -> "Real64"``;
* a **polymorphic function**: ``TypeForAll[{"a"}, {"a"} -> "Real64"]``;
* a **qualified polymorphic function**:
  ``TypeForAll[{"a"}, {"a" ∈ "Integral"}, {"a"} -> "Real64"]``.

Types parse both from MExpr syntax (the WL-facing API) and from a compact
Python shorthand used by the builtin type environment:
``ty("Tensor"["Real64", 1])`` ≡ ``tensor("Real64", 1)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.errors import WolframTypeError
from repro.mexpr.atoms import MInteger, MString, MSymbol
from repro.mexpr.expr import MExpr
from repro.mexpr.symbols import head_name, is_head
from repro.runtime.packed import PackedArray

#: canonical aliases: platform-sized names resolve to concrete widths (§2.2)
TYPE_ALIASES = {
    "MachineInteger": "Integer64",
    "MachineReal": "Real64",
    "Complex": "ComplexReal64",
    "Integer": "Integer64",
    "Real": "Real64",
}

ATOMIC_TYPE_NAMES = {
    "Boolean",
    "Integer8", "Integer16", "Integer32", "Integer64",
    "UnsignedInteger8", "UnsignedInteger16", "UnsignedInteger32",
    "UnsignedInteger64",
    "Real16", "Real32", "Real64",
    "ComplexReal64",
    "String",
    "Expression",
    "Void",
}


class Type:
    """Base class of the type language."""

    def free_variables(self) -> set[str]:
        return set()

    def substitute(self, mapping: dict[str, "Type"]) -> "Type":
        return self

    def is_managed(self) -> bool:
        """Managed types need MemoryAcquire/Release (feature F7)."""
        return False


@dataclass(frozen=True)
class AtomicType(Type):
    name: str

    def __post_init__(self):
        if self.name not in ATOMIC_TYPE_NAMES:
            raise WolframTypeError(f"unknown atomic type {self.name!r}")

    def is_managed(self) -> bool:
        return self.name in {"String", "Expression"}

    def __str__(self) -> str:
        return f'"{self.name}"'


@dataclass(frozen=True)
class TypeVariable(Type):
    name: str

    def free_variables(self) -> set[str]:
        return {self.name}

    def substitute(self, mapping: dict[str, Type]) -> Type:
        return mapping.get(self.name, self)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TypeLiteral(Type):
    """A type-level constant, e.g. a tensor rank: ``TypeLiteral[2, "Integer64"]``."""

    value: int
    of_type: str = "Integer64"

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class CompoundType(Type):
    """``constructor[param, ...]`` — e.g. ``"Tensor"["Real64", 1]``."""

    constructor: str
    params: tuple[Type, ...]

    def free_variables(self) -> set[str]:
        out: set[str] = set()
        for param in self.params:
            out |= param.free_variables()
        return out

    def substitute(self, mapping: dict[str, Type]) -> Type:
        return CompoundType(
            self.constructor, tuple(p.substitute(mapping) for p in self.params)
        )

    def is_managed(self) -> bool:
        return self.constructor in {"Tensor", "List", "PackedArray"}

    def __str__(self) -> str:
        inner = ", ".join(str(p) for p in self.params)
        return f'"{self.constructor}"[{inner}]'


@dataclass(frozen=True)
class FunctionType(Type):
    params: tuple[Type, ...]
    result: Type

    def free_variables(self) -> set[str]:
        out = self.result.free_variables()
        for param in self.params:
            out |= param.free_variables()
        return out

    def substitute(self, mapping: dict[str, Type]) -> Type:
        return FunctionType(
            tuple(p.substitute(mapping) for p in self.params),
            self.result.substitute(mapping),
        )

    def __str__(self) -> str:
        inner = ", ".join(str(p) for p in self.params)
        return f"{{{inner}}} -> {self.result}"


@dataclass(frozen=True)
class TypeForAll(Type):
    """A polymorphic type with optional class qualifiers (§4.4)."""

    variables: tuple[str, ...]
    body: Type
    #: qualifiers: (variable, class) pairs, e.g. ("a", "Ordered")
    qualifiers: tuple[tuple[str, str], ...] = ()

    def free_variables(self) -> set[str]:
        return self.body.free_variables() - set(self.variables)

    def substitute(self, mapping: dict[str, Type]) -> Type:
        pruned = {k: v for k, v in mapping.items() if k not in self.variables}
        return TypeForAll(self.variables, self.body.substitute(pruned),
                          self.qualifiers)

    def __str__(self) -> str:
        quals = ", ".join(f'{v} ∈ "{c}"' for v, c in self.qualifiers)
        quals = f"{{{quals}}}, " if quals else ""
        variables = ", ".join(self.variables)
        return f"TypeForAll[{{{variables}}}, {quals}{self.body}]"


_fresh_counter = itertools.count()


def fresh_type_variable(hint: str = "t") -> TypeVariable:
    return TypeVariable(f"{hint}%{next(_fresh_counter)}")


def instantiate(poly: Type) -> tuple[Type, list[tuple[TypeVariable, str]]]:
    """Replace a ForAll's bound variables with fresh ones.

    Returns the instantiated body and the (fresh var, class) qualifier
    obligations that must hold for the instantiation to be valid.
    """
    if not isinstance(poly, TypeForAll):
        return poly, []
    mapping = {name: fresh_type_variable(name) for name in poly.variables}
    obligations = [
        (mapping[variable], class_name)
        for variable, class_name in poly.qualifiers
        if variable in mapping
    ]
    return poly.body.substitute({k: v for k, v in mapping.items()}), obligations


# -- construction shorthand ------------------------------------------------------


TypeLike = Union[Type, str, int]


def ty(spec: TypeLike) -> Type:
    """Python shorthand: ``ty("Integer64")``, ``ty(tensor("Real64", 1))``."""
    if isinstance(spec, Type):
        return spec
    if isinstance(spec, int):
        return TypeLiteral(spec)
    if isinstance(spec, str):
        name = TYPE_ALIASES.get(spec, spec)
        if name in ATOMIC_TYPE_NAMES:
            return AtomicType(name)
        # lowercase single-word names are type variables ("a", "elt")
        if name and (name[0].islower() or name[0] in "αβγρ"):
            return TypeVariable(name)
        raise WolframTypeError(f"unknown type {spec!r}")
    raise WolframTypeError(f"cannot interpret type spec {spec!r}")


def tensor(element: TypeLike, rank: TypeLike = 1) -> CompoundType:
    return CompoundType("Tensor", (ty(element), ty(rank)))


def fn(params: Iterable[TypeLike], result: TypeLike) -> FunctionType:
    return FunctionType(tuple(ty(p) for p in params), ty(result))


def forall(
    variables: Iterable[str],
    body: Type,
    qualifiers: Iterable[tuple[str, str]] = (),
) -> TypeForAll:
    return TypeForAll(tuple(variables), body, tuple(qualifiers))


# -- MExpr-facing TypeSpecifier parser --------------------------------------------


def parse_type_specifier(node: MExpr) -> Type:
    """Parse the WL-facing ``TypeSpecifier`` grammar from an MExpr."""
    if isinstance(node, MString):
        return ty(node.value)
    if isinstance(node, MSymbol):
        return ty(node.name)
    if isinstance(node, MInteger):
        return TypeLiteral(node.value)
    if is_head(node, "TypeSpecifier") and len(node.args) == 1:
        return parse_type_specifier(node.args[0])
    if is_head(node, "TypeLiteral") and len(node.args) == 2:
        value = node.args[0]
        if not isinstance(value, MInteger):
            raise WolframTypeError("TypeLiteral value must be an integer")
        inner = parse_type_specifier(node.args[1])
        of = inner.name if isinstance(inner, AtomicType) else "Integer64"
        return TypeLiteral(value.value, of)
    if is_head(node, "Rule") and len(node.args) == 2:
        params_node, result_node = node.args
        params = (
            [parse_type_specifier(p) for p in params_node.args]
            if is_head(params_node, "List")
            else [parse_type_specifier(params_node)]
        )
        return FunctionType(tuple(params), parse_type_specifier(result_node))
    if is_head(node, "TypeProduct"):
        # structural product types (§4.4: "TypeProduct and TypeProjection,
        # which are used to handle structural types")
        return CompoundType(
            "Product", tuple(parse_type_specifier(a) for a in node.args)
        )
    if is_head(node, "TypeProjection") and len(node.args) == 2:
        inner = parse_type_specifier(node.args[0])
        index = node.args[1]
        if not isinstance(index, MInteger):
            raise WolframTypeError("TypeProjection index must be an integer")
        if not (
            isinstance(inner, CompoundType) and inner.constructor == "Product"
        ):
            raise WolframTypeError("TypeProjection expects a TypeProduct")
        if not 1 <= index.value <= len(inner.params):
            raise WolframTypeError(
                f"TypeProjection index {index.value} out of range"
            )
        return inner.params[index.value - 1]
    if is_head(node, "TypeForAll"):
        args = list(node.args)
        if len(args) == 2:
            variables_node, body_node = args
            qualifier_nodes: list[MExpr] = []
        elif len(args) == 3:
            variables_node, qualifiers_wrap, body_node = args
            qualifier_nodes = list(
                qualifiers_wrap.args if is_head(qualifiers_wrap, "List") else []
            )
        else:
            raise WolframTypeError("bad TypeForAll")
        variables = []
        for item in (
            variables_node.args if is_head(variables_node, "List") else [variables_node]
        ):
            if isinstance(item, MString):
                variables.append(item.value)
            elif isinstance(item, MSymbol):
                variables.append(item.name)
            else:
                raise WolframTypeError(f"bad type variable {item}")
        qualifiers = []
        for qualifier in qualifier_nodes:
            if head_name(qualifier) in {"Element", "MemberQ"} and len(qualifier.args) == 2:
                variable = qualifier.args[0]
                class_name = qualifier.args[1]
                variable_name = (
                    variable.value if isinstance(variable, MString) else variable.name
                )
                class_text = (
                    class_name.value
                    if isinstance(class_name, MString)
                    else class_name.name
                )
                qualifiers.append((variable_name, class_text))
            else:
                raise WolframTypeError(f"bad qualifier {qualifier}")
        return TypeForAll(
            tuple(variables), parse_type_specifier(body_node), tuple(qualifiers)
        )
    # compound constructor: "Tensor"["Real64", 1] parses with MString head
    if not node.is_atom() and isinstance(node.head, MString):
        params = tuple(parse_type_specifier(a) for a in node.args)
        return CompoundType(node.head.value, params)
    if not node.is_atom() and isinstance(node.head, MSymbol):
        params = tuple(parse_type_specifier(a) for a in node.args)
        return CompoundType(node.head.name, params)
    raise WolframTypeError(f"cannot parse type specifier {node}")


#: ``name -> (least, greatest)`` of each machine integer type: the values
#: an argument of that type may take at the boundary
INTEGER_RANGES = {
    **{f"Integer{bits}": (-(1 << bits - 1), (1 << bits - 1) - 1)
       for bits in (8, 16, 32, 64)},
    **{f"UnsignedInteger{bits}": (0, (1 << bits) - 1)
       for bits in (8, 16, 32, 64)},
}


#: runtime Python representatives, used for argument checking at the boundary
def python_check(type_: Type, value) -> bool:
    """Does a Python value inhabit this (monomorphic) type at the boundary?"""
    if isinstance(type_, AtomicType):
        name = type_.name
        if name.startswith("Integer") or name.startswith("UnsignedInteger"):
            return isinstance(value, int) and not isinstance(value, bool)
        if name.startswith("Real"):
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if name == "ComplexReal64":
            return isinstance(value, (int, float, complex))
        if name == "Boolean":
            return isinstance(value, bool)
        if name == "String":
            return isinstance(value, str)
        if name == "Expression":
            return True  # anything boxes into an expression
        return False
    if isinstance(type_, CompoundType) and type_.constructor == "Tensor":
        return isinstance(value, (list, tuple, PackedArray))
    if isinstance(type_, CompoundType) and type_.constructor == "Product":
        return isinstance(value, tuple) and len(value) == len(type_.params)
    if isinstance(type_, FunctionType):
        return callable(value)
    return False
