"""First-order unification over the compiler's type language."""

from __future__ import annotations

from typing import Optional

from repro.compiler.types.specifier import (
    AtomicType,
    CompoundType,
    FunctionType,
    Type,
    TypeForAll,
    TypeLiteral,
    TypeVariable,
)
from repro.errors import TypeInferenceError


class Substitution:
    """A union-find-flavoured substitution: variable name -> Type."""

    def __init__(self, mapping: Optional[dict[str, Type]] = None):
        self.mapping: dict[str, Type] = dict(mapping) if mapping else {}

    def copy(self) -> "Substitution":
        return Substitution(self.mapping)

    def resolve(self, type_: Type) -> Type:
        """Fully apply the substitution to a type."""
        if isinstance(type_, TypeVariable):
            bound = self.mapping.get(type_.name)
            if bound is None:
                return type_
            resolved = self.resolve(bound)
            # path compression
            self.mapping[type_.name] = resolved
            return resolved
        if isinstance(type_, CompoundType):
            return CompoundType(
                type_.constructor, tuple(self.resolve(p) for p in type_.params)
            )
        if isinstance(type_, FunctionType):
            return FunctionType(
                tuple(self.resolve(p) for p in type_.params),
                self.resolve(type_.result),
            )
        if isinstance(type_, TypeForAll):
            inner = Substitution(
                {k: v for k, v in self.mapping.items() if k not in type_.variables}
            )
            return TypeForAll(
                type_.variables, inner.resolve(type_.body), type_.qualifiers
            )
        return type_

    def bind(self, name: str, type_: Type) -> None:
        if isinstance(type_, TypeVariable) and type_.name == name:
            return
        if name in _free_vars_resolved(self, type_):
            raise TypeInferenceError(
                f"occurs check failed: {name} in {type_}"
            )
        self.mapping[name] = type_


def _free_vars_resolved(substitution: Substitution, type_: Type) -> set[str]:
    return substitution.resolve(type_).free_variables()


def unify(a: Type, b: Type, substitution: Substitution) -> None:
    """Unify two types in place; raises :class:`TypeInferenceError`."""
    a = substitution.resolve(a)
    b = substitution.resolve(b)
    if a == b:
        return
    if isinstance(a, TypeVariable):
        substitution.bind(a.name, b)
        return
    if isinstance(b, TypeVariable):
        substitution.bind(b.name, a)
        return
    if isinstance(a, AtomicType) and isinstance(b, AtomicType):
        if a.name != b.name:
            raise TypeInferenceError(f"cannot unify {a} with {b}")
        return
    if isinstance(a, TypeLiteral) and isinstance(b, TypeLiteral):
        if a.value != b.value:
            raise TypeInferenceError(f"cannot unify rank {a} with {b}")
        return
    if isinstance(a, CompoundType) and isinstance(b, CompoundType):
        if a.constructor != b.constructor or len(a.params) != len(b.params):
            raise TypeInferenceError(f"cannot unify {a} with {b}")
        for pa, pb in zip(a.params, b.params):
            unify(pa, pb, substitution)
        return
    if isinstance(a, FunctionType) and isinstance(b, FunctionType):
        if len(a.params) != len(b.params):
            raise TypeInferenceError(
                f"arity mismatch: {len(a.params)} vs {len(b.params)}"
            )
        for pa, pb in zip(a.params, b.params):
            unify(pa, pb, substitution)
        unify(a.result, b.result, substitution)
        return
    raise TypeInferenceError(f"cannot unify {a} with {b}")


def unifiable(a: Type, b: Type, substitution: Substitution) -> bool:
    """Would ``unify(a, b, substitution)`` succeed?  Commits nothing.

    Overload resolution asks this once per parameter of every candidate,
    nearly always about an atomic type or an unbound variable: those are
    answered from the resolved types alone.  Only a pair of compound types
    is unified on trial, and on a copy of the substitution only when a
    variable inside them could be bound."""
    a = substitution.resolve(a)
    b = substitution.resolve(b)
    if a == b:
        return True
    for one, other in ((a, b), (b, a)):
        if isinstance(one, TypeVariable):
            # binding succeeds unless the occurs check fails
            return one.name not in other.free_variables()
    if type(a) is not type(b) or isinstance(a, AtomicType):
        return False
    if a.free_variables() or b.free_variables():
        probe = substitution.copy()
    else:
        probe = Substitution()
    try:
        unify(a, b, probe)
    except TypeInferenceError:
        return False
    return True
