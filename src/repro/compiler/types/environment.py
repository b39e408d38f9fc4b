"""Type environments: function declarations, overloading, and resolution.

§4.4: "Functions are defined within a type environment.  Function
definitions can be overloaded by type, arity, and return type ... Multiple
type environments can be resident within the compiler; a default builtin
type environment is provided.  Users can extend the type environment and
specify which type environment to use at FunctionCompile time."

A declaration pairs a (possibly polymorphic, possibly qualified) function
type with an *implementation*: either a runtime primitive (inline template +
runtime callable) or a Wolfram ``Function`` expression that the
compiler instantiates and compiles on demand (§4.5 Function Resolution).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

_declaration_counter = itertools.count(1)

from repro.compiler.types.classes import DEFAULT_CLASSES, TypeClassRegistry
from repro.compiler.types.specifier import (
    AtomicType,
    CompoundType,
    FunctionType,
    Type,
    TypeForAll,
    TypeLiteral,
    TypeVariable,
    instantiate,
)
from repro.compiler.types.unify import Substitution, unifiable, unify
from repro.errors import (
    AmbiguousTypeError,
    FunctionResolutionError,
    TypeInferenceError,
)

#: the numeric widening lattice for implicit coercion during resolution:
#: ``source -> {target: cast primitive}``, each widening declared once with
#: the primitive function resolution emits to perform it.  A non-negative
#: Integer64 literal may widen into unsigned-64 arithmetic (the FNV1a
#: benchmark mixes byte values into a U64 hash).
_LATTICE = {
    "Integer8": {"Integer16": "identity", "Integer32": "identity",
                 "Integer64": "identity", "Real64": "cast_Integer64_Real64",
                 "ComplexReal64": "cast_Integer64_ComplexReal64"},
    "Integer16": {"Integer32": "identity", "Integer64": "identity",
                  "Real64": "cast_Integer64_Real64",
                  "ComplexReal64": "cast_Integer64_ComplexReal64"},
    "Integer32": {"Integer64": "identity", "Real64": "cast_Integer64_Real64",
                  "ComplexReal64": "cast_Integer64_ComplexReal64"},
    "Integer64": {"UnsignedInteger64": "identity",
                  "Real64": "cast_Integer64_Real64",
                  "ComplexReal64": "cast_Integer64_ComplexReal64"},
    "UnsignedInteger8": {"Integer16": "identity", "Integer32": "identity",
                         "Integer64": "identity",
                         "UnsignedInteger64": "identity",
                         "Real64": "cast_Integer64_Real64",
                         "ComplexReal64": "cast_Integer64_ComplexReal64"},
    "Real32": {"Real64": "identity",
               "ComplexReal64": "cast_Real64_ComplexReal64"},
    "Real64": {"ComplexReal64": "cast_Real64_ComplexReal64"},
}

#: ``(source, target) -> distance``: one more than the number of types the
#: widening passes through (Integer64 -> Real64 is 1, -> ComplexReal64 is
#: 2), so resolution prefers the narrowest overload a coercion reaches
_WIDENING_DISTANCE = {
    (source, target): 1 + sum(
        target in _LATTICE.get(middle, ()) for middle in targets
    )
    for source, targets in _LATTICE.items()
    for target in targets
}


def widens_to(source: Type, target: Type) -> bool:
    return (
        isinstance(source, AtomicType)
        and isinstance(target, AtomicType)
        and target.name in _LATTICE.get(source.name, ())
    )


def widening_distance(source: Type, target: Type) -> int:
    """How far a coercion that :func:`widens_to` allows reaches."""
    return _WIDENING_DISTANCE[source.name, target.name]


def widening_cast(source: Type, target: Type) -> str:
    """The primitive that performs a coercion :func:`widens_to` allows."""
    return _LATTICE[source.name][target.name]


@dataclass
class PrimitiveImpl:
    """A compiler-runtime primitive: one row of the primitive table
    (:mod:`repro.compiler.runtime_library`), which every consumer reads.

    The Python backend splices these templates when primitive inlining is
    enabled (the default; §6 attributes a 10× swing to this):

    * ``py_inline`` — the *result expression* (``"{a0} + {a1}"``).  A
      leading ``"{out} = "`` is accepted and dropped, so a one-line
      statement template still declares a primitive;
    * ``py_guard`` — a statement that can raise, kept with the result:
      one that mentions ``{out}`` runs after the assignment (the overflow
      test), one that mentions only operands runs before it (the zero
      divisor test).  A guarded result is always a named local;
    * ``py_effect`` — the statement of a primitive that acts instead of
      computing (``PartSet``); its result, when kept, is ``py_inline``.

    Placeholders: ``{aN}`` operand, ``{aN_data}`` its flat ``.data`` list,
    ``{aN_cols}`` its column count, ``{args}`` every operand, ``{out}``
    the result local, ``{elem}`` the result's element type name.

    ``total`` marks a primitive that is defined for every well-typed
    operand and reads nothing a store can change: it cannot raise, so the
    backend folds it into its consumer without regard to order and the
    loop-invariant pass may run it ahead of a loop that never runs.

    ``mutates`` marks a primitive that changes its first operand in place
    and returns it (``PartSet``): the one definition the copy-insertion,
    alias-collapse and memory passes and the shape analysis read.
    ``allocates`` marks one whose result is a fresh managed object: it
    starts a reference-counted interval in the memory pass.

    ``runtime_name`` is the mangled symbol generated code calls through
    ``_rt`` (:data:`repro.compiler.runtime_library.RUNTIME`) when inlining
    is disabled.

    The rest of the row is what every other tier and analysis reads:

    * ``call`` — the callable: the primitive's concrete semantics, what
      ``_rt[runtime_name]`` is and what constant propagation folds with;
    * ``error`` — the runtime error kind its check raises
      (``"IntegerOverflow"``, ``"PartOutOfRange"``, ...);
    * ``unchecked`` — the twin check elision swaps in where the dataflow
      facts prove the check can never fire; ``checked`` is the way back,
      set on every primitive that runs only under such a proof (the twin,
      and the rank-2 addressing an unchecked access is lowered to), which
      the verifier re-proves;
    * ``interval`` — the interval transfer: the name of the
      :class:`~repro.analyze.dataflow.Interval` method that computes the
      exact result from the operands' intervals (``"add"``), or one the
      analysis computes from more than the operands (``"count"``, a
      length; ``"element"``, a tensor element);
    * ``index_axes`` — ``(operand position, "row" | "column")`` of each
      ``Part`` index the primitive takes, the axes check elision proves;
    * ``element_range`` — ``(lo, hi)`` of every element of the tensor the
      primitive makes;
    * ``elementwise`` — ``(scalar primitive stem, how many leading
      operands are tensors)`` of element-wise tensor arithmetic: the result
      has the shape those operands share, and a short one is written out
      as the scalar primitive per element;
    * ``wvm`` — the WVM instruction: an
      :class:`~repro.bytecode.instructions.Op` name, or the function of a
      ``MATH_UNARY`` (``"Sin"``); ``None`` where the WVM has none.
    """

    runtime_name: str
    py_inline: Optional[str] = None
    pure: bool = True
    py_guard: Optional[str] = None
    py_effect: Optional[str] = None
    total: bool = False
    mutates: bool = False
    allocates: bool = False
    call: Optional[Callable] = field(default=None, repr=False)
    error: Optional[str] = None
    unchecked: Optional["PrimitiveImpl"] = field(
        default=None, repr=False, compare=False)
    checked: Optional["PrimitiveImpl"] = field(
        default=None, repr=False, compare=False)
    interval: Optional[str] = None
    index_axes: tuple = ()
    element_range: Optional[tuple] = None
    elementwise: Optional[tuple] = None
    wvm: Optional[str] = None

    @property
    def overflow_checked(self) -> bool:
        """Is the result an Integer64 by a check — this primitive's, or
        the one whose elision was proven for it to run?"""
        return (self.checked or self).error == "IntegerOverflow"

    def __post_init__(self):
        if self.py_inline is not None and self.py_inline.startswith("{out} = "):
            self.py_inline = self.py_inline[len("{out} = "):]


@dataclass
class Declaration:
    name: str
    type: Type  # FunctionType or TypeForAll over one
    implementation: object  # PrimitiveImpl | MExpr (Wolfram Function) | None
    #: declaration order; used as the final tie-breaker in ordering
    order: int = 0
    inline_always: bool = False

    def arity(self) -> Optional[int]:
        body = self.type.body if isinstance(self.type, TypeForAll) else self.type
        if isinstance(body, FunctionType):
            return len(body.params)
        return None


@dataclass(frozen=True)
class ResolvedCall:
    """One overload that accepts a call's argument types, with what ranks
    it (§4.4); the best-ranked one is the outcome of function resolution
    for the call site.  Frozen: a ranking at ground argument types is
    shared by every call site that asks for it
    (:meth:`TypeEnvironment.ground_candidates`)."""

    declaration: Declaration
    function_type: FunctionType  # instantiated
    #: per-argument coercion targets (None = exact match)
    coercions: tuple[Optional[Type], ...] = ()
    #: the summed :func:`widening_distance` of the coercions
    distance: int = 0
    #: qualified type variables the argument types leave unbound
    unresolved: int = 0

    @property
    def order(self) -> int:
        return self.declaration.order

    @property
    def mangled_name(self) -> str:
        return mangle(self.declaration.name, self.function_type.params)

    @property
    def rank(self) -> tuple:
        """The ordering (§4.4), least first: fewer coercions, then shorter
        widenings (Real64 before ComplexReal64), then more specific (fewer
        unbound variables), then later declarations (user extensions
        override builtins)."""
        return (*self._merit, -self.order)

    def ties(self, other: "ResolvedCall") -> bool:
        """Does ``other`` rank alike on everything but declaration order?"""
        return self._merit == other._merit

    @property
    def _merit(self) -> tuple:
        coerced = len(self.coercions) - self.coercions.count(None)
        return coerced, self.distance, self.unresolved


class TypeEnvironment:
    """A (possibly chained) mapping from function names to declarations."""

    def __init__(
        self,
        parent: Optional["TypeEnvironment"] = None,
        classes: Optional[TypeClassRegistry] = None,
    ):
        self.parent = parent
        self.classes = classes or (parent.classes if parent else DEFAULT_CLASSES)
        self._functions: dict[str, list[Declaration]] = {}
        self._types: dict[str, dict] = {}
        self._ground_candidates: dict[tuple, Optional[tuple]] = {}

    # -- declarations ------------------------------------------------------------

    def declare_function(
        self,
        name: str,
        type_: Type,
        implementation: object = None,
        inline_always: bool = False,
    ) -> Declaration:
        """``tyEnv["declareFunction", ...]`` (§4.4's Min example)."""
        # declaration order is global so child-environment declarations
        # always outrank inherited ones in the candidate ordering
        declaration = Declaration(
            name=name,
            type=type_,
            implementation=implementation,
            order=next(_declaration_counter),
            inline_always=inline_always,
        )
        self._functions.setdefault(name, []).append(declaration)
        return declaration

    def declare_type(self, name: str, **metadata) -> None:
        """Register a named (user) datatype (feature F6)."""
        self._types[name] = metadata
        from repro.compiler.types import specifier

        specifier.ATOMIC_TYPE_NAMES.add(name)
        for class_name in metadata.get("classes", ()):
            self.classes.add_member(class_name, name)

    def has_type(self, name: str) -> bool:
        if name in self._types:
            return True
        return self.parent.has_type(name) if self.parent else False

    def declarations(self, name: str) -> list[Declaration]:
        own = self._functions.get(name, [])
        if self.parent is not None:
            return self.parent.declarations(name) + own
        return list(own)

    def function_names(self) -> set[str]:
        names = set(self._functions)
        if self.parent is not None:
            names |= self.parent.function_names()
        return names

    # -- resolution (§4.5) --------------------------------------------------------

    def resolve_call(self, name: str,
                     argument_types: list[Type]) -> ResolvedCall:
        """Resolve ``name[args...]`` to an implementation for the given
        argument types.  Raises on no match or ambiguity."""
        candidates = None
        if not any(t.free_variables() for t in argument_types):
            candidates = self.ground_candidates(name, argument_types)
        if candidates is None:
            candidates = self.candidates(
                self.declarations(name), argument_types, Substitution()
            )
        if not candidates:
            raise FunctionResolutionError(
                f"no implementation of {name} matches "
                f"({', '.join(map(str, argument_types))})"
            )
        best = candidates[0]
        if (
            len(candidates) > 1
            and candidates[1].rank == best.rank
            and candidates[1].function_type != best.function_type
        ):
            raise AmbiguousTypeError(
                f"ambiguous call {name}"
                f"({', '.join(map(str, argument_types))}): "
                f"{best.function_type} vs {candidates[1].function_type}"
            )
        return best

    def ground_candidates(
        self, name: str, argument_types: list[Type]
    ) -> Optional[tuple[ResolvedCall, ...]]:
        """:meth:`candidates` for the variable-free ``argument_types`` —
        worked out once per environment and then shared by every call
        site, function and compile that asks (inference and function
        resolution both do).  ``None`` when some overload's instantiated
        type keeps a free variable: those belong to one call site and are
        never shared.

        The key holds everything the answer depends on besides the types:
        the orders of the declarations consulted, so a ``declare_function``
        for ``name`` here or in a parent environment is a new key, and the
        class registry's version, for the qualifier obligations."""
        declarations = self.declarations(name)
        key = (name, tuple(argument_types),
               tuple(d.order for d in declarations), self.classes.version)
        try:
            return self._ground_candidates[key]
        except KeyError:
            pass
        candidates = self.candidates(
            declarations, argument_types, Substitution()
        )
        shared = None
        if not any(c.function_type.free_variables() for c in candidates):
            shared = tuple(candidates)
        self._ground_candidates[key] = shared
        return shared

    def candidates(
        self,
        declarations: list[Declaration],
        argument_types: list[Type],
        substitution: Substitution,
        result_type: Optional[Type] = None,
    ) -> list[ResolvedCall]:
        """The ``declarations`` that accept ``argument_types`` under
        ``substitution`` (and can produce ``result_type``, when given),
        best :attr:`~ResolvedCall.rank` first.  The one ranking of
        overloads: type inference and function resolution both read it."""
        out: list[ResolvedCall] = []
        for declaration in declarations:
            if declaration.arity() != len(argument_types):
                continue
            instantiated, obligations = instantiate(declaration.type)
            probe = substitution.copy()
            coercions: list[Optional[Type]] = []
            distance = 0
            for param, argument in zip(instantiated.params, argument_types):
                # a failed unification leaves a binding behind only when
                # both sides are structured, and then nothing widens either
                try:
                    unify(param, argument, probe)
                    coercions.append(None)
                    continue
                except TypeInferenceError:
                    pass
                resolved_param = probe.resolve(param)
                resolved_argument = probe.resolve(argument)
                if not widens_to(resolved_argument, resolved_param):
                    break
                coercions.append(resolved_param)
                distance += widening_distance(resolved_argument,
                                              resolved_param)
            else:
                unresolved = self._unbound_obligations(obligations, probe)
                if unresolved is not None and (
                    result_type is None
                    or unifiable(instantiated.result, result_type, probe)
                ):
                    out.append(ResolvedCall(
                        declaration, probe.resolve(instantiated),
                        tuple(coercions), distance, unresolved,
                    ))
        out.sort(key=lambda candidate: candidate.rank)
        return out

    def _unbound_obligations(self, obligations, probe: Substitution
                             ) -> Optional[int]:
        """How many qualified variables ``probe`` leaves unbound, or
        ``None`` when a bound one is not a member of its class."""
        unbound = 0
        for variable, class_name in obligations:
            bound = probe.resolve(variable)
            if isinstance(bound, TypeVariable):
                unbound += 1
            elif not self.classes.satisfies(bound, class_name):
                return None
        return unbound


def mangle(name: str, param_types) -> str:
    """The mangled symbol name for an instantiation (§4.5, §A.6.3:
    ``checked_binary_plus_Integer64_Integer64``)."""
    parts = [name.replace("`", "_")]
    for param in param_types:
        parts.append(_mangle_type(param))
    return "_".join(parts)


def _mangle_type(type_: Type) -> str:
    if isinstance(type_, AtomicType):
        return type_.name
    if isinstance(type_, CompoundType):
        inner = "_".join(_mangle_type(p) for p in type_.params)
        return f"{type_.constructor}_{inner}"
    if isinstance(type_, TypeLiteral):
        return str(type_.value)
    if isinstance(type_, FunctionType):
        inner = "_".join(_mangle_type(p) for p in type_.params)
        return f"Fn_{inner}_to_{_mangle_type(type_.result)}"
    if isinstance(type_, TypeVariable):
        return "T"
    return "X"
