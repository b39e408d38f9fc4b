"""The ``MExpr`` AST base class and normal (compound) expressions.

The compiler pipeline (§4) is ``MExpr -> WIR -> TWIR -> codegen``; everything
upstream of the IR manipulates these nodes.  Key design points taken from the
paper:

* every node can carry arbitrary metadata (``get_property``/``set_property``),
  used by binding analysis, provenance tracking, and error reporting;
* nodes serialize and deserialize (see :mod:`repro.mexpr.serialize`);
* equality is structural so macro fixed-point detection and CSE work by
  comparing subtrees.

Structural keys are **cached per node**: trees are immutable once built (only
metadata mutates, and metadata is excluded from equality), so the key tuple —
and the hash derived from it — is computed at most once and child keys are
reused when a parent's key is first built.  This keeps the evaluator's
fixed-point comparison and Orderless sorting from rebuilding O(tree-size)
tuples on every evaluation step.
"""

from __future__ import annotations

from typing import Any, Iterator

#: slots that :meth:`MExpr.clone` must NOT copy: metadata is dropped by
#: contract, and the weakref slot is unassignable
_CLONE_SKIPPED_SLOTS = frozenset({"_properties", "__weakref__"})


class MExpr:
    """Base class of all Wolfram expression nodes."""

    __slots__ = ("_properties", "_hash", "_skey", "_okey", "__weakref__")

    def __init__(self):
        self._properties: dict[str, Any] | None = None
        self._hash: int | None = None
        self._skey: tuple | None = None
        self._okey: tuple | None = None

    # -- structure ----------------------------------------------------------

    def is_atom(self) -> bool:
        raise NotImplementedError

    @property
    def head(self) -> "MExpr":
        raise NotImplementedError

    @property
    def args(self) -> tuple["MExpr", ...]:
        raise NotImplementedError

    def _structure_key(self) -> tuple:
        raise NotImplementedError

    def structure_key(self) -> tuple:
        """The cached structural identity of this tree (metadata-free)."""
        key = self._skey
        if key is None:
            key = self._skey = self._structure_key()
        return key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, MExpr):
            return NotImplemented
        # cached-hash short circuit: unequal hashes prove structural inequality
        # without touching either tree
        if (
            self._hash is not None
            and other._hash is not None
            and self._hash != other._hash
        ):
            return False
        return self.structure_key() == other.structure_key()

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.structure_key())
        return self._hash

    def same_q(self, other: "MExpr") -> bool:
        """Structural identity (Wolfram ``SameQ``)."""
        return self == other

    # -- metadata (paper §4.2: "arbitrary metadata ... on any node") --------

    def set_property(self, key: str, value: Any) -> None:
        if self._properties is None:
            self._properties = {}
        self._properties[key] = value

    def get_property(self, key: str, default: Any = None) -> Any:
        if self._properties is None:
            return default
        return self._properties.get(key, default)

    def has_property(self, key: str) -> bool:
        return self._properties is not None and key in self._properties

    @property
    def properties(self) -> dict[str, Any]:
        if self._properties is None:
            self._properties = {}
        return self._properties

    # -- conversions --------------------------------------------------------

    def to_python(self) -> Any:
        """Convert a literal tree to the corresponding Python value."""
        raise ValueError(f"{self!r} has no Python value")

    def clone(self) -> "MExpr":
        """Deep-copy the tree, dropping metadata.

        ``FunctionCompile`` clones its input so compiler passes may mutate
        metadata freely without touching the user's expression.

        Payload slots are gathered across the full MRO: iterating only the
        leaf class's ``__slots__`` silently skips state declared on base
        classes (an ``MInteger`` subclass adding a slot would clone with its
        inherited ``value`` unset).
        """
        if self.is_atom():
            fresh = type(self).__new__(type(self))
            MExpr.__init__(fresh)
            for klass in type(self).__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    if slot in _CLONE_SKIPPED_SLOTS:
                        continue
                    setattr(fresh, slot, getattr(self, slot))
            return fresh
        return MExprNormal(self.head.clone(), [a.clone() for a in self.args])

    # -- traversal helpers ---------------------------------------------------

    def subexpressions(self) -> Iterator["MExpr"]:
        """Yield this node and every descendant, depth-first, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_atom():
                stack.extend(reversed((node.head, *node.args)))

    def replace_args(self, new_args: list["MExpr"]) -> "MExpr":
        """Return a copy of this normal expression with different arguments."""
        if self.is_atom():
            raise ValueError("atoms have no arguments to replace")
        return MExprNormal(self.head, new_args)

    # -- sugar ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.args)

    def __getitem__(self, index: int) -> "MExpr":
        """1-based part access like Wolfram ``expr[[i]]``; 0 is the head."""
        if index == 0:
            return self.head
        if index > 0:
            return self.args[index - 1]
        return self.args[index]

    def __str__(self) -> str:
        from repro.mexpr.printer import input_form

        return input_form(self)


class MExprNormal(MExpr):
    """A compound ("Normal") expression ``head[arg1, arg2, ...]``.

    ``head`` and ``args`` are plain slots, not properties: every evaluator
    step, matcher and builtin reads them, and a property is a Python frame
    per read.  Trees are immutable by contract (the cached keys above
    depend on it); nothing assigns them after construction.
    """

    __slots__ = ("head", "args")

    def __init__(self, head: MExpr, args):
        # the base initialiser, inlined: one frame per node built
        self._properties = self._hash = self._skey = self._okey = None
        self.head = head
        self.args = tuple(args)

    def is_atom(self) -> bool:
        return False

    def _structure_key(self) -> tuple:
        # children's cached keys are reused, so building a parent key after
        # its subtrees were compared/hashed is O(arity), not O(tree)
        return ("Normal", self.head.structure_key(),
                tuple(a.structure_key() for a in self.args))

    def to_python(self) -> Any:
        from repro.mexpr.atoms import MSymbol

        if isinstance(self.head, MSymbol) and self.head.name == "List":
            return [a.to_python() for a in self.args]
        raise ValueError(f"{self!r} has no Python value")

    def __repr__(self) -> str:
        return f"MExprNormal({self.head!r}, [{', '.join(map(repr, self.args))}])"


def normal(head: MExpr, *args: MExpr) -> MExprNormal:
    """Construct a normal expression; the workhorse expression builder."""
    return MExprNormal(head, args)
