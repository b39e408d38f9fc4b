"""Atomic ``MExpr`` nodes: integers, reals, complexes, strings, and symbols.

§4.2 of the paper: *"MExpr is either an atomic leaf node (representing a
literal or Symbol) or a tree node (representing a Normal Wolfram expression)
... Arbitrary metadata can be set on any node within the AST."*

Equality and hashing are structural and ignore metadata, so two parses of the
same program compare equal while each occurrence can still carry its own
binding annotations.
"""

from __future__ import annotations

from typing import Any

from repro.mexpr.expr import MExpr


class MExprAtom(MExpr):
    """Base class for leaf nodes.  Atoms have no arguments.

    Concrete atoms inline the base initialiser (one frame per node built,
    and every arithmetic result builds one).
    """

    __slots__ = ()

    def is_atom(self) -> bool:
        return True

    @property
    def args(self) -> tuple:
        return ()

    def __len__(self) -> int:
        return 0


class MInteger(MExprAtom):
    """An arbitrary-precision integer literal (Python ``int`` payload)."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self._properties = self._hash = self._skey = self._okey = None
        self.value = int(value)

    @property
    def head(self) -> MExpr:
        from repro.mexpr.symbols import S

        return S.Integer

    def _structure_key(self) -> tuple:
        return ("Integer", self.value)

    def __eq__(self, other: object) -> bool:
        # hot-path fast compare: integers dominate numeric workloads, and the
        # generic path would build two key tuples just to compare payloads
        if type(other) is MInteger:
            return self.value == other.value
        return super().__eq__(other)

    __hash__ = MExprAtom.__hash__

    def to_python(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"MInteger({self.value})"


class MReal(MExprAtom):
    """A machine-precision real literal (Python ``float`` payload)."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        self._properties = self._hash = self._skey = self._okey = None
        self.value = float(value)

    @property
    def head(self) -> MExpr:
        from repro.mexpr.symbols import S

        return S.Real

    def _structure_key(self) -> tuple:
        return ("Real", self.value)

    def to_python(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"MReal({self.value})"


class MComplex(MExprAtom):
    """A machine-precision complex literal (Python ``complex`` payload)."""

    __slots__ = ("value",)

    def __init__(self, value: complex):
        self._properties = self._hash = self._skey = self._okey = None
        self.value = complex(value)

    @property
    def head(self) -> MExpr:
        from repro.mexpr.symbols import S

        return S.Complex

    def _structure_key(self) -> tuple:
        return ("Complex", self.value.real, self.value.imag)

    def to_python(self) -> complex:
        return self.value

    def __repr__(self) -> str:
        return f"MComplex({self.value})"


class MString(MExprAtom):
    """A string literal.  The new compiler supports strings natively (§6)."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        self._properties = self._hash = self._skey = self._okey = None
        self.value = str(value)

    @property
    def head(self) -> MExpr:
        from repro.mexpr.symbols import S

        return S.String

    def _structure_key(self) -> tuple:
        return ("String", self.value)

    def __eq__(self, other: object) -> bool:
        if type(other) is MString:
            return self.value == other.value
        return super().__eq__(other)

    __hash__ = MExprAtom.__hash__

    def to_python(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"MString({self.value!r})"


class MSymbol(MExprAtom):
    """A symbol.

    Symbols compare equal by name; distinct occurrences are distinct node
    objects so binding analysis can attach per-occurrence metadata (§4.2).
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self._properties = self._hash = self._skey = self._okey = None
        self.name = name

    @property
    def head(self) -> MExpr:
        from repro.mexpr.symbols import S

        return S.Symbol

    def _structure_key(self) -> tuple:
        return ("Symbol", self.name)

    def __eq__(self, other: object) -> bool:
        if type(other) is MSymbol:
            return self.name == other.name
        return super().__eq__(other)

    __hash__ = MExprAtom.__hash__

    def to_python(self) -> Any:
        if self.name == "True":
            return True
        if self.name == "False":
            return False
        if self.name == "Null":
            return None
        raise ValueError(f"symbol {self.name} has no Python value")

    def __repr__(self) -> str:
        return f"MSymbol({self.name})"
