"""Source-level lint over MExpr programs (``python -m repro lint``).

The compiler reports most programming errors only when (or after) a
function is compiled — an unbound symbol surfaces as a
:class:`~repro.errors.BindingError` mid-pipeline, an unsupported construct
silently falls back to a slower tier at *call* time.  This linter runs the
cheap static checks up front, before any compilation, and reports them as
structured :class:`~repro.analyze.diagnostics.Diagnostic` records with
source positions:

* ``lint.unbound-symbol`` — a lowercase (user-variable) symbol is used
  outside any binding construct (Function parameters, ``Module``/``Block``/
  ``With`` locals, iterator specs, ``Set`` targets, pattern names);
* ``lint.symbolic`` — an uppercase symbol that is neither a known head nor
  a constant; it stays symbolic at runtime (warning);
* ``lint.arity`` — a call whose argument count matches no declaration of
  the head (structural heads use a builtin table, library heads use the
  default :class:`~repro.compiler.types.environment.TypeEnvironment`);
* ``lint.unreachable-branch`` — a branch dead under a literal condition
  (``If[True, a, b]`` never reaches ``b``; ``While[False, body]`` never
  runs ``body``);
* ``lint.unsupported`` — a head, structural ones included, outside the
  compiler's surface (:func:`~repro.compiler.surface.compilable_heads`,
  the one definition the promotion gate reads too) that the interpreter
  evaluates: the call falls back to the interpreter tier;
* ``lint.unknown-head`` — a head neither the compiler nor the interpreter
  knows;
* ``lint.type-spec`` — a malformed ``Typed``/``TypeSpecifier`` annotation;
* ``lint.overflow`` — integer arithmetic whose *exact* result provably
  lies outside the Integer64 range on every execution, by the same
  :class:`~repro.analyze.dataflow.Interval` arithmetic the compiler's
  check-elision pass uses (compiled code traps here; error);
* ``lint.part-bounds`` — a ``Part`` index provably outside the bounds of
  its (literal or constant-bound) list on every execution (error);
* ``lint.unreachable-branch`` also fires when a comparison is *decided*
  by interval facts — e.g. an ``If`` whose condition compares two
  constants or bounded iterators (warning);
* ``lint.dead-store`` — a ``Module``-local assignment whose value is
  overwritten or never read before scope exit, from the backward
  liveness walk (:func:`~repro.analyze.dataflow.dead_assignments`;
  warning);
* ``lint.unused-variable`` — a ``Module`` local that is never read
  anywhere in the body (warning).

Positions: MExpr nodes carry no source offsets (only lexer tokens do), so
the linter re-locates each symbol sighting by scanning the source text for
word-boundary occurrences in tree-walk order.  That recovers exact
line/column for straight-line code and a close approximation around
operator sugar; every diagnostic still carries the symbol name even when
no occurrence is found.
"""

from __future__ import annotations

import re
from functools import cache
from typing import Optional

from repro.analyze.diagnostics import Diagnostic, position_to_line_column
from repro.engine.builtins import BUILTINS
from repro.errors import ReproError
from repro.mexpr.atoms import MInteger, MSymbol
from repro.mexpr.expr import MExpr
from repro.mexpr.parser import parse
from repro.mexpr.symbols import head_name, is_head

#: symbols that are always bound (language constants and common sentinels)
KNOWN_CONSTANTS = frozenset({
    "True", "False", "Null", "None", "All", "Automatic",
    "Pi", "E", "I", "Infinity", "EulerGamma", "GoldenRatio", "Degree",
    "$Aborted", "$Failed", "$MachineEpsilon", "$MaxMachineInteger",
})

#: (min, max) argument counts (``None`` max = variadic) of control and
#: scoping heads: syntax, not functions, so the type environment declares
#: none.  Arity data only — whether the compiler takes a head is the
#: surface's answer (``Switch`` and ``Product`` are interpreter-only).
STRUCTURAL_ARITIES: dict[str, tuple[int, Optional[int]]] = {
    "If": (2, 4),
    "Which": (2, None),
    "Switch": (3, None),
    "While": (1, 2),
    "For": (3, 4),
    "Do": (2, None),
    "Table": (1, None),
    "Sum": (2, None),
    "Product": (2, None),
    "Module": (2, 2),
    "Block": (2, 2),
    "With": (2, 2),
    "Function": (1, 3),
    "CompoundExpression": (1, None),
    "Set": (2, 2),
    "SetDelayed": (2, 2),
    "Typed": (2, 2),
    "TypeSpecifier": (1, None),
    "KernelFunction": (1, 1),
    "Return": (0, 1),
    "Break": (0, 0),
    "Continue": (0, 0),
    "Part": (2, None),
    "Increment": (1, 1),
    "Decrement": (1, 1),
    "PreIncrement": (1, 1),
    "PreDecrement": (1, 1),
    "AddTo": (2, 2),
    "SubtractFrom": (2, 2),
    "TimesBy": (2, 2),
    "DivideBy": (2, 2),
    "Slot": (0, 1),
    "SlotSequence": (0, 1),
    "List": (0, None),
}

#: heads that bind no names but whose args the walker must not treat as
#: expressions (patterns, type specifiers)
_PATTERN_HEADS = frozenset({
    "Blank", "BlankSequence", "BlankNullSequence", "Pattern",
})


class _Scope:
    """A chained set of bound names (Function params, Module locals...).

    ``intervals`` carries the known value range of constant-valued
    bindings (``With`` constants, never-reassigned ``Module``
    initializers, bounded iterators) for the interval-backed checks.
    """

    __slots__ = ("parent", "names", "intervals", "lists")

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.names: set[str] = set()
        self.intervals: dict[str, object] = {}
        self.lists: dict[str, int] = {}

    def bound(self, name: str) -> bool:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return True
            scope = scope.parent
        return False

    def interval(self, name: str):
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.intervals:
                return scope.intervals[name]
            if name in scope.names:
                return None  # bound here with an unknown value: stop
            scope = scope.parent
        return None

    def list_length(self, name: str) -> Optional[int]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.lists:
                return scope.lists[name]
            if name in scope.names:
                return None
            scope = scope.parent
        return None

    def child(self) -> "_Scope":
        return _Scope(self)


_WORD = r"(?<![A-Za-z0-9$`]){}(?![A-Za-z0-9$`])"


class _Locator:
    """Recover source offsets for symbol sightings in tree-walk order.

    For each distinct name, all word-boundary occurrences in the source are
    enumerated once; each sighting during the walk consumes the next one.
    The walk is pre-order, which matches textual order for everything the
    compilable subset writes, so the n-th sighting of ``i`` lands on the
    n-th ``i`` in the file.
    """

    def __init__(self, text: Optional[str]):
        self.text = text or ""
        self._occurrences: dict[str, list[int]] = {}
        self._cursor: dict[str, int] = {}

    def next(self, name: str) -> Optional[int]:
        if not self.text:
            return None
        if name not in self._occurrences:
            pattern = _WORD.format(re.escape(name))
            self._occurrences[name] = [
                m.start() for m in re.finditer(pattern, self.text)
            ]
            self._cursor[name] = 0
        spots = self._occurrences[name]
        index = self._cursor[name]
        if index < len(spots):
            self._cursor[name] = index + 1
            return spots[index]
        return spots[-1] if spots else None

    def peek(self, name: str) -> Optional[int]:
        """The next occurrence without consuming it (for diagnostics that
        anchor on a symbol the regular walk will locate later)."""
        if not self.text:
            return None
        if name not in self._occurrences:
            pattern = _WORD.format(re.escape(name))
            self._occurrences[name] = [
                m.start() for m in re.finditer(pattern, self.text)
            ]
            self._cursor[name] = 0
        spots = self._occurrences[name]
        index = self._cursor[name]
        if index < len(spots):
            return spots[index]
        return spots[-1] if spots else None


class _Linter:
    def __init__(self, source_text: Optional[str], name: str):
        self.source_name = name
        self.locator = _Locator(source_text)
        self.diagnostics: list[Diagnostic] = []
        #: id(Set node) -> source position of its target, recorded during
        #: the walk so the liveness report can anchor dead stores
        self._set_positions: dict[int, Optional[int]] = {}

    # -- reporting ----------------------------------------------------------

    def report(self, invariant: str, message: str, severity: str = "error",
               position: Optional[int] = None, **data) -> None:
        line = column = None
        if position is not None and self.locator.text:
            line, column = position_to_line_column(self.locator.text, position)
        self.diagnostics.append(Diagnostic(
            invariant=invariant,
            message=message,
            severity=severity,
            source=self.source_name,
            position=position,
            line=line,
            column=column,
            data=data,
        ))

    # -- walking ------------------------------------------------------------

    def lint(self, node: MExpr) -> list[Diagnostic]:
        self._walk(node, _Scope())
        return self.diagnostics

    def _walk(self, node: MExpr, scope: _Scope) -> None:
        if isinstance(node, MSymbol):
            self._check_symbol(node, scope)
            return
        if node.is_atom():
            return
        hname = head_name(node)
        if hname is None:
            # function-valued head (Function[...][x] etc.): walk everything
            self._walk(node.head, scope)
            for arg in node.args:
                self._walk(arg, scope)
            return
        head_position = self.locator.next(hname)
        self._check_head(hname, node, head_position, scope)
        handler = getattr(self, f"_walk_{hname}", None)
        if handler is not None:
            handler(node, scope, head_position)
            return
        if hname in _PATTERN_HEADS:
            return  # pattern structure, not expressions
        for arg in node.args:
            self._walk(arg, scope)

    # -- symbol binding -----------------------------------------------------

    def _check_symbol(self, node: MSymbol, scope: _Scope) -> None:
        name = node.name
        position = self.locator.next(name)
        if scope.bound(name) or name in KNOWN_CONSTANTS:
            return
        from repro.compiler.surface import compilable_heads
        from repro.engine.builtins.support import registry

        if name in compilable_heads() or name in registry():
            return  # a known head used as a function value
        if name[:1].islower():
            self.report(
                "lint.unbound-symbol",
                f"symbol '{name}' is used but never bound",
                position=position, symbol=name,
            )
        else:
            self.report(
                "lint.symbolic",
                f"symbol '{name}' is unknown and stays symbolic at runtime",
                severity="warning", position=position, symbol=name,
            )

    # -- head checks --------------------------------------------------------

    def _check_head(self, hname: str, node: MExpr,
                    position: Optional[int], scope: _Scope) -> None:
        nargs = len(node.args)
        if hname in ("Plus", "Subtract", "Times", "Minus"):
            self._check_overflow(node, position, scope)
        from repro.compiler.macros import default_macro_environment
        from repro.compiler.surface import compilable_heads
        from repro.compiler.types.builtin_env import default_environment
        from repro.engine.builtins.support import registry

        if hname in STRUCTURAL_ARITIES:
            low, high = STRUCTURAL_ARITIES[hname]
            if nargs < low or (high is not None and nargs > high):
                expected = (
                    f"{low}" if high == low
                    else f"{low}+" if high is None
                    else f"{low}-{high}"
                )
                self.report(
                    "lint.arity",
                    f"{hname} takes {expected} argument(s), got {nargs}",
                    position=position, head=hname, count=nargs,
                )
            self._check_unreachable(hname, node, position, scope)
        elif scope.bound(hname):
            return  # a local variable applied as a function: assume ok
        elif not default_macro_environment().rules_for(hname):
            # macros normalize their own shapes
            arities = {
                d.arity() for d in default_environment().declarations(hname)
            } - {None}
            if arities and nargs not in arities:
                wanted = ", ".join(str(a) for a in sorted(arities))
                self.report(
                    "lint.arity",
                    f"{hname} takes {wanted} argument(s), got {nargs}",
                    position=position, head=hname, count=nargs,
                    expected=sorted(arities),
                )
        if hname in compilable_heads() or hname in _PATTERN_HEADS:
            return
        if hname in registry():
            self.report(
                "lint.unsupported",
                f"'{hname}' is not supported by the compiler; calls fall "
                "back to the interpreter tier",
                severity="warning", position=position,
                head=hname, fallback="interpreter",
            )
            return
        self.report(
            "lint.unknown-head",
            f"'{hname}' is not known to any execution tier",
            severity="warning", position=position, head=hname,
        )

    def _check_unreachable(self, hname: str, node: MExpr,
                           position: Optional[int],
                           scope: _Scope) -> None:
        args = node.args
        if hname == "If" and args:
            condition = args[0]
            if _is_symbol(condition, "True") and len(args) >= 3:
                self.report(
                    "lint.unreachable-branch",
                    "If condition is literally True; the else-branch is "
                    "unreachable",
                    severity="warning", position=position, branch="else",
                )
            elif _is_symbol(condition, "False") and len(args) >= 2:
                self.report(
                    "lint.unreachable-branch",
                    "If condition is literally False; the then-branch is "
                    "unreachable",
                    severity="warning", position=position, branch="then",
                )
            else:
                decided = _decide_comparison(condition, scope)
                if decided is True and len(args) >= 3:
                    self.report(
                        "lint.unreachable-branch",
                        "If condition is provably True by interval "
                        "analysis; the else-branch is unreachable",
                        severity="warning", position=position, branch="else",
                    )
                elif decided is False and len(args) >= 2:
                    self.report(
                        "lint.unreachable-branch",
                        "If condition is provably False by interval "
                        "analysis; the then-branch is unreachable",
                        severity="warning", position=position, branch="then",
                    )
        elif hname == "While" and args:
            if _is_symbol(args[0], "False"):
                self.report(
                    "lint.unreachable-branch",
                    "While condition is literally False; the body never runs",
                    severity="warning", position=position, branch="body",
                )
            elif _decide_comparison(args[0], scope) is False:
                self.report(
                    "lint.unreachable-branch",
                    "While condition is provably False by interval "
                    "analysis; the body never runs",
                    severity="warning", position=position, branch="body",
                )

    def _check_overflow(self, node: MExpr, position: Optional[int],
                        scope: _Scope) -> None:
        """Exact arithmetic provably outside Integer64 on every execution."""
        from repro.analyze.dataflow import INT64_MAX, INT64_MIN

        result = _interval_of(node, scope)
        if result is None:
            return
        lo, hi = result.lo, result.hi
        if not (
            (lo is not None and lo > INT64_MAX)
            or (hi is not None and hi < INT64_MIN)
        ):
            return
        if position is None:  # operator sugar: anchor on an operand
            for arg in node.args:
                if isinstance(arg, MInteger):
                    position = self.locator.peek(str(arg.value))
                    break
                if isinstance(arg, MSymbol):
                    position = self.locator.peek(arg.name)
                    break
        self.report(
            "lint.overflow",
            f"{head_name(node)} provably overflows Integer64: the exact "
            f"result is {_format_interval(result)}",
            position=position, range=_format_interval(result),
        )

    def _walk_Part(self, node: MExpr, scope: _Scope,
                   position: Optional[int]) -> None:
        target = node.args[0] if node.args else None
        anchor = position
        if anchor is None and isinstance(target, MSymbol):
            anchor = self.locator.peek(target.name)
        for arg in node.args:
            self._walk(arg, scope)
        if target is None:
            return
        length = len(target.args) if is_head(target, "List") else None
        if length is None and isinstance(target, MSymbol):
            length = scope.list_length(target.name)
        for which, index_node in enumerate(node.args[1:]):
            index = _interval_of(index_node, scope)
            if index is None:
                continue
            if anchor is None and isinstance(index_node, MInteger):
                anchor = self.locator.peek(str(index_node.value))
            bound = length if which == 0 else None  # length covers dim 1
            out = index.is_constant and index.lo == 0
            if bound is not None:
                if index.lo is not None and index.lo > bound:
                    out = True
                if index.hi is not None and index.hi < -bound:
                    out = True
                if index.is_constant and not (
                    1 <= index.lo <= bound or -bound <= index.lo <= -1
                ):
                    out = True
            if out:
                described = (
                    f" of a length-{bound} list" if bound is not None else ""
                )
                self.report(
                    "lint.part-bounds",
                    f"Part index {_format_interval(index)} is provably "
                    f"out of bounds{described}",
                    position=anchor, index=_format_interval(index),
                    length=bound,
                )

    # -- scoping constructs -------------------------------------------------

    def _walk_Function(self, node: MExpr, scope: _Scope,
                       position: Optional[int]) -> None:
        args = node.args
        inner = scope.child()
        if len(args) >= 2:
            params = args[0]
            if is_head(params, "List"):
                for param in params.args:
                    self._bind_parameter(param, inner)
            else:
                self._bind_parameter(params, inner)
            bodies = args[1:]
        else:
            bodies = args  # slot-based Function[body]
        for body in bodies:
            self._walk(body, inner)

    def _bind_parameter(self, param: MExpr, scope: _Scope) -> None:
        if isinstance(param, MSymbol):
            self.locator.next(param.name)
            scope.names.add(param.name)
            return
        if is_head(param, "Typed") and len(param.args) == 2:
            self.locator.next("Typed")
            target = param.args[0]
            if isinstance(target, MSymbol):
                self.locator.next(target.name)
                scope.names.add(target.name)
            self._check_type_specifier(param.args[1])
            return
        self._walk(param, scope)

    def _check_type_specifier(self, spec: MExpr) -> None:
        from repro.compiler.types.specifier import parse_type_specifier

        try:
            parse_type_specifier(spec)
        except ReproError as error:
            hname = head_name(spec) if not spec.is_atom() else None
            self.report(
                "lint.type-spec",
                f"malformed type specifier: {error}",
                position=self.locator.next(hname)
                if hname is not None else None,
            )

    def _walk_Typed(self, node: MExpr, scope: _Scope,
                    position: Optional[int]) -> None:
        if len(node.args) == 2:
            self._walk(node.args[0], scope)
            self._check_type_specifier(node.args[1])
        else:
            for arg in node.args:
                self._walk(arg, scope)

    def _walk_scoping(self, node: MExpr, scope: _Scope,
                      hname: str = "Module") -> None:
        """Module/Block/With: ``{v, w = init, ...}`` then the body."""
        args = node.args
        if not args:
            return
        inner = scope.child()
        declarations = args[0]
        entries = declarations.args if is_head(declarations, "List") else ()
        if is_head(declarations, "List"):
            self.locator.next("List")
        declared: dict[str, Optional[int]] = {}
        assigned_in_body: set[str] = set()
        if hname == "Module":
            for body in args[1:]:
                assigned_in_body |= _assigned_names(body)
        for entry in entries:
            if isinstance(entry, MSymbol):
                declared[entry.name] = self.locator.next(entry.name)
                inner.names.add(entry.name)
            elif is_head(entry, "Set") and len(entry.args) == 2:
                self.locator.next("Set")
                target, init = entry.args
                # initializers see the outer scope plus earlier locals
                self._walk(init, inner)
                if isinstance(target, MSymbol):
                    declared[target.name] = self.locator.next(target.name)
                    inner.names.add(target.name)
                    # a With constant (never assignable) or a Module
                    # local the body never reassigns keeps its
                    # initializer's range for the interval checks
                    if hname == "With" or (
                        hname == "Module"
                        and target.name not in assigned_in_body
                    ):
                        value = _interval_of(init, inner)
                        if value is not None:
                            inner.intervals[target.name] = value
                        elif is_head(init, "List"):
                            inner.lists[target.name] = len(init.args)
                else:
                    self._walk(target, inner)
            else:
                self._walk(entry, inner)
        for body in args[1:]:
            self._walk(body, inner)
        if hname == "Module" and declared:
            self._lint_module_liveness(node, declared)

    _walk_Module = (lambda self, node, scope, position:
                    self._walk_scoping(node, scope, "Module"))
    _walk_Block = (lambda self, node, scope, position:
                   self._walk_scoping(node, scope, "Block"))
    _walk_With = (lambda self, node, scope, position:
                  self._walk_scoping(node, scope, "With"))

    def _lint_module_liveness(self, node: MExpr,
                              declared: dict[str, Optional[int]]) -> None:
        """Dead stores and never-read locals over the Module body.

        The body's top-level statement list feeds the backward liveness
        walk (:func:`repro.analyze.dataflow.dead_assignments`); nested
        control flow is summarized conservatively as reading every symbol
        it mentions, so a warning here is a certainty, never a guess.
        """
        from repro.analyze.dataflow import dead_assignments

        body = node.args[1] if len(node.args) >= 2 else None
        if body is None:
            return
        statements = (
            list(body.args) if is_head(body, "CompoundExpression")
            else [body]
        )
        pairs: list[tuple[Optional[str], set[str]]] = []
        for statement in statements:
            if (
                is_head(statement, "Set")
                and len(statement.args) == 2
                and isinstance(statement.args[0], MSymbol)
                and statement.args[0].name in declared
            ):
                pairs.append((
                    statement.args[0].name,
                    _free_symbols(statement.args[1]),
                ))
            else:
                pairs.append((None, _free_symbols(statement)))
        dead, _live_in = dead_assignments(pairs)
        reads: set[str] = set()
        for _written, read in pairs:
            reads |= read
        # a later local's initializer may read an earlier local
        declarations = node.args[0]
        if is_head(declarations, "List"):
            for entry in declarations.args:
                if is_head(entry, "Set") and len(entry.args) == 2:
                    reads |= _free_symbols(entry.args[1])
        for name, position in declared.items():
            if name not in reads:
                self.report(
                    "lint.unused-variable",
                    f"Module variable '{name}' is never read",
                    severity="warning", position=position, symbol=name,
                )
        for index in dead:
            name = pairs[index][0]
            if name is None or name not in reads:
                continue  # a never-read local is already reported above
            self.report(
                "lint.dead-store",
                f"value assigned to '{name}' is never read before being "
                f"overwritten or leaving scope",
                severity="warning",
                position=self._set_positions.get(id(statements[index])),
                symbol=name,
            )

    def _walk_iteration(self, node: MExpr, scope: _Scope) -> None:
        """Table/Do/Sum/Product: body first, then iterator specs."""
        args = node.args
        if not args:
            return
        inner = scope.child()
        for spec in args[1:]:
            if is_head(spec, "List") and spec.args:
                self.locator.next("List")
                iterator = spec.args[0]
                for bound in spec.args[1:]:
                    self._walk(bound, scope)
                if isinstance(iterator, MSymbol):
                    self.locator.next(iterator.name)
                    inner.names.add(iterator.name)
                    value = _iterator_interval(spec.args[1:], scope)
                    if value is not None:
                        inner.intervals[iterator.name] = value
                else:
                    self._walk(iterator, scope)
            else:
                self._walk(spec, scope)  # plain count: Do[body, n]
        self._walk(args[0], inner)

    _walk_Table = _walk_Do = _walk_Sum = _walk_Product = (
        lambda self, node, scope, position: self._walk_iteration(node, scope)
    )

    def _walk_For(self, node: MExpr, scope: _Scope,
                  position: Optional[int]) -> None:
        args = node.args
        if not args:
            return
        inner = scope.child()
        self._walk_statement(args[0], inner)  # For's init Set binds its var
        for arg in args[1:]:
            self._walk(arg, inner)

    def _walk_CompoundExpression(self, node: MExpr, scope: _Scope,
                                 position: Optional[int]) -> None:
        for statement in node.args:
            self._walk_statement(statement, scope)

    def _walk_statement(self, statement: MExpr, scope: _Scope) -> None:
        """A sequential statement: ``Set`` binds its target *going forward*."""
        if (
            (is_head(statement, "Set") or is_head(statement, "SetDelayed"))
            and len(statement.args) == 2
        ):
            hname = head_name(statement)
            self.locator.next(hname)
            target, value = statement.args
            if isinstance(target, MSymbol):
                self._set_positions[id(statement)] = (
                    self.locator.next(target.name)
                )
                if hname == "Set":
                    self._walk(value, scope)
                else:
                    inner = scope.child()
                    inner.names.add(target.name)
                    self._walk(value, inner)
                scope.names.add(target.name)
                return
            if not target.is_atom():
                # f[x_, ...] := body — bind f and the pattern names
                fname = head_name(target)
                inner = scope.child()
                if fname is not None:
                    self.locator.next(fname)
                    scope.names.add(fname)
                    inner.names.add(fname)
                for name in _pattern_names(target):
                    inner.names.add(name)
                self._walk(value, inner)
                return
        self._walk(statement, scope)

    def _walk_Set(self, node: MExpr, scope: _Scope,
                  position: Optional[int]) -> None:
        # a Set outside CompoundExpression still binds in the current scope
        if len(node.args) == 2:
            target, value = node.args
            if isinstance(target, MSymbol):
                self._set_positions[id(node)] = (
                    self.locator.next(target.name)
                )
                self._walk(value, scope)
                scope.names.add(target.name)
                return
        for arg in node.args:
            self._walk(arg, scope)

    _walk_SetDelayed = _walk_Set

    def _walk_KernelFunction(self, node: MExpr, scope: _Scope,
                             position: Optional[int]) -> None:
        # KernelFunction bodies run in the interpreter; their free symbols
        # resolve against the session, not the compile-time scope.
        return


def _is_symbol(node: MExpr, name: str) -> bool:
    return isinstance(node, MSymbol) and node.name == name


# -- interval facts over literal/constant source expressions ----------------


def _interval_of(node: MExpr, scope: _Scope, depth: int = 8):
    """Exact integer range of a constant-valued expression, else ``None``.

    Reuses the compiler's :class:`~repro.analyze.dataflow.Interval`
    arithmetic so the lint's overflow/bounds verdicts agree with what the
    check-elision pass would conclude over the lowered IR.
    """
    from repro.analyze.dataflow import Interval

    if depth <= 0:
        return None
    if isinstance(node, MInteger):
        return Interval.const(node.value)
    if isinstance(node, MSymbol):
        return scope.interval(node.name)
    if node.is_atom():
        return None
    hname = head_name(node)
    if hname in ("Plus", "Times") and node.args:
        result = _interval_of(node.args[0], scope, depth - 1)
        for arg in node.args[1:]:
            if result is None:
                return None
            other = _interval_of(arg, scope, depth - 1)
            if other is None:
                return None
            result = (result.add(other) if hname == "Plus"
                      else result.multiply(other))
        return result
    if hname == "Subtract" and len(node.args) == 2:
        a = _interval_of(node.args[0], scope, depth - 1)
        b = _interval_of(node.args[1], scope, depth - 1)
        if a is not None and b is not None:
            return a.subtract(b)
        return None
    if hname == "Minus" and len(node.args) == 1:
        a = _interval_of(node.args[0], scope, depth - 1)
        return a.negate() if a is not None else None
    if (
        hname == "Length"
        and len(node.args) == 1
        and isinstance(node.args[0], MSymbol)
    ):
        length = scope.list_length(node.args[0].name)
        if length is not None:
            return Interval.const(length)
    return None


def _iterator_interval(bounds: tuple, scope: _Scope):
    """The range of ``{i, ...}`` iterator specs: ``{i, n}`` is [1, n],
    ``{i, a, b}`` is [a, b]; explicit-step specs stay unknown."""
    from repro.analyze.dataflow import Interval

    if len(bounds) == 1:
        limit = _interval_of(bounds[0], scope)
        return Interval(1, limit.hi if limit is not None else None)
    if len(bounds) == 2:
        low = _interval_of(bounds[0], scope)
        high = _interval_of(bounds[1], scope)
        if low is not None and high is not None:
            return Interval(low.lo, high.hi)
    return None


_COMPARISON_HEADS = frozenset({
    "Less", "LessEqual", "Greater", "GreaterEqual", "Equal", "Unequal",
})


def _decide_comparison(node: MExpr, scope: _Scope) -> Optional[bool]:
    """True/False when interval facts decide the comparison, else None."""
    if node.is_atom():
        return None
    hname = head_name(node)
    if hname not in _COMPARISON_HEADS or len(node.args) != 2:
        return None
    a = _interval_of(node.args[0], scope)
    b = _interval_of(node.args[1], scope)
    if a is None or b is None:
        return None
    if hname in ("Greater", "GreaterEqual"):
        a, b = b, a
        hname = "Less" if hname == "Greater" else "LessEqual"
    if hname == "Less":
        if a.hi is not None and b.lo is not None and a.hi < b.lo:
            return True
        if a.lo is not None and b.hi is not None and a.lo >= b.hi:
            return False
        return None
    if hname == "LessEqual":
        if a.hi is not None and b.lo is not None and a.hi <= b.lo:
            return True
        if a.lo is not None and b.hi is not None and a.lo > b.hi:
            return False
        return None
    equal: Optional[bool] = None
    if a.is_constant and b.is_constant:
        equal = a.lo == b.lo
    elif a.intersect(b).is_empty:
        equal = False
    if equal is None:
        return None
    return equal if hname == "Equal" else not equal


def _format_interval(interval) -> str:
    if interval.is_constant:
        return str(interval.lo)
    lo = "-inf" if interval.lo is None else str(interval.lo)
    hi = "inf" if interval.hi is None else str(interval.hi)
    return f"[{lo}, {hi}]"


def _free_symbols(node: MExpr) -> set[str]:
    """Every symbol mentioned under ``node`` (conservative read set)."""
    names: set[str] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, MSymbol):
            names.add(current.name)
        elif not current.is_atom():
            stack.append(current.head)
            stack.extend(current.args)
    return names


@cache
def _assigned_names(node: MExpr) -> set[str]:
    """Symbols assigned anywhere under ``node`` (including nested flow):
    the first argument of each builtin registered with ``writes=True``
    (``Set``, ``AppendTo``, ``Increment``, ...)."""
    names: set[str] = set()
    if node.is_atom():
        return names
    builtin = BUILTINS.get(head_name(node))
    if builtin is not None and builtin.writes and node.args and isinstance(
            node.args[0], MSymbol):
        names.add(node.args[0].name)
    for arg in node.args:
        names |= _assigned_names(arg)
    return names


def _pattern_names(node: MExpr) -> set[str]:
    names: set[str] = set()
    if node.is_atom():
        return names
    if head_name(node) == "Pattern" and node.args:
        first = node.args[0]
        if isinstance(first, MSymbol):
            names.add(first.name)
    for arg in node.args:
        names |= _pattern_names(arg)
    return names


# -- public API -------------------------------------------------------------


def lint_program(node: MExpr, source_text: Optional[str] = None,
                 name: str = "<input>",
                 assume_bound: Optional[set] = None) -> list[Diagnostic]:
    """Lint one parsed MExpr program; positions require ``source_text``.

    ``assume_bound`` pre-binds names supplied externally — the
    ``constants={...}`` argument of ``FunctionCompile`` injects module
    constants the source never declares.
    """
    linter = _Linter(source_text, name)
    scope = _Scope()
    scope.names |= set(assume_bound or ())
    linter._walk(node, scope)
    return linter.diagnostics


def lint_text(source: str, name: str = "<input>",
              assume_bound: Optional[set] = None) -> list[Diagnostic]:
    """Parse and lint ``source``; parse failures become diagnostics too."""
    try:
        node = parse(source)
    except ReproError as error:
        line = column = None
        position = getattr(error, "pos", None)
        if isinstance(position, int):
            line, column = position_to_line_column(source, position)
        return [Diagnostic(
            invariant="lint.parse",
            message=str(error),
            source=name,
            position=position if isinstance(position, int) else None,
            line=line,
            column=column,
        )]
    return lint_program(node, source_text=source, name=name,
                        assume_bound=assume_bound)


# -- CLI (``python -m repro lint``) -----------------------------------------


def run_lint_cli(argv, output=None) -> int:
    """``python -m repro lint [FILES...] [-e EXPR] [--bench] [--json]``."""
    import argparse
    import json
    import sys

    from repro.analyze.diagnostics import errors, format_report

    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Source-level lint for Wolfram-style programs",
    )
    parser.add_argument("files", nargs="*", metavar="FILE",
                        help="source files to lint (.wl / .m / .txt)")
    parser.add_argument("-e", "--expression", action="append", default=[],
                        metavar="EXPR", dest="expressions",
                        help="lint EXPR given on the command line")
    parser.add_argument("--bench", action="store_true",
                        help="lint the benchmark suite's compiled programs")
    parser.add_argument("--json", action="store_true",
                        help="emit diagnostics as a JSON array")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings too")
    parser.add_argument("--assume", action="append", default=[],
                        metavar="NAME", dest="assumed",
                        help="treat NAME as externally bound (a module "
                             "constant injected at compile time)")
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as error:
        return int(error.code or 0)
    out = output or sys.stdout

    assumed = set(args.assumed)
    sources: list[tuple[str, str, set]] = []
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                sources.append((path, handle.read(), assumed))
        except OSError as error:
            out.write(f"error: cannot read {path}: {error}\n")
            return 2
    for index, text in enumerate(args.expressions, 1):
        sources.append((f"<expr:{index}>", text, assumed))
    if args.bench:
        from repro.benchsuite import programs as bench

        # constants the harness injects via ``FunctionCompile(constants=...)``
        bench_constants = {"primeTable", "witnesses"}
        for attr in sorted(vars(bench)):
            if attr.startswith(("NEW_", "ITERATIVE_")):
                value = getattr(bench, attr)
                if isinstance(value, str):
                    sources.append((
                        f"<bench:{attr}>", value, assumed | bench_constants,
                    ))
    if not sources:
        parser.print_usage(out)
        return 2

    all_diagnostics: list[Diagnostic] = []
    for name, text, bound in sources:
        all_diagnostics.extend(lint_text(text, name=name, assume_bound=bound))
    if args.json:
        out.write(json.dumps(
            [d.to_dict() for d in all_diagnostics], indent=2,
        ) + "\n")
    elif all_diagnostics:
        out.write(format_report(all_diagnostics) + "\n")
    problem_count = len(all_diagnostics)
    error_count = len(errors(all_diagnostics))
    # With --json the output stream must stay parseable JSON, so the
    # human summary is routed to stderr instead.
    summary_out = sys.stderr if args.json else out
    summary_out.write(
        f"lint: {len(sources)} source(s), {error_count} error(s), "
        f"{problem_count - error_count} warning(s)\n"
    )
    if error_count or (args.strict and problem_count):
        return 1
    return 0
