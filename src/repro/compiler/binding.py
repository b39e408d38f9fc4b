"""Binding analysis over the MExpr AST (§4.2).

"The binding analysis uses the MExpr visitor API to traverse all scoping
constructs within the MExpr.  It then adds metadata to each variable and
links it to its binding expression.  Along the way, the MExpr is mutated and
all scoping constructs are desugared, nested scopes are flattened out, and
variables are renamed to avoid shadowing. ... Escape analysis is also
performed as part of the binding analysis."

Output: a body in which every ``Module``/``Block`` has been desugared into
plain assignments over uniquely named locals (initializers stay in place so
per-iteration semantics are preserved), ``With`` has been substituted away,
every bound-symbol occurrence is annotated with its binder, and variables
that escape into nested ``Function`` bodies are recorded for closure
conversion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import BindingError
from repro.mexpr.atoms import MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.symbols import S, head_name, is_head

_rename_counter = itertools.count(1)

#: the scoping constructs the analysis desugars or opens a scope for
SCOPING_HEADS = frozenset({"Module", "Block", "With", "Function"})


@dataclass
class BindingResult:
    body: MExpr
    #: every local introduced by parameters or (desugared) scoping constructs
    locals: list[str]
    #: locals referenced from inside nested Function bodies (escape analysis)
    escaped: set[str] = field(default_factory=set)
    #: map original name -> final name for the outermost binding of each
    renames: dict[str, str] = field(default_factory=dict)


class BindingAnalysis:
    """One analysis run over a function body."""

    def __init__(self, parameters: list[str]):
        self.parameters = list(parameters)
        self.locals: list[str] = []
        self.escaped: set[str] = set()
        self.renames: dict[str, str] = {}
        #: scope stack: list of {source name -> unique name}
        self._scopes: list[dict[str, str]] = [
            {name: name for name in parameters}
        ]
        self._used_names: set[str] = set(parameters)
        self._function_depth = 0
        #: function depth at which each unique name was introduced; a read
        #: at a deeper depth means the variable escapes into a closure
        self._binding_depth: dict[str, int] = {name: 0 for name in parameters}

    def run(self, body: MExpr) -> BindingResult:
        rewritten = self._walk(body)
        return BindingResult(
            body=rewritten,
            locals=self.locals,
            escaped=self.escaped,
            renames=self.renames,
        )

    # -- scope helpers -----------------------------------------------------------

    def _fresh(self, name: str) -> str:
        if name not in self._used_names:
            self._used_names.add(name)
            return name
        while True:
            candidate = f"{name}{next(_rename_counter)}"
            if candidate not in self._used_names:
                self._used_names.add(candidate)
                return candidate

    def _lookup(self, name: str) -> str | None:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    # -- traversal ----------------------------------------------------------------

    def _walk(self, node: MExpr) -> MExpr:
        if isinstance(node, MSymbol):
            bound = self._lookup(node.name)
            if bound is None:
                return node
            renamed = MSymbol(bound)
            renamed.set_property("binding", bound)
            if self._function_depth > self._binding_depth.get(bound, 0):
                self.escaped.add(bound)
            return renamed
        if node.is_atom():
            return node

        name = head_name(node)
        if name in ("Module", "Block") and len(node.args) == 2:
            return self._walk_module(node)
        if name == "With" and len(node.args) == 2:
            return self._walk_with(node)
        if name == "Function":
            return self._walk_function(node)
        if name == "Typed" and len(node.args) == 2:
            # the annotation operand is a type, not code
            return MExprNormal(node.head, [self._walk(node.args[0]), node.args[1]])
        new_head = self._walk(node.head)
        return MExprNormal(new_head, [self._walk(a) for a in node.args])

    def _walk_module(self, node: MExpr) -> MExpr:
        """Flatten a Module/Block: unique names + in-place initializers."""
        spec, body = node.args
        if not is_head(spec, "List"):
            raise BindingError(f"bad scoping specification {spec}")
        scope: dict[str, str] = {}
        statements: list[MExpr] = []
        for item in spec.args:
            if isinstance(item, MSymbol):
                source_name = item.name
                initializer = None
            elif is_head(item, "Set") and len(item.args) == 2 and isinstance(
                item.args[0], MSymbol
            ):
                source_name = item.args[0].name
                initializer = item.args[1]
            else:
                raise BindingError(f"bad scoped variable {item}")
            # initializers see the enclosing scope only
            rewritten_init = (
                self._walk(initializer) if initializer is not None else None
            )
            unique = self._fresh(source_name)
            scope[source_name] = unique
            self._binding_depth[unique] = self._function_depth
            self.locals.append(unique)
            self.renames.setdefault(source_name, unique)
            if rewritten_init is not None:
                statements.append(
                    MExprNormal(S.Set, [MSymbol(unique), rewritten_init])
                )
        self._scopes.append(scope)
        try:
            rewritten_body = self._walk(body)
        finally:
            self._scopes.pop()
        if not statements:
            return rewritten_body
        return MExprNormal(
            S.CompoundExpression, [*statements, rewritten_body]
        )

    def _walk_with(self, node: MExpr) -> MExpr:
        """``With``: substitute constant initializers into the body."""
        from repro.engine.patterns import substitute

        spec, body = node.args
        replacements: dict[str, MExpr] = {}
        for item in spec.args if is_head(spec, "List") else []:
            if is_head(item, "Set") and len(item.args) == 2 and isinstance(
                item.args[0], MSymbol
            ):
                replacements[item.args[0].name] = self._walk(item.args[1])
            else:
                raise BindingError(f"With variables need initializers: {item}")
        return self._walk(substitute(body, replacements))

    def _walk_function(self, node: MExpr) -> MExpr:
        """Nested Function: open a parameter scope, record escapes."""
        if len(node.args) == 1:
            self._function_depth += 1
            try:
                return MExprNormal(node.head, [self._walk(node.args[0])])
            finally:
                self._function_depth -= 1
        params, body = node.args[0], node.args[1]
        scope: dict[str, str] = {}
        items = params.args if is_head(params, "List") else [params]
        new_items = []
        for item in items:
            inner = item.args[0] if is_head(item, "Typed") else item
            if not isinstance(inner, MSymbol):
                raise BindingError(f"bad function parameter {item}")
            unique = self._fresh(inner.name)
            scope[inner.name] = unique
            self._binding_depth[unique] = self._function_depth + 1
            if is_head(item, "Typed"):
                new_items.append(
                    MExprNormal(item.head, [MSymbol(unique), item.args[1]])
                )
            else:
                new_items.append(MSymbol(unique))
        self._scopes.append(scope)
        self._function_depth += 1
        try:
            rewritten = self._walk(body)
        finally:
            self._function_depth -= 1
            self._scopes.pop()
        new_params = (
            MExprNormal(params.head, new_items)
            if is_head(params, "List")
            else new_items[0]
        )
        return MExprNormal(node.head, [new_params, rewritten])


def analyze_bindings(parameters: list[str], body: MExpr) -> BindingResult:
    """Run binding analysis on a function body."""
    return BindingAnalysis(parameters).run(body)
