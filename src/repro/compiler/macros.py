"""The hygienic macro system (§4.2).

"Macro substitution has two aims: to desugar high-level constructs to their
primitive forms and perform some always-safe AST-level optimizations.
Macros are evaluated in depth-first order and terminate when a fixed point
is reached."

Rules are ``lhs -> rhs`` patterns registered per head, matched in Wolfram
pattern-specificity order.  **Hygiene**: any symbol in a rule's rhs whose
name ends in ``$`` denotes a binder the macro introduces; each application
renames it to a fresh symbol, so macro-introduced variables can never
capture user variables (the key distinction from the engine's ordinary
substitution system).

Rules may be predicated on compile options via ``Conditioned`` (§4.7), e.g.
a CUDA-targeting ``Map`` rule that only fires when ``TargetSystem`` is CUDA.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.engine.patterns import match, pattern_specificity, substitute
from repro.errors import MacroExpansionError
from repro.mexpr.atoms import MInteger, MSymbol
from repro.mexpr.expr import MExpr, MExprNormal
from repro.mexpr.parser import parse
from repro.mexpr.symbols import head_name, is_head

_hygiene_counter = itertools.count(1)

#: expansion fuel: fixed-point iteration bound per subtree
_MAX_EXPANSIONS = 2_000


@dataclass
class MacroRule:
    lhs: MExpr
    rhs: MExpr
    #: optional predicate over the option dict (``Conditioned``, §4.7)
    condition: Optional[Callable[[dict], bool]] = None
    specificity: int = 0

    def __post_init__(self):
        self.specificity = pattern_specificity(self.lhs)


class MacroEnvironment:
    """An ordered registry of macro rules, chainable like type envs."""

    def __init__(self, parent: Optional["MacroEnvironment"] = None):
        self.parent = parent
        self._rules: dict[str, list[MacroRule]] = {}

    def register(self, head: str, *rules, condition=None) -> None:
        """``RegisterMacro[macroEnv, head, lhs1 -> rhs1, ...]``.

        Each rule is an MExpr ``Rule`` / ``RuleDelayed``, a string parsed as
        one, or an ``(lhs, rhs)`` pair.
        """
        bucket = self._rules.setdefault(head, [])
        for rule in rules:
            if isinstance(rule, str):
                rule = parse(rule)
            if isinstance(rule, tuple):
                lhs, rhs = rule
            elif is_head(rule, "Rule") or is_head(rule, "RuleDelayed"):
                lhs, rhs = rule.args
            else:
                raise MacroExpansionError(f"bad macro rule {rule}")
            bucket.append(MacroRule(lhs=lhs, rhs=rhs, condition=condition))
        bucket.sort(key=lambda r: r.specificity, reverse=True)

    def rules_for(self, head: str) -> list[MacroRule]:
        own = self._rules.get(head, [])
        if self.parent is not None:
            # child rules are consulted first (user overrides)
            return own + self.parent.rules_for(head)
        return list(own)

    def heads(self) -> set[str]:
        names = set(self._rules)
        if self.parent:
            names |= self.parent.heads()
        return names


def register_macro(environment: MacroEnvironment, head: str, *rules,
                   condition=None) -> None:
    """Functional form of ``RegisterMacro`` (§4.2's And example)."""
    environment.register(head, *rules, condition=condition)


class MacroExpander:
    def __init__(self, environment: MacroEnvironment,
                 options: Optional[dict] = None):
        self.environment = environment
        self.options = options or {}
        self._fuel = _MAX_EXPANSIONS
        #: subtrees this run has already brought to normal form, by object
        #: identity (the node is kept so its id stays its own).  What
        #: `_expand_once` returns is normal — its children are, and no rule
        #: matched it — so a rule's result is walked once, not once more
        #: per enclosing rule that fires.
        self._normal: dict[int, MExpr] = {}

    def expand(self, node: MExpr) -> MExpr:
        """Depth-first expansion to fixed point."""
        try:
            while True:
                expanded = self._expand_once(node)
                if expanded is node:
                    return expanded
                node = expanded
                self._spend()
        except RecursionError:
            raise MacroExpansionError(
                "macro expansion did not terminate (self-growing rule)"
            ) from None

    def _spend(self):
        self._fuel -= 1
        if self._fuel <= 0:
            raise MacroExpansionError("macro expansion did not terminate")

    def _expand_once(self, node: MExpr) -> MExpr:
        if node.is_atom() or id(node) in self._normal:
            return node
        expanded = self._rewrite(node)
        self._normal[id(expanded)] = expanded
        return expanded

    def _rewrite(self, node: MExpr) -> MExpr:
        # don't descend into held function bodies' parameter lists etc.;
        # expand head and arguments depth-first
        new_head = self._expand_once(node.head)
        new_args = [self._expand_once(a) for a in node.args]
        if new_head is not node.head or any(
            a is not b for a, b in zip(new_args, node.args)
        ):
            node = MExprNormal(new_head, new_args)

        # beta-reduce literal pure-function applications at AST level
        if is_head(node.head, "Function"):
            node = _beta_reduce(node.head, list(node.args))
            return self.expand(node)

        name = head_name(node)
        if name is None:
            return node
        for rule in self.environment.rules_for(name):
            if rule.condition is not None and not rule.condition(self.options):
                continue
            bindings = match(rule.lhs, node)
            if bindings is None:
                continue
            rhs = _hygienic_rename(rule.rhs)
            replaced = substitute(rhs, bindings)
            self._spend()
            return self.expand(replaced)
        return node


def _hygienic_rename(rhs: MExpr) -> MExpr:
    """Freshen every ``name$`` symbol the rule's rhs introduces."""
    fresh: dict[str, MExpr] = {}

    def walk(node: MExpr) -> MExpr:
        if isinstance(node, MSymbol):
            if node.name.endswith("$"):
                if node.name not in fresh:
                    fresh[node.name] = MSymbol(
                        f"{node.name}{next(_hygiene_counter)}"
                    )
                return fresh[node.name]
            return node
        if node.is_atom():
            return node
        return MExprNormal(walk(node.head), [walk(a) for a in node.args])

    return walk(rhs)


def inline_function_bindings(node: MExpr) -> MExpr:
    """Inline ``Module``-bound literal function values at their use sites.

    ``Module[{f = Function[...]}, ... f[x] ...]`` substitutes the lambda for
    ``f`` (when ``f`` is never reassigned), after which ordinary macro
    beta-reduction eliminates the application — the lightweight end of the
    closure conversion §4.3 alludes to.  Captured variables ride along via
    substitution, preserving lexical scoping.
    """
    if node.is_atom():
        return node
    node = MExprNormal(
        inline_function_bindings(node.head),
        [inline_function_bindings(a) for a in node.args],
    )
    if head_name(node) not in ("Module", "With") or len(node.args) != 2:
        return node
    spec, body = node.args
    if not is_head(spec, "List"):
        return node
    from repro.engine.patterns import substitute

    kept: list[MExpr] = []
    replacements: dict[str, MExpr] = {}
    for item in spec.args:
        if (
            is_head(item, "Set")
            and len(item.args) == 2
            and isinstance(item.args[0], MSymbol)
            and is_head(item.args[1], "Function")
            and not _is_assigned(body, item.args[0].name)
        ):
            replacements[item.args[0].name] = item.args[1]
        else:
            kept.append(item)
    if not replacements:
        return node
    new_body = inline_function_bindings(substitute(body, replacements))
    if not kept and head_name(node) == "Module":
        return new_body
    return MExprNormal(node.head, [MExprNormal(spec.head, kept), new_body])


def _is_assigned(body: MExpr, name: str) -> bool:
    for sub in body.subexpressions():
        if is_head(sub, "Set") and sub.args and isinstance(
            sub.args[0], MSymbol
        ) and sub.args[0].name == name:
            return True
    return False


def _beta_reduce(function: MExpr, arguments: list[MExpr]) -> MExpr:
    """AST-level application of a literal ``Function``."""
    fargs = function.args
    if len(fargs) == 1:
        return _fill_slots(fargs[0], arguments)
    params = fargs[0]
    names: list[str] = []
    items = params.args if is_head(params, "List") else [params]
    for item in items:
        if isinstance(item, MSymbol):
            names.append(item.name)
        elif is_head(item, "Typed") and isinstance(item.args[0], MSymbol):
            names.append(item.args[0].name)
        else:
            raise MacroExpansionError(f"bad function parameter {item}")
    if len(arguments) < len(names):
        raise MacroExpansionError(
            f"function expects {len(names)} arguments, got {len(arguments)}"
        )
    return substitute(fargs[1], dict(zip(names, arguments)))


#: heads the expander consumes itself: β-reduction fills a literal pure
#: function's ``Slot``s with the arguments it is applied to
STRUCTURAL_HEADS = frozenset({"Slot"})


def _fill_slots(body: MExpr, arguments: list[MExpr]) -> MExpr:
    if is_head(body, "Slot") and len(body.args) == 1 and isinstance(
        body.args[0], MInteger
    ):
        index = body.args[0].value
        if 1 <= index <= len(arguments):
            return arguments[index - 1]
        raise MacroExpansionError(f"slot #{index} cannot be filled")
    if body.is_atom():
        return body
    if is_head(body, "Function"):
        return body
    return MExprNormal(
        _fill_slots(body.head, arguments),
        [_fill_slots(a, arguments) for a in body.args],
    )


# -- the default macro environment -------------------------------------------------


def build_default_macro_environment() -> MacroEnvironment:
    env = MacroEnvironment()

    # §4.2's And macro, rule for rule (1: unary; 2/3: constant folds;
    # 4: skip True; 5: short-circuit to If; 6: n-ary to binary).
    register_macro(
        env, "And",
        "And[x_] -> SameQ[x, True]",
        "And[False, rest___] -> False",
        "And[x_, False] -> False",
        "And[True, rest__] -> And[rest]",
        "And[x_, y_] -> If[SameQ[x, True], SameQ[y, True], False]",
        "And[x_, y_, rest__] -> And[And[x, y], rest]",
    )
    register_macro(
        env, "Or",
        "Or[x_] -> SameQ[x, True]",
        "Or[True, rest___] -> True",
        "Or[x_, True] -> True",
        "Or[False, rest__] -> Or[rest]",
        "Or[x_, y_] -> If[SameQ[x, True], True, SameQ[y, True]]",
        "Or[x_, y_, rest__] -> Or[Or[x, y], rest]",
    )
    register_macro(env, "TrueQ", "TrueQ[x_] -> SameQ[x, True]")

    # n-ary comparison chains desugar through And (1 < x < 3)
    for comparison in ("Less", "Greater", "LessEqual", "GreaterEqual",
                       "Equal", "SameQ"):
        register_macro(
            env, comparison,
            f"{comparison}[a_, b_, rest__] -> "
            f"Module[{{mid$ = b}},"
            f" And[{comparison}[a, mid$], {comparison}[mid$, rest]]]",
        )

    # n-ary arithmetic to binary (left fold), plus always-safe identities
    register_macro(
        env, "Plus",
        "Plus[x_] -> x",
        "Plus[x_, y_, rest__] -> Plus[Plus[x, y], rest]",
    )
    register_macro(
        env, "Times",
        "Times[x_] -> x",
        "Times[x_, y_, rest__] -> Times[Times[x, y], rest]",
    )
    register_macro(env, "StringJoin",
                   "StringJoin[x_] -> x",
                   "StringJoin[x_, y_, rest__] -> StringJoin[StringJoin[x, y], rest]")
    # the parser emits a/b as Times[a, Power[b, -1]]; recover a true division
    register_macro(env, "Times",
                   "Times[x_, Power[y_, -1]] -> Divide[x, y]")

    # compound assignment operators desugar to Set
    register_macro(env, "AddTo", "AddTo[x_, v_] -> Set[x, Plus[x, v]]")
    register_macro(env, "SubtractFrom",
                   "SubtractFrom[x_, v_] -> Set[x, Plus[x, Times[-1, v]]]")
    register_macro(env, "TimesBy", "TimesBy[x_, v_] -> Set[x, Times[x, v]]")
    register_macro(env, "DivideBy",
                   "DivideBy[x_, v_] -> Set[x, Times[x, Power[v, -1]]]")
    register_macro(env, "PreIncrement",
                   "PreIncrement[x_] -> Set[x, Plus[x, 1]]")
    register_macro(env, "PreDecrement",
                   "PreDecrement[x_] -> Set[x, Plus[x, -1]]")
    register_macro(
        env, "Increment",
        "Increment[x_] -> Module[{old$ = x}, Set[x, Plus[x, 1]]; old$]",
    )
    register_macro(
        env, "Decrement",
        "Decrement[x_] -> Module[{old$ = x}, Set[x, Plus[x, -1]]; old$]",
    )

    # control-flow sugar
    register_macro(
        env, "Which",
        "Which[] -> Null",
        # a literal-True default clause closes the chain with a typed value
        "Which[True, value_, rest___] -> value",
        "Which[test_, value_, rest___] -> If[test, value, Which[rest]]",
    )

    # iteration constructs lower to explicit loops over tensor primitives;
    # `name$` binders are hygiene-renamed per expansion.  `Do` is a `For`,
    # so `Continue[]` runs the step; the other iterators' loops are
    # `Native`Iterate` (a `While` that refuses `Break[]` and `Continue[]`)
    register_macro(
        env, "Do",
        "Do[body_, {n_}] -> Do[body, {i$, 1, n}]",
        "Do[body_, {i_, n_}] -> Do[body, {i, 1, n}]",
        "Do[body_, {i_, a_, b_}] -> "
        "Module[{i = a, stop$ = b},"
        " For[Null, i <= stop$, Set[i, i + 1], body]; Null]",
        "Do[body_, {i_, a_, b_, step_}] -> "
        "Module[{i = a, stop$ = b, step$ = step},"
        " For[Null, i <= stop$, Set[i, i + step$], body]; Null]",
    )
    register_macro(
        env, "Table",
        "Table[body_, {n_}] -> Table[body, {i$, 1, n}]",
        "Table[body_, {i_, n_}] -> Table[body, {i, 1, n}]",
        # pattern variables used once each; `a` is let-bound since the
        # expansion needs it twice (hygienic binders carry the `$` suffix)
        "Table[body_, {i_, a_, b_}] -> "
        "Module[{lo$ = a},"
        " Module[{i = lo$, len$ = Max[b - lo$ + 1, 0], k$ = 1},"
        "  Module[{res$ = Native`CreateTensorUninit[len$]},"
        "   Native`Iterate[k$ <= len$,"
        "    Set[Part[res$, k$], body]; Set[i, i + 1]; Set[k$, k$ + 1]];"
        "   res$]]]",
        # a real-valued stepped iterator: the count and the values are the
        # interpreter's (floor((b - a)/step + 1*^-9) + 1 of them, a + k step)
        "Table[body_, {i_, a_, b_, step_}] -> "
        "Module[{lo$ = a, step$ = step},"
        " Module[{len$ = Max[IntegerPart[(b - lo$)/step$ + 1.*^-9] + 1, 0],"
        "         k$ = 1},"
        "  Module[{res$ = Native`CreateTensorUninit[len$]},"
        "   Native`Iterate[k$ <= len$,"
        "    Module[{i = lo$ + N[k$ - 1]*step$}, Set[Part[res$, k$], body]];"
        "    Set[k$, k$ + 1]];"
        "   res$]]]",
    )
    register_macro(
        env, "Sum",
        "Sum[body_, {i_, n_}] -> Sum[body, {i, 1, n}]",
        "Sum[body_, {i_, a_, b_}] -> "
        "Module[{i = a, stop$ = b, acc$ = 0},"
        " Native`Iterate[i <= stop$, Set[acc$, acc$ + body]; Set[i, i + 1]];"
        " acc$]",
    )
    register_macro(
        env, "Range",
        "Range[n_] -> Range[1, n]",
        "Range[a_, b_] -> Table[j$, {j$, a, b}]",
    )
    register_macro(
        env, "ConstantArray",
        "ConstantArray[v_, {n_}] -> Native`CreateTensor[n, v]",
        "ConstantArray[v_, n_] -> Native`CreateTensor[n, v]",
    )
    register_macro(
        env, "Map",
        "Map[f_, t_] -> "
        "Module[{t$ = t},"
        " Module[{len$ = Length[t$], k$ = 1},"
        "  Module[{res$ = Native`CreateTensorUninit[len$]},"
        "   Native`Iterate[k$ <= len$,"
        "    Set[Part[res$, k$], f[Part[t$, k$]]]; Set[k$, k$ + 1]];"
        "   res$]]]",
    )
    register_macro(
        env, "Fold",
        "Fold[f_, init_, t_] -> "
        "Module[{t$ = t},"
        " Module[{len$ = Length[t$], acc$ = init, k$ = 1},"
        "  Native`Iterate[k$ <= len$,"
        "   Set[acc$, f[acc$, Part[t$, k$]]]; Set[k$, k$ + 1]];"
        "  acc$]]",
        "Fold[f_, t_] -> "
        "Module[{t$ = t},"
        " Module[{len$ = Length[t$], acc$ = Part[t$, 1], k$ = 2},"
        "  Native`Iterate[k$ <= len$,"
        "   Set[acc$, f[acc$, Part[t$, k$]]]; Set[k$, k$ + 1]];"
        "  acc$]]",
    )
    register_macro(
        env, "Nest",
        "Nest[f_, x_, n_] -> "
        "Module[{cur$ = x, k$ = 1, stop$ = n},"
        " Native`Iterate[k$ <= stop$, Set[cur$, f[cur$]]; Set[k$, k$ + 1]];"
        " cur$]",
    )
    register_macro(
        env, "NestList",
        "NestList[f_, x_, n_] -> "
        "Module[{cur$ = x, k$ = 1, stop$ = n},"
        " Module[{res$ = Native`CreateTensorUninit[stop$ + 1]},"
        "  Set[Part[res$, 1], cur$];"
        "  Native`Iterate[k$ <= stop$,"
        "   Set[cur$, f[cur$]];"
        "   Set[Part[res$, k$ + 1], cur$]; Set[k$, k$ + 1]];"
        "  res$]]",
    )
    register_macro(
        env, "NestWhile",
        "NestWhile[f_, x_, test_] -> "
        "Module[{cur$ = x}, Native`Iterate[SameQ[test[cur$], True],"
        " Set[cur$, f[cur$]]]; cur$]",
    )
    register_macro(
        env, "FixedPoint",
        "FixedPoint[f_, x_] -> "
        "Module[{cur$ = x},"
        " Module[{next$ = f[cur$]},"
        "  Native`Iterate[Unequal[cur$, next$],"
        "   Set[cur$, next$]; Set[next$, f[cur$]]]; cur$]]",
    )
    register_macro(
        env, "Total",
        # rank-1 Total is a primitive; deeper Totals stay runtime calls
        "Total[t_, rest__] -> Total[t]",
    )
    register_macro(env, "Mean",
                   "Mean[t_] -> Module[{t$ = t},"
                   " Divide[N[Total[t$]], N[Length[t$]]]]")
    register_macro(
        env, "RandomReal",
        "RandomReal[] -> RandomReal[0.0, 1.0]",
        "RandomReal[{lo_, hi_}] -> RandomReal[lo, hi]",
        "RandomReal[hi_] -> RandomReal[0.0, hi]",
    )
    register_macro(
        env, "RandomInteger",
        "RandomInteger[] -> RandomInteger[0, 1]",
        "RandomInteger[{lo_, hi_}] -> RandomInteger[lo, hi]",
        "RandomInteger[hi_] -> RandomInteger[0, hi]",
    )

    # always-safe AST-level arithmetic identities (§4.2's second aim)
    register_macro(
        env, "Power",
        "Power[x_, 1] -> x",
        "Power[E, x_] -> Exp[x]",
        # squaring by multiplication: x*x beats pow() on every backend
        "Power[x_, 2] -> Module[{x$ = x}, Times[x$, x$]]",
    )

    # First/Last/Rest-style accessors in terms of Part
    register_macro(env, "First", "First[t_] -> Part[t, 1]")
    register_macro(env, "Last", "Last[t_] -> Part[t, -1]")

    # structural-product projections dispatch by literal index (§4.4)
    register_macro(
        env, "Native`Projection",
        "Native`Projection[p_, 1] -> Native`Projection1[p]",
        "Native`Projection[p_, 2] -> Native`Projection2[p]",
        "Native`Projection[p_, 3] -> Native`Projection3[p]",
    )

    return env


_DEFAULT_MACRO_ENV: MacroEnvironment | None = None


def default_macro_environment() -> MacroEnvironment:
    global _DEFAULT_MACRO_ENV
    if _DEFAULT_MACRO_ENV is None:
        _DEFAULT_MACRO_ENV = build_default_macro_environment()
    return _DEFAULT_MACRO_ENV
