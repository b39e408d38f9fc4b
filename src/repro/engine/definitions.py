"""Kernel state: per-symbol definitions (OwnValues, DownValues, attributes).

A symbol's ``OwnValues`` hold its value binding (``x = 5``); its
``DownValues`` hold rewrite rules for expressions headed by the symbol
(``f[x_] := x^2``) — the same two stores the Wolfram Engine uses (§2.1
footnote 2).

A :class:`Definition` keeps its DownValues in two parts, as the Wolfram
Engine does.  **Facts** — rules whose lhs has no pattern construct at any
depth, under a head without ``Orderless``, ``Flat`` or ``OneIdentity`` —
live in a dict keyed by the lhs arguments: a memo write such as
``mfib[n] = ...`` is one walk of its lhs and one dict store, and a call
that names a fact is one hash probe.  **Pattern rules** stay in an ordered
list (most specific first, definition order among equals), and only they
are covered by the :class:`DownValueIndex`, which discriminates by arity
and by a literal first argument and falls back to the ordered scan for
general patterns.  The index is a pure cache: candidate selection only
ever *excludes* rules that provably cannot match, and yields candidates in
rule order.  It is rebuilt only when a pattern rule changes — a fact write
bumps ``rules_version`` and leaves it alone.

Both parts share one dispatch order: every rule carries its specificity
and the stamp of its first definition, and a fact answers a call unless a
pattern rule that may match outranks it (higher specificity, or equal and
defined earlier), in which case the call takes the ordered scan with the
fact at its rank.  :attr:`Definition.down_values` is the one ordered view
over both parts, for every reader that needs the whole rule list.

:class:`KernelState` optionally starts from an immutable shared *base*
mapping, referenced entry by entry and copied on first write (see the class
docstring) — the copy-on-write split the multi-tenant server
(:mod:`repro.server`) builds its session isolation on.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional

from repro.engine.attributes import FLAT, ONE_IDENTITY, ORDERLESS
from repro.engine.patterns import pattern_specificity
from repro.mexpr.atoms import MSymbol
from repro.mexpr.expr import MExpr
from repro.observe import trace as _trace

#: heads introducing pattern semantics; a subtree containing none of these
#: matches only by structural equality (see ``patterns._match_one``)
_PATTERN_HEADS = frozenset({
    "Pattern",
    "Blank",
    "BlankSequence",
    "BlankNullSequence",
    "Alternatives",
    "Condition",
    "PatternTest",
    "HoldPattern",
})

#: a head with any of these keeps its pattern-free rules in the ordered
#: list: its calls are not compared with an lhs by plain equality
_NO_FACTS = frozenset({ORDERLESS, FLAT, ONE_IDENTITY})


def _takes_facts(attributes: frozenset[str]) -> bool:
    return attributes.isdisjoint(_NO_FACTS)


def _literal_weight(node: MExpr) -> Optional[int]:
    """``pattern_specificity(node)`` when ``node`` contains no pattern
    construct at any depth (4 per node), else ``None``."""
    nodes = 0
    stack = [node]
    while stack:
        node = stack.pop()
        nodes += 1
        if not node.is_atom():
            head = node.head
            if isinstance(head, MSymbol) and head.name in _PATTERN_HEADS:
                return None
            stack.append(head)
            stack.extend(node.args)
    return 4 * nodes


def _fact_weight(definition: "Definition", lhs: MExpr) -> Optional[int]:
    """The specificity of ``lhs`` when its rule is a fact of
    ``definition`` (see the module docstring), else ``None``."""
    if not _takes_facts(definition.attributes):
        return None
    head = lhs.head
    if not isinstance(head, MSymbol) or head.name != definition.name:
        return None
    return _literal_weight(lhs)


@dataclass
class DownValue:
    """One rewrite rule ``lhs :> rhs`` attached to a symbol."""

    lhs: MExpr
    rhs: MExpr
    #: ``True`` for ``:=`` (rhs held until the rule fires), ``False`` for ``=``
    delayed: bool = True
    #: memoized ``pattern_specificity(lhs)`` (the lhs never mutates, so the
    #: score never changes)
    specificity: Optional[int] = field(default=None, compare=False, repr=False)
    #: definition order: stamped when the lhs is first defined and kept by
    #: a redefinition, so ``(-specificity, order)`` is the rule's rank
    order: int = field(default=0, compare=False, repr=False)


def _specificity(down_value: DownValue) -> int:
    if down_value.specificity is None:
        down_value.specificity = pattern_specificity(down_value.lhs)
    return down_value.specificity


def _rank(down_value: DownValue) -> tuple[int, int]:
    return -_specificity(down_value), down_value.order


#: process-wide source of :attr:`DownValue.order` stamps
_rule_orders = itertools.count(1)


class DownValueIndex:
    """Arity / literal-first-argument discrimination over one rule list."""

    __slots__ = ("source", "length", "_by_literal", "_by_arity", "_general")

    def __init__(self, down_values: list[DownValue]):
        from repro.engine.patterns import _is_sequence_pattern

        #: the exact list object indexed, for staleness detection
        self.source = down_values
        self.length = len(down_values)
        self._by_literal: dict[tuple, list[tuple[int, DownValue]]] = {}
        self._by_arity: dict[int, list[tuple[int, DownValue]]] = {}
        #: rules that must be tried at every arity: sequence patterns,
        #: HoldPattern/Condition-wrapped lhs, non-symbol heads
        self._general: list[tuple[int, DownValue]] = []
        for position, down_value in enumerate(down_values):
            entry = (position, down_value)
            lhs = down_value.lhs
            head = lhs.head if not lhs.is_atom() else None
            if (
                lhs.is_atom()
                or not isinstance(head, MSymbol)
                or head.name in _PATTERN_HEADS
                or any(_is_sequence_pattern(a) for a in lhs.args)
            ):
                self._general.append(entry)
                continue
            arity = len(lhs.args)
            if lhs.args and _literal_weight(lhs.args[0]) is not None:
                key = (arity, lhs.args[0].structure_key())
                self._by_literal.setdefault(key, []).append(entry)
            else:
                self._by_arity.setdefault(arity, []).append(entry)

    def candidates(
        self, expression: MExpr, tally: Optional[dict] = None
    ) -> Iterator[DownValue]:
        """Rules that may match ``expression``, in original rule order.

        While tracing, ``tally`` (the evaluator's counter dict) counts
        the lookup: a hit when literal first-argument discrimination found
        a bucket, a miss when it fell through to the arity/general
        candidates.
        """
        args = expression.args
        arity = len(args)
        # the first argument's structure key is a walk of the whole
        # argument when it was just built: take it only when a rule needs it
        literal = (
            self._by_literal.get((arity, args[0].structure_key()), ())
            if args and self._by_literal
            else ()
        )
        fixed = self._by_arity.get(arity, ())
        general = self._general
        if tally is not None and _trace.TRACER is not None:
            if literal:
                tally["eval.dispatch_index.hits"] += 1
            else:
                tally["eval.dispatch_index.misses"] += 1
        # fast paths: at most one non-empty bucket needs no position merge
        if not general:
            if not fixed:
                return (entry[1] for entry in literal)
            if not literal:
                return (entry[1] for entry in fixed)
        elif not fixed and not literal:
            return (entry[1] for entry in general)
        merged = sorted(
            (*literal, *fixed, *general), key=lambda entry: entry[0]
        )
        return (entry[1] for entry in merged)


#: process-wide source of :attr:`Definition.rules_version` stamps
_rules_versions = itertools.count(1)


@dataclass
class Definition:
    """Everything the kernel knows about one symbol."""

    name: str
    own_value: Optional[MExpr] = None
    #: present ≠ has value: ``x=Null`` stores Null, unset stores nothing
    has_own_value: bool = False
    #: the rules with a pattern construct, in rank order — what the
    #: :class:`DownValueIndex` covers
    patterns: list[DownValue] = field(default_factory=list)
    #: the pattern-free rules, ``lhs.args -> rule`` (the lhs head is this
    #: symbol): a call naming one is a hash probe
    facts: dict[tuple, DownValue] = field(default_factory=dict)
    attributes: frozenset[str] = frozenset()
    _index: Optional[DownValueIndex] = field(
        default=None, compare=False, repr=False
    )
    #: ``(list indexed, lhs -> rule)``; see :meth:`rules_by_lhs`
    _by_lhs: Optional[tuple[list, dict]] = field(
        default=None, compare=False, repr=False
    )
    #: names the current contents of the rules: every write to either part
    #: (a rule added or replaced, ``Clear``, a ``Block`` entry or restore)
    #: and every copy of the definition takes a stamp no other rule set in
    #: the process ever had, so "same rules as when I looked" is one
    #: integer comparison (the hotspot profiler's validity test)
    rules_version: int = field(
        default_factory=_rules_versions.__next__, compare=False, repr=False
    )

    @property
    def down_values(self) -> list[DownValue]:
        """Every rule, facts and patterns, in dispatch order (a new list:
        the one view for readers of the whole rule set)."""
        if not self.facts:
            return list(self.patterns)
        return sorted([*self.patterns, *self.facts.values()], key=_rank)

    def rule_count(self) -> int:
        return len(self.patterns) + len(self.facts)

    def clear_values(self) -> None:
        self.own_value = None
        self.has_own_value = False
        # an empty part is kept, not replaced: ``bind`` runs this on every
        # iteration of a ``Table``/``Do``, whose iterator has no rules
        if self.patterns:
            self.patterns = []
        if self.facts:
            self.facts = {}
        self.invalidate_index()

    def invalidate_index(self) -> None:
        """A pattern rule was written (every such writer calls this)."""
        self._index = None
        self.rules_version = next(_rules_versions)

    def bind(self, value: Optional[MExpr]) -> None:
        """``Block``'s rebinding: no rules, and ``value`` (if any) as the
        OwnValue.  The caller owns the ``state_version`` bump."""
        self.clear_values()
        if value is not None:
            self.own_value = value
            self.has_own_value = True

    def restore_values(self, saved: "Definition") -> None:
        """Put back what :meth:`snapshot` saved (``Block`` exit)."""
        self.own_value = saved.own_value
        self.has_own_value = saved.has_own_value
        self.patterns = saved.patterns
        self.facts = saved.facts
        self.invalidate_index()
        if _takes_facts(saved.attributes) != _takes_facts(self.attributes):
            self.repartition()  # the attributes changed inside the Block

    def repartition(self) -> None:
        """Put every rule in the part the current attributes call for
        (after an attribute change); each keeps its rank."""
        rules = self.down_values
        self.patterns, self.facts = [], {}
        for rule in rules:
            if _fact_weight(self, rule.lhs) is None:
                self.patterns.append(rule)
            else:
                self.facts[rule.lhs.args] = rule
        self.invalidate_index()

    def rules_by_lhs(self) -> dict[MExpr, DownValue]:
        """``lhs -> rule`` over ``patterns`` (an lhs occurs at most once),
        so a definition finds the rule it replaces by one hash lookup.
        Rebuilt when another list object was swapped in (``Block``
        restore, ``Clear``); :meth:`add_pattern`, the only in-place
        writer, keeps it current."""
        cached = self._by_lhs
        if cached is None or cached[0] is not self.patterns:
            cached = self._by_lhs = (
                self.patterns, {dv.lhs: dv for dv in self.patterns}
            )
        return cached[1]

    def add_fact(self, down_value: DownValue, weight: int) -> None:
        """Store a fact of specificity ``weight``: one dict store, and the
        pattern index stays as it is."""
        key = down_value.lhs.args
        existing = self.facts.get(key)
        down_value.specificity = weight
        down_value.order = (
            next(_rule_orders) if existing is None else existing.order
        )
        self.facts[key] = down_value
        self.rules_version = next(_rules_versions)

    def add_pattern(self, down_value: DownValue) -> None:
        """Store a pattern rule at its rank; a later identical lhs replaces
        an earlier one in place, as in Wolfram."""
        rules, by_lhs = self.patterns, self.rules_by_lhs()
        existing = by_lhs.get(down_value.lhs)
        if existing is not None:
            down_value.specificity = existing.specificity
            down_value.order = existing.order
            position = next(
                i for i, rule in enumerate(rules) if rule is existing
            )
            rules[position] = down_value
        else:
            # more specific rules first (Wolfram pattern ordering, §4.2),
            # definition order among equals: after the last rule that is
            # at least as specific
            score = _specificity(down_value)
            down_value.order = next(_rule_orders)
            rules.insert(
                bisect.bisect_right(
                    rules, -score, key=lambda rule: -rule.specificity,
                ),
                down_value,
            )
        by_lhs[down_value.lhs] = down_value
        self.invalidate_index()

    def ahead_of(
        self, fact: DownValue, expression: MExpr
    ) -> Iterable[DownValue]:
        """The pattern rules that may match ``expression`` and outrank
        ``fact``, in rule order: usually none, decided by comparing with
        the top-ranked pattern rule alone."""
        patterns = self.patterns
        if not patterns:
            return ()
        top = patterns[0]
        if fact.specificity > top.specificity or (
            fact.specificity == top.specificity and fact.order < top.order
        ):
            return ()
        rank = _rank(fact)
        return itertools.takewhile(
            lambda rule: _rank(rule) < rank,
            self.dispatch_index().candidates(expression),
        )

    def dispatch_index(self) -> DownValueIndex:
        """The (lazily rebuilt) dispatch index over ``patterns``.

        Staleness is detected by list-object identity and length: ``Block``
        restores a snapshot by assigning a fresh list, and every in-place
        mutation path calls :meth:`invalidate_index` explicitly.
        """
        index = self._index
        if (
            index is None
            or index.source is not self.patterns
            or index.length != len(self.patterns)
        ):
            index = self._index = DownValueIndex(self.patterns)
        return index

    def snapshot(self) -> "Definition":
        """A shallow copy used by ``Block`` to save and restore state."""
        return Definition(
            name=self.name,
            own_value=self.own_value,
            has_own_value=self.has_own_value,
            patterns=list(self.patterns),
            facts=dict(self.facts),
            attributes=self.attributes,
        )


#: distance between the version ranges handed to sessions sharing a base
#: layer; one session would need a million definition changes to walk into
#: its neighbour's range
_VERSION_STRIDE = 1 << 20

_version_slots = itertools.count(1)


class KernelState:
    """The mutable symbol table of one interpreter session.

    ``state_version`` is bumped on every definition change; evaluated-result
    caching in the evaluator is keyed on it, so assignments correctly
    invalidate previously "fully evaluated" subtrees.

    A state may be layered over an immutable shared **base** (``base=``, a
    read-only ``name -> Definition`` mapping produced by :meth:`freeze`).
    The session's table is still one dict: the base's entries are copied
    into it *by reference* when the state is built, so ``lookup`` is the
    dict's own ``get`` at every layer.  Every mutation path funnels through
    :meth:`definition`, which replaces a shared entry with its
    ``snapshot()`` on first write (copy-on-write) and records it in the
    **overlay**.  Base ``Definition`` objects are therefore never mutated by
    a session — the only write that ever lands on them is the idempotent
    lazy ``_index`` cache, which any racer rebuilds to an identical value —
    so thousands of sessions can share one warmed image of builtins,
    attribute sets, and dispatch indexes.

    Sessions over a base also take **disjoint ``state_version`` ranges**:
    evaluated-subtree stamps (``$evalv``) live on the ``MExpr`` nodes
    themselves, and base-image expressions are shared across sessions — if
    two sessions counted versions from the same origin, a stamp written by
    one could read as "fully evaluated" in the other despite their overlays
    differing.
    """

    def __init__(self, base: Optional[Mapping[str, Definition]] = None):
        #: every definition this session sees: the base's entries by
        #: reference until written, then the session's own copies
        self._definitions: dict[str, Definition] = (
            {} if base is None else dict(base)
        )
        #: the entries this session owns (written or created); the same
        #: dict as ``_definitions`` when there is no base
        self._overlay: dict[str, Definition] = (
            self._definitions if base is None else {}
        )
        #: the immutable shared layer; ``None`` for a plain standalone state
        self._base = base
        # ``lookup`` *is* the dict's own ``get``: the evaluator asks for
        # every symbol it meets, and a C method costs it no Python frame
        self.lookup = self._definitions.get
        self.state_version = (
            0 if base is None else next(_version_slots) * _VERSION_STRIDE
        )
        #: bumped by :meth:`set_attributes`, the only writer of an
        #: attribute set; what the evaluator's per-head plans are keyed on
        self.attributes_version = 0
        self._module_counter = 0

    def definition(self, name: str) -> Definition:
        existing = self._overlay.get(name)
        if existing is None:
            shared = self._definitions.get(name)
            # copy-on-write: the caller holds a mutation intent, so the
            # shared entry must never be handed out directly
            existing = (
                shared.snapshot() if shared is not None
                else Definition(name=name)
            )
            self._overlay[name] = self._definitions[name] = existing
        return existing

    # -- base/overlay layering ----------------------------------------------

    def freeze(self) -> Mapping[str, Definition]:
        """A read-only view of this state's definitions, usable as the
        ``base`` layer of overlay sessions.

        The caller promises not to mutate the frozen state afterwards
        (:class:`repro.server.base.BaseImage` enforces this by discarding
        the warming session once frozen).  Dispatch indexes are pre-built so
        overlay sessions share them instead of each paying the first-call
        rebuild, and no session's call writes a lazy cache on a shared
        definition afterwards.
        """
        for definition in self._definitions.values():
            if definition.rule_count():
                definition.dispatch_index()
        return MappingProxyType(dict(self._definitions))

    @property
    def base(self) -> Optional[Mapping[str, Definition]]:
        return self._base

    def overlay_size(self) -> int:
        """Number of definitions this session has written over the base."""
        return len(self._overlay)

    def overlay_names(self) -> list[str]:
        return list(self._overlay)

    def touch(self) -> None:
        self.state_version += 1

    def set_own_value(self, name: str, value: MExpr) -> None:
        definition = self.definition(name)
        definition.own_value = value
        definition.has_own_value = True
        self.touch()

    def clear(self, name: str) -> None:
        if self._definitions.get(name) is None:
            return  # nothing to clear at either layer
        # goes through definition() so clearing a base-layer symbol writes
        # an emptied overlay entry instead of touching the shared base
        self.definition(name).clear_values()
        self.touch()

    def add_down_value(self, name: str, down_value: DownValue) -> None:
        definition = self.definition(name)
        weight = _fact_weight(definition, down_value.lhs)
        if weight is None:
            definition.add_pattern(down_value)
        else:
            definition.add_fact(down_value, weight)
        self.touch()

    def set_attributes(self, name: str, attributes: frozenset[str]) -> None:
        definition = self.definition(name)
        attributes = frozenset(attributes)
        regroup = _takes_facts(definition.attributes) != \
            _takes_facts(attributes)
        definition.attributes = attributes
        if regroup:
            definition.repartition()
        self.attributes_version += 1
        self.touch()

    def fresh_module_suffix(self) -> int:
        self._module_counter += 1
        return self._module_counter
