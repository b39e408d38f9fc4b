"""Constraint-based type inference over the WIR (§4.4).

Phase 1 traverses the IR generating constraints:

* ``EqualityConstraint[a, b]`` — the types must unify;
* ``AlternativeConstraint[a, {b1, b2, ...}]`` — a call must match one of the
  callee's (instantiated) overloads;
* ``InstantiateConstraint`` / ``GeneralizeConstraint`` — polymorphic
  instantiation obligations, represented here by the fresh-variable
  instantiation each alternative carries plus its class-qualifier
  obligations.

Phase 2 solves them: constraints whose free variables overlap form one
group of the constraint graph; equality constraints unify eagerly; alternative
constraints are retried as their neighbourhood becomes ground, committing
when exactly one candidate survives or when the candidate ordering (§4.4,
[58, 74]) yields a unique minimum.  An unresolvable ordering raises
:class:`AmbiguousTypeError`; an empty candidate set raises
:class:`TypeInferenceError` with the source expression attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.compiler.types.environment import TypeEnvironment
from repro.compiler.types.specifier import (
    CompoundType,
    FunctionType,
    Type,
    TypeLiteral,
    TypeVariable,
    fresh_type_variable,
    instantiate,
    ty,
)
from repro.compiler.types.unify import Substitution, unifiable, unify
from repro.compiler.wir.function_module import FunctionModule
from repro.compiler.wir.instructions import (
    BranchInstr,
    BuildListInstr,
    CallIndirectInstr,
    CallInstr,
    CallFunctionInstr,
    CallPrimitiveInstr,
    ConstantInstr,
    CopyInstr,
    FunctionRef,
    KernelCallInstr,
    LoadArgumentInstr,
    MemoryAcquireInstr,
    MemoryReleaseInstr,
    PhiInstr,
    ReturnInstr,
    Value,
)
from repro.errors import TypeInferenceError
from repro.mexpr.printer import input_form


@dataclass
class EqualityConstraint:
    left: Type
    right: Type
    source: object = None


@dataclass
class CallConstraint:
    """AlternativeConstraint over a callee's overload set."""

    instruction: CallInstr
    operand_types: list[Type]
    result_type: Type
    resolved: bool = False


@dataclass
class IndirectCallConstraint:
    instruction: CallIndirectInstr


@dataclass
class BuildListConstraint:
    instruction: BuildListInstr


class TypeInference:
    """Infers a type for every SSA value in a function module."""

    def __init__(self, environment: TypeEnvironment,
                 self_name: Optional[str] = None,
                 self_type: Optional[FunctionType] = None):
        self.environment = environment
        self.substitution = Substitution()
        self.self_name = self_name
        self.self_type = self_type
        self._value_types: dict[int, Type] = {}
        self._call_constraints: list[CallConstraint] = []
        self._deferred: list = []
        self._function_refs: list[ConstantInstr] = []

    # -- phase 1: constraint generation ---------------------------------------------

    def type_of(self, value: Value) -> Type:
        existing = self._value_types.get(value.id)
        if existing is None:
            existing = fresh_type_variable(value.hint or "v")
            self._value_types[value.id] = existing
            if value.type is not None:
                unify(existing, value.type, self.substitution)
        return existing

    def run(self, function: FunctionModule) -> None:
        bool_type = ty("Boolean")
        return_type: Type = (
            self.self_type.result if self.self_type else fresh_type_variable("ret")
        )
        if self.self_type is not None:
            for parameter, declared in zip(function.parameters,
                                           self.self_type.params):
                unify(self.type_of(parameter), declared, self.substitution)

        for block in function.ordered_blocks():
            for instruction in block.all_instructions():
                self._generate(instruction, bool_type, return_type)

        self._solve()
        self._apply(function, return_type)

    def _generate(self, instruction, bool_type: Type, return_type: Type) -> None:
        if isinstance(instruction, ConstantInstr):
            result = self.type_of(instruction.result)
            if isinstance(instruction.value, FunctionRef):
                # the reference's type must match one of the named
                # function's overloads (an AlternativeConstraint)
                self._function_refs.append(instruction)
                return
            if instruction.result.type is not None:
                unify(result, instruction.result.type, self.substitution)
            return
        if isinstance(instruction, LoadArgumentInstr):
            self.type_of(instruction.result)
            return
        if isinstance(instruction, PhiInstr):
            result = self.type_of(instruction.result)
            for _, value in instruction.incoming:
                self._unify_soft(result, self.type_of(value), instruction)
            return
        if isinstance(instruction, CopyInstr):
            unify(
                self.type_of(instruction.result),
                self.type_of(instruction.operands[0]),
                self.substitution,
            )
            return
        if isinstance(instruction, CallInstr):
            self._call_constraints.append(
                CallConstraint(
                    instruction=instruction,
                    operand_types=[self.type_of(v) for v in instruction.operands],
                    result_type=self.type_of(instruction.result),
                )
            )
            return
        if isinstance(instruction, CallPrimitiveInstr) or isinstance(
            instruction, CallFunctionInstr
        ):
            # already resolved (re-inference after inlining); types intact
            for operand in instruction.operands:
                self.type_of(operand)
            self.type_of(instruction.result)
            return
        if isinstance(instruction, CallIndirectInstr):
            callee, *arguments = instruction.operands
            callee_type = FunctionType(
                tuple(self.type_of(a) for a in arguments),
                self.type_of(instruction.result),
            )
            self._unify_soft(self.type_of(callee), callee_type, instruction)
            return
        if isinstance(instruction, BuildListInstr):
            self._deferred.append(BuildListConstraint(instruction))
            for operand in instruction.operands:
                self.type_of(operand)
            self.type_of(instruction.result)
            return
        if isinstance(instruction, KernelCallInstr):
            declared = instruction.properties.get("result_type") or ty(
                "Expression"
            )
            unify(self.type_of(instruction.result), declared,
                  self.substitution)
            return
        if isinstance(instruction, BranchInstr):
            self._unify_soft(
                self.type_of(instruction.condition), bool_type, instruction
            )
            return
        if isinstance(instruction, ReturnInstr):
            if instruction.value is not None:
                self._unify_soft(
                    self.type_of(instruction.value), return_type, instruction
                )
            return
        if isinstance(instruction, (MemoryAcquireInstr, MemoryReleaseInstr)):
            return

    def _unify_soft(self, a: Type, b: Type, instruction) -> None:
        try:
            unify(a, b, self.substitution)
        except TypeInferenceError as error:
            raise TypeInferenceError(
                f"{error} in `{_source_of(instruction)}`"
            ) from None

    # -- phase 2: solving ---------------------------------------------------------------

    def _solve(self) -> None:
        """Iterate the constraint graph until no alternative makes progress."""
        pending = list(self._call_constraints)
        lists_pending = list(self._deferred)
        for _ in range(len(pending) + len(lists_pending) + 8):
            if not pending and not lists_pending:
                break
            progressed = False
            # structural list constraints first: literal lists ground quickly
            # and anchor the overload choices of the calls that consume them
            still_lists = []
            for deferred in lists_pending:
                if self._build_list_ready(deferred):
                    self._resolve_build_list(deferred)
                    progressed = True
                else:
                    still_lists.append(deferred)
            lists_pending = still_lists

            ordered = self._solve_order(pending)
            still_pending = []
            for constraint in ordered:
                if self._try_resolve_call(constraint, commit_unique=True):
                    progressed = True
                else:
                    still_pending.append(constraint)
            pending = still_pending
            if not progressed:
                # force resolution in graph order with the ordering rules
                for constraint in list(pending):
                    if self._try_resolve_call(constraint, commit_unique=False):
                        pending.remove(constraint)
                        progressed = True
                        break
                if not progressed and lists_pending:
                    self._resolve_build_list(lists_pending.pop(0))
                    progressed = True
                if not progressed:
                    break
        for constraint in pending:
            self._try_resolve_call(constraint, commit_unique=False)
        for deferred in lists_pending:
            self._resolve_build_list(deferred)
        for reference in self._function_refs:
            self._resolve_function_ref_type(reference)

    def _resolve_function_ref_type(self, instruction: ConstantInstr) -> None:
        """Ground a function value's type against the callee's overloads."""
        reference: FunctionRef = instruction.value
        variable = self.type_of(instruction.result)
        resolved = self.substitution.resolve(variable)
        if not resolved.free_variables():
            return
        declarations = self.environment.declarations(reference.name)
        viable = []
        for declaration in declarations:
            instantiated, _obligations = instantiate(declaration.type)
            probe = self.substitution.copy()
            if unifiable(instantiated, resolved, probe):
                viable.append((declaration.order, instantiated))
        if not viable:
            raise TypeInferenceError(
                f"{reference.name} used as a function value has no overload "
                f"matching {resolved}"
            )
        viable.sort(key=lambda item: -item[0])  # later declarations win
        self._unify_soft(viable[0][1], variable, instruction)

    def _build_list_ready(self, deferred: BuildListConstraint) -> bool:
        return all(
            not self.substitution.resolve(self.type_of(v)).free_variables()
            for v in deferred.instruction.operands
        )

    def _solve_order(self, constraints):
        """Constraints whose free variables overlap (directly or through a
        chain of others) are solved together, the substitution applied
        iteratively per group (§4.4): groups in order of their first
        constraint, and within a group the most-ground constraints first,
        otherwise in program order."""
        group = list(range(len(constraints)))  # union-find parents

        def find(index: int) -> int:
            while group[index] != index:
                group[index] = index = group[group[index]]
            return index

        first_owner: dict[str, int] = {}
        for index, constraint in enumerate(constraints):
            for operand_type in (*constraint.operand_types,
                                 constraint.result_type):
                for name in self.substitution.resolve(
                    operand_type
                ).free_variables():
                    owner = find(first_owner.setdefault(name, index))
                    if owner != index:
                        group[find(index)] = owner
        members: dict[int, list[int]] = {}
        for index in range(len(constraints)):
            members.setdefault(find(index), []).append(index)
        order = []
        for indices in members.values():
            indices.sort(key=lambda i: self._groundness(constraints[i]),
                         reverse=True)
            order.extend(constraints[i] for i in indices)
        return order

    def _groundness(self, constraint: CallConstraint) -> int:
        return sum(
            1
            for operand_type in constraint.operand_types
            if not self.substitution.resolve(operand_type).free_variables()
        )

    def _try_resolve_call(self, constraint: CallConstraint,
                          commit_unique: bool) -> bool:
        instruction = constraint.instruction
        name = instruction.callee
        operand_types = [
            self.substitution.resolve(t) for t in constraint.operand_types
        ]
        declarations = self.environment.declarations(name)
        if not declarations:
            return self._try_self_call(constraint, operand_types)

        ground_enough = all(
            not t.free_variables() for t in operand_types
        )
        shared = (
            self.environment.ground_candidates(name, operand_types)
            if ground_enough else None
        )
        if shared is not None:
            # variable-free overloads, ranked once per environment: only
            # the result type still has to fit this call site
            viable = [
                candidate for candidate in shared
                if unifiable(candidate.function_type.result,
                             constraint.result_type, self.substitution)
            ]
        else:
            viable = self.environment.candidates(
                declarations, operand_types, self.substitution,
                constraint.result_type,
            )
        if not viable:
            raise TypeInferenceError(
                f"no matching definition for {name}"
                f"({', '.join(map(str, operand_types))}) "
                f"in `{_source_of(instruction)}`"
            )
        best = viable[0]
        is_unique = len(viable) == 1 or not best.ties(viable[1])
        if not (is_unique or ground_enough):
            if commit_unique:
                return False
        # commit: unify for real against the main substitution
        instantiated = best.function_type
        for param, argument in zip(instantiated.params,
                                   constraint.operand_types):
            resolved_arg = self.substitution.resolve(argument)
            if unifiable(param, resolved_arg, self.substitution):
                unify(param, resolved_arg, self.substitution)
        self._unify_soft(instantiated.result, constraint.result_type,
                         instruction)
        constraint.resolved = True
        return True

    def _try_self_call(self, constraint: CallConstraint,
                       operand_types: list[Type]) -> bool:
        """An unknown callee matching our own shape is a self-recursive call
        (the paper's ``cfib`` pattern); otherwise it is a type error.  A
        function the interpreter defines is never the one being compiled:
        the compiler only lacks an implementation of it."""
        from repro.engine.builtins import registry

        instruction = constraint.instruction
        if instruction.callee in registry():
            raise TypeInferenceError(
                f"no compiled implementation of {instruction.callee}"
                f"({', '.join(map(str, operand_types))}) "
                f"in `{_source_of(instruction)}`"
            )
        if self.self_type is not None and len(operand_types) == len(
            self.self_type.params
        ):
            for param, argument in zip(self.self_type.params,
                                       constraint.operand_types):
                self._unify_soft(param, argument, instruction)
            self._unify_soft(self.self_type.result, constraint.result_type,
                             instruction)
            instruction.properties["self_recursive"] = True
            constraint.resolved = True
            return True
        raise TypeInferenceError(
            f"unknown function {instruction.callee} "
            f"in `{_source_of(instruction)}`"
        )

    def _resolve_build_list(self, deferred: BuildListConstraint) -> None:
        instruction = deferred.instruction
        if not instruction.operands:
            raise TypeInferenceError("cannot type an empty list literal")
        element_types = [
            self.substitution.resolve(self.type_of(v))
            for v in instruction.operands
        ]
        first = element_types[0]
        for other in element_types[1:]:
            self._unify_soft(first, other, instruction)
        first = self.substitution.resolve(first)
        if isinstance(first, CompoundType) and first.constructor == "Tensor":
            element, rank = first.params
            if isinstance(rank, TypeLiteral):
                result = CompoundType(
                    "Tensor", (element, TypeLiteral(rank.value + 1))
                )
            else:
                raise TypeInferenceError("cannot type nested list of unknown rank")
        else:
            result = CompoundType("Tensor", (first, TypeLiteral(1)))
        self._unify_soft(self.type_of(instruction.result), result, instruction)

    # -- application ------------------------------------------------------------------

    def _apply(self, function: FunctionModule, return_type: Type) -> None:
        for value in function.values():
            variable = self._value_types.get(value.id)
            if variable is None:
                continue
            resolved = self.substitution.resolve(variable)
            if resolved.free_variables():
                if isinstance(resolved, TypeVariable):
                    continue  # dead value; DCE will drop it
            value.type = resolved
        function.result_type = self.substitution.resolve(return_type)

    def resolved_operand_types(self, instruction) -> list[Type]:
        return [
            self.substitution.resolve(self.type_of(v))
            for v in instruction.operands
        ]


def _source_of(instruction) -> str:
    source = instruction.properties.get("mexpr") if hasattr(
        instruction, "properties"
    ) else None
    if source is None and getattr(instruction, "result", None) is not None:
        source = instruction.result.mexpr
    return input_form(source) if source is not None else str(instruction)
