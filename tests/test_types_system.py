"""The type system (§4.4): specifiers, classes, unification, environments."""

import pytest

from repro.compiler.types.classes import DEFAULT_CLASSES, TypeClassRegistry
from repro.compiler.types.environment import (
    _LATTICE,
    TypeEnvironment,
    mangle,
    widens_to,
)
from repro.compiler.types.builtin_env import PRIMITIVE_IMPLS, default_environment
from repro.compiler.types.specifier import (
    AtomicType,
    CompoundType,
    FunctionType,
    TypeForAll,
    TypeLiteral,
    TypeVariable,
    fn,
    forall,
    instantiate,
    parse_type_specifier,
    tensor,
    ty,
)
from repro.compiler.types.unify import Substitution, unifiable, unify
from repro.errors import (
    AmbiguousTypeError,
    FunctionResolutionError,
    TypeInferenceError,
    WolframTypeError,
)
from repro.mexpr import parse


class TestTypeSpecifierParsing:
    """The grammar from §4.4, case by case."""

    def test_atomic_constructor(self):
        assert parse_type_specifier(parse('"Integer8"')) == ty("Integer8")
        assert parse_type_specifier(parse('"Real64"')) == ty("Real64")

    def test_platform_alias(self):
        assert parse_type_specifier(parse('"MachineInteger"')) == ty("Integer64")

    def test_compound_constructor(self):
        node = parse_type_specifier(parse('"Tensor"["Integer64", 2]'))
        assert node == tensor("Integer64", 2)

    def test_type_literal(self):
        node = parse_type_specifier(parse('TypeLiteral[1, "Integer64"]'))
        assert node == TypeLiteral(1, "Integer64")

    def test_function_type(self):
        node = parse_type_specifier(
            parse('{"Integer32", "Integer32"} -> "Real64"')
        )
        assert node == fn(["Integer32", "Integer32"], "Real64")

    def test_polymorphic_function(self):
        node = parse_type_specifier(
            parse('TypeForAll[{"a"}, {"a"} -> "Real64"]')
        )
        assert isinstance(node, TypeForAll)
        assert node.variables == ("a",)

    def test_qualified_polymorphic_function(self):
        node = parse_type_specifier(parse(
            'TypeForAll[{"a"}, {Element["a", "Integral"]}, {"a"} -> "Real64"]'
        ))
        assert node.qualifiers == (("a", "Integral"),)

    def test_paper_map_type(self):
        """§4.4: one of the definitions of Map, verbatim."""
        node = parse_type_specifier(parse(
            'TypeSpecifier[TypeForAll[{"a", "b"},'
            ' {{"a", "b"} -> "b", "Tensor"["a", 1]} -> "Tensor"["b", 1]]]'
        ))
        assert isinstance(node, TypeForAll)
        body = node.body
        assert isinstance(body, FunctionType)
        assert isinstance(body.params[0], FunctionType)
        assert body.params[1] == tensor("a", 1)

    def test_unknown_type_rejected(self):
        with pytest.raises(WolframTypeError):
            parse_type_specifier(parse('"Bogus64"'))


class TestTypeClasses:
    @pytest.mark.parametrize("type_name,class_name,expected", [
        ("Integer64", "Integral", True),
        ("Real64", "Integral", False),
        ("Real64", "Reals", True),
        ("ComplexReal64", "Number", True),
        ("ComplexReal64", "Ordered", False),
        ("String", "Ordered", True),
        ("String", "MemoryManaged", True),
        ("Integer64", "MemoryManaged", False),
    ])
    def test_atomic_membership(self, type_name, class_name, expected):
        assert DEFAULT_CLASSES.satisfies(ty(type_name), class_name) is expected

    def test_compound_membership(self):
        assert DEFAULT_CLASSES.satisfies(tensor("Real64", 1), "Container")
        assert DEFAULT_CLASSES.satisfies(tensor("Real64", 1), "MemoryManaged")
        assert not DEFAULT_CLASSES.satisfies(ty("Integer64"), "Container")

    def test_user_extension(self):
        registry = TypeClassRegistry()
        registry.declare_class("Hashable")
        registry.add_member("Hashable", "Integer64")
        assert registry.satisfies(ty("Integer64"), "Hashable")
        assert not registry.satisfies(ty("Real64"), "Hashable")


class TestUnification:
    def test_atomic(self):
        s = Substitution()
        unify(ty("Integer64"), ty("Integer64"), s)
        with pytest.raises(TypeInferenceError):
            unify(ty("Integer64"), ty("Real64"), s)

    def test_variable_binding(self):
        s = Substitution()
        unify(TypeVariable("a"), ty("Real64"), s)
        assert s.resolve(TypeVariable("a")) == ty("Real64")

    def test_compound(self):
        s = Substitution()
        unify(tensor("a", 1), tensor("Real64", 1), s)
        assert s.resolve(TypeVariable("a")) == ty("Real64")

    def test_rank_mismatch(self):
        s = Substitution()
        with pytest.raises(TypeInferenceError):
            unify(tensor("Real64", 1), tensor("Real64", 2), s)

    def test_function_types(self):
        s = Substitution()
        unify(fn(["a"], "b"), fn(["Integer64"], "Real64"), s)
        assert s.resolve(TypeVariable("a")) == ty("Integer64")
        assert s.resolve(TypeVariable("b")) == ty("Real64")

    def test_occurs_check(self):
        s = Substitution()
        with pytest.raises(TypeInferenceError):
            unify(TypeVariable("a"), tensor("a", 1), s)

    def test_unifiable_does_not_commit(self):
        s = Substitution()
        assert unifiable(TypeVariable("a"), ty("Real64"), s)
        assert s.resolve(TypeVariable("a")) == TypeVariable("a")

    def test_transitive_resolution(self):
        s = Substitution()
        unify(TypeVariable("a"), TypeVariable("b"), s)
        unify(TypeVariable("b"), ty("Boolean"), s)
        assert s.resolve(TypeVariable("a")) == ty("Boolean")


class TestInstantiation:
    def test_fresh_variables(self):
        poly = forall(["a"], fn(["a"], "a"))
        first, _ = instantiate(poly)
        second, _ = instantiate(poly)
        assert first != second  # fresh variables each time

    def test_qualifier_obligations(self):
        poly = forall(["a"], fn(["a", "a"], "a"), [("a", "Ordered")])
        _, obligations = instantiate(poly)
        assert len(obligations) == 1
        assert obligations[0][1] == "Ordered"


class TestResolution:
    def test_exact_overload(self):
        env = default_environment()
        resolved = env.resolve_call("Plus", [ty("Integer64"), ty("Integer64")])
        assert resolved.mangled_name == "Plus_Integer64_Integer64"
        assert resolved.function_type.result == ty("Integer64")

    def test_real_overload(self):
        env = default_environment()
        resolved = env.resolve_call("Plus", [ty("Real64"), ty("Real64")])
        assert resolved.function_type.result == ty("Real64")

    def test_coercion_int_to_real(self):
        env = default_environment()
        resolved = env.resolve_call("Plus", [ty("Integer64"), ty("Real64")])
        assert resolved.function_type.result == ty("Real64")
        assert resolved.coercions[0] == ty("Real64")
        assert resolved.coercions[1] is None

    @pytest.mark.parametrize("head", ["Sin", "Cos", "Tan", "Exp", "Log"])
    def test_integer_widens_to_the_nearest_overload(self, head):
        """Integer64 widens to Real64 and to ComplexReal64 alike; the
        shorter widening wins, whatever the declaration order."""
        env = default_environment()
        resolved = env.resolve_call(head, [ty("Integer64")])
        assert resolved.function_type.result == ty("Real64")
        assert resolved.coercions == (ty("Real64"),)

    def test_polymorphic_with_qualifier(self):
        env = default_environment()
        resolved = env.resolve_call("Min", [ty("Real64"), ty("Real64")])
        assert resolved.function_type.result == ty("Real64")

    def test_qualifier_violation(self):
        env = default_environment()
        with pytest.raises(FunctionResolutionError):
            # Less requires Ordered; complex numbers are not ordered
            env.resolve_call(
                "Less", [ty("ComplexReal64"), ty("ComplexReal64")]
            )

    def test_container_min_selects_wolfram_implementation(self):
        """§4.4's example: Min on a container resolves to the Fold impl."""
        from repro.mexpr.expr import MExpr

        env = default_environment()
        resolved = env.resolve_call("Min", [tensor("Integer64", 1)])
        assert isinstance(resolved.declaration.implementation, MExpr)

    def test_arity_overloading(self):
        """§4.4: 'overloaded by type, arity, and return type'."""
        env = default_environment()
        one = env.resolve_call("ArcTan", [ty("Real64")])
        two = env.resolve_call("ArcTan", [ty("Real64"), ty("Real64")])
        assert one.declaration is not two.declaration

    def test_no_match(self):
        env = default_environment()
        with pytest.raises(FunctionResolutionError):
            env.resolve_call("Plus", [ty("Boolean"), ty("Boolean")])

    def test_user_overload_wins(self):
        """§4.4: later declarations (user extensions) outrank builtins."""
        base = default_environment()
        env = TypeEnvironment(parent=base)
        marker = PRIMITIVE_IMPLS["binary_max"]
        env.declare_function("Plus", fn(["Real64", "Real64"], "Real64"),
                             marker)
        resolved = env.resolve_call("Plus", [ty("Real64"), ty("Real64")])
        assert resolved.declaration.implementation is marker

    def test_ambiguity_raises(self):
        env = TypeEnvironment()
        impl = PRIMITIVE_IMPLS["binary_min"]
        # two simultaneous declarations with equal rank but different results
        d1 = env.declare_function("amb", forall(["a"], fn(["a"], "Integer64")), impl)
        d2 = env.declare_function("amb", forall(["b"], fn(["b"], "Real64")), impl)
        d2.order = d1.order  # force an ordering tie
        with pytest.raises(AmbiguousTypeError):
            env.resolve_call("amb", [ty("Boolean")])


class TestMangling:
    def test_paper_style_name(self):
        """§A.6.3: checked_binary_plus_Integer64_Integer64-style names."""
        assert mangle("Plus", (ty("Integer64"), ty("Integer64"))) == (
            "Plus_Integer64_Integer64"
        )

    def test_tensor_mangling(self):
        name = mangle("Total", (tensor("Real64", 1),))
        assert name == "Total_Tensor_Real64_1"

    def test_context_backtick_sanitized(self):
        assert "`" not in mangle("Native`PartSet", (ty("Integer64"),))


class TestWidening:
    @pytest.mark.parametrize("source,target,expected", [
        ("Integer64", "Real64", True),
        ("Real64", "Integer64", False),
        ("Integer8", "Integer64", True),
        ("Real64", "ComplexReal64", True),
        ("UnsignedInteger8", "Integer64", True),
        ("Integer64", "UnsignedInteger64", True),
        ("Boolean", "Integer64", False),
    ])
    def test_widens(self, source, target, expected):
        assert widens_to(ty(source), ty(target)) is expected


#: every widening the lattice admits, read from the lattice itself
_WIDENINGS = sorted((source, target) for source, targets in _LATTICE.items()
                    for target in targets)


class TestLattice:
    @pytest.mark.parametrize("source, target", _WIDENINGS,
                             ids=[f"{s}-{t}" for s, t in _WIDENINGS])
    def test_every_widening_compiles(self, source, target):
        """A function declared only at ``target``, called with a ``source``
        argument: resolution picks the lattice's cast, the verifier accepts
        every stage, and the value is the interpreter's."""
        from repro.compiler import FunctionCompile
        from repro.engine import Evaluator

        env = TypeEnvironment(parent=default_environment())
        env.declare_function("Widened", fn([target], target),
                             parse("Function[{y}, y]"))
        compiled = FunctionCompile(
            f'Function[{{Typed[x, "{source}"]}}, Widened[x]]',
            type_environment=env, VerifyIR="Each",
        )
        argument = 2.5 if source.startswith("Real") else 3
        value = compiled(argument)
        assert value == Evaluator().run(
            f"Function[{{y}}, y][{argument}]").to_python()
        assert type(value) is {"Real64": float,
                               "ComplexReal64": complex}.get(target, int)


class TestCandidateRecord:
    """The ranking is read from named fields, not tuple positions."""

    def test_a_shorter_widening_is_not_a_tie(self):
        env = default_environment()
        best, runner_up = env.candidates(
            env.declarations("Sin"), [ty("Integer64")], Substitution())[:2]
        assert best.function_type.result == ty("Real64")
        assert (best.distance, runner_up.distance) == (1, 2)
        assert not best.ties(runner_up)

    def test_declaration_order_alone_is_a_tie(self):
        env = TypeEnvironment()
        impl = PRIMITIVE_IMPLS["binary_min"]
        first = env.declare_function("two", fn(["Real64"], "Real64"), impl)
        second = env.declare_function("two", fn(["Real64"], "Real64"), impl)
        best, runner_up = env.candidates(
            env.declarations("two"), [ty("Integer64")], Substitution())
        assert (best.declaration, runner_up.declaration) == (second, first)
        assert best.ties(runner_up)
        assert best.rank < runner_up.rank
        assert best.coercions == (ty("Real64"),)

    def test_the_result_filter_is_inside_the_probe(self):
        env = default_environment()
        reals = env.candidates(env.declarations("Plus"),
                               [ty("Integer64"), ty("Integer64")],
                               Substitution(), result_type=ty("Real64"))
        assert reals
        assert {c.function_type.result for c in reals} == {ty("Real64")}


class TestUserTypes:
    def test_declare_type_registers_atomic(self):
        """F6: users can define their own datatypes."""
        env = TypeEnvironment(classes=TypeClassRegistry())
        env.declare_type("MyRational", classes=["Number", "Ordered"])
        assert env.has_type("MyRational")
        assert env.classes.satisfies(ty("MyRational"), "Ordered")

    def test_managed_property(self):
        assert ty("String").is_managed()
        assert ty("Expression").is_managed()
        assert tensor("Real64", 1).is_managed()
        assert not ty("Integer64").is_managed()
