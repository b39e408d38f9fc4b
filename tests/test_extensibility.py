"""Extending the compiler (§4.7): user macros, type declarations, passes.

"Users can extend the compiler by adding new macro rules, type system
definitions, or transformation passes.  Macros and type systems are defined
within an environment which is passed in at FunctionCompile time.  Passes
can be enabled during the FunctionCompile call."
"""

import pytest

from repro.compiler import (
    FunctionCompile,
    MacroEnvironment,
    TypeEnvironment,
    UserPass,
    default_environment,
    default_macro_environment,
    fn,
    register_macro,
    tensor,
    ty,
)
from repro.compiler.types.builtin_env import PRIMITIVE_IMPLS
from repro.compiler.types.environment import PrimitiveImpl
from repro.mexpr import parse


class TestUserMacros:
    def test_new_macro_rule(self):
        env = MacroEnvironment(parent=default_macro_environment())
        register_macro(env, "Double", "Double[x_] -> Times[2, x]")
        f = FunctionCompile(
            'Function[{Typed[x, "MachineInteger"]}, Double[x] + 1]',
            macro_environment=env,
        )
        assert f(20) == 41

    def test_macro_overrides_builtin_lowering(self):
        env = MacroEnvironment(parent=default_macro_environment())
        # redefine squaring to be an off-by-one (observable override)
        register_macro(env, "Square", "Square[x_] -> Times[x, x]")
        f = FunctionCompile(
            'Function[{Typed[x, "MachineInteger"]}, Square[x]]',
            macro_environment=env,
        )
        assert f(9) == 81

    def test_conditioned_macro_on_target_system(self):
        """The paper's CUDA`Map example: predicated on TargetSystem."""
        env = MacroEnvironment(parent=default_macro_environment())
        register_macro(
            env, "Accel",
            "Accel[x_] -> Times[1000, x]",
            condition=lambda options: options.get("TargetSystem") == "CUDA",
        )
        register_macro(
            env, "Accel",
            "Accel[x_] -> x",
            condition=lambda options: options.get("TargetSystem") != "CUDA",
        )
        plain = FunctionCompile(
            'Function[{Typed[x, "MachineInteger"]}, Accel[x]]',
            macro_environment=env,
        )
        assert plain(3) == 3


class TestUserTypeEnvironments:
    def test_declare_function_with_primitive(self):
        env = TypeEnvironment(parent=default_environment())
        impl = PrimitiveImpl(
            "binary_min", py_inline="{out} = {a0} if {a0} < {a1} else {a1}"
        )
        env.declare_function("SmallerOf",
                             fn(["Integer64", "Integer64"], "Integer64"),
                             impl)
        f = FunctionCompile(
            'Function[{Typed[a, "MachineInteger"],'
            ' Typed[b, "MachineInteger"]}, SmallerOf[a, b]]',
            type_environment=env,
        )
        assert f(5, 3) == 3

    def test_declare_function_with_wolfram_implementation(self):
        """§4.4's declareFunction with a Wolfram-level body."""
        env = TypeEnvironment(parent=default_environment())
        env.declare_function(
            "Cube",
            fn(["Integer64"], "Integer64"),
            parse("Function[{x}, x * x * x]"),
        )
        f = FunctionCompile(
            'Function[{Typed[x, "MachineInteger"]}, Cube[x] + 1]',
            type_environment=env,
        )
        assert f(3) == 28

    def test_polymorphic_user_function(self):
        from repro.compiler import forall

        env = TypeEnvironment(parent=default_environment())
        env.declare_function(
            "Twice",
            forall(["a"], fn(["a"], "a"), [("a", "Number")]),
            parse("Function[{x}, x + x]"),
        )
        f_int = FunctionCompile(
            'Function[{Typed[x, "MachineInteger"]}, Twice[x]]',
            type_environment=env,
        )
        f_real = FunctionCompile(
            'Function[{Typed[x, "Real64"]}, Twice[x]]',
            type_environment=env,
        )
        assert f_int(21) == 42
        assert f_real(1.25) == 2.5

    def test_user_overload_shadows_builtin(self):
        env = TypeEnvironment(parent=default_environment())
        env.declare_function(
            "Abs", fn(["Integer64"], "Integer64"),
            parse("Function[{x}, x]"),  # deliberately wrong Abs
            inline_always=True,
        )
        f = FunctionCompile(
            'Function[{Typed[x, "MachineInteger"]}, Abs[x]]',
            type_environment=env,
        )
        assert f(-5) == -5  # the user definition won

    def test_forced_inlining_flag(self):
        env = TypeEnvironment(parent=default_environment())
        env.declare_function(
            "AddOne", fn(["Integer64"], "Integer64"),
            parse("Function[{x}, x + 1]"),
            inline_always=True,
        )
        f = FunctionCompile(
            'Function[{Typed[x, "MachineInteger"]}, AddOne[AddOne[x]]]',
            type_environment=env,
        )
        assert f(40) == 42
        # forced inlining leaves a single function in the program module
        assert list(f.program.functions) == ["Main"]

    def test_non_inlined_call_creates_mangled_function(self):
        env = TypeEnvironment(parent=default_environment())
        env.declare_function(
            "AddTwo", fn(["Integer64"], "Integer64"),
            parse("Function[{x}, x + 2]"),
        )
        f = FunctionCompile(
            'Function[{Typed[x, "MachineInteger"]}, AddTwo[x]]',
            type_environment=env,
        )
        assert f(40) == 42
        assert "AddTwo_Integer64" in f.program.functions


class TestUserPasses:
    def test_ast_pass_injection(self):
        """An AST pass sees the body before macros run."""
        from repro.mexpr import MExprNormal, S

        seen = []

        def spy(body):
            seen.append(body)
            return body

        f = FunctionCompile(
            'Function[{Typed[x, "MachineInteger"]}, x + 1]',
            user_passes=[UserPass(stage="ast", run=spy, name="spy")],
        )
        assert f(1) == 2
        assert len(seen) == 1

    def test_ast_pass_can_rewrite(self):
        from repro.engine.patterns import substitute
        from repro.mexpr import parse as p

        def strengthen(body):
            # rewrite +1 into +100 at the AST level
            from repro.engine import match

            return substitute(p("x + 100"), {})  # replace wholesale

        f = FunctionCompile(
            'Function[{Typed[x, "MachineInteger"]}, x + 1]',
            user_passes=[UserPass(stage="ast", run=strengthen,
                                  name="strengthen")],
        )
        assert f(1) == 101

    def test_twir_pass_injection(self):
        counted = []

        def count_instructions(function_module):
            counted.append(sum(1 for _ in function_module.instructions()))

        f = FunctionCompile(
            'Function[{Typed[x, "MachineInteger"]}, x * x]',
            user_passes=[UserPass(stage="twir", run=count_instructions,
                                  name="counter")],
        )
        assert f(6) == 36
        assert counted and counted[0] > 0

    def test_conditioned_pass(self):
        fired = []

        def only_when_wvm(function_module):
            fired.append(True)

        f = FunctionCompile(
            'Function[{Typed[x, "MachineInteger"]}, x]',
            user_passes=[UserPass(
                stage="twir", run=only_when_wvm, name="conditional",
                condition=lambda options: options.target_system == "WVM",
            )],
        )
        assert f(1) == 1
        assert not fired  # TargetSystem defaults to Python

    def test_pass_timings_recorded(self):
        """§5/§6: the suite measures 'time to run specific passes'."""
        from repro.compiler import CompileToIR

        timings = CompileToIR(
            'Function[{Typed[x, "MachineInteger"]}, x + 1]'
        )["passTimings"]
        names = [name for name, _elapsed in timings]
        assert "macro-expansion" in names
        assert any(name.startswith("infer:") for name in names)
        assert any(name.startswith("resolve:") for name in names)
        assert "cse" in names and "dce" in names

    def test_pass_logger_streams(self):
        logged = []
        FunctionCompile(
            'Function[{Typed[x, "MachineInteger"]}, x + 1]',
            PassLogger=lambda name, elapsed: logged.append(name),
        )
        assert "macro-expansion" in logged


class TestAutomaticDifferentiationExtension:
    """§5: developers 'performed AST and IR manipulation for automatic
    differentiation' — here as an AST user pass built on the engine's D."""

    def test_forward_derivative_pass(self):
        from repro.engine.numerics import differentiate
        from repro.mexpr import MSymbol

        def derive(body):
            return differentiate(body, MSymbol("x"))

        f = FunctionCompile(
            'Function[{Typed[x, "Real64"]}, x * x * x]',
            user_passes=[UserPass(stage="ast", run=derive, name="d/dx")],
        )
        # d(x^3)/dx = 3 x^2
        assert f(2.0) == pytest.approx(12.0)
