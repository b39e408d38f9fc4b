"""Saved compiled artifacts: round trip + version-skew recompilation."""

import json
import re

from repro.compiler import CompiledCodeFunction, FunctionCompile
from repro.compiler.options import SEMANTIC_FIELDS


SRC = 'Function[{Typed[x, "MachineInteger"]}, x * x + 1]'


def _renumbered(source: str) -> str:
    """SSA value names count up process-wide; renumber them by first use
    so two compiles of one program compare equal."""
    names: dict = {}
    return re.sub(
        r"\bv\d+", lambda m: names.setdefault(m.group(), f"v{len(names)}"),
        source,
    )


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        original = FunctionCompile(SRC)
        path = str(tmp_path / "square.wxf.json")
        original.save(path)
        loaded = CompiledCodeFunction.load(path)
        assert loaded(6) == original(6) == 37

    def test_saved_payload_carries_version_and_source(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        FunctionCompile(SRC).save(path)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["compilerVersion"] == (
            CompiledCodeFunction.COMPILER_VERSION
        )
        assert "inputFunction" in payload
        assert "def Main" in payload["generatedSource"]

    def test_stale_version_recompiles_from_input(self, tmp_path):
        """§2.2: 'If the versions do not match the current environment,
        then code is recompiled using the input function.'"""
        path = str(tmp_path / "stale.json")
        FunctionCompile(SRC).save(path)
        with open(path) as handle:
            payload = json.load(handle)
        payload["compilerVersion"] = "0.0.0.1"
        payload["generatedSource"] = "def Main(a0):\n    return -1\n"
        with open(path, "w") as handle:
            json.dump(payload, handle)
        loaded = CompiledCodeFunction.load(path)
        assert loaded(6) == 37  # fresh compile, not the tampered source

    def test_load_recompiles_under_the_saved_options(self, tmp_path):
        loop = (
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{s = 0, i = 1}, While[i <= n, s = s + i; i = i + 1]; s]]'
        )
        original = FunctionCompile(
            loop, AbortHandling=False, InlinePolicy=None, OptimizationLevel=0,
            ElideChecks=False, ConstantArrayHandling="naive",
            MemoryManagement=False, Dataflow=False,
        )
        assert "_armed" not in original.generated_source
        path = str(tmp_path / "loop.json")
        original.save(path)
        with open(path) as handle:
            saved = json.load(handle)["options"]
        # every option that changes generated code, under its WL name
        assert len(saved) == len(SEMANTIC_FIELDS) == 11
        assert saved["ElideChecks"] is False and saved["Dataflow"] is False
        loaded = CompiledCodeFunction.load(path)
        assert loaded.options == original.options
        assert _renumbered(loaded.generated_source) == _renumbered(
            original.generated_source
        )
        assert loaded(10) == 55

        # a file written before save() stored options loads with defaults
        with open(path) as handle:
            payload = json.load(handle)
        del payload["options"]
        with open(path, "w") as handle:
            json.dump(payload, handle)
        defaults = CompiledCodeFunction.load(path)
        assert defaults.options == FunctionCompile(loop).options
        assert "_armed" in defaults.generated_source

    def test_loaded_artifact_keeps_soft_failure(self, tmp_path):
        from repro.compiler import install_engine_support
        from repro.engine import Evaluator

        session = Evaluator()
        install_engine_support(session)
        fib_src = (
            'Function[{Typed[n, "MachineInteger"]},'
            ' Module[{a = 0, b = 1, i = 1},'
            '  While[i <= n, Module[{t = a + b}, a = b; b = t]; i = i + 1];'
            '  a]]'
        )
        path = str(tmp_path / "fib.json")
        FunctionCompile(fib_src).save(path)
        loaded = CompiledCodeFunction.load(path, evaluator=session)
        assert loaded(200) == 280571172992510140037611932413038677189525
