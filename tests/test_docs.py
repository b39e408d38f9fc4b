"""Docs that cannot rot: every command the documentation gives for
regenerating an experiment names something that exists, and the README
knob table is exactly the set of ``REPRO_*`` names in ``src/``, each read
in one module."""

import json
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

_BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = {w["name"] for w in _BENCHMARK["workloads"]}
METRICS = {m["name"] for m in _BENCHMARK["end_to_end"] + _BENCHMARK["per_layer"]}

_PATH = re.compile(r"^(?:benchmarks|bench|tests|examples|src)/[\w./-]+$")


def _regenerate_cells(doc: str) -> list:
    """``(line, text)`` for every *Regenerate* command and every cell of a
    "Regenerated by" table column in ``doc``."""
    cells = []
    column = None
    lines = (REPO_ROOT / doc).read_text("utf-8").splitlines()
    for number, line in enumerate(lines, 1):
        if line.startswith("|"):
            row = [cell.strip() for cell in line.strip("|").split("|")]
            if "Regenerated by" in row:
                column = row.index("Regenerated by")
            elif column is not None and not set(row[0]) <= set("-: "):
                cells.append((number, row[column]))
            continue
        column = None
        if line.startswith("*Regenerate*:"):
            command = [line]
            for following in lines[number:]:
                if "·" in command[-1] or not following.strip():
                    break
                command.append(following)
            cells.append((number, " ".join(command).split("·")[0]))
    return cells


def _problems(text: str) -> list:
    """What is wrong with one command: it must name a repo file or a
    ``bench/run.py`` workload, every repo path in it must exist, and every
    ``--workload W`` and metric name (a backticked word on its own;
    ``<k>`` stands for any one segment) must be declared in
    BENCHMARK.json."""
    problems = []
    named = False
    for span in re.findall(r"`([^`]+)`", text):
        words = span.split()
        for previous, word in zip([""] + words, words):
            path = word.split("::")[0]
            if _PATH.match(path):
                named = True
                if not (REPO_ROOT / path).exists():
                    problems.append(f"no such file: {path}")
            elif previous == "--workload" or len(words) == 1:
                named = named or word in WORKLOADS
                pattern = re.sub(r"<\w+>", "[^.]+", re.escape(word))
                if word not in WORKLOADS and not any(
                    re.fullmatch(pattern, metric) for metric in METRICS
                ):
                    problems.append(f"not in BENCHMARK.json: {word}")
    if not named:
        problems.append("names no file and no bench/run.py workload")
    return problems


def test_the_checker_catches_rot():
    assert _problems("`benchmarks/bench_figure2.py`") == []
    assert _problems("`bench/run.py --workload kernels_hot` "
                     "(`kernel.<k>.ref_ratio`, `wall_s`)") == []
    assert _problems("`benchmarks/bench_gone.py`")
    assert _problems("`python -m repro lint --bench`")  # names nothing
    assert _problems("`bench/run.py --workload kernels_cold`")
    assert _problems("`bench/run.py` (`kernel.<k>.speedup`)")


@pytest.mark.parametrize("doc", DOCS)
def test_regenerate_commands_name_things_that_exist(doc):
    cells = _regenerate_cells(doc)
    assert len(cells) >= 10, f"{doc} lost its experiment index"
    problems = [
        f"{doc}:{line}: {problem}"
        for line, text in cells for problem in _problems(text)
    ]
    assert not problems, "\n".join(problems)


#: the environment knobs: a deployment path and disk bound, the
#: flight recorder's safety off-switch, the IR verifier and the
#: differential fuzzer's CI settings.  Every other value is set where it is
#: used (a ``CompilerOptions`` field, a constructor parameter, a flag).
KNOBS = {
    "REPRO_ARTIFACT_CACHE",
    "REPRO_ARTIFACT_CACHE_MAX",
    "REPRO_TELEMETRY",
    "REPRO_VERIFY_IR",
    "REPRO_DIFF_COUNT",
    "REPRO_DIFF_SEED",
    "REPRO_DIFF_ARTIFACTS",
}


def test_readme_knob_table_is_exactly_the_knobs_in_src():
    # a trailing underscore is a ``REPRO_FLIGHT_*`` wildcard in prose
    in_src = {
        name
        for path in (REPO_ROOT / "src").rglob("*.py")
        for name in re.findall(r"REPRO_[A-Z_]+", path.read_text("utf-8"))
        if not name.endswith("_")
    }
    readme = (REPO_ROOT / "README.md").read_text("utf-8")
    in_table = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", readme, re.M))
    assert in_src - in_table == set(), "read in src/, missing from README"
    assert in_table - in_src == set(), "in README's table, read nowhere"
    assert in_table == KNOBS


def test_each_knob_is_read_in_exactly_one_module():
    readers: dict = {}
    for path in (REPO_ROOT / "src").rglob("*.py"):
        text = path.read_text("utf-8")
        if "os.environ" not in text:
            continue
        # a quoted name is an argument of ``os.environ`` (or of the
        # module constant it reads); prose names sit in backquotes
        for name in set(re.findall(r"[\"'](REPRO_[A-Z_]+)[\"']", text)):
            readers.setdefault(name, []).append(path.name)
    assert readers.keys() == KNOBS
    assert {name: len(paths) for name, paths in readers.items()} == {
        name: 1 for name in KNOBS
    }, readers
