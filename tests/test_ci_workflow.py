"""The CI workflow runs one harness: what it installs, names and runs.

``.github/workflows/ci.yml`` is read as plain text (PyYAML is not a
dependency).  Its ``tests`` job must install every third-party module
that ``src/`` and ``tests/`` import, every repo path it names must
exist, and no job but ``tests`` runs a check of its own: the one inline
script left is the loadtest's rate calibration, which measures and
asserts nothing about the code.  Beside the workflow, the runtime
dependencies in ``pyproject.toml`` are exactly the third-party modules
``src/`` imports.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: a relative file path in the workflow's text: not under ``/``, ``$``
#: or ``.``, and ending in one of the repo's file extensions
REPO_PATH = re.compile(
    r"(?<![\w./@$-])(?:[\w-]+/)*[\w-]+\.(?:py|json|toml|ya?ml|md)\b")


def _jobs() -> dict:
    """``{job id: the job's lines}`` of the workflow."""
    jobs: dict = {}
    name = None
    lines = WORKFLOW.read_text().splitlines()
    for line in lines[lines.index("jobs:") + 1:]:
        match = re.fullmatch(r"  ([\w-]+):", line)
        if match:
            name = match.group(1)
            jobs[name] = []
        elif name is not None:
            jobs[name].append(line)
    return {name: "\n".join(body) for name, body in jobs.items()}


def _pyproject_list(key: str) -> list:
    """The distribution names of one list in ``pyproject.toml``."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(rf"^{key} = \[(.*?)\]", text, re.M | re.S).group(1)
    return [re.split(r"[\s<>=!~;\[]", item)[0]
            for item in re.findall(r'"([^"]+)"', block)]


def _installed_by_tier1() -> set:
    """The modules the ``tests`` job's ``pip install`` line provides."""
    [line] = [line for line in _jobs()["tests"].splitlines()
              if "pip install" in line]
    names = []
    for word in line.split("pip install", 1)[1].split():
        word = word.strip("\"'")
        if word.startswith("-"):
            continue
        if word.startswith("."):  # this project, with its extras
            names += _pyproject_list("dependencies")
            extras = re.search(r"\[(.*)\]", word)
            for extra in extras.group(1).split(",") if extras else []:
                names += _pyproject_list(extra.strip())
        else:
            names.append(word)
    return {name.lower().replace("-", "_") for name in names}


def _third_party_imports(roots=("src", "tests")) -> set:
    """Top-level modules imported under ``roots`` (lazy imports inside
    functions included) that are neither the standard library nor this
    repository's own."""
    own = {path.stem for path in (ROOT / "src").iterdir()}
    own |= {path.stem for path in (ROOT / "tests").glob("*.py")}
    own.add("tests")
    found = set()
    for root in roots:
        for path in (ROOT / root).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                found |= {name.split(".")[0] for name in names}
    return found - set(sys.stdlib_module_names) - own


def test_tier1_installs_every_module_the_code_imports():
    imported = _third_party_imports()
    assert {"numpy", "pytest"} <= imported
    missing = imported - _installed_by_tier1()
    assert not missing, f"imported but not installed by tier-1: {missing}"


def test_runtime_dependencies_are_exactly_what_src_imports():
    # both ways: no declared dependency goes unused, none is undeclared
    declared = {name.lower().replace("-", "_")
                for name in _pyproject_list("dependencies")}
    assert _third_party_imports(roots=("src",)) == declared
    assert "networkx" not in declared


def test_every_repo_path_the_workflow_names_exists():
    named = {
        match.group(0)
        for line in WORKFLOW.read_text().splitlines()
        if "uses:" not in line
        for match in REPO_PATH.finditer(line)
    }
    assert {"bench/run.py", "examples/slo.json",
            "BENCH_baseline.json"} <= named
    assert not {path for path in named if not (ROOT / path).exists()}


def test_only_the_tier1_job_runs_checks():
    jobs = _jobs()
    assert [name for name, body in jobs.items()
            if re.search(r"pytest|tests/", body)] == ["tests"]
    heredocs = {name: body.count("python - <<")
                for name, body in jobs.items()}
    assert sum(heredocs.values()) == 1 and heredocs["loadtest-smoke"] == 1
    assert "Calibrate a sustainable rate" in jobs["loadtest-smoke"]
