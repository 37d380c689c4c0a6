"""What an installed ``repro`` ships: every data file under
``src/repro/`` is declared package data, and no package re-exports.

CI installs the package editable, which reads files straight from the
checkout, so an undeclared data file would go missing only from a plain
``pip install .`` — for the training table, silently: the shipped
machines would fall back to simulating their databases.

Every import names the module that defines what it imports, so a package
``__init__.py`` is its docstring and nothing else.  Three packages
define names, and each may define only those listed in ``EXCEPTIONS``.
"""

from __future__ import annotations

import ast
import fnmatch
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def data_files():
    """Every non-Python file of the source tree, as ``(package, name)``."""
    return sorted(
        (".".join(path.parent.relative_to(PACKAGE.parent).parts),
         path.name)
        for path in PACKAGE.rglob("*")
        if path.is_file() and path.suffix not in (".py", ".pyc")
        and "__pycache__" not in path.parts
    )


def test_every_data_file_is_declared_package_data():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    declared = config["tool"]["setuptools"].get("package-data", {})
    undeclared = [
        (package, name) for package, name in data_files()
        if not any(fnmatch.fnmatch(name, pattern)
                   for pattern in declared.get(package, [])
                   + declared.get("*", []))
    ]
    assert not undeclared


def test_the_training_table_is_a_data_file():
    assert ("repro.perf", "training_table.json") in data_files()


#: package -> the names its ``__init__.py`` may bind
EXCEPTIONS = {
    # the README quick-start names
    "repro": {"AssistantConfig", "run_assistant", "measure_layouts",
              "__version__"},
    # what the repo benchmark imports from the package
    "repro.service": {"LayoutService", "Metrics", "ServiceTelemetry",
                      "StageCache", "TailSampler", "WorkerPool",
                      "LayoutRequest", "LayoutResponse", "StageKeys"},
    # the backend dispatcher, defined there
    "repro.ilp": {"solve", "BACKENDS", "DEFAULT_BACKEND", "_load_backend"},
}


def package_inits():
    """Every package's ``__init__.py``, by package name."""
    return {
        ".".join(path.parent.relative_to(PACKAGE.parent).parts): path
        for path in PACKAGE.rglob("__init__.py")
    }


def bound_names(tree: ast.Module):
    """``(imported, defined)``: the names a module's top-level
    statements bind by an import, and by anything else."""
    imported, defined = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        else:
            defined.update(
                target.id for target in ast.walk(node)
                if isinstance(target, ast.Name)
                and isinstance(target.ctx, ast.Store)
            )
    return imported, defined


def used_names(tree: ast.Module):
    """Every name a module's code reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("package", sorted(package_inits()))
def test_a_package_init_does_not_re_export(package):
    tree = ast.parse(package_inits()[package].read_text())
    assert ast.get_docstring(tree), f"{package} has no docstring"
    imported, defined = bound_names(tree)
    if package not in EXCEPTIONS:
        assert len(tree.body) == 1, f"{package}/__init__.py holds code"
    elif package == "repro.ilp":
        # what the dispatcher imports it uses; it re-exports nothing
        assert defined == EXCEPTIONS[package]
        assert imported <= used_names(tree)
    else:
        assert imported | defined == EXCEPTIONS[package]


def test_the_exceptions_are_packages():
    assert set(EXCEPTIONS) <= set(package_inits())
