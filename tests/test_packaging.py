"""What an installed ``repro`` ships: every data file under
``src/repro/`` is declared package data.

CI installs the package editable, which reads files straight from the
checkout, so an undeclared data file would go missing only from a plain
``pip install .`` — for the training table, silently: the shipped
machines would fall back to simulating their databases.
"""

from __future__ import annotations

import fnmatch
import pathlib

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

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
