"""What an installed ``repro`` ships: every data file under
``src/repro/`` is declared package data, and no package re-exports.

CI installs the package editable, which reads files straight from the
checkout, so an undeclared data file would go missing only from a plain
``pip install .`` — for the training table, silently: the shipped
machines would fall back to simulating their databases.

Every import names the module that defines what it imports, so a package
``__init__.py`` is its docstring and nothing else.  Three packages
define names, and each may define only those listed in ``EXCEPTIONS``.

Every function, class and method of ``src/repro/`` has a caller in the
repo's code (tests aside), found by binding — an import of it, an
attribute, a ``getattr`` of its literal name — not by any string that
spells it; or it is listed in ``UNCALLED`` with why it stays.  What
only the tests call lives in ``tests/``.
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


#: where a definition of ``src/repro/`` may be called from
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")

#: definitions no code in ``CALLER_DIRS`` calls, each with why it stays
UNCALLED = {
    # framework callbacks
    "repro.obs.log.TraceContextFilter.filter":
        "logging calls a handler's filters",
    "repro.service.server.LayoutServer.process_request":
        "socketserver calls it for each accepted connection",
    "repro.service.server.LayoutServer.shutdown_request":
        "socketserver calls it when a connection is done",
    # the interpreter, which measured branch probabilities will run on
    "repro.frontend.interp.run_source":
        "the interpreter's entry point for a source text",
    "repro.frontend.interp.run_program":
        "the interpreter's entry point for a parsed program",
    # dispatch by name
    "repro.service.cache.StageKeys.frontend":
        "key_for reaches it by getattr(self, stage); it goes with "
        "StageKeys (ROADMAP 1(a))",
}

#: the builtin types whose attribute names a method may share
BUILTIN_TYPES = (str, bytes, list, dict, set, frozenset, tuple, int, float,
                 object)
BUILTIN_ATTRIBUTES = frozenset(
    name for kind in BUILTIN_TYPES for name in dir(kind)
    if not name.startswith("__")
)

#: methods named like an attribute of a builtin type, each with a file
#: that calls it: no attribute rule tells ``parts.join(...)`` from
#: ``", ".join(...)``, so a person checked each caller
BUILTIN_NAMED = {
    "repro.alignment.cag.CAG.copy": "src/repro/alignment/search_space.py",
    "repro.alignment.cag.Components.find": "src/repro/alignment/cag.py",
    "repro.alignment.cag.Components.join": "src/repro/alignment/cag.py",
    "repro.distribution.layouts.DimDistribution.format":
        "src/repro/tool/hpf_writer.py",
    "repro.frontend.interp.FortranArray.get": "src/repro/frontend/interp.py",
    "repro.frontend.symbols.SymbolTable.get":
        "src/repro/alignment/orientation.py",
    "repro.frontend.symbols.SymbolTable.add": "src/repro/frontend/symbols.py",
    "repro.qa.runner.FuzzReport.count": "src/repro/qa/runner.py",
    "repro.resilience.chaos.ChaosReport.count":
        "src/repro/resilience/chaos.py",
    "repro.service.cache.StageKeys.partition": "src/repro/service/cache.py",
    "repro.service.protocol.LayoutResponse.encode":
        "src/repro/service/server.py",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_name(path: pathlib.Path, src: pathlib.Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(part for part in parts if part != "__init__")


def references(path: pathlib.Path, src: pathlib.Path):
    """``(imported, members)`` of one file: the ``(module, name)`` pairs
    it imports by name, relative imports resolved; and the names it
    reaches as an attribute, or as the literal second argument of
    ``getattr`` or ``hasattr``."""
    package = []
    if path.is_relative_to(src):
        package = module_name(path, src).split(".")
        if path.name != "__init__.py":
            package.pop()
    imported, members = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            base = (package[:len(package) + 1 - node.level]
                    if node.level else [])
            module = ".".join(base + ([node.module] if node.module else []))
            imported.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr")
              and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            members.add(node.args[1].value)
    return imported, members


def own_loads(tree: ast.Module):
    """The names a module reads, each outside its own definition."""
    loads = set()
    for statement in tree.body:
        names = {node.id for node in ast.walk(statement)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Load)}
        if isinstance(statement, _DEFINITIONS):
            names.discard(statement.name)
        loads |= names
    return loads


def definitions(package: pathlib.Path):
    """``(module, class or None, definition, module tree)`` of every
    module-level function and class under ``package``, and of every
    method but a dunder."""
    for path in sorted(package.rglob("*.py")):
        module = module_name(path, package.parent)
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, _DEFINITIONS):
                continue
            yield module, None, node, tree
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, _FUNCTIONS)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))):
                        yield module, node.name, item, tree


def qualified(module: str, owner, node) -> str:
    return ".".join(filter(None, (module, owner, node.name)))


def uncalled(root: pathlib.Path, builtin_named):
    """Every definition of ``root/src/repro`` that no file of
    ``CALLER_DIRS`` under ``root`` calls, by binding:

    - a module-level function or class is called when a file imports it
      by name from its defining module, reaches it as an attribute, or
      its own module reads the name outside its definition;
    - a method is called when a file names it as an attribute or as the
      literal name ``getattr`` / ``hasattr`` look up; a method named
      like an attribute of a builtin type only when ``builtin_named``
      lists it with a file that names it so.

    No other string counts: not ``__all__``, tables or docstrings."""
    src = root / "src"
    imported, members, reached_in = set(), set(), {}
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            names, attributes = references(path, src)
            imported |= names
            members |= attributes
            reached_in[path.relative_to(root).as_posix()] = attributes
    found, loads = [], {}
    for module, owner, node, tree in definitions(src / "repro"):
        name = qualified(module, owner, node)
        if owner is None:
            if module not in loads:
                loads[module] = own_loads(tree)
            called = ((module, node.name) in imported
                      or node.name in members
                      or node.name in loads[module])
        elif name in builtin_named:
            called = node.name in reached_in.get(builtin_named[name], ())
        else:
            called = (node.name in members
                      and node.name not in BUILTIN_ATTRIBUTES)
        if not called:
            found.append(name)
    return found


def test_every_definition_has_a_caller():
    found = [name for name in uncalled(ROOT, BUILTIN_NAMED)
             if name not in UNCALLED]
    assert not found, (
        f"nothing in {', '.join(CALLER_DIRS)} calls {found}: delete "
        "them, move them beside the tests that use them, or list each "
        "in UNCALLED with why it stays (a method named like a builtin's "
        "goes in BUILTIN_NAMED with a file that calls it)"
    )


def defined_names():
    return {qualified(module, owner, node)
            for module, owner, node, _ in definitions(PACKAGE)}


def test_the_uncalled_table_names_definitions():
    assert set(UNCALLED) <= defined_names()


def test_the_builtin_named_table_names_definitions_and_files():
    assert set(BUILTIN_NAMED) <= defined_names()
    assert all((ROOT / path).is_file() for path in BUILTIN_NAMED.values())


FIXTURE = {
    "src/repro/__init__.py": '"""A package."""\n',
    "src/repro/lib.py": '''
class Box:
    def named_only_in_a_string(self):
        pass

    def reached_by_getattr(self):
        pass

    def join(self, other):
        pass


def named_only_in_all():
    pass


def named_like_a_local():
    pass


def imported_under_an_alias():
    pass


__all__ = ["named_only_in_all"]
''',
    "src/repro/user.py": '''
from .lib import Box, imported_under_an_alias as alias


def use():
    box = Box()
    getattr(box, "reached_by_getattr")()
    named_like_a_local = alias()
    return ", ".join(["named_only_in_a_string", named_like_a_local])
''',
    "bench/run.py": "from repro.user import use\n\nuse()\n",
}


def test_the_scan_resolves_callers_by_binding(tmp_path):
    for name, text in FIXTURE.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert sorted(uncalled(tmp_path, {})) == [
        "repro.lib.Box.join",  # builtin-named, not in the table
        "repro.lib.Box.named_only_in_a_string",
        "repro.lib.named_like_a_local",
        "repro.lib.named_only_in_all",
    ]
    # a table entry holds only while its file names the method
    assert "repro.lib.Box.join" not in uncalled(
        tmp_path, {"repro.lib.Box.join": "src/repro/user.py"})
    assert "repro.lib.Box.join" in uncalled(
        tmp_path, {"repro.lib.Box.join": "bench/run.py"})
