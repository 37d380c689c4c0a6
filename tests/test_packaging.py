"""What an installed ``repro`` ships: every data file under
``src/repro/`` is declared package data, and no package re-exports.

CI installs the package editable, which reads files straight from the
checkout, so an undeclared data file would go missing only from a plain
``pip install .`` — for the training table, silently: the shipped
machines would fall back to simulating their databases.

Every import names the module that defines what it imports, so a package
``__init__.py`` is its docstring and nothing else.  Three packages
define names, and each may define only those listed in ``EXCEPTIONS``.

Every function, class and method of ``src/repro/`` is named somewhere in
the repo's code (tests aside), or is listed in ``UNCALLED`` with why it
stays.
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


#: where a definition of ``src/repro/`` may be named by its callers
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")

#: definitions no code in ``CALLER_DIRS`` names, each with why it stays
UNCALLED = {
    # framework callbacks
    "repro.obs.log.TraceContextFilter.filter":
        "logging calls a handler's filters",
    "repro.service.server.LayoutServer.process_request":
        "socketserver calls it for each accepted connection",
    "repro.service.server.LayoutServer.shutdown_request":
        "socketserver calls it when a connection is done",
    # reference checkers that the tests compare against
    "repro.obs.prometheus.parse_prometheus_text":
        "the exposition's reference parser",
    "repro.tool.report.validate_summary_grid":
        "the summary grid's reference validator",
    "repro.obs.telemetry.validate_event_log":
        "the event log's reference validator",
    # the interpreter, which measured branch probabilities will run on
    "repro.frontend.interp.run_source":
        "the interpreter's entry point for a source text",
    "repro.frontend.interp.run_program":
        "the interpreter's entry point for a parsed program",
    # test-facing entry points
    "repro.alignment.cag.CAG.add_undirected_edge":
        "builds a CAG edge by edge",
    "repro.analysis.dependence.phase_dependences":
        "every uniform dependence of one phase",
    "repro.qa.corpus.load_corpus": "reads back a saved fuzz corpus",
    "repro.obs.events.load_trace": "reads back a saved trace",
    "repro.service.server.LayoutService.analyze_dict":
        "one request as dicts, without the wire",
    "repro.service.server.LayoutServer.serve_background":
        "serves on a daemon thread",
    "repro.resilience.faults.FaultPlan.to_json": "a fault plan's file form",
    "repro.resilience.faults.FaultPlan.from_json":
        "reads a fault plan's file form",
}


def named_identifiers(tree: ast.AST):
    """``(names, members)``: every identifier a module names, as a name,
    an attribute, an import or a string that is an identifier
    (``getattr``, tables); and those it names as an attribute or a
    string, the only ways code reaches a method."""
    names, members = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            members.add(node.value)
    return names | members, members


def definitions():
    """``(qualified name, name, is a method)`` of every module-level
    function and class of ``src/repro/``, and of every method but a
    dunder."""
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(p for p in parts if p != "__init__")
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            yield f"{module}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))):
                        yield (f"{module}.{node.name}.{item.name}",
                               item.name, True)


def test_every_definition_has_a_caller():
    named, members = set(), set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            names, attributes = named_identifiers(ast.parse(path.read_text()))
            named |= names
            members |= attributes
    uncalled = sorted(
        qualified for qualified, name, method in definitions()
        if name not in (members if method else named)
        and qualified not in UNCALLED
    )
    assert not uncalled, (
        f"nothing in {', '.join(CALLER_DIRS)} names {uncalled}: delete "
        "them, or list each in UNCALLED with why it stays"
    )


def test_the_uncalled_table_names_definitions():
    assert set(UNCALLED) <= {qualified for qualified, _, _ in definitions()}
