"""Repository-level API conventions.

Meta-tests keeping the public surface disciplined: everything exported is
importable and documented, `__all__` lists are accurate, the figure
registry stays in sync with the experiment modules, the runtime imports
stay light, every library module is reached from something a user or the
benchmark runs, and the module names the docs cite still exist.
"""

import ast
import importlib
import inspect
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.adversary",
    "repro.contacts",
    "repro.core",
    "repro.crypto",
    "repro.experiments",
    "repro.extensions",
    "repro.routing",
    "repro.sim",
    "repro.utils",
]


class TestAllLists:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_entries_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package_name}.{name} missing"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_public_callables_documented(self, package_name):
        package = importlib.import_module(package_name)
        undocumented = []
        for name in getattr(package, "__all__", []):
            obj = getattr(package, name)
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue  # typing aliases, constants
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
        assert not undocumented, (
            f"{package_name} exports without docstrings: {undocumented}"
        )


class TestClassDocumentation:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_public_methods_documented(self, package_name):
        package = importlib.import_module(package_name)
        undocumented = []
        for name in getattr(package, "__all__", []):
            obj = getattr(package, name)
            if not inspect.isclass(obj):
                continue
            for method_name, method in inspect.getmembers(
                obj, predicate=inspect.isfunction
            ):
                if method_name.startswith("_"):
                    continue
                if method.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited
                if (method.__doc__ or "").strip():
                    continue
                # overrides of documented interface methods inherit their
                # contract from the base class docstring
                inherited_doc = any(
                    (getattr(base, method_name, None) is not None)
                    and (getattr(base, method_name).__doc__ or "").strip()
                    for base in obj.__mro__[1:]
                )
                if not inherited_doc:
                    undocumented.append(f"{name}.{method_name}")
        assert not undocumented, (
            f"{package_name} public methods without docstrings: {undocumented}"
        )


class TestFigureRegistry:
    def test_cli_registry_covers_all_paper_figures(self):
        from repro.cli import _FIGURES

        numbered = sorted(k for k in _FIGURES if isinstance(k, int))
        assert numbered == list(range(4, 20))
        named = sorted(k for k in _FIGURES if isinstance(k, str))
        assert named == ["e1", "e2", "r1", "r2"]

    def test_every_registered_figure_has_seed_parameter(self):
        from repro.cli import _FIGURES

        for func in _FIGURES.values():
            assert "seed" in inspect.signature(func).parameters

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)


class TestRuntimeImports:
    def test_runtime_loads_neither_scipy_nor_networkx(self):
        """Only the tests and benchmarks use scipy; no run needs networkx."""
        code = (
            "import sys, repro, repro.cli, repro.experiments, repro.routing; "
            "print(sorted({m.split('.')[0] for m in sys.modules} "
            "& {'scipy', 'networkx'}))"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=env,
        )
        assert result.stdout.strip() == "[]"


# What a user or the benchmark runs. Examples do not count: a module only
# an example imports is library surface that no run needs.
ENTRY_POINTS = ["src/repro/cli.py", "perfbench", "benchmarks", "scripts", "experiments"]
# Modules kept for the tests alone: reference oracles the tests check the
# kernels against (tests/helpers.py scores security trials row by row with
# the tracer).
TEST_ORACLES = {"repro.adversary.tracer"}

_SRC = ROOT / "src"
_MODULES = {
    ".".join(path.relative_to(_SRC).with_suffix("").parts).removesuffix(
        ".__init__"
    ): path
    for path in sorted((_SRC / "repro").rglob("*.py"))
}


def _is_package(module):
    return _MODULES[module].name == "__init__.py"


def _repro_imports(path):
    """``(module, names)`` for every ``repro`` import in a file, at any depth.

    ``import repro.a.b`` gives ``("repro.a.b", ())``; ``from repro.a import
    b, c`` gives ``("repro.a", ("b", "c"))``.
    """
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, ()
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "repro":
                yield node.module, tuple(alias.name for alias in node.names)


def _defining_module(module, name):
    """The module that defines ``name`` as seen from ``module``.

    A submodule resolves to itself; a name a package re-exports resolves,
    through its ``__init__`` imports, to the module it comes from.
    """
    if f"{module}.{name}" in _MODULES:
        return f"{module}.{name}"
    if _is_package(module):
        for source, names in _repro_imports(_MODULES[module]):
            if name in names:
                return _defining_module(source, name)
    return module


def _imported_modules(path):
    """The modules a file imports from, with re-exported names resolved."""
    for module, names in _repro_imports(path):
        if not names:
            yield module
        for name in names:
            yield _defining_module(module, name)


def _reached_modules():
    """Every module the entry points import, followed through the library.

    A package's own ``__init__`` imports are not followed: importing one
    name from ``repro.contacts`` reaches the module defining that name, not
    every module the package re-exports.
    """
    files = []
    for entry in ENTRY_POINTS:
        path = ROOT / entry
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    pending = [module for path in files for module in _imported_modules(path)]
    reached = {"repro.cli"}
    while pending:
        module = pending.pop()
        if module in reached or module not in _MODULES:
            continue
        reached.add(module)
        if not _is_package(module):
            pending += _imported_modules(_MODULES[module])
    return reached


class TestReachability:
    def test_every_module_is_reached_from_an_entry_point(self):
        modules = {module for module in _MODULES if not _is_package(module)}
        unreached = sorted(modules - _reached_modules() - TEST_ORACLES)
        assert not unreached, (
            f"modules no CLI command, benchmark or script imports: {unreached}"
        )

    def test_test_oracles_are_real_and_unreached(self):
        """The allowlist names existing modules that no run needs."""
        assert TEST_ORACLES <= set(_MODULES)
        assert not TEST_ORACLES & _reached_modules()


# Docs whose backticked module names must resolve. perfbench/README.md is
# left out: its metric names (``sim.kernel.self_s``) only look like modules.
DOCS = ["README.md", "DESIGN.md", "ARCHITECTURE.md", "EXPERIMENTS.md"] + sorted(
    str(path.relative_to(ROOT)) for path in (ROOT / "docs").glob("*.md")
)
_SUBPACKAGES = sorted(
    module.name for module in pkgutil.iter_modules(repro.__path__) if module.ispkg
)
_DOTTED = re.compile(
    r"(?<![\w./])(repro(?:\.\w+)+|(?:%s)(?:\.\w+)+)" % "|".join(_SUBPACKAGES)
)


def _doc_references():
    """``(doc, name)`` for each dotted module name inside inline code."""
    refs = set()
    for doc in DOCS:
        text = re.sub(r"```.*?```", "", (ROOT / doc).read_text(), flags=re.S)
        for span in re.findall(r"`([^`\n]+)`", text):
            refs.update((doc, match) for match in _DOTTED.findall(span))
    return sorted(refs)


def _resolve(name):
    """Import the longest module prefix of ``name``, then walk attributes."""
    parts = name.removeprefix("repro.").split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module("repro." + ".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


class TestDocReferences:
    def test_docs_cite_modules(self):
        assert len(_doc_references()) > 50

    @pytest.mark.parametrize("doc, name", _doc_references())
    def test_reference_resolves(self, doc, name):
        _resolve(name)
