"""Repository-level API conventions.

Meta-tests keeping the public surface disciplined: everything exported is
importable and documented, `__all__` lists are accurate, the figure
registry stays in sync with the experiment modules, the runtime imports
stay light, and the module names the docs cite still exist.
"""

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
