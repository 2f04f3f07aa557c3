"""Meta-tests: public API hygiene across the whole package.

Checks that hold the library to release quality: every module carries a
docstring, every ``__all__`` name resolves, every public callable is
documented, and the package exposes no accidental top-level junk.
"""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, "repro.")
    if not name.split(".")[-1].startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_module_importable_and_documented(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{name} lacks a docstring"


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol}"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    mod = importlib.import_module(name)
    for attr_name in dir(mod):
        if attr_name.startswith("_"):
            continue
        obj = getattr(mod, attr_name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if getattr(obj, "__module__", None) != name:
            continue  # re-export; documented at its home
        assert obj.__doc__ and obj.__doc__.strip(), (
            f"{name}.{attr_name} lacks a docstring"
        )


def test_top_level_all_is_complete():
    for symbol in repro.__all__:
        assert getattr(repro, symbol, None) is not None


def test_version_matches_pyproject():
    import pathlib
    import re

    pyproject = (
        pathlib.Path(repro.__file__).parents[2] / "pyproject.toml"
    ).read_text()
    declared = re.search(r'version = "([^"]+)"', pyproject).group(1)
    assert repro.__version__ == declared


def test_no_np_unique_outside_nputil():
    """``np.unique`` takes a hash-based path on numpy 2.x that is an order
    of magnitude slower than sort plus mask; the library's one
    distinct-values primitive is :func:`repro.nputil.sorted_unique`."""
    import pathlib

    root = pathlib.Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root)}:{lineno}"
        for path in sorted(root.rglob("*.py"))
        if path.name != "nputil.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "np.unique(" in line
    ]
    assert not offenders, f"np.unique( outside nputil.py: {offenders}"


def _imported_modules(tree) -> set[str]:
    """Dotted names a module's import statements bring in."""
    import ast

    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_engine_does_not_import_graph_properties():
    """Graph probes (degree statistics, BFS sweeps) stay out of the solve
    path: no module under ``repro.engine`` imports
    :mod:`repro.graph.properties`."""
    import ast
    import pathlib

    root = pathlib.Path(repro.__file__).parent
    offenders = [
        str(path.relative_to(root))
        for path in sorted((root / "engine").rglob("*.py"))
        if "repro.graph.properties"
        in _imported_modules(ast.parse(path.read_text()))
    ]
    assert not offenders, f"engine modules import graph properties: {offenders}"


#: dotted ``repro.x[.y...]`` names; the lookbehind skips attribute chains
#: such as ``foo.repro.x`` and path fragments such as ``src/repro``.
_REPRO_NAME = re.compile(r"(?<![\w./])repro(?:\.[A-Za-z_]\w*)+")

#: prose and code that refer to library names by their dotted path.
_NAME_SOURCES = (
    "README.md",
    "DESIGN.md",
    "docs/*.md",
    ".claude/skills/verify/SKILL.md",
    "examples/*.py",
    "src/repro/**/*.py",
)


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute reached from the
    longest importable module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_docs_reference_live_names():
    """Every dotted ``repro.…`` name in the docs, the examples and the
    package source still imports: deleting a module or a public name
    must take its mentions with it."""
    root = pathlib.Path(repro.__file__).parents[2]
    stale = sorted(
        f"{path.relative_to(root)}:{lineno}: {name}"
        for pattern in _NAME_SOURCES
        for path in root.glob(pattern)
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        for name in _REPRO_NAME.findall(line)
        if not _resolves(name)
    )
    assert not stale, "stale repro names:\n" + "\n".join(stale)
