"""Source hygiene: no unused imports, an export list that matches the package's
lazy export table, and one serialization path.

The unused-import check reads the source with the standard library's ``ast``.
An import statement marked ``# noqa: F401`` is exempt from the unused-import
check; it is kept for a reader outside the module, such as a benchmark that
wraps the name.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import bruhat_cubulator

_ROOT = Path(__file__).resolve().parents[1]
_SOURCES = sorted((_ROOT / "src" / "bruhat_cubulator").glob("*.py")) + sorted(
    (_ROOT / "tests").glob("*.py")
)


def _imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """The names that the module's import statements bind, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads: in code, in quoted annotations and in __all__."""
    used = set()
    quoted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            args = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            quoted += [x.annotation for x in args if x is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            quoted.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    for annotation in filter(None, quoted):
        for c in ast.walk(annotation):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                expr = ast.parse(c.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path) -> list[str]:
    text = path.read_text()
    tree = ast.parse(text)
    used = _used_names(tree)
    imported = _imported_names(tree, text.splitlines())
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_all_matches_the_package_imports():
    """``__all__`` is the lazy export table's names, and each name is its module's object."""
    table = bruhat_cubulator._EXPORTS
    names = [name for module_names in table.values() for name in module_names]
    assert len(set(names)) == len(names), "a name exported twice"
    assert bruhat_cubulator.__all__ == sorted(names)
    for module, module_names in table.items():
        submodule = importlib.import_module(f"bruhat_cubulator.{module}")
        for name in module_names:
            assert getattr(bruhat_cubulator, name) is getattr(submodule, name), name
    assert set(names) <= set(dir(bruhat_cubulator))
    star = {}
    exec("from bruhat_cubulator import *", star)
    assert all(star[name] is getattr(bruhat_cubulator, name) for name in names)
    with pytest.raises(AttributeError, match="no_such_name"):
        bruhat_cubulator.no_such_name


def test_one_serialization_path():
    """Only ``serialize`` calls ``json.dumps``, so every document goes through
    ``serialize.dumps``, the name the benchmark times."""
    package = sorted((_ROOT / "src" / "bruhat_cubulator").glob("*.py"))
    callers = [p.name for p in package if "json.dumps(" in p.read_text()]
    assert callers == ["serialize.py"]
