"""Source hygiene: no unused imports, no private function that nothing in the
package calls, an export list that matches the package's lazy export table,
and one serialization path.

The unused-import check reads the source with the standard library's ``ast``.
An import statement marked ``# noqa: F401`` is exempt from the unused-import
check; it is kept for a reader outside the module, such as a benchmark that
wraps the name.
"""

from __future__ import annotations

import ast
import importlib
from collections import Counter
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


def _private_functions(tree: ast.Module) -> list[ast.FunctionDef]:
    """The module's ``_name`` functions and methods, dunder methods excluded."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def _references(tree: ast.AST) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_no_orphan_private_functions():
    """Every private function or method in the package is read somewhere in the
    package outside its own body, so code that only tests reach is public."""
    package = sorted((_ROOT / "src" / "bruhat_cubulator").glob("*.py"))
    trees = {p.name: ast.parse(p.read_text()) for p in package}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    orphans = [
        f"{name}:{fn.lineno}: {fn.name}"
        for name, tree in trees.items()
        for fn in _private_functions(tree)
        if refs[fn.name] == _references(fn)[fn.name]
    ]
    assert orphans == []


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
    ``serialize.chunks``, the one encoder."""
    package = sorted((_ROOT / "src" / "bruhat_cubulator").glob("*.py"))
    callers = [p.name for p in package if "json.dumps(" in p.read_text()]
    assert callers == ["serialize.py"]
    # the commands write the pieces as they are made, never the joined text
    assert [p.name for p in package if "dumps(" in p.read_text()] == ["serialize.py"]


def test_edge_list_views_stay_in_bruhat():
    """The package reads the Bruhat edges from their arrays: ``bruhat_edges`` is
    a view for readers outside it, and the Hasse edges are read through
    ``covers``.  No other module reads either view's name, so a ``hasse_edges``
    view put back would be caught too."""
    package = sorted((_ROOT / "src" / "bruhat_cubulator").glob("*.py"))
    readers = [
        f"{p.name}:{node.lineno}"
        for p in package
        if p.name != "bruhat.py"
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("bruhat_edges", "hasse_edges")
    ]
    assert readers == []


def test_key_arithmetic_stays_in_coxeter_and_bruhat():
    """Keys are ``coxeter``'s: an interval's build turns them into ids and its
    action table, and every other module finds an id with ``id_of``.  No
    other module reads a key, the key dict or a key operation."""
    names = ("key_ids", "key", "_key", "_right", "_left", "_act_id", "_identity_key")
    package = sorted((_ROOT / "src" / "bruhat_cubulator").glob("*.py"))
    readers = [
        f"{p.name}:{node.lineno}: {node.attr}"
        for p in package
        if p.name not in ("coxeter.py", "bruhat.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in names
    ]
    assert readers == []


def test_vertex_elements_are_read_by_the_verifier_and_suites_only():
    """The interval's ``vertices`` view makes an Element per vertex, so the
    program reads ids and the letter, below and action arrays instead: only
    ``bruhat``, the independent verifier and the suites read the view.  A
    ``CubicalLattice.vertices()`` call is not a read of it."""
    package = sorted((_ROOT / "src" / "bruhat_cubulator").glob("*.py"))
    readers = []
    for p in package:
        if p.name in ("bruhat.py", "suites.py"):
            continue
        tree = ast.parse(p.read_text())
        exempt = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        if p.name == "search.py":
            verifier = next(
                node
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "verify_certificate_detailed"
            )
            exempt |= set(map(id, ast.walk(verifier)))
        readers += [
            f"{p.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "vertices" and id(node) not in exempt
        ]
    assert readers == []
