"""Each CLI command starts on only the modules it runs.

A fresh interpreter runs one command through ``cli.main`` and reports the
modules that were loaded after it started; importing a module costs its
compile and execution in every CLI process.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src"

# prints the exit code and the modules loaded since the interpreter started
_PROBE = """
import sys
before = set(sys.modules)
import contextlib, io, json
argv = sys.argv[1:]
code = None
if argv:
    from bruhat_cubulator import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
else:
    import bruhat_cubulator
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


def _package(*names):
    return tuple(f"bruhat_cubulator.{name}" for name in names)


def loaded(*argv):
    path = os.pathsep.join(p for p in (str(_SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True, env=env, check=True
    )
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


def test_package_import_loads_no_submodule():
    _, modules = loaded()
    assert "bruhat_cubulator" in modules
    assert sorted(m for m in modules if m.startswith("bruhat_cubulator.")) == []


@pytest.mark.parametrize(
    "command,system,absent",
    [
        (
            "interval",
            "A1",
            ("dataclasses", "fractions")
            + _package("search", "cube", "constructions", "growth", "suites"),
        ),
        (
            "cubulate",
            "B3",
            ("dataclasses", "fractions") + _package("constructions", "growth", "suites"),
        ),
        # kl reports a_y as a Fraction
        ("kl", "A3", ("dataclasses",) + _package("search", "constructions", "growth", "suites")),
    ],
    ids=["interval", "cubulate", "kl"],
)
def test_command_loads_only_what_it_runs(command, system, absent):
    code, modules = loaded(command, "--system", system, "--element", "w0")
    assert code == 0
    assert sorted(modules.intersection(absent)) == []


def test_no_source_imports_dataclasses():
    importers = []
    for path in sorted((_SRC / "bruhat_cubulator").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "dataclasses" in modules:
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []
