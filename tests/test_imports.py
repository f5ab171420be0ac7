"""Every name a package module imports is used in that module, and every
public name a package module defines is used by the package or the
benchmark.

A name kept on purpose (a re-export) carries ``# noqa: F401`` on its
import line.  ``__init__.py`` re-exports by design and is not checked for
unused imports; its imports count as uses of the names they export.  A
surface that only the tests call is a second route the tests check in
place of the one the package runs, so it fails here.
"""

import ast
from pathlib import Path

import pytest

import tsu11

PACKAGE = Path(tsu11.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
#: the package and the benchmark: the code whose uses keep a public name
USERS = sorted(PACKAGE.glob("*.py")) + sorted((Path(__file__).parents[1] / "bench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_flags_an_unused_name_and_honours_noqa():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nx = pi\n"
    assert unused_imports(source) == ["line 1: os", "line 3: tau"]


def _defined(stmt) -> set[str]:
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def unused_public_names(modules: dict[str, str], users: list[str]) -> list[str]:
    """Public top-level names of ``modules`` (name -> source) that no
    source in ``users`` reads, imports or takes as an attribute outside
    the statement that defines the name."""
    used = set()
    for source in users:
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            used |= names - _defined(stmt)
    return [f"{module}: {name}" for module, source in modules.items()
            for stmt in ast.parse(source).body for name in sorted(_defined(stmt))
            if not name.startswith("_") and name not in used]


def test_no_public_name_only_the_tests_use():
    modules = {p.name: p.read_text() for p in MODULES}
    assert unused_public_names(modules, [p.read_text() for p in USERS]) == []


def test_public_name_check_flags_self_use_and_skips_private_names():
    m = "def used():\n    pass\ndef only_self():\n    only_self()\nX = 1\n_private = 2\n"
    users = [m, "from m import used\n"]
    assert unused_public_names({"m.py": m}, users) == ["m.py: only_self", "m.py: X"]
