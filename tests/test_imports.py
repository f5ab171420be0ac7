"""Every name a package module imports is used in that module.

A name kept on purpose (a re-export) carries ``# noqa: F401`` on its
import line.  ``__init__.py`` re-exports by design and is not checked.
"""

import ast
from pathlib import Path

import pytest

import tsu11

MODULES = sorted(p for p in Path(tsu11.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
