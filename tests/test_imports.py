"""Every module-level import of the package is used or re-exported."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pwldyn"


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module neither
    references nor lists in ``__all__``."""
    tree = ast.parse(source)
    bound = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os (line 1)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
