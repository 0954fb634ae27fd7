"""Every module-level import of the package is used or re-exported, and
every module-level private name is referenced somewhere in the package."""
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


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants (one leading
    underscore) of the given modules, keyed by module name, that no module
    loads, reads as an attribute or imports."""
    defined = {}
    used: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module} line {node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)


def test_no_unused_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_guard_sees_an_unused_private_name():
    sources = {
        "a.py": "def _f():\n    pass\n_K = 1\nclass _C:\n    pass\n_M = 3\n",
        "b.py": "from a import _C\nimport a\n_L: int = 2\nprint(_L, a._K)\n",
    }
    assert unused_private_names(sources) == ["_M (a.py line 6)", "_f (a.py line 1)"]
