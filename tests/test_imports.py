"""Every module of the package and of scripts/ uses each name it imports and
each private name it defines at module level."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "l3doc").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; a name listed in __all__
    counts as read."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(imported - used)


def unused_private_names(source: str) -> list[str]:
    """Module-level `_name` functions, classes and assignments that the
    module never reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(n for n in defined - read if n.startswith("_") and not n.startswith("__"))


def test_checker_flags_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport os.path\nimport sys\n"
              "from a import b as c, d, e\n__all__ = ['e']\nprint(sys, d)\n")
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_private_names():
    source = ("__all__ = []\n_USED = 1\n_SPARE: int = 2\nPUBLIC = 3\n"
              "def _helper():\n    return _USED\n"
              "class _Old:\n    pass\n"
              "def run():\n    _local = 4\n    return _helper()\n")
    assert unused_private_names(source) == ["_Old", "_SPARE"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []
