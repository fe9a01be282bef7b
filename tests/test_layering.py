"""The import layering of ``src/folrank``, read from the source with ``ast``:
every import sits at module level, and ``exactla``, the integer linear
algebra at the bottom, imports no other folrank module but ``errors``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "folrank"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _folrank_imports(tree: ast.Module) -> set[str]:
    """The folrank modules that a module imports, by name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.add(node.module or ".")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "folrank":
            found.add(node.module.partition(".")[2] or ".")
        elif isinstance(node, ast.Import):
            found |= {a.name.partition(".")[2] or "." for a in node.names if a.name.split(".")[0] == "folrank"}
    return found


def test_the_modules_are_found():
    assert {p.stem for p in MODULES} >= {"__init__", "errors", "exactla", "groupring", "groups", "ranks"}


def _late_imports(tree: ast.Module) -> list[int]:
    """The lines of the imports inside a function."""
    return [
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert _late_imports(_tree(path)) == []


def test_exactla_imports_only_errors_from_folrank():
    assert _folrank_imports(_tree(SRC / "exactla.py")) == {"errors"}


def test_the_checks_see_late_and_absolute_imports():
    source = "from .groupring import RingMatrix\nimport folrank.groups\n\ndef f():\n    from .errors import InputError\n"
    tree = ast.parse(source)
    assert _folrank_imports(tree) == {"groupring", "groups", "errors"}
    assert _late_imports(tree) == [5]
