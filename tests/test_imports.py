"""No module under src/skalab imports a name that it never uses, and every
exception class it defines is used by name in another of its modules."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "skalab"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read as a name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_guard_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom math import pi, tau\nprint(tau)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: pi"]


def test_no_unused_imports_in_src():
    problems = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert problems == {}


def test_every_error_class_is_used_outside_errors():
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "errors.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(classes - used) == []
