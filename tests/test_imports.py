"""Every module-level import of a symmix module is used in it, and every
private definition of the package is referenced in it.

The package's `__init__` imports to re-export and is left out of the import
check; a name a module lists in its own `__all__` counts as used.  A private
function, class or method (one name with a single leading underscore) that
only the tests call is dead code, so only references in src/symmix count.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "symmix"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_is_found():
    tree = ast.parse("import os\nfrom math import pi, tau\nfrom x import y as z\n"
                     "__all__ = ['tau']\nprint(pi)\n")
    assert unused_imports(tree) == ["line 1: os", "line 3: z"]


def unreferenced_private_definitions(trees: dict[str, ast.Module]) -> list[str]:
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [f"{module} line {node.lineno}: {node.name}"
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in referenced]


def test_every_private_definition_is_referenced():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_definitions(trees) == []


def test_unreferenced_private_definition_is_found():
    trees = {"a": ast.parse("def _used():\n    pass\n\nclass _Dead:\n"
                            "    def _method(self):\n        return _used()\n"),
             "b": ast.parse("import a\n\n\ndef __dunder__():\n    a._Dead()._gone\n"
                            "\n\ndef _helper():\n    pass\n")}
    assert unreferenced_private_definitions(trees) == ["a line 5: _method", "b line 8: _helper"]
