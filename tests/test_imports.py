"""Every module-level import of a symmix module is used in it, every
private definition of the package is referenced in it, and each public name
is listed once, in the `__all__` of the module that defines it.

The package's `__init__` imports to re-export and is left out of the import
check; a name a module lists in its own `__all__` counts as used.  A private
function, class or method (one name with a single leading underscore) that
only the tests call is dead code, so only references in src/symmix count.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import symmix

SRC = Path(__file__).resolve().parents[1] / "src" / "symmix"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def listed_names(tree: ast.Module) -> list[str]:
    """The names in the module's literal `__all__`, or [] without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


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
    used.update(listed_names(tree))
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


def export_problems(trees: dict[str, ast.Module]) -> list[str]:
    """Names listed by two modules, or listed by a module that does not define them."""
    problems, owner = [], {}
    for module, tree in trees.items():
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        defined.update(t.id for node in tree.body if isinstance(node, ast.Assign)
                       for t in node.targets if isinstance(t, ast.Name))
        for name in listed_names(tree):
            if name in owner:
                problems.append(f"{name} listed by {owner[name]} and {module}")
            owner.setdefault(name, module)
            if name not in defined:
                problems.append(f"{module} lists {name} but does not define it")
    return problems


def test_each_public_name_is_listed_once_where_it_is_defined():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    assert all(listed_names(tree) for tree in trees.values())
    assert export_problems(trees) == []


def test_export_problem_is_found():
    trees = {"a": ast.parse("from b import g\n__all__ = ['f', 'g']\ndef f():\n    pass\n"),
             "b": ast.parse("__all__ = ['f', 'g']\nf = g = 1\n")}
    assert export_problems(trees) == ["a lists g but does not define it",
                                      "f listed by a and b", "g listed by a and b"]


def test_package_exports_each_name_once():
    assert len(symmix.__all__) == len(set(symmix.__all__))
    assert all(hasattr(symmix, name) for name in symmix.__all__)


def test_import_loads_neither_scipy_optimize_nor_special(checkout_env):
    # scipy.special is imported where samples are drawn and scipy.optimize by
    # the first descent, which loads the L-BFGS-B routine
    code = ("import sys, symmix, symmix.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('scipy.optimize', 'scipy.special'))))\n"
            "symmix.fit(symmix.Sample(symmix.cli.read_numeric_csv(symmix.cli.rainfall_path())))\n"
            "print('scipy.optimize._lbfgsb' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=checkout_env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]", "True"]
