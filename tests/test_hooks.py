"""Every (module, attribute) that perfbench/run.py hooks must exist.

The hook list is read with ast rather than by importing run.py, whose import
sets BLAS thread variables for the whole process.
"""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def hook_targets():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("no HOOKS list in perfbench/run.py")


def test_every_perfbench_hook_target_resolves():
    targets = hook_targets()
    assert ("symmix.cli", "deconvolved_density_values") in targets
    missing = []
    for module, attr in targets:
        obj = importlib.import_module(module)
        try:
            for name in attr.split("."):
                obj = getattr(obj, name)
        except AttributeError:
            missing.append(f"{module}.{attr}")
    assert not missing, f"perfbench hook targets missing: {missing}"
