"""Every (module, attribute) that perfbench/run.py hooks must exist, the
symmix.cli ones must be called by `symmix density`, the ones the library
calls itself by one fit and one density, and leave-one-out must
build the evaluator its `contrast.precompute` hook reads.  Each fit, scan
and leave-one-out builds one frame (one robust scale, one evaluator), and
a FitResult keeps none of it: the benchmark keeps every operation's output.

The hook list is read with ast rather than by importing run.py, whose import
sets BLAS thread variables for the whole process.
"""

import ast
import functools
import importlib
import pickle
from pathlib import Path

import numpy as np

import symmix
import symmix.cli
from symmix import estimator

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


def test_cli_hook_targets_are_called_by_density(tmp_path, monkeypatch):
    # a target that still resolves but is no longer called reads 0 in its
    # per-layer metric without any error
    calls = {}

    def counted(attr, target):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return target(*args, **kwargs)
        return wrapper

    names = [attr for module, attr in hook_targets() if module == "symmix.cli"]
    for attr in names:
        calls[attr] = 0
        monkeypatch.setattr(symmix.cli, attr, counted(attr, getattr(symmix.cli, attr)))
    out = tmp_path / "curve.csv"
    assert symmix.cli.main(["density", symmix.cli.rainfall_path(), "--out", str(out)]) == 0
    assert names and all(calls[attr] >= 1 for attr in names), calls


def test_library_hook_targets_are_called_by_fit_and_density(monkeypatch):
    # the package's own functions are the workloads' entry points; every
    # other target outside the CLI is one the library calls itself, and one
    # that is no longer called would read 0 in its per-layer metric
    inner = [(module, attr) for module, attr in hook_targets()
             if module != "symmix.cli" and (module != "symmix" or "." in attr)]
    calls = []
    for module, attr in inner:
        *path, name = attr.split(".")
        counting(monkeypatch, functools.reduce(getattr, path, importlib.import_module(module)),
                 name, calls)
    sample = symmix.Sample(symmix.cli.read_numeric_csv(symmix.cli.rainfall_path()))
    theta_hat = symmix.fit(sample).theta_hat
    symmix.estimate_density(sample, theta_hat,
                            symmix.DensityConfig(bandwidth=symmix.default_bandwidth(sample.n)))
    missing = [f"{module}.{attr}" for module, attr in inner if attr.split(".")[-1] not in calls]
    assert inner and not missing, f"hook targets not called: {missing}"


def test_leave_one_out_builds_one_evaluator(monkeypatch):
    # perfbench's rainfall_loo reads contrast.nodes from the evaluators that
    # leave_one_out_thetas builds, and asserts it is positive
    sample = symmix.Sample(symmix.cli.read_numeric_csv(symmix.cli.rainfall_path()))
    theta_hat = symmix.fit(sample).theta_hat
    built, flags = [], []
    init = symmix.ContrastEvaluator.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    newton = estimator._newton_refits

    def recorded(*args):
        thetas, ok = newton(*args)
        flags.append(ok)
        return thetas, ok

    monkeypatch.setattr(symmix.ContrastEvaluator, "__init__", counted_init)
    monkeypatch.setattr(estimator, "_newton_refits", recorded)
    symmix.leave_one_out_thetas(sample, theta_hat)
    assert len(flags) == 1 and flags[0].all()      # no refit fell back
    assert len(built) == 1 and built[0].u.size > 0


def counting(monkeypatch, owner, attr, calls):
    """Replace owner.attr by a wrapper that appends to `calls` on each call."""
    target = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls.append(attr)
        return target(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


def test_fit_computes_robust_scale_once(monkeypatch):
    sample = symmix.sample_mixture(symmix.ScenarioSpec(
        "gauss", symmix.EuclideanParam(0.25, -1.0, 2.0), 100, 1, 7), 0)
    scales = []
    counting(monkeypatch, estimator, "robust_scale", scales)
    symmix.fit(sample)
    assert len(scales) == 1


def test_scan_builds_one_evaluator_and_two_scales(tmp_path, monkeypatch):
    # the load-time scale, which the command line's weight rule needs and
    # which rejects constant data, is one scale, the frame the other
    built, scales = [], []
    counting(monkeypatch, symmix.ContrastEvaluator, "__init__", built)
    counting(monkeypatch, estimator, "robust_scale", scales)
    out = tmp_path / "scan.csv"
    assert symmix.cli.main(["scan", symmix.cli.rainfall_path(), "--param", "beta",
                            "--range", "35:42:3", "--out", str(out)]) == 0
    assert len(built) == 1 and len(scales) == 2


def test_fit_result_keeps_no_frame():
    # perfbench keeps every fit's output; a frame on it would keep the
    # centred sample, 400 KB at this n
    rng = np.random.default_rng(3)
    x = np.where(rng.random(50_000) < 0.25, -1.0, 2.0) + rng.standard_normal(50_000)
    assert len(pickle.dumps(symmix.fit(symmix.Sample(x)))) < 4096
