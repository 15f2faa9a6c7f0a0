"""Tests of the benchmark harness, on its workloads shrunk to tiny sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(run.SRC))
import symmix  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "mc_n100": dict(window=3, overhead_ops=2),
    "large_n": dict(n=2000, window=2, overhead_ops=1),
    "rainfall": dict(window=1, overhead_ops=1),
    "rainfall_loo": dict(window=1, overhead_ops=1, points=16),
}
EXACT = ["contrast.nodes", "contrast.precompute_bytes", "contrast.precompute_peak_mib",
         "estimator.evals_per_fit", "estimator.restarts_agreeing_frac",
         "estimator.covariance_peak_mib", "density.u_nodes", "rmse_p", "rmse_loc"]


def tiny_run(name, seed, trace, workdir):
    workdir.mkdir()
    return run.run(name, seed, 0.0, trace, workdir, setup_reps=1, **TINY[name])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: one untraced run and two traced runs, all with seed 7."""
    out = {}
    for name in run.WORKLOADS:
        base = tmp_path_factory.mktemp(name)
        out[name] = [tiny_run(name, 7, trace, base / str(k))
                     for k, trace in enumerate((0, 1, 1))]
    return out


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_emitted_with_unit(runs, name):
    untraced, traced, _ = runs[name]
    for result, key, section in ((untraced, "end_to_end", "end_to_end"),
                                 (traced, "per_layer", "per_layer")):
        assert not result["ledger"].failures
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        got = {k: unit for k, (_, unit) in result[key].items()}
        assert got == expected
        assert all(math.isfinite(v) for v, _ in result[key].values())
    assert all(v > 0.0 for v, _ in untraced["end_to_end"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_layer_self_times_add_up_to_operation_time(runs, name):
    metrics = {k: v for k, (v, _) in runs[name][1]["per_layer"].items()}
    layers = sum(metrics[f"{m}.self_s"] for m in run.MODULES) + metrics["trace.unattributed_s"]
    assert layers == pytest.approx(metrics["trace.op_s_mean"], rel=1e-3)
    assert metrics["trace.unattributed_s"] < 0.01 * metrics["trace.op_s_mean"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_repeats_exact_counts(runs, name):
    first, second = (r["per_layer"] for r in runs[name][1:])
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["contrast.nodes"][0] > 0
    assert (first["estimator.evals_per_fit"][0] > 0) == (name != "rainfall_loo")
    assert (first["density.u_nodes"][0] > 0) == name.startswith("rainfall")


def test_other_seed_changes_inputs(tmp_path):
    for name in ("mc_n100", "large_n"):
        a, a2, b = (workloads.make(name, seed, str(tmp_path), **TINY[name]) for seed in (7, 7, 8))
        draw = [symmix.sample_mixture(wl.specs[0], 0).values for wl in (a, a2, b)]
        assert (draw[0] == draw[1]).all() and not (draw[0] == draw[2]).all()
    texts = []
    for seed in (7, 7, 8):
        wl = workloads.make("rainfall", seed, str(tmp_path), **TINY["rainfall"])
        wl.setup()
        texts.append(Path(wl.csv).read_text())
    assert texts[0] == texts[1] != texts[2]
    assert sorted(texts[0].split()) == sorted(texts[2].split())


def test_degenerate_fits_pass_up_to_their_allowance(tmp_path, monkeypatch):
    def degenerate(sample):
        raise symmix.DegenerateFit("one-component")

    monkeypatch.setattr(symmix, "fit", degenerate)
    wl = workloads.make("mc_n100", 7, str(tmp_path), window=10)
    assert wl.check(wl.op(0)) is None
    assert wl.check(wl.op(0)) is None            # the same operation again
    assert wl.check(wl.op(1)) is None
    assert wl.check(wl.op(2)) is not None        # a third one in the run
    large = workloads.make("large_n", 7, str(tmp_path), **TINY["large_n"])
    assert large.check(large.op(0)) is not None


def test_missing_hook_target_fails():
    tracer = spans.Tracer()
    with pytest.raises(AttributeError):
        tracer.hook("symmix", "ContrastEvaluator.no_such_method", "contrast.gone")
    with pytest.raises(AttributeError):
        tracer.hook("symmix.density", "_no_such_function", "density.gone")
    assert not tracer._saved


def test_failed_check_fails_the_run(tmp_path, monkeypatch, capsys):
    make = workloads.make

    def failing(name, seed, workdir, **sizes):
        wl = make(name, seed, workdir, **TINY[name])
        wl.check = lambda out: "forced failure"
        return wl

    monkeypatch.setattr(workloads, "make", failing)
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", "mc_n100", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False and result["failed"] == result["attempted"] > 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "mc_n100",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
