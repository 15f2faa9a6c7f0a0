"""The one block loop, `contrast._map_blocks`: threaded passes equal serial ones bit for bit."""

import ast
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from symmix import (ContrastEvaluator, DensityConfig, EuclideanParam, FitConfig, Sample,
                    ScenarioSpec, contrast, deconvolved_density_values, default_bandwidth,
                    default_contrast_config, default_grid, estimate_g, fit, sample_mixture)
from symmix.estimator import _frame, _loo_scales, _newton_refits, _shift

THETA0 = EuclideanParam(0.25, -1.0, 2.0)
SRC = Path(__file__).resolve().parents[1] / "src" / "symmix"
# small enough that every pass below splits into at least _THREAD_MIN_BLOCKS blocks
BUDGET = 2 ** 12


class _CountingPool(contrast.ThreadPoolExecutor):
    made = 0
    workers = []                          # each pool's max_workers

    def __init__(self, max_workers):
        type(self).made += 1
        type(self).workers.append(max_workers)
        super().__init__(max_workers)


@pytest.fixture()
def small_blocks(monkeypatch):
    """Blocks of BUDGET entries, and a pool that counts how often it is made."""
    monkeypatch.setattr(contrast, "_BLOCK_ELEMENTS", BUDGET)
    monkeypatch.setattr(contrast, "ThreadPoolExecutor", _CountingPool)
    _CountingPool.made = 0
    _CountingPool.workers = []


def _every_pass(sample):
    """Each block pass of the package on `sample`, as named arrays."""
    res = fit(sample)
    frame = _frame(sample)
    ev = frame.ev
    at = _shift(res.theta_hat, -frame.m)
    info, score = ev.information_and_score(at, frame.centred.values)
    b = default_bandwidth(sample.n)
    xs = default_grid(sample, res.theta_hat, b)
    loo = [EuclideanParam(0.25 + 0.01 * np.sin(k), -1.0 + 1e-3 * k, 2.0 - 1e-3 * k)
           for k in range(sample.n)]
    thetas, ok = _newton_refits(frame, _loo_scales(frame.centred.values), at, FitConfig().box)
    return {
        "theta_hat": res.theta_hat.as_array(),
        "covariance": res.covariance,
        "s": ev._s,
        "s2": ev._s2,
        "info": info,
        "score": score,
        "density": deconvolved_density_values(sample, res.theta_hat, b, xs),
        "density_loo": deconvolved_density_values(sample, res.theta_hat, b, xs, loo_thetas=loo),
        "kde": estimate_g(sample, DensityConfig(bandwidth=b), xs=xs).values,
        "refits": thetas,
        "refits_ok": ok,
    }


def test_threaded_passes_equal_serial_bit_for_bit(small_blocks, monkeypatch):
    sample = sample_mixture(ScenarioSpec("gauss", THETA0, 400, 1, 11), 0)
    monkeypatch.setattr(contrast, "_cpus", lambda: 4)
    threaded = _every_pass(sample)
    pools = _CountingPool.made
    monkeypatch.setattr(contrast, "_cpus", lambda: 1)
    serial = _every_pass(sample)
    # the fit's evaluator and covariance, the frame's evaluator, the score pass,
    # four density passes, the KDE and the refits each ran on a pool
    assert pools >= 10 and _CountingPool.made == pools
    for name, want in serial.items():
        got = threaded[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_results_come_in_block_order(small_blocks, monkeypatch):
    monkeypatch.setattr(contrast, "_cpus", lambda: 64)
    count, width = 40, BUDGET // 4        # 4 rows a block, 10 blocks

    def late_first(blk):
        time.sleep(0.002 * (count - blk.start) / count)   # later blocks finish first
        return blk.start, blk.stop

    got = list(contrast._map_blocks(late_first, count, width))
    assert got == [(i, i + 4) for i in range(0, count, 4)]
    # one block's arrays per worker: the pool stays at the cap on a large machine
    assert _CountingPool.workers == [contrast._MAX_WORKERS]


def test_short_pass_or_one_cpu_runs_serially(small_blocks, monkeypatch):
    monkeypatch.setattr(contrast, "_cpus", lambda: 4)
    width = BUDGET                        # one row a block
    below = contrast._THREAD_MIN_BLOCKS - 1
    assert list(contrast._map_blocks(lambda blk: blk.start, below, width)) == list(range(below))
    assert _CountingPool.made == 0
    monkeypatch.setattr(contrast, "_cpus", lambda: 1)
    assert len(list(contrast._map_blocks(lambda blk: blk.start, 100, width))) == 100
    assert _CountingPool.made == 0


def test_block_exception_reaches_caller_and_threads_end(small_blocks, monkeypatch):
    monkeypatch.setattr(contrast, "_cpus", lambda: 4)
    before = threading.active_count()
    seen = []                             # threads alive while each block ran

    def failing(blk):
        seen.append(threading.active_count())
        if blk.start == 13:
            raise ArithmeticError("block 13")
        return blk.start

    with pytest.raises(ArithmeticError, match="block 13"):
        list(contrast._map_blocks(failing, 50, BUDGET))
    assert max(seen) > before             # the blocks ran on pool threads
    assert threading.active_count() == before

    # a pass that succeeds leaves no thread behind either
    sample = Sample(np.linspace(-3.0, 3.0, 400))
    ContrastEvaluator(sample, default_contrast_config(sample))
    assert _CountingPool.made == 2
    assert threading.active_count() == before


def test_blocks_is_called_only_inside_map_blocks():
    # one block loop: a pass that looped over `_blocks` itself would run serially
    calls = []                            # (file, line, enclosing functions) of each call

    def visit(node, where, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing + (node.name,)
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "_blocks":
                calls.append((where, node.lineno, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, where, enclosing)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.name, ())
    assert calls, "no call of _blocks found"
    assert [(where, line) for where, line, enclosing in calls
            if "_map_blocks" not in enclosing] == []
