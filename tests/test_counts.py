"""Exact counts that do not depend on the machine: a change that moves one
changes how the fit searches, how the rule folds or how the density
integrates, and says so here.

The n = 100 fits are the 90 of seed 7, replications 0-29 of the gauss,
cauchy and laplace acceptance rows; the rest are on the rainfall data.
"""

import numpy as np
import pytest

import symmix
from symmix import ContrastEvaluator, DensityConfig, EuclideanParam, Sample, ScenarioSpec
from symmix import density, estimator
from symmix.cli import rainfall_path, read_numeric_csv

ROWS = [("gauss", (0.25, -1.0, 2.0)), ("cauchy", (0.2, 1.0, 5.0)),
        ("laplace", (0.25, -1.0, 2.0))]


def counted(monkeypatch, owner, name, record):
    """Wrap owner.name so each call appends its result to `record`."""
    target = getattr(owner, name)

    def wrapper(*args, **kwargs):
        out = target(*args, **kwargs)
        record.append(out)
        return out
    monkeypatch.setattr(owner, name, wrapper)


@pytest.fixture(scope="module")
def rainfall():
    sample = Sample(read_numeric_csv(rainfall_path()))
    return sample, symmix.fit(sample).theta_hat


def test_n100_fits_evaluations_and_polishes(monkeypatch):
    # an evaluation is a row of the batched value and gradient: the lock-step
    # descents' rows, and one for the objective each fit reports; a round is
    # one batched call, whose fixed numpy overhead is most of its cost at n = 100
    batches, hessians, newtons, screens = [], [], [], []
    counted(monkeypatch, ContrastEvaluator, "_values_gradients", batches)
    counted(monkeypatch, estimator, "_screen", screens)
    counted(monkeypatch, estimator, "_plugin_gradient_hessian", hessians)
    counted(monkeypatch, estimator, "_newton", newtons)
    degenerate = 0
    for family, theta0 in ROWS:
        spec = ScenarioSpec(family, EuclideanParam(*theta0), 100, 1, 7)
        for replication in range(30):
            try:
                symmix.fit(symmix.sample_mixture(spec, replication))
            except symmix.DegenerateFit:
                degenerate += 1
    refused = sum(int(np.count_nonzero(~ok)) for _, ok in newtons)
    counts = {"degenerate": degenerate, "evaluations": sum(map(len, batches)),
              "rounds": len(batches), "hessians": len(hessians),
              "polishes": len(newtons), "refused": refused, "screens": len(screens)}
    assert counts == {"degenerate": 0, "evaluations": 20_491, "rounds": 4_113, "hessians": 172,
                      "polishes": 90, "refused": 0, "screens": 0}


def test_rainfall_default_rule_folds_onto_the_lattice(rainfall):
    sample, _ = rainfall
    ev = estimator._frame(sample).ev
    assert ev.u.size == 128
    assert (ev._c.size, ev._d.size) == (16, 8)


def test_rainfall_default_density_u_grid(rainfall, monkeypatch):
    sample, theta = rainfall
    grids = []
    counted(monkeypatch, density, "_u_grid", grids)
    symmix.estimate_density(sample, theta,
                            DensityConfig(bandwidth=symmix.default_bandwidth(sample.n)))
    assert [u.size for u, _ in grids] == [2_315]


def test_rainfall_leave_one_out_refits_none_refused(rainfall, monkeypatch):
    sample, theta = rainfall
    newtons = []
    counted(monkeypatch, estimator, "_newton", newtons)
    symmix.leave_one_out_thetas(sample, theta)
    flags = np.concatenate([ok for _, ok in newtons])
    assert flags.size == sample.n == 70
    assert np.count_nonzero(~flags) == 0
