import math

import numpy as np
import pytest
from scipy.stats import kstest

from symmix import (EuclideanParam, FitConfig, MCSummary, ScenarioSpec, noise_cdf,
                    replication_rng, run_scenario, sample_mixture, sample_noise)

THETA0 = EuclideanParam(0.25, -1.0, 2.0)


def test_sampler_deterministic_per_replication():
    spec = ScenarioSpec("gauss", THETA0, 50, 3, 42)
    a = sample_mixture(spec, 1).values
    b = sample_mixture(spec, 1).values
    c = sample_mixture(spec, 2).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampler_degenerate_bernoulli():
    spec = ScenarioSpec("gauss", EuclideanParam(1e-15, -50.0, 2.0), 2000, 1, 9)
    x = sample_mixture(spec, 0).values
    # no draw lands anywhere near the (vanishing-weight) first component
    assert np.all(x > -20.0)


def test_laplace_mean_absolute_value():
    rng = replication_rng(1, 0)
    eps = sample_noise("laplace", 1_000_000, rng)
    se = eps.std(ddof=1) / math.sqrt(eps.size)
    assert abs(np.mean(np.abs(eps)) - 1.0) <= 3.0 * se


def test_asym_mixture_moments():
    lam = 0.6
    rng = replication_rng(2, 0)
    eps = sample_noise("asym_gauss_mix", 1_000_000, rng, mix_lambda=lam)
    # caption-exact sampler: mean 0, variance 2 + lam/4 + lam^2/(4(1-lam))
    var_expected = 2.0 + 0.25 * lam + 0.25 * lam ** 2 / (1.0 - lam)
    se_mean = eps.std(ddof=1) / math.sqrt(eps.size)
    assert abs(eps.mean()) <= 3.0 * se_mean
    m4 = np.mean((eps - eps.mean()) ** 4)
    se_var = math.sqrt((m4 - eps.var() ** 2) / eps.size)
    assert abs(eps.var(ddof=1) - var_expected) <= 3.0 * se_var


@pytest.mark.parametrize("family,lam", [("gauss", None), ("cauchy", None),
                                        ("laplace", None), ("asym_gauss_mix", 0.55)])
def test_noise_distribution_ks(family, lam):
    rng = replication_rng(3, 7)
    eps = sample_noise(family, 100_000, rng, mix_lambda=lam)
    stat = kstest(eps, lambda x: noise_cdf(family, x, mix_lambda=lam)).statistic
    critical_1pct = 1.628 / math.sqrt(eps.size)
    assert stat < critical_1pct


def test_scenario_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec("weibull", THETA0, 100, 10, 1)
    with pytest.raises(ValueError):
        ScenarioSpec("gauss", THETA0, 5, 10, 1)
    with pytest.raises(ValueError):
        ScenarioSpec("asym_gauss_mix", THETA0, 100, 10, 1)  # missing lambda
    with pytest.raises(ValueError):
        ScenarioSpec("gauss", THETA0, 100, 10, -3)
    with pytest.raises(ValueError, match="mix_lambda applies only to asym_gauss_mix"):
        ScenarioSpec("gauss", THETA0, 100, 10, 1, mix_lambda=0.3)


def test_run_scenario_deterministic_and_summarized():
    spec = ScenarioSpec("gauss", THETA0, 60, 3, 2024)
    cfg = FitConfig(starts=4)
    a = run_scenario(spec, cfg)
    b = run_scenario(spec, cfg)
    assert isinstance(a, MCSummary)
    assert a.to_dict() == b.to_dict()
    assert a.failures + sum(1 for d in a.per_replication if d.get("converged")) == 3
    if a.empirical_means is not None:
        assert a.empirical_means.shape == (3,)


def test_run_scenario_single_replication_has_no_sds():
    spec = ScenarioSpec("gauss", THETA0, 60, 1, 77)
    out = run_scenario(spec, FitConfig(starts=4))
    assert out.empirical_sds is None
    assert out.to_dict()["empirical_sds"] is None


def test_run_scenario_parallel_matches_serial():
    spec = ScenarioSpec("gauss", THETA0, 60, 4, 11)
    cfg = FitConfig(starts=4)
    serial = run_scenario(spec, cfg, jobs=1)
    parallel = run_scenario(spec, cfg, jobs=2)
    assert serial.to_dict() == parallel.to_dict()


@pytest.mark.parametrize("jobs, replications, cpus, workers", [
    (5000, 2, 8, 2), (5000, 20, 3, 3), (2, 20, 8, 2)])
def test_run_scenario_caps_workers(monkeypatch, jobs, replications, cpus, workers):
    # a pool starts all its workers at once under fork, so the cap is on
    # what the executor is asked for; the fake one runs the tasks in process
    import symmix.simulate

    asked = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(symmix.simulate, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(symmix.simulate, "_cpus", lambda: cpus)
    spec = ScenarioSpec("gauss", THETA0, 60, replications, 5)
    summary = run_scenario(spec, FitConfig(starts=1), jobs=jobs)
    assert asked == [workers]
    assert summary.to_dict() == run_scenario(spec, FitConfig(starts=1)).to_dict()
