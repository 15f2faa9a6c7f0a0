"""Seeded mixture samplers and a reproducible Monte Carlo runner.

Replication r of a scenario draws from a Philox counter-based generator
keyed by (seed, r), so replications form independent streams that can be
evaluated in any order (or in parallel) with bit-identical results.
Component noise is drawn by inverse CDF for every family; no rejection
sampling anywhere.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .contrast import _cpus
from .errors import SymmixError
from .estimator import _MIN_N, FitConfig, fit
from .params import EuclideanParam, Sample

__all__ = [
    "FAMILIES",
    "ScenarioSpec",
    "MCSummary",
    "replication_rng",
    "sample_noise",
    "sample_mixture",
    "noise_cdf",
    "run_scenario",
]

FAMILIES = ("gauss", "cauchy", "laplace", "asym_gauss_mix")


@dataclass(frozen=True)
class ScenarioSpec:
    family: str
    theta0: EuclideanParam
    n: int
    replications: int
    seed: int
    mix_lambda: float | None = None   # only for asym_gauss_mix

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, choose from {FAMILIES}")
        if self.n < _MIN_N:
            raise ValueError(f"scenario needs n >= {_MIN_N}")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.family == "asym_gauss_mix":
            if self.mix_lambda is None or not 0.0 < self.mix_lambda < 1.0:
                raise ValueError("asym_gauss_mix requires mix_lambda in (0, 1)")
        elif self.mix_lambda is not None:
            raise ValueError("mix_lambda applies only to asym_gauss_mix")


@dataclass(frozen=True)
class MCSummary:
    spec: ScenarioSpec
    empirical_means: np.ndarray | None
    empirical_sds: np.ndarray | None
    per_replication: list = field(repr=False)
    failures: int

    def to_dict(self) -> dict:
        return {
            **asdict(self.spec),
            "empirical_means": None if self.empirical_means is None
            else [float(v) for v in self.empirical_means],
            "empirical_sds": None if self.empirical_sds is None
            else [float(v) for v in self.empirical_sds],
            "failures": self.failures,
            "per_replication": self.per_replication,
        }


def replication_rng(seed: int, replication_index: int) -> np.random.Generator:
    """Independent counter-based stream for one replication."""
    key = (int(seed) << 64) + int(replication_index)
    return np.random.Generator(np.random.Philox(key=key))


def _asym_means(lam: float) -> tuple[float, float]:
    """Means of asym_gauss_mix's two components, weighted lam and 1 - lam; the noise mean is 0."""
    return 0.5, -0.5 * lam / (1.0 - lam)


def sample_noise(family: str, size: int, rng: np.random.Generator,
                 mix_lambda: float | None = None) -> np.ndarray:
    """Draw `size` values of the component noise by inverse CDF.

    scipy.special is imported here and in `noise_cdf`, where it is used, so
    `import symmix` does not load it.
    """
    from scipy.special import ndtri

    un = rng.random(size)
    if family == "gauss":
        return ndtri(un)
    if family == "cauchy":
        return np.tan(np.pi * (un - 0.5))
    if family == "laplace":
        return np.where(un < 0.5, np.log(2.0 * un), -np.log(2.0 * (1.0 - un)))
    if family == "asym_gauss_mix":
        lam = mix_lambda
        pick = rng.random(size) < lam
        mu1, mu2 = _asym_means(lam)
        return np.where(pick, mu1, mu2) + math.sqrt(2.0) * ndtri(rng.random(size))
    raise ValueError(f"unknown family {family!r}")


def noise_cdf(family: str, x, mix_lambda: float | None = None) -> np.ndarray:
    """Analytic CDF of the component noise (distribution-level sampler checks)."""
    from scipy.special import ndtr

    x = np.asarray(x, dtype=float)
    if family == "gauss":
        return ndtr(x)
    if family == "cauchy":
        return 0.5 + np.arctan(x) / np.pi
    if family == "laplace":
        return np.where(x < 0.0, 0.5 * np.exp(x), 1.0 - 0.5 * np.exp(-x))
    if family == "asym_gauss_mix":
        lam = mix_lambda
        mu1, mu2 = _asym_means(lam)
        s = math.sqrt(2.0)
        return lam * ndtr((x - mu1) / s) + (1.0 - lam) * ndtr((x - mu2) / s)
    raise ValueError(f"unknown family {family!r}")


def sample_mixture(spec: ScenarioSpec, replication_index: int) -> Sample:
    """One mixture sample: location alpha with probability p, else beta, plus noise."""
    rng = replication_rng(spec.seed, replication_index)
    th = spec.theta0
    labels = rng.random(spec.n) < th.p
    eps = sample_noise(spec.family, spec.n, rng, spec.mix_lambda)
    return Sample(np.where(labels, th.alpha, th.beta) + eps)


def _one_replication(args):
    spec, fit_cfg, r = args
    sample = sample_mixture(spec, r)
    digest = {"replication": r}
    try:
        res = fit(sample, fit_cfg)
        digest.update({
            "p": res.theta_hat.p, "alpha": res.theta_hat.alpha, "beta": res.theta_hat.beta,
            "contrast": res.contrast_at_opt, "objective": res.objective_at_opt,
            "converged": bool(res.converged),
            "std_errors": [float(s) for s in res.std_errors],
        })
    except SymmixError as exc:
        digest.update({"converged": False, "error": f"{type(exc).__name__}: {exc}"})
    return digest


def run_scenario(spec: ScenarioSpec, fit_cfg: FitConfig | None = None,
                 jobs: int = 1) -> MCSummary:
    """Fit every replication and summarize the converged estimates.

    At most min(jobs, replications, usable CPUs) worker processes run (the
    CPUs this process may run on, `contrast._cpus`); one means no pool.
    Results are merged in replication order whatever the execution order,
    so the summary is byte-identical across jobs settings.
    """
    fit_cfg = fit_cfg or FitConfig()
    tasks = [(spec, fit_cfg, r) for r in range(spec.replications)]
    workers = min(jobs, spec.replications, _cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            digests = list(pool.map(_one_replication, tasks, chunksize=1))
    else:
        digests = [_one_replication(t) for t in tasks]

    ok = [d for d in digests if d.get("converged")]
    failures = spec.replications - len(ok)
    if ok:
        arr = np.array([[d["p"], d["alpha"], d["beta"]] for d in ok])
        means = arr.mean(axis=0)
        sds = arr.std(axis=0, ddof=1) if len(ok) > 1 else None
    else:
        means = sds = None
    return MCSummary(spec=spec, empirical_means=means, empirical_sds=sds,
                     per_replication=digests, failures=failures)
