"""The benchmark's closed-loop workloads.

Each workload makes its inputs from the seed, runs one operation per call of
``op(i)`` through symmix's public functions, and checks the output with
``check``, which returns None or the reason the operation failed.  Operation
``i >= 0`` is the i-th measured one; negative ``i`` are the untimed warm-up
operations of set-up, drawn from streams the measured ones never use.

Calls go through module attributes (``symmix.fit``, ``symmix.cli.main``)
so the traced run's hooks see them.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import symmix
import symmix.cli

# replication streams of warm-up operations start here, far from measured ones
WARMUP_STREAM = 2 ** 40

GAUSS = ("gauss", (0.25, -1.0, 2.0))
CAUCHY = ("cauchy", (0.2, 1.0, 5.0))
LAPLACE = ("laplace", (0.25, -1.0, 2.0))

# grid points of the leave-one-out warm-up operations
LOO_WARMUP_POINTS = 16

# criterion-4 tolerances of the acceptance suite, as (reference, tolerance)
RAINFALL_P = (0.15, 0.05)
RAINFALL_ALPHA = (12.7, 2.0)
RAINFALL_BETA = (38.5, 2.0)
RAINFALL_RENORM = (0.964, 0.02)


class FitWorkload:
    """One ``sample_mixture`` plus one ``fit`` per operation.

    Operations cycle through ``rows`` (family, theta0); operation i draws
    replication i // len(rows) of its row.  With ``se_bound`` the estimate
    must also lie within that many standard errors of theta0.

    ``DegenerateFit`` is fit's documented outcome for a sample that looks
    one-component.  At n = 100 it happens to about one replication in 1,000
    (3 of operations 0-999 of seeds 31, 32 and 33 together; seed 30,
    operation 38 is one too); symmix's Monte Carlo runner records it as a
    failed replication.  Up to ``degenerate_max`` distinct operations of a
    run may end so; any further one is a failure.
    ``probe_mib`` selects the memory probe of that size (see speed.py).
    """

    def __init__(self, name, rows, n, seed, window, overhead_ops, se_bound=None,
                 degenerate_max=0, probe_mib=0):
        self.name = name
        self.probe_mib = probe_mib
        self.degenerate_max = degenerate_max
        self.degenerate: set[int] = set()    # operations that raised DegenerateFit
        self.specs = [symmix.ScenarioSpec(family, symmix.EuclideanParam(*theta0), n, 1, seed)
                      for family, theta0 in rows]
        self.window = window
        self.overhead_ops = overhead_ops
        self.se_bound = se_bound
        self.box = symmix.FitConfig().box

    def setup(self):
        """Inputs are drawn inside each operation from (seed, operation index)."""

    def op(self, i: int):
        spec = self.specs[i % len(self.specs)]
        replication = i // len(self.specs) if i >= 0 else WARMUP_STREAM - i
        sample = symmix.sample_mixture(spec, replication)
        try:
            return spec.theta0, symmix.fit(sample)
        except symmix.DegenerateFit as exc:
            self.degenerate.add(i)
            return spec.theta0, exc

    def check(self, out) -> str | None:
        theta0, res = out
        if isinstance(res, symmix.DegenerateFit):
            if len(self.degenerate) > self.degenerate_max:
                return f"degenerate fit {len(self.degenerate)} of this run: {res}"
            return None
        th = res.theta_hat
        est = np.array([th.p, th.alpha, th.beta])
        if not np.all(np.isfinite(est)):
            return f"non-finite estimate {est}"
        if not res.converged:
            return f"fit not converged at {est}"
        if not (self.box.p_low <= th.p <= self.box.p_high
                and abs(th.alpha - th.beta) >= self.box.sep_min):
            return f"estimate {est} outside the parameter box"
        if self.se_bound is not None:
            se = np.asarray(res.std_errors)
            truth = np.array([theta0.p, theta0.alpha, theta0.beta])
            if not np.all(np.isfinite(se) & (se > 0.0)):
                return f"standard errors {se} not positive and finite"
            if np.any(np.abs(est - truth) > self.se_bound * se):
                return f"estimate {est} more than {self.se_bound} SE from {truth}"
        return None

    def rmse(self, outs) -> tuple[float, float]:
        """Root mean squared error of p and of the two locations against theta0."""
        dp, dloc = [], []
        for theta0, res in outs:
            if isinstance(res, symmix.DegenerateFit):
                continue
            th = res.theta_hat
            dp.append(th.p - theta0.p)
            dloc += [th.alpha - theta0.alpha, th.beta - theta0.beta]
        return math.sqrt(np.mean(np.square(dp))), math.sqrt(np.mean(np.square(dloc)))


class RainfallWorkload:
    """``symmix density`` on the bundled rainfall data, called in process.

    The seed permutes the rows of the data, which changes the input file but
    not the estimate beyond rounding.
    """

    def __init__(self, name, seed, workdir, window, overhead_ops):
        self.name = name
        self.seed = seed
        self.window = window
        self.overhead_ops = overhead_ops
        self.probe_mib = 0
        self.csv = os.path.join(workdir, "rainfall.csv")
        self.out = os.path.join(workdir, "curve.csv")
        self.values = None

    def setup(self):
        values = symmix.cli.read_numeric_csv(symmix.cli.rainfall_path())
        self.values = values[np.random.default_rng(self.seed).permutation(values.size)]
        with open(self.csv, "w", encoding="utf-8") as fh:
            fh.write("rainfall_inches\n" + "".join(f"{float(v)!r}\n" for v in self.values))

    def op(self, i: int):
        return symmix.cli.main(["density", self.csv, "--out", self.out])

    def check(self, code) -> str | None:
        if code != 0:
            return f"symmix density exited with {code}"
        with open(self.out + ".meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        th = meta["manifest"]["config"]["theta"]
        rows = np.loadtxt(self.out, delimiter=",", skiprows=1, ndmin=2)
        if not np.all(np.isfinite(rows)):
            return "non-finite value in the density output"
        problem = _rainfall_problem(th["p"], th["alpha"], th["beta"])
        if problem:
            return problem
        if abs(meta["renorm_factor"] - RAINFALL_RENORM[0]) > RAINFALL_RENORM[1]:
            return f"renormalization {meta['renorm_factor']} outside {RAINFALL_RENORM}"
        g_n, recon = rows[:, 3], rows[:, 4]
        if np.max(np.abs(recon - g_n)) > 1e-3 * np.max(g_n):
            return "g_reconstructed disagrees with g_n"
        return None


class RainfallLooWorkload(RainfallWorkload):
    """Leave-one-out on the rainfall data: the per-observation refits and density.

    Set-up fits the full sample once.  One operation is
    ``leave_one_out_thetas`` plus ``estimate_density`` in leave-one-out mode
    on ``points`` grid points spanning the library's default grid; the
    warm-up operations run the same code on LOO_WARMUP_POINTS points.
    """

    def __init__(self, name, seed, workdir, window, overhead_ops, points):
        super().__init__(name, seed, workdir, window, overhead_ops)
        self.points = points
        self.sample = None
        self.theta_hat = None

    def setup(self):
        super().setup()
        self.sample = symmix.Sample(self.values)
        self.theta_hat = symmix.fit(self.sample).theta_hat

    def op(self, i: int):
        thetas = symmix.leave_one_out_thetas(self.sample, self.theta_hat)
        bandwidth = symmix.default_bandwidth(self.sample.n)
        xs = symmix.default_grid(self.sample, self.theta_hat, bandwidth,
                                 self.points if i >= 0 else LOO_WARMUP_POINTS)
        cfg = symmix.DensityConfig(bandwidth=bandwidth, grid=(xs[0], xs[-1], xs.size),
                                   theta_mode="leave_one_out")
        return thetas, symmix.estimate_density(self.sample, self.theta_hat, cfg,
                                               loo_thetas=thetas)

    def check(self, out) -> str | None:
        thetas, curve = out
        th = self.theta_hat
        problem = _rainfall_problem(th.p, th.alpha, th.beta)
        if problem:
            return problem
        if len(thetas) != self.sample.n:
            return f"{len(thetas)} leave-one-out estimates for {self.sample.n} observations"
        if not all(math.isfinite(t.p) and math.isfinite(t.alpha) and math.isfinite(t.beta)
                   for t in thetas):
            return "non-finite leave-one-out estimate"
        if not math.isfinite(curve.renorm_factor):
            return f"leave-one-out renormalization {curve.renorm_factor} not finite"
        return None


def _rainfall_problem(p, alpha, beta) -> str | None:
    for (ref, tol), value, label in ((RAINFALL_P, p, "p"), (RAINFALL_ALPHA, alpha, "alpha"),
                                     (RAINFALL_BETA, beta, "beta")):
        if abs(value - ref) > tol:
            return f"{label} = {value} outside {ref} +- {tol}"
    return None


def make(name: str, seed: int, workdir: str, **sizes):
    """Build a workload at its benchmark size; ``sizes`` shrinks it for tests."""
    if name == "mc_n100":
        # up to about 150 operations a run expect 0.15 degenerate fits: a third
        # comes once in 2,000 runs, a second once in 100, and at a rate ten
        # times higher a third once in five
        kw = dict(n=100, window=30, overhead_ops=6, degenerate_max=2)
        kw.update(sizes)
        return FitWorkload(name, [GAUSS, CAUCHY, LAPLACE], seed=seed, **kw)
    if name == "large_n":
        # its O(nQ) arrays are allocated and streamed: so is the probe's
        kw = dict(n=50_000, window=3, overhead_ops=2, se_bound=5.0, probe_mib=64)
        kw.update(sizes)
        return FitWorkload(name, [GAUSS], seed=seed, **kw)
    if name == "rainfall":
        kw = dict(window=3, overhead_ops=2)
        kw.update(sizes)
        return RainfallWorkload(name, seed, workdir, **kw)
    if name == "rainfall_loo":
        # an eighth of the default 512 points keeps several operations in a run
        kw = dict(window=1, overhead_ops=1, points=64)
        kw.update(sizes)
        return RainfallLooWorkload(name, seed, workdir, **kw)
    raise ValueError(f"unknown workload {name!r}")
