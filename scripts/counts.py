#!/usr/bin/env python3
"""Write the counts of symmix's work that do not depend on the machine to BENCH_counts.json.

The counts are exact: the same code gives the same counts on any machine,
so a change that moves one changes how the fit searches, how the rule folds
or how the density integrates.  tests/test_counts.py recomputes every group
and compares it with the file; a change that moves a count rewrites the file
with this script and says why.

Groups:
  n100_fits         the 90 n = 100 fits of seed 7, replications 0-29 of the
                    gauss, cauchy and laplace acceptance rows: fits that raised
                    DegenerateFit, batched evaluation rows ("evaluations": the
                    lock-step descents' rows and one for the objective each fit
                    reports) and the batched calls that made them ("rounds"),
                    Hessians, Newton polishes and the polishes Newton refused,
                    and screens
  rainfall_lattice  the default rule's folded node count Q on the rainfall data
                    and its panel lattice (centres, offsets)
  rainfall_u_grid   the u-grid node counts of rainfall's default density
  rainfall_loo      rainfall's leave-one-out refits and those Newton refused

Usage:
    python scripts/counts.py
"""

import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import symmix  # noqa: E402
from symmix import density, estimator  # noqa: E402
from symmix.cli import rainfall_path, read_numeric_csv  # noqa: E402

OUT = ROOT / "BENCH_counts.json"
N100_ROWS = [("gauss", (0.25, -1.0, 2.0)), ("cauchy", (0.2, 1.0, 5.0)),
             ("laplace", (0.25, -1.0, 2.0))]


@contextmanager
def recording(owner, name):
    """Wrap owner.name for the block; yields the list of its calls' results."""
    target = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        out = target(*args, **kwargs)
        calls.append(out)
        return out
    setattr(owner, name, wrapper)
    try:
        yield calls
    finally:
        setattr(owner, name, target)


def rainfall():
    """The rainfall sample and its fitted parameter."""
    sample = symmix.Sample(read_numeric_csv(rainfall_path()))
    return sample, symmix.fit(sample).theta_hat


def n100_fits() -> dict:
    degenerate = 0
    with recording(symmix.ContrastEvaluator, "_values_gradients") as batches, \
            recording(estimator, "_screen") as screens, \
            recording(estimator, "_plugin_gradient_hessian") as hessians, \
            recording(estimator, "_newton") as newtons:
        for family, theta0 in N100_ROWS:
            spec = symmix.ScenarioSpec(family, symmix.EuclideanParam(*theta0), 100, 1, 7)
            for replication in range(30):
                try:
                    symmix.fit(symmix.sample_mixture(spec, replication))
                except symmix.DegenerateFit:
                    degenerate += 1
    return {"fits": 3 * 30, "degenerate": degenerate, "evaluations": sum(map(len, batches)),
            "rounds": len(batches), "hessians": len(hessians), "polishes": len(newtons),
            "refused_polishes": sum(int(np.count_nonzero(~ok)) for _, ok in newtons),
            "screens": len(screens)}


def rainfall_lattice(sample) -> dict:
    ev = estimator._frame(sample).ev
    return {"q": int(ev.u.size), "lattice": [int(ev._c.size), int(ev._d.size)]}


def rainfall_u_grid(sample, theta) -> dict:
    with recording(density, "_u_grid") as grids:
        symmix.estimate_density(sample, theta,
                                symmix.DensityConfig(bandwidth=symmix.default_bandwidth(sample.n)))
    return {"u_nodes": [int(u.size) for u, _ in grids]}


def rainfall_loo(sample, theta) -> dict:
    with recording(estimator, "_newton") as newtons:
        symmix.leave_one_out_thetas(sample, theta)
    flags = np.concatenate([ok for _, ok in newtons])
    return {"refits": int(flags.size), "refused": int(np.count_nonzero(~flags))}


def measure() -> dict:
    sample, theta = rainfall()
    return {"n100_fits": n100_fits(), "rainfall_lattice": rainfall_lattice(sample),
            "rainfall_u_grid": rainfall_u_grid(sample, theta),
            "rainfall_loo": rainfall_loo(sample, theta)}


def main():
    OUT.write_text(json.dumps(measure(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
