"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Monte Carlo criteria use the fixed seed 7 throughout.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from symmix import (ContrastConfig, ContrastEvaluator, EuclideanParam, FitConfig,
                    Sample, ScenarioSpec, build_weight_rule, contrast_gradient,
                    deconvolved_density_values, default_bandwidth, default_contrast_config,
                    empirical_contrast, estimate_density, DensityConfig, fit, m_func,
                    oracle_contrast, run_scenario, sample_mixture, z_score,
                    z_score_gradient)
from symmix.cli import rainfall_path

SEED = 7
THETA_G = EuclideanParam(0.25, -1.0, 2.0)
RULE30 = build_weight_rule(256, 30.0)
CFG30 = ContrastConfig(RULE30, trunc_h=1.0 / 30.0)


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def mc_table_row(family, theta0, n=100, M=100):
    spec = ScenarioSpec(family, theta0, n, M, SEED)
    out = run_scenario(spec, FitConfig())
    assert out.failures <= M // 10, f"too many failed replications: {out.failures}"
    return out.empirical_means, out.empirical_sds


def gauss_gstar(theta):
    def gstar(u):
        u = np.asarray(u, dtype=float)
        return m_func(theta, u) * np.exp(-u * u / 2.0)
    return gstar


def test_criterion_1_table1_gaussian_row():
    means, sds = mc_table_row("gauss", THETA_G)
    ref_m = np.array([0.2389, -0.9848, 1.9458])
    ref_s = np.array([0.0407, 0.2936, 0.2059])
    tol_m = np.array([0.03, 0.15, 0.15])
    mean_err = np.abs(means - ref_m)
    sd_ratio = sds / ref_s
    means_ok = bool(np.all(mean_err <= tol_m))
    sds_ok = bool(np.all((sd_ratio <= 1.5) & (sd_ratio >= 1.0 / 1.5)))
    detail = (f"means={np.round(means, 4).tolist()} |err|={np.round(mean_err, 4).tolist()} "
              f"sds={np.round(sds, 4).tolist()} ratios={np.round(sd_ratio, 3).tolist()}")
    # The reference p-dispersion 0.0407 lies below the parametric Cramer-Rao
    # bound (0.0555) of this exact sampling design, so no estimator can land
    # inside a 1.5x window of it while the rainfall criterion also holds.
    # The sub-check is asserted as stated; the means pass, the p-SD ratio
    # fails, and this failure is expected (see README).
    report(1, "table1-gaussian", means_ok and sds_ok, detail)


def test_criterion_2_table3_cauchy_row():
    means, _ = mc_table_row("cauchy", EuclideanParam(0.2, 1.0, 5.0))
    ref = np.array([0.1987, 0.9888, 5.0116])
    tol = np.array([0.04, 0.2, 0.2])
    err = np.abs(means - ref)
    report(2, "table3-cauchy", bool(np.all(err <= tol)),
           f"means={np.round(means, 4).tolist()} |err|={np.round(err, 4).tolist()}")


def test_criterion_3_table4_laplace_row():
    means, _ = mc_table_row("laplace", THETA_G)
    ref = np.array([0.2447, -1.0103, 1.9886])
    tol = np.array([0.03, 0.2, 0.15])
    err = np.abs(means - ref)
    report(3, "table4-laplace", bool(np.all(err <= tol)),
           f"means={np.round(means, 4).tolist()} |err|={np.round(err, 4).tolist()}")


def test_criterion_4_rainfall_regression():
    sample = Sample(np.loadtxt(rainfall_path(), skiprows=1))
    res = fit(sample)
    th = res.theta_hat
    curve = estimate_density(sample, th, DensityConfig(bandwidth=default_bandwidth(sample.n)))
    # the reference value is the renormalization multiplier applied to the
    # positive part, i.e. 1 / kept-mass (the kept mass itself exceeds 1
    # whenever a negative dip exists, since the raw estimate integrates to 1)
    ok = (abs(th.p - 0.15) <= 0.05 and abs(th.alpha - 12.7) <= 2.0
          and abs(th.beta - 38.5) <= 2.0 and abs(curve.renorm_factor - 0.964) <= 0.02)
    report(4, "rainfall", ok,
           f"theta=({th.p:.4f},{th.alpha:.3f},{th.beta:.3f}) "
           f"renorm={curve.renorm_factor:.4f} mass_kept={curve.mass_kept:.4f}")


def test_criterion_5_oracle_identity():
    gstar = gauss_gstar(THETA_G)
    at_truth = oracle_contrast(gstar, THETA_G, CFG30)
    rng = np.random.default_rng(SEED)
    off_vals = []
    base = THETA_G.as_array()
    while len(off_vals) < 20:
        theta = np.array([rng.uniform(0.05, 0.45), rng.uniform(-3.0, 0.5),
                          rng.uniform(1.0, 4.0)])
        if np.linalg.norm(theta - base) < 0.2 or abs(theta[1] - theta[2]) < 1e-3:
            continue
        off_vals.append(oracle_contrast(gstar, EuclideanParam(*theta), CFG30))
    ok = at_truth <= 1e-10 and min(off_vals) > 1e-4
    report(5, "oracle-identity", ok,
           f"at_truth={at_truth:.3g} min_off={min(off_vals):.3g}")


def test_criterion_6_invariant_suite():
    spec = ScenarioSpec("gauss", THETA_G, 50, 1, SEED)
    sample = sample_mixture(spec, 0)
    checks = {}

    s_base = empirical_contrast(sample, THETA_G, CFG30)
    s_swap = empirical_contrast(sample, EuclideanParam(0.75, 2.0, -1.0), CFG30)
    checks["label_swap"] = abs(s_base - s_swap) <= 1e-10

    c = 1.5
    s_shift = empirical_contrast(Sample(sample.values + c),
                                 EuclideanParam(0.25, -1.0 + c, 2.0 + c), CFG30)
    checks["translation_Sn"] = abs(s_base - s_shift) <= 1e-10

    spec_big = ScenarioSpec("gauss", THETA_G, 300, 1, SEED)
    big = sample_mixture(spec_big, 1)
    res = fit(big)
    res_shift = fit(Sample(big.values + c))
    shift_err = max(abs(res_shift.theta_hat.p - res.theta_hat.p),
                    abs(res_shift.theta_hat.alpha - res.theta_hat.alpha - c),
                    abs(res_shift.theta_hat.beta - res.theta_hat.beta - c))
    checks["translation_fit"] = shift_err <= 1e-6

    # reality of the literal complex double sum
    u = RULE30.nodes
    w = RULE30.weights
    x = sample.values[:20]
    z = np.exp(1j * np.outer(u, x)) / m_func(THETA_G, u)[:, None]
    z = z - np.conj(z)
    tot = np.einsum("qj,qk->q", z, z) - np.einsum("qj,qj->q", z, z)
    s_naive = np.dot(w, tot) * (-0.25 / (20 * 19))
    checks["reality"] = abs(s_naive.imag) <= 1e-10

    rng = np.random.default_rng(SEED)
    count = 10_000
    p = rng.uniform(0.001, 0.499, count)
    a = rng.normal(0.0, 4.0, count)
    b = a + np.sign(rng.random(count) - 0.5) * rng.uniform(0.01, 6.0, count)
    uu = rng.uniform(-30.0, 30.0, count)
    xx = rng.normal(0.0, 3.0, count)
    z_ok = True
    zd_ok = True
    for i in range(count):
        th = EuclideanParam(p[i], a[i], b[i])
        cap = 2.0 / (1.0 - 2.0 * p[i])
        if abs(z_score(th, uu[i], xx[i])) > cap + 1e-9:
            z_ok = False
            break
        cap_d = 4.0 * (1.0 + abs(uu[i])) / (1.0 - 2.0 * p[i]) ** 2
        if np.linalg.norm(z_score_gradient(th, uu[i], xx[i])) > cap_d + 1e-9:
            zd_ok = False
            break
    checks["z_bound"] = z_ok
    checks["zdot_bound"] = zd_ok

    # factorized vs literal double sum at n = 50
    n50 = sample
    fast = empirical_contrast(n50, EuclideanParam(0.4, 0.0, 1.0), CFG30)
    zz = np.exp(1j * np.outer(u, n50.values)) / m_func(EuclideanParam(0.4, 0.0, 1.0), u)[:, None]
    zz = zz - np.conj(zz)
    tot = np.einsum("qj,qk->q", zz, zz) - np.einsum("qj,qj->q", zz, zz)
    naive = float(np.real(np.dot(w, tot)) * (-0.25 / (50 * 49)))
    checks["factorization"] = abs(fast - naive) <= 1e-10

    grad = contrast_gradient(sample, THETA_G, CFG30)
    step = 1e-5
    base = THETA_G.as_array()
    fd = np.empty(3)
    for j in range(3):
        hi, lo = base.copy(), base.copy()
        hi[j] += step
        lo[j] -= step
        fd[j] = (empirical_contrast(sample, EuclideanParam(*hi), CFG30)
                 - empirical_contrast(sample, EuclideanParam(*lo), CFG30)) / (2 * step)
    rel = np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-12))
    checks["gradient_fd"] = rel <= 1e-5

    ok = all(checks.values())
    report(6, "invariants", ok,
           ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in checks.items()))


def test_criterion_7_rate_trends():
    # (a) stochastic error of S_n halves from n=500 to n=2000
    gstar = gauss_gstar(THETA_G)
    rng = np.random.default_rng(SEED)
    thetas = []
    while len(thetas) < 20:
        t = np.array([rng.uniform(0.05, 0.45), rng.uniform(-3.0, 0.5),
                      rng.uniform(1.0, 4.0)])
        if abs(t[1] - t[2]) > 0.05:
            thetas.append(EuclideanParam(*t))
    oracle_vals = np.array([oracle_contrast(gstar, t, CFG30) for t in thetas])

    def rmse(n, reps=40):
        errs = []
        for r in range(reps):
            s = sample_mixture(ScenarioSpec("gauss", THETA_G, n, reps, SEED + 1), r)
            ev = ContrastEvaluator(s, CFG30)
            errs.extend(ev.u_statistic(t) - ov for t, ov in zip(thetas, oracle_vals))
        return float(np.sqrt(np.mean(np.square(errs))))

    ratio = rmse(2000) / rmse(500)
    trend_a = 0.25 <= ratio <= 0.75

    # (b) pointwise density error medians decrease along n = 250, 1000, 4000
    target = 1.0 / math.sqrt(2.0 * math.pi)
    medians = []
    for n in (250, 1000, 4000):
        errs = []
        for r in range(20):
            s = sample_mixture(ScenarioSpec("gauss", THETA_G, n, 20, SEED + 2), r)
            val = deconvolved_density_values(s, THETA_G, default_bandwidth(n), [0.0])[0]
            errs.append(abs(val - target))
        medians.append(float(np.median(errs)))
    trend_b = medians[0] > medians[1] > medians[2]

    # (c) estimation error shrinks from n=100 to n=1000
    med_theta = []
    for n in (100, 1000):
        errs = []
        for r in range(20):
            s = sample_mixture(ScenarioSpec("gauss", THETA_G, n, 20, SEED + 3), r)
            th = fit(s).theta_hat.as_array()
            errs.append(np.linalg.norm(th - THETA_G.as_array()))
        med_theta.append(float(np.median(errs)))
    trend_c = med_theta[1] < med_theta[0]

    ok = trend_a and trend_b and trend_c
    report(7, "rate-trends", ok,
           f"rmse_ratio={ratio:.3f}, density_medians={np.round(medians, 4).tolist()}, "
           f"theta_medians={np.round(med_theta, 4).tolist()}")


def test_criterion_8_clt_coverage():
    spec = ScenarioSpec("gauss", THETA_G, 400, 200, SEED)
    out = run_scenario(spec, FitConfig())
    hits = 0
    used = 0
    for d in out.per_replication:
        if not d.get("converged"):
            continue
        used += 1
        if abs(d["p"] - THETA_G.p) <= 1.96 * d["std_errors"][0]:
            hits += 1
    coverage = hits / used
    ok = used >= 180 and 0.88 <= coverage <= 0.99
    report(8, "clt-coverage", ok, f"coverage={coverage:.3f} over {used} fits")


def test_criterion_9_determinism(tmp_path, checkout_env):
    base = ["simulate", "--family", "gauss", "--theta0", "0.25,-1,2",
            "--n", "80", "--M", "4", "--seed", str(SEED)]

    def run(tag, jobs):
        out = tmp_path / tag
        cmd = [sys.executable, "-m", "symmix.cli", *base,
               "--jobs", str(jobs), "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=checkout_env)
        assert proc.returncode == 0, proc.stderr
        return (out.with_suffix(".csv").read_bytes(), out.with_suffix(".json").read_bytes())

    a = run("a", 1)
    b = run("b", 4)
    c = run("c", 1)
    ok = a == b == c
    report(9, "determinism", ok,
           f"jobs1==jobs4: {a == b}, rerun identical: {a == c}")
