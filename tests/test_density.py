import math

import numpy as np
import pytest

from symmix import (DensityConfig, EmptyPositivePart, EuclideanParam,
                    Sample, ScenarioSpec, default_bandwidth, default_grid,
                    deconvolved_density_values, estimate_density, estimate_g,
                    leave_one_out_thetas, reconstruct_mixture, sample_mixture)
from symmix import contrast, density
from symmix.cli import rainfall_path, read_numeric_csv
from symmix.params import m_modulus_sq

THETA0 = EuclideanParam(0.25, -1.0, 2.0)


def gauss_sample(n, rep=0, seed=123):
    return sample_mixture(ScenarioSpec("gauss", THETA0, n, 1, seed), rep)


def test_default_bandwidth_rules():
    assert default_bandwidth(70) == pytest.approx(2.0 * 70 ** -0.25)
    assert default_bandwidth(70) == pytest.approx(0.69144, abs=1e-4)
    with pytest.raises(ValueError, match="need n >= 2"):
        default_bandwidth(1)


def test_estimate_g_single_observation_is_kernel():
    sample = Sample([0.0, 0.0])  # two equal points: still the kernel at 0
    cfg = DensityConfig(bandwidth=1.0, grid=(-4.0, 4.0, 161))
    curve = estimate_g(sample, cfg)
    expected = np.exp(-0.5 * curve.xs ** 2) / math.sqrt(2 * math.pi)
    assert np.allclose(curve.values, expected, atol=1e-12)
    assert np.all(curve.values >= 0.0)


def test_estimate_g_integrates_to_one():
    sample = gauss_sample(300)
    cfg = DensityConfig(bandwidth=default_bandwidth(300))
    curve = estimate_g(sample, cfg)
    assert np.trapezoid(curve.values, curve.xs) == pytest.approx(1.0, abs=1e-3)


def test_density_estimate_at_truth_is_accurate():
    sample = gauss_sample(1000, rep=1)
    val = deconvolved_density_values(sample, THETA0, default_bandwidth(1000), [0.0])
    assert abs(val[0] - 1.0 / math.sqrt(2 * math.pi)) <= 0.05


def test_density_curve_invariants():
    sample = gauss_sample(200, rep=2)
    cfg = DensityConfig(bandwidth=default_bandwidth(200))
    curve = estimate_density(sample, THETA0, cfg)
    assert np.all(curve.f_tilde >= 0.0)
    assert np.trapezoid(curve.f_tilde, curve.xs) == pytest.approx(1.0, abs=1e-3)
    assert 0.0 < curve.mass_kept <= 1.2


def test_reconstruction_matches_direct_kde():
    # deconvolution leaves geometrically decaying echo copies at spacing
    # alpha - beta, so the interpolating reconstruction needs a grid wide
    # enough to keep the echoes it must cancel
    sample = gauss_sample(150, rep=3)
    from symmix import fit
    theta = fit(sample).theta_hat
    b = default_bandwidth(150)
    base = default_grid(sample, theta, b)
    pad = 8.0 * abs(theta.alpha - theta.beta)
    cfg = DensityConfig(bandwidth=b, grid=(base[0] - pad, base[-1] + pad, 4096))
    curve = estimate_density(sample, theta, cfg)
    recon = reconstruct_mixture(curve, theta, use="f_raw")
    kde = estimate_g(sample, cfg, xs=curve.xs)
    sup_err = np.max(np.abs(recon - kde.values))
    assert sup_err <= 1e-3 * np.max(kde.values)


def test_shifted_direct_evaluation_matches_kde_on_coarse_grid():
    # the exact shifted evaluation is grid-free, unlike curve interpolation
    sample = gauss_sample(150, rep=3)
    from symmix import fit
    theta = fit(sample).theta_hat
    b = default_bandwidth(150)
    xs = np.linspace(-4.0, 5.0, 33)
    fa = deconvolved_density_values(sample, theta, b, xs - theta.alpha)
    fb = deconvolved_density_values(sample, theta, b, xs - theta.beta)
    recon = theta.p * fa + (1.0 - theta.p) * fb
    kde = estimate_g(sample, DensityConfig(bandwidth=b), xs=xs)
    assert np.max(np.abs(recon - kde.values)) <= 1e-3 * np.max(kde.values)


def test_reconstruction_on_default_grid_singles_out_the_fit():
    # the reconstructions above equal the kernel estimate at any theta; the
    # renormalized curve interpolated on its default grid does not, so moving
    # one coordinate 3 standard errors off the fit must widen its L1 gap to
    # the kernel estimate (0.0044 at the fit; 0.153, 0.026, 0.055 moved)
    from symmix import fit
    sample = sample_mixture(ScenarioSpec("gauss", THETA0, 200, 1, 5), 0)
    res = fit(sample)
    cfg = DensityConfig(bandwidth=default_bandwidth(sample.n))

    def l1_gap(t):
        theta = EuclideanParam(*t)
        curve = estimate_density(sample, theta, cfg)
        kde = estimate_g(sample, cfg, xs=curve.xs)
        recon = reconstruct_mixture(curve, theta, use="f_tilde")
        return np.trapezoid(np.abs(recon - kde.values), curve.xs)

    base = res.theta_hat.as_array()
    fitted = l1_gap(base)
    for j in range(3):
        assert l1_gap(base + 3.0 * res.std_errors[j] * np.eye(3)[j]) >= 3.0 * fitted


def test_reconstruction_with_clipped_density_differs():
    sample = gauss_sample(60, rep=4)
    from symmix import fit
    theta = fit(sample).theta_hat
    cfg = DensityConfig(bandwidth=default_bandwidth(60))
    curve = estimate_density(sample, theta, cfg)
    raw = reconstruct_mixture(curve, theta, use="f_raw")
    tilde = reconstruct_mixture(curve, theta, use="f_tilde")
    assert not np.allclose(raw, tilde, atol=1e-6)


def test_reconstruction_degenerate_weight():
    sample = gauss_sample(100, rep=5)
    theta = EuclideanParam(1.0 - 1e-9, 0.5, 99.0)
    cfg = DensityConfig(bandwidth=0.8, grid=(-6.0, 6.0, 301))
    curve = estimate_density(sample, EuclideanParam(0.25, -1.0, 2.0), cfg)
    recon = reconstruct_mixture(curve, theta, use="f_tilde")
    direct = np.interp(curve.xs - 0.5, curve.xs, curve.f_tilde, left=0.0, right=0.0)
    assert np.allclose(recon, direct, atol=1e-8)


def test_default_grid_symmetric_component_support():
    sample = gauss_sample(80, rep=6)
    grid = default_grid(sample, THETA0, 0.5)
    assert grid[0] == pytest.approx(-grid[-1])
    x = sample.values
    radius = np.max(np.minimum(np.abs(x - THETA0.alpha), np.abs(x - THETA0.beta)))
    assert grid[-1] == pytest.approx(radius + 1.5)


def test_leave_one_out_mode():
    sample = gauss_sample(15, rep=7)
    from symmix import fit
    # n = 15 is below the fit floor; reuse a fixed plausible parameter
    theta = THETA0
    loo = [theta] * sample.n
    cfg = DensityConfig(bandwidth=default_bandwidth(15), theta_mode="leave_one_out")
    curve = estimate_density(sample, theta, cfg, loo_thetas=loo)
    cfg_full = DensityConfig(bandwidth=default_bandwidth(15), grid=(curve.xs[0], curve.xs[-1], curve.xs.size))
    full = estimate_density(sample, theta, cfg_full)
    assert np.allclose(curve.f_raw, full.f_raw, atol=1e-10)
    with pytest.raises(ValueError):
        estimate_density(sample, theta, cfg)   # loo mode without thetas


def test_full_sample_mode_rejects_loo_thetas():
    sample = gauss_sample(15, rep=7)
    cfg = DensityConfig(bandwidth=default_bandwidth(15))
    with pytest.raises(ValueError, match="full_sample"):
        estimate_density(sample, THETA0, cfg, loo_thetas=[THETA0] * sample.n)


def test_leave_one_out_refits_feed_density():
    spec = ScenarioSpec("gauss", THETA0, 40, 1, 5)
    sample = sample_mixture(spec, 0)
    from symmix import fit
    res = fit(sample)
    loo = leave_one_out_thetas(sample, res.theta_hat)
    cfg = DensityConfig(bandwidth=default_bandwidth(40), theta_mode="leave_one_out")
    curve = estimate_density(sample, res.theta_hat, cfg, loo_thetas=loo)
    cfg_full = DensityConfig(bandwidth=default_bandwidth(40),
                             grid=(curve.xs[0], curve.xs[-1], curve.xs.size))
    full = estimate_density(sample, res.theta_hat, cfg_full)
    scale = np.max(np.abs(full.f_raw))
    assert np.max(np.abs(curve.f_raw - full.f_raw)) <= 0.15 * scale


def test_symmetry_tendency_with_known_parameter():
    # with the true parameter plugged in, the antisymmetric part of the
    # deconvolved estimate shrinks as n grows (medians over 10 replications)
    xs = np.linspace(0.0, 5.0, 101)
    medians = []
    for n in (250, 1000, 4000):
        asym = []
        for r in range(10):
            s = sample_mixture(ScenarioSpec("gauss", THETA0, n, 10, 314), r)
            b = default_bandwidth(n)
            right = deconvolved_density_values(s, THETA0, b, xs)
            left = deconvolved_density_values(s, THETA0, b, -xs)
            asym.append(np.trapezoid(np.abs(right - left), xs))
        medians.append(float(np.median(asym)))
    assert medians[0] > medians[1] > medians[2]


def test_empty_positive_part():
    sample = gauss_sample(120, rep=8)
    cfg = DensityConfig(bandwidth=default_bandwidth(120))
    curve = estimate_density(sample, THETA0, cfg)
    negative = np.where(curve.f_raw < -1e-6)[0]
    if negative.size == 0:
        pytest.skip("estimate has no negative dip for this draw")
    i = negative[np.argmin(curve.f_raw[negative])]
    lo = curve.xs[max(0, i - 8)]
    hi = curve.xs[min(curve.xs.size - 1, i + 8)]
    with pytest.raises(EmptyPositivePart):
        estimate_density(sample, THETA0,
                         DensityConfig(bandwidth=cfg.bandwidth, grid=(lo, hi, 17)))


# (bandwidth, max_phase_arg) and the node count of linspace(0, u_max, count)
# with count = clip(ceil(u_max / du_target) + 1, 512, 16384): the lower and
# upper clamps, counts that are and are not multiples of the lattice's P =
# ceil(sqrt(count)), and two near rainfall's grids at xs and xs - beta
U_GRID_COUNTS = [
    ((0.1, 0.0), 512),
    ((0.5, 1.0), 512),
    ((0.02, 1000.0), 16384),
    ((0.25, 35.0), 2652),
    ((0.2, 30.0), 2841),
    ((0.69, 84.5), 2320),
    ((0.69, 123.5), 3390),
    # a phase bound past the float range, a numpy scalar as deconvolved_density_values
    # passes it: the node cap, not a rounded infinite ratio
    ((0.69, np.float64(np.inf)), 16384),
]


@pytest.mark.parametrize("args, count", U_GRID_COUNTS)
def test_u_grid_is_a_lattice_of_equispaced_nodes(args, count):
    u, (c, d) = density._u_grid(*args)
    assert u.size == count
    # the lattice u[a P + p] = c[a] + d[p], its last panel cut short at u.size
    assert d.size == math.ceil(math.sqrt(count))
    assert (c.size - 1) * d.size < count <= c.size * d.size
    assert np.array_equal(u, np.add.outer(c, d).ravel()[:count])
    u_max = math.sqrt(2.0 * math.log(1.0 / density._TAIL_EPS)) / args[0]
    ref = np.linspace(0.0, u_max, count)
    assert np.all(np.abs(u - ref) <= 2.0 * np.spacing(ref))
    assert u[1] - u[0] == ref[1] - ref[0]


def _reference_values(sample, theta, bandwidth, xs, loo_thetas=None):
    """The cosine-integral form as two (U x X) outer products, literally.

    Uncentred, with a per-observation loop in leave-one-out mode.
    """
    xs = np.asarray(xs, dtype=float)
    x_data = sample.values
    arg_bound = (np.max(np.abs(x_data)) + np.max(np.abs(xs))
                 + max(abs(theta.alpha), abs(theta.beta)))
    u, _ = density._u_grid(bandwidth, arg_bound)
    trap = np.full(u.size, u[1] - u[0])
    trap[0] *= 0.5
    trap[-1] *= 0.5
    damp = np.exp(-0.5 * (bandwidth * u) ** 2) / (2.0 * math.pi)
    if loo_thetas is None:
        q = damp / m_modulus_sq(theta, u)
        ecf = np.exp(1j * np.outer(u, x_data)).mean(axis=1)
        shift = (theta.p * np.exp(-1j * np.outer(u, xs + theta.alpha))
                 + (1.0 - theta.p) * np.exp(-1j * np.outer(u, xs + theta.beta)))
        return 2.0 * ((q * trap * ecf)[:, None] * shift).real.sum(axis=0)
    out = np.zeros(xs.size)
    for k, th_k in enumerate(loo_thetas):
        q = damp / m_modulus_sq(th_k, u)
        phase = np.exp(1j * u * x_data[k])
        shift = (th_k.p * np.exp(-1j * np.outer(u, xs + th_k.alpha))
                 + (1.0 - th_k.p) * np.exp(-1j * np.outer(u, xs + th_k.beta)))
        out += 2.0 * ((q * trap * phase)[:, None] * shift).real.sum(axis=0)
    return out / sample.n


def _distinct_thetas(n):
    return [EuclideanParam(0.25 + 0.1 * math.sin(k), -1.0 + 0.05 * k, 2.0 - 0.03 * k)
            for k in range(n)]


# the default budget of the shared blocking rule, and one small enough to
# split observations and points into many blocks
BLOCK_BUDGETS = [contrast._BLOCK_ELEMENTS, 2 ** 11]


@pytest.mark.parametrize("budget", BLOCK_BUDGETS)
def test_one_transform_matches_two_outer_products_on_rainfall(budget, monkeypatch):
    from symmix import fit
    monkeypatch.setattr(contrast, "_BLOCK_ELEMENTS", budget)
    sample = Sample(read_numeric_csv(rainfall_path()))
    theta = fit(sample).theta_hat
    b = default_bandwidth(sample.n)
    xs = default_grid(sample, theta, b)
    for points in (xs, xs - theta.alpha, xs - theta.beta):
        got = deconvolved_density_values(sample, theta, b, points)
        assert np.max(np.abs(got - _reference_values(sample, theta, b, points))) <= 1e-12


@pytest.mark.parametrize("budget", BLOCK_BUDGETS)
def test_leave_one_out_matches_per_observation_loop_with_distinct_thetas(budget, monkeypatch):
    monkeypatch.setattr(contrast, "_BLOCK_ELEMENTS", budget)
    sample = gauss_sample(15, rep=7)
    thetas = _distinct_thetas(sample.n)
    b = default_bandwidth(sample.n)
    xs = np.linspace(-5.0, 5.0, 64)
    got = deconvolved_density_values(sample, THETA0, b, xs, loo_thetas=thetas)
    assert np.max(np.abs(got - _reference_values(sample, THETA0, b, xs, thetas))) <= 1e-12
    # the comparison sees which observation carries which parameter
    swapped = _reference_values(sample, THETA0, b, xs, thetas[::-1])
    assert np.max(np.abs(got - swapped)) > 1e-6


@pytest.mark.parametrize("offset", [1e4, 1e6])
def test_translation_equivariance_with_same_u_grid(offset, monkeypatch):
    # data and locations on a 2^-20 lattice, so adding the offset is exact
    # and only the deconvolution itself can break the equivariance
    def lattice(v):
        return np.round(np.asarray(v) * 2.0 ** 20) / 2.0 ** 20

    x = lattice(gauss_sample(200, rep=9).values)
    b = default_bandwidth(x.size)
    xs = np.linspace(-6.0, 6.0, 97)
    thetas = [EuclideanParam(th.p, lattice(th.alpha), lattice(th.beta))
              for th in _distinct_thetas(x.size)]
    nodes = []
    u_grid = density._u_grid

    def counting_u_grid(*args):
        grid = u_grid(*args)
        nodes.append(grid[0].size)
        return grid

    monkeypatch.setattr(density, "_u_grid", counting_u_grid)

    def shifted(th, c):
        return EuclideanParam(th.p, th.alpha + c, th.beta + c)

    for loo in (None, thetas):
        base = deconvolved_density_values(Sample(x), THETA0, b, xs, loo_thetas=loo)
        moved = deconvolved_density_values(
            Sample(x + offset), shifted(THETA0, offset), b, xs,
            loo_thetas=None if loo is None else [shifted(th, offset) for th in loo])
        assert np.max(np.abs(moved - base)) <= 1e-9 * np.max(np.abs(base))
    assert nodes[0] == nodes[1] and nodes[2] == nodes[3]


def test_density_memory_is_bounded_at_large_n():
    import tracemalloc

    sample = gauss_sample(20_000, rep=10)
    b = default_bandwidth(sample.n)
    xs = default_grid(sample, THETA0, b)
    calls = [lambda: deconvolved_density_values(sample, THETA0, b, xs),
             lambda: deconvolved_density_values(sample, THETA0, b, xs,
                                                loo_thetas=[THETA0] * sample.n),
             lambda: estimate_g(sample, DensityConfig(bandwidth=b), xs=xs)]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
