"""Kernel deconvolution of the component density and the direct mixture KDE.

With a Gaussian kernel the deconvolution estimator is one inverse Fourier
transform of the empirical characteristic function divided by M:

    f_n(x) = (1/pi) int_0^inf Re( ghat*(u) K*(b u) e^{-iux} / M(theta, u) ) du,

    ghat*(u) = (1/n) sum_k e^{iuX_k},   K*(bu) = exp(-b^2 u^2 / 2),
    M(theta, u) = p e^{iu alpha} + (1-p) e^{iu beta}.

The integrand is discretized on a trapezoid u-grid, so f_n(x) =
2 Re sum_u c(u) e^{-iux} with one coefficient vector c(u) =
trap(u) K*(bu) / (2pi) * ghat*(u) / M(theta, u) per density.  In
leave-one-out mode the k-th observation carries its own parameter and
ghat*(u) / M(theta, u) becomes (1/n) sum_k e^{iuX_k} / M(theta_k, u).

The U equispaced nodes are built as a lattice u = c_a + d_p of A panel
starts and P ~ sqrt(U) offsets, so every phase e^{iuy} is the product
e^{i c_a y} e^{i d_p y} of two entries of `contrast._phases`, the phase
kernel the contrast evaluator uses (one half-angle tangent and one division
per entry, stored node-major): a data point, a leave-one-out location or an
output point costs A + P phases instead of U.  The data sums are one matrix
product over a block's observations; the leave-one-out block builds each
M(theta_k, u) on the lattice in one node-major (A, P, B) array and sums
its inverse along the observations.  The output sum is
`contrast._panel_sums`, the panel transform of the sandwich's score pass.
The data, leave-one-out and output passes and the kernel density
estimate's pass run through the contrast module's one block loop,
`contrast._map_blocks`: a pass of at least `contrast._THREAD_MIN_BLOCKS`
blocks runs on up to three usable CPUs, and each pass reduces its block
results with one expression, `sum` in block order for the data sums and
the kernel estimate and `np.concatenate` for the output points, so the
density is the same bit for bit at any thread count.

The data and the locations are first centred at the sample median m.  Each
ratio e^{iuX} / M(theta, u) is unchanged by a common shift, so f_n is the
same in exact arithmetic, but the phases stay of the order of the data's
spread rather than of |m|: the estimate is translation-equivariant in
floating point, and the u-grid's phase bound does not grow with |m|.

f_n is real by construction but can dip negative at small n; the
truncated-renormalized version

    ftilde_n = f_n 1{f_n >= 0} / int f_n 1{f_n >= 0}

is a proper density.  Reconstruction of the mixture with the full-sample
parameter plug-in returns the plain kernel density estimate of the data
exactly (in the continuous math), which is the built-in consistency check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contrast import _map_blocks, _panel_sums, _phases
from .errors import EmptyPositivePart
from .estimator import _shift
from .params import EuclideanParam, Sample, m_func

__all__ = [
    "DensityConfig",
    "DensityCurve",
    "KernelCurve",
    "default_bandwidth",
    "default_grid",
    "deconvolved_density_values",
    "estimate_density",
    "estimate_g",
    "reconstruct_mixture",
]

# kernel transform tail kept until exp(-b^2 u^2 / 2) reaches this level
_TAIL_EPS = 1e-12
_MIN_U_NODES = 512
_MAX_U_NODES = 16384
# standardized distance at which the kernel estimate's Gaussian is taken as 0:
# exp(-40^2 / 2) = exp(-800) underflows to 0, as exp does from |z| = 38.6 on
_KDE_Z_MAX = 40.0


@dataclass(frozen=True)
class DensityConfig:
    bandwidth: float = 1.0
    grid: tuple | None = None            # (x_min, x_max, points); None = data-driven default
    theta_mode: str = "full_sample"      # or "leave_one_out"

    def __post_init__(self):
        if not math.isfinite(self.bandwidth):
            raise ValueError("bandwidth must be finite")
        if not self.bandwidth > 0.0:
            raise ValueError("bandwidth must be positive")
        if self.grid is not None:
            x_min, x_max, points = self.grid
            if not (math.isfinite(x_min) and math.isfinite(x_max)):
                raise ValueError("grid bounds must be finite")
            if not math.isfinite(x_max - x_min):
                raise ValueError("grid span must be finite")
            if not x_min < x_max:
                raise ValueError("grid needs x_min < x_max")
            # the output points' phases x u, up to the u-grid's last node
            if not math.isfinite(max(abs(x_min), abs(x_max)) * _u_max(self.bandwidth)):
                raise ValueError(
                    "grid phases overflow: max(|x_min|, |x_max|) * u_max is not finite")
            if int(points) < 16:
                raise ValueError("grid needs at least 16 points")
        if self.theta_mode not in ("full_sample", "leave_one_out"):
            raise ValueError(f"unknown theta_mode {self.theta_mode!r}")


@dataclass(frozen=True)
class DensityCurve:
    xs: np.ndarray = field(repr=False)
    f_raw: np.ndarray = field(repr=False)
    f_tilde: np.ndarray = field(repr=False)
    mass_kept: float
    bandwidth: float

    @property
    def renorm_factor(self) -> float:
        """Multiplier applied to the positive part: f_tilde = renorm_factor * max(f_raw, 0)."""
        return 1.0 / self.mass_kept

    def metadata(self) -> dict:
        return {
            "bandwidth": self.bandwidth,
            "grid": [float(self.xs[0]), float(self.xs[-1]), int(self.xs.size)],
            "mass_kept": self.mass_kept,
            "renorm_factor": self.renorm_factor,
        }


@dataclass(frozen=True)
class KernelCurve:
    xs: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    bandwidth: float


def default_bandwidth(n: int) -> float:
    """Deconvolution bandwidth 2 n^{-1/4} of n observations, the density's default."""
    if n < 2:
        raise ValueError("need n >= 2")
    return 2.0 * n ** -0.25


def _grid_points(cfg: DensityConfig) -> np.ndarray | None:
    """The configured grid's points, or None when the grid is data-driven."""
    if cfg.grid is None:
        return None
    x_min, x_max, points = cfg.grid
    return np.linspace(float(x_min), float(x_max), int(points))


def default_grid(sample: Sample, theta: EuclideanParam, bandwidth: float,
                 points: int = 512) -> np.ndarray:
    """Symmetric grid over the component density's own support.

    The component density is symmetric about zero by model assumption, and
    each observation shifted by its nearer fitted location is a draw from
    it, so the support radius is estimated as max_k min(|X_k - alpha|,
    |X_k - beta|), padded by 3 bandwidths.  This keeps the far alternating
    deconvolution echoes (images of the main lobe at multiples of
    alpha - beta) off the default window.
    """
    x = sample.values
    radius = float(np.max(np.minimum(np.abs(x - theta.alpha), np.abs(x - theta.beta))))
    lim = radius + 3.0 * bandwidth
    return np.linspace(-lim, lim, points)


def _u_max(bandwidth: float) -> float:
    """Last node of the u-grid: where the kernel transform exp(-b^2 u^2 / 2) reaches _TAIL_EPS."""
    return math.sqrt(2.0 * math.log(1.0 / _TAIL_EPS)) / bandwidth


def _u_grid(bandwidth: float, max_phase_arg: float) -> tuple[np.ndarray, tuple]:
    """Trapezoid nodes on [0, U_f] resolving the fastest cosine in the integrand, and their lattice.

    The U nodes u_i = i du are built as the lattice u[a P + p] = c[a] + d[p]
    of P = ceil(sqrt(U)) offsets d[p] = p du and A = ceil(U / P) panel
    starts c[a] = a P du, the last panel cut short at U.  Returns u and
    the pair (c, d).
    """
    u_max = _u_max(bandwidth)
    # u_max over the step 2 pi / (16 max(max_phase_arg, 1)), clamped before
    # rounding: an infinite phase bound gives an infinite ratio, not a zero step
    ratio = min(u_max * 16.0 * max(max_phase_arg, 1.0) / (2.0 * math.pi), _MAX_U_NODES)
    count = min(_MAX_U_NODES, max(_MIN_U_NODES, math.ceil(ratio) + 1))
    du = u_max / (count - 1)
    p = math.isqrt(count - 1) + 1
    c = np.arange(-(-count // p)) * p * du
    d = np.arange(p) * du
    return np.add.outer(c, d).ravel()[:count], (c, d)


def deconvolved_density_values(sample: Sample, theta: EuclideanParam,
                               bandwidth: float, xs,
                               loo_thetas=None) -> np.ndarray:
    """Evaluate f_n at arbitrary points as one inverse transform.

    f_n(x) = 2 Re sum_u c(u) e^{-iux} with c = trap K*(bu) / (2pi) * R(u),
    R(u) = ghat*(u) / M(theta, u).  With loo_thetas (one parameter per
    observation) the k-th term uses its own leave-one-out estimate,
    R(u) = (1/n) sum_k e^{iuX_k} / M(theta_k, u), which is the exact
    cross-validated form.  Data and locations are centred at the sample
    median first; xs are points of the component's own coordinate and are
    not shifted.

    Every phase comes from `contrast._phases` on the u-grid's lattice
    u = c_a + d_p (see `_u_grid`): e^{iuy} = e^{i c_a y} e^{i d_p y}, so a
    data point, a leave-one-out location or an output point costs A + P
    phases instead of U.  ghat* is C^T O over blocks of observations,
    and f_n at xs is the shared panel transform `contrast._panel_sums` of
    the coefficients at -xs.  Observation and point sums run over blocks of
    about _BLOCK_ELEMENTS / U rows, so memory does not grow with n or xs.
    """
    xs = np.asarray(xs, dtype=float)
    if loo_thetas is not None and len(loo_thetas) != sample.n:
        raise ValueError("need one leave-one-out parameter per observation")
    m = float(np.median(sample.values))
    x_data = sample.values - m
    at = _shift(theta, -m)
    arg_bound = np.max(np.abs(x_data)) + np.max(np.abs(xs)) + max(abs(at.alpha), abs(at.beta))
    u, (c, d) = _u_grid(bandwidth, arg_bound)
    trap = np.full(u.size, u[1] - u[0])
    trap[0] *= 0.5
    trap[-1] *= 0.5
    damp = np.exp(-0.5 * (bandwidth * u) ** 2) / (2.0 * math.pi)

    if loo_thetas is None:
        def block(blk):
            cen, off = _phases(x_data[blk], c, d)
            return cen.T @ off
        ratio = sum(_map_blocks(block, sample.n, u.size)).ravel()[:u.size] / m_func(at, u)
    else:
        # e^{iuX_k} / M(theta_k, u) = 1 / (p_k e^{iu(alpha_k-X_k)} + (1-p_k) e^{iu(beta_k-X_k)})
        p_k, a_k, b_k = np.array([th.as_array() for th in loo_thetas]).T
        a_k, b_k = a_k - sample.values, b_k - sample.values

        def block(blk):
            cen_a, off_a = _phases(a_k[blk], c, d)
            cen_b, off_b = _phases(b_k[blk], c, d)
            # M_k on the whole (A, P) lattice, past u's last node too, in one
            # node-major (A, P, B) array
            shifted_m = (p_k[blk] * cen_a.T)[:, None, :] * off_a.T
            shifted_m += ((1.0 - p_k[blk]) * cen_b.T)[:, None, :] * off_b.T
            return np.divide(1.0, shifted_m, out=shifted_m).sum(axis=2)
        ratio = sum(_map_blocks(block, sample.n, u.size)).ravel()[:u.size]
    coef = trap * damp * ratio / sample.n
    return np.concatenate([2.0 * t[0] for t in _panel_sums(1j * coef[None], c, d, -xs, u.size)])


def estimate_density(sample: Sample, theta_hat: EuclideanParam, cfg: DensityConfig,
                     loo_thetas=None) -> DensityCurve:
    """Deconvolution estimate of the component density on a grid.

    Returns both the raw estimate (may be negative) and its truncated,
    renormalized version; mass_kept is the positive-part integral used as
    the renormalization constant.
    """
    if (cfg.theta_mode == "leave_one_out") != (loo_thetas is not None):
        raise ValueError(f"theta_mode {cfg.theta_mode!r}: loo_thetas (see "
                         "estimator.leave_one_out_thetas) are required in "
                         "leave_one_out mode and only there")
    xs = _grid_points(cfg)
    if xs is None:
        xs = default_grid(sample, theta_hat, cfg.bandwidth)
    f_raw = deconvolved_density_values(sample, theta_hat, cfg.bandwidth, xs,
                                       loo_thetas=loo_thetas)
    positive = np.where(f_raw >= 0.0, f_raw, 0.0)
    mass_kept = float(np.trapezoid(positive, xs))
    if mass_kept <= 0.0:
        raise EmptyPositivePart("density estimate has no positive mass on the grid")
    return DensityCurve(xs=xs, f_raw=f_raw, f_tilde=positive / mass_kept,
                        mass_kept=mass_kept, bandwidth=cfg.bandwidth)


def estimate_g(sample: Sample, cfg: DensityConfig, xs=None) -> KernelCurve:
    """Plain Gaussian kernel density estimate of the mixed density."""
    if xs is None:
        xs = _grid_points(cfg)
    if xs is None:
        b = cfg.bandwidth
        xs = np.linspace(float(np.min(sample.values)) - 3.0 * b,
                         float(np.max(sample.values)) + 3.0 * b, 512)
    xs = np.asarray(xs, dtype=float)
    # x - X_k clamped at +-_KDE_Z_MAX b, so |z| <= 40 and z * z stays finite at
    # any bandwidth; exp(-z^2/2) is 0 either way past |z| = 38.6, and no pass
    # relies on an errstate, which a threaded block would not inherit
    lim = _KDE_Z_MAX * cfg.bandwidth

    def block(blk):
        z = np.clip(xs[:, None] - sample.values[None, blk], -lim, lim) / cfg.bandwidth
        return np.exp(-0.5 * z * z).sum(axis=1)
    vals = sum(_map_blocks(block, sample.n, xs.size))
    vals /= sample.n * cfg.bandwidth * math.sqrt(2.0 * math.pi)
    return KernelCurve(xs=xs, values=vals, bandwidth=cfg.bandwidth)


def reconstruct_mixture(curve: DensityCurve, theta_hat: EuclideanParam,
                        use: str = "f_raw") -> np.ndarray:
    """Mixture density p f(x - alpha) + (1-p) f(x - beta) on the curve's grid.

    Shifted lookups interpolate linearly inside the grid and are zero
    outside; `use` selects the raw or the renormalized component estimate.
    """
    if use not in ("f_raw", "f_tilde"):
        raise ValueError("use must be 'f_raw' or 'f_tilde'")
    f = curve.f_raw if use == "f_raw" else curve.f_tilde
    xs = curve.xs
    fa = np.interp(xs - theta_hat.alpha, xs, f, left=0.0, right=0.0)
    fb = np.interp(xs - theta_hat.beta, xs, f, left=0.0, right=0.0)
    return theta_hat.p * fa + (1.0 - theta_hat.p) * fb
