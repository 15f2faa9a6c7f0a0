"""Minimum-contrast estimation of (p, alpha, beta) with plug-in covariance.

The fitted value minimizes the nonnegative plug-in contrast built from the
kernel-smoothed empirical characteristic function.  The diagonal-removed
pair statistic S_n is reported at the optimum but is not itself minimized:
its diagonal-removal term is unbounded below where |M| degenerates, so a
global search over the parameter box reliably falls into spurious noise
wells near p = 1/2 (depth growing like (1-2p)^{-2}) instead of the
statistically meaningful minimum.  The plug-in criterion has the same
population limit and no such wells.

Optimization has two primitives, a descent and Newton's method, and the fit
and the leave-one-out refits use both.  The descent is one bounded L-BFGS-B
run per start on (p, alpha, beta) directly, with p held in the box and the
analytic gradient of the plug-in contrast.  Candidates that collapse onto
the box edge in p or merge the two locations are set aside as degenerate;
the smallest objective among the remaining candidates wins.  L-BFGS-B stops
where the objective is flat to its rounding, so where the winner ends
depends on the path.  The winner is then polished by `_newton`, steps on
the exact Hessian from the winner to the contrast's gradient root, and the
estimate is that root, the same within rounding in any row order of the
data.  The descent's point is kept when Newton refuses the row, the polish
merges the locations or moves farther than the starts' agreement tolerance;
the ranking, the agreement count, `converged` and the degenerate decision
read the descent.  Leave-one-out refits start from the full-sample estimate
and run the same `_newton`, all n at once: each reduced sample's node sums
are the full sample's minus one observation's features, and its weights
differ only through its robust scale.  A refit that Newton refuses falls
back to the descent on the reduced sample's own evaluator.  Every fit
statistic is computed on the sample centred at its median, which changes
nothing in exact arithmetic (see `_centred`) and makes the estimate
translation-equivariant in floating point.  The default contrast
configuration (the weight rule's cutoff and the truncation) is computed
from the centred sample's scale as well, by `fit` and by the command line
alike, so `symmix fit` reports the same estimate as `fit` on the same data,
bit for bit.

One frame (`_Frame`, built by `_frame`) holds what these share: the
centred sample and its median, its robust scale, computed once, from which
the default configuration and the smoothing bandwidth both come, the start
points' quantiles, the contrast configuration and the fit objective's
evaluator.  The median, the scale's quartiles and the start quantiles are
read from one sorted copy of the sample (`_order_statistics`).  `fit`,
`asymptotic_covariance`, `leave_one_out_thetas` and `symmix scan` each
build it once and pass it down.  It is not kept on the FitResult: the
centred sample is n floats, 400 KiB at n = 50,000, against under 1 KiB for
the result, and a caller may keep thousands of results.

The plug-in sandwich covariance I^{-1} V I^{-1} takes both pieces from
`ContrastEvaluator.information_and_score` on the same smoothed evaluator:
I = 2 J W J^T from the contrast's Jacobian and V from the per-observation
scores, summed in one pass over the frame's centred sample at the estimate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.optimize import minimize

from .contrast import (ContrastConfig, ContrastEvaluator, _map_blocks, _plugin_gradient_hessian,
                       default_trunc_h)
from .errors import DegenerateFit, SampleTooSmall, SingularInformation
from .params import EuclideanParam, ParamBox, Sample, canonicalize
from .weights import build_weight_rule, scale_aware_cutoff

__all__ = [
    "FitConfig",
    "FitResult",
    "robust_scale",
    "default_contrast_config",
    "initial_points",
    "fit",
    "asymptotic_covariance",
    "leave_one_out_thetas",
]

# standardized-scale bandwidth multiplier of the characteristic-function
# smoothing of the fit objective: b_n = SMOOTH_C * n^{-1/4}
SMOOTH_C = 1.0

# the start design of `initial_points`: location quantile pairs crossed with p values
_START_QUANTILES = ((0.25, 0.75), (0.1, 0.9), (0.2, 0.8))
_START_PS = (0.25, 0.1, 0.4)


@dataclass(frozen=True)
class FitConfig:
    starts: int = 8
    max_iter: int = 500
    box: ParamBox = field(default_factory=ParamBox)

    def __post_init__(self):
        for name in ("starts", "max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        design = len(_START_QUANTILES) * len(_START_PS)
        if self.starts > design:
            raise ValueError(f"starts must be <= {design}")


@dataclass(frozen=True)
class FitResult:
    theta_hat: EuclideanParam
    contrast_at_opt: float
    objective_at_opt: float
    covariance: np.ndarray
    std_errors: np.ndarray
    converged: bool
    n_restarts_agreeing: int
    manifest: dict

    def to_dict(self) -> dict:
        return {
            "theta_hat": asdict(self.theta_hat),
            "std_errors": [float(s) for s in self.std_errors],
            "covariance": [[float(v) for v in row] for row in self.covariance],
            "contrast": self.contrast_at_opt,
            "objective": self.objective_at_opt,
            "converged": self.converged,
            "n_restarts_agreeing": self.n_restarts_agreeing,
            "manifest": self.manifest,
        }


def robust_scale(values) -> float:
    """Normal-consistent interquartile scale, falling back to the standard deviation.

    The fallback is taken of the sorted values, so the scale depends on the
    values alone, not on their order: a caller may pass a sorted copy.
    """
    x = np.asarray(values, dtype=float)
    q1, q3 = np.quantile(x, [0.25, 0.75])
    s = (q3 - q1) / 1.349
    if s <= 0.0:
        s = float(np.std(np.sort(x), ddof=1))
    if s <= 0.0:
        raise ValueError("sample has zero dispersion")
    return float(s)


def default_contrast_config(sample: Sample) -> ContrastConfig:
    """Default weight rule and truncation for fitting a given sample: `fit`'s own.

    The exponential weight keeps its unit frequency scale; the cutoff adapts
    to the data's dispersion (six standardized frequency units, capped) so
    the integration window tracks where the empirical characteristic
    function carries signal rather than noise.  The rule has 256 nodes.  The
    scale is the centred sample's, as in `fit` (see `_frame`).
    """
    return _default_config(sample.n, robust_scale(_centred(sample)[0].values))


def _default_config(n: int, scale: float) -> ContrastConfig:
    """`default_contrast_config` of n observations of the given robust scale."""
    cutoff = scale_aware_cutoff(scale)
    rule = build_weight_rule("laplace_default", 256, cutoff)
    return ContrastConfig(rule, default_trunc_h(n, cutoff=cutoff))


def initial_points(sample: Sample, cfg: FitConfig) -> list[EuclideanParam]:
    """Deterministic quantile-based start points, clipped to the box.

    Location pairs (q25, q75), (q10, q90), (q20, q80) are crossed with
    p in {0.25, 0.1, 0.4} in that order, so a single start uses
    (q25, q75, p = 0.25).  Duplicates after clipping are dropped.
    """
    if sample.n < 10:
        raise SampleTooSmall("initial points need n >= 10")
    return _start_points(np.quantile(sample.values, _START_QUANTILES), cfg)


def _start_points(pairs: np.ndarray, cfg: FitConfig) -> list[EuclideanParam]:
    """`initial_points` from the sample's location quantile pairs at `_START_QUANTILES`."""
    box = cfg.box
    pts: list[EuclideanParam] = []
    seen = set()
    for a, b in pairs:
        if abs(a - b) < box.sep_min:
            b = a + box.sep_min
        for p in _START_PS:
            p = min(max(p, box.p_low), box.p_high)
            key = (round(p, 12), round(a, 12), round(b, 12))
            if key not in seen:
                seen.add(key)
                pts.append(EuclideanParam(p, a, b))
    return pts[: cfg.starts]


def _smoothing(n: int, scale):
    """Bandwidth b = SMOOTH_C * n^{-1/4} * scale of the fit's smoothing factor exp(-(b u)^2)."""
    return SMOOTH_C * n ** -0.25 * scale


def _merge_sep(box: ParamBox, scale: float) -> float:
    """Separation below which a fit or a refit has merged its locations, for data of this scale."""
    return max(box.sep_min, 1e-3 * scale)


def _centred(sample: Sample) -> tuple[Sample, float]:
    """The sample minus its median m, and m: the frame the fit is computed in.

    e^{iuX}/M(theta, u) is unchanged when the data and both locations move
    together, so every statistic at theta equals the centred sample's at
    theta - m.  Computed there, the phases uX stay of the order of the
    data's spread rather than of |m|, and the estimate is
    translation-equivariant in floating point.  The scale is left alone:
    the weight rule is not scale-equivariant.
    """
    m = float(np.median(sample.values))
    return Sample(sample.values - m), m


def _shift(theta: EuclideanParam, c: float) -> EuclideanParam:
    """theta with both locations moved by c."""
    return EuclideanParam(theta.p, theta.alpha + c, theta.beta + c)


def _smoothed_evaluator(sample: Sample, ccfg: ContrastConfig, scale: float) -> ContrastEvaluator:
    """Evaluator of the fit objective: rule weights smoothed at the bandwidth of `scale`."""
    return ContrastEvaluator(sample, ccfg, _smoothing(sample.n, scale))


@dataclass(frozen=True, slots=True)
class _Frame:
    """One sample's fit frame: what the fit, its covariance and its refits share.

    `centred` is the sample minus its median `m` (see `_centred`), `scale`
    its robust scale, `quantiles` its location quantile pairs at
    `_START_QUANTILES`, from which the fit's starts come, `ccfg` the
    contrast configuration (by default the one of that scale) and `ev` the
    fit objective's evaluator, smoothed at that scale; the covariance reads
    the centred sample again.  Built by `_frame` and passed to what needs
    it; never kept on a FitResult (see the module docstring).
    """

    centred: Sample
    m: float
    scale: float
    quantiles: np.ndarray
    ccfg: ContrastConfig
    ev: ContrastEvaluator


def _frame(sample: Sample, ccfg: ContrastConfig | None = None) -> _Frame:
    """The fit frame of `sample`: one sort, one centring, one robust scale, one evaluator."""
    m, scale, quantiles = _order_statistics(sample.values)
    centred = Sample(sample.values - m)
    ccfg = ccfg or _default_config(centred.n, scale)
    return _Frame(centred, m, scale, quantiles, ccfg, _smoothed_evaluator(centred, ccfg, scale))


def _order_statistics(x: np.ndarray):
    """The median m of x, and the robust scale and start quantile pairs of x - m, from one sort.

    Each is numpy's own median or quantile, or `robust_scale`, of the sorted
    copy, and so equals its value on x bit for bit: they depend on the
    values alone.  Rounding is monotone, so x_j - m is nondecreasing in x_j
    and the sorted copy less m is the centred sample, sorted.  The copy is
    freed on return, before `_frame` builds its evaluator.
    """
    xs = np.sort(x)
    m = float(np.median(xs))
    xs -= m
    return m, robust_scale(xs), np.quantile(xs, _START_QUANTILES)


def _descend(ev: ContrastEvaluator, start: EuclideanParam, cfg: FitConfig):
    """One L-BFGS-B descent of the plug-in contrast from `start`, p bounded to the box."""
    box = cfg.box
    return minimize(lambda z: ev.plugin_value_gradient(EuclideanParam(*z)),
                    start.as_array(), jac=True, method="L-BFGS-B",
                    bounds=[(box.p_low, box.p_high), (None, None), (None, None)],
                    options=dict(maxiter=cfg.max_iter, ftol=1e-16, gtol=1e-12))


def fit(sample: Sample, cfg: FitConfig | None = None,
        ccfg: ContrastConfig | None = None) -> FitResult:
    """Estimate (p, alpha, beta) from a sample of the mixture.

    The fit runs on the sample centred at its median m and adds m back to
    the locations.  Each start of `initial_points` runs one bounded descent
    (at most cfg.max_iter L-BFGS-B iterations); the result is `converged`
    unless the winning start hit that limit.  The winner is polished by
    Newton's method to the gradient root of the contrast, unless Newton
    refuses it, merges the locations or leaves the winner's basin (see the
    module docstring).  The reported statistics are those of the reported
    estimate.

    Raises SampleTooSmall below 10 observations and DegenerateFit when every
    optimization path collapses to the p-boundary or merges the locations
    (an effectively one-component sample; with p near 0 the minor location
    is not identifiable).
    """
    if sample.n < 10:
        raise SampleTooSmall(f"fit needs n >= 10, got {sample.n}")
    return _fit(_frame(sample, ccfg), cfg or FitConfig())


def _fit(frame: _Frame, cfg: FitConfig) -> FitResult:
    """`fit` in a frame built by `_frame` (of at least 10 observations)."""
    box, ccfg, ev, m = cfg.box, frame.ccfg, frame.ev, frame.m
    sep = _merge_sep(box, frame.scale)
    candidates = []
    for start in _start_points(frame.quantiles, cfg):
        res = _descend(ev, start, cfg)
        p, a, b = (float(v) for v in res.x)
        pinned = p <= box.p_low + 1e-3 * (box.p_high - box.p_low) \
            or p >= box.p_high - 1e-3 * (box.p_high - box.p_low)
        merged = abs(a - b) < sep
        candidates.append({
            "theta": (p, a, b),
            "objective": float(res.fun),
            "degenerate": bool(pinned or merged),
            # an ABNORMAL line search at the rounding floor is a finished
            # descent; only running out of iterations is not
            "converged": res.status != 1,
        })

    valid = [c for c in candidates if not c["degenerate"]]
    if not valid:
        raise DegenerateFit(
            "all optimization paths collapsed to the parameter boundary; "
            "the sample looks effectively one-component")
    # smallest objective wins; ties broken by canonical lexicographic order
    valid.sort(key=lambda c: (c["objective"], c["theta"]))
    best = valid[0]
    ref = np.array(best["theta"])
    tol_agree = 1e-3 * max(1.0, float(np.max(np.abs(ref))))
    agree = sum(bool(np.max(np.abs(np.array(c["theta"]) - ref)) <= tol_agree) for c in valid)

    # the winner polished to the gradient root, unless Newton refuses it, merges
    # the locations or leaves the winner's basin
    (polished,), (ok,) = _newton(ev, ev._s[None], ev.w[None], ev.n, EuclideanParam(*ref), box)
    if ok and abs(polished[1] - polished[2]) >= sep and np.max(np.abs(polished - ref)) <= tol_agree:
        ref = polished
    theta_hat = _shift(canonicalize(ref, box), m)
    # the reported estimate back in the fit's frame, as `symmix scan` maps it
    at = _shift(theta_hat, -m)

    cov, sigma_form = _covariance_with_fallback(ev, at, frame.centred.values)
    std_errors = np.sqrt(np.maximum(np.diag(cov), 0.0) / ev.n)

    manifest = {
        "n": ev.n,
        "weight_rule": {
            "density_id": ccfg.weight_rule.density_id,
            "node_count": ccfg.weight_rule.node_count,
            "cutoff": ccfg.weight_rule.cutoff,
        },
        "trunc_h": ccfg.trunc_h,
        "smooth_bandwidth": _smoothing(ev.n, 1.0),
        "robust_scale": frame.scale,
        "starts": cfg.starts,
        "max_iter": cfg.max_iter,
        "box": {"p_low": box.p_low, "p_high": box.p_high, "sep_min": box.sep_min},
        "covariance_form": sigma_form,
    }
    return FitResult(
        theta_hat=theta_hat,
        contrast_at_opt=ev.u_statistic(at),
        objective_at_opt=ev.plugin(at),
        covariance=cov,
        std_errors=std_errors,
        converged=best["converged"],
        n_restarts_agreeing=agree,
        manifest=manifest,
    )


def asymptotic_covariance(sample: Sample, theta_hat: EuclideanParam,
                          ccfg: ContrastConfig | None = None) -> np.ndarray:
    """Plug-in sandwich covariance I^{-1} V I^{-1} of sqrt(n) (theta_hat - theta).

    At `fit`'s estimate and configuration it equals `FitResult.covariance`
    bit for bit, except that an ill-conditioned information matrix raises
    SingularInformation instead of falling back to pinv.  Standard errors
    of theta_hat are sqrt(diag / n).
    """
    if sample.n < 10:
        raise SampleTooSmall("covariance plug-in needs n >= 10")
    frame = _frame(sample, ccfg)
    return _sandwich(frame.ev, _shift(theta_hat, -frame.m), frame.centred.values,
                     fallback=False)[0]


def _sandwich(ev: ContrastEvaluator, theta: EuclideanParam, x: np.ndarray, fallback: bool):
    """Symmetrized I^{-1} V I^{-1} and the form used.

    x is the sample `ev` was built from, read once for the scores.

    An information matrix with condition number above 1e12 is inverted by
    pinv when `fallback` ("sandwich-pinv"); otherwise it raises
    SingularInformation.
    """
    info, v_hat = ev.information_and_score(theta, x)
    cond = np.linalg.cond(info)
    if cond > 1e12:
        if not fallback:
            raise SingularInformation(
                f"information matrix condition number {cond:.3g} exceeds 1e12")
        inv_i = np.linalg.pinv(info, rcond=1e-12)
        form = "sandwich-pinv"
    else:
        inv_i = np.linalg.inv(info)
        form = "sandwich"
    cov = inv_i @ v_hat @ inv_i
    return 0.5 * (cov + cov.T), form


def _covariance_with_fallback(ev: ContrastEvaluator, theta: EuclideanParam, x: np.ndarray):
    """The fit's sandwich covariance, by pinv when the information is ill-conditioned."""
    return _sandwich(ev, theta, x, fallback=True)


def _loo_scales(x: np.ndarray) -> np.ndarray:
    """robust_scale(np.delete(x, k)) for every k, bit for bit, from one sort.

    The reduced sample's j-th order statistic is the full sample's j-th when
    the removed observation ranks above j, and its (j+1)-th otherwise.  The
    quartiles read a few order statistics next to q (n - 2), so the scale is
    the same for every removed rank between two of those positions: one
    pair of quartiles per such run of ranks serves, and its scale is
    robust_scale's own (q3 - q1) / 1.349.  The standard-deviation fallback
    of a zero interquartile range reads every value and is computed for
    each k.
    """
    n = x.size
    order = np.argsort(x, kind="stable")
    xs = x[order]
    read = np.floor(np.array([0.25, 0.75]) * (n - 2)).astype(int)[:, None] + np.arange(-1, 3)
    edges = np.unique(np.concatenate([[0, n], np.clip(read.ravel() + 1, 0, n)]))
    scales = np.empty(n)
    for lo, hi in zip(edges[:-1], edges[1:]):
        reduced = np.delete(xs, lo)
        q1, q3 = np.quantile(reduced, [0.25, 0.75])
        if q3 > q1:
            scales[order[lo:hi]] = (q3 - q1) / 1.349
        else:
            scales[order[lo:hi]] = [robust_scale(np.delete(x, k)) for k in order[lo:hi]]
    return scales


# Newton iterations a fit's polish or a leave-one-out refit gets before it is refused
_NEWTON_MAX_ITER = 30
# a Newton step this small, relative to the parameter, ends a row
_NEWTON_STEP_TOL = 1e-12


def _newton(ev: ContrastEvaluator, s: np.ndarray, w: np.ndarray, n: int,
            start: EuclideanParam, box: ParamBox):
    """Newton's method on the exact Hessian of the plug-in contrast, one row per problem.

    Row i minimizes r^T W r on node sums s[i] of n observations and weights
    w[i], both of shape (B, Q) on `ev`'s nodes, from `start`: the fit's
    polish is a batch of one on the evaluator's own sums and weights, the
    leave-one-out refits a batch of downdated ones.  Each row takes steps
    H^{-1} grad until its step is at rounding level, so it ends at the
    contrast's gradient root to the last bits whatever path led near it.
    Every row starts at `start`, so the first step takes one row of phases
    e^{iu alpha}, e^{iu beta}, computed once; later steps take one row per
    row still running, from the evaluator's own phase kernel (`_features`).
    Returns the rows' parameters, shape (B, 3), and a flag per row that is
    False where it met a Hessian that is not finite or not positive
    definite, did not settle within _NEWTON_MAX_ITER steps, or ended with p
    outside the box.
    """
    thetas = np.tile(start.as_array(), (len(s), 1))
    ok = np.zeros(len(s), dtype=bool)
    live = np.arange(len(s))
    for it in range(_NEWTON_MAX_ITER):
        if live.size == 0:
            break
        rows = thetas[:1] if it == 0 else thetas[live]
        ea, eb = ev._features(rows[:, 1:].T.ravel()).reshape(2, len(rows), -1)
        grad, hess = _plugin_gradient_hessian(ev.u, w[live], s[live], n, rows[:, :1], ea, eb)
        posdef = np.isfinite(hess).all(axis=(1, 2)) & np.isfinite(grad).all(axis=1)
        posdef[posdef] = np.linalg.eigvalsh(hess[posdef])[:, 0] > 0.0
        live, grad, hess = live[posdef], grad[posdef], hess[posdef]
        step = np.linalg.solve(hess, grad[..., None])[..., 0]
        thetas[live] -= step
        small = np.max(np.abs(step), axis=1) <= _NEWTON_STEP_TOL * np.maximum(
            1.0, np.max(np.abs(thetas[live]), axis=1))
        ok[live[small]] = True
        live = live[~small]
    ok &= (box.p_low <= thetas[:, 0]) & (thetas[:, 0] <= box.p_high)
    return thetas, ok


def _newton_refits(frame: _Frame, scales: np.ndarray, start: EuclideanParam, box: ParamBox):
    """Every leave-one-out refit of the fit objective, by `_newton` from `start`.

    The frame's evaluator gives the node sums S of the full centred sample;
    refit k uses S - e^{iuX_k}, from the evaluator's own phase kernel, and
    the smoothed weights of the n - 1 remaining observations, which differ
    from the full sample's only through their robust scale, scales[k], so
    all n refits are one batched problem.  The batch runs in blocks of
    about _BLOCK_ELEMENTS / (24 Q) refits (`contrast._map_blocks`), so the
    Hessian's working set stays near _BLOCK_ELEMENTS reals a block whatever
    n is.  Returns `_newton`'s refits, shape (n, 3), and flags.
    """
    ev, x, n = frame.ev, frame.centred.values, frame.centred.n

    def block(blk):
        return _newton(ev, ev._s - ev._features(x[blk]),
                       ev._smoothed_weights(_smoothing(n - 1, scales[blk])), n - 1, start, box)
    # the Hessian's arrays peak at about 24 reals per refit and node (tracemalloc,
    # Q = 128 and 2,048), 17 in the shared first step
    thetas, ok = zip(*_map_blocks(block, n, 24 * ev.u.size))
    return np.concatenate(thetas), np.concatenate(ok)


def leave_one_out_thetas(sample: Sample, theta_hat: EuclideanParam,
                         cfg: FitConfig | None = None,
                         ccfg: ContrastConfig | None = None) -> list[EuclideanParam]:
    """Exact leave-one-out refits, warm-started at the full-sample estimate.

    Every refit runs in the full sample's centred frame (see `fit`), as one
    batched Newton solve on node sums downdated from a single full-sample
    evaluator (see `_newton_refits`).  A refit that `_newton` refuses (it
    does not converge, meets a Hessian that is not positive definite, or
    ends outside the p-box) is redone by `_descend` on the rebuilt
    evaluator of the reduced sample.  A refit whose locations merge, by the
    fit's rule (`_merge_sep` at the full sample's scale), returns theta_hat.
    Raises SampleTooSmall below 10 observations, as `fit` does.
    """
    if sample.n < 10:
        raise SampleTooSmall(f"leave-one-out needs n >= 10, got {sample.n}")
    cfg = cfg or FitConfig()
    frame = _frame(sample, ccfg)
    scales = _loo_scales(frame.centred.values)
    start = _shift(theta_hat, -frame.m)
    thetas, ok = _newton_refits(frame, scales, start, cfg.box)
    sep = _merge_sep(cfg.box, frame.scale)
    out = []
    for k in range(sample.n):
        if not ok[k]:
            reduced = Sample(np.delete(frame.centred.values, k))
            thetas[k] = _descend(_smoothed_evaluator(reduced, frame.ccfg, scales[k]), start, cfg).x
        p, a, b = (float(v) for v in thetas[k])
        out.append(theta_hat if abs(a - b) < sep else _shift(EuclideanParam(p, a, b), frame.m))
    return out
