"""Fourier-domain contrast for the two-component shifted symmetric mixture.

Writing psi_k(u) = e^{i u X_k} / M(theta, u), the per-observation score

    Z_k(theta, u) = psi_k(u) - conj(psi_k(u)) = 2i Im psi_k(u)

is purely imaginary, and its population mean J(theta, u) = E Z_k vanishes for
all u exactly at the true parameter (symmetry of f makes g*/M real there).
Two empirical criteria are built from it on a weight rule W truncated to
|u| <= 1/h:

* the pair (diagonal-removed) statistic

      S_n(theta) = 1/(n(n-1)) int sum_{j != k} Im psi_j Im psi_k dW(u),

  an unbiased estimate of the population discrepancy away from truncation;
  it can dip below zero, increasingly so where |M| gets small;

* the plug-in statistic

      V_n(theta) = int ( Im( ghat*(u) / M(theta, u) ) )^2 dW(u) >= 0,

  with ghat* the (optionally kernel-smoothed) empirical characteristic
  function; nonnegative by construction, upward-biased by O(1/n).

Both factorize over observations: with v_k = Im psi_k,
sum_{j != k} v_j v_k = (sum_k v_k)^2 - sum_k v_k^2, so one evaluation costs
O(Q) after one O(nQ) pass over the sample (Q = active nodes, with +-u
folded onto |u| once, exactly for any rule; the fit's smoothing is even in
u and multiplies the folded weights; see ContrastEvaluator).  Every
statistic is built from imaginary parts: its reality is structural, not
numerical.

Every statistic here is linear or quadratic in the features e^{iuX_k} on
the nodes, so the sample enters the objective only through the empirical
characteristic function at u and at 2u, the complex node sums
S = sum_k e^{iuX_k} and S2 = sum_k e^{2iuX_k}.  That is all the evaluator
keeps: O(Q) numbers, whatever n is.  The sandwich's score outer product is
not such a sum at every theta; it is formed in one more pass over the
sample, at the estimate only.

Both passes read the features through one phase kernel, `_phases`.  A
composite Gauss-Legendre rule of equal panels puts its folded nodes on a
lattice u = c_j + d_p of J panel centres and P shared offsets (16 panels of
8 at the default rule), so e^{iuX} = e^{i c_j X} e^{i d_p X} costs J + P
phases per observation instead of Q; a rule that is not such a lattice is
one panel, c = 0 and d = u.  Each phase is one tangent of its own half
angle and one division, t = tan(uX/2), r = 2/(1 + t^2), cos = r - 1 and
sin = t r, within 4.5e-16 of cos and sin.  The phases are stored
node-major, a row of a block's observations per centre and per offset, so
every per-node step runs along the observations: the node sums are matrix
products over them.  The way back, sum_u Im(coef(u) e^{iuy}) at points y,
is the panel transform `_panel_sums`, shared with the density: one matrix
product over the offsets, then one broadcast multiply and sum over the
centres, of the imaginary part only.
The score pass recomputes the phases the evaluator's pass computed rather
than keep them: 384 B per observation (19 MB at n = 50,000) against the
evaluator's O(Q) numbers.

Every pass over observations or points in the package, these two, the
density's and the leave-one-out refits', is one call of `_map_blocks`: a
per-block function over blocks of about _BLOCK_ELEMENTS entries, whose
results the caller reduces with one expression, `sum` of the block results
in block order for a sum over observations, `np.concatenate` for a result
per point or per refit; no caller seeds an accumulator of its own.  A pass
of at least _THREAD_MIN_BLOCKS blocks (25 at n = 50,000 and the default
rule) runs its blocks on up to _MAX_WORKERS usable CPUs; the order of the
additions does not change, so the output is the same bit for bit at any
thread count.

Values, gradients, the Hessian and the sandwich covariance pieces all
start from one helper, `_ratios`.  Since p a + (1-p) b = 1 for the ratios
a = e^{iu alpha}/M and b = e^{iu beta}/M, G = a - b gives a = 1 + (1-p) G
and b = 1 - p G, so the residual's node sums Im R and the Jacobian's,
-n J = Im(R Mdot/M) with rows Im(R G), u p (Re R + (1-p) Re R G) and
u (1-p) (Re R - p Re R G), are all combinations of R = S/M and R G, which
`_ratios` returns in one (2, ..., Q) buffer.  V_n = r^T W r with
r = Im R/n and its gradient 2 J W r are four node dots per row,
<w Im R, Im R>, <w Im R, Im R G>, <u w Im R, Re R> and <u w Im R, Re R G>,
one real np.matmul over the buffer's float view (`_value_gradient`), the
one expression for the search path and the Newton steps alike; no
(B, 3, Q) Jacobian array is formed there.
`ContrastEvaluator.information_and_score` returns the curvature 2 J W J^T
and the score outer product for the sandwich, from the same R and the
ratio Mdot/M (`_mdot_ratio`).  The exact Hessian
2 J W J^T + 2 sum_q w_q r_q grad^2 r_q adds the second derivatives of 1/M
(`_plugin_gradient_hessian`); it is computed apart from the value and
gradient, on a batch of node sums, weights and parameters, for the Newton
steps of the fit's polish and of the leave-one-out refits.  `_ratios` takes
each parameter's phases e^{iu alpha} and e^{iu beta} rather than its
locations, so a caller that has them, or shares one parameter across the
batch, computes them once.  `ContrastEvaluator._values_gradients`, the
search path of every fit, takes them for a batch of parameters at once
from the evaluator's lattice (`_features`: numpy's cos and sin of the
J + P lattice angles per location, which round less than `_phases`'
tangents and cost no more for a few locations, so the descents stop
sooner at the rounding floor), and one call serves every start of a fit's
lock-step descents: at n = 100, 8 rows cost about 60 us and one row
about 32, where the (B, 3, Q) Jacobian array and tangent phases cost
about 66 and 38 (interleaved in one process on a 2-vCPU machine).
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BadCharacteristicFunction, SampleTooSmall
from .params import EuclideanParam, Sample, m_func
from .weights import _NODES_PER_PANEL, WeightRule

__all__ = [
    "ContrastConfig",
    "ContrastEvaluator",
    "default_trunc_h",
    "empirical_contrast",
    "plugin_contrast",
    "contrast_gradient",
    "oracle_contrast",
    "z_score",
    "z_score_gradient",
    "j_func",
]

# entries of one block of an observation-by-node or point-by-node matrix
_BLOCK_ELEMENTS = 2 ** 19
# a pass over at least this many blocks runs on a thread pool (see `_map_blocks`)
_THREAD_MIN_BLOCKS = 8
# most blocks a pass computes at once: each holds its own arrays, so a pass's
# memory is at most this many serial blocks' on any machine (a leave-one-out
# density block peaks near 18 MiB)
_MAX_WORKERS = 3
# a node more than this many units in the last place of the largest node off
# the panel lattice sends the rule to the one-panel path (see `_lattice`)
_LATTICE_ULPS = 8
# (rows, columns) of the strict upper triangle of a 3 x 3 matrix
_TRIU = np.triu_indices(3, 1)


def _blocks(count: int, width: int):
    """Slices covering range(count), max(1, _BLOCK_ELEMENTS // width) long each."""
    step = max(1, _BLOCK_ELEMENTS // max(width, 1))
    return [slice(i, i + step) for i in range(0, count, step)]


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_blocks(fn, count: int, width: int):
    """fn(blk) for every slice blk of `_blocks(count, width)`, yielded in block order.

    This is the module's one block loop: every pass over observations or
    points runs through it.  A pass of at least _THREAD_MIN_BLOCKS blocks
    runs on a thread pool of min(blocks, usable CPUs, _MAX_WORKERS)
    workers, made for the pass and shut down when it ends (a pool kept
    between passes would have no threads in a process forked from this
    one); numpy's ufuncs and BLAS release the GIL, so the blocks' phases
    overlap.  A pass holds one block's arrays per worker, and at most two
    blocks' results per worker wait for the caller.  A shorter pass, or
    one usable CPU, runs serially.  The results come in block order
    either way, and the caller reduces them as they come with one
    expression, `sum(...)` or `np.concatenate(...)`, so it gets the same
    bits at any thread count.  An exception raised in fn reaches the
    caller.  numpy's errstate is a context variable that pool threads do
    not inherit: a threaded fn runs under numpy's default error state.
    """
    blocks = _blocks(count, width)
    workers = min(len(blocks), _cpus(), _MAX_WORKERS) if len(blocks) >= _THREAD_MIN_BLOCKS else 1
    if workers < 2:
        yield from map(fn, blocks)
        return
    pool = ThreadPoolExecutor(workers)
    try:
        ahead = deque()
        for blk in blocks:
            ahead.append(pool.submit(fn, blk))
            if len(ahead) > 2 * workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class ContrastConfig:
    """Weight rule plus Fourier truncation: integration runs over |u| <= 1/trunc_h.

    The window must hold at least one of the rule's nodes.
    """

    weight_rule: WeightRule
    trunc_h: float

    def __post_init__(self):
        if not math.isfinite(self.trunc_h):
            raise ValueError("trunc_h must be finite")
        if not self.trunc_h > 0.0:
            raise ValueError("trunc_h must be positive")
        if not _window(self).any():
            raise ValueError("truncation window |u| <= 1/trunc_h holds no weight-rule node")


def _window(cfg: ContrastConfig) -> np.ndarray:
    """Mask of the rule's nodes inside the truncation window |u| <= 1/trunc_h."""
    return np.abs(cfg.weight_rule.nodes) <= (1.0 / cfg.trunc_h) * (1.0 + 1e-12)


def _lattice(u: np.ndarray):
    """Panel centres c and offsets d with u[j P + p] = c[j] + d[p], for sorted nodes u.

    The lattice of P = _NODES_PER_PANEL offsets d = u[:P] and centres
    c[j] = j (u[P] - u[0]) is accepted when it reproduces every node,
    a last panel cut short included, within _LATTICE_ULPS units in the
    last place of max u; otherwise the rule is one panel, c = [0], d = u.
    The lattice is read from the node values alone, so two rules with the
    same nodes take the same path.
    """
    p = _NODES_PER_PANEL
    if u.size > p:
        c = np.arange(-(-u.size // p)) * (u[p] - u[0])
        lattice = np.add.outer(c, u[:p]).ravel()[:u.size]
        if np.max(np.abs(lattice - u)) <= _LATTICE_ULPS * np.spacing(u[-1]):
            return c, u[:p].copy()
    return np.zeros(1), u


def _phases(x: np.ndarray, c: np.ndarray, d: np.ndarray):
    """Centre and offset phases exp(i outer(x, c)) and exp(i outer(x, d)), (B, J) and (B, P).

    Both are stored node-major: each is the transpose of a C-contiguous
    (J, B) or (P, B) block of one (J + P, B) array, computed in one pass
    of a few ufunc calls, whose `.T` the callers contract, so every
    per-node operation runs along the observations.  Every entry takes one
    tangent of its own half angle and one division: t = tan(u x / 2),
    r = 2/(1 + t^2) in its own buffer, cos = r - 1 and sin = t r.  numpy's
    float64 tan is vectorized where the CPU allows, several times cheaper
    than its cos and sin for arguments past a few radians.  No entry is a
    recurrence, so its rounding does not grow with the number of panels;
    each part is within 4.5e-16 of cos and sin, |e| within 4.5e-16 of 1,
    the entries at node 0 are exactly 1, and every entry of a finite
    argument is finite (|t| of a double stays far below overflow).  A CPU
    without a vectorized tan takes the same formula through its scalar
    tan, which can differ in the last bits.  e^{i u X_k} at node
    u = c[j] + d[p] is the product of entries (k, j) and (k, p).
    """
    t = np.multiply.outer(0.5 * np.concatenate([c, d]), x)
    np.tan(t, out=t)
    r = np.multiply(t, t)
    r += 1.0
    np.divide(2.0, r, out=r)
    e = np.empty(t.shape, dtype=complex)
    np.subtract(r, 1.0, out=e.real)
    np.multiply(t, r, out=e.imag)
    return e[:c.size].T, e[c.size:].T


def _panel_sums(coef: np.ndarray, c: np.ndarray, d: np.ndarray, y: np.ndarray, width: int):
    """sum_u Im(coef[r, u] e^{iuy}) on the lattice u = c_j + d_p, one real (R, B) array per block of y.

    coef (R, q) holds coefficients on the first q nodes, zero-padded to R
    rows of J panels of P; a point costs J + P phases (`_phases`) and
    no (B, q) array is formed.  The offsets' contraction is one matrix
    product, (R J, P) by the node-major (P, B) phases; the centres' is one
    broadcast complex multiply by the (J, B) phases, in the product's own
    buffer, and a sum of its imaginary part over the centre axis.  (Taking
    Re h Im e + Im h Re e instead reads both parts through strided views,
    which numpy does not vectorize: that form took about 440 us a block
    against 240 for the complex multiply and half sum, at 2,048 points and
    16 centres, and a threaded n = 50,000 fit 11-45% longer.)  The blocks'
    sums are yielded in block order by `_map_blocks(..., y.size, width)`;
    the caller reduces them, the sandwich to the sum of t @ t.T and the
    density, which passes i coef since Re(coef e) = Im(i coef e), to their
    concatenation.
    """
    g = np.pad(coef, ((0, 0), (0, c.size * d.size - coef.shape[1]))).reshape(-1, d.size)

    def block(blk):
        cen, off = _phases(y[blk], c, d)
        t = (g @ off.T).reshape(len(coef), c.size, -1)
        t *= cen.T
        return t.imag.sum(axis=1)
    return _map_blocks(block, y.size, width)


def default_trunc_h(n: int, cutoff: float = 30.0) -> float:
    """Truncation parameter h = n^{-1/2} / log n, kept so that 1/h <= cutoff.

    A finite cutoff must be positive; an infinite one keeps the rate rule.
    The rate rule assumes Sobolev smoothness above 1/4 (below that the
    squared bias cannot be driven under the variance at any truncation).
    """
    if n < 2:
        raise SampleTooSmall("need n >= 2")
    h = 1.0 / (math.sqrt(n) * math.log(n))
    if math.isfinite(cutoff):
        if not cutoff > 0.0:
            raise ValueError("cutoff must be positive")
        h = max(h, 1.0 / cutoff)
    return h


def m_dot(theta: EuclideanParam, u: np.ndarray) -> np.ndarray:
    """Gradient of the mixing operator in (p, alpha, beta), shape (3,) + u.shape."""
    u = np.asarray(u, dtype=float)
    ea = np.exp(1j * u * theta.alpha)
    eb = np.exp(1j * u * theta.beta)
    return np.stack([ea - eb, 1j * u * theta.p * ea, 1j * u * (1.0 - theta.p) * eb])


def _ratios(s, p, ea, eb):
    """1/M and the node sums z = (R, R G) of a batch of parameters: the one primitive.

    s, of shape (Q,) or (B, Q), holds the node sums S = sum_k e^{iuX_k};
    p, a scalar or (B, 1), and the phases ea = e^{iu alpha} and
    eb = e^{iu beta}, (Q,) or (B, Q), hold the parameters, which broadcast
    against s: a batch of one serves every row of s.  With
    M = p ea + (1-p) eb and G = (ea - eb)/M, the ratios a = ea/M and
    b = eb/M are a = 1 + (1-p) G and b = 1 - p G, since p a + (1-p) b = 1,
    so the residual's node sums Im R and every row of the Jacobian's,
    Im(R Mdot/M) with Mdot/M = (G, iu p a, iu (1-p) b), are combinations
    of R = S/M and R G: Im(R G), u p (Re R + (1-p) Re R G) and
    u (1-p) (Re R - p Re R G).  R and R G are returned as z[0] and z[1] of
    one (2, ..., Q) complex buffer, each written whole.  Returns 1/M and z.
    """
    inv = p * ea
    inv += (1.0 - p) * eb
    np.divide(1.0, inv, out=inv)
    g = np.subtract(ea, eb)
    g *= inv
    z = np.empty((2,) + np.broadcast(s, inv).shape, dtype=complex)
    np.multiply(s, inv, out=z[0])
    np.multiply(z[0], g, out=z[1])
    return inv, z


def _value_gradient(wn, uwn, p, z):
    """V = r^T W r and its gradient 2 J W r from `_ratios`' z, as four node dots per row.

    With r = Im R/n and J's rows as `_ratios` gives them, V and the gradient
    read four dots over the nodes, D1 = <w Im R, Im R>, D2 = <w Im R, Im R G>,
    D3 = <u w Im R, Re R> and D4 = <u w Im R, Re R G>, over n^2: V is D1
    and the gradient -2 (D2, x, D3 - x) with x = p (D3 + (1-p) D4), the
    third entry (1-p) (D3 - p D4) in exact arithmetic.  All
    four are one real np.matmul of z's interleaved float view, a (2, 2Q)
    block per row, by a (2Q, 2) block that holds w Im R/n^2 at the
    imaginary parts and u w Im R/n^2 at the real parts, zeros elsewhere, so
    no (B, 3, Q) Jacobian is formed; every row is its own product, so its
    bits do not depend on the batch.  wn = w/n^2 and uwn = u wn are the
    dots' weights, (Q,) or (B, Q), p a scalar or (B, 1), and z of shape
    (2, Q) or (2, B, Q).  Returns the values, a float or a list of floats,
    and the gradients, shape (3,) or (B, 3).
    """
    im_r, q = z[0].imag, z.shape[-1]
    k = np.zeros(im_r.shape[:-1] + (2, q, 2))
    np.multiply(im_r, wn, out=k[..., 0, :, 1])
    np.multiply(im_r, uwn, out=k[..., 1, :, 0])
    k = k.reshape(k.shape[:-2] + (2 * q,)).swapaxes(-1, -2)
    dots = np.matmul(z.view(float).swapaxes(0, -2), k)
    d2, d3, d4 = dots[..., 1, :1], dots[..., 0, 1:], dots[..., 1, 1:]
    x = (1.0 - p) * d4
    x += d3
    x *= p
    return dots[..., 0, 0].tolist(), np.concatenate([d2, x, d3 - x], axis=-1) * -2.0


def _mdot_ratio(u, p, a, b):
    """Mdot/M = (a - b, iu p a, iu (1-p) b) from `_ratios`' a and b, shape (..., 3, Q)."""
    iu = 1j * u
    out = np.empty(a.shape[:-1] + (3, u.size), dtype=complex)
    np.subtract(a, b, out=out[..., 0, :])
    np.multiply(iu * p, a, out=out[..., 1, :])
    np.multiply(iu * (1.0 - p), b, out=out[..., 2, :])
    return out


def _plugin_gradient_hessian(u, w, s, n, p, ea, eb):
    """Gradient and exact Hessian of the plug-in statistic V = r^T W r, batched.

    u has shape (Q,); w and s, of shape (Q,) or (B, Q), are the weights and
    the node sums sum_k e^{iuX_k} over n observations; p, ea = e^{iu alpha}
    and eb = e^{iu beta} are parameters as `_ratios` takes them, so phases
    of batch one serve every row.  Returns shapes (..., 3) and (..., 3, 3).

    From `_ratios`' R = S/M and R G, the gradient is 2 J W r, by
    `_value_gradient` as the search path computes it, and the Hessian
    2 J W J^T + 2 sum_q w_q r_q H_q, where
    H = sum_k Im(e^{iuX_k} (2 Mdot Mdot^T/M^3 - Mddot/M^2))/n.  With
    m = Mdot/M, J = -Im(R m)/n, and the Hessian is two contractions over
    the nodes, 2 (J o w) J^T and Im((m o k) m^T) with k = 4 w r R/n, less
    the four nonzero entries of Mddot: d2M/dp dalpha = iu e^{iu alpha},
    d2M/dp dbeta = -iu e^{iu beta}, d2M/dalpha^2 = iu Mdot_alpha and
    d2M/dbeta^2 = iu Mdot_beta, each over M and contracted with
    t = 2 iu w r R/n.
    """
    wn = w / (n * n)
    inv, z = _ratios(s, p, ea, eb)
    grad = _value_gradient(wn, u * wn, p, z)[1]
    t = z[0].copy()
    a, b = ea * inv, eb * inv
    del z, inv               # R lives on in t: 6 reals per row and node freed for 2 kept
    m = _mdot_ratio(u, p, a, b)
    del b                    # read only through m
    s_c = np.multiply(t[..., None, :], m).imag.copy()        # -n J = Im(R m)
    t *= wn * t.imag
    # 2 (J o w) J^T = 2 (s_c o w / n^2) s_c^T
    hess = 2.0 * np.matmul(s_c * wn[..., None, :], s_c.swapaxes(-1, -2))
    hess += 4.0 * np.matmul(m * t[..., None, :], m.swapaxes(-1, -2)).imag
    t *= 2j * u
    # sum_q t m_q, and sum_q t a; sum_q t b is their difference
    tm = np.matmul(m, t[..., :, None])[..., 0].imag
    ta = np.matmul(a[..., None, :], t[..., :, None])[..., 0, 0].imag
    hess[..., 0, 1] -= ta
    hess[..., 0, 2] += ta - tm[..., 0]
    hess[..., 1, 1] -= tm[..., 1]
    hess[..., 2, 2] -= tm[..., 2]
    # the upper triangle is mirrored, so the Hessian is symmetric bit for bit
    i, j = _TRIU
    hess[..., j, i] = hess[..., i, j]
    return grad, hess


def z_score(theta: EuclideanParam, u, x) -> np.ndarray:
    """Per-observation score Z(theta, u) = e^{iuX}/M(u) - e^{-iuX}/M(-u); purely imaginary."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    psi = np.exp(1j * u * x) / m_func(theta, u)
    return psi - np.conj(psi)


def z_score_gradient(theta: EuclideanParam, u, x) -> np.ndarray:
    """Gradient of Z in (p, alpha, beta): -2i Im(e^{iuX} Mdot / M^2), shape (3,) + broadcast."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    m = m_func(theta, u)
    c = m_dot(theta, u) / (m * m)
    t = np.exp(1j * u * x) * c
    return t - np.conj(t)


def j_func(gstar, theta: EuclideanParam, u) -> np.ndarray:
    """Population counterpart J(theta, u) = g*(u)/M(u) - g*(-u)/M(-u)."""
    u = np.asarray(u, dtype=float)
    return gstar(u) / m_func(theta, u) - gstar(-u) / m_func(theta, -u)


class ContrastEvaluator:
    """Per-sample cache making repeated contrast evaluations O(Q).

    One pass over blocks of observations keeps the empirical characteristic
    function at u and at 2u, the complex node sums
    S = sum_k e^{iuX_k} = C^T O and S2 = sum_k e^{2iuX_k} = (C o C)^T (O o O),
    with C and O a block's centre and offset phases on the nodes' panel
    lattice (see `_lattice` and `_phases`): O(Q) numbers, nothing of size n.
    Every value, gradient and sandwich piece starts from the module's one
    helper `_ratios`, which returns 1/M and R = S/M and R G, from which come
    the node sums sum_k Im(e^{iuX_k}/M) = Im R and
    sum_k Im(e^{iuX_k} Mdot/M^2) = Im(R Mdot/M), of shape (Q,) and (3, Q);
    S2 gives the pair statistic's diagonal.  The search path keeps the
    weights of its node dots, w/n^2 and u w/n^2, (Q,) each.
    `plugin` is the value of `plugin_value_gradient`.  In least-squares form
    the plug-in objective is V_n = r^T W r with residual
    r = sum_k Im(e^{iuX_k}/M)/n and Jacobian J = -sum_k Im(e^{iuX_k} Mdot/M^2)/n;
    the sandwich pieces of `information_and_score` come from the same J.

    The active nodes are folded onto |u|: M(-u) = conj M(u) makes
    v_k(-u) = -v_k(u) and its gradient odd too, so every integrand here is
    even and the weights of u and -u can be summed onto one node.  The fold
    is exact for any rule, symmetric or not, and is done once: `u` holds the
    folded nodes (sorted, nonnegative), half the rule's for a mirrored rule,
    and nothing of the rule's own size is kept.  The smoothing of the
    empirical characteristic function at bandwidth `smoothing` is even in u
    too, so it multiplies the folded weights: `w` = folded rule weights
    times exp(-(smoothing u)^2).
    """

    def __init__(self, sample: Sample, cfg: ContrastConfig, smoothing: float = 0.0):
        if sample.n < 2:
            raise SampleTooSmall("contrast needs at least two observations")
        win = _window(cfg)
        nodes = np.abs(cfg.weight_rule.nodes[win])
        self.u = np.unique(nodes)
        self._rule_w = np.bincount(np.searchsorted(self.u, nodes), cfg.weight_rule.weights[win],
                                   self.u.size)
        self.w = self._smoothed_weights(smoothing)
        self.n = sample.n
        self._c, self._d = _lattice(self.u)
        self._nodes = np.concatenate([self._c, self._d])
        self._wn = self.w / (self.n * self.n)
        self._uwn = self.u * self._wn
        q = self.u.size

        def block(blk):
            cen, off = _phases(sample.values[blk], self._c, self._d)
            return np.stack([cen.T @ off, (cen * cen).T @ (off * off)])
        self._s, self._s2 = sum(_map_blocks(block, sample.n, 2 * q)).reshape(2, -1)[:, :q]

    def _features(self, x: np.ndarray) -> np.ndarray:
        """e^{iuX_k} on the folded nodes for an array of observations x, shape x.shape + (Q,).

        The product of the lattice's centre and offset phases, each numpy's
        cos and sin of its own angle, laid out observation-major.  The search
        path's parameters are a few locations, where these phases cost no
        more than `_phases`' tangents and round less, so the descents take
        fewer steps at the rounding floor; the Newton steps and the refits'
        downdates take the same phases.
        """
        a = np.multiply.outer(x, self._nodes)
        e = np.empty(a.shape, dtype=complex)
        np.cos(a, out=e.real)
        np.sin(a, out=e.imag)
        j, q = self._c.size, self.u.size
        e = np.multiply(e[..., :j, None], e[..., None, j:])
        return e.reshape(e.shape[:-2] + (e.shape[-2] * e.shape[-1],))[..., :q]

    def _block(self, theta: EuclideanParam):
        """1/M, Mdot/M^2 and the node sums s_inv = Im R and s_c = Im(R Mdot/M) at theta (`_ratios`).

        Phases by np.exp; the Jacobian's node sums s_c, of shape (3, Q), are
        -n J, as `_plugin_gradient_hessian` forms them.
        """
        u, p = self.u, theta.p
        ea, eb = np.exp(1j * u * theta.alpha), np.exp(1j * u * theta.beta)
        inv, z = _ratios(self._s, p, ea, eb)
        m = _mdot_ratio(u, p, ea * inv, eb * inv)
        return inv, m * inv, z[0].imag, (z[0] * m).imag

    def _smoothed_weights(self, b) -> np.ndarray:
        """The folded rule weights times the smoothing factor exp(-(b u)^2) of bandwidth b.

        b is a scalar or an array of bandwidths, each giving one row of weights.
        """
        return self._rule_w * np.exp(-np.multiply.outer(b, self.u) ** 2)

    def _squares(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """sum_k Im(y e^{iuX_k}) Im(z e^{iuX_k}) = (n Re(y conj z) - Re(y z S2)) / 2 node-wise."""
        return 0.5 * (self.n * (y * z.conj()).real - (y * z * self._s2).real)

    def u_statistic(self, theta: EuclideanParam) -> float:
        """Diagonal-removed pair statistic S_n(theta)."""
        return self._u_statistic(self._block(theta))

    def _u_statistic(self, block) -> float:
        """`u_statistic` from the `_block` at theta."""
        inv, _, s_inv, _ = block
        n = self.n
        return float(np.dot(self.w, s_inv * s_inv - self._squares(inv, inv)) / (n * (n - 1)))

    def plugin(self, theta: EuclideanParam) -> float:
        """Plug-in statistic V_n(theta) = int Im(ghat*/M)^2 dW >= 0."""
        return self.plugin_value_gradient(theta)[0]

    def u_statistic_gradient(self, theta: EuclideanParam) -> np.ndarray:
        """Gradient of S_n in (p, alpha, beta), from the closed-form Z-gradient."""
        inv, c, s_inv, s_c = self._block(theta)
        n = self.n
        dv = s_inv * s_c - self._squares(inv, c)
        return -2.0 * (dv @ self.w) / (n * (n - 1))

    def plugin_value_gradient(self, theta: EuclideanParam):
        """Plug-in statistic r^T W r and its gradient 2 J W r in (p, alpha, beta)."""
        return self._values_gradients(theta.as_array()[None])[0]

    def _values_gradients(self, thetas: np.ndarray) -> list:
        """`plugin_value_gradient` of every row (p, alpha, beta) of thetas, shape (B, 3).

        The phases e^{iu alpha} and e^{iu beta} of every row come from the
        evaluator's lattice (`_features`), one `_ratios` call on the batch
        gives R = S/M and R G, and `_value_gradient` reads each row's value
        r^T W r and gradient from its own four node dots, so a row's value
        and gradient are its batch of one's, bit for bit: the fit's
        lock-step descents (`estimator._descend_all`) take the same steps as
        one descent per start.  An empty batch gives [].
        """
        ea, eb = self._features(thetas[:, 1:].T)
        p = thetas[:, :1]
        z = _ratios(self._s, p, ea, eb)[1]
        return list(zip(*_value_gradient(self._wn, self._uwn, p, z)))

    def information_and_score(self, theta: EuclideanParam, x: np.ndarray):
        """Sandwich pieces (info, v_hat) of the plug-in contrast at theta, each (3, 3).

        x is the sample this evaluator was built from.  info = 2 J W J^T is
        the contrast's Gauss-Newton curvature.  The per-observation score is
        U_k = -4 J W Im(e^{iuX_k}/M) = -4 Im sum_q z_q e^{iu_q X_k} with
        z = J W / M, of shape (3, Q), and v_hat = sum_k U_k U_k^T / (4n) is
        summed in one pass over blocks of x, whose sums over nodes come from
        the panel transform `_panel_sums`, so the (B, Q) phases are never
        formed.
        """
        return self._information_and_score(self._block(theta), x)

    def _information_and_score(self, block, x: np.ndarray):
        """`information_and_score` from the `_block` at theta."""
        if np.shape(x) != (self.n,):
            raise ValueError(f"x must hold the evaluator's {self.n} observations")
        inv, _, _, s_c = block
        jac = -s_c / self.n
        jw = jac * self.w
        info = 2.0 * jw @ jac.T
        score = sum(t @ t.T for t in _panel_sums(jw * inv, self._c, self._d, x, 2 * self.u.size))
        return info, 4.0 * score / self.n


def empirical_contrast(sample: Sample, theta: EuclideanParam, cfg: ContrastConfig) -> float:
    """Diagonal-removed empirical contrast S_n(theta)."""
    return ContrastEvaluator(sample, cfg).u_statistic(theta)


def plugin_contrast(sample: Sample, theta: EuclideanParam, cfg: ContrastConfig) -> float:
    """Nonnegative plug-in contrast V_n(theta)."""
    return ContrastEvaluator(sample, cfg).plugin(theta)


def contrast_gradient(sample: Sample, theta: EuclideanParam, cfg: ContrastConfig) -> np.ndarray:
    """Gradient of S_n(theta) with respect to (p, alpha, beta)."""
    return ContrastEvaluator(sample, cfg).u_statistic_gradient(theta)


def oracle_contrast(gstar, theta: EuclideanParam, cfg: ContrastConfig) -> float:
    """Population discrepancy int Im(g*(u)/M(theta,u))^2 dW(u) on the rule's nodes.

    gstar must be a callable characteristic function with g*(0) = 1 and
    conjugate symmetry g*(-u) = conj(g*(u)); it is evaluated vectorized.
    """
    g0 = complex(np.asarray(gstar(np.array(0.0))))
    if abs(g0 - 1.0) > 1e-8:
        raise BadCharacteristicFunction(f"g*(0) = {g0}, expected 1")
    mask = _window(cfg)
    u = cfg.weight_rule.nodes[mask]
    w = cfg.weight_rule.weights[mask]
    im_part = np.imag(np.asarray(gstar(u)) / m_func(theta, u))
    return float(np.dot(w, im_part * im_part))
