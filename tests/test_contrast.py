import math

import numpy as np
import pytest

from symmix import (BadCharacteristicFunction, ContrastConfig, ContrastEvaluator,
                    EuclideanParam, SampleTooSmall, Sample, WeightRule, build_weight_rule,
                    contrast_gradient, default_trunc_h, empirical_contrast, j_func,
                    m_func, oracle_contrast, plugin_contrast, z_score, z_score_gradient)
from symmix import contrast
from symmix.contrast import m_dot
from symmix.simulate import replication_rng

THETA0 = EuclideanParam(0.25, -1.0, 2.0)
RULE = build_weight_rule(256, 30.0)
CFG = ContrastConfig(RULE, trunc_h=1.0 / 30.0)


def gauss_sample(n, rep=0, theta=THETA0):
    rng = replication_rng(99, rep)
    labels = rng.random(n) < theta.p
    eps = rng.standard_normal(n)
    return Sample(np.where(labels, theta.alpha, theta.beta) + eps)


def naive_pair_statistic(sample, theta, cfg):
    """Literal double-sum evaluation of the pair statistic, complex arithmetic."""
    mask = np.abs(cfg.weight_rule.nodes) <= 1.0 / cfg.trunc_h * (1 + 1e-12)
    u = cfg.weight_rule.nodes[mask]
    w = cfg.weight_rule.weights[mask]
    x = sample.values
    n = x.size
    m_pos = m_func(theta, u)
    m_neg = m_func(theta, -u)
    z = np.exp(1j * np.outer(u, x)) / m_pos[:, None] \
        - np.exp(-1j * np.outer(u, x)) / m_neg[:, None]
    total = np.zeros(u.size, dtype=complex)
    for j in range(n):
        for k in range(n):
            if j != k:
                total += z[:, j] * z[:, k]
    val = np.dot(w, total) * (-1.0 / (4.0 * n * (n - 1)))
    return val


# ---------------------------------------------------------------- truncation


def test_default_trunc_h_clipping():
    h = default_trunc_h(100, cutoff=30.0)
    assert h == pytest.approx(1.0 / 30.0)
    raw = default_trunc_h(100, cutoff=math.inf)
    assert raw == pytest.approx(0.1 / math.log(100.0), rel=1e-12)
    assert raw == pytest.approx(0.02171, abs=1e-5)


def test_default_trunc_h_decreases_unclipped():
    hs = [default_trunc_h(n, cutoff=math.inf) for n in (10, 100, 10_000, 10_000_000)]
    assert all(a > b for a, b in zip(hs, hs[1:]))
    assert hs[-1] < 1e-3


def test_default_trunc_h_smoothness_guard():
    with pytest.raises(SampleTooSmall):
        default_trunc_h(1)


@pytest.mark.parametrize("cutoff", [0.0, -0.0, -1.0])
def test_default_trunc_h_rejects_nonpositive_cutoff(cutoff):
    with pytest.raises(ValueError, match="cutoff must be positive"):
        default_trunc_h(100, cutoff=cutoff)


# ------------------------------------------------------------- score bounds


def test_z_score_uniform_bounds():
    rng = np.random.default_rng(5)
    count = 10_000
    p = rng.uniform(0.001, 0.499, count)
    a = rng.normal(0, 4, count)
    b = a + np.where(rng.random(count) < 0.5, 1, -1) * rng.uniform(0.01, 6, count)
    u = rng.uniform(-30, 30, count)
    x = rng.normal(0, 3, count)
    cap_z = 2.0 / (1.0 - 2.0 * 0.499)
    cap_grad = 4.0 * (1.0 + np.abs(u)) / (1.0 - 2.0 * 0.499) ** 2
    for i in range(count):
        theta = EuclideanParam(p[i], a[i], b[i])
        z = z_score(theta, u[i], x[i])
        assert abs(z) <= 2.0 / (1.0 - 2.0 * p[i]) + 1e-9
        assert abs(z) <= cap_z + 1e-9
        assert abs(z.real) < 1e-12          # purely imaginary
        zd = z_score_gradient(theta, u[i], x[i])
        norm = np.linalg.norm(zd)
        assert norm <= 4.0 * (1.0 + abs(u[i])) / (1.0 - 2.0 * p[i]) ** 2 + 1e-9
        assert norm <= cap_grad[i] + 1e-9
        assert np.max(np.abs(zd.real)) < 1e-12


# ----------------------------------------------------------- pair statistic


def test_two_identical_points_reduce_to_one_point_integral():
    sample = Sample([0.0, 0.0])
    got = empirical_contrast(sample, THETA0, CFG)
    mask = np.abs(RULE.nodes) <= 30.0 * (1 + 1e-12)
    u, w = RULE.nodes[mask], RULE.weights[mask]
    direct = float(np.dot(w, np.imag(1.0 / m_func(THETA0, u)) ** 2))
    assert got == pytest.approx(direct, rel=1e-12)
    naive = naive_pair_statistic(sample, THETA0, CFG)
    assert got == pytest.approx(naive.real, rel=1e-12)


@pytest.mark.parametrize("theta", [THETA0, EuclideanParam(0.4, 0.0, 1.0),
                                   EuclideanParam(0.1, -3.0, 4.0)])
def test_factorized_equals_naive_double_sum(theta):
    sample = gauss_sample(50)
    fast = empirical_contrast(sample, theta, CFG)
    naive = naive_pair_statistic(sample, theta, CFG)
    assert abs(naive.imag) < 1e-12           # reality of the complex evaluation
    assert fast == pytest.approx(naive.real, rel=1e-10, abs=1e-13)


def test_label_swap_invariance_exact():
    sample = gauss_sample(40)
    theta = EuclideanParam(0.25, -1.0, 2.0)       # dyadic p: swap is bit-exact
    swapped = EuclideanParam(0.75, 2.0, -1.0)
    assert empirical_contrast(sample, theta, CFG) == empirical_contrast(sample, swapped, CFG)


def test_label_swap_invariance_general_p():
    sample = gauss_sample(40)
    for p in (0.123456, 0.37, 0.4999):
        theta = EuclideanParam(p, -1.0, 2.0)
        swapped = EuclideanParam(1.0 - p, 2.0, -1.0)
        a = empirical_contrast(sample, theta, CFG)
        b = empirical_contrast(sample, swapped, CFG)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-14)


def test_translation_equivariance():
    sample = gauss_sample(60)
    c = 1.5
    shifted = Sample(sample.values + c)
    theta_shift = EuclideanParam(THETA0.p, THETA0.alpha + c, THETA0.beta + c)
    a = empirical_contrast(sample, THETA0, CFG)
    b = empirical_contrast(shifted, theta_shift, CFG)
    assert abs(a - b) < 1e-12


def test_boundedness():
    sample = gauss_sample(30)
    bound = 4.0 / (1.0 - 2.0 * 0.499) ** 2 * RULE.weights.sum()
    rng = np.random.default_rng(3)
    for _ in range(50):
        theta = EuclideanParam(rng.uniform(0.001, 0.499), rng.normal(0, 3),
                               rng.normal(0, 3) + 4.0)
        assert abs(empirical_contrast(sample, theta, CFG)) <= bound


def test_contrast_requires_two_points():
    with pytest.raises(SampleTooSmall):
        empirical_contrast(Sample([1.0]), THETA0, CFG)


def test_plugin_contrast_nonnegative_and_consistent():
    sample = gauss_sample(50)
    rng = np.random.default_rng(8)
    for _ in range(25):
        theta = EuclideanParam(rng.uniform(0.001, 0.499), rng.normal(0, 2),
                               rng.normal(0, 2) + 3.0)
        v = plugin_contrast(sample, theta, CFG)
        assert v >= 0.0
        # direct definition: int Im(ghat*/M)^2 dW
        mask = np.abs(RULE.nodes) <= 30.0 * (1 + 1e-12)
        u, w = RULE.nodes[mask], RULE.weights[mask]
        ecf = np.exp(1j * np.outer(u, sample.values)).mean(axis=1)
        direct = float(np.dot(w, np.imag(ecf / m_func(theta, u)) ** 2))
        assert v == pytest.approx(direct, rel=1e-10, abs=1e-15)


# ------------------------------------------------------------------ gradient


def test_gradient_matches_finite_differences():
    sample = gauss_sample(80)
    grad = contrast_gradient(sample, THETA0, CFG)
    step = 1e-5
    fd = np.empty(3)
    base = np.array([THETA0.p, THETA0.alpha, THETA0.beta])
    for j in range(3):
        hi, lo = base.copy(), base.copy()
        hi[j] += step
        lo[j] -= step
        fd[j] = (empirical_contrast(sample, EuclideanParam(*hi), CFG)
                 - empirical_contrast(sample, EuclideanParam(*lo), CFG)) / (2 * step)
    rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-12)
    assert np.max(rel) <= 1e-5


def test_plugin_gradient_matches_finite_differences():
    sample = gauss_sample(80)
    # unequal weights on +-u, smoothed
    ev = ContrastEvaluator(sample, ContrastConfig(_asymmetric_table(), trunc_h=1.0 / 30.0),
                           smoothing=0.1)
    theta = EuclideanParam(0.3, -0.5, 1.7)
    _, grad = ev.plugin_value_gradient(theta)
    step = 1e-5
    fd = np.empty(3)
    base = theta.as_array()
    for j in range(3):
        hi, lo = base.copy(), base.copy()
        hi[j] += step
        lo[j] -= step
        fd[j] = (ev.plugin(EuclideanParam(*hi)) - ev.plugin(EuclideanParam(*lo))) / (2 * step)
    assert np.max(np.abs(grad - fd) / np.abs(fd)) <= 1e-6


def literal_value_gradient(ev, theta):
    """r^T W r and 2 J W r from r = Im(S/M)/n and J = -Im(S Mdot/M^2)/n, phases by np.exp."""
    u, s, n = ev.u, ev._s, ev.n
    m = m_func(theta, u)
    r = (s / m).imag / n
    jac = -(s * m_dot(theta, u) / (m * m)).imag / n
    return r @ (ev.w * r), 2.0 * jac @ (ev.w * r)


def assert_close_to_literal(ev, thetas):
    for theta, (value, grad) in zip(thetas, ev._values_gradients(thetas)):
        want_value, want_grad = literal_value_gradient(ev, EuclideanParam(*theta))
        assert abs(value - want_value) <= 1e-12 * want_value
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))


@pytest.mark.parametrize("rule, panels", [(RULE, (16, 8)), (build_weight_rule(250, 30.0), (1, 125))],
                         ids=["lattice", "one-panel"])
def test_batched_values_equal_literal_residual_and_jacobian(rule, panels, monkeypatch):
    # the kernel's R = S/M and ratios e^{iu alpha}/M, e^{iu beta}/M against the
    # literal r and J, with p at both box edges and at random, |alpha|, |beta| <= 50
    ev = ContrastEvaluator(gauss_sample(100), ContrastConfig(rule, trunc_h=1.0 / 30.0))
    assert (ev._c.size, ev._d.size) == panels
    rng = np.random.default_rng(11)
    k = 100
    ps = np.concatenate([np.full(k, 0.001), np.full(k, 0.499), rng.uniform(0.001, 0.499, k)])
    thetas = np.column_stack([ps, rng.uniform(-50.0, 50.0, 3 * k), rng.uniform(-50.0, 50.0, 3 * k)])
    # with the phase kernel's own e^{iu alpha} where |M| >= 0.998: its phases
    # differ from np.exp's by up to about 1e-16 |u alpha| (2e-13 at |u alpha| =
    # 1,500), and 1/M scales that by up to 1/(1 - 2p), 500 at p = 0.499
    assert_close_to_literal(ev, thetas[:k])
    # with np.exp's phases on both sides, everywhere in the box
    monkeypatch.setattr(ev, "_features", lambda x: np.exp(1j * np.multiply.outer(x, ev.u)))
    assert_close_to_literal(ev, thetas)


def test_hessian_gradient_is_the_batched_gradient_bit_for_bit():
    # both take the gradient from one expression on the same node sums
    ev = ContrastEvaluator(gauss_sample(100), CFG)
    rng = np.random.default_rng(5)
    thetas = np.column_stack([rng.uniform(0.01, 0.49, 20), rng.normal(-1.0, 2.0, 20),
                              rng.normal(2.0, 2.0, 20)])
    ea, eb = ev._features(thetas[:, 1:].T.ravel()).reshape(2, len(thetas), -1)
    grad, _ = contrast._plugin_gradient_hessian(ev.u, np.tile(ev.w, (len(thetas), 1)),
                                                np.tile(ev._s, (len(thetas), 1)), ev.n,
                                                thetas[:, :1], ea, eb)
    for row, (_, want) in zip(grad, ev._values_gradients(thetas)):
        assert np.array_equal(row, want)


def test_empty_batch_gives_no_values():
    # the screen of a sample whose quantiles all tie has no points to descend from
    ev = ContrastEvaluator(gauss_sample(100), CFG)
    assert ev._values_gradients(np.empty((0, 3))) == []


def test_gradient_swap_transformation():
    sample = gauss_sample(40)
    g = contrast_gradient(sample, THETA0, CFG)
    g_swapped = contrast_gradient(sample, EuclideanParam(0.75, 2.0, -1.0), CFG)
    # under (p, a, b) -> (1-p, b, a): d/dp flips sign, d/da and d/db exchange
    assert g_swapped[0] == pytest.approx(-g[0], rel=1e-10, abs=1e-14)
    assert g_swapped[1] == pytest.approx(g[2], rel=1e-10, abs=1e-14)
    assert g_swapped[2] == pytest.approx(g[1], rel=1e-10, abs=1e-14)


# -------------------------------------------------------------------- oracle


def gauss_gstar(theta):
    def gstar(u):
        return m_func(theta, np.asarray(u, dtype=float)) * np.exp(-np.asarray(u) ** 2 / 2.0)
    return gstar


def test_oracle_contrast_zero_at_truth():
    assert oracle_contrast(gauss_gstar(THETA0), THETA0, CFG) <= 1e-10


def test_oracle_contrast_positive_off_truth():
    val = oracle_contrast(gauss_gstar(THETA0), EuclideanParam(0.25, -1.0, 2.5), CFG)
    assert val > 1e-4


def test_oracle_contrast_cauchy_component():
    def gstar(u):
        u = np.asarray(u, dtype=float)
        return m_func(THETA0, u) * np.exp(-np.abs(u))
    assert oracle_contrast(gstar, THETA0, CFG) <= 1e-10


def test_oracle_contrast_validates_cf():
    with pytest.raises(BadCharacteristicFunction):
        oracle_contrast(lambda u: 0.5 * np.exp(-np.asarray(u) ** 2), THETA0, CFG)


def test_j_func_zero_at_truth():
    u = np.linspace(-10, 10, 101)
    vals = j_func(gauss_gstar(THETA0), THETA0, u)
    assert np.max(np.abs(vals)) < 1e-14


def test_truncation_mask_reduces_nodes():
    cfg_small = ContrastConfig(RULE, trunc_h=1.0)
    ev = ContrastEvaluator(Sample([0.0, 1.0]), cfg_small)
    assert np.all(np.abs(ev.u) <= 1.0 + 1e-9)
    assert ev.u.size < RULE.nodes.size


def test_weight_rule_given_directly_drives_contrast():
    given = WeightRule("given", RULE.cutoff, RULE.nodes, RULE.weights)
    cfg = ContrastConfig(given, trunc_h=1.0 / 30.0)
    sample = gauss_sample(30)
    assert empirical_contrast(sample, THETA0, cfg) == empirical_contrast(sample, THETA0, CFG)


# ------------------------------------------------------------- node folding


def _asymmetric_table():
    """Unequal weights on +-u, and a few positive nodes without a mirror."""
    u_pos = RULE.nodes[RULE.nodes > 0]
    w_pos = RULE.weights[RULE.nodes > 0]
    keep = np.ones(u_pos.size, dtype=bool)
    keep[[3, 40, 77]] = False                     # these +u lose their -u partner
    nodes = np.concatenate([-u_pos[keep], u_pos])
    weights = np.concatenate([0.6 * w_pos[keep], 1.4 * w_pos])
    return WeightRule("asymmetric", RULE.cutoff, nodes, weights)


DEFAULT_BUDGET = contrast._BLOCK_ELEMENTS


# (rule, n, block budget); the last splits the observations over many blocks
@pytest.mark.parametrize("rule, n, budget", [
    (RULE, 40, DEFAULT_BUDGET),
    (_asymmetric_table(), 40, DEFAULT_BUDGET),
    (RULE, 1000, 2 ** 14),
], ids=["default", "asymmetric", "default-blocked"])
def test_folded_nodes_equal_full_node_evaluation(rule, n, budget, monkeypatch):
    monkeypatch.setattr(contrast, "_BLOCK_ELEMENTS", budget)
    cfg = ContrastConfig(rule, trunc_h=1.0 / 30.0)
    b = 0.1                                        # the smoothing bandwidth
    sample = gauss_sample(n)
    theta = EuclideanParam(0.3, -0.5, 1.7)
    ev = ContrastEvaluator(sample, cfg, smoothing=b)
    if budget < DEFAULT_BUDGET:     # the evaluator's passes take blocks sized for (2Q, block)
        assert len(contrast._blocks(n, 2 * ev.u.size)) >= 3
    assert np.all(ev.u >= 0.0) and np.all(np.diff(ev.u) > 0.0)
    assert ev.u.size == np.unique(np.abs(rule.nodes)).size < rule.nodes.size

    # literal evaluation on every node of the rule, complex arithmetic
    u, x, n = rule.nodes, sample.values, sample.n
    w = rule.weights * np.exp(-(b * u) ** 2)
    e = np.exp(1j * np.outer(u, x))
    m = m_func(theta, u)
    v = np.imag(e / m[:, None])                                    # (Q, n)
    d = np.imag(e[None] * (m_dot(theta, u) / (m * m))[:, :, None])  # (3, Q, n)
    sv, sd = v.sum(axis=1), d.sum(axis=2)
    plugin = np.dot(w, (sv / n) ** 2)
    plugin_grad = -2.0 * (sd / n) @ (w * sv / n)
    pair = np.dot(w, sv ** 2 - (v * v).sum(axis=1)) / (n * (n - 1))
    pair_grad = -2.0 * (sd * sv - (d * v).sum(axis=2)) @ w / (n * (n - 1))
    dbar = sd / n                          # mean score gradient, Zdot = -2i d
    info = 2.0 * (dbar * w) @ dbar.T
    u_k = 4.0 * dbar @ (w[:, None] * v)    # (3, n): U_k = int Z_k Jdot dW
    v_hat = u_k @ u_k.T / (4.0 * n)

    def close(got, want):
        return np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    val, grad = ev.plugin_value_gradient(theta)
    assert close(ev.plugin(theta), plugin) and close(val, plugin)
    assert close(grad, plugin_grad)
    assert close(ev.u_statistic(theta), pair)
    assert close(ev.u_statistic_gradient(theta), pair_grad)
    got_info, got_v_hat = ev.information_and_score(theta, sample.values)
    assert close(got_info, info) and close(got_v_hat, v_hat)


def literal_fold(rule, trunc_h, factor):
    """rule.weights * factor inside the window, summed onto |u| entry by entry with np.add.at.

    factor has the rule's nodes on its last axis; each leading row is folded on its own.
    """
    inside = np.abs(rule.nodes) <= (1.0 / trunc_h) * (1.0 + 1e-12)
    nodes = np.abs(rule.nodes[inside])
    u = np.unique(nodes)
    w = rule.weights[inside] * factor[..., inside]
    out = np.zeros(w.shape[:-1] + u.shape)
    np.add.at(out.T, np.searchsorted(u, nodes), w.T)
    return out


@pytest.mark.parametrize("nodes", [256, 512, 250, 4096, None],
                         ids=["default-256", "default-512", "default-250", "default-4096",
                              "asymmetric"])
def test_weights_folded_once_equal_literal_fold(nodes):
    # the smoothing exp(-(b u)^2) multiplies the folded weights; a mirrored rule
    # gives the literal fold of the smoothed weights bit for bit, any other rule
    # within the rounding of a sum of two products
    from symmix.cli import rainfall_path, read_numeric_csv
    from symmix.estimator import _frame, _loo_scales, _smoothing

    sample = Sample(read_numeric_csv(rainfall_path()))
    rule = _asymmetric_table() if nodes is None else \
        build_weight_rule(nodes, _frame(sample).ccfg.weight_rule.cutoff)
    # for the default rules this is the fit's own truncation on these data
    ccfg = ContrastConfig(rule, trunc_h=1.0 / rule.cutoff)
    frame = _frame(sample, ccfg)
    ev, x, n = frame.ev, frame.centred.values, sample.n
    b = _smoothing(n, frame.scale)
    b_loo = _smoothing(n - 1, _loo_scales(x))
    got = [ContrastEvaluator(frame.centred, ccfg).w, ev.w, ev._smoothed_weights(b_loo)]
    want = [literal_fold(rule, ccfg.trunc_h, np.ones(rule.nodes.size)),
            literal_fold(rule, ccfg.trunc_h, np.exp(-(b * rule.nodes) ** 2)),
            literal_fold(rule, ccfg.trunc_h, np.exp(-(b_loo[:, None] * rule.nodes) ** 2))]
    assert got[2].shape == (n, ev.u.size)
    for g, w in zip(got, want):
        if rule.density_id == "laplace_default":
            assert np.array_equal(g, w)
        else:
            # (a + a') f against a f + a' f: a few roundings, relative above the
            # normal range and of one subnormal step below it
            tiny = np.finfo(float).smallest_subnormal
            assert np.all(np.abs(g - w) <= 1e-15 * np.abs(w) + 2 * tiny)
    # nothing of the rule's own size is kept
    assert all(np.size(v) < rule.nodes.size for v in vars(ev).values())


def test_evaluator_state_does_not_grow_with_n():
    # node sums of e^{iuX_k} and e^{2iuX_k}: nothing of size n
    def kept(n):
        ev = ContrastEvaluator(gauss_sample(n), CFG)
        return sum(getattr(v, "nbytes", 0) for v in vars(ev).values())

    small = kept(1_000)
    assert small == kept(100_000)
    assert small < 4 * (2 * 128) ** 2 * 8


def _jittered_table():
    """The default rule's nodes moved off its panel lattice by about 1e-9 relative, +-u alike."""
    half = 1.0 + 1e-9 * replication_rng(5, 0).standard_normal(RULE.nodes.size // 2)
    jitter = np.concatenate([half[::-1], half])
    return WeightRule("jittered", RULE.cutoff, RULE.nodes * jitter, RULE.weights)


# (rule, cutoff of the truncation window, panels J and offsets P of the lattice found)
@pytest.mark.parametrize("rule, window, panels", [
    (build_weight_rule(256, 0.5), 0.5, (16, 8)),
    (build_weight_rule(256, 3.64), 3.64, (16, 8)),
    (RULE, 30.0, (16, 8)),
    (RULE, 10.0, (6, 8)),           # the window keeps 43 nodes: 5 panels and 3 of a sixth
    (build_weight_rule(100, 30.0), 30.0, (1, 50)),   # panels of 9 and 8
    (_asymmetric_table(), 30.0, (16, 8)),     # folds onto the default rule's nodes
    (_jittered_table(), 30.0, (1, 128)),
], ids=["default-0.5", "default-3.64", "default-30", "cut-panel", "uneven-100",
        "asymmetric", "jittered"])
def test_panel_phases_equal_literal_features(rule, window, panels):
    cfg = ContrastConfig(rule, trunc_h=1.0 / window)
    sample = gauss_sample(500)
    ev = ContrastEvaluator(sample, cfg)
    assert (ev._c.size, ev._d.size) == panels
    if panels[0] > 1:
        assert ev._c.size * ev._d.size - ev.u.size < ev._d.size

    x, n = sample.values, sample.n
    arg = np.outer(x, ev.u)
    cos, sin = np.cos(arg), np.sin(arg)                         # (n, Q)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    assert close(ev._s.real, cos.sum(axis=0)) and close(ev._s.imag, sin.sum(axis=0))
    # S2 = sum_k e^{2iuX_k}: cos 2uX = cos^2 - sin^2, sin 2uX = 2 cos sin
    assert close(ev._s2.real, (cos * cos - sin * sin).sum(axis=0))
    assert close(ev._s2.imag, (2.0 * cos * sin).sum(axis=0))
    assert close(ev._features(x[:50]), cos[:50] + 1j * sin[:50])
    theta = EuclideanParam(0.3, -0.5, 1.7)
    inv, _, _, s_c = ev._block(theta)
    v = cos * inv.imag + sin * inv.real                         # Im(e^{iuX_k} / M)
    assert close(ev._squares(inv, inv), (v * v).sum(axis=0))
    z = -s_c / n * ev.w * inv                # U_k = -4 Im sum_q z_q e^{iu_q X_k}
    u_k = -4.0 * (cos @ z.imag.T + sin @ z.real.T)
    assert close(ev.information_and_score(theta, x)[1], u_k.T @ u_k / (4.0 * n))


def test_phase_kernel_matches_cos_and_sin():
    # arguments from 0 to 1e15, odd multiples of pi (where the half-angle
    # tangent is largest) and random ones, of both signs; node 0 is a centre
    odd = 2.0 * np.concatenate([np.arange(-5000, 5000), np.arange(10 ** 6, 10 ** 6 + 5000),
                                10.0 ** np.arange(3, 15)]) + 1.0
    x = np.concatenate([np.linspace(0.0, 100.0, 20001), np.logspace(-12, 15, 20001),
                        odd * np.pi, np.random.default_rng(5).uniform(-1e4, 1e4, 20000)])
    x = np.concatenate([x, -x])
    c, d = np.array([0.0, 1.0]), np.array([1.0, -1.0, 0.75])
    for nodes, e in zip((c, d), contrast._phases(x, c, d)):
        arg = np.outer(x, nodes)
        assert np.all(np.isfinite(e))
        assert np.max(np.abs(e.real - np.cos(arg))) <= 4.5e-16
        assert np.max(np.abs(e.imag - np.sin(arg))) <= 4.5e-16
        assert np.max(np.abs(np.abs(e) - 1.0)) <= 4.5e-16
    assert np.all(contrast._phases(x, c, d)[0][:, 0] == 1.0 + 0.0j)


def test_evaluator_state_is_linear_in_rule_nodes():
    # no (2Q, 2Q) matrix: 128 MiB at 4,096 nodes
    rule = build_weight_rule(4096, 30.0)
    ev = ContrastEvaluator(gauss_sample(1_000), ContrastConfig(rule, trunc_h=1.0 / 30.0))
    arrays = [v for v in vars(ev).values() if isinstance(v, np.ndarray)]
    assert ev.u.size == 2048 and (ev._c.size, ev._d.size) == (256, 8)
    assert max(a.size for a in arrays) <= rule.nodes.size
    assert sum(a.nbytes for a in arrays) <= 64 * rule.nodes.size


def test_fit_memory_with_4096_node_rule():
    import tracemalloc

    from symmix import fit
    from symmix.cli import rainfall_path, read_numeric_csv
    from symmix.estimator import robust_scale
    from symmix.weights import scale_aware_cutoff

    sample = Sample(read_numeric_csv(rainfall_path()))
    cutoff = scale_aware_cutoff(robust_scale(sample.values - np.median(sample.values)))
    ccfg = ContrastConfig(build_weight_rule(4096, cutoff),
                          default_trunc_h(sample.n, cutoff=cutoff))
    tracemalloc.start()
    try:
        res = fit(sample, ccfg=ccfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert np.all(np.isfinite(res.std_errors))


# ------------------------------------------------------------------- Hessian


def fitted_evaluator(family, theta0):
    """The fit objective's evaluator of an n = 100 sample, and its fitted optimum there."""
    from symmix import fit, sample_mixture, ScenarioSpec
    from symmix.estimator import _frame, _shift

    sample = sample_mixture(ScenarioSpec(family, theta0, 100, 1, 7), 0)
    frame = _frame(sample)
    return frame.ev, _shift(fit(sample).theta_hat, -frame.m)


def hessian_by_differences(ev, theta, step=1e-6):
    base = theta.as_array()
    cols = []
    for j in range(3):
        hi, lo = base.copy(), base.copy()
        hi[j] += step
        lo[j] -= step
        cols.append((ev.plugin_value_gradient(EuclideanParam(*hi))[1]
                     - ev.plugin_value_gradient(EuclideanParam(*lo))[1]) / (2 * step))
    return np.column_stack(cols)


def exp_phases(u, theta):
    """p, e^{iu alpha} and e^{iu beta} of one parameter as a batch of one, phases by np.exp."""
    ea, eb = (np.exp(1j * u * loc)[None] for loc in (theta.alpha, theta.beta))
    return np.full((1, 1), theta.p), ea, eb


def feature_phases(ev, theta):
    """p, e^{iu alpha} and e^{iu beta} of one parameter as a batch of one, phases by the
    evaluator's phase kernel, as `plugin_value_gradient` and the Newton steps take them."""
    ea, eb = ev._features(np.array([theta.alpha, theta.beta]))[:, None]
    return np.full((1, 1), theta.p), ea, eb


def evaluator_hessian(ev, theta):
    """Gradient and exact Hessian of the evaluator's plug-in contrast, a batch of one."""
    grad, hess = contrast._plugin_gradient_hessian(ev.u, ev.w[None], ev._s[None], ev.n,
                                                   *feature_phases(ev, theta))
    return grad[0], hess[0]


HESSIAN_CASES = [("gauss", THETA0), ("cauchy", EuclideanParam(0.2, 1.0, 5.0))]


@pytest.mark.parametrize("family, theta0", HESSIAN_CASES)
def test_plugin_hessian_matches_differences_of_gradient(family, theta0):
    ev, optimum = fitted_evaluator(family, theta0)
    for theta in (optimum, EuclideanParam(0.7, 0.3, -0.8), EuclideanParam(0.3, -0.5, 1.0)):
        grad, hess = evaluator_hessian(ev, theta)
        fd = hessian_by_differences(ev, theta)
        assert np.max(np.abs(hess - fd)) <= 1e-7 * np.max(np.abs(hess))
        assert np.array_equal(hess, hess.T)
        assert np.allclose(grad, ev.plugin_value_gradient(theta)[1], rtol=1e-12, atol=1e-17)
    # a local minimum: positive definite there
    assert np.linalg.eigvalsh(evaluator_hessian(ev, optimum)[1])[0] > 0.0


def six_pass_gradient_hessian(u, w, s, n, p, alpha, beta):
    """Gradient 2 J W r and exact Hessian of V = r^T W r, one pass over the nodes per entry.

    The literal form: each of the six distinct entries
    2 sum_q (w J_i J_j + w r Im(S (2 Mdot_i Mdot_j/M^3 - Mddot_ij/M^2)) / n)
    is reduced on its own, with phases by np.exp.
    """
    iu = 1j * u
    ea, eb = np.exp(iu * alpha), np.exp(iu * beta)
    inv = 1.0 / (p * ea + (1.0 - p) * eb)
    inv2 = inv * inv
    mdot = np.stack([ea - eb, iu * p * ea, iu * (1.0 - p) * eb], axis=-2)

    def im_sums(z, sums):
        return z.imag * sums.real + z.real * sums.imag

    r = im_sums(inv, s) / n
    jac = -im_sums(mdot * inv2[..., None, :], s[..., None, :]) / n
    wr = w * r
    # Mddot/M^2 is t times e^{iu alpha}, -e^{iu beta}, Mdot_alpha or Mdot_beta
    t = iu * inv2
    mddot = {(0, 1): ea, (0, 2): -eb, (1, 1): mdot[..., 1, :], (2, 2): mdot[..., 2, :]}
    hess = np.empty(r.shape[:-1] + (3, 3))
    for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        d = 2.0 * mdot[..., i, :] * mdot[..., j, :] * inv * inv2
        if (i, j) in mddot:
            d -= t * mddot[i, j]
        hess[..., i, j] = hess[..., j, i] = 2.0 * np.sum(
            w * jac[..., i, :] * jac[..., j, :] + wr * im_sums(d, s) / n, axis=-1)
    return 2.0 * np.sum(jac * wr[..., None, :], axis=-1), hess


def rainfall_downdated_rows():
    """Rainfall's leave-one-out problems: weights, downdated node sums, n - 1 and the start."""
    from symmix.cli import rainfall_path, read_numeric_csv
    from symmix.estimator import _frame, _loo_scales, _shift, _smoothing
    from symmix import fit

    sample = Sample(read_numeric_csv(rainfall_path()))
    frame = _frame(sample)
    ev, x = frame.ev, frame.centred.values
    w = ev._smoothed_weights(_smoothing(ev.n - 1, _loo_scales(x)))
    return ev, w, ev._s - ev._features(x), ev.n - 1, _shift(fit(sample).theta_hat, -frame.m)


def assert_rows_close(got, want, rel):
    """Each row of got within rel times the largest entry of want's row."""
    axes = tuple(range(1, want.ndim))
    assert np.all(np.max(np.abs(got - want), axis=axes) <= rel * np.max(np.abs(want), axis=axes))


def test_two_contraction_hessian_matches_six_pass_reference():
    ev, w, s, n, start = rainfall_downdated_rows()
    assert s.shape == (70, ev.u.size)
    cases = [(ev.u, w, s, n, start)]
    for family, theta0 in HESSIAN_CASES:
        fitted, optimum = fitted_evaluator(family, theta0)
        perturbed = EuclideanParam(optimum.p + 0.03, optimum.alpha - 0.2, optimum.beta + 0.1)
        for theta in (optimum, perturbed):
            cases.append((fitted.u, fitted.w[None], fitted._s[None], fitted.n, theta))
    for u, w, s, n, theta in cases:
        grad, hess = contrast._plugin_gradient_hessian(u, w, s, n, *exp_phases(u, theta))
        grad_ref, hess_ref = six_pass_gradient_hessian(u, w, s, n, theta.p, theta.alpha,
                                                       theta.beta)
        assert_rows_close(hess, hess_ref, 1e-13)
        assert np.allclose(grad, grad_ref, rtol=1e-12, atol=1e-17)


def test_shared_parameter_equals_it_tiled_over_rows():
    ev, w, s, n, start = rainfall_downdated_rows()
    p, ea, eb = exp_phases(ev.u, start)
    shared = contrast._plugin_gradient_hessian(ev.u, w, s, n, p, ea, eb)
    rows = len(s)
    tiled = contrast._plugin_gradient_hessian(ev.u, w, s, n, np.tile(p, (rows, 1)),
                                              np.tile(ea, (rows, 1)), np.tile(eb, (rows, 1)))
    for a, b in zip(shared, tiled):
        assert a.shape == b.shape and np.array_equal(a, b)
