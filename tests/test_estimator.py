import numpy as np
import pytest

from symmix import (ContrastConfig, ContrastEvaluator, DegenerateFit, EuclideanParam,
                    FitConfig, SampleTooSmall, Sample, ScenarioSpec, SingularInformation,
                    asymptotic_covariance, build_weight_rule, default_contrast_config,
                    fit, initial_points, leave_one_out_thetas, sample_mixture)

THETA0 = EuclideanParam(0.25, -1.0, 2.0)


def gauss_sample(n, rep=0, theta=THETA0, seed=99):
    spec = ScenarioSpec("gauss", theta, n, 1, seed)
    return sample_mixture(spec, rep)


# --------------------------------------------------------------- start points


def test_initial_points_first_is_quartile_pair():
    sample = gauss_sample(200)
    pts = initial_points(sample, FitConfig(starts=1))
    assert len(pts) == 1
    q25, q75 = np.quantile(sample.values, [0.25, 0.75])
    assert pts[0].p == 0.25
    assert pts[0].alpha == pytest.approx(q25)
    assert pts[0].beta == pytest.approx(q75)


def test_initial_points_shift_equivariant():
    sample = gauss_sample(150)
    shifted = Sample(sample.values + 5.0)
    cfg = FitConfig(starts=8)
    for a, b in zip(initial_points(sample, cfg), initial_points(shifted, cfg)):
        assert b.p == a.p
        assert b.alpha == pytest.approx(a.alpha + 5.0, abs=1e-12)
        assert b.beta == pytest.approx(a.beta + 5.0, abs=1e-12)


def test_initial_points_respect_box():
    sample = gauss_sample(100)
    cfg = FitConfig(starts=9)
    points = initial_points(sample, cfg)
    assert len(points) == 9     # the whole design: FitConfig allows no more starts
    for pt in points:
        assert pt.in_box(cfg.box)


def test_initial_points_need_ten_observations():
    with pytest.raises(SampleTooSmall):
        initial_points(Sample(np.arange(5.0)), FitConfig())


# ------------------------------------------------------------------------ fit


def test_fit_recovers_truth_reasonably():
    sample = gauss_sample(1000, rep=3)
    res = fit(sample)
    assert res.theta_hat.p == pytest.approx(0.25, abs=0.08)
    assert res.theta_hat.alpha == pytest.approx(-1.0, abs=0.4)
    assert res.theta_hat.beta == pytest.approx(2.0, abs=0.3)
    assert res.converged
    assert res.n_restarts_agreeing >= 1
    assert res.theta_hat.p < 0.5


@pytest.mark.parametrize("entry", [fit, asymptotic_covariance, leave_one_out_thetas],
                         ids=lambda f: f.__name__)
def test_fit_frame_needs_ten_observations(entry):
    # the frame's one floor, checked before any work: no numeric warning
    import warnings

    values = gauss_sample(10).values
    args = () if entry is fit else (THETA0,)
    for n in (2, 9):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SampleTooSmall, match="n >= 10"):
                entry(Sample(values[:n]), *args)
    entry(Sample(values), *args)


def root_gap_bound(sample_a, sample_b, theta_a, shift=0.0):
    """Bound on |theta_b - theta_a - (0, shift, shift)| for the fits' estimates of two samples.

    sample_b is sample_a reordered, or moved by `shift`, so the two fit
    objectives, each in its own centred frame, differ only by rounding: of
    the node sums, and for a moved sample of the centred data and the
    robust scale, with it the nodes and weights.  The estimates are the
    objectives' gradient roots, so to first order they lie apart by at most
    |H^{-1}| times the difference of the two computed gradients at one
    point, theta_a in a's frame, plus each one's own rounding.  A gradient
    term w_q s_c s_inv / n^2 passes through the phases (each within 4u, u
    the unit roundoff), M, whose rounding relative to |M| >= 1 - 2p is at
    most u / (1 - 2p), then 1/M, Mdot/M^2 and the two sums of imaginary
    parts: 16 u / (1 - 2p) of each factor's magnitude covers them, and Q u
    of the terms' magnitudes the sum over Q nodes.  The two frames' medians
    differ by the shift up to an offset, taken exactly, and adding the
    medians back and the comparison round once per estimate.
    """
    from fractions import Fraction

    from symmix.contrast import _plugin_gradient_hessian
    from symmix.estimator import _frame

    u_round = np.finfo(float).eps / 2
    frame_a, frame_b = _frame(sample_a), _frame(sample_b)
    p, a, b = theta_a.as_array() - [0.0, frame_a.m, frame_a.m]

    def gradient(ev):
        """The computed gradient and Hessian at theta_a, and a bound on the gradient's rounding."""
        u, n, s = ev.u, ev.n, ev._s
        ea, eb = np.exp(1j * u * a), np.exp(1j * u * b)
        grad, hess = _plugin_gradient_hessian(u, ev.w, s, n, p, ea, eb)
        inv, c, s_inv, s_c = ev._block(EuclideanParam(p, a, b))
        factors = np.abs(c) * np.abs(s) * np.abs(s_inv) + np.abs(s_c) * np.abs(inv) * np.abs(s)
        terms = np.abs(s_c) * np.abs(s_inv)
        rounding = 2.0 * u_round / n ** 2 * ((16.0 / (1.0 - 2.0 * p) * factors
                                              + u.size * terms) @ ev.w)
        return grad, hess, rounding

    grad_a, hess, rounding_a = gradient(frame_a.ev)
    grad_b, _, rounding_b = gradient(frame_b.ev)
    offset = abs(Fraction(frame_b.m) - Fraction(frame_a.m) - Fraction(shift))
    theta_b = theta_a.as_array() + [0.0, shift, shift]
    return np.abs(np.linalg.inv(hess)) @ (np.abs(grad_b - grad_a) + rounding_a + rounding_b) \
        + float(offset) * np.array([0.0, 1.0, 1.0]) \
        + 2.0 * np.finfo(float).eps * (np.abs(theta_a.as_array()) + np.abs(theta_b))


def test_fit_translation_equivariance():
    sample = gauss_sample(300, rep=1)
    c = 3.25
    res = fit(sample)
    shifted = Sample(sample.values + c)
    res_shift = fit(shifted)
    bound = root_gap_bound(sample, shifted, res.theta_hat, c)
    assert np.all(bound < 1e-12)
    assert res_shift.theta_hat.p == pytest.approx(res.theta_hat.p, abs=bound[0])
    assert res_shift.theta_hat.alpha == pytest.approx(res.theta_hat.alpha + c, abs=bound[1])
    assert res_shift.theta_hat.beta == pytest.approx(res.theta_hat.beta + c, abs=bound[2])


def row_order_sample(name):
    if name == "rainfall":
        from symmix.cli import rainfall_path, read_numeric_csv

        return Sample(read_numeric_csv(rainfall_path()))
    theta = EuclideanParam(0.2, 1.0, 5.0) if name == "cauchy" else THETA0
    return sample_mixture(ScenarioSpec(name, theta, 100, 1, 7), 0)


@pytest.mark.parametrize("name", ["rainfall", "gauss", "cauchy", "laplace"])
def test_fit_is_row_order_invariant(name):
    # the orders change only how the node sums round; the estimate is the
    # objective's gradient root, so it moves by that rounding, not by where
    # the descent happened to stop on the flat objective
    sample = row_order_sample(name)
    theta = fit(sample).theta_hat
    rng = np.random.default_rng(3)
    x = sample.values
    for order in [np.arange(x.size)[::-1]] + [rng.permutation(x.size) for _ in range(4)]:
        reordered = Sample(x[order])
        bound = root_gap_bound(sample, reordered, theta)
        assert np.all(bound < 1e-12)
        gap = np.abs(fit(reordered).theta_hat.as_array() - theta.as_array())
        assert np.all(gap <= bound), (gap, bound)


@pytest.mark.parametrize("offset, step", [(1e4, 2.0 ** -20), (1e6, 2.0 ** -20),
                                          (1e9, 2.0 ** -20), (1e12, 2.0 ** -12)],
                         ids=["1e4", "1e6", "1e9", "1e12"])
def test_fit_translation_exact_on_lattice(offset, step):
    # on the lattice X + offset and its median are exact, so the centred
    # sample, and with it the centred fit, repeats bit for bit
    x = np.round(gauss_sample(200, seed=7).values / step) * step
    reference = fit(Sample(x - np.median(x))).theta_hat
    shifted = Sample(x + offset)
    m = float(np.median(shifted.values))
    centred = fit(Sample(shifted.values - m)).theta_hat
    assert centred == reference
    theta = fit(shifted).theta_hat
    assert theta == EuclideanParam(centred.p, centred.alpha + m, centred.beta + m)


def test_fit_deterministic():
    sample = gauss_sample(120, rep=2)
    a = fit(sample)
    b = fit(sample)
    assert a.theta_hat == b.theta_hat
    assert a.contrast_at_opt == b.contrast_at_opt
    assert np.array_equal(a.covariance, b.covariance)


def test_default_contrast_config_is_fit_default():
    # the default configuration comes from the median-centred sample's scale,
    # which off the origin differs from the raw sample's in the last bits
    for rep in range(5):
        sample = Sample(gauss_sample(100, rep=rep).values + 3000.0)
        assert fit(sample, ccfg=default_contrast_config(sample)).to_dict() \
            == fit(sample).to_dict()


def test_fit_objective_not_above_start_values():
    sample = gauss_sample(150, rep=4)
    cfg = FitConfig(starts=8)
    ccfg = default_contrast_config(sample)
    res = fit(sample, cfg, ccfg)
    from symmix.estimator import _smoothing, robust_scale
    ev = ContrastEvaluator(sample, ccfg, _smoothing(sample.n, robust_scale(sample.values)))
    for pt in initial_points(sample, cfg):
        assert res.objective_at_opt <= ev.plugin(pt) + 1e-12


def test_fit_near_single_component():
    # with p0 -> 0 the minor location is unidentifiable: expect a degenerate
    # signal, either the explicit error or a blown-up standard error ratio
    spec = ScenarioSpec("gauss", EuclideanParam(1e-6, -1.0, 2.0), 250, 1, 17)
    sample = sample_mixture(spec, 0)
    try:
        res = fit(sample)
    except DegenerateFit:
        return
    se = res.std_errors
    assert res.theta_hat.p < 0.12 or se[1] > 3.0 * se[2]


def test_fit_search_evaluation_budget(monkeypatch):
    # every objective evaluation of the search, with or without gradient; the
    # Newton polish evaluates neither, so refusing it leaves the count alone
    from symmix import estimator
    calls = []
    for name in ("plugin", "plugin_value_gradient"):
        inner = getattr(ContrastEvaluator, name)
        monkeypatch.setattr(ContrastEvaluator, name,
                            lambda ev, theta, inner=inner: calls.append(theta) or inner(ev, theta))
    sample = gauss_sample(100, seed=7)
    fit(sample)
    polished = len(calls)
    assert 0 < polished <= 400
    calls.clear()
    newton = estimator._newton

    def refused(*args):
        thetas, ok = newton(*args)
        return thetas, np.zeros_like(ok)

    monkeypatch.setattr(estimator, "_newton", refused)
    fit(sample)
    assert len(calls) == polished


@pytest.mark.parametrize("polish", ["refused", "merged", "jumped", "within"])
def test_fit_polish_guards(polish, monkeypatch):
    # a polish that Newton refuses, that merges the locations or that moves
    # past the starts' agreement tolerance leaves the descent's winner, bit
    # for bit; one that stays within the tolerance is the estimate
    from symmix import estimator
    from symmix.estimator import _descend_all, _frame, _shift
    from symmix.params import canonicalize

    sample, cfg = gauss_sample(100, seed=7), FitConfig()
    frame = _frame(sample)
    descents = _descend_all(frame.ev, initial_points(frame.centred, cfg), cfg.box)
    winner = min(descents, key=lambda res: (res.fun, tuple(res.x))).x
    tol_agree = 1e-3 * max(1.0, np.max(np.abs(winner)))
    newton = estimator._newton

    def polishing(*args):
        thetas, ok = newton(*args)
        assert np.array_equal(args[4].as_array(), winner)
        if polish == "refused":
            ok[:] = False
        elif polish == "merged":
            thetas[:, 2] = thetas[:, 1] + 0.5 * cfg.box.sep_min
        else:
            thetas[:, 1] = winner[1] + (2.0 if polish == "jumped" else 0.5) * tol_agree
        polished.append(thetas[0].copy())
        return thetas, ok

    polished = []
    monkeypatch.setattr(estimator, "_newton", polishing)
    got = fit(sample, cfg).theta_hat
    want = polished[0] if polish == "within" else winner
    assert got == _shift(canonicalize(want, cfg.box), frame.m)


def test_plugin_repeats_fit_objective():
    # plugin and the descent's value are one expression, and fit reports the
    # statistics of its estimate in its own frame, so scan's objective column
    # repeats fit's objective to the last digit
    from symmix.estimator import _frame, _shift

    for family, theta0 in [("gauss", THETA0), ("cauchy", EuclideanParam(0.2, 1.0, 5.0)),
                           ("laplace", THETA0)]:
        spec = ScenarioSpec(family, theta0, 100, 1, 7)
        for r in range(15):
            sample = sample_mixture(spec, r)
            res = fit(sample)
            frame = _frame(sample)
            ev, theta = frame.ev, _shift(res.theta_hat, -frame.m)
            value = ev.plugin(theta)
            assert repr(value) == repr(ev.plugin_value_gradient(theta)[0])
            assert repr(value) == repr(res.objective_at_opt)


@pytest.mark.parametrize("kwargs", [dict(starts=0), dict(starts=-3), dict(starts=np.int64(0))])
def test_fit_config_rejects_counts_below_one(kwargs):
    with pytest.raises(ValueError, match="starts must be >= 1"):
        FitConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [dict(starts=2.5), dict(starts=3.0), dict(starts="4")])
def test_fit_config_rejects_non_integer_counts(kwargs):
    # rejected where the config is made, not by a slice in the start design
    name, value = next(iter(kwargs.items()))
    with pytest.raises(TypeError, match=f"{name} must be an integer, got {value!r}"):
        FitConfig(**kwargs)
    assert FitConfig(**{name: np.int64(3)}) == FitConfig(**{name: 3})


def test_fit_config_has_no_iteration_limit():
    # the descents' iteration limit is the constant _MAX_ITER, not an option
    with pytest.raises(TypeError, match="unexpected keyword argument 'max_iter'"):
        FitConfig(max_iter=2)


def test_fit_unconverged_at_iteration_limit(monkeypatch):
    from symmix import estimator

    monkeypatch.setattr(estimator, "_MAX_ITER", 2)
    res = fit(gauss_sample(100, seed=7))
    assert res.converged is False
    assert res.manifest["max_iter"] == 2


def test_fit_reaches_laplace_row_minimum():
    spec = ScenarioSpec("laplace", THETA0, 100, 1, 7)
    res = fit(sample_mixture(spec, 51))
    assert res.converged
    assert res.objective_at_opt < 1e-4


# ------------------------------------------------------------------ covariance


def test_covariance_symmetric_psd():
    sample = gauss_sample(400, rep=5)
    res = fit(sample)
    cov = res.covariance
    assert np.allclose(cov, cov.T, atol=1e-12)
    eig = np.linalg.eigvalsh(cov)
    assert eig.min() >= -1e-8 * max(eig.max(), 1.0)
    assert np.all(res.std_errors >= 0.0)


def test_asymptotic_covariance_is_fit_covariance():
    # the default configuration is the fit's own, also off the origin
    sample = Sample(gauss_sample(200, rep=6).values + 3000.0)
    res = fit(sample)
    assert np.array_equal(asymptotic_covariance(sample, res.theta_hat), res.covariance)


def test_covariance_memory_stays_below_one_score_matrix():
    import tracemalloc

    from symmix.estimator import _covariance_with_fallback, _frame

    sample = gauss_sample(20_000, rep=7)
    frame = _frame(sample)
    ev = frame.ev
    tracemalloc.start()
    try:
        cov, form, _ = _covariance_with_fallback(ev, THETA0, frame.centred.values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # half of one node-by-observation float array
    assert peak < 0.5 * ev.u.size * sample.n * 8 and peak < 10 * 2 ** 20
    assert form == "sandwich" and np.all(np.isfinite(cov))


def test_fit_memory_does_not_grow_with_n():
    import tracemalloc

    sample = gauss_sample(200_000, rep=3)
    tracemalloc.start()
    try:
        res = fit(sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one node-by-observation float array alone would take 195 MiB
    assert peak < 32 * 2 ** 20
    assert np.all(np.abs(res.theta_hat.as_array() - THETA0.as_array()) < 0.05)


def test_ill_conditioned_information_falls_back_or_raises():
    from types import SimpleNamespace

    from symmix.estimator import _covariance_with_fallback

    info = np.diag([1.0, 1.0, 1e-14])
    ev = SimpleNamespace(_block=lambda theta: None,
                         _information_and_score=lambda block, x: (info, np.eye(3)))
    cov, form, _ = _covariance_with_fallback(ev, THETA0, None)
    assert form == "sandwich-pinv"
    assert np.array_equal(cov, np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(SingularInformation, match="1e\\+14 exceeds 1e12"):
        _covariance_with_fallback(ev, THETA0, None, fallback=False)


def test_large_sample_within_four_plugin_ses():
    spec = ScenarioSpec("gauss", THETA0, 5000, 1, 31)
    sample = sample_mixture(spec, 0)
    res = fit(sample)
    err = np.abs(res.theta_hat.as_array() - THETA0.as_array())
    assert np.all(err <= 4.0 * res.std_errors)


def test_plugin_ses_track_monte_carlo_sds():
    # averaged plug-in standard errors agree with the replication-level
    # dispersion of the estimates within a factor two, componentwise
    spec = ScenarioSpec("gauss", THETA0, 100, 40, 99)
    estimates, ses = [], []
    for r in range(spec.replications):
        res = fit(sample_mixture(spec, r))
        estimates.append(res.theta_hat.as_array())
        ses.append(res.std_errors)
    mc_sd = np.std(np.asarray(estimates), axis=0, ddof=1)
    avg_se = np.mean(np.asarray(ses), axis=0)
    ratio = avg_se / mc_sd
    assert np.all(ratio >= 0.5) and np.all(ratio <= 2.0), ratio


def test_fit_respects_custom_box():
    from symmix import ParamBox
    spec = ScenarioSpec("gauss", THETA0, 300, 1, 21)
    sample = sample_mixture(spec, 0)
    box = ParamBox(p_low=0.05, p_high=0.30)
    res = fit(sample, FitConfig(box=box))
    assert 0.05 <= res.theta_hat.p <= 0.30


# --------------------------------------------------------------- leave-one-out


def test_leave_one_out_thetas_stay_close():
    sample = gauss_sample(40, rep=7)
    res = fit(sample)
    loo = leave_one_out_thetas(sample, res.theta_hat)
    assert len(loo) == sample.n
    base = res.theta_hat.as_array()
    for th in loo:
        assert np.max(np.abs(th.as_array() - base)) < 0.75


def reference_leave_one_out(sample, theta_hat, cfg=FitConfig()):
    """The per-observation algorithm: rebuild the evaluator of each reduced
    sample and run one L-BFGS-B descent from theta_hat, by scipy's own driver."""
    from scipy.optimize import minimize

    from symmix.estimator import _MAX_ITER, _shift, _smoothing, robust_scale

    m = float(np.median(sample.values))
    centred = sample.values - m
    ccfg = default_contrast_config(sample)
    start = _shift(theta_hat, -m)
    # the fit's merge rule, at the full sample's scale
    sep = max(cfg.box.sep_min, 1e-3 * robust_scale(centred))
    out = []
    for k in range(sample.n):
        reduced = Sample(np.delete(centred, k))
        ev = ContrastEvaluator(reduced, ccfg, _smoothing(reduced.n, robust_scale(reduced.values)))
        res = minimize(lambda z: ev.plugin_value_gradient(EuclideanParam(*z)), start.as_array(),
                       jac=True, method="L-BFGS-B",
                       bounds=[(cfg.box.p_low, cfg.box.p_high), (None, None), (None, None)],
                       options=dict(maxiter=_MAX_ITER, ftol=1e-16, gtol=1e-12))
        p, a, b = (float(v) for v in res.x)
        out.append(theta_hat if abs(a - b) < sep else _shift(EuclideanParam(p, a, b), m))
    return out


def rebuilt_evaluators(sample):
    """The fit objective's evaluator of each reduced sample, in the centred frame."""
    from symmix.estimator import _smoothing, robust_scale

    m = float(np.median(sample.values))
    ccfg = default_contrast_config(sample)
    reduced = [Sample(np.delete(sample.values - m, k)) for k in range(sample.n)]
    return [ContrastEvaluator(r, ccfg, _smoothing(r.n, robust_scale(r.values)))
            for r in reduced], m


LOO_SAMPLES = ["rainfall", "gauss", "cauchy"]


@pytest.fixture(scope="module")
def loo_cases():
    from symmix.cli import rainfall_path, read_numeric_csv

    samples = {
        "rainfall": Sample(read_numeric_csv(rainfall_path())),
        "gauss": gauss_sample(100, rep=0, seed=7),
        "cauchy": sample_mixture(ScenarioSpec("cauchy", EuclideanParam(0.2, 1.0, 5.0),
                                              100, 1, 7), 0),
    }
    cases = {}
    for name, sample in samples.items():
        theta_hat = fit(sample).theta_hat
        cases[name] = (sample, theta_hat, reference_leave_one_out(sample, theta_hat))
    return cases


@pytest.mark.parametrize("name", LOO_SAMPLES)
def test_leave_one_out_downdated_sums_equal_rebuilt_evaluators(name, loo_cases, monkeypatch):
    from symmix import estimator

    sample, theta_hat, _ = loo_cases[name]
    calls = []
    newton_terms = estimator._plugin_gradient_hessian

    def recording(u, w, s, n, *rest):
        calls.append((u, w, s, n, *rest))
        return newton_terms(u, w, s, n, *rest)

    monkeypatch.setattr(estimator, "_plugin_gradient_hessian", recording)
    leave_one_out_thetas(sample, theta_hat)
    u, w, s, n, p, ea, eb = calls[0]
    # every refit's first step is at theta_hat: one row of phases serves them all
    assert p.shape == (1, 1) and ea.shape == eb.shape == (1, u.size)
    # later steps: one row of phases per refit still running
    live = len(s)
    for _, w_live, s_live, _, p, ea, eb in calls[1:]:
        assert len(s_live) <= live
        live = len(s_live)
        assert w_live.shape == s_live.shape == ea.shape == eb.shape == (live, u.size)
        assert p.shape == (live, 1)
    evs, _ = rebuilt_evaluators(sample)
    assert n == sample.n - 1 and w.shape == (sample.n, u.size)
    for k, ev in enumerate(evs):
        assert np.array_equal(ev.u, u) and ev.n == n
        assert np.max(np.abs(w[k] - ev.w)) <= 1e-12 * np.max(ev.w)
        assert np.max(np.abs(s[k].real - ev._s.real)) <= 1e-12 * n
        assert np.max(np.abs(s[k].imag - ev._s.imag)) <= 1e-12 * n


@pytest.mark.parametrize("name", LOO_SAMPLES)
def test_leave_one_out_matches_per_observation_descent(name, loo_cases):
    from symmix.estimator import _shift

    sample, theta_hat, ref = loo_cases[name]
    got = leave_one_out_thetas(sample, theta_hat)
    evs, m = rebuilt_evaluators(sample)
    grad_got = grad_ref = 0.0
    for ev, a, b in zip(evs, got, ref):
        assert np.max(np.abs(a.as_array() - b.as_array())) <= 1e-5
        v_got, g_got = ev.plugin_value_gradient(_shift(a, -m))
        v_ref, g_ref = ev.plugin_value_gradient(_shift(b, -m))
        assert v_got <= v_ref * (1.0 + 1e-12)
        grad_got = max(grad_got, np.max(np.abs(g_got)))
        grad_ref = max(grad_ref, np.max(np.abs(g_ref)))
    assert grad_got <= grad_ref


def test_leave_one_out_falls_back_to_descent(loo_cases, monkeypatch):
    from symmix import estimator

    sample, theta_hat, ref = loo_cases["gauss"]
    refused, merged, merged_by_fit_rule = [3, 41, 97], 60, 75
    # the fit's merge rule, which a refit follows too
    sep = estimator._merge_sep(FitConfig().box, estimator._frame(sample).scale)
    assert sep > FitConfig().box.sep_min
    newton = estimator._newton_refits

    def failing(*args):
        thetas, ok = newton(*args)
        ok[refused] = False
        thetas[merged, 2] = thetas[merged, 1] + 0.5 * FitConfig().box.sep_min
        thetas[merged_by_fit_rule, 2] = thetas[merged_by_fit_rule, 1] + 0.5 * sep
        return thetas, ok

    monkeypatch.setattr(estimator, "_newton_refits", failing)
    got = leave_one_out_thetas(sample, theta_hat)
    for k in refused:
        assert got[k] == ref[k]
    assert got[merged] is theta_hat
    assert got[merged_by_fit_rule] is theta_hat


def test_leave_one_out_memory_does_not_grow_with_n():
    import tracemalloc

    def peak(n):
        sample = gauss_sample(n, rep=5)
        theta_hat = fit(sample).theta_hat
        tracemalloc.start()
        try:
            leave_one_out_thetas(sample, theta_hat)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # both past the evaluator's first block of observations, whose own pass
    # grows with n up to there, as fit's does
    assert peak(16_000) <= peak(4_000) + 2 * 2 ** 20


def test_loo_scales_equal_robust_scale_of_each_reduced_sample():
    from symmix.estimator import _loo_scales, robust_scale

    rng = np.random.default_rng(5)
    for x in (rng.standard_normal(37), np.round(rng.standard_normal(60), 1),
              np.r_[np.zeros(30), rng.standard_normal(3)], rng.standard_normal(10)):
        want = [robust_scale(np.delete(x, k)) for k in range(x.size)]
        assert np.array_equal(_loo_scales(x), want)


@pytest.mark.parametrize("values", [[], [1.0], [np.nan, 1.0, 2.0], [1.0, 2.0, np.inf]],
                         ids=["empty", "one-value", "nan", "inf"])
def test_robust_scale_rejects_what_it_cannot_scale(values):
    from symmix.estimator import robust_scale

    with pytest.raises(ValueError, match="at least 2 values, all finite"):
        robust_scale(values)


def test_order_statistics_reject_a_sample_whose_centring_overflows():
    # the values are finite but x - median(x) is not: the scale's own error
    from symmix.estimator import default_contrast_config

    x = Sample(np.r_[-1.7e308, np.full(9, 1.7e308)])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="at least 2 values, all finite"):
        default_contrast_config(x)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="at least 2 values, all finite"):
        fit(x)


def test_frame_order_statistics_from_one_sort_equal_unsorted_ones():
    # the frame reads its median, robust scale and start quantiles from one
    # sorted copy; each must equal numpy's (or robust_scale's, or
    # initial_points') own on the unsorted sample, bit for bit, in any row order
    from symmix.estimator import _START_QUANTILES, _frame, _start_points, robust_scale

    rng = np.random.default_rng(23)
    cfg = FitConfig(starts=9)
    samples = {
        "n10": rng.standard_normal(10),
        "odd": rng.standard_normal(37),
        "even-ties": np.round(rng.standard_normal(60), 1),
        "odd-ties": np.round(3.0 * rng.standard_normal(41)),
        "zero-iqr": np.r_[np.zeros(30), rng.standard_normal(5)],     # the std fallback
        "n50000": 7.0 + 3.0 * gauss_sample(50_000).values,
    }
    for name, x in samples.items():
        m = np.median(x)
        centred = x - m
        want_starts = initial_points(Sample(centred), cfg)
        for rows in (x, rng.permutation(x)):
            frame = _frame(Sample(rows))
            assert frame.m == m, name
            assert np.array_equal(frame.centred.values, rows - m), name
            assert frame.scale == robust_scale(centred), name
            assert np.array_equal(frame.quantiles, np.quantile(centred, _START_QUANTILES)), name
            assert _start_points(frame.quantiles, cfg) == want_starts, name


# ------------------------------------------------------------ lock-step descents


N100_ROWS = [("gauss", THETA0), ("cauchy", EuclideanParam(0.2, 1.0, 5.0)), ("laplace", THETA0)]


def test_lockstep_descents_equal_scipy_minimize_bit_for_bit():
    # every start of the 90 seed-7 n = 100 fits and of gauss replication 63
    # and cauchy replication 30, descended in lock-step and one by one
    # through scipy's own L-BFGS-B wrapper with the fit's options; two starts
    # stop on an ABNORMAL line search at the rounding floor (status 2)
    from scipy.optimize import minimize

    from symmix.estimator import _MAX_ITER, _descend_all, _frame

    cfg = FitConfig()
    box = cfg.box
    bounds = [(box.p_low, box.p_high), (None, None), (None, None)]
    options = dict(maxiter=_MAX_ITER, ftol=1e-16, gtol=1e-12)
    statuses = []
    cases = [(row, r) for row in N100_ROWS for r in range(30)]
    for (family, theta0), r in cases + [(N100_ROWS[0], 63), (N100_ROWS[1], 30)]:
        frame = _frame(sample_mixture(ScenarioSpec(family, theta0, 100, 1, 7), r))
        ev, starts = frame.ev, initial_points(frame.centred, cfg)
        runs = _descend_all(ev, starts, box)
        assert len(runs) == len(starts) == 8
        for start, run in zip(starts, runs):
            ref = minimize(lambda z: ev.plugin_value_gradient(EuclideanParam(*z)),
                           start.as_array(), jac=True, method="L-BFGS-B", bounds=bounds,
                           options=options)
            assert np.array_equal(run.x, ref.x)
            assert type(run.fun) is type(ref.fun) and run.fun == ref.fun
            assert (run.nfev, run.nit, run.status) == (ref.nfev, ref.nit, ref.status)
            statuses.append(run.status)
    assert statuses.count(0) == 734 and statuses.count(2) == 2


@pytest.mark.parametrize("limit, value", [("_MAX_ITER", 3), ("_LBFGSB_MAXFUN", 5)])
def test_lockstep_descent_stops_at_its_limits(limit, value, monkeypatch):
    # out of iterations or of evaluations, as minimize's maxiter and maxfun stop it
    from scipy.optimize import minimize

    from symmix import estimator

    monkeypatch.setattr(estimator, limit, value)
    frame = estimator._frame(gauss_sample(100, seed=7))
    start = initial_points(frame.centred, FitConfig())[0]
    (run,) = estimator._descend_all(frame.ev, [start], FitConfig().box)
    ref = minimize(lambda z: frame.ev.plugin_value_gradient(EuclideanParam(*z)),
                   start.as_array(), jac=True, method="L-BFGS-B",
                   bounds=[(0.001, 0.499), (None, None), (None, None)],
                   options=dict(maxiter=estimator._MAX_ITER, maxfun=estimator._LBFGSB_MAXFUN,
                                ftol=1e-16, gtol=1e-12))
    assert run.status == ref.status == 1 and run.nit == ref.nit < 500
    assert np.array_equal(run.x, ref.x) and run.fun == ref.fun and run.nfev == ref.nfev


def test_lbfgsb_routine_signature_is_pinned():
    # the lock-step driver calls scipy's private L-BFGS-B routine with these
    # 17 arguments, in this order (scipy >= 1.15)
    from scipy.optimize._lbfgsb import setulb

    assert setulb.__doc__.splitlines()[0] == (
        "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)")


def test_batched_values_equal_plugin_value_gradient_bit_for_bit():
    from symmix.estimator import _frame

    ev = _frame(gauss_sample(100, seed=7)).ev
    rng = np.random.default_rng(3)
    thetas = np.column_stack([rng.uniform(0.01, 0.49, 50), rng.normal(-1.0, 2.0, 50),
                              rng.normal(2.0, 2.0, 50)])
    batch = ev._values_gradients(thetas)
    for theta, (value, grad) in zip(thetas, batch):
        one_value, one_grad = ev.plugin_value_gradient(EuclideanParam(*theta))
        assert value == one_value and np.array_equal(grad, one_grad)


# ------------------------------------------- samples whose standard starts collapse


SEED62 = ScenarioSpec("cauchy", EuclideanParam(0.2, 1.0, 5.0), 100, 1, 62)


def standard_descents(sample):
    """The fit's frame and its standard starts' descents."""
    from symmix.estimator import _descend_all, _frame

    cfg = FitConfig()
    frame = _frame(sample)
    return frame, _descend_all(frame.ev, initial_points(frame.centred, cfg), cfg.box)


@pytest.mark.parametrize("replication, want", [
    (213, (0.06115, 10.1165, 4.9932)),
    (235, (0.02614, 6.9154, 4.6093)),
])
def test_screen_finds_valid_fit_below_every_start(replication, want, monkeypatch):
    # every standard start of these samples ends at the p-box edge, but the
    # screen finds a valid point where the objective is lower than at all of
    # them, so the objective, not the start design, decides: a valid estimate
    from symmix import estimator

    sample = sample_mixture(SEED62, replication)
    frame, descents = standard_descents(sample)
    box = FitConfig().box
    assert all(res.x[0] <= box.p_low + 1e-3 * (box.p_high - box.p_low) for res in descents)
    screens, screen = [], estimator._screen
    monkeypatch.setattr(estimator, "_screen", lambda *args: screens.append(args) or screen(*args))
    res = fit(sample)
    assert len(screens) == 1
    theta = res.theta_hat
    assert theta.in_box(box) and theta.p > 0.02
    assert abs(theta.alpha - theta.beta) > 1.0
    assert res.objective_at_opt < min(d.fun for d in descents)
    assert res.converged
    assert np.allclose(theta.as_array(), want, rtol=1e-3)


def test_screen_keeps_one_component_verdict(monkeypatch):
    # replication 126: the screen's lowest points descend to merged locations,
    # so the sample stays one-component
    from symmix import estimator

    screens, screen = [], estimator._screen
    monkeypatch.setattr(estimator, "_screen", lambda *args: screens.append(args) or screen(*args))
    with pytest.raises(DegenerateFit, match="the screen's too"):
        fit(sample_mixture(SEED62, 126))
    assert len(screens) == 1


def test_screen_points_are_lowest_on_its_grid():
    from symmix.estimator import _SCREEN_PS, _frame, _merge_sep, _screen

    sample = sample_mixture(SEED62, 213)
    frame, box = _frame(sample), FitConfig().box
    points = _screen(frame, box, _merge_sep(box, frame.scale))
    assert len(points) == 4
    q = np.quantile(frame.centred.values, (np.arange(25) + 0.5) / 25)
    grid = [EuclideanParam(p, a, b) for p in _SCREEN_PS for a in q for b in q if a != b]
    assert len(grid) == 4200
    values = sorted(frame.ev.plugin(t) for t in grid)
    assert [frame.ev.plugin(t) for t in points] == values[:4]


def test_screen_of_tied_quantiles_is_empty_and_fit_degenerate():
    # 99 equal values: the 25 quantiles tie, so the screen has no pair of
    # locations to try and the sample stays one-component
    from symmix.estimator import _frame, _merge_sep, _screen

    sample = Sample(np.r_[np.zeros(99), 1.0])
    frame, box = _frame(sample), FitConfig().box
    assert _screen(frame, box, _merge_sep(box, frame.scale)) == []
    with pytest.raises(DegenerateFit):
        fit(sample)
