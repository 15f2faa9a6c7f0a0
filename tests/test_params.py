import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symmix import (DEFAULT_BOX, DegenerateParam, EuclideanParam, ParamBox, Sample,
                    canonicalize, m_func, m_modulus_sq)

THETA = EuclideanParam(0.25, -1.0, 2.0)

valid_p = st.floats(0.001, 0.499)
locs = st.floats(-50.0, 50.0)
orderable = st.tuples(valid_p, locs, locs).filter(lambda t: abs(t[1] - t[2]) > 1e-6)
freqs = st.floats(-30.0, 30.0)


def test_m_func_at_zero_is_one():
    assert m_func(THETA, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)


def test_m_func_reference_value():
    # direct complex evaluation at u = 1
    val = m_func(THETA, 1.0)
    assert val.real == pytest.approx(-0.177035, abs=1e-6)
    assert val.imag == pytest.approx(0.471605, abs=1e-6)


def test_modulus_lower_bound_attained_at_antiphase():
    # cos(u (alpha - beta)) = -1 gives |M|^2 = (1 - 2p)^2
    p = 0.5 - 1e-3
    theta = EuclideanParam(p, 0.0, np.pi)
    assert abs(m_func(theta, 1.0)) ** 2 == pytest.approx((1 - 2 * p) ** 2, rel=1e-9)


def test_m_modulus_sq_reference_value():
    assert m_modulus_sq(THETA, 1.0) == pytest.approx(0.253753, abs=1e-6)
    assert m_modulus_sq(THETA, 0.0) == pytest.approx(1.0, abs=1e-15)
    u_pi = np.pi / (THETA.alpha - THETA.beta)
    assert m_modulus_sq(THETA, u_pi) == pytest.approx(0.25, rel=1e-12)


@given(orderable, freqs)
@example((0.46875, -5.29500925767946, 29.999999999999996), 29.999999999999996)
@settings(max_examples=200, deadline=None)
def test_m_modulus_sq_matches_m_func(t, u):
    # Both forms are exact up to how their phases round.  With eps the machine
    # epsilon, fl(u a) is off by at most |u a| eps / 2, so each e^{iu a} of
    # m_func is off by that plus about eps, and |dM| <= |u| (|a| + |b|) eps / 2
    # + 3 eps; |M| <= 1, so |M|^2 moves by at most 2 |dM|.  The closed form's
    # u (a - b) is off by at most |u| (|a| + |b|) eps, scaled by 2p(1 - p) <= 1/2,
    # plus a few eps for its sums.  Together under 16 eps (1 + |u| (|a| + |b|)):
    # near |u a| = 1,000 rad that is about 4e-12 absolute, far more than 1e-12
    # of a small |M|^2, so the bound is absolute and grows with |u|.
    theta = EuclideanParam(*t)
    direct = abs(m_func(theta, u)) ** 2
    closed = m_modulus_sq(theta, u)
    eps = np.finfo(float).eps
    bound = 16.0 * eps * (1.0 + abs(u) * (abs(theta.alpha) + abs(theta.beta)))
    assert abs(closed - direct) <= bound


@given(orderable, freqs)
@settings(max_examples=200, deadline=None)
def test_m_func_conjugate_symmetry(t, u):
    theta = EuclideanParam(*t)
    assert m_func(theta, -u) == pytest.approx(np.conj(m_func(theta, u)), rel=1e-12, abs=1e-14)


def test_modulus_bounds_over_random_draws():
    rng = np.random.default_rng(11)
    lo = (1.0 - 2.0 * DEFAULT_BOX.p_high) ** 2
    for _ in range(500):
        p = rng.uniform(DEFAULT_BOX.p_low, DEFAULT_BOX.p_high)
        a, b = rng.normal(size=2) * 5
        if abs(a - b) < 1e-6:
            b = a + 1.0
        u = rng.uniform(-30, 30)
        m2 = m_modulus_sq(EuclideanParam(p, a, b), u)
        assert lo - 1e-12 <= m2 <= 1.0 + 1e-12


def test_canonicalize_label_swap():
    theta = canonicalize((0.7, 2.0, -1.0))
    assert (theta.p, theta.alpha, theta.beta) == (pytest.approx(0.3), -1.0, 2.0)


def test_canonicalize_identity_on_canonical():
    theta = canonicalize((0.3, -1.0, 2.0))
    assert (theta.p, theta.alpha, theta.beta) == (0.3, -1.0, 2.0)


def test_canonicalize_rejects_half():
    with pytest.raises(DegenerateParam):
        canonicalize((0.5, 0.0, 1.0))


def test_canonicalize_rejects_merged_locations():
    with pytest.raises(DegenerateParam):
        canonicalize((0.3, 1.0, 1.0 + 1e-9))


def test_canonicalize_rejects_box_violation():
    with pytest.raises(DegenerateParam):
        canonicalize((0.9999, 0.0, 1.0))  # swaps to p = 1e-4 < p_low


@given(st.floats(0.01, 0.99).filter(lambda p: abs(p - 0.5) > 1e-3), locs, locs)
@settings(max_examples=200, deadline=None)
def test_canonicalize_idempotent(p, a, b):
    if abs(a - b) < 1e-5:
        b = a + 1.0
    try:
        once = canonicalize((p, a, b))
    except DegenerateParam:
        return
    twice = canonicalize(once)
    assert (twice.p, twice.alpha, twice.beta) == (once.p, once.alpha, once.beta)


def test_param_allows_swapped_side_for_evaluation():
    theta = EuclideanParam(0.75, 2.0, -1.0)
    assert not theta.p < 0.5
    assert theta.swapped().p < 0.5


def test_param_rejects_half_and_equal_locations():
    with pytest.raises(DegenerateParam):
        EuclideanParam(0.5, 0.0, 1.0)
    with pytest.raises(DegenerateParam):
        EuclideanParam(0.3, 1.0, 1.0)


def test_param_box_validation():
    with pytest.raises(ValueError):
        ParamBox(p_low=0.0)
    with pytest.raises(ValueError):
        ParamBox(p_low=0.3, p_high=0.2)


def test_sample_immutable_and_validated():
    s = Sample([1.0, 2.0, 3.0])
    assert s.n == 3
    with pytest.raises(ValueError):
        s.values[0] = 7.0
    with pytest.raises(ValueError):
        Sample([1.0, np.nan])
