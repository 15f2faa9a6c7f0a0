import math

import numpy as np
import pytest
from scipy.integrate import quad

from symmix import BadWeightSpec, build_weight_rule, scale_aware_cutoff


def test_default_rule_total_mass():
    rule = build_weight_rule("laplace_default", 256, 30.0)
    expected = 1.0 - math.exp(-30.0)
    assert abs(rule.weights.sum() - expected) <= 1e-10


def test_default_rule_moments_match_analytic():
    # k-th absolute moment of exp(-|u|)/2 is k!
    rule = build_weight_rule("laplace_default", 256, 30.0)
    for k, expected in [(1, 1.0), (2, 2.0), (3, 6.0)]:
        assert np.dot(rule.weights, np.abs(rule.nodes) ** k) == pytest.approx(expected, rel=0.01)
    combined = np.dot(rule.weights, 1.0 + np.abs(rule.nodes) + rule.nodes ** 2
                      + np.abs(rule.nodes) ** 3)
    assert np.isfinite(combined)
    assert combined == pytest.approx(1.0 + 1.0 + 2.0 + 6.0, rel=0.01)


def test_truncated_rule_mass():
    rule = build_weight_rule("laplace_default", 16, 1.0)
    assert rule.weights.sum() == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)


def test_nodes_symmetric_and_inside_cutoff():
    rule = build_weight_rule("laplace_default", 128, 12.0)
    assert rule.node_count == rule.nodes.size == 128
    assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=0.0)
    assert np.all(np.abs(rule.nodes) <= 12.0)
    assert np.all(rule.weights > 0.0)


@pytest.mark.parametrize("degree", [0, 2, 4, 8, 16, 30])
def test_quadrature_exactness_even_polynomials(degree):
    rule = build_weight_rule("laplace_default", 256, 30.0)
    approx = np.dot(rule.weights, rule.nodes ** degree)
    ref, err = quad(lambda u: u ** degree * 0.5 * math.exp(-abs(u)), -30.0, 30.0,
                    limit=400, epsabs=0.0, epsrel=1e-12)
    assert approx == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("degree", [0, 2, 6, 12])
def test_quadrature_exactness_small_rule(degree):
    rule = build_weight_rule("laplace_default", 64, 10.0)
    approx = np.dot(rule.weights, rule.nodes ** degree)
    ref, _ = quad(lambda u: u ** degree * 0.5 * math.exp(-abs(u)), -10.0, 10.0,
                  limit=400, epsabs=0.0, epsrel=1e-12)
    assert approx == pytest.approx(ref, rel=1e-8)


def test_user_table_rule():
    nodes = np.array([-2.0, -1.0, 1.0, 2.0])
    weights = np.array([0.2, 0.3, 0.3, 0.2])
    rule = build_weight_rule("user_table", table=(nodes, weights))
    assert rule.node_count == 4
    assert rule.cutoff == 2.0
    assert rule.weights.sum() == pytest.approx(1.0)


def test_user_table_rejects_negative_weights():
    with pytest.raises(BadWeightSpec):
        build_weight_rule("user_table", table=([0.0, 1.0], [0.5, -0.1]))


def test_user_table_rejects_nonfinite():
    with pytest.raises(BadWeightSpec):
        build_weight_rule("user_table", table=([0.0, np.inf], [0.5, 0.5]))


def test_bad_specs():
    with pytest.raises(BadWeightSpec):
        build_weight_rule("no_such_density")
    with pytest.raises(ValueError):
        build_weight_rule("laplace_default", node_count=8)
    with pytest.raises(ValueError):
        build_weight_rule("laplace_default", cutoff=-1.0)


def test_scale_aware_cutoff():
    assert scale_aware_cutoff(1.0) == 6.0
    assert scale_aware_cutoff(0.1) == 30.0
    assert scale_aware_cutoff(10.0) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        scale_aware_cutoff(0.0)


def test_cached_legendre_base_rule_is_read_only():
    from numpy.polynomial.legendre import leggauss
    from symmix.weights import _legendre

    x, w = _legendre(8)
    assert _legendre(8)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    assert np.array_equal(x, leggauss(8)[0]) and np.array_equal(w, leggauss(8)[1])
