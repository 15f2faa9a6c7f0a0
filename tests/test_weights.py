import inspect
import math

import numpy as np
import pytest
from scipy.integrate import quad

from symmix import BadWeightSpec, WeightRule, build_weight_rule, scale_aware_cutoff


def test_default_rule_total_mass():
    rule = build_weight_rule(256, 30.0)
    expected = 1.0 - math.exp(-30.0)
    assert abs(rule.weights.sum() - expected) <= 1e-10


def test_default_rule_moments_match_analytic():
    # k-th absolute moment of exp(-|u|)/2 is k!
    rule = build_weight_rule(256, 30.0)
    for k, expected in [(1, 1.0), (2, 2.0), (3, 6.0)]:
        assert np.dot(rule.weights, np.abs(rule.nodes) ** k) == pytest.approx(expected, rel=0.01)
    combined = np.dot(rule.weights, 1.0 + np.abs(rule.nodes) + rule.nodes ** 2
                      + np.abs(rule.nodes) ** 3)
    assert np.isfinite(combined)
    assert combined == pytest.approx(1.0 + 1.0 + 2.0 + 6.0, rel=0.01)


def test_truncated_rule_mass():
    rule = build_weight_rule(16, 1.0)
    assert rule.weights.sum() == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)


def test_nodes_symmetric_and_inside_cutoff():
    rule = build_weight_rule(128, 12.0)
    assert rule.node_count == rule.nodes.size == 128
    assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=0.0)
    assert np.all(np.abs(rule.nodes) <= 12.0)
    assert np.all(rule.weights > 0.0)


@pytest.mark.parametrize("degree", [0, 2, 4, 8, 16, 30])
def test_quadrature_exactness_even_polynomials(degree):
    rule = build_weight_rule(256, 30.0)
    approx = np.dot(rule.weights, rule.nodes ** degree)
    ref, err = quad(lambda u: u ** degree * 0.5 * math.exp(-abs(u)), -30.0, 30.0,
                    limit=400, epsabs=0.0, epsrel=1e-12)
    assert approx == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("degree", [0, 2, 6, 12])
def test_quadrature_exactness_small_rule(degree):
    rule = build_weight_rule(64, 10.0)
    approx = np.dot(rule.weights, rule.nodes ** degree)
    ref, _ = quad(lambda u: u ** degree * 0.5 * math.exp(-abs(u)), -10.0, 10.0,
                  limit=400, epsabs=0.0, epsrel=1e-12)
    assert approx == pytest.approx(ref, rel=1e-8)


def test_weight_rule_given_directly():
    nodes = np.array([-2.0, -1.0, 1.0, 2.0])
    weights = np.array([0.2, 0.3, 0.3, 0.2])
    rule = WeightRule("custom", 2.0, nodes, weights)
    assert rule.node_count == 4
    assert rule.cutoff == 2.0
    assert rule.weights.sum() == pytest.approx(1.0)
    assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
    # a zero weight adds nothing to the third moment, however far out its node
    assert WeightRule("custom", 1e200, [-1e200, 1.0], [0.0, 1.0]).node_count == 2


# (nodes, weights) of a measure the estimator does not allow
@pytest.mark.parametrize("nodes, weights", [
    ([0.0, 1.0], [0.5, -0.1]),
    ([0.0, np.inf], [0.5, 0.5]),
    ([0.0, 1.0], [0.5, np.nan]),
    ([0.0, 1.0, 2.0], [0.5, 0.5]),
    ([[0.0, 1.0]], [[0.5, 0.5]]),
    ([], []),
    ([1.0, 1e120], [0.5, 0.5]),
], ids=["negative-weight", "infinite-node", "nan-weight", "unequal-lengths", "2-d", "empty",
        "infinite-third-moment"])
def test_weight_rule_rejects_invalid_measure(nodes, weights):
    with pytest.raises(BadWeightSpec):
        WeightRule("custom", 1.0, nodes, weights)


@pytest.mark.parametrize("cutoff", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_weight_rule_rejects_invalid_cutoff(cutoff):
    # a fit copies the cutoff into its manifest, where NaN or inf is not JSON
    with pytest.raises(BadWeightSpec, match="cutoff must be finite and positive"):
        WeightRule("custom", cutoff, [-1.0, 1.0], [0.5, 0.5])


@pytest.mark.parametrize("node_count", [256.0, np.float64(64), "64"])
def test_rule_builder_rejects_non_integer_node_count(node_count):
    with pytest.raises(TypeError, match="node_count must be an integer"):
        build_weight_rule(node_count)


def test_rule_builder_takes_numpy_integer_node_count():
    rule = build_weight_rule(np.int64(64), 10.0)
    assert np.array_equal(rule.nodes, build_weight_rule(64, 10.0).nodes)


def test_bad_specs():
    with pytest.raises(ValueError):
        build_weight_rule(node_count=8)
    with pytest.raises(ValueError):
        build_weight_rule(cutoff=-1.0)
    # the node bound is checked before any array is built
    assert build_weight_rule(node_count=65536).node_count == 65536
    with pytest.raises(ValueError, match="node_count must be at most 65536, got 65538"):
        build_weight_rule(node_count=65538)


@pytest.mark.parametrize("node_count", [16, 64, 100, 250, 256, 4096])
@pytest.mark.parametrize("cutoff", [30.0, 3.64])
def test_rule_equals_the_per_panel_map(node_count, cutoff):
    # all panels are mapped in one vectorised pass: the same arithmetic as
    # one panel at a time, so the same bits
    from symmix.weights import _half_axis_panels, _legendre, laplace_density

    counts, edges = _half_axis_panels(node_count // 2, cutoff)
    u_parts, w_parts = [], []
    for cnt, a, b in zip(counts, edges[:-1], edges[1:]):
        x, gw = _legendre(cnt)
        u_parts.append(0.5 * (b - a) * x + 0.5 * (b + a))
        w_parts.append(0.5 * (b - a) * gw * laplace_density(u_parts[-1]))
    u_pos, w_pos = np.concatenate(u_parts), np.concatenate(w_parts)
    rule = build_weight_rule(node_count, cutoff)
    assert rule.nodes.tobytes() == np.concatenate([-u_pos[::-1], u_pos]).tobytes()
    assert rule.weights.tobytes() == np.concatenate([w_pos[::-1], w_pos]).tobytes()


def test_rule_builder_takes_node_count_and_cutoff_only():
    assert list(inspect.signature(build_weight_rule).parameters) == ["node_count", "cutoff"]
    rule = build_weight_rule()
    assert (rule.density_id, rule.node_count, rule.cutoff) == ("laplace_default", 256, 30.0)


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
