"""Weight measures on the frequency axis, realized as quadrature rules.

Every integral in the contrast has the form  int phi(u) dW(u)  for a
probability measure W with finite absolute moments up to order three.  The
default W has the two-sided exponential density w(u) = exp(-|u|)/2, whose
k-th absolute moment is k! (so 1, 2, 6 for k = 1, 2, 3) -- handy analytic
oracles for the rule.

A rule is composite Gauss-Legendre on [-cutoff, cutoff] with the density
folded into the weights: the m nodes of a half-axis go to m // 8 equal
panels of 8 to 15 nodes each (16 panels of 8 at the default 256 nodes),
mirrored so the node set is symmetric about zero.  The density is smooth
inside each half-axis (the |u| kink sits on a panel boundary), so the rule
converges geometrically for smooth integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import BadWeightSpec

__all__ = [
    "WeightRule",
    "build_weight_rule",
    "scale_aware_cutoff",
    "laplace_density",
]

_NODES_PER_PANEL = 8
# the default rule's node count, for `fit` and `--weight-nodes` alike
_NODE_COUNT = 256
# scale_aware_cutoff: standardized frequency units covered, and the cap
_CUTOFF_UNITS = 6.0
_CUTOFF_CAP = 30.0


def laplace_density(u) -> np.ndarray:
    """Normalized two-sided exponential density exp(-|u|)/2."""
    return 0.5 * np.exp(-np.abs(np.asarray(u, dtype=float)))


@dataclass(frozen=True)
class WeightRule:
    """Quadrature realization of a weight measure: sum_q weights[q] phi(nodes[q]).

    Any W the estimator allows can be given directly, as
    WeightRule(label, cutoff, nodes, weights): the cutoff, which a fit
    writes into its manifest, must be finite and positive, and nodes and
    weights must be 1-d arrays of equal, nonzero length with finite
    entries, the weights nonnegative and the third absolute moment
    sum_q weights[q] |nodes[q]|^3 finite.  Anything else raises
    BadWeightSpec.
    """

    density_id: str
    cutoff: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.cutoff) and self.cutoff > 0.0):
            raise BadWeightSpec(f"cutoff must be finite and positive, got {self.cutoff!r}")
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size == 0:
            raise BadWeightSpec("nodes and weights must be 1-d arrays of equal, nonzero length")
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise BadWeightSpec("nodes and weights must be finite")
        if (weights < 0.0).any():
            raise BadWeightSpec("weights must be nonnegative")
        held = weights > 0.0    # a zero weight adds nothing, however far out its node
        with np.errstate(over="ignore"):
            if not math.isfinite(np.dot(weights[held], np.abs(nodes[held]) ** 3)):
                raise BadWeightSpec("the third absolute moment of the weights is not finite")
        nodes.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def node_count(self) -> int:
        return self.nodes.size


@lru_cache(maxsize=None)
def _legendre(count: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per count, read-only."""
    x, w = leggauss(count)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _half_axis_panels(m: int, cutoff: float):
    """Split m >= 8 nodes over k = m // 8 equal panels of (0, cutoff].

    Each panel holds m // k or m // k + 1 nodes, the larger counts first:
    8 each when m is a multiple of 8, up to 15 otherwise (m = 15 is one
    panel of 15, m = 20 two panels of 10).
    """
    k = max(1, m // _NODES_PER_PANEL)
    counts = [m // k + (i < m % k) for i in range(k)]
    edges = np.linspace(0.0, cutoff, k + 1)
    return counts, edges


def build_weight_rule(node_count: int = _NODE_COUNT, cutoff: float = 30.0) -> WeightRule:
    """The default rule: the exponential weight exp(-|u|)/2 on [-cutoff, cutoff].

    Composite Gauss-Legendre with the density folded into the weights;
    node_count must be an even integer >= 16.  Any other weight measure is
    built as a WeightRule directly.
    """
    if not isinstance(node_count, (int, np.integer)):
        raise TypeError(f"node_count must be an integer, got {node_count!r}")
    if node_count < 16 or node_count % 2 != 0:
        raise ValueError("node_count must be an even integer >= 16")
    if not math.isfinite(cutoff):
        raise ValueError("cutoff must be finite")
    if not cutoff > 0.0:
        raise ValueError("cutoff must be positive")

    counts, edges = _half_axis_panels(node_count // 2, cutoff)
    u_parts, w_parts = [], []
    for cnt, a, b in zip(counts, edges[:-1], edges[1:]):
        x, gw = _legendre(cnt)
        u_parts.append(0.5 * (b - a) * x + 0.5 * (b + a))
        w_parts.append(0.5 * (b - a) * gw * laplace_density(u_parts[-1]))
    u_pos, w_pos = np.concatenate(u_parts), np.concatenate(w_parts)
    nodes = np.concatenate([-u_pos[::-1], u_pos])
    weights = np.concatenate([w_pos[::-1], w_pos])
    return WeightRule("laplace_default", float(cutoff), nodes, weights)


def scale_aware_cutoff(scale: float) -> float:
    """Frequency cutoff covering six standardized frequency units, capped at 30.

    For data of dispersion `scale` the informative band of the empirical
    characteristic function ends around a few multiples of 1/scale; six of
    them give the integration window, capped at the default support cap.
    """
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    return float(min(_CUTOFF_CAP, _CUTOFF_UNITS / scale))
