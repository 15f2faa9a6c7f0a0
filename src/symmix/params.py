"""Parameter space and mixing operator for the two-component shifted mixture.

The model density is g(x) = p f(x - alpha) + (1 - p) f(x - beta) with f an
unknown density symmetric about zero.  In the Fourier domain the mixing acts
by multiplication with

    M(theta, u) = p e^{i u alpha} + (1 - p) e^{i u beta},

which is bounded away from zero whenever p stays away from 1/2:
(1 - 2P)^2 <= |M(theta, u)|^2 <= 1 for p in [P_low, P] with P < 1/2.  That
lower bound is what makes dividing by M well behaved everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParam, SampleTooSmall

__all__ = [
    "ParamBox",
    "DEFAULT_BOX",
    "EuclideanParam",
    "Sample",
    "m_func",
    "m_modulus_sq",
    "canonicalize",
]


@dataclass(frozen=True)
class ParamBox:
    """Compact box for the Euclidean parameter (p, alpha, beta).

    p is confined to [p_low, p_high] with 0 < p_low <= p_high < 1/2, and the
    two locations must stay at least sep_min apart.
    """

    p_low: float = 0.001
    p_high: float = 0.499
    sep_min: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.p_low <= self.p_high < 0.5):
            raise ValueError(f"need 0 < p_low <= p_high < 1/2, got [{self.p_low}, {self.p_high}]")
        if self.sep_min <= 0.0:
            raise ValueError("sep_min must be positive")


DEFAULT_BOX = ParamBox()


@dataclass(frozen=True, slots=True)
class EuclideanParam:
    """Mixing proportion and the two component locations.

    Construction only enforces what every formula needs: finite values,
    p in (0, 1) with p != 1/2, and alpha != beta.  Points with p > 1/2 are
    allowed so the label-swap symmetry (p, alpha, beta) <-> (1-p, beta, alpha)
    can be evaluated on both sides; `canonicalize` maps onto the p < 1/2
    representative and checks the configured box.  Slotted, like `Sample`,
    so an instance carries no dict: leave-one-out returns n of them.
    """

    p: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DegenerateParam("non-finite parameter value")
        if not 0.0 < self.p < 1.0 or self.p == 0.5:
            raise DegenerateParam(f"p must lie in (0,1) \\ {{1/2}}, got {self.p}")
        if self.alpha == self.beta:
            raise DegenerateParam("alpha and beta coincide")

    def swapped(self) -> "EuclideanParam":
        return EuclideanParam(1.0 - self.p, self.beta, self.alpha)

    def as_array(self) -> np.ndarray:
        return np.array([self.p, self.alpha, self.beta], dtype=float)

    def in_box(self, box: ParamBox = DEFAULT_BOX) -> bool:
        return (box.p_low <= self.p <= box.p_high
                and abs(self.alpha - self.beta) >= box.sep_min)


class Sample:
    """Immutable ordered collection of real observations."""

    __slots__ = ("_values",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=float).ravel().copy()
        if arr.size == 0:
            raise SampleTooSmall("empty sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample contains non-finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "_values", arr)

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n(self) -> int:
        return self._values.size

    def __len__(self) -> int:
        return self._values.size

    def __repr__(self) -> str:
        return f"Sample(n={self.n})"


def m_func(theta: EuclideanParam, u) -> complex | np.ndarray:
    """Mixing operator M(theta, u) = p e^{iu alpha} + (1-p) e^{iu beta}.

    Vectorized over u; returns a complex scalar for scalar u.
    """
    u = np.asarray(u, dtype=float)
    out = theta.p * np.exp(1j * u * theta.alpha) + (1.0 - theta.p) * np.exp(1j * u * theta.beta)
    return complex(out) if out.ndim == 0 else out


def m_modulus_sq(theta: EuclideanParam, u) -> float | np.ndarray:
    """|M(theta, u)|^2 in closed form: 2p^2 - 2p + 1 + 2p(1-p) cos(u (alpha - beta))."""
    u = np.asarray(u, dtype=float)
    p = theta.p
    out = 2.0 * p * p - 2.0 * p + 1.0 + 2.0 * p * (1.0 - p) * np.cos(u * (theta.alpha - theta.beta))
    return float(out) if out.ndim == 0 else out


def canonicalize(theta_raw, box: ParamBox = DEFAULT_BOX) -> EuclideanParam:
    """Map (p, alpha, beta) onto its p < 1/2 representative and validate against the box.

    The mixture is invariant under (p, alpha, beta) -> (1-p, beta, alpha);
    the representative with p < 1/2 is the canonical one.  Raises
    DegenerateParam for p = 1/2, p outside the box after the swap, or
    locations closer than box.sep_min.
    """
    theta = theta_raw if isinstance(theta_raw, EuclideanParam) \
        else EuclideanParam(*(float(v) for v in theta_raw))
    if theta.p > 0.5:
        theta = theta.swapped()
    if not theta.in_box(box):
        raise DegenerateParam(f"canonical {theta} outside box {box}")
    return theta
