"""Exception hierarchy for symmix."""

__all__ = ["SymmixError", "DegenerateParam", "BadWeightSpec", "SampleTooSmall", "DegenerateFit",
           "BadCharacteristicFunction", "SingularInformation", "EmptyPositivePart"]


class SymmixError(Exception):
    """Base class for all symmix errors."""


class DegenerateParam(SymmixError):
    """Parameter point outside the admissible region (p = 1/2, merged locations, ...)."""


class BadWeightSpec(SymmixError):
    """Weight rule specification is invalid (negative weights, infinite moments, ...)."""


class SampleTooSmall(SymmixError):
    """Operation requires more observations than the sample provides."""


class BadCharacteristicFunction(SymmixError):
    """A characteristic function failed a basic sanity requirement (e.g. g*(0) != 1)."""


class DegenerateFit(SymmixError):
    """Fit collapsed to an effectively one-component configuration."""


class SingularInformation(SymmixError):
    """Estimated curvature matrix is numerically singular."""


class EmptyPositivePart(SymmixError):
    """Density estimate has no positive mass to renormalize."""
