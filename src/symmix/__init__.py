"""symmix: semiparametric two-component mixture estimation via Fourier contrasts.

The model is g(x) = p f(x - alpha) + (1 - p) f(x - beta) with an unknown
density f symmetric about zero.  Symmetry makes the Fourier transform of f
real, so theta = (p, alpha, beta) is recovered by driving the imaginary part
of ghat*(u) / M(theta, u) to zero in a weighted L2 sense; f itself follows
by kernel deconvolution.
"""

from . import contrast, density, errors, estimator, params, simulate, weights
from .contrast import *  # noqa: F403
from .density import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimator import *  # noqa: F403
from .params import *  # noqa: F403
from .simulate import *  # noqa: F403
from .weights import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = ["__version__", *params.__all__, *weights.__all__, *contrast.__all__,
           *estimator.__all__, *density.__all__, *simulate.__all__, *errors.__all__]
