"""symmix: semiparametric two-component mixture estimation via Fourier contrasts.

The model is g(x) = p f(x - alpha) + (1 - p) f(x - beta) with an unknown
density f symmetric about zero.  Symmetry makes the Fourier transform of f
real, so theta = (p, alpha, beta) is recovered by driving the imaginary part
of ghat*(u) / M(theta, u) to zero in a weighted L2 sense; f itself follows
by kernel deconvolution.
"""

from .contrast import (ContrastConfig, ContrastEvaluator, contrast_gradient,
                       default_trunc_h, empirical_contrast, j_func, oracle_contrast,
                       plugin_contrast, z_score, z_score_gradient)
from .density import (DensityConfig, DensityCurve, KernelCurve, default_bandwidth,
                      default_grid, deconvolved_density_values, estimate_density,
                      estimate_g, reconstruct_mixture)
from .errors import (BadCharacteristicFunction, BadWeightSpec,
                     DegenerateFit, DegenerateParam, EmptyPositivePart,
                     SampleTooSmall, SingularInformation, SymmixError)
from .estimator import (FitConfig, FitResult, asymptotic_covariance,
                        default_contrast_config, fit, initial_points,
                        leave_one_out_thetas, robust_scale)
from .params import (DEFAULT_BOX, EuclideanParam, ParamBox, Sample, canonicalize,
                     m_func, m_modulus_sq)
from .simulate import (FAMILIES, MCSummary, ScenarioSpec, noise_cdf, replication_rng,
                       run_scenario, sample_mixture, sample_noise)
from .weights import WeightRule, build_weight_rule, laplace_density, scale_aware_cutoff

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # params
    "EuclideanParam", "ParamBox", "DEFAULT_BOX", "Sample", "canonicalize",
    "m_func", "m_modulus_sq",
    # weights
    "WeightRule", "build_weight_rule", "laplace_density", "scale_aware_cutoff",
    # contrast
    "ContrastConfig", "ContrastEvaluator", "default_trunc_h", "empirical_contrast",
    "plugin_contrast", "contrast_gradient", "oracle_contrast", "z_score",
    "z_score_gradient", "j_func",
    # estimator
    "FitConfig", "FitResult", "fit", "initial_points", "asymptotic_covariance",
    "leave_one_out_thetas", "default_contrast_config", "robust_scale",
    # density
    "DensityConfig", "DensityCurve", "KernelCurve", "default_bandwidth",
    "default_grid", "estimate_density", "estimate_g", "reconstruct_mixture",
    "deconvolved_density_values",
    # simulate
    "FAMILIES", "ScenarioSpec", "MCSummary", "sample_mixture", "sample_noise",
    "noise_cdf", "replication_rng", "run_scenario",
    # errors
    "SymmixError", "DegenerateParam", "BadWeightSpec", "SampleTooSmall",
    "BadCharacteristicFunction", "DegenerateFit",
    "SingularInformation", "EmptyPositivePart",
]
