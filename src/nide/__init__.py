"""Noise-invalidation denoising for 1-D signals.

The threshold is selected by comparing the sorted absolute wavelet
coefficients of the observed data against a probabilistic band derived from
the order statistics of the additive Gaussian noise (white or colored); the
last point still consistent with pure noise is the soft threshold.
"""

from .baselines import (
    bayes_threshold,
    denoise_with,
    sure_threshold,
    visu_threshold,
)
from .bench import (
    ExperimentConfig,
    ExperimentResult,
    lambda_sweep,
    mc_validate,
    normalized_mse,
    run_experiment,
)
from .denoise import DenoiseConfig, DenoiseResult, denoise, select_threshold, soft_threshold
from .gaussian_stats import abs_noise_cdf, shifted_abs_cdf, std_normal_cdf
from .noise_model import (
    NoiseSpec,
    calibrate_noise_to_snr,
    estimate_sigma_mad,
    gen_noise,
    theoretical_profile,
)
from .signals import SIGNAL_NAMES, TestSignal, gen_signal
from .signature import (
    ConfidenceBand,
    CorrelationProfile,
    empirical_signature,
    white_band,
)
from .wavelet import CoefficientSet, dwt_forward, dwt_inverse

__version__ = "0.1.0"

__all__ = [
    "ConfidenceBand",
    "CorrelationProfile",
    "CoefficientSet",
    "DenoiseConfig",
    "DenoiseResult",
    "ExperimentConfig",
    "ExperimentResult",
    "NoiseSpec",
    "SIGNAL_NAMES",
    "TestSignal",
    "abs_noise_cdf",
    "bayes_threshold",
    "calibrate_noise_to_snr",
    "denoise",
    "denoise_with",
    "dwt_forward",
    "dwt_inverse",
    "empirical_signature",
    "estimate_sigma_mad",
    "gen_noise",
    "gen_signal",
    "lambda_sweep",
    "mc_validate",
    "normalized_mse",
    "run_experiment",
    "select_threshold",
    "shifted_abs_cdf",
    "soft_threshold",
    "std_normal_cdf",
    "sure_threshold",
    "theoretical_profile",
    "visu_threshold",
    "white_band",
]
