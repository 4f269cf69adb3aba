"""Manifold-learning forecast pipeline for multivariate time series.

Learn a low-dimensional spectral embedding of a high-dimensional series,
select the non-redundant coordinates, fit small forecasting models on them,
and lift long-horizon forecasts back to the measurement space.
"""

from .dmaps import (
    DiffusionEmbedding,
    build_embedding,
    diffusion_operator,
    gaussian_affinity,
    spectral_decompose,
)
from .evaluate import comparison_table, error_metrics, nrw_forecast
from .glm import build_design_matrix, contrast_tstat, fit_glm
from .ingest import SynthConfig, detrend_standardize, generate_synthetic, load_timeseries
from .lifting import GhLiftModel, gh_fit, gh_lift, nystrom_restrict
from .parsimony import parsimony_errors, rank_and_select, select_parsimonious
from .rom_fnn import FnnModel, TrainConfig, fnn_forecast, fnn_forward, fnn_gradient, fnn_train
from .rom_koopman import (
    KoopmanModel,
    fit_koopman_model,
    koopman_eig,
    koopman_fit,
    koopman_forecast,
    koopman_modes,
)

__version__ = "0.1.0"

__all__ = [
    "DiffusionEmbedding",
    "FnnModel",
    "GhLiftModel",
    "KoopmanModel",
    "SynthConfig",
    "TrainConfig",
    "build_design_matrix",
    "build_embedding",
    "comparison_table",
    "contrast_tstat",
    "detrend_standardize",
    "diffusion_operator",
    "error_metrics",
    "fit_glm",
    "fit_koopman_model",
    "fnn_forecast",
    "fnn_forward",
    "fnn_gradient",
    "fnn_train",
    "gaussian_affinity",
    "generate_synthetic",
    "gh_fit",
    "gh_lift",
    "koopman_eig",
    "koopman_fit",
    "koopman_forecast",
    "koopman_modes",
    "load_timeseries",
    "nrw_forecast",
    "nystrom_restrict",
    "parsimony_errors",
    "rank_and_select",
    "select_parsimonious",
    "spectral_decompose",
]
