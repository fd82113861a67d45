"""Gesture recognition on hand-landmark variance features with a Gaussian mixture."""

from .classify import (
    ClassificationResult,
    ClusterLabelMap,
    build_label_map,
    classify_video,
    record_header,
    result_record,
    vote,
)
from .errors import DataError, GestureMixError, ModelFormatError, NumericalError
from .gmm import (
    EmConfig,
    EmTrace,
    MixtureParams,
    e_step,
    fit,
    initialize,
    log_likelihood,
    m_step,
)
from .landmarks import (
    FeatureMatrix,
    GestureVideo,
    NormalizationStats,
    apply_normalization,
    compute_variances,
    fit_normalization,
)
from .metrics import SilhouetteReport, silhouette
from .synth import GestureProfile, default_profiles, generate_dataset, generate_video

__version__ = "0.1.0"

__all__ = [
    "ClassificationResult",
    "ClusterLabelMap",
    "DataError",
    "EmConfig",
    "EmTrace",
    "FeatureMatrix",
    "GestureMixError",
    "GestureProfile",
    "GestureVideo",
    "MixtureParams",
    "ModelFormatError",
    "NormalizationStats",
    "NumericalError",
    "SilhouetteReport",
    "apply_normalization",
    "build_label_map",
    "classify_video",
    "compute_variances",
    "default_profiles",
    "e_step",
    "fit",
    "fit_normalization",
    "generate_dataset",
    "generate_video",
    "initialize",
    "log_likelihood",
    "m_step",
    "record_header",
    "result_record",
    "silhouette",
    "vote",
]
