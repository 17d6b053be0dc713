"""Mammogram tumor-candidate detection pipeline.

Core flow: negate the image, pick an adaptive threshold from its histogram,
split-and-merge the foreground into regions, keep regions whose blanket
fractal dimension falls in the configured roughness band, then label each
survivor tumor/normal from its shape and intensity descriptors.
"""

from .classify import Detection, RuleSet, classify, default_rules
from .errors import MammoCadError
from .features import FeatureVector, compute_features, feature_table, gradient_map
from .fractal import (
    BlanketFit,
    BlanketTable,
    blanket_area_table,
    blanket_dimension,
    box_count_dimension,
    fit_dimension,
    roughness_gate,
)
from .image import GrayImage, haar_downsample, negate, read_pgm, write_pgm
from .phantom import generate_phantom
from .pipeline import (
    BatchError,
    DetectionReport,
    PipelineConfig,
    run_batch,
    run_pipeline,
)
from .segment import RegionMap, extract_regions, merge, segment_image, split
from .threshold import BinaryMask, apply_threshold, histogram, otsu_threshold

__version__ = "0.1.0"

__all__ = [
    "BatchError",
    "BinaryMask",
    "BlanketFit",
    "BlanketTable",
    "Detection",
    "DetectionReport",
    "FeatureVector",
    "GrayImage",
    "MammoCadError",
    "PipelineConfig",
    "RegionMap",
    "RuleSet",
    "apply_threshold",
    "blanket_area_table",
    "blanket_dimension",
    "box_count_dimension",
    "classify",
    "compute_features",
    "default_rules",
    "extract_regions",
    "feature_table",
    "fit_dimension",
    "generate_phantom",
    "gradient_map",
    "haar_downsample",
    "histogram",
    "merge",
    "negate",
    "otsu_threshold",
    "read_pgm",
    "roughness_gate",
    "run_batch",
    "run_pipeline",
    "segment_image",
    "split",
    "write_pgm",
]
