"""Rule-based tumor/normal labeling of gated regions.

Every rule is a configurable threshold on a region's features; a region is
labeled "tumor" only if all rules pass. The D band is not a rule: the
roughness gate alone applies it, before any region reaches classification.
Rule names appear in ``failed_rules`` in declaration order, so reports stay
stable and auditable.
"""

from dataclasses import dataclass

from .fractal import BlanketFit
from .features import FeatureVector


@dataclass
class RuleSet:
    """Thresholds for the conjunctive classification rules.

    Defaults suit a 128x128 working image; ``max_area`` should be set to a
    quarter of the working image when built via :func:`default_rules`.
    """

    min_area: int = 50
    max_area: int = 4096
    min_compactness: float = 0.4
    min_boundary_gradient: float = 2.0
    min_intensity_diff: float = 10.0

    def __post_init__(self):
        # A NaN threshold fails every comparison, so it would fail every region.
        for name, value in vars(self).items():
            if value != value:
                raise ValueError(f"{name} must not be NaN")
        if self.min_area > self.max_area:
            raise ValueError("min_area must be <= max_area")
        if not 0.0 <= self.min_compactness <= 1.0:
            raise ValueError("min_compactness must be in [0, 1]")


def default_rules(working_pixels: int) -> RuleSet:
    """Default rules with max_area scaled to a quarter of the working image."""
    return RuleSet(max_area=max(working_pixels // 4, RuleSet.min_area))


@dataclass
class Detection:
    """Classification outcome for one gated region."""

    region_id: int
    features: FeatureVector
    dimension: float
    label: str  # "tumor" | "normal"
    failed_rules: list[str]
    fit: BlanketFit


def classify(
    region_id: int, features: FeatureVector, fit: BlanketFit, rules: RuleSet
) -> Detection:
    """Evaluate every rule; the label is "tumor" iff none fail."""
    checks = (
        ("min_area", features.area >= rules.min_area),
        ("max_area", features.area <= rules.max_area),
        ("min_compactness", features.compactness >= rules.min_compactness),
        ("min_boundary_gradient", features.boundary_gradient >= rules.min_boundary_gradient),
        ("min_intensity_diff", features.intensity_diff >= rules.min_intensity_diff),
    )
    failed = [name for name, ok in checks if not ok]
    label = "tumor" if not failed else "normal"
    return Detection(region_id, features, fit.dimension, label, failed, fit)
