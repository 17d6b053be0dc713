"""Per-region shape and intensity descriptors.

All descriptors are computed on the working (negated) gray image. Gradients
come from 3x3 Sobel kernels normalized by 1/8 with replicate-padded borders,
so a unit-slope ramp reads 1.0 in its interior.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRegion, ImageTooSmall
from .image import GrayImage
from .segment import Region


@dataclass
class FeatureVector:
    """The seven region descriptors used for classification."""

    area: int
    compactness: float
    mean_gradient: float
    boundary_gradient: float
    gray_std: float
    edge_distance_variance: float
    intensity_diff: float


def gradient_map(img: GrayImage) -> np.ndarray:
    """Per-pixel gradient magnitude sqrt(Gx^2 + Gy^2), Sobel/8, edge-padded."""
    if img.width < 3 or img.height < 3:
        raise ImageTooSmall("gradient needs at least a 3x3 image")
    p = np.pad(img.pixels.astype(np.float64), 1, mode="edge")
    gx = (
        (p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:])
        - (p[:-2, :-2] + 2.0 * p[1:-1, :-2] + p[2:, :-2])
    ) / 8.0
    gy = (
        (p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:])
        - (p[:-2, :-2] + 2.0 * p[:-2, 1:-1] + p[:-2, 2:])
    ) / 8.0
    return np.hypot(gx, gy)


def area(region: Region) -> int:
    """Pixel count of the region."""
    return len(region.pixels)


def compactness(region: Region) -> float:
    """Region area over its bounding-rectangle area; 1.0 fills the box."""
    _, _, w, h = region.bbox
    return len(region.pixels) / (w * h)


def mean_region_gradient(region: Region, grad: np.ndarray) -> float:
    """Average gradient magnitude over all region pixels."""
    return float(sum(grad[y, x] for x, y in region.pixels) / len(region.pixels))


def mean_boundary_gradient(region: Region, grad: np.ndarray) -> float:
    """Average gradient magnitude over the boundary pixels; boundary sharpness."""
    if not region.boundary:
        raise DegenerateRegion(f"region {region.id} has no boundary pixels")
    return float(sum(grad[y, x] for x, y in region.boundary) / len(region.boundary))


def gray_std(region: Region, img: GrayImage) -> float:
    """Population standard deviation of the region's gray values."""
    values = np.array([img.pixels[y, x] for x, y in region.pixels], dtype=np.float64)
    return float(np.sqrt(((values - values.mean()) ** 2).mean()))


def edge_distance_variance(region: Region) -> float:
    """Variance of boundary-to-centroid distances, normalized by their mean.

    Zero for rotationally symmetric boundaries; grows with shape
    irregularity. Doubling all coordinates doubles the value (the
    normalization is by the mean distance, not its square).
    """
    cx, cy = region.centroid
    dists = np.array(
        [math.hypot(x - cx, y - cy) for x, y in region.boundary], dtype=np.float64
    )
    d_mean = float(dists.mean())
    if d_mean == 0.0:
        raise DegenerateRegion("all boundary pixels coincide with the centroid")
    return float(((dists - d_mean) ** 2).mean() / d_mean)


def intensity_diff(region: Region, img: GrayImage) -> float:
    """Mean gray inside the region minus mean gray of the rest of its bbox.

    If the region fills its bounding box exactly there is no outside part;
    the inside mean is returned alone.
    """
    x0, y0, w, h = region.bbox
    inside = sum(int(img.pixels[y, x]) for x, y in region.pixels)
    n_inside = len(region.pixels)
    box = img.pixels[y0 : y0 + h, x0 : x0 + w]
    n_outside = w * h - n_inside
    if n_outside == 0:
        return inside / n_inside
    outside = int(box.sum(dtype=np.int64)) - inside
    return inside / n_inside - outside / n_outside


def compute_features(
    region: Region, img: GrayImage, grad: np.ndarray | None = None
) -> FeatureVector:
    """Assemble the full feature vector for one region."""
    if grad is None:
        grad = gradient_map(img)
    return FeatureVector(
        area=area(region),
        compactness=compactness(region),
        mean_gradient=mean_region_gradient(region, grad),
        boundary_gradient=mean_boundary_gradient(region, grad),
        gray_std=gray_std(region, img),
        edge_distance_variance=edge_distance_variance(region),
        intensity_diff=intensity_diff(region, img),
    )
