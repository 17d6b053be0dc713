"""Per-region shape and intensity descriptors.

All descriptors are computed on the working (negated) gray image. Gradients
come from 3x3 Sobel kernels normalized by 1/8 with replicate-padded borders,
so a unit-slope ramp reads 1.0 in its interior.

:func:`feature_table` computes the descriptors of many regions in one pass
over the label map, and it keeps the summation order of the per-region
definitions, so every value has the same bits:

- the gradient means are sequential sums: a weighted ``np.bincount`` adds
  in raster order, as Python's left-to-right ``sum`` over a region's pixels
  does;
- gray sums are exact integers, and so are bounding-box sums taken from an
  integral image;
- ``gray_std`` and the edge-distance means use numpy's pairwise sum on each
  region's own slice, as ``ndarray.mean`` does on the region's values: the
  slices of one length are summed by one last-axis reduce, which sums each
  row as it sums that row alone;
- distances to the centroid come from ``math.hypot``, which can differ from
  ``np.hypot`` in the last bit.

A region is a label id: :func:`compute_features` reads its row, and one
region alone is a table of that one id.
"""

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DegenerateRegion
from .image import GrayImage
from .segment import RegionMap, boundary_mask, check_id, wanted_rows


@dataclass
class FeatureVector:
    """The seven region descriptors used for classification."""

    area: int  # pixel count
    compactness: float  # area over bounding-box area; 1.0 fills the box
    mean_gradient: float  # mean gradient magnitude over the region's pixels
    boundary_gradient: float  # the same over its boundary pixels: edge sharpness
    gray_std: float  # population standard deviation of the gray values
    # Variance of the boundary-to-centroid distances over their mean: zero
    # for rotationally symmetric boundaries, doubled by doubling the region.
    edge_distance_variance: float
    # Mean gray inside minus mean gray of the rest of the bounding box; the
    # inside mean alone when the region fills its box.
    intensity_diff: float


def gradient_map(img: GrayImage) -> np.ndarray:
    """Per-pixel gradient magnitude sqrt(Gx^2 + Gy^2), Sobel/8, edge-padded.

    Edge padding works at any size: on a 1- or 2-pixel side the kernel
    reads replicated edge pixels.
    """
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


def _slice_means(lengths: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """A function of ``values``: ``mean()`` of each consecutive slice, slice i ``lengths[i]`` long.

    The slices of one length are gathered into a ``(k, length)`` array and
    summed by one last-axis ``np.add.reduce``, which sums each row as it
    sums that row alone. The grouping is made once, for every array of
    values split by the same lengths. ``np.add.reduceat`` would not do: it
    does not follow the order ``reduce`` sums in.
    """
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(lengths, kind="stable")
    cuts = np.flatnonzero(np.diff(lengths[order])) + 1
    groups = [
        (which, starts[which, None] + np.arange(lengths[which[0]]))
        for which in np.split(order, cuts)
    ]

    def means(values: np.ndarray) -> np.ndarray:
        sums = np.empty(len(lengths))
        for which, index in groups:
            sums[which] = np.add.reduce(values[index], axis=-1)
        return sums / lengths

    return means


def _feature_rows(
    labels: np.ndarray,
    gray: np.ndarray,
    grad: np.ndarray,
    ids: np.ndarray,
    origin: tuple[int, int],
) -> np.ndarray:
    """Descriptor rows of the regions ``ids`` (ascending) of a label window.

    ``origin`` is the window's top-left corner in the image, so centroids
    and distances are taken in image coordinates.
    """
    slot = np.full(labels.max(initial=0) + 1, len(ids))
    slot[ids] = np.arange(len(ids))
    flat = labels.ravel()
    at = np.flatnonzero(slot[flat] < len(ids))
    at = at[np.argsort(slot[flat[at]], kind="stable")]  # by region, raster order within
    group = slot[flat[at]]
    ys, xs = np.divmod(at, labels.shape[1])
    area = np.bincount(group)
    ends = np.cumsum(area)
    edge = boundary_mask(labels).ravel()[at]
    edge_group = group[edge]
    edge_count = np.bincount(edge_group)

    grads = grad.ravel()[at]
    mean_gradient = np.bincount(group, weights=grads) / area
    boundary_gradient = np.bincount(edge_group, weights=grads[edge]) / edge_count

    starts = ends - area
    col_min = np.minimum.reduceat(xs, starts)
    col_end = np.maximum.reduceat(xs, starts) + 1
    row_min = ys[starts]
    row_end = ys[ends - 1] + 1
    box_area = (col_end - col_min) * (row_end - row_min)

    values = gray.ravel()[at].astype(np.float64)
    region_means = _slice_means(area)
    gray_mean = region_means(values)
    gray_std = np.sqrt(region_means((values - gray_mean[group]) ** 2))

    x0, y0 = origin
    cx = np.bincount(group, weights=xs + x0) / area
    cy = np.bincount(group, weights=ys + y0) / area
    dx = (xs[edge] + x0 - cx[edge_group]).tolist()
    dy = (ys[edge] + y0 - cy[edge_group]).tolist()
    dists = np.array(list(map(math.hypot, dx, dy)))
    edge_means = _slice_means(edge_count)
    d_mean = edge_means(dists)
    if not d_mean.all():
        raise DegenerateRegion("all boundary pixels coincide with the centroid")
    d_var = edge_means((dists - d_mean[edge_group]) ** 2)

    integral = np.zeros((gray.shape[0] + 1, gray.shape[1] + 1), dtype=np.int64)
    integral[1:, 1:] = gray.cumsum(0, dtype=np.int64).cumsum(1)
    box_sum = (
        integral[row_end, col_end]
        - integral[row_min, col_end]
        - integral[row_end, col_min]
        + integral[row_min, col_min]
    )
    inside = np.bincount(group, weights=values)
    # With no outside pixel, box_sum - inside is 0 and the inside mean stays.
    outside_mean = (box_sum - inside) / np.maximum(box_area - area, 1)
    columns = [
        area,
        area / box_area,
        mean_gradient,
        boundary_gradient,
        gray_std,
        d_var / d_mean,
        inside / area - outside_mean,
    ]
    return np.array(columns, dtype=np.float64).T


def feature_table(
    img: GrayImage, region_map: RegionMap, ids: Iterable[int], grad: np.ndarray | None = None
) -> np.ndarray:
    """Descriptors of the regions ``ids`` in one pass over the label map.

    Returns an array of shape (region_count + 1, 7) whose row i holds the
    :class:`FeatureVector` fields of region i in field order; rows of
    regions not in ``ids`` are 0. ``grad`` defaults to :func:`gradient_map`.
    """
    wanted = wanted_rows(img, region_map, ids)
    labels = region_map.labels
    ids = np.flatnonzero(wanted)
    if grad is None:
        grad = gradient_map(img)
    elif grad.shape != labels.shape:
        raise ValueError("gradient and region map dimensions differ")
    table = np.zeros((len(wanted), 7), dtype=np.float64)
    if ids.size:
        # The pass runs on the bounding box of those regions: the outer
        # neighbour of a region pixel on its edge is not in the region, so
        # every boundary stays as it is on the whole map.
        covered = wanted[labels]
        ys = np.flatnonzero(covered.any(axis=1))
        xs = np.flatnonzero(covered.any(axis=0))
        box = np.s_[ys[0] : ys[-1] + 1, xs[0] : xs[-1] + 1]
        table[ids] = _feature_rows(labels[box], img.pixels[box], grad[box], ids, (xs[0], ys[0]))
    return table


def compute_features(table: np.ndarray, region_id: int) -> FeatureVector:
    """The feature vector of region ``region_id``: its row of a :func:`feature_table`."""
    check_id(region_id, len(table))
    row = table[region_id]
    if not row[0]:
        raise ValueError(f"table has no row for region {region_id}")
    area, *rest = row.tolist()
    return FeatureVector(int(area), *rest)
