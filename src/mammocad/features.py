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
- gray sums are exact integers in any order, so each gray mean is its
  region's sum over its area; bounding-box sums taken from an integral
  image are exact too;
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
from .threshold import bounding_window


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


def _gradient_at(img: GrayImage, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """:func:`gradient_map`'s values at the pixels ``(ys, xs)``, with the same bits.

    Edge padding replicates the border, so a neighbour's row and column are
    clamped to the image. Each of the eight neighbours is gathered once and
    the kernel sums run in :func:`gradient_map`'s operation order.
    """
    height, width = img.pixels.shape
    flat = img.pixels.ravel()
    up, mid, down = (np.minimum(np.maximum(ys + k, 0), height - 1) * width for k in (-1, 0, 1))
    left, right = np.maximum(xs - 1, 0), np.minimum(xs + 1, width - 1)
    nw, n, ne = (flat[up + col].astype(np.float64) for col in (left, xs, right))
    w, e = (flat[mid + col].astype(np.float64) for col in (left, right))
    sw, s, se = (flat[down + col].astype(np.float64) for col in (left, xs, right))
    gx = ((ne + 2.0 * e + se) - (nw + 2.0 * w + sw)) / 8.0
    gy = ((sw + 2.0 * s + se) - (nw + 2.0 * n + ne)) / 8.0
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


def feature_table(img: GrayImage, region_map: RegionMap, ids: Iterable[int]) -> np.ndarray:
    """Descriptors of the regions ``ids`` in one pass over their box in the map's window.

    Returns an array of shape (region_count + 1, 7) whose row i holds the
    :class:`FeatureVector` fields of region i in field order; rows of
    regions not in ``ids`` are 0. The gradient is :func:`gradient_map`'s,
    evaluated at the regions' pixels alone (:func:`_gradient_at`).
    The order of ``ids`` and repeats in it do not matter; areas are the map's ``sizes``.
    """
    wanted = wanted_rows(img, region_map, ids)
    table = np.zeros((len(wanted), 7), dtype=np.float64)
    if not wanted.any():
        return table
    # The pass runs on the bounding box of those regions, found inside the
    # map's window: the outer neighbour of a region pixel on its edge is not
    # in the region, so every boundary stays as it is on the whole map.
    window = region_map.window
    covered = wanted[region_map.labels[window]]
    inner = bounding_window(covered)
    (y0, y1), (x0, x1) = ((w.start + i.start, w.start + i.stop) for w, i in zip(window, inner))
    box = np.s_[y0:y1, x0:x1]
    labels, gray = region_map.labels[box], img.pixels[box]
    at = np.flatnonzero(covered[inner])
    # Each pixel's row among the wanted ids, in the narrowest type that
    # numbers them: at 16 bits or fewer, numpy's stable sort is a radix
    # sort. Ids below the first wanted one wrap, but no covered pixel reads them.
    group = (np.cumsum(wanted, dtype=np.min_scalar_type(len(wanted))) - 1)[labels.ravel()[at]]
    at = at[np.argsort(group, kind="stable")]  # by region, raster order within
    area = region_map.sizes[wanted]  # a row per wanted id, as group numbers them
    group = np.repeat(np.arange(len(area)), area)  # the sorted rows, as intp
    ys, xs = np.divmod(at, labels.shape[1])
    ends = np.cumsum(area)
    edge = boundary_mask(labels).ravel()[at]
    edge_group = group[edge]
    edge_count = np.bincount(edge_group)

    grads = _gradient_at(img, ys + y0, xs + x0)
    mean_gradient = np.bincount(group, weights=grads) / area
    boundary_gradient = np.bincount(edge_group, weights=grads[edge]) / edge_count

    starts = ends - area
    col_min = np.minimum.reduceat(xs, starts)
    col_end = np.maximum.reduceat(xs, starts) + 1
    row_min = ys[starts]
    row_end = ys[ends - 1] + 1
    box_area = (col_end - col_min) * (row_end - row_min)

    values = gray.ravel()[at].astype(np.float64)
    inside = np.bincount(group, weights=values)  # exact, as a pairwise sum is
    gray_mean = inside / area
    gray_std = np.sqrt(_slice_means(area)((values - gray_mean[group]) ** 2))

    cx = np.bincount(group, weights=xs + x0) / area  # in image coordinates
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
    table[wanted] = np.array(columns, dtype=np.float64).T
    return table


def compute_features(table: np.ndarray, region_id: int) -> FeatureVector:
    """The feature vector of region ``region_id``: its row of a :func:`feature_table`."""
    check_id(region_id, len(table))
    row = table[region_id]
    if not row[0]:
        raise ValueError(f"table has no row for region {region_id}")
    area, *rest = row.tolist()
    return FeatureVector(int(area), *rest)
