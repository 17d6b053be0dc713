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
    clamped to the image. Each of the eight neighbours is gathered once.
    The kernel sums of 8-bit pixels are small integers, which
    :func:`gradient_map`'s float sums hold exactly, so they are taken in
    int16 and divided by 8.0 once.
    """
    height, width = img.pixels.shape
    flat = img.pixels.ravel()
    up, mid, down = (np.minimum(np.maximum(ys + k, 0), height - 1) * width for k in (-1, 0, 1))
    left, right = np.maximum(xs - 1, 0), np.minimum(xs + 1, width - 1)
    nw, n, ne = (flat.take(up + col).astype(np.int16) for col in (left, xs, right))
    w, e = (flat.take(mid + col).astype(np.int16) for col in (left, right))
    sw, s, se = (flat.take(down + col).astype(np.int16) for col in (left, xs, right))
    gx = ((ne + 2 * e + se) - (nw + 2 * w + sw)) / 8.0
    gy = ((sw + 2 * s + se) - (nw + 2 * n + ne)) / 8.0
    return np.hypot(gx, gy)


def _slice_means(lengths: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """A function of ``values``: ``mean()`` of each consecutive slice, slice i ``lengths[i]`` long.

    The slices, ordered by length, are gathered into one flat array; the
    slices of one length are a ``(k, length)`` block of it, summed by one
    last-axis ``np.add.reduce``, which sums each row as it sums that row
    alone. The gather index and the blocks are made once, for every array
    of values split by the same lengths. ``np.add.reduceat`` would not do:
    it does not follow the order ``reduce`` sums in.
    """
    order = np.argsort(lengths, kind="stable")
    sizes = lengths.take(order)
    ends = np.cumsum(sizes)  # in the gathered array
    # Each gathered value's place in ``values``: its slice's end there, less
    # the slice's end in the gathered array, plus its own place there.
    index = np.repeat(np.cumsum(lengths).take(order) - ends, sizes)
    index += np.arange(len(index))
    # Per length, its slices a..b - 1, where their block starts, and the length.
    cuts = (np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist()
    firsts = [0, *cuts]
    at, length = (ends - sizes).take(firsts).tolist(), sizes.take(firsts).tolist()
    blocks = list(zip(firsts, [*cuts, len(sizes)], at, length))

    def means(values: np.ndarray) -> np.ndarray:
        gathered = values.take(index)
        sums = np.empty(len(lengths))
        for a, b, at, length in blocks:
            block = gathered[at : at + (b - a) * length].reshape(b - a, length)
            np.add.reduce(block, axis=-1, out=sums[a:b])
        means = np.empty(len(lengths))
        means[order] = sums / sizes
        return means

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
    covered = wanted.take(region_map.labels[window])
    inner = bounding_window(covered)
    (y0, y1), (x0, x1) = ((w.start + i.start, w.start + i.stop) for w, i in zip(window, inner))
    box = np.s_[y0:y1, x0:x1]
    labels, gray = region_map.labels[box], img.pixels[box]
    at = np.flatnonzero(covered[inner])
    # Each pixel's row among the wanted ids, in the narrowest type that
    # numbers them: at 16 bits or fewer, numpy's stable sort is a radix
    # sort. Ids below the first wanted one wrap, but no covered pixel reads them.
    rows = np.cumsum(wanted, dtype=np.min_scalar_type(len(wanted))) - 1
    group = rows.take(labels.ravel().take(at))
    at = at.take(np.argsort(group, kind="stable"))  # by region, raster order within
    area = region_map.sizes[wanted]  # a row per wanted id, as group numbers them
    group = np.repeat(np.arange(len(area)), area)  # the sorted rows, as intp
    ys = at // labels.shape[1]
    xs = at - ys * labels.shape[1]
    ends = np.cumsum(area)
    edge = np.flatnonzero(boundary_mask(labels).ravel().take(at))  # the boundary pixels
    edge_group = group.take(edge)
    edge_count = np.bincount(edge_group)

    grads = _gradient_at(img, ys + y0, xs + x0)
    mean_gradient = np.bincount(group, weights=grads) / area
    boundary_gradient = np.bincount(edge_group, weights=grads.take(edge)) / edge_count

    starts = ends - area
    col_min = np.minimum.reduceat(xs, starts)
    col_end = np.maximum.reduceat(xs, starts) + 1
    row_min = ys.take(starts)
    row_end = ys.take(ends - 1) + 1
    box_area = (col_end - col_min) * (row_end - row_min)

    values = gray.ravel().take(at).astype(np.float64)
    inside = np.bincount(group, weights=values)  # exact, as a pairwise sum is
    gray_mean = inside / area
    gray_std = np.sqrt(_slice_means(area)((values - gray_mean.take(group)) ** 2))

    cx = np.bincount(group, weights=xs + x0) / area  # in image coordinates
    cy = np.bincount(group, weights=ys + y0) / area
    dx = (xs.take(edge) + x0 - cx.take(edge_group)).tolist()
    dy = (ys.take(edge) + y0 - cy.take(edge_group)).tolist()
    dists = np.fromiter(map(math.hypot, dx, dy), np.float64, len(dx))
    edge_means = _slice_means(edge_count)
    d_mean = edge_means(dists)
    if not d_mean.all():
        raise DegenerateRegion("all boundary pixels coincide with the centroid")
    d_var = edge_means((dists - d_mean.take(edge_group)) ** 2)

    # Box sums from an integral image, in int32 while its sums fit.
    total = np.promote_types(np.min_scalar_type(-255 * gray.size), np.int32)
    integral = np.zeros((gray.shape[0] + 1, gray.shape[1] + 1), dtype=total)
    np.cumsum(gray, 0, dtype=total, out=integral[1:, 1:])
    np.cumsum(integral[1:, 1:], 1, out=integral[1:, 1:])
    stride = integral.shape[1]
    top, bottom = row_min * stride, row_end * stride
    box_sum = (
        integral.take(bottom + col_end)
        - integral.take(top + col_end)
        - integral.take(bottom + col_min)
        + integral.take(top + col_min)
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
    area, *rest = table[region_id].tolist()
    if not area:
        raise ValueError(f"table has no row for region {region_id}")
    return FeatureVector(int(area), *rest)
