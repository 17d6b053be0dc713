"""Fractal roughness estimation per region.

The blanket estimator grows an upper surface u and a lower surface b around
the gray-level surface, one unit per radius step, taking dilation/erosion
over 4-neighbors restricted to the region's own pixels. The volume between
the surfaces at radius r gives a surface-area estimate A(r) = V(r)/(2r), and
the roughness D follows from the log-log law  log A(r) = (2 - D) log r + k'.
A flat surface has D = 2; rougher surfaces push D toward 3. A differential
box-counting estimator over the region's bounding box serves as an
independent cross-check.

The blankets of all fitted regions grow in one pass over the label map,
where a neighbor counts only if it carries the same label, and their
log-log lines are fitted in one pass over the table's rows
(:func:`blanket_area_table`). A region is a label id: one region alone is
a table of that one id (:func:`blanket_areas`).
"""

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateFit, RegionTooSmall
from .image import GrayImage
from .segment import RegionMap, check_id, wanted_rows


@dataclass
class BlanketFit:
    """Blanket record: scales r, areas A(r), fitted D, intercept, residual."""

    scales: list[int]
    areas: list[float]
    dimension: float
    intercept: float
    residual: float


class BlanketTable(NamedTuple):
    """Blanket areas and log-log fits of many regions, row i for region i."""

    areas: np.ndarray  # (rows, r_max); 0 in rows that were not fitted
    dimension: np.ndarray  # (rows,); NaN in rows that were not fitted
    intercept: np.ndarray
    residual: np.ndarray


def blanket_area_table(
    img: GrayImage, region_map: RegionMap, ids: Iterable[int], r_max: int = 8
) -> BlanketTable:
    """Surface-area estimates A(1..r_max) of the regions ``ids``, fitted in one pass.

    Returns a :class:`BlanketTable` of region_count + 1 rows: row i holds
    A(1..r_max) of region i and its :func:`fit_dimension` line. Rows of
    regions not in ``ids`` have areas 0 and NaN fits. The blanket grows
    over the pixels of all those regions together, where a
    4-neighbor counts only if it has the same label, so every region's
    blanket is exactly the one it would grow alone. Every pixel gets the
    compact indices of its 4 neighbors; a neighbor off the image or in
    another region points back at the pixel itself, which never wins since
    u + 1 beats u and b - 1 beats b. The volumes are sums of integers, read
    per region with one weighted ``bincount`` per radius, so they are exact.
    """
    if r_max < 2:
        raise ValueError("r_max must be >= 2")
    wanted = wanted_rows(img, region_map, ids)
    labels = region_map.labels
    rows = len(wanted)
    # A ring of background around the map keeps every neighbor index in
    # range and never matches a region's label.
    padded = np.pad(labels, 1).ravel()
    stride = labels.shape[1] + 2
    at = np.flatnonzero(wanted[padded])
    group = padded[at]
    itself = np.arange(len(at))
    compact = np.zeros(padded.size, dtype=np.intp)
    compact[at] = itself
    neighbors = np.stack(
        [
            np.where(padded[at + step] == group, compact[at + step], itself)
            for step in (-stride, -1, 1, stride)
        ]
    )

    upper = np.pad(img.pixels, 1).ravel()[at].astype(np.int32)
    lower = upper.copy()
    areas = np.zeros((rows, r_max), dtype=np.float64)
    for r in range(1, r_max + 1):
        upper = np.maximum(upper[neighbors].max(0), upper + 1)
        lower = np.minimum(lower[neighbors].min(0), lower - 1)
        areas[:, r - 1] = np.bincount(group, weights=upper - lower, minlength=rows) / (2 * r)
    fits = np.full((3, rows), np.nan)
    fits[:, wanted] = _fit_lines(range(1, r_max + 1), areas[wanted])
    return BlanketTable(areas, *fits)


def blanket_areas(
    img: GrayImage, region_map: RegionMap, region_id: int, r_max: int = 8
) -> tuple[list[int], list[float]]:
    """Surface-area estimates A(r) for r = 1..r_max over one region.

    u and b start at the pixel values; each step sets
    u_r = max(u_{r-1} + 1, 4-neighbor max of u_{r-1}) and b_r symmetrically
    with min and -1. Neighbors outside the region (or image) are ignored, so
    the blanket is intrinsic to the region and background cannot bias it.
    This is row ``region_id`` of :func:`blanket_area_table` of that one id;
    a region of fewer than 2 pixels raises :class:`RegionTooSmall`.
    """
    areas = blanket_area_table(img, region_map, [region_id], r_max).areas[region_id]
    _check_size(areas, region_id)
    return list(range(1, r_max + 1)), areas.tolist()


def _check_size(areas: np.ndarray, region_id: int) -> None:
    """Raise :class:`RegionTooSmall` for a one-pixel region, from its A(1..r_max) row.

    Every pixel adds (u_1 - b_1) / 2 >= 1 to A(1), and a lone pixel exactly
    1, so A(1) < 2 exactly when the region has fewer than 2 pixels.
    """
    if areas[0] < 2:
        raise RegionTooSmall(f"region {region_id} has 1 pixel")


def _fit_lines(scales, areas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D, intercept and residual of log A(r) on log r for each row of ``areas``.

    Every sum reduces along the last axis, which numpy runs as the same
    pairwise sum on each row of a 2-D array as on a 1-D row, so a row
    fitted with the others has the bits of that row fitted alone.
    """
    x = np.log(np.asarray(scales, dtype=np.float64))
    y = np.log(areas)
    x_mean = x.mean()
    y_mean = y.mean(axis=-1, keepdims=True)
    slope = ((x - x_mean) * (y - y_mean)).sum(axis=-1, keepdims=True) / ((x - x_mean) ** 2).sum()
    intercept = y_mean - slope * x_mean
    residual = ((y - (slope * x + intercept)) ** 2).sum(axis=-1)
    return 2.0 - slope[..., 0], intercept[..., 0], residual


def fit_dimension(scales: Sequence[int], areas: Sequence[float]) -> BlanketFit:
    """Least-squares line of log A(r) on log r; D is 2 minus the slope."""
    if len(scales) != len(areas) or len(scales) < 2:
        raise ValueError("need matching scales/areas with at least 2 points")
    if any(a <= 0 for a in areas):
        raise ValueError("areas must be positive")
    if len(set(scales)) == 1:
        raise DegenerateFit("all scales equal")
    fitted = _fit_lines(scales, np.asarray(areas, dtype=np.float64))
    return BlanketFit(list(scales), [float(a) for a in areas], *map(float, fitted))


def blanket_dimension(table: BlanketTable, region_id: int) -> BlanketFit:
    """The blanket fit of region ``region_id``: its row of a :func:`blanket_area_table`."""
    check_id(region_id, len(table.areas))
    if math.isnan(table.dimension[region_id]):
        raise ValueError(f"table has no fit for region {region_id}")
    _check_size(table.areas[region_id], region_id)
    return BlanketFit(
        list(range(1, table.areas.shape[1] + 1)),
        table.areas[region_id].tolist(),
        float(table.dimension[region_id]),
        float(table.intercept[region_id]),
        float(table.residual[region_id]),
    )


def box_count_dimension(img: GrayImage, region_map: RegionMap, region_id: int) -> float:
    """Differential box-counting roughness over the region's bounding box.

    For each grid side s (powers of two up to half the short bbox side) the
    box height is h = s * 256 / M with M the short side; every s x s cell
    contributes ceil(max/h) - floor(min/h) + 1 boxes. D is the slope of
    log N(s) against log(1/s).
    """
    wanted_rows(img, region_map, [region_id])  # checks the shapes and the id
    ys, xs = np.nonzero(region_map.labels == region_id)
    x0, y0 = xs.min(), ys.min()
    w, h = xs.max() - x0 + 1, ys.max() - y0 + 1
    short = min(w, h)
    if short < 8:
        raise RegionTooSmall(f"bounding box {w}x{h} below 8x8")
    window = img.pixels[y0 : y0 + h, x0 : x0 + w].astype(np.float64)

    sizes = []
    s = 2
    while s <= short // 2:
        sizes.append(s)
        s *= 2
    counts = []
    for s in sizes:
        box_h = s * 256.0 / short
        total = 0
        for cy in range(0, h, s):
            for cx in range(0, w, s):
                cell = window[cy : cy + s, cx : cx + s]
                total += int(
                    math.ceil(cell.max() / box_h) - math.floor(cell.min() / box_h) + 1
                )
        counts.append(total)
    x = np.log(1.0 / np.asarray(sizes, dtype=np.float64))
    y = np.log(np.asarray(counts, dtype=np.float64))
    x_mean = x.mean()
    slope = ((x - x_mean) * (y - y.mean())).sum() / ((x - x_mean) ** 2).sum()
    return float(slope)


def roughness_gate(
    fits: Mapping[int, BlanketFit], d_min: float, d_max: float
) -> list[int]:
    """Ids of regions whose fitted D lies in [d_min, d_max], in id order.

    Regions outside the band (too smooth or too rough) are discarded.
    """
    if not d_min < d_max:
        raise ValueError("d_min must be < d_max")
    return [rid for rid, fit in fits.items() if d_min <= fit.dimension <= d_max]
