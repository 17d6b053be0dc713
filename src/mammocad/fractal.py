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
(:func:`blanket_area_table`). A region is a label id, and one region alone
is a table of that one id:
``blanket_dimension(blanket_area_table(img, region_map, [rid], r_max), rid)``.
"""

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateFit, RegionTooSmall
from .image import GrayImage
from .segment import RegionMap, check_id, wanted_rows
from .threshold import bounding_window


# On 8-bit gray levels every blanket has settled by radius 256 (see
# blanket_area_table): a larger r_max only adds the closed-form tail.
MAX_R_MAX = 256


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
    A(1..r_max) of region i and its :func:`fit_dimension` line; an ``r_max``
    outside 2..256 raises ``ValueError`` before any allocation. Rows of
    regions not in ``ids`` have areas 0 and NaN fits. The blanket grows
    over all those regions together, in the map's window, where a
    4-neighbor counts only if it has the same label, so every region's
    blanket is exactly the one it would grow alone. Every pixel gets the
    compact indices of its 4 neighbors; a neighbor off the image or in
    another region points back at the pixel itself, which never wins since
    u + 1 beats u and b - 1 beats b. The volumes are sums of integers, read
    per region with one weighted ``bincount`` per radius, so they are exact.

    The loop stops at the first radius r where every surface grows by
    exactly one: no pixel has a neighbor above u + 1 or below b - 1. Then
    u + 1 and b - 1 keep that property, so from r on every pixel adds 2 to
    u - b per radius, and V(r + k) = V(r - 1) + 2(k + 1)n with n the
    region's pixel count. Those later areas are the same exact integers,
    divided by the same 2r, so they carry the bits the loop would give.
    """
    r_max = operator.index(r_max)  # a numpy integer's r_max + 1 would wrap
    if not 2 <= r_max <= MAX_R_MAX:  # before the (rows, r_max) table is allocated
        raise ValueError(f"r_max must be in [2, {MAX_R_MAX}]")
    wanted = wanted_rows(img, region_map, ids)
    labels = region_map.labels[region_map.window]
    rows = len(wanted)
    # A ring of background around the window, where every label is 0 anyway,
    # keeps every neighbor index in range and never matches a region's label.
    padded = _framed(labels)
    stride = labels.shape[1] + 2
    at = np.flatnonzero(wanted.take(padded))
    group = padded.take(at)
    itself = np.arange(len(at))
    compact = np.zeros(padded.size, dtype=np.intp)
    compact[at] = itself
    # In arithmetic, not np.where, which branches per pixel on a ragged condition.
    neighbors = np.stack(
        [
            itself + (compact.take(near) - itself) * (padded.take(near) == group)
            for near in (at - stride, at - 1, at + 1, at + stride)
        ]
    )

    # Surfaces stay in -r_max..255 + r_max, so int16 holds them.
    upper = _framed(img.pixels[region_map.window]).take(at).astype(np.int16)
    lower = upper.copy()
    volume = np.zeros(rows)  # V(r - 1), exact integers
    areas = np.zeros((rows, r_max), dtype=np.float64)
    for r in range(1, r_max + 1):
        high, above = upper.take(neighbors).max(0), upper + 1
        low, below = lower.take(neighbors).min(0), lower - 1
        if (high <= above).all() and (low >= below).all():  # settled from r on
            grown = np.outer(np.where(wanted, region_map.sizes, 0), 2 * np.arange(1, r_max - r + 2))
            areas[:, r - 1 :] = (volume[:, None] + grown) / (2 * np.arange(r, r_max + 1))
            break
        upper, lower = np.maximum(high, above), np.minimum(low, below)
        volume = np.bincount(group, weights=upper - lower, minlength=rows)
        areas[:, r - 1] = volume / (2 * r)
    slope, intercept, residual = _fit_lines(range(1, r_max + 1), areas[wanted])
    fits = np.full((3, rows), np.nan)
    fits[:, wanted] = 2.0 - slope, intercept, residual
    return BlanketTable(areas, *fits)


def _framed(a: np.ndarray) -> np.ndarray:
    """``a`` inside a one-pixel frame of zeros, flattened."""
    framed = np.zeros((a.shape[0] + 2, a.shape[1] + 2), dtype=a.dtype)
    framed[1:-1, 1:-1] = a
    return framed.ravel()


def _fit_lines(scales, areas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slope, intercept and residual of log A(r) on log r for each row of ``areas``.

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
    return slope[..., 0], intercept[..., 0], residual


def fit_dimension(scales: Sequence[int], areas: Sequence[float]) -> BlanketFit:
    """Least-squares line of log A(r) on log r; D is 2 minus the slope."""
    if len(scales) != len(areas) or len(scales) < 2:
        raise ValueError("need matching scales/areas with at least 2 points")
    if any(a <= 0 for a in areas):
        raise ValueError("areas must be positive")
    if len(set(scales)) == 1:
        raise DegenerateFit("all scales equal")
    slope, intercept, residual = map(float, _fit_lines(scales, np.asarray(areas, float)))
    return BlanketFit(list(scales), [float(a) for a in areas], 2.0 - slope, intercept, residual)


def blanket_dimension(table: BlanketTable, region_id: int) -> BlanketFit:
    """The blanket fit of region ``region_id``: its row of a :func:`blanket_area_table`."""
    check_id(region_id, len(table.areas))
    dimension = table.dimension.item(region_id)  # a Python float, with no numpy scalar
    if math.isnan(dimension):
        raise ValueError(f"table has no fit for region {region_id}")
    areas = table.areas[region_id].tolist()
    # Every pixel adds (u_1 - b_1) / 2 >= 1 to A(1), and a lone pixel exactly
    # 1, so A(1) < 2 exactly when the region has fewer than 2 pixels.
    if areas[0] < 2:
        raise RegionTooSmall(f"region {region_id} has 1 pixel")
    return BlanketFit(
        list(range(1, len(areas) + 1)),
        areas,
        dimension,
        table.intercept.item(region_id),
        table.residual.item(region_id),
    )


def box_count_dimension(img: GrayImage, region_map: RegionMap, region_id: int) -> float:
    """Differential box-counting roughness over the region's bounding box.

    For each grid side s (powers of two up to half the short bbox side) the
    box height is h = s * 256 / M with M the short side; every s x s cell
    contributes ceil(max/h) - floor(min/h) + 1 boxes. D is the slope of
    log N(s) against log(1/s). The box is found inside the map's window.
    """
    wanted_rows(img, region_map, [region_id])  # checks the shapes and the id
    outer = region_map.window
    inner = bounding_window(region_map.labels[outer] == region_id)
    (y0, y1), (x0, x1) = ((o.start + i.start, o.start + i.stop) for o, i in zip(outer, inner))
    w, h = x1 - x0, y1 - y0
    short = min(w, h)
    if short < 8:
        raise RegionTooSmall(f"bounding box {w}x{h} below 8x8")
    window = img.pixels[y0:y1, x0:x1].astype(np.float64)

    sizes = [1 << k for k in range(1, int(short // 2).bit_length())]
    counts = []
    for s in sizes:
        # Cells start every s rows and columns; reduceat clips the last ones
        # at the window's edge.
        rows, cols = np.arange(0, h, s), np.arange(0, w, s)
        top = np.maximum.reduceat(np.maximum.reduceat(window, rows, 0), cols, 1)
        bottom = np.minimum.reduceat(np.minimum.reduceat(window, rows, 0), cols, 1)
        box_h = s * 256.0 / short
        counts.append((np.ceil(top / box_h) - np.floor(bottom / box_h) + 1).sum())
    return float(_fit_lines(1.0 / np.asarray(sizes, dtype=np.float64), counts)[0])


def roughness_gate(
    fits: Mapping[int, BlanketFit], d_min: float, d_max: float
) -> list[int]:
    """Ids of regions whose fitted D lies in [d_min, d_max], in id order.

    Regions outside the band (too smooth or too rough) are discarded.
    """
    if not d_min < d_max:
        raise ValueError("d_min must be < d_max")
    return [rid for rid, fit in fits.items() if d_min <= fit.dimension <= d_max]
