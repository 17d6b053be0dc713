"""Histogram computation and adaptive (Otsu) threshold selection."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyHistogram
from .image import GrayImage

BINS = 256


def bounding_window(a: np.ndarray) -> tuple[slice, slice]:
    """Rows, then columns, of the smallest window holding ``a``'s nonzero entries; empty if none."""
    rows = np.flatnonzero(a.any(axis=1))
    if not rows.size:
        return np.s_[0:0, 0:0]
    cols = np.flatnonzero(a[rows[0] : rows[-1] + 1].any(axis=0))
    return np.s_[int(rows[0]) : int(rows[-1]) + 1, int(cols[0]) : int(cols[-1]) + 1]


@dataclass
class BinaryMask:
    """Foreground/background partition: foreground is strictly > threshold, all in ``window``."""

    bits: np.ndarray
    threshold_used: int

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.ndim != 2:
            raise ValueError("bits must be 2-D")

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @cached_property
    def window(self) -> tuple[slice, slice]:
        return bounding_window(self.bits)

    @property
    def foreground_count(self) -> int:
        return int(self.bits.sum())


def histogram(img: GrayImage) -> np.ndarray:
    """Count pixels per gray level: an array of 256 counts."""
    return np.bincount(img.pixels.ravel(), minlength=BINS)


def otsu_threshold(counts: np.ndarray) -> int:
    """Pick the threshold maximizing between-class variance of 256 ``counts``.

    Returns the smallest t in [0, 254] maximizing
    sigma_B^2(t) = w0 * w1 * (mu0 - mu1)^2, where class 0 holds pixels <= t.
    A constant image yields that constant value. The score comparison runs
    in exact integer arithmetic, so ties and near-ties are unambiguous:
    dropping the constant 1/total^2, sigma_B^2(t) is proportional to
    (S0*c1 - S1*c0)^2 / (c0*c1) with c the class counts and S the class
    gray-value sums. ``counts`` must have 256 bins, as :func:`histogram`
    returns, and at least one pixel.
    """
    if np.shape(counts) != (BINS,):
        raise ValueError(f"counts must have {BINS} bins")
    counts = [int(c) for c in counts]
    total = sum(counts)
    if total == 0:
        raise EmptyHistogram("histogram has no pixels")

    occupied = [v for v, c in enumerate(counts) if c > 0]
    if len(occupied) == 1:
        return occupied[0]

    total_sum = sum(v * c for v, c in enumerate(counts))
    best_t = 0
    best_num = 0  # score numerator (S0*c1 - S1*c0)^2
    best_den = 1  # score denominator c0*c1
    c0 = 0
    s0 = 0
    for t in range(255):
        c0 += counts[t]
        s0 += t * counts[t]
        c1 = total - c0
        if c0 == 0 or c1 == 0:
            continue  # score 0, never beats best_num >= 0 strictly
        num = (s0 * c1 - (total_sum - s0) * c0) ** 2
        den = c0 * c1
        if num * best_den > best_num * den:
            best_num, best_den, best_t = num, den, t
    return best_t


def apply_threshold(img: GrayImage, t: int) -> BinaryMask:
    """Build the foreground mask of pixels strictly greater than ``t``."""
    if not 0 <= t <= 255:
        raise ValueError(f"threshold must be in [0, 255], got {t}")
    return BinaryMask(img.pixels > t, t)


def mask_to_image(bits: np.ndarray) -> GrayImage:
    """Render a 2-D bool array as an image: True 255, False 0."""
    return GrayImage(np.where(bits, 255, 0).astype(np.uint8))
