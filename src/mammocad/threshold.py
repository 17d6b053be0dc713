"""Histogram computation and adaptive (Otsu) threshold selection."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyHistogram
from .image import GrayImage

BINS = 256
# The largest count whose histogram's gray-value sum int64 holds exactly.
COUNT_MAX = np.iinfo(np.int64).max // (BINS * (BINS - 1))
_LEVELS = np.arange(BINS, dtype=np.int64)
_CHUNK = 1 << 16  # samples per histogram pass


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
    """Count pixels per gray level: an array of 256 counts.

    ``np.bincount`` casts its samples to ``intp``, so it counts 64 KiB of
    them at a time: the cast takes 8 bytes per sample of a chunk, not of
    the image.
    """
    flat = img.pixels.ravel()
    counts = np.bincount(flat[:_CHUNK], minlength=BINS)
    for start in range(_CHUNK, flat.size, _CHUNK):
        counts += np.bincount(flat[start : start + _CHUNK], minlength=BINS)
    return counts


def otsu_threshold(counts: np.ndarray) -> int:
    """Pick the threshold maximizing between-class variance of 256 ``counts``.

    Returns the smallest t in [0, 254] maximizing
    sigma_B^2(t) = w0 * w1 * (mu0 - mu1)^2, where class 0 holds pixels <= t.
    A constant image yields that constant value. Dropping the constant
    1/total^2, sigma_B^2(t) is proportional to (S0*c1 - S1*c0)^2 / (c0*c1)
    with c the class counts and S the class gray-value sums.

    That score is taken in float64 for every t at once, and the choice among
    the t within a relative 1e-9 of the best runs in exact integer
    arithmetic, so ties and near-ties are unambiguous. The margin holds at
    any image size: class 0 holds levels <= t and class 1 levels >= t + 1,
    so mu1 - mu0 >= 1 and |S0*c1 - S1*c0| >= c0*c1, while
    S0*c1 + S1*c0 <= 510*c0*c1. Each float product is off by at most a few
    units of 2**-53 of itself, so the difference is within ~2e-13 of its
    exact value relative to itself, and the score within ~4e-13: every
    exact maximum is kept.

    ``counts`` must be 256 non-negative integers (not bools) of at most
    :data:`COUNT_MAX` each, whose sums int64 holds exactly, as
    :func:`histogram` returns; anything else raises ``ValueError``. All-zero
    counts raise ``EmptyHistogram``.
    """
    if np.shape(counts) != (BINS,):
        raise ValueError(f"counts must have {BINS} bins")
    counts = np.asarray(counts)
    # A bool array's kind is "b": a histogram counts pixels, it does not flag them.
    if counts.dtype.kind not in "iu" or counts.min() < 0 or counts.max() > COUNT_MAX:
        raise ValueError(f"counts must be integers in 0..{COUNT_MAX}")
    counts = counts.astype(np.int64, copy=False)  # uint64 times int64 would be float64
    c0 = np.cumsum(counts)
    s0 = np.cumsum(counts * _LEVELS)
    total, total_sum = int(c0[-1]), int(s0[-1])
    if total == 0:
        raise EmptyHistogram("histogram has no pixels")
    occupied = np.flatnonzero(counts)
    if len(occupied) == 1:
        return int(occupied[0])

    c0, s0 = c0[:-1], s0[:-1]  # class 0 of t = 0..254
    ts = np.flatnonzero((c0 > 0) & (c0 < total))  # both classes nonempty
    c0, s0 = c0[ts], s0[ts]
    c1, s1 = total - c0, total_sum - s0
    f0, g0, f1, g1 = (a.astype(np.float64) for a in (c0, s0, c1, s1))
    score = (g0 * f1 - g1 * f0) ** 2 / (f0 * f1)
    near = np.flatnonzero(score >= (1 - 1e-9) * score.max())
    best_t = 0
    best_num = 0  # score numerator (S0*c1 - S1*c0)^2
    best_den = 1  # score denominator c0*c1
    for t, n0, m0, n1, m1 in zip(*(a[near].tolist() for a in (ts, c0, s0, c1, s1))):
        num = (m0 * n1 - m1 * n0) ** 2
        den = n0 * n1
        if num * best_den > best_num * den:  # strict: the smallest t keeps a tie
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
