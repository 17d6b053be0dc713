"""Synthetic mammogram phantoms with ground truth for self-tests.

Phantoms mimic the geometry the pipeline expects from scanned mammograms: a
smooth low-intensity background with mild noise, optionally with planted
blobs. Because the pipeline negates before thresholding, planted blobs are
dips in the emitted file so they come out bright in the working image. The
returned ground-truth mask marks the blob(s) a correct run should keep: for
"tumor" the single textured blob, for "multi" the textured one only (the
smooth distractor must be dropped by the roughness gate), for "blank"
nothing.
"""

import math

import numpy as np

from .image import GrayImage

_BG_BASE = 82.0
_BG_RAMP = 6.0  # gray levels across the image height; small so Otsu favors the blob
_BG_NOISE = 2  # uniform integer noise amplitude
_BLOB_AMP = 52.0  # dip depth; bright after negation
_BLOB_SIGMA_FRAC = 0.055
_BLOB_SHAPE = 24  # supergaussian exponent: uniform disc with a thin soft rim
_TEXTURE_AMP = 4.5  # hard texture bound; 2*amp + rounding stays within tau_merge=10
_TEXTURE_GAIN = 2.5  # tanh gain: pushes the bounded noise toward its rails
_TEXTURE_HURST = 0.5
_TEXTURE_BAND = (0.25, 0.5)  # cycles per texture-grid pixel: wavelengths 2..4 px
_TRUTH_LEVEL = 0.7  # envelope level defining the ground-truth disc

KINDS = ("blank", "tumor", "multi")


def generate_phantom(
    kind: str, seed: int, size: int = 1024
) -> tuple[GrayImage, np.ndarray]:
    """Build a deterministic phantom image and its boolean ground-truth mask.

    kind "blank" has no blob; "tumor" plants one textured blob at the
    center; "multi" plants a textured blob left of center and a smooth one
    right of center. Identical (kind, seed, size) always yields identical
    output.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if size < 64:
        raise ValueError("size must be >= 64")
    rng = np.random.default_rng(seed)
    coords = np.arange(size, dtype=np.float64)
    ramp = _BG_BASE + _BG_RAMP * (coords / size)
    field = ramp[:, None] + rng.integers(-_BG_NOISE, _BG_NOISE + 1, size=(size, size))
    truth = np.zeros((size, size), dtype=bool)

    blobs = []  # (x_frac, y_frac, textured)
    if kind == "tumor":
        blobs = [(0.5, 0.5, True)]
    elif kind == "multi":
        blobs = [(0.3, 0.5, True), (0.7, 0.5, False)]

    sigma = _BLOB_SIGMA_FRAC * size
    # Beyond d^2 = 2 sigma^2 the envelope is exp(-(>=2)**12) = 0.0 exactly,
    # so each blob touches only the box around that disc (2 px margin).
    reach = math.sqrt(2.0) * sigma + 2.0
    for x_frac, y_frac, textured in blobs:
        cx, cy = x_frac * size, y_frac * size
        rows, cols = _span(cy, reach, size), _span(cx, reach, size)
        d2 = (coords[cols] - cx) ** 2 + (coords[rows, None] - cy) ** 2
        # Supergaussian: flat top so the blob segments as one region, steep
        # flank so the transition ring stays thin.
        envelope = np.exp(-((d2 / (sigma * sigma)) ** (_BLOB_SHAPE // 2)))
        box = field[rows, cols]
        box -= _BLOB_AMP * envelope
        if textured:
            box += envelope * _texture_field(size, rng, rows, cols)
            truth[rows, cols] |= envelope >= _TRUTH_LEVEL

    np.rint(field, out=field)
    np.clip(field, 0, 255, out=field)
    return GrayImage(field.astype(np.uint8)), truth


def _span(center: float, reach: float, size: int) -> slice:
    """The pixels within ``reach`` of ``center`` on one axis, clipped to the image."""
    return slice(max(0, math.floor(center - reach)), min(size, math.ceil(center + reach) + 1))


def _texture_field(size: int, rng: "np.random.Generator", rows: slice, cols: slice) -> np.ndarray:
    """Bounded rough texture, |values| <= _TEXTURE_AMP, on the box ``rows, cols``.

    Phantoms of 512 pixels and up are meant for the default 3-level
    pyramid, so the texture is synthesized on the 8x-coarser working grid
    (rounded up, so any size is covered) and each pixel reads its block's
    value; block averaging then hands it to the pipeline unchanged.
    Smaller phantoms (meant for dwt_levels=0 runs) get it at full
    resolution. The whole grid is drawn whatever the box, so the random
    stream does not depend on it. The hard bound matters: adjacent working
    pixels can never differ by more than twice the bound, so the merge step
    cannot crack the blob apart under its default tolerance.
    """
    upsample = 8 if size >= 512 else 1
    grid = -(-size // upsample)
    raw = _fbm_field(grid, _TEXTURE_HURST, rng)
    bounded = _TEXTURE_AMP * np.tanh(_TEXTURE_GAIN * raw)
    ys = np.arange(rows.start, rows.stop) // upsample
    xs = np.arange(cols.start, cols.stop) // upsample
    return bounded[np.ix_(ys, xs)]


def _fbm_field(size: int, hurst: float, rng: "np.random.Generator") -> np.ndarray:
    """Zero-mean unit-std band-limited fractional-Brownian-like surface.

    Spectral synthesis: white Gaussian noise shaped to amplitude
    f^-(hurst+1), i.e. a power law P(f) ~ f^-(2*hurst+2), restricted to the
    _TEXTURE_BAND radial band (cycles per pixel) so the roughness lives at
    wavelengths of 2 to 4 pixels where the blanket estimator reads it.
    """
    noise = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    fy = np.fft.fftfreq(size)[:, None]
    fx = np.fft.fftfreq(size)[None, :]
    radius = np.hypot(fx, fy)
    radius[0, 0] = 1.0
    lo, hi = _TEXTURE_BAND
    band = (radius >= lo) & (radius <= hi)
    spectrum = np.where(band, noise * radius ** (-(hurst + 1.0)), 0.0)
    field = np.fft.ifft2(spectrum).real
    return (field - field.mean()) / field.std()
