"""8-bit grayscale images: PGM I/O, negation, Haar-pyramid downsampling.

Pixel coordinates are (x, y) with x the column and y the row; arrays are
stored row-major, so ``pixels[y, x]``.
"""

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InvalidPixelValue,
    IoFailure,
    MalformedHeader,
    NotDivisible,
    TruncatedData,
    UnsupportedMaxval,
)

_WHITESPACE = b" \t\r\n\v\f"
# One header token after any whitespace and '#'-to-end-of-line comments; the
# token is empty only at the end of the data. It never needs to backtrack,
# so its quantifiers are possessive, which is faster.
_TOKEN = re.compile(rb"(?:[ \t\r\n\v\f]|#[^\n]*+\n?)*+([^ \t\r\n\v\f#]*+)")
# A raster comment; the newline that ends it stays as a separator.
_COMMENT = re.compile(rb"#[^\n]*+")
# A raster byte's digit value, or _SPACE for whitespace and _OTHER otherwise.
_SPACE, _OTHER = 10, 11
_DIGIT = np.full(256, _OTHER, dtype=np.uint8)
_DIGIT[list(_WHITESPACE)] = _SPACE
_DIGIT[ord("0") : ord("9") + 1] = range(10)


@dataclass(eq=False)
class GrayImage:
    """Rectangular grid of 8-bit gray levels.

    ``pixels`` is a 2-D uint8 array of shape (height, width). Instances are
    treated as immutable values throughout the pipeline.
    """

    pixels: np.ndarray

    def __post_init__(self):
        pixels = np.asarray(self.pixels)
        if pixels.ndim != 2 or pixels.size == 0:
            raise ValueError("pixels must be a non-empty 2-D array")
        # The cast below would wrap values outside 0..255 and drop fractions.
        if pixels.dtype != np.uint8:
            if pixels.dtype.kind not in "iu" or pixels.min() < 0 or pixels.max() > 255:
                raise ValueError("pixels must be integers in 0..255")
        self.pixels = pixels.astype(np.uint8, copy=False)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )


def _header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Return the next header token and the offset just past it."""
    match = _TOKEN.match(data, pos)
    if not match[1]:
        raise MalformedHeader("unexpected end of file in header")
    return match[1], match.end()


def _parse_dim(token: bytes, name: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise MalformedHeader(f"non-numeric {name}: {token!r}") from None
    if value < 1:
        raise MalformedHeader(f"{name} must be >= 1, got {value}")
    return value


def _p2_samples(data: bytes, pos: int, count: int, maxval: int) -> np.ndarray:
    """The first ``count`` ASCII samples after ``pos``; the first fault wins.

    Tokens of one to three ASCII digits are read as arrays. Any other token
    (a sign, '_', four or more bytes, any other byte) goes through int() on
    its own, which decides its value or its fault.
    """
    raster = memoryview(data)[pos:]
    if data.find(b"#", pos) >= 0:
        raster = _COMMENT.sub(b" ", raster)
    # Four spaces in front give every token three readable bytes before its
    # last one; one space behind ends a token at the end of the data.
    text = b"".join((b"    ", raster, b" "))
    digit = np.take(_DIGIT, np.frombuffer(text, dtype=np.uint8))
    space = digit == _SPACE
    # An entry j of ends is a token whose last byte is j + 3, so the shifted
    # view digit[k:][ends] reads byte j + k: the ones digit for k = 3, back
    # to the byte before a three-digit token for k = 0.
    ends = np.flatnonzero(space[4:] > space[3:-1])[:count]
    found = len(ends)
    ones, tens, hundreds, before = (digit[k:][ends] for k in (3, 2, 1, 0))
    # A token runs left from its last byte to the first space; it is simple
    # if it holds one to three digits. Digits beyond that space are zeroed.
    simple = (ones < 10) & (
        (tens == _SPACE)
        | (tens < 10) & ((hundreds == _SPACE) | (hundreds < 10) & (before == _SPACE))
    )
    hundreds[(tens == _SPACE) | (hundreds == _SPACE)] = 0
    tens[tens == _SPACE] = 0
    values = ones + tens.astype(np.uint16) * 10 + hundreds.astype(np.uint16) * 100
    over = simple & (values > maxval)
    first_over = int(over.argmax()) if over.any() else found
    for i in np.flatnonzero(~simple[:first_over]):
        # The token starts at the first byte after the previous one that is
        # not a space.
        previous_end = ends[i - 1] + 4 if i else 0
        end = ends[i] + 4
        token = text[previous_end + space[previous_end:end].argmin() : end]
        try:
            value = int(token)
        except ValueError:
            raise InvalidPixelValue(f"non-numeric sample {token!r}") from None
        if not 0 <= value <= maxval:
            raise InvalidPixelValue(f"sample {value} outside [0, {maxval}]")
        values[i] = value
    if first_over < found:
        raise InvalidPixelValue(f"sample {values[first_over]} outside [0, {maxval}]")
    if found < count:
        raise TruncatedData(f"expected {count} samples, found {found}")
    return values.astype(np.uint8)


def read_pgm(path) -> GrayImage:
    """Read a P2 (ASCII) or P5 (binary) PGM file with maxval <= 255."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return decode_pgm(data)


def decode_pgm(data: bytes) -> GrayImage:
    """Decode the bytes of a P2 or P5 PGM file; the first fault in file
    order wins, so a sample above maxval comes before too few samples."""
    magic, pos = _header_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise MalformedHeader(f"unsupported magic {magic!r}; want P2 or P5")
    width_tok, pos = _header_token(data, pos)
    height_tok, pos = _header_token(data, pos)
    maxval_tok, pos = _header_token(data, pos)
    width = _parse_dim(width_tok, "width")
    height = _parse_dim(height_tok, "height")
    maxval = _parse_dim(maxval_tok, "maxval")
    if maxval > 255:
        raise UnsupportedMaxval(f"maxval {maxval} > 255")

    count = width * height
    if magic == b"P5":
        # Exactly one whitespace byte separates the maxval from the raster.
        if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
            raise MalformedHeader("missing whitespace after maxval")
        flat = np.frombuffer(data[pos + 1 : pos + 1 + count], dtype=np.uint8)
        if maxval < 255:
            over = flat > maxval
            if over.any():
                value = flat[over.argmax()]
                raise InvalidPixelValue(f"sample {value} outside [0, {maxval}]")
        if len(flat) < count:
            raise TruncatedData(f"expected {count} bytes, found {len(flat)}")
    else:
        flat = _p2_samples(data, pos, count, maxval)
    return GrayImage(flat.reshape(height, width))


def write_pgm(img: GrayImage, path, mode: str = "binary") -> None:
    """Write ``img`` as PGM; ``mode`` is "ascii" (P2) or "binary" (P5).

    Written files carry maxval 255 and round-trip bit-exactly through
    :func:`read_pgm`.
    """
    if mode not in ("ascii", "binary"):
        raise ValueError(f"mode must be 'ascii' or 'binary', got {mode!r}")
    header = f"{'P2' if mode == 'ascii' else 'P5'}\n{img.width} {img.height}\n255\n"
    if mode == "binary":
        payload = header.encode("ascii") + img.pixels.tobytes()
    else:
        flat = img.pixels.ravel()
        # PNM convention: keep text lines short.
        lines = [
            " ".join(str(v) for v in flat[i : i + 17]) for i in range(0, len(flat), 17)
        ]
        payload = (header + "\n".join(lines) + "\n").encode("ascii")
    write_bytes(path, payload)


def write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path``; an ``OSError`` becomes :class:`IoFailure`."""
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def negate(img: GrayImage) -> GrayImage:
    """Gray-level complement: every output pixel is 255 minus the input."""
    return GrayImage(255 - img.pixels)


def haar_downsample(img: GrayImage, levels: int) -> GrayImage:
    """Reduce the image by averaging disjoint 2x2 blocks, ``levels`` times.

    Each level replaces a 2x2 block {a, b, c, d} with round((a+b+c+d)/4),
    half rounded up; this is the low-pass pyramid apex, so a 1024x1024 input
    at levels=3 comes out 128x128. levels=0 returns the image unchanged.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    factor = 1 << levels
    if img.width % factor or img.height % factor:
        raise NotDivisible(
            f"{img.width}x{img.height} not divisible by 2^{levels}"
        )
    a = img.pixels.astype(np.uint32)
    for _ in range(levels):
        s = a[0::2, 0::2] + a[0::2, 1::2] + a[1::2, 0::2] + a[1::2, 1::2]
        a = (s + 2) >> 2
    return GrayImage(a.astype(np.uint8))
