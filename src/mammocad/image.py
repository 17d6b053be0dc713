"""8-bit grayscale images: PGM I/O, negation, Haar-pyramid downsampling.

Pixel coordinates are (x, y) with x the column and y the row; arrays are
stored row-major, so ``pixels[y, x]``.
"""

import operator
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
# A raster byte's class: its digit value, _SPACE for whitespace, _OTHER otherwise.
_SPACE, _OTHER = 10, 11
_CLASS = bytes(
    byte - ord("0") if byte in b"0123456789" else _SPACE if byte in _WHITESPACE else _OTHER
    for byte in range(256)
)
# The raster is decoded this many bytes at a time, so no array grows with the file.
_CHUNK = 1 << 16
_NOT_SIMPLE = 0xFFFF  # above any maxval, so it is found with the samples out of range


def _value_table() -> np.ndarray:
    """The value of a token from the classes of its last four bytes.

    Row ``12 * before + hundreds``, column ``12 * tens + ones``, where
    ``before`` is the byte in front of a three-byte token. A token of one to
    three digits reads as its value; any other token as ``_NOT_SIMPLE``.
    """
    digit = np.arange(10, dtype=np.uint16)
    table = np.full((12, 12, 12, 12), _NOT_SIMPLE, dtype=np.uint16)
    table[:, :, _SPACE, :10] = digit
    table[:, _SPACE, :10, :10] = digit[:, None] * 10 + digit
    table[_SPACE, :10, :10, :10] = digit[:, None, None] * 100 + digit[:, None] * 10 + digit
    table = table.reshape(144, 144)
    table.flags.writeable = False
    return table


_VALUE = _value_table()


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

    The raster is read ``_CHUNK`` bytes at a time. Tokens of one to three
    ASCII digits are read from ``_VALUE``. Any other token (a sign, '_',
    four or more bytes, any other byte) goes through int() on its own, which
    decides its value or its fault.
    """
    raster = memoryview(data)[pos:]
    if data.find(b"#", pos) >= 0:
        raster = _COMMENT.sub(b" ", raster)
    size = len(raster)
    # Tokens and their separators take at least two bytes each, bar the last.
    out = np.empty(min(count, (size + 1) // 2), dtype=np.uint8)
    found = 0
    for start in range(0, size, _CHUNK):
        stop = min(start + _CHUNK, size)
        # The chunk with the four bytes before it and the one after it;
        # spaces stand in beyond the raster's ends.
        text = b"".join(
            (b"    "[start:], raster[max(start - 4, 0) : stop + 1], b" " * (stop == size))
        )
        digit = np.frombuffer(text.translate(_CLASS), dtype=np.uint8)
        space = digit == _SPACE
        # Entry j of ends is a token whose last byte is raster[start + j],
        # that is text[j + 4]. Its _VALUE row and column are pair[j + 1] and
        # pair[j + 3], and cell[j] is their flat index.
        ends = np.flatnonzero(space[5:] > space[4:-1])[: count - found]
        pair = digit[:-1] * 12 + digit[1:]
        cell = pair[1:-2].astype(np.uint16)
        cell *= 144
        cell += pair[3:]
        values = np.take(_VALUE.ravel(), np.take(cell, ends))
        for i in np.flatnonzero(values > maxval):
            if values[i] != _NOT_SIMPLE:
                raise InvalidPixelValue(f"sample {values[i]} outside [0, {maxval}]")
            end = first = start + int(ends[i]) + 1
            while first and raster[first - 1] not in _WHITESPACE:
                first -= 1
            token = bytes(raster[first:end])
            try:
                value = int(token)
            except ValueError:
                raise InvalidPixelValue(f"non-numeric sample {token!r}") from None
            if not 0 <= value <= maxval:
                raise InvalidPixelValue(f"sample {value} outside [0, {maxval}]")
            values[i] = value
        out[found : found + len(values)] = values
        found += len(values)
        if found == count:
            return out
    raise TruncatedData(f"expected {count} samples, found {found}")


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
        flat = np.frombuffer(
            data, dtype=np.uint8, count=min(count, len(data) - pos - 1), offset=pos + 1
        )
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


def write_pgm(img: GrayImage, path) -> None:
    """Write ``img`` as a binary (P5) PGM with maxval 255.

    The file round-trips bit-exactly through :func:`read_pgm`. P2 is an
    input format only.
    """
    write_bytes(path, p5_bytes(img.pixels, 255))


def p5_bytes(samples: np.ndarray, maxval: int) -> bytes:
    """The 2-D ``samples`` as a P5 file with ``maxval``.

    Samples are one byte each up to maxval 255 and two big-endian bytes
    above it; the caller keeps them within [0, maxval].
    """
    height, width = samples.shape
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    return header + samples.astype(np.uint8 if maxval < 256 else ">u2", copy=False).tobytes()


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
    levels = operator.index(levels)  # an integer; a numpy one becomes a Python int
    if levels < 0:
        raise ValueError("levels must be >= 0")
    # 1 + each side's trailing zero bits, so a huge ``levels`` builds no 2**levels.
    if any(levels >= (side & -side).bit_length() for side in img.pixels.shape):
        raise NotDivisible(f"{img.width}x{img.height} not divisible by 2^{levels}")
    a = img.pixels
    for _ in range(levels):
        rows = np.add(a[0::2], a[1::2], dtype=np.uint16)  # four samples + 2 <= 1022
        a = rows[:, 0::2] + rows[:, 1::2]
        a += 2
        a >>= 2
    return GrayImage(a.astype(np.uint8))
