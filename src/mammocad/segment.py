"""Split-and-merge segmentation of the thresholded foreground.

The quadtree split recursively quarters blocks whose foreground pixel values
spread more than ``tau_split``; the merge pass then fuses 4-adjacent regions
whose mean gray values differ by at most ``tau_merge`` until nothing changes.
One scan by ascending region id reaches that fixpoint: a region's mean
changes only during its own visit, two regions become adjacent only during a
visit by one of them, and each visit ends with no neighbour within
``tau_merge`` (see :func:`merge`). The scan skips every seed with no
higher-id neighbour within ``tau_merge`` at the seed means: such a visit
would absorb nothing.
Background pixels never join a region. Regions are 8-connected internally;
adjacency between regions (for merging and boundaries) is 4-connected, which
avoids checkerboard fusion.

Both passes work on arrays inside the mask's window, the foreground's
bounding box. The split decides all blocks of one quadtree depth at once from
per-interval foreground extremes; the merge seeds regions by union-find over
the foreground's row runs, then scans a region adjacency graph. Both give
exactly the leaves, labels and ids of the plain recursive split, flood fill
and pixel-rescanning merge they replace; only the label map is image-sized.
Gathers go through ``ndarray.take``: ``a[index]`` costs about twice as much
with an int32 index, which it first converts, and more per call on small
arrays.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral
from typing import Iterable, NamedTuple

import numpy as np

from .errors import TooManyRegions
from .image import GrayImage, p5_bytes, write_bytes
from .threshold import BinaryMask, bounding_window

Block = tuple[int, int, int, int]  # (x, y, width, height)

PGM_MAX_REGIONS = 65535  # largest maxval a PGM header allows


@dataclass
class RegionMap:
    """Labeled partition: 0 is background, 1..region_count are regions, all in ``window``.

    ``sizes[i]``, read-only, is the pixel count of label i, background 0 included.
    """

    labels: np.ndarray
    region_count: int
    window: tuple[slice, slice] = field(init=False, repr=False, compare=False)
    sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _integer_type(type(self.region_count)):  # a bool would be a PGM maxval of True
            raise ValueError("region_count must be an integer")
        labels = np.asarray(self.labels)
        # The cast below would drop fractions.
        if labels.dtype.kind not in "iu":
            raise ValueError("labels must be integers")
        if labels.ndim != 2:
            raise ValueError("labels must be 2-D")
        # Dense ids in O(window): no label below 0 or above region_count, checked
        # before the int32 cast wraps wider ones; then a pixel for every id.
        self.window = bounding_window(labels)  # the nonzero labels' box, found once
        box = labels[self.window].ravel()
        dense = 0 <= self.region_count <= box.size and (
            not box.size or (box.min() >= 0 and box.max() <= self.region_count)
        )
        self.labels = labels.astype(np.int32, copy=False)
        if dense:
            box = box.astype(np.int32, copy=False)  # numpy refuses a uint64 bincount
            self.sizes = np.bincount(box, minlength=self.region_count + 1)  # the one count
            dense = self.sizes[1:].all()
        if not dense:
            raise ValueError("region ids must be dense 1..region_count")
        self.sizes[0] += labels.size - box.size  # the background outside the window
        self.sizes.setflags(write=False)

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]


def wanted_rows(img: GrayImage, region_map: RegionMap, ids: Iterable[int]) -> np.ndarray:
    """Check ``ids`` against the map; a bool per id 0..region_count, True at ``ids``.

    The image must have the map's shape and every id must be an integer
    in 1..region_count; either fault raises ``ValueError``. A 1-D integer
    ndarray is taken as it is; any other iterable is checked id by id.
    """
    if region_map.labels.shape != img.pixels.shape:
        raise ValueError("image and region map dimensions differ")
    rows = region_map.region_count + 1
    if isinstance(ids, np.ndarray) and ids.ndim == 1 and ids.dtype.kind in "iu":
        ends = (ids.min(), ids.max()) if ids.size else ()  # the dtype is the type check
    else:
        ids = list(ids)
        if not all(map(_integer_type, set(map(type, ids)))):  # one test per distinct type
            raise ValueError("region ids must be integers")
        ends = (min(ids), max(ids)) if ids else ()
    for end in ends:  # in the ids' own types, before the cast wraps or overflows one
        check_id(end, rows)
    wanted = np.zeros(rows, dtype=bool)
    wanted[np.asarray(ids, dtype=np.int64)] = True
    return wanted


def _integer_type(kind: type) -> bool:
    """Python and numpy integer types; not bool, whose values are truths, not ids."""
    return kind is int or issubclass(kind, Integral) and kind is not bool


def check_id(region_id: int, rows: int) -> None:
    """``ValueError`` unless ``region_id`` is an integer in 1..rows - 1.

    ``rows`` is the row count of a per-region table, whose row 0 is the
    background, so a negative id never reads a row from the end, and a
    float, str or bool never reads the row of the integer it casts to.
    """
    if not _integer_type(type(region_id)):
        raise ValueError("region ids must be integers")
    if not 1 <= region_id < rows:
        raise ValueError(f"region ids must lie in 1..{rows - 1}")


class _Level(NamedTuple):
    """The intervals one axis is cut into at one quadtree depth."""

    starts: np.ndarray
    lengths: np.ndarray
    parent: np.ndarray | None  # interval one depth up; None at depth 0
    first_child: np.ndarray | None  # halves one depth down; None at the last depth
    last_child: np.ndarray | None
    children: np.ndarray | None  # 1 or 2


@lru_cache(maxsize=8)
def _halvings(n: int, depth: int) -> tuple[_Level, ...]:
    """The ceil/floor halvings of the interval [0, n) at depths 0..depth.

    An interval of length 1 halves into itself alone, so its first and last
    child coincide. Rows and columns of one length share an entry. Cached,
    so its arrays are read-only: no caller can alter a later image's tree.
    """
    starts = np.zeros(1, dtype=np.int32)
    lengths = np.array([n], dtype=np.int32)
    parent = None
    levels = []
    for _ in range(depth):
        halves = lengths // 2
        counts = 1 + (halves > 0)
        last = np.cumsum(counts) - 1
        levels.append(_Level(starts, lengths, parent, last - counts + 1, last, counts))
        parent = np.repeat(np.arange(len(lengths)), counts)
        second = np.zeros(len(parent), dtype=bool)
        second[last[counts == 2]] = True
        first_lengths = (lengths - halves)[parent]
        starts = starts[parent] + np.where(second, first_lengths, 0)
        lengths = np.where(second, halves[parent], first_lengths)
    levels.append(_Level(starts, lengths, parent, None, None, None))
    for array in (array for level in levels for array in level if array is not None):
        array.setflags(write=False)
    return tuple(levels)


def split(img: GrayImage, mask: BinaryMask, tau_split: int = 10) -> np.ndarray:
    """Quadtree-split the image into blocks homogeneous on the foreground.

    A block splits into (ceil/floor) quadrants while the max-min spread of
    its foreground pixel values exceeds ``tau_split``, so a block with no
    foreground, or of one pixel, never splits. The leaves come back as an
    ``(n, 4)`` int array of ``(x, y, w, h)`` rows that tile the image, in no
    promised order: :func:`merge` takes them in any.

    The quadtree is decided level by level: all blocks of one depth share
    the same row and column intervals, so the foreground extremes of every
    block of a depth come at once from the extremes of its (at most four)
    children one depth down. Only blocks meeting the mask's window can
    split, so both run on the intervals that meet it. Leaves come depth by
    depth, in raster order within a depth. The root's extremes come first,
    so an image whose root block is a leaf returns before the pyramid is
    built.
    """
    if (img.height, img.width) != (mask.height, mask.width):
        raise ValueError("image and mask dimensions differ")
    if not tau_split >= 0:  # NaN fails too
        raise ValueError("tau_split must be >= 0")
    height, width = img.height, img.width
    tau = min(tau_split, 255)  # spreads are at most 255; a huge int would not fit int16
    # Foreground max and min of every block meeting the window at every depth,
    # built up from its pixels; background reads -1 for the max and 256 for the min.
    window = mask.window
    # In arithmetic, not np.where, which branches per pixel: ~8x slower on a ragged mask.
    fg, pixels = mask.bits[window].astype(np.int16), img.pixels[window].astype(np.int16)
    highs = [(pixels + 1) * fg - 1]
    lows = [256 - (256 - pixels) * fg]
    spread = highs[0].max(initial=-1) - lows[0].min(initial=256)  # -257 with no foreground
    if spread <= tau:
        return np.array([[0, 0, width, height]], dtype=np.int32)  # the root is a leaf

    depth = (max(height, width) - 1).bit_length()
    rows, cols = _halvings(height, depth), _halvings(width, depth)
    # Per depth, the intervals meeting the window: its pixels, then their parents.
    spans = [(window[0].start, window[0].stop, window[1].start, window[1].stop)]
    for d in range(depth - 1, -1, -1):
        a1, b1, c1, e1 = spans[-1]
        (r, q), (up_r, up_c) = (rows[d], cols[d]), (rows[d + 1].parent, cols[d + 1].parent)
        spans.append((up_r[a1], up_r[b1 - 1] + 1, up_c[c1], up_c[e1 - 1] + 1))
        a, b, c, e = spans[-1]
        # A child outside the window holds no foreground, so its block reads the other one.
        fr, lr = np.maximum(r.first_child[a:b], a1) - a1, np.minimum(r.last_child[a:b], b1 - 1) - a1
        fc, lc = np.maximum(q.first_child[c:e], c1) - c1, np.minimum(q.last_child[c:e], e1 - 1) - c1
        for extremes, pick in ((highs, np.maximum), (lows, np.minimum)):
            x = pick(extremes[-1].take(fr, 0), extremes[-1].take(lr, 0))
            extremes.append(pick(x.take(fc, 1), x.take(lc, 1)))

    found = []  # per depth: (x, y, w, h) arrays of its leaves
    alive = np.ones((1, 1), dtype=bool)  # the children of the last depth's splits
    top = left = 0  # the interval indices of alive's first row and column
    for r, q, (a, b, c, e), high, low in zip(rows, cols, spans[::-1], highs[::-1], lows[::-1]):
        inside = np.s_[a - top : b - top, c - left : e - left]
        splits = alive[inside] & (high - low > tau)
        alive[inside] &= ~splits  # now the leaves
        # Their interval indices less top and left: 2-D np.nonzero costs ~4x
        # a flatnonzero and a divmod.
        i, j = np.divmod(np.flatnonzero(alive), alive.shape[1])
        (ys, hs), (xs, ws) = (r.starts[top:], r.lengths[top:]), (q.starts[left:], q.lengths[left:])
        found.append((xs.take(j), ys.take(i), ws.take(j), hs.take(i)))
        if not splits.any():
            break
        top, left = r.first_child[a], q.first_child[c]
        alive = splits.repeat(r.children[a:b], 0).repeat(q.children[c:e], 1)

    # Rows x, y, w and h, each contiguous, seen as (n, 4).
    return np.stack([np.concatenate(side) for side in zip(*found)]).T


def _block_keys(blocks: np.ndarray, width: int, height: int, window) -> np.ndarray:
    """Check that ``blocks`` partition the image; map each pixel of ``window`` to its block.

    Each pixel reads its block's key ``y * (width + 1) + x``, from the
    block's top-left corner, so keys order the blocks in raster order of
    those corners. Corners weighted +v at the top-left and bottom-right and
    -v at the other two make a 2-D difference array; blocks inside the
    image partition it when, at v = 1, it is the image's own, as a sort of
    each sign's corners checks. The keys are painted on the window from the
    blocks clipped to it, by ``np.add.at`` and a cumsum per axis. Once the
    blocks are inside the image, the keys, the corner codes and the paint
    are of the narrowest unsigned type that holds ``(height + 1) * (width +
    1)``: the paint's sums wrap, but a pixel still reads its key, which that
    type holds.
    """
    if blocks.size and blocks.dtype.kind not in "iu":  # the cast below would drop fractions
        raise ValueError("blocks must be integers")
    sides = blocks.T.astype(np.int64, order="C")  # contiguous rows, whatever the layout
    x, y, right, bottom = sides
    right += x
    bottom += y
    bad = (x < 0) | (y < 0) | (right > width) | (bottom > height) | (right <= x) | (bottom <= y)
    if bad.any():
        raise ValueError(f"block {tuple(blocks[int(np.argmax(bad))].tolist())} outside image")
    stride = width + 1  # a corner's x is at most width, so distinct corners get distinct keys
    key = np.min_scalar_type((height + 1) * stride)  # the narrowest type sorts fastest
    x, y, right, bottom = sides = sides.astype(key)
    top, low = y * stride, bottom * stride
    keys = top + x
    ends = np.array([(width, height * stride), (0, height * stride + width)], dtype=key)
    plus = np.concatenate((keys, low + right, ends[0]))
    minus = np.concatenate((top + right, low + x, ends[1]))
    plus.sort()
    minus.sort()
    if not np.array_equal(plus, minus):
        raise ValueError("blocks do not partition the image")
    (y0, y1, _), (x0, x1, _) = window[0].indices(height), window[1].indices(width)
    # np.minimum and np.maximum clip as np.clip does, without its Python-level
    # wrapper. The paint's flat indices are intp: an unsigned type would
    # promote an int64 sum to float.
    start, stop = np.array([(x0, y0, x0, y0), (x1, y1, x1, y1)])[:, :, None]
    x, y, right, bottom = np.minimum(np.maximum(sides.astype(np.intp), start), stop) - start
    stride = x1 - x0 + 1
    corners = np.empty((4, len(keys)), dtype=np.intp)
    for out, row, column in zip(corners, (y, bottom, y, bottom), (x, right, right, x)):
        np.multiply(row, stride, out=out)
        out += column
    diff = np.zeros((y1 - y0 + 1, stride), dtype=key)
    np.add.at(diff.ravel(), corners.ravel(), np.concatenate((keys, keys, -keys, -keys)))
    return diff.cumsum(0, dtype=key).cumsum(1, dtype=key)[: y1 - y0, : x1 - x0]


def _seed_labels(bits: np.ndarray, block_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Label the 8-connected foreground components of every block.

    Two pixels connect when both are foreground and in the same block.
    Components are found by union-find over row runs, maximal stretches of
    foreground in one row and one block (He, Chao and Suzuki, IEEE TIP
    17(5), 2008). Runs in adjacent rows first touch where one of them
    starts; three masked passes (down and both diagonals) list each such
    edge, upper run first, and may list one pair more than once. Each round
    hooks the larger root of every edge to the smaller with
    ``np.minimum.at``, which is unbuffered, so a repeated edge hooks the
    same root again and the next round's ``crossing`` filter drops it; then
    pointer jumping makes every run point at its root. Runs are numbered in
    raster order, so a root run starts at its component's first pixel. Ids
    follow blocks in raster order of their top-left corner, then components
    in raster order of their first pixel: ``block_of`` holds each pixel's
    block key (:func:`_block_keys`), and the roots come in raster order of
    their first pixels, so a stable argsort of their block keys orders them.

    Returns the seed label map and the flat index of each seed's first
    pixel, in id order.
    """
    fg = np.flatnonzero(bits)
    labels = np.zeros(bits.shape, dtype=np.int32)
    if not fg.size:  # no runs
        return labels, fg
    # A run starts where the left neighbour is background or in another block.
    starts = bits.copy()
    starts[:, 1:] &= ~bits[:, :-1] | (block_of[:, :-1] != block_of[:, 1:])
    opens = starts.ravel().take(fg)
    run_of = np.cumsum(opens, dtype=np.int32) - 1  # each foreground pixel's run
    runs = int(run_of[-1]) + 1
    run_map = np.zeros(bits.shape, dtype=np.int32)
    np.put(run_map, fg, run_of)
    heads, tails = [], []  # the runs of each edge, the upper one first
    for a, b in (
        (np.s_[:-1, :], np.s_[1:, :]),
        (np.s_[:-1, :-1], np.s_[1:, 1:]),
        (np.s_[:-1, 1:], np.s_[1:, :-1]),
    ):
        joined = (starts[a] | starts[b]) & bits[a] & bits[b] & (block_of[a] == block_of[b])
        heads.append(run_map[a][joined])
        tails.append(run_map[b][joined])
    heads, tails = np.concatenate(heads), np.concatenate(tails)
    parent = np.arange(runs, dtype=np.int32)
    while heads.size:  # an edge joins runs in two rows, so it starts between two roots
        np.minimum.at(parent, np.maximum(heads, tails), np.minimum(heads, tails))
        parent = _roots(parent)
        heads, tails = parent.take(heads), parent.take(tails)
        crossing = heads != tails
        heads, tails = heads[crossing], tails[crossing]
    roots = np.flatnonzero(parent == np.arange(runs))
    first = fg[opens].take(roots)
    order = np.argsort(block_of.ravel().take(first), kind="stable")  # first is ascending
    ids = np.zeros(runs, dtype=np.int32)
    ids[roots.take(order)] = np.arange(1, len(roots) + 1, dtype=np.int32)
    np.put(labels, fg, ids.take(parent).take(run_of))
    return labels, first.take(order)


def _roots(parent: np.ndarray) -> np.ndarray:
    """Pointer jumping on a forest: each entry of ``parent`` replaced by its root."""
    while not np.array_equal(grand := parent.take(parent), parent):
        parent = grand
    return parent


def _adjacency(
    labels: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The region adjacency graph of ids 1..count: 4-adjacent label pairs.

    Returns (lo, hi, targets, offsets). Each touching pair is listed once
    as ``(lo[i], hi[i])``, lo < hi, ordered by lo, then by hi: one sort of
    the pairs' codes ``lo << k | hi``, ``k = count.bit_length()``, orders
    them, and a comparison of neighbours dedupes them. The codes are uint32
    while ``2 * k <= 32`` and uint64 above: the narrower type sorts faster.
    The neighbours of id r are ``targets[offsets[r]:offsets[r + 1]]``,
    ascending and each once: one sort of the codes with their mirrors
    ``hi << k | lo`` orders both directions by source, then by target, and
    the mask ``(1 << k) - 1`` takes the target from each code.
    """
    width = labels.shape[1]
    flat = labels.ravel()
    pixels, neighbours = [], []
    for step, row in ((1, width), (width, 0)):  # each pixel's right neighbour, then its lower one
        a, b = flat[: flat.size - step], flat[step:]
        touching = (a != b) & (a > 0) & (b > 0)
        if row:  # a row's last pixel is not next to the next row's first
            touching[row - 1 :: row] = False
        # A random mask gathers ~4x faster through its indices than by itself.
        at = np.flatnonzero(touching)
        pixels.append(a.take(at))
        neighbours.append(b.take(at))
    a, b = np.concatenate(pixels), np.concatenate(neighbours)
    shift = count.bit_length()
    kind = np.uint32 if 2 * shift <= 32 else np.uint64
    codes = np.minimum(a, b).astype(kind) << shift | np.maximum(a, b).astype(kind)
    codes.sort()
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    codes = codes[first]
    mask = (1 << shift) - 1
    lo, hi = (codes >> shift).astype(np.int32), (codes & mask).astype(np.int32)
    both = np.concatenate((codes, (codes & mask) << shift | codes >> shift))
    both.sort()
    offsets = np.zeros(count + 2, dtype=np.int64)
    degrees = np.bincount(lo, minlength=count + 1) + np.bincount(hi, minlength=count + 1)
    np.cumsum(degrees, out=offsets[1:])
    return lo, hi, both & mask, offsets


def _merge_visits(means: np.ndarray, lo: np.ndarray, hi: np.ndarray, tau: float) -> list[int]:
    """The seeds with a higher-id neighbour within ``tau`` at the seed means.

    ``means`` holds each seed's mean by id, (lo, hi) are the pairs of
    :func:`_adjacency` and ``tau`` is :func:`merge`'s tolerance: a pair
    within ``tau`` marks its lower id. Only these seeds can absorb anything
    in :func:`merge`'s scan; the ids come back ascending, as Python ints.
    """
    near = np.flatnonzero(np.abs(means.take(lo) - means.take(hi)) <= tau)
    visit = np.zeros(len(means), dtype=bool)
    visit[lo.take(near)] = True
    return np.flatnonzero(visit).tolist()


def merge(
    img: GrayImage, mask: BinaryMask, blocks: np.ndarray | list[Block], tau_merge: int = 10
) -> RegionMap:
    """Fuse 4-adjacent block regions with similar means until stable.

    Starting regions are the 8-connected foreground components of each leaf
    block; ``blocks`` is :func:`split`'s ``(n, 4)`` array or any list of
    ``(x, y, w, h)`` tuples that partitions the image, in any order: seeds
    are numbered by their blocks' top-left corners. Regions are scanned
    by ascending id; a scanned region absorbs any 4-adjacent region whose
    mean gray value is within ``tau_merge`` of its own, so at return no
    adjacent pair is within ``tau_merge``. Ids are then relabeled densely in
    raster order of each region's first pixel.

    The seeds come from union-find over the row runs in the mask's window
    (:func:`_seed_labels`); the scan runs on a region adjacency graph built
    once from them (:func:`_adjacency`), with exact gray sums (floats that
    hold integers) and pixel counts per region. The graph is one sort of each touching seed pair's
    code ``lo << k | hi``, uint32 up to 65535 seeds, and one sort of those
    codes with their mirrors for the neighbour lists. A scanned region
    absorbs its smallest-id neighbour within ``tau_merge``, takes over that
    neighbour's neighbours, recomputes its mean as sum / count and looks
    again. Neighbour lists are not rewritten on an absorb: ids are read
    through ``absorbed_by`` to the region that holds them now.
    The scan reads each neighbour list as a set: ``seen_in`` lists an id
    once, the close search takes the smallest id and ``own.remove`` meets
    each id once, so no label depends on the order of a list.

    The scan is a single pass, since that pass reaches the fixpoint. A
    region's mean changes only during its own visit, and two regions become
    adjacent only during a visit by one of them. Each visit ends with no
    neighbour within ``tau_merge``. So for two regions adjacent after the
    pass, the later of their two visits ended with them adjacent, both
    means final and the means more than ``tau_merge`` apart, and a second
    pass would merge nothing.

    The same argument lets the scan skip seeds (:func:`_merge_visits`, read
    off the graph's pairs: a pair within ``tau_merge`` marks its lower id).
    When an unabsorbed seed's visit comes, its mean is still the seed's.
    Each lower-id region next to it either ended its own visit with this
    seed listed and more than ``tau_merge`` away, and has not changed since,
    or is a skipped seed, which by the test below is more than ``tau_merge``
    from every higher-id neighbour. Each higher-id neighbour is still a
    seed. So a seed with no higher-id neighbour within ``tau_merge`` at the
    seed means would absorb nothing, and it is not visited. It keeps the
    graph's neighbour ids, read through ``absorbed_by`` like those of any
    region that has absorbed nothing.
    Within a visit, one loop over the neighbour list finds the smallest-id
    neighbour within ``tau_merge``.
    """
    if (img.height, img.width) != (mask.height, mask.width):
        raise ValueError("image and mask dimensions differ")
    if not tau_merge >= 0:  # NaN fails too
        raise ValueError("tau_merge must be >= 0")
    tau = float(min(tau_merge, 255))  # means differ by <= 255; a float negates without wrapping
    block_of = _block_keys(np.asarray(blocks).reshape(-1, 4), img.width, img.height, mask.window)
    seeds, first_pixel = _seed_labels(mask.bits[mask.window], block_of)
    count = len(first_pixel)
    flat = seeds.ravel()
    sums = np.bincount(flat, weights=img.pixels[mask.window].ravel(), minlength=count + 1)
    sizes = np.bincount(flat, minlength=count + 1)
    # The float sums are exact integers, so one correctly rounded array
    # division gives the bits of Python's int / int, and so does the scan's
    # float / int; a row of no pixels is 0.0.
    mean_of = sums / np.maximum(sizes, 1)
    means = mean_of.tolist()
    sums = sums.tolist()
    sizes = sizes.tolist()
    lo, hi, targets, offsets = _adjacency(seeds, count)
    visits = _merge_visits(mean_of, lo, hi, tau)
    # Memoryviews read the graph as Python ints without a copy of it.
    targets, offsets = memoryview(targets), memoryview(offsets)
    # A region's neighbour ids, stored when its visit ends; before that it
    # has absorbed nothing and its ids are the graph's. Either may name
    # regions absorbed since, so ids are read through ``absorbed_by``.
    neighbours: list[list[int] | None] = [None] * (count + 1)
    absorbed_by = [0] * (count + 1)  # 0 while the region is its own
    seen_in = [0] * (count + 1)  # the visit that last listed the region
    none_close = count + 1  # above every id

    for rid in visits:
        if absorbed_by[rid]:
            continue
        own = []  # rid's current neighbours, each once
        seen_in[rid] = rid
        total, size, mean = sums[rid], sizes[rid], means[rid]
        target = rid
        while True:
            links = neighbours[target]
            if links is None:
                links = targets[offsets[target] : offsets[target + 1]]
            neighbours[target] = None  # read once: rid holds them from now on
            for other in links:
                while absorbed_by[other]:
                    other = absorbed_by[other]
                if seen_in[other] != rid:
                    seen_in[other] = rid
                    own.append(other)
            target = none_close
            for other in own:
                if other < target and -tau <= mean - means[other] <= tau:
                    target = other
            if target == none_close:
                break
            own.remove(target)
            absorbed_by[target] = rid
            total += sums[target]
            size += sizes[target]
            mean = total / size
        sums[rid], sizes[rid], means[rid] = total, size, mean
        neighbours[rid] = own

    # Each seed's final region, then each region's first pixel: the first
    # of its seeds' first pixels. Flat indices in the window keep the
    # image's raster order; no two are equal, so the faster stable sort
    # gives the one order there is.
    owner = np.fromiter(absorbed_by, np.intp, count + 1)
    del neighbours, absorbed_by, seen_in, sums, sizes, means  # gone before the relabelling
    alive = np.flatnonzero(owner == 0)[1:]
    owner[alive] = alive
    owner = _roots(owner)
    first = np.full(count + 1, flat.size, dtype=np.int64)
    np.minimum.at(first, owner[1:], first_pixel)
    final_id = np.zeros(count + 1, dtype=np.int32)
    order = np.argsort(first.take(alive), kind="stable")
    final_id[alive.take(order)] = np.arange(1, len(alive) + 1, dtype=np.int32)
    labels = np.zeros(mask.bits.shape, dtype=np.int32)
    labels[mask.window] = final_id.take(owner).take(seeds)
    return RegionMap(labels, len(alive))


def segment_image(
    img: GrayImage, mask: BinaryMask, tau_split: int = 10, tau_merge: int = 10
) -> RegionMap:
    """Run split then merge with one call."""
    return merge(img, mask, split(img, mask, tau_split), tau_merge)


def boundary_mask(labels: np.ndarray) -> np.ndarray:
    """Labelled pixels on the image border or with a 4-neighbour of another label.

    These are the boundary pixels of every region at once.
    """
    padded = np.full((labels.shape[0] + 2, labels.shape[1] + 2), -1, dtype=labels.dtype)
    padded[1:-1, 1:-1] = labels
    return (labels != 0) & (
        (padded[:-2, 1:-1] != labels)
        | (padded[2:, 1:-1] != labels)
        | (padded[1:-1, :-2] != labels)
        | (padded[1:-1, 2:] != labels)
    )


def extract_regions(region_map: RegionMap, min_pixels: int = 1) -> np.ndarray:
    """Ascending int64 ids of the regions with at least ``min_pixels`` pixels, from ``sizes``."""
    return np.flatnonzero(region_map.sizes[1:] >= min_pixels) + 1


def write_region_map_pgm(region_map: RegionMap, path) -> None:
    """Dump a label map as P5 with maxval = region_count for inspection.

    Uses two-byte big-endian samples when more than 255 regions exist.
    """
    maxval = max(region_map.region_count, 1)
    if maxval > PGM_MAX_REGIONS:
        raise TooManyRegions(
            f"{region_map.region_count} regions exceed the {PGM_MAX_REGIONS} a PGM label map holds"
        )
    write_bytes(path, p5_bytes(region_map.labels, maxval))


def overlay_boundaries(img: GrayImage, region_map: RegionMap) -> GrayImage:
    """Paint the label map's :func:`boundary_mask` at 255 over a copy of the image."""
    if (img.height, img.width) != region_map.labels.shape:
        raise ValueError("image and region map dimensions differ")
    out = img.pixels.copy()
    window = region_map.window  # a neighbour outside it, 0 or off the image, is no label
    out[window][boundary_mask(region_map.labels[window])] = 255
    return GrayImage(out)
