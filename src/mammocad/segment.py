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

Everything works on whole arrays and one label map. The split decides all
blocks of one quadtree depth at once from per-interval foreground extremes;
the merge seeds regions by union-find connected-component labelling and then
runs its scan on a region adjacency graph. Both give exactly the leaves,
labels and ids of the plain recursive split, flood fill and pixel-rescanning
merge they replace.
"""

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import TooManyRegions
from .image import GrayImage, write_bytes
from .threshold import BinaryMask

Block = tuple[int, int, int, int]  # (x, y, width, height)

PGM_MAX_REGIONS = 65535  # largest maxval a PGM header allows


@dataclass
class RegionMap:
    """Labeled partition: 0 is background, 1..region_count are regions."""

    labels: np.ndarray
    region_count: int

    def __post_init__(self):
        labels = np.asarray(self.labels)
        # The cast below would drop fractions.
        if labels.dtype.kind not in "iu":
            raise ValueError("labels must be integers")
        if labels.ndim != 2:
            raise ValueError("labels must be 2-D")
        # Dense ids in O(n): no label below 0 or above region_count, checked on
        # the labels as given since the int32 cast wraps wider ones; then, on
        # the cast labels (numpy refuses a uint64 bincount), a pixel for every
        # id 1..region_count.
        dense = 0 <= self.region_count <= labels.size and (
            not labels.size or (labels.min() >= 0 and labels.max() <= self.region_count)
        )
        self.labels = labels.astype(np.int32, copy=False)
        if dense:
            dense = np.bincount(self.labels.ravel(), minlength=self.region_count + 1)[1:].all()
        if not dense:
            raise ValueError("region ids must be dense 1..region_count")

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]


def wanted_rows(img: GrayImage, region_map: RegionMap, ids: Iterable[int]) -> np.ndarray:
    """Check ``ids`` against the map; a bool per id 0..region_count, True at ``ids``.

    The image must have the map's shape and every id must lie in
    1..region_count; either fault raises ``ValueError``.
    """
    if region_map.labels.shape != img.pixels.shape:
        raise ValueError("image and region map dimensions differ")
    rows = region_map.region_count + 1
    ids = np.fromiter(ids, dtype=np.int64)
    if ids.size:
        check_id(ids.min(), rows)
        check_id(ids.max(), rows)
    wanted = np.zeros(rows, dtype=bool)
    wanted[ids] = True
    return wanted


def check_id(region_id: int, rows: int) -> None:
    """``ValueError`` unless ``region_id`` lies in 1..rows - 1.

    ``rows`` is the row count of a per-region table, whose row 0 is the
    background, so a negative id never reads a row from the end.
    """
    if not 1 <= region_id < rows:
        raise ValueError(f"region ids must lie in 1..{rows - 1}")


class _Level(NamedTuple):
    """The intervals one axis is cut into at one quadtree depth."""

    starts: np.ndarray
    lengths: np.ndarray
    keys: np.ndarray  # this axis's share of each block's path key
    parent: np.ndarray | None  # interval one depth up; None at depth 0
    first_child: np.ndarray | None  # halves one depth down; None at the last depth
    last_child: np.ndarray | None


def _halvings(n: int, depth: int, shift: int) -> list[_Level]:
    """The ceil/floor halvings of the interval [0, n) at depths 0..depth.

    An interval of length 1 halves into itself alone, so its first and last
    child coincide. The path key adds, for each halving taken,
    ``1 << (2 * (depth - d) + shift)`` when the interval is the second half,
    so adding a row key (shift 1) to a column key (shift 0) interleaves them
    into a key that orders blocks depth-first NW, NE, SW, SE.
    """
    starts = np.zeros(1, dtype=np.int32)
    lengths = np.array([n], dtype=np.int32)
    keys = np.zeros(1, dtype=np.int64)
    parent = None
    levels = []
    for d in range(1, depth + 1):
        halves = lengths // 2
        counts = 1 + (halves > 0)
        last = np.cumsum(counts) - 1
        levels.append(_Level(starts, lengths, keys, parent, last - counts + 1, last))
        parent = np.repeat(np.arange(len(lengths)), counts)
        second = np.zeros(len(parent), dtype=bool)
        second[last[counts == 2]] = True
        first_lengths = (lengths - halves)[parent]
        starts = starts[parent] + np.where(second, first_lengths, 0)
        lengths = np.where(second, halves[parent], first_lengths)
        keys = keys[parent] + (second.astype(np.int64) << (2 * (depth - d) + shift))
    levels.append(_Level(starts, lengths, keys, parent, None, None))
    return levels


def split(
    img: GrayImage, mask: BinaryMask, tau_split: int = 10, min_block: int = 1
) -> np.ndarray:
    """Quadtree-split the image into blocks homogeneous on the foreground.

    A block splits into (ceil/floor) quadrants while the max-min spread of
    its foreground pixel values exceeds ``tau_split`` and its longer side
    exceeds ``min_block``. Blocks with no foreground never split. The
    leaves come back as an ``(n, 4)`` int array of ``(x, y, w, h)`` rows that
    tile the image in depth-first NW, NE, SW, SE order.

    The quadtree is decided level by level: all blocks of one depth share
    the same row and column intervals, so the foreground extremes of every
    block of a depth come at once from the extremes of its (at most four)
    children one depth down. Leaves are ordered by their interleaved path
    key. The root's extremes come first, so an image whose root block is a
    leaf returns before the pyramid is built.
    """
    if (img.height, img.width) != (mask.height, mask.width):
        raise ValueError("image and mask dimensions differ")
    if tau_split < 0:
        raise ValueError("tau_split must be >= 0")
    if min_block < 1:
        raise ValueError("min_block must be >= 1")
    height, width = img.height, img.width
    tau = min(tau_split, 255)  # spreads are at most 255; a huge int would not fit int16
    # Foreground max and min of every block at every depth, built up from
    # single pixels; background reads -1 for the max and 256 for the min.
    highs = [np.where(mask.bits, img.pixels, np.int16(-1))]
    lows = [np.where(mask.bits, img.pixels, np.int16(256))]
    if max(height, width) <= min_block or highs[0].max() - lows[0].min() <= tau:
        return np.array([[0, 0, width, height]], dtype=np.int32)  # the root is a leaf

    depth = (max(height, width) - 1).bit_length()
    rows = _halvings(height, depth, 1)
    cols = _halvings(width, depth, 0)
    for r, c in zip(rows[-2::-1], cols[-2::-1]):
        for extremes, pick in ((highs, np.maximum), (lows, np.minimum)):
            e = extremes[-1]
            e = pick(e[r.first_child], e[r.last_child])
            extremes.append(pick(e[:, c.first_child], e[:, c.last_child]))
    highs.reverse()
    lows.reverse()

    found = []  # per depth: (path key, x, y, w, h) arrays of its leaves
    alive = np.ones((1, 1), dtype=bool)
    for d, (r, c) in enumerate(zip(rows, cols)):
        splits = (
            alive
            & (np.maximum.outer(r.lengths, c.lengths) > min_block)
            & (highs[d] - lows[d] > tau)
        )
        i, j = np.nonzero(alive & ~splits)
        found.append((r.keys[i] + c.keys[j], c.starts[j], r.starts[i], c.lengths[j], r.lengths[i]))
        if not splits.any():
            break
        alive = splits[np.ix_(rows[d + 1].parent, cols[d + 1].parent)]

    keys, *sides = (np.concatenate(part) for part in zip(*found))
    return np.stack(sides, 1)[np.argsort(keys)]


def _block_ranks(blocks: np.ndarray, width: int, height: int) -> np.ndarray:
    """Check that ``blocks`` partition the image; map each pixel to its block.

    Each pixel reads 1 + the rank of its block in raster order of the
    blocks' top-left corners. The ranks come from one 2-D difference array
    (+v at the top-left and bottom-right corners, -v at the other two, added
    by one ``np.add.at``) and a cumsum along each axis. int32 sums wrap, but
    an uncovered pixel still reads exactly 0 and a pixel of one block its
    rank. Blocks inside the image partition it exactly when their areas add
    up to the image's and no pixel reads 0.
    """
    x, y, w, h = blocks.T.astype(np.int64)
    right, bottom = x + w, y + h
    bad = (x < 0) | (y < 0) | (right > width) | (bottom > height) | (w < 1) | (h < 1)
    if bad.any():
        raise ValueError(f"block {tuple(blocks[int(np.argmax(bad))].tolist())} outside image")
    ranks = np.empty(len(blocks), dtype=np.int32)
    # One key orders the corners in raster order: x < width, so distinct
    # corners have distinct keys.
    ranks[np.argsort(y * width + x)] = np.arange(1, len(blocks) + 1, dtype=np.int32)
    stride = width + 1
    corners = np.concatenate(
        (y * stride + x, bottom * stride + right, y * stride + right, bottom * stride + x)
    )
    diff = np.zeros((height + 1) * stride, dtype=np.int32)
    np.add.at(diff, corners, np.concatenate((ranks, ranks, -ranks, -ranks)))
    diff = diff.reshape(height + 1, stride)
    painted = diff.cumsum(0, dtype=np.int32).cumsum(1, dtype=np.int32)[:height, :width]
    if (w * h).sum() != width * height or not painted.all():
        raise ValueError("blocks do not partition the image")
    return painted


def _seed_labels(bits: np.ndarray, block_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Label the 8-connected foreground components of every block.

    Two pixels connect when both are foreground and in the same block.
    Components are found by union-find over the edge list of each neighbour
    direction in turn: each round hooks the larger root of every edge to the
    smaller with ``np.minimum.at``, then pointer jumping makes every pixel
    point at its root, so a root is its component's first pixel in raster
    order. Ids follow blocks in raster order of their top-left corner, then
    components in raster order of their first pixel.

    Returns the seed label map and the flat index of each seed's first
    pixel, in id order.
    """
    height, width = bits.shape
    index = np.arange(height * width, dtype=np.int32).reshape(height, width)
    parent = index.ravel().copy()  # a root at every pixel between rounds
    # The components do not depend on the order edges are joined in, so
    # only one direction's edges need to exist at a time.
    for a, b in (
        (np.s_[:, :-1], np.s_[:, 1:]),
        (np.s_[:-1, :], np.s_[1:, :]),
        (np.s_[:-1, :-1], np.s_[1:, 1:]),
        (np.s_[:-1, 1:], np.s_[1:, :-1]),
    ):
        joined = bits[a] & bits[b] & (block_of[a] == block_of[b])
        heads = parent[index[a][joined]]
        tails = parent[index[b][joined]]
        while True:
            crossing = heads != tails
            heads = heads[crossing]
            tails = tails[crossing]
            if not heads.size:
                break
            np.minimum.at(parent, np.maximum(heads, tails), np.minimum(heads, tails))
            while True:
                grand = parent[parent]
                if np.array_equal(grand, parent):
                    break
                parent = grand
            heads = parent[heads]
            tails = parent[tails]

    # Background pixels are never joined, so they stay their own roots.
    roots = np.flatnonzero((parent == index.ravel()) & bits.ravel())
    roots = roots[np.lexsort((roots, block_of.ravel()[roots]))]
    ids = np.zeros(height * width, dtype=np.int32)
    ids[roots] = np.arange(1, len(roots) + 1, dtype=np.int32)
    return ids[parent].reshape(height, width), roots


def _adjacency(labels: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The region adjacency graph of ids 1..count: 4-adjacent label pairs.

    Returns (targets, offsets): the neighbours of id r are
    ``targets[offsets[r]:offsets[r + 1]]``, ascending and each once. Every
    touching pair is coded in both directions as ``src * (count + 1) + dst``,
    so one sort of the codes orders them by row, then by target.
    """
    codes = []
    for a, b in ((labels[:, :-1], labels[:, 1:]), (labels[:-1, :], labels[1:, :])):
        touching = (a != b) & (a > 0) & (b > 0)
        a, b = a[touching].astype(np.int64), b[touching].astype(np.int64)
        codes += (a * (count + 1) + b, b * (count + 1) + a)
    codes = np.concatenate(codes)
    codes.sort()
    distinct = np.ones(len(codes), dtype=bool)
    distinct[1:] = codes[1:] != codes[:-1]
    src, targets = np.divmod(codes[distinct], count + 1)
    offsets = np.zeros(count + 2, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=count + 1), out=offsets[1:])
    return targets.astype(np.int32), offsets


def _merge_visits(
    means: np.ndarray, targets: np.ndarray, offsets: np.ndarray, tau_merge: int
) -> list[int]:
    """The seeds with a higher-id neighbour within ``tau_merge`` at the seed means.

    ``means`` holds each seed's mean by id and (targets, offsets) is the
    graph of :func:`_adjacency`. Only these seeds can absorb anything in
    :func:`merge`'s scan; the ids come back ascending, as Python ints.
    """
    tau = min(tau_merge, 255)  # means differ by at most 255; a huge int would not fit a float
    rows = np.repeat(np.arange(len(means), dtype=np.int32), np.diff(offsets))
    near = (targets > rows) & (np.abs(means[rows] - means[targets]) <= tau)
    visit = np.zeros(len(means), dtype=bool)
    visit[rows[near]] = True
    return np.flatnonzero(visit).tolist()


def merge(
    img: GrayImage, mask: BinaryMask, blocks: np.ndarray | list[Block], tau_merge: int = 10
) -> RegionMap:
    """Fuse 4-adjacent block regions with similar means until stable.

    Starting regions are the 8-connected foreground components of each leaf
    block; ``blocks`` is :func:`split`'s ``(n, 4)`` array or any list of
    ``(x, y, w, h)`` tuples that partitions the image. Regions are scanned
    by ascending id; a scanned region absorbs any 4-adjacent region whose
    mean gray value is within ``tau_merge`` of its own, so at return no
    adjacent pair is within ``tau_merge``. Ids are then relabeled densely in
    raster order of each region's first pixel.

    The seeds come from union-find labelling (:func:`_seed_labels`). The
    scan runs on a region adjacency graph built once from the seed labels,
    with integer gray sums and pixel counts per region. A scanned region
    absorbs its smallest-id neighbour within ``tau_merge``, takes over that
    neighbour's neighbours, recomputes its mean as sum / count and looks
    again. Neighbour lists are not rewritten on an absorb: ids are read
    through ``absorbed_by`` to the region that holds them now. The scan
    reads each neighbour list as a set: ``seen_in`` lists an id once, the
    close search takes the smallest id and ``own.remove`` meets each id
    once, so no label depends on the order of a list.

    The scan is a single pass, since that pass reaches the fixpoint. A
    region's mean changes only during its own visit, and two regions become
    adjacent only during a visit by one of them. Each visit ends with no
    neighbour within ``tau_merge``. So for two regions adjacent after the
    pass, the later of their two visits ended with them adjacent, both
    means final and the means more than ``tau_merge`` apart, and a second
    pass would merge nothing.

    The same argument lets the scan skip seeds (:func:`_merge_visits`).
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
    block_of = _block_ranks(np.asarray(blocks).reshape(-1, 4), img.width, img.height)
    seeds, first_pixel = _seed_labels(mask.bits, block_of)
    count = len(first_pixel)
    flat = seeds.ravel()
    sums = np.bincount(flat, weights=img.pixels.ravel(), minlength=count + 1)
    sizes = np.bincount(flat, minlength=count + 1)
    # The float sums are exact integers, so one correctly rounded array
    # division gives the bits of Python's int / int; a row of no pixels is 0.0.
    mean_of = sums / np.maximum(sizes, 1)
    means = mean_of.tolist()
    sums = sums.astype(np.int64).tolist()
    sizes = sizes.tolist()
    targets, offsets = _adjacency(seeds, count)
    visits = _merge_visits(mean_of, targets, offsets, tau_merge)
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
                if other < target and -tau_merge <= mean - means[other] <= tau_merge:
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
    # of its seeds' first pixels.
    owner = np.array(absorbed_by, dtype=np.int32)
    alive = np.flatnonzero(owner == 0)[1:]
    owner[alive] = alive
    while True:
        jumped = owner[owner]
        if np.array_equal(jumped, owner):
            break
        owner = jumped
    first = np.full(count + 1, flat.size, dtype=np.int64)
    np.minimum.at(first, owner[1:], first_pixel)
    final_id = np.zeros(count + 1, dtype=np.int32)
    final_id[alive[np.argsort(first[alive])]] = np.arange(1, len(alive) + 1, dtype=np.int32)
    return RegionMap(final_id[owner][seeds], len(alive))


def segment_image(
    img: GrayImage,
    mask: BinaryMask,
    tau_split: int = 10,
    tau_merge: int = 10,
    min_block: int = 1,
) -> RegionMap:
    """Run split then merge with one call."""
    return merge(img, mask, split(img, mask, tau_split, min_block), tau_merge)


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


def extract_regions(region_map: RegionMap, min_pixels: int = 1) -> list[int]:
    """The ids of the regions with at least ``min_pixels`` pixels, ascending."""
    sizes = np.bincount(region_map.labels.ravel(), minlength=region_map.region_count + 1)
    return (np.flatnonzero(sizes[1:] >= min_pixels) + 1).tolist()


def write_region_map_pgm(region_map: RegionMap, path) -> None:
    """Dump a label map as P5 with maxval = region_count for inspection.

    Uses two-byte big-endian samples when more than 255 regions exist.
    """
    maxval = max(region_map.region_count, 1)
    if maxval > PGM_MAX_REGIONS:
        raise TooManyRegions(
            f"{region_map.region_count} regions exceed the {PGM_MAX_REGIONS} a PGM label map holds"
        )
    header = f"P5\n{region_map.width} {region_map.height}\n{maxval}\n".encode("ascii")
    if maxval < 256:
        raster = region_map.labels.astype(np.uint8).tobytes()
    else:
        raster = region_map.labels.astype(">u2").tobytes()
    write_bytes(path, header + raster)


def overlay_boundaries(img: GrayImage, region_map: RegionMap) -> GrayImage:
    """Paint the label map's :func:`boundary_mask` at 255 over a copy of the image."""
    if (img.height, img.width) != region_map.labels.shape:
        raise ValueError("image and region map dimensions differ")
    out = img.pixels.copy()
    out[boundary_mask(region_map.labels)] = 255
    return GrayImage(out)
