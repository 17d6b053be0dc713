import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mammocad import segment as segment_module
from mammocad.errors import IoFailure
from mammocad.features import compute_features, feature_table
from mammocad.fractal import (
    blanket_area_table,
    blanket_dimension,
    box_count_dimension,
    roughness_gate,
)
from mammocad.image import GrayImage, negate
from mammocad.phantom import generate_phantom
from mammocad.pipeline import PipelineConfig
from mammocad.segment import (
    RegionMap,
    _adjacency,
    _block_keys,
    _halvings,
    _seed_labels,
    boundary_mask,
    extract_regions,
    merge,
    overlay_boundaries,
    segment_image,
    split,
    write_region_map_pgm,
)
from mammocad.threshold import BinaryMask, apply_threshold, histogram, otsu_threshold

from oracles import (
    connected_components_8,
    flood_merge,
    flood_merge_passes,
    flood_seeds,
    quadtree_split,
    region_geometry,
    touching_pairs,
)
from test_golden import box_noise


def full_mask(w, h, t=0):
    return BinaryMask(np.ones((h, w), dtype=bool), t)


def img_of(rows):
    return GrayImage(np.array(rows, dtype=np.uint8))


def leaves(blocks):
    """``split``'s (n, 4) leaf array as the oracle's list of (x, y, w, h) tuples."""
    assert blocks.ndim == 2 and blocks.shape[1] == 4 and blocks.dtype.kind == "i"
    return list(map(tuple, blocks.tolist()))


def region_ids(region_map, min_pixels=1):
    """``extract_regions``' ids, checked to be a 1-D ascending int64 array, as a list."""
    ids = extract_regions(region_map, min_pixels)
    assert ids.dtype == np.int64 and ids.ndim == 1
    assert (np.diff(ids) > 0).all()
    return ids.tolist()


def half_half_8x8():
    pix = np.zeros((8, 8), np.uint8)
    pix[:, 4:] = 255
    return GrayImage(pix)


def random_pair(rng, side=16):
    img = GrayImage(rng.integers(0, 256, (side, side)).astype(np.uint8))
    mask = BinaryMask(rng.random((side, side)) < 0.45, 0)
    return img, mask


def region_means(img, region_map):
    sums = {}
    counts = {}
    for y in range(region_map.height):
        for x in range(region_map.width):
            rid = int(region_map.labels[y, x])
            if rid:
                sums[rid] = sums.get(rid, 0) + int(img.pixels[y, x])
                counts[rid] = counts.get(rid, 0) + 1
    return {rid: sums[rid] / counts[rid] for rid in sums}


class TestSplit:
    def test_constant_image_single_block(self):
        img = GrayImage(np.full((8, 8), 42, np.uint8))
        assert leaves(split(img, full_mask(8, 8))) == [(0, 0, 8, 8)]

    def test_max_tolerance_single_block(self):
        img = GrayImage(np.arange(64, dtype=np.uint8).reshape(8, 8) * 4)
        assert leaves(split(img, full_mask(8, 8), tau_split=255)) == [(0, 0, 8, 8)]

    def test_half_half_splits_once(self):
        blocks = split(half_half_8x8(), full_mask(8, 8), tau_split=10)
        assert sorted(leaves(blocks)) == [(0, 0, 4, 4), (0, 4, 4, 4), (4, 0, 4, 4), (4, 4, 4, 4)]

    def test_background_only_block_never_splits(self):
        img = half_half_8x8()
        mask = BinaryMask(np.zeros((8, 8), dtype=bool), 0)
        assert leaves(split(img, mask)) == [(0, 0, 8, 8)]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            split(img_of([[1, 2]]), full_mask(3, 3))
        with pytest.raises(ValueError, match="tau_split must be >= 0"):
            split(img_of([[1, 2]]), full_mask(2, 1), tau_split=-1)
        with pytest.raises(ValueError, match="tau_merge must be >= 0"):
            merge(img_of([[1, 2]]), full_mask(2, 1), [(0, 0, 2, 1)], tau_merge=-1)
        with pytest.raises(ValueError, match="tau_merge must be >= 0"):
            segment_image(img_of([[1, 2]]), full_mask(2, 1), tau_merge=-1)
        nan = float("nan")  # fails every comparison, so it must fail the checks too
        with pytest.raises(ValueError, match="tau_split must be >= 0"):
            split(img_of([[1, 2]]), full_mask(2, 1), tau_split=nan)
        with pytest.raises(ValueError, match="tau_merge must be >= 0"):
            merge(img_of([[1, 2]]), full_mask(2, 1), [(0, 0, 2, 1)], tau_merge=nan)
        with pytest.raises(ValueError, match="tau_merge must be >= 0"):
            segment_image(img_of([[1, 2]]), full_mask(2, 1), tau_merge=nan)

    def test_min_block_is_gone(self):
        """Homogeneity alone decides a split; the old block-size floor is no parameter."""
        with pytest.raises(TypeError):
            split(img_of([[1, 2]]), full_mask(2, 1), 10, 1)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), tau=st.sampled_from([0, 5, 30]))
    def test_leaves_tile_image_and_are_homogeneous(self, seed, tau):
        rng = np.random.default_rng(seed)
        img, mask = random_pair(rng, side=12)
        blocks = split(img, mask, tau_split=tau)
        cover = np.zeros((12, 12), dtype=int)
        for x, y, w, h in blocks:
            cover[y : y + h, x : x + w] += 1
            fg = img.pixels[y : y + h, x : x + w][mask.bits[y : y + h, x : x + w]]
            if fg.size:
                assert int(fg.max()) - int(fg.min()) <= tau or max(w, h) <= 1
        assert (cover == 1).all()

    def test_odd_sides_use_ceil_floor_quadrants(self):
        img = img_of([[0, 0, 255], [0, 0, 255], [255, 255, 255]])
        blocks = split(img, full_mask(3, 3), tau_split=10)
        cover = np.zeros((3, 3), dtype=int)
        for x, y, w, h in blocks:
            cover[y : y + h, x : x + w] += 1
        assert (cover == 1).all()


class TestMerge:
    def test_constant_foreground_single_region(self):
        img = GrayImage(np.full((8, 8), 9, np.uint8))
        mask = full_mask(8, 8)
        rm = merge(img, mask, split(img, mask), tau_merge=10)
        assert rm.region_count == 1
        assert (rm.labels == 1).all()

    def test_separated_blobs_never_merge(self):
        pix = np.zeros((5, 5), np.uint8)
        bits = np.zeros((5, 5), dtype=bool)
        pix[1, 0:2] = 100
        pix[3, 3:5] = 102
        bits[1, 0:2] = True
        bits[3, 3:5] = True
        img = GrayImage(pix)
        mask = BinaryMask(bits, 0)
        rm = merge(img, mask, split(img, mask), tau_merge=5)
        assert rm.region_count == 2

    def test_half_half_two_regions(self):
        img = half_half_8x8()
        mask = full_mask(8, 8)
        rm = merge(img, mask, split(img, mask, tau_split=10), tau_merge=10)
        assert rm.region_count == 2
        assert (rm.labels[:, :4] == rm.labels[0, 0]).all()
        assert (rm.labels[:, 4:] == rm.labels[0, 7]).all()

    def test_ids_raster_ordered(self):
        img = half_half_8x8()
        mask = full_mask(8, 8)
        rm = segment_image(img, mask)
        assert rm.labels[0, 0] == 1
        assert rm.labels[0, 7] == 2

    def test_blocks_must_partition(self):
        img = GrayImage(np.zeros((4, 4), np.uint8))
        with pytest.raises(ValueError):
            merge(img, full_mask(4, 4), [(0, 0, 4, 2)], 10)
        with pytest.raises(ValueError, match="image and mask dimensions differ"):
            merge(img, full_mask(4, 3), [(0, 0, 4, 4)], 10)

    @pytest.mark.parametrize(
        "blocks,message",
        [
            ([(0, 0, 4)], None),  # not four numbers a block
            ([(0, 0, 4, 4), (0, 0, 1)], None),
            (np.zeros((2, 3), dtype=int), None),
            ([(0, 0, 4, 4), (4, 0, 1, 1)], r"block \(4, 0, 1, 1\) outside image"),
            (np.array([[0, 0, 4, 2], [0, -1, 4, 3]]), r"block \(0, -1, 4, 3\) outside image"),
            ([(0, 0, 2, 4), (2, 0, 2, 0)], "outside image"),  # an empty block
            ([(0, 0, 4, 4), (1, 1, 2, 2)], "do not partition"),  # overlap, too much area
            ([(0, 0, 4, 2), (0, 1, 4, 2)], "do not partition"),  # overlap, the image's area
            ([], "do not partition"),
            ([(0, 0, 4.7, 4)], "blocks must be integers"),  # a cast would read (0, 0, 4, 4)
            (np.array([[0.0, 0.0, 4.0, 4.0]]), "blocks must be integers"),
            ([("0", "0", "4", "4")], "blocks must be integers"),
            ([(False, False, True, True)], "blocks must be integers"),
        ],
    )
    def test_bad_blocks_raise(self, blocks, message):
        img = GrayImage(np.zeros((4, 4), np.uint8))
        with pytest.raises(ValueError, match=message):
            merge(img, full_mask(4, 4), blocks, 10)

    @settings(deadline=None, max_examples=20)
    @given(
        seed=st.integers(0, 10_000),
        tau_merge=st.sampled_from([0, 5, 30]),
        dtype=st.sampled_from([np.uint8, np.int16, np.uint32, np.int64, np.uint64]),
    )
    def test_block_list_and_array_agree(self, seed, tau_merge, dtype):
        """The block array, also cast to any integer width, gives the tuple list's labels."""
        rng = np.random.default_rng(seed)
        img, mask = random_pair(rng)
        blocks = split(img, mask, 5)
        from_list = merge(img, mask, leaves(blocks), tau_merge)
        for array in (blocks, blocks.astype(dtype)):
            from_array = merge(img, mask, array, tau_merge)
            assert from_list.region_count == from_array.region_count
            assert np.array_equal(from_list.labels, from_array.labels)

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10_000))
    def test_partition_and_maximality(self, seed):
        rng = np.random.default_rng(seed)
        img, mask = random_pair(rng)
        rm = segment_image(img, mask)
        assert ((rm.labels > 0) == mask.bits).all()
        means = region_means(img, rm)
        for a, b in touching_pairs(rm.labels):
            assert abs(means[a] - means[b]) > 10

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10_000))
    def test_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        img, mask = random_pair(rng)
        rm1 = segment_image(img, mask)
        rm2 = segment_image(img, mask)
        assert (rm1.labels == rm2.labels).all()

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 10_000))
    def test_regions_are_8_connected(self, seed):
        rng = np.random.default_rng(seed)
        img, mask = random_pair(rng, side=12)
        rm = segment_image(img, mask)
        for rid in range(1, rm.region_count + 1):
            assert connected_components_8(zip(*np.nonzero(rm.labels == rid))) == 1


class TestExtractRegions:
    def test_3x3_square_geometry(self):
        img = GrayImage(np.full((3, 3), 50, np.uint8))
        rm = segment_image(img, full_mask(3, 3))
        assert region_ids(rm) == [1]
        edge = boundary_mask(rm.labels)
        assert edge.sum() == 8
        assert not edge[1, 1]

    def test_single_pixel_region(self):
        bits = np.zeros((10, 10), dtype=bool)
        bits[7, 5] = True
        img = GrayImage(np.zeros((10, 10), np.uint8))
        rm = segment_image(img, BinaryMask(bits, 0))
        assert region_ids(rm) == region_ids(rm, min_pixels=0) == [1]
        assert region_ids(rm, min_pixels=2) == []
        assert np.array_equal(boundary_mask(rm.labels), bits)

    def test_full_image_boundary_is_border_ring(self):
        img = GrayImage(np.full((4, 5), 9, np.uint8))
        rm = segment_image(img, full_mask(5, 4))
        ring = np.ones((4, 5), dtype=bool)
        ring[1:-1, 1:-1] = False
        assert np.array_equal(boundary_mask(rm.labels), ring)

    def test_no_regions(self):
        img = GrayImage(np.zeros((4, 4), np.uint8))
        rm = segment_image(img, BinaryMask(np.zeros((4, 4), bool), 0))
        assert rm.region_count == 0
        assert region_ids(rm) == []

    def test_boundary_subset_and_area_sums(self):
        rng = np.random.default_rng(3)
        img, mask = random_pair(rng)
        rm = segment_image(img, mask)
        regions = extract_regions(rm)
        assert sum(np.count_nonzero(rm.labels == rid) for rid in regions) == mask.bits.sum()
        assert not (boundary_mask(rm.labels) & (rm.labels == 0)).any()


class TestExports:
    def test_region_map_pgm_small(self, tmp_path):
        labels = np.array([[0, 1], [2, 2]], dtype=np.int32)
        path = tmp_path / "labels.pgm"
        write_region_map_pgm(RegionMap(labels, 2), path)
        data = path.read_bytes()
        assert data == b"P5\n2 2\n2\n" + bytes([0, 1, 2, 2])

    @pytest.mark.parametrize(
        "regions, sample",
        [(255, np.uint8), (256, ">u2"), (300, ">u2")],
        ids=["255-one-byte", "256-two-byte", "300-two-byte"],
    )
    def test_region_map_pgm_wide_ids(self, tmp_path, regions, sample):
        # Dense ids 1..regions, one pixel each: maxval is the region count,
        # and samples switch from one byte to two big-endian bytes past 255.
        labels = np.arange(1, regions + 1, dtype=np.int32).reshape(1, regions)
        path = tmp_path / "labels.pgm"
        write_region_map_pgm(RegionMap(labels, regions), path)
        data = path.read_bytes()
        header = f"P5\n{regions} 1\n{regions}\n".encode("ascii")
        assert data.startswith(header)
        assert len(data) == len(header) + regions * np.dtype(sample).itemsize
        raster = np.frombuffer(data[len(header) :], dtype=sample).reshape(1, regions)
        assert (raster == labels).all()

    def test_region_map_pgm_unwritable_path(self, tmp_path):
        with pytest.raises(IoFailure, match="cannot write"):
            write_region_map_pgm(RegionMap([[1]], 1), tmp_path / "no" / "dir" / "labels.pgm")

    def test_overlay_paints_boundary(self):
        img = GrayImage(np.full((3, 3), 50, np.uint8))
        rm = segment_image(img, full_mask(3, 3))
        overlay = overlay_boundaries(img, rm)
        assert overlay.pixels[0, 0] == 255
        assert overlay.pixels[1, 1] == 50
        with pytest.raises(ValueError, match="image and region map dimensions differ"):
            overlay_boundaries(GrayImage(np.zeros((3, 4), np.uint8)), rm)

    def test_region_map_validation(self):
        with pytest.raises(ValueError):
            RegionMap(np.array([[0, 2]], dtype=np.int32), 1)  # id 1 missing
        with pytest.raises(ValueError, match="labels must be 2-D"):
            RegionMap(np.ones((2, 2, 2), dtype=np.int32), 1)
        # A bool count would be the label map's PGM maxval, "True"; a float one no count.
        for count in (True, 1.0, "1", None):
            with pytest.raises(ValueError, match="region_count must be an integer"):
                RegionMap(np.ones((2, 2), dtype=np.int32), count)
        assert RegionMap(np.ones((2, 2), dtype=np.int32), np.int64(1)).region_count == 1

    @pytest.mark.parametrize("labels", [np.array([[1.9, 0]]), np.array([[1.0]]), np.array([[True]])])
    def test_region_map_rejects_non_integer_labels(self, labels):
        with pytest.raises(ValueError, match="labels must be integers"):
            RegionMap(labels, 1)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.uint8])
    def test_region_map_casts_integer_labels(self, dtype):
        rm = RegionMap(np.array([[2, 0, 1]], dtype=dtype), 2)
        assert rm.labels.dtype == np.int32
        assert rm.labels.tolist() == [[2, 0, 1]]

    @pytest.mark.parametrize(
        "labels,count",
        [
            ([[0, 2, 3]], 3),  # a gap in the ids
            ([[1, 1, 2]], 3),  # fewer ids than the count
            ([[1, 2, 3]], 2),  # more ids than the count
            ([[0, 0]], 1),  # no region at all
            ([[1, -1]], 1),  # a negative label
            ([[-1, -2]], 0),
            ([[1]], -1),
            (np.zeros((0, 0)), 1),  # an empty map holds no region
        ],
    )
    def test_region_map_rejects_sparse_ids(self, labels, count):
        with pytest.raises(ValueError):
            RegionMap(np.array(labels, dtype=np.int32), count)

    @pytest.mark.parametrize(
        "labels",
        [
            np.array([[2**32 + 1, 0]], dtype=np.int64),  # int32 would wrap it to 1
            np.array([[1, 2**32 + 2]], dtype=np.uint64),
            np.array([[1, 2**64 - 1]], dtype=np.uint64),
        ],
    )
    def test_region_map_rejects_labels_wider_than_int32(self, labels):
        with pytest.raises(ValueError, match="dense"):
            RegionMap(labels, 1)

    @pytest.mark.parametrize(
        "labels,count", [([[0, 0]], 0), ([[2, 0, 1, 1]], 2), (np.zeros((0, 0)), 0)]
    )
    def test_region_map_accepts_dense_ids(self, labels, count):
        rm = RegionMap(np.array(labels, dtype=np.int32), count)
        assert rm.region_count == count
        assert rm.sizes.tolist() == np.bincount(rm.labels.ravel(), minlength=count + 1).tolist()


TAUS = (0, 5, 10, 30, 255)


@st.composite
def image_and_mask(draw, max_side=40):
    """Random image and mask of any shape up to ``max_side``, any density."""
    width = draw(st.integers(1, max_side))
    height = draw(st.integers(1, max_side))
    density = draw(st.floats(0.0, 1.0))
    spread = draw(st.sampled_from([1, 4, 16, 64, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.integers(0, 256 - spread))
    pixels = (base + rng.integers(0, spread, (height, width))).astype(np.uint8)
    return GrayImage(pixels), BinaryMask(rng.random((height, width)) < density, 0)


def sub_span(n):
    """A [start, stop) within [0, n): often at either end, one long or all of it."""
    return st.one_of(st.just(0), st.integers(0, n - 1)).flatmap(
        lambda start: st.tuples(
            st.just(start),
            st.one_of(st.just(n), st.just(start + 1), st.integers(start + 1, n)),
        )
    )


@st.composite
def windowed_image_and_mask(draw, max_side=64):
    """Random image and mask whose foreground lies in one random sub-rectangle.

    The rectangle can touch any border or corner, and be one pixel, one
    row, one column or the whole image; the foreground can be empty. When
    pinned, two opposite corners of the rectangle are foreground, so the
    mask's window is the rectangle itself.
    """
    width = draw(st.integers(1, max_side))
    height = draw(st.integers(1, max_side))
    (y0, y1), (x0, x1) = draw(sub_span(height)), draw(sub_span(width))
    density = draw(st.floats(0.0, 1.0))
    spread = draw(st.sampled_from([1, 4, 16, 64, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.integers(0, 256 - spread))
    pixels = (base + rng.integers(0, spread, (height, width))).astype(np.uint8)
    bits = np.zeros((height, width), dtype=bool)
    bits[y0:y1, x0:x1] = rng.random((y1 - y0, x1 - x0)) < density
    if draw(st.booleans()):
        bits[y0, x0] = bits[y1 - 1, x1 - 1] = True
    return GrayImage(pixels), BinaryMask(bits, 0)


def nonzero_window(a):
    """The bounding box of ``a``'s nonzero entries by ``np.nonzero``; (0, 0, 0, 0) if none."""
    ys, xs = np.nonzero(a)
    return (ys.min(), ys.max() + 1, xs.min(), xs.max() + 1) if ys.size else (0, 0, 0, 0)


def bounds(window):
    return tuple(x for part in window for x in (part.start, part.stop))


def serpentine(side):
    """A one-pixel-wide path snaking down the rows: one component, many turns."""
    bits = np.zeros((side, side), dtype=bool)
    bits[::2, :] = True
    bits[1::4, -1] = True
    bits[3::4, 0] = True
    return bits


class TestOracleEquivalence:
    """split, merge and extract_regions equal the plain-loop references exactly."""

    @settings(deadline=None, max_examples=60)
    @given(
        pair=image_and_mask(),
        tau_split=st.sampled_from(TAUS),
        tau_merge=st.sampled_from(TAUS),
    )
    def test_split_merge_extract_match_oracle(self, pair, tau_split, tau_merge):
        self.assert_split_merge_extract_match_oracle(*pair, tau_split, tau_merge)

    @settings(deadline=None, max_examples=60)
    @given(
        pair=windowed_image_and_mask(),
        tau_split=st.sampled_from(TAUS),
        tau_merge=st.sampled_from(TAUS),
    )
    def test_windowed_split_merge_extract_match_oracle(self, pair, tau_split, tau_merge):
        """A foreground in a small window: the work follows it, the outputs do not change."""
        self.assert_split_merge_extract_match_oracle(*pair, tau_split, tau_merge)

    @settings(deadline=None, max_examples=60)
    @given(
        pair=st.one_of(image_and_mask(), windowed_image_and_mask()),
        tau=st.sampled_from((5, 10, 30)),  # tolerances that both split and merge
        seed=st.integers(0, 2**32 - 1),
    )
    def test_merge_ignores_block_order(self, pair, tau, seed):
        """``split`` promises no leaf order, so ``merge`` must not read one."""
        img, mask = pair
        blocks = split(img, mask, tau)
        shuffled = np.random.default_rng(seed).permutation(blocks)
        got, want = merge(img, mask, shuffled, tau), merge(img, mask, blocks, tau)
        assert np.array_equal(got.labels, want.labels)
        assert got.region_count == want.region_count
        assert np.array_equal(got.sizes, want.sizes)

    @settings(deadline=None, max_examples=60)
    @given(pair=windowed_image_and_mask())
    def test_windows_bound_the_foreground(self, pair):
        img, mask = pair
        assert bounds(mask.window) == nonzero_window(mask.bits)
        assert bounds(segment_image(img, mask).window) == nonzero_window(mask.bits)

    @staticmethod
    def assert_split_merge_extract_match_oracle(img, mask, tau_split, tau_merge):
        blocks = split(img, mask, tau_split)
        assert sorted(leaves(blocks)) == sorted(quadtree_split(img.pixels, mask.bits, tau_split))
        rm = merge(img, mask, blocks, tau_merge)
        expected = flood_merge(img.pixels, mask.bits, blocks, tau_merge)
        assert np.array_equal(rm.labels, expected)
        geometry = region_geometry(expected)
        for min_pixels in (1, 2, 8):
            ids = region_ids(rm, min_pixels)
            assert ids == [g.id for g in geometry if len(g.pixels) >= min_pixels]
        painted = img.pixels.copy()
        for record in geometry:
            for x, y in record.boundary:
                painted[y, x] = 255
        assert np.array_equal(overlay_boundaries(img, rm).pixels, painted)

    @pytest.mark.parametrize("base,spread,tau,density,checker", [
        (42, 1, 0, 1.0, False),  # constant foreground
        (0, 1, 0, 0.5, False),  # constant 0 on half the pixels
        (255, 1, 0, 1.0, False),
        (100, 11, 10, 1.0, False),  # spread exactly tau
        (100, 12, 10, 1.0, False),  # spread just above tau: the root splits
        (0, 256, 30, 0.0, False),  # no foreground
        (0, 256, 0, 1.0, False),  # random levels at tau 0: deep splits
        (0, 256, 0, 1.0, True),  # 0 and 255 alternate: splits go down to single pixels
    ])
    def test_split_root_leaf_matches_oracle(self, base, spread, tau, density, checker):
        rng = np.random.default_rng(spread + tau)
        for height, width in ((40, 40), (1, 37), (23, 9)):
            pixels = (base + rng.integers(0, spread, (height, width))).astype(np.uint8)
            if checker:
                pixels = (np.indices((height, width)).sum(0) % 2 * 255).astype(np.uint8)
            bits = rng.random((height, width)) < density
            img, mask = GrayImage(pixels), BinaryMask(bits, 0)
            got = sorted(leaves(split(img, mask, tau)))
            assert got == sorted(quadtree_split(pixels, bits, tau))
            if checker:  # a 1x1 block has no spread, so the split stops there and only there
                assert got == [(x, y, 1, 1) for x in range(width) for y in range(height)]

    @pytest.mark.parametrize("height,width,spikes", [
        (24, 300, 0),  # depth 9
        (1, 70000, 4),  # depth 17
    ])
    def test_deep_trees_match_oracle(self, height, width, spikes):
        rng = np.random.default_rng(width)
        if spikes:  # a few bright pixels: the tree splits only along their paths
            pixels = np.zeros((height, width), np.uint8)
            pixels[0, rng.integers(width // 2, width, spikes)] = 200
            pixels[0, 100] = 200
        else:
            pixels = rng.integers(0, 256, (height, width)).astype(np.uint8)
        bits = np.ones((height, width), bool)
        blocks = split(GrayImage(pixels), BinaryMask(bits, 0), 10)
        assert sorted(leaves(blocks)) == sorted(quadtree_split(pixels, bits, 10))

    @settings(deadline=None, max_examples=60)
    @given(
        pair=image_and_mask(max_side=24),
        tau_split=st.sampled_from(TAUS),
        tau_merge=st.sampled_from(TAUS),
    )
    def test_oracle_second_pass_never_merges(self, pair, tau_split, tau_merge):
        """``merge`` scans once: in the reference, every pass after the first merges nothing."""
        img, mask = pair
        blocks = quadtree_split(img.pixels, mask.bits, tau_split)
        _, passes = flood_merge_passes(img.pixels, mask.bits, blocks, tau_merge)
        assert passes[1:] == ([0] if passes[0] else [])

    @pytest.mark.parametrize("side", [5, 16, 33])
    def test_serpentine_single_block(self, side):
        bits = serpentine(side)
        rng = np.random.default_rng(side)
        img = GrayImage(rng.integers(0, 40, (side, side)).astype(np.uint8))
        mask = BinaryMask(bits, 0)
        blocks = [(0, 0, side, side)]
        rm = merge(img, mask, blocks, 0)
        assert np.array_equal(rm.labels, flood_merge(img.pixels, bits, blocks, 0))
        assert np.array_equal(
            merge(img, mask, blocks, 255).labels, np.where(bits, 1, 0)
        )


def guillotine(rng, x, y, w, h, cut_rate):
    """A random partition of a block by straight cuts, as (x, y, w, h) tuples."""
    if w * h == 1 or rng.random() >= cut_rate:
        return [(x, y, w, h)]
    if h == 1 or (w > 1 and rng.random() < 0.5):
        k = int(rng.integers(1, w))
        return guillotine(rng, x, y, k, h, cut_rate) + guillotine(rng, x + k, y, w - k, h, cut_rate)
    k = int(rng.integers(1, h))
    return guillotine(rng, x, y, w, k, cut_rate) + guillotine(rng, x, y + k, w, h - k, cut_rate)


@st.composite
def bits_and_blocks(draw, max_side=40):
    """Random foreground bits and a random partition of the image into blocks."""
    width = draw(st.integers(1, max_side))
    height = draw(st.integers(1, max_side))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    cut_rate = draw(st.sampled_from([0.0, 0.5, 0.8, 0.95]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = guillotine(rng, 0, 0, width, height, cut_rate)
    return rng.random((height, width)) < density, rng.permutation(blocks).tolist()


def assert_seeds_match_oracle(bits, blocks):
    """``_seed_labels`` gives the flood fill's labels and each seed's first flat pixel."""
    height, width = bits.shape
    block_of = _block_keys(np.array(blocks).reshape(-1, 4), width, height, np.s_[:, :])
    labels, first = _seed_labels(bits, block_of)
    expected, members = flood_seeds(bits, [tuple(b) for b in blocks])
    assert labels.dtype == np.int32 and labels.shape == bits.shape
    assert np.array_equal(labels, expected)
    assert first.tolist() == [min(y * width + x for x, y in members[rid]) for rid in sorted(members)]


def row_cut_blocks(height, width, k):
    """Two blocks split at column ``k``: every row's run is cut at the block edge."""
    return [(0, 0, k, height), (k, 0, width - k, height)]


class TestSeedLabels:
    """Union-find over row runs gives the flood fill's seeds exactly."""

    @settings(deadline=None, max_examples=150)
    @given(case=bits_and_blocks())
    def test_matches_oracle(self, case):
        assert_seeds_match_oracle(*case)

    @pytest.mark.parametrize("value", [0, 77, 255])
    @pytest.mark.parametrize("shape", [(1, 1), (7, 5), (40, 40)])
    def test_constant_image_has_no_seeds(self, value, shape):
        img = GrayImage(np.full(shape, value, np.uint8))
        bits = apply_threshold(img, otsu_threshold(histogram(img))).bits
        assert not bits.any()
        assert_seeds_match_oracle(bits, [(0, 0, shape[1], shape[0])])
        labels, first = _seed_labels(bits, np.ones(shape, np.int32))
        assert not labels.any() and first.size == 0

    @pytest.mark.parametrize("make,blocks", [
        (lambda: np.zeros((6, 9), bool), [(0, 0, 9, 6)]),  # all background
        (lambda: np.ones((6, 9), bool), [(0, 0, 9, 6)]),  # one full-foreground leaf
        (lambda: np.indices((9, 9)).sum(0) % 2 == 0, [(0, 0, 9, 9)]),  # diagonal joins only
        (lambda: np.indices((9, 9)).sum(0) % 2 == 1, [(0, 0, 9, 9)]),
        (lambda: serpentine(33), [(0, 0, 33, 33)]),  # long union chains
        (lambda: serpentine(33), row_cut_blocks(33, 33, 16)),
        (lambda: np.ones((1, 8), bool), row_cut_blocks(1, 8, 3)),  # a run cut mid-row
        (lambda: np.ones((5, 8), bool), row_cut_blocks(5, 8, 5)),
        (lambda: np.indices((6, 8)).sum(0) % 2 == 0, row_cut_blocks(6, 8, 4)),
        (lambda: np.ones((1, 40), bool), [(0, 0, 40, 1)]),  # single row
        (lambda: np.arange(40)[None, :] % 3 > 0, [(0, 0, 40, 1)]),
        (lambda: np.ones((40, 1), bool), [(0, 0, 1, 40)]),  # single column
        (lambda: np.arange(40)[:, None] % 3 > 0, [(0, 0, 1, 17), (0, 17, 1, 23)]),
    ])
    def test_structured_bits(self, make, blocks):
        assert_seeds_match_oracle(make(), blocks)

    def test_repeated_run_edge(self):
        """A full two-row block: the down pass and both diagonal passes join its two runs.

        The union-find hooks that raw edge three times in its first round
        and still gives the flood fill's seed.
        """
        minimum = mock.Mock(wraps=np.minimum)  # records np.minimum.at's edges
        fake_np = SimpleNamespace(**{**vars(np), "minimum": minimum})
        with mock.patch.object(segment_module, "np", fake_np):
            assert_seeds_match_oracle(np.ones((2, 5), bool), [(0, 0, 5, 2)])
        _, larger, smaller = minimum.at.call_args_list[0].args
        assert list(zip(larger.tolist(), smaller.tolist())) == [(1, 0)] * 3

    @pytest.mark.parametrize("shape", [(1, 23), (23, 1), (12, 17)])
    def test_pixel_blocks(self, shape):
        bits = np.random.default_rng(shape[0]).random(shape) < 0.6
        assert_seeds_match_oracle(bits, pixel_leaves(*shape))

    def test_block_keys_past_int32(self):
        """Keys above 2**32 widen the paint to uint64: the seeds keep the blocks' raster order."""
        width, height = 70000, 70000
        x, y = width - 2, height - 2  # the far corner's block is 2 x 2
        blocks = np.array([(0, 0, x, y), (x, 0, 2, y), (0, y, x, 2), (x, y, 2, 2)])
        window = np.s_[height - 4 :, width - 4 :]
        block_of = _block_keys(blocks, width, height, window)
        keys = [0, x, y * (width + 1), y * (width + 1) + x]
        assert keys[2] > 2**32 and block_of.dtype == np.uint64
        assert np.array_equal(block_of, np.array(keys).reshape(2, 2).repeat(2, 0).repeat(2, 1))
        labels, first = _seed_labels(np.ones((4, 4), bool), block_of)
        assert np.array_equal(labels, np.array([[1, 2], [3, 4]]).repeat(2, 0).repeat(2, 1))
        assert first.tolist() == [0, 2, 8, 10]

    @pytest.mark.parametrize("cut", ["columns", "pixels"])
    def test_runs_past_16_bits(self, cut):
        """More than 65535 runs: each foreground pixel is one, as every leaf is one pixel wide.

        One-pixel columns join their runs downwards, so the run-edge codes
        take uint64; pixel leaves join nothing and give a seed per run.
        """
        bits = np.random.default_rng(9).random((300, 300)) < 0.9
        if cut == "columns":
            blocks = [(x, 0, 1, 300) for x in range(300)]
        else:
            blocks = pixel_leaves(300, 300)
        assert bits.sum() > 65535
        assert_seeds_match_oracle(bits, blocks)


def pixel_leaves(height, width):
    """Every pixel its own leaf block, so every pixel is a seed."""
    return [(x, y, 1, 1) for y in range(height) for x in range(width)]


def seed_visits(pixels, bits, blocks, tau_merge):
    """The seeds with a higher-id 4-neighbour seed within ``tau_merge`` at the seed means."""
    labels, members = flood_seeds(bits, blocks)
    means = {
        rid: sum(int(pixels[y, x]) for x, y in pts) / len(pts) for rid, pts in members.items()
    }
    height, width = labels.shape
    visits = set()
    for y in range(height):
        for x in range(width):
            for nx, ny in ((x + 1, y), (x, y + 1)):
                if nx < width and ny < height and labels[y, x] and labels[ny, nx]:
                    low, high = sorted((int(labels[y, x]), int(labels[ny, nx])))
                    if low != high and abs(means[low] - means[high]) <= tau_merge:
                        visits.add(low)
    return sorted(visits)


class TestHalvingsCache:
    """Cached halvings are shared between images, so nothing may write to them."""

    def test_cached_arrays_are_read_only(self):
        levels = _halvings(37, 6)
        assert _halvings(37, 6) is levels
        _halvings.cache_clear()  # a square image's rows and columns share one entry
        pixels = np.random.default_rng(37).integers(0, 256, (37, 37)).astype(np.uint8)
        split(GrayImage(pixels), full_mask(37, 37))
        assert (_halvings.cache_info().hits, _halvings.cache_info().misses) == (1, 1)
        for array in (array for level in levels for array in level if array is not None):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_interleaved_shapes_match_oracle(self):
        rng = np.random.default_rng(20)
        for height, width in ((5, 7), (7, 5), (1, 37), (128, 128), (5, 7)):
            pixels = rng.integers(0, 256, (height, width)).astype(np.uint8)
            bits = rng.random((height, width)) < 0.7
            if height == 128:
                bits[:, :20] = bits[:40] = False  # a window away from the top and left
            for tau in (0, 30):
                got = leaves(split(GrayImage(pixels), BinaryMask(bits, 0), tau))
                assert sorted(got) == sorted(quadtree_split(pixels, bits, tau))


def traced_peak(call):
    """``call()`` and the peak of the memory it traced, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sparse_work_follows_the_window():
    """A 16 px blob on a 2048 px image: segmenting it allocates about one label map, not six."""
    pixels = np.zeros((2048, 2048), np.uint8)
    pixels[1000:1016, 1500:1516] = np.random.default_rng(7).integers(100, 200, (16, 16))
    img, mask = GrayImage(pixels), BinaryMask(pixels > 50, 50)
    rm, peak = traced_peak(lambda: segment_image(img, mask))
    assert peak <= 4 * rm.labels.nbytes
    assert bounds(rm.window) == (1000, 1016, 1500, 1516)


def textured_image_and_mask():
    """The negated 192 px textured image and its Otsu mask, as the pipeline segments them."""
    img = negate(box_noise(5, 192))
    return img, apply_threshold(img, otsu_threshold(histogram(img)))


def test_many_regions_stay_below_their_memory_bound():
    """The 192 px textured image, 5910 regions from a 37 KB image: a peak of at most 4.3 MB.

    Most of it is the scan's per-seed lists and the region graph. A worker
    that writes the report holds ~3.9 MB of its own, so more would show in
    its peak RSS.
    """
    img, mask = textured_image_and_mask()
    rm, peak = traced_peak(lambda: segment_image(img, mask))
    assert rm.region_count == 5910
    assert peak <= 4_300_000


def test_region_tables_stay_below_their_memory_bounds():
    """The blanket and feature tables of the 192 px textured image, with the pipeline's ids.

    The blanket takes the 505 regions of at least 8 px (a 1.59 MB peak),
    the features the 471 the roughness gate keeps (1.83 MB): each bound is
    10 % above.
    """
    cfg = PipelineConfig()
    img, mask = textured_image_and_mask()
    rm = segment_image(img, mask)
    ids = extract_regions(rm, cfg.min_region_pixels)
    blankets, peak = traced_peak(lambda: blanket_area_table(img, rm, ids, cfg.r_max))
    assert len(ids) == 505 and peak <= 1_740_000
    fits = {rid: blanket_dimension(blankets, rid) for rid in ids.tolist()}
    gated = np.array(roughness_gate(fits, cfg.d_min, cfg.d_max), dtype=np.int64)
    _, peak = traced_peak(lambda: feature_table(img, rm, gated))
    assert len(gated) == 471 and peak <= 2_000_000


def test_blank_phantom_at_full_size_stays_below_its_memory_bound():
    """The 1024 px blank phantom at L0, 15516 regions: a peak of at most 26 MB.

    The seeds' union-find hooks the raw run edges (~333k on this image)
    without a sorted, deduplicated copy of them.
    """
    img = negate(generate_phantom("blank", 501, 1024)[0])
    mask = apply_threshold(img, otsu_threshold(histogram(img)))
    rm, peak = traced_peak(lambda: segment_image(img, mask))
    assert rm.region_count == 15516
    assert peak <= 26_000_000


class TestMergeVisits:
    """``merge`` visits only the seeds that can absorb, with the labels unchanged."""

    @pytest.mark.parametrize("tau", [0, 7, 10, 200])
    @pytest.mark.parametrize("apart,merged", [(0, True), (1, False)])
    @pytest.mark.parametrize("shape", [(1, 2), (2, 1)])
    @pytest.mark.parametrize("rising", [True, False])
    def test_means_exactly_tau_apart_merge(self, tau, apart, merged, shape, rising):
        """Two one-pixel leaves merge at a gap of exactly ``tau_merge``, not one more."""
        values = [40, 40 + tau + apart]
        if not rising:
            values.reverse()
        pixels = np.array(values, dtype=np.uint8).reshape(shape)
        bits = np.ones(shape, dtype=bool)
        blocks = pixel_leaves(*shape)
        rm = merge(GrayImage(pixels), BinaryMask(bits, 0), blocks, tau)
        assert np.array_equal(rm.labels, flood_merge(pixels, bits, blocks, tau))
        assert rm.region_count == (1 if merged else 2)

    def test_huge_tau_merges_like_255(self):
        """No mean gap exceeds 255, and a tau beyond any float still works."""
        rng = np.random.default_rng(3)
        img, mask = random_pair(rng)
        blocks = split(img, mask, 0)
        assert np.array_equal(
            merge(img, mask, blocks, 10**400).labels, merge(img, mask, blocks, 255).labels
        )

    def test_skipped_seed_absorbed_by_a_higher_id(self):
        """Seed 1 is never visited, and seed 5 absorbs it (found by a random search).

        Seeds 1..6 are the pixels in raster order. Seed 1 (9) has no higher
        neighbour within 3 (15 and 0), so it is skipped. Seed 2 (15) absorbs
        seed 4 (12), whose visit then never comes; seed 5 (12) absorbs seed 6
        (9), then region 2 at 13.5, then seed 1 at the region's new mean 12.
        """
        pixels = np.array([[9, 15], [0, 12], [12, 9]], dtype=np.uint8)
        bits = np.ones(pixels.shape, dtype=bool)
        blocks = pixel_leaves(*pixels.shape)
        assert seed_visits(pixels, bits, blocks, 3) == [2, 4, 5]
        rm = merge(GrayImage(pixels), BinaryMask(bits, 0), blocks, 3)
        expected = flood_merge(pixels, bits, blocks, 3)
        assert np.array_equal(rm.labels, expected)
        # Seed 1 is the lowest id of a five-seed region, so a higher id absorbed it.
        assert np.array_equal(expected, [[1, 1], [2, 1], [1, 1]])

    @settings(deadline=None, max_examples=60)
    @given(
        pair=image_and_mask(max_side=24),
        tau_split=st.sampled_from(TAUS),
        tau_merge=st.sampled_from(TAUS),
    )
    def test_visits_are_the_seeds_with_a_close_higher_neighbour(self, pair, tau_split, tau_merge):
        img, mask = pair
        blocks = split(img, mask, tau_split)
        visited = []

        def recorded(*args):
            visited.append(visits(*args))
            return visited[-1]

        visits = segment_module._merge_visits
        with mock.patch.object(segment_module, "_merge_visits", recorded):
            rm = merge(img, mask, blocks, tau_merge)
        expected = seed_visits(img.pixels, mask.bits, leaves(blocks), tau_merge)
        assert visited == [expected]
        assert all(type(rid) is int for rid in expected)
        assert np.array_equal(rm.labels, flood_merge(img.pixels, mask.bits, blocks, tau_merge))


def assert_graph_matches_touching_pairs(grid, count):
    """``_adjacency``'s pairs and neighbour lists against the oracle's touching pairs."""
    lo, hi, targets, offsets = _adjacency(grid, count)
    assert offsets.shape == (count + 2,)
    assert offsets[0] == 0 and offsets[-1] == len(targets)
    assert (np.diff(offsets) >= 0).all()
    assert len(targets) == 2 * len(lo)  # each pair once per direction
    half = list(zip(lo.tolist(), hi.tolist()))
    assert all(a < b for a, b in half) and half == sorted(set(half))  # lo < hi, each once
    rows = [targets[offsets[r] : offsets[r + 1]].tolist() for r in range(count + 1)]
    assert not rows[0]
    pairs = set()
    for r, row in enumerate(rows):
        assert all(a < b for a, b in zip(row, row[1:]))  # ascending, each once
        assert r not in row
        pairs.update((r, t) for t in row)
    assert pairs == {(b, a) for a, b in pairs}
    assert pairs == touching_pairs(grid)
    assert set(half) == {(a, b) for a, b in pairs if a < b}


class TestAdjacency:
    """The region graph holds every touching pair once per direction, rows ascending."""

    @settings(deadline=None, max_examples=80)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        labels=st.integers(1, 9),
        extra=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_touching_pairs(self, shape, labels, extra, seed):
        grid = np.random.default_rng(seed).integers(0, labels + 1, shape).astype(np.int32)
        count = labels + extra  # ids above the largest label have empty rows
        assert_graph_matches_touching_pairs(grid, count)

    @pytest.mark.parametrize("count", [65535, 70000])
    def test_wide_codes_match_touching_pairs(self, count):
        """65535 is the largest count whose pair codes fit uint32; ids past it take uint64."""
        rng = np.random.default_rng(count)
        grid = (rng.permutation(280 * 280) % (count + 1)).reshape(280, 280).astype(np.int32)
        grid[grid == 0] = count  # every id from 1 to count is on the map, most of them twice
        assert set(np.unique(grid).tolist()) == set(range(1, count + 1))
        assert_graph_matches_touching_pairs(grid, count)


class TestRegionSizes:
    """``RegionMap.sizes``: every label's pixel count, taken once and read-only."""

    @settings(deadline=None, max_examples=60)
    @given(pair=windowed_image_and_mask(), tau=st.sampled_from(TAUS))
    def test_sizes_count_every_label(self, pair, tau):
        rm = segment_image(*pair, tau, tau)
        counted = np.bincount(rm.labels.ravel(), minlength=rm.region_count + 1)
        assert rm.sizes.tolist() == counted.tolist()

    def test_sizes_are_read_only_and_derived(self):
        rm = RegionMap(np.array([[0, 2, 1]], dtype=np.int32), 2)
        with pytest.raises(ValueError, match="read-only"):
            rm.sizes[1] = 5
        with pytest.raises(TypeError):
            RegionMap(np.array([[1]], dtype=np.int32), 1, sizes=np.array([0, 1]))
        assert rm.sizes.tolist() == [1, 1, 1]


# Every numpy integer dtype: the ids' dtype is the table builders' type check.
INTEGER_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def three_regions():
    """A 16x16 image and a map of three regions on it."""
    rng = np.random.default_rng(8)
    img = GrayImage(rng.integers(0, 256, (16, 16)).astype(np.uint8))
    labels = np.ones((16, 16), dtype=np.int32)
    labels[8:, :8], labels[8:, 8:] = 2, 3
    return img, RegionMap(labels, 3)


def id_tables():
    """The two table builders, each taking a whole ids iterable on :func:`three_regions`."""
    img, rm = three_regions()
    return {
        "feature_table": lambda ids: feature_table(img, rm, ids),
        "blanket_area_table": lambda ids: blanket_area_table(img, rm, ids),
    }


def table_bytes(table):
    """The bytes of a feature table or of every array of a blanket table."""
    return b"".join(part.tobytes() for part in (table if isinstance(table, tuple) else [table]))


def id_entry_points():
    """The five calls that take region ids, each on the map of :func:`three_regions`."""
    img, rm = three_regions()
    features, blankets = feature_table(img, rm, [1, 2, 3]), blanket_area_table(img, rm, [1, 2, 3])
    return {
        "feature_table": lambda rid: feature_table(img, rm, [rid]),
        "blanket_area_table": lambda rid: blanket_area_table(img, rm, [rid]),
        "compute_features": lambda rid: compute_features(features, rid),
        "blanket_dimension": lambda rid: blanket_dimension(blankets, rid),
        "box_count_dimension": lambda rid: box_count_dimension(img, rm, rid),
    }


class TestRegionIds:
    """Ids are integers: no float, str or bool reads the row of the integer it casts to."""

    ENTRY_POINTS = id_entry_points()

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "rid", [1.5, 2.0, "3", True, np.float64(2.0), np.bool_(True)], ids=repr
    )
    def test_non_integer_ids_rejected(self, entry, rid):
        with pytest.raises(ValueError, match="region ids must be integers"):
            self.ENTRY_POINTS[entry](rid)

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "rid",
        [0, 4, -1, 2**63, -(2**63) - 1, 2**70, np.uint64(2**63), np.uint64(2**64 - 1)],
        ids=repr,
    )
    def test_out_of_range_ids_rejected(self, entry, rid):
        with pytest.raises(ValueError, match=r"region ids must lie in 1\.\.3$"):
            self.ENTRY_POINTS[entry](rid)

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("rid", [dtype(2) for dtype in INTEGER_DTYPES], ids=repr)
    def test_integers_of_any_type_agree(self, entry, rid):
        np.testing.assert_equal(self.ENTRY_POINTS[entry](rid), self.ENTRY_POINTS[entry](2))


class TestRegionIdArrays:
    """A 1-D integer ndarray of ids is taken as it is, with the checks a list of them gets."""

    TABLES = id_tables()

    @pytest.mark.parametrize("table", list(TABLES))
    @pytest.mark.parametrize("dtype", INTEGER_DTYPES)
    def test_integer_arrays_agree_with_lists(self, table, dtype):
        build = self.TABLES[table]
        for ids in ([1, 2, 3], [3], [2, 1, 2], []):
            assert table_bytes(build(np.array(ids, dtype=dtype))) == table_bytes(build(ids))

    @pytest.mark.parametrize("table", list(TABLES))
    @pytest.mark.parametrize(
        "ids",
        [
            np.array([0]),
            np.array([-1]),
            np.array([4]),
            np.array([1, 2, 0]),
            np.array([3, 4], dtype=np.uint8),
            np.array([-1, 2], dtype=np.int8),
            np.array([2**63], dtype=np.uint64),
            np.array([2**64 - 1], dtype=np.uint64),
            np.array([1, 2**63], dtype=np.uint64),
        ],
        ids=repr,
    )
    def test_out_of_range_arrays_rejected(self, table, ids):
        with pytest.raises(ValueError, match=r"region ids must lie in 1\.\.3$"):
            self.TABLES[table](ids)

    @pytest.mark.parametrize("table", list(TABLES))
    @pytest.mark.parametrize(
        "ids",
        [np.array([True]), np.array([False, True]), np.array([2.0]), np.array([[1, 2]])],
        ids=repr,
    )
    def test_non_integer_arrays_rejected(self, table, ids):
        with pytest.raises(ValueError, match="region ids must be integers"):
            self.TABLES[table](ids)

    @pytest.mark.parametrize("table", list(TABLES))
    def test_object_and_empty_float_arrays_accepted(self, table):
        build = self.TABLES[table]
        assert table_bytes(build(np.array([1, 3], dtype=object))) == table_bytes(build([1, 3]))
        assert table_bytes(build(np.array([], dtype=np.float64))) == table_bytes(build([]))

