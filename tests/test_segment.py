from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mammocad import segment as segment_module
from mammocad.errors import IoFailure
from mammocad.image import GrayImage
from mammocad.segment import (
    RegionMap,
    _adjacency,
    boundary_mask,
    extract_regions,
    merge,
    overlay_boundaries,
    segment_image,
    split,
    write_region_map_pgm,
)
from mammocad.threshold import BinaryMask

from oracles import (
    connected_components_8,
    flood_merge,
    flood_merge_passes,
    flood_seeds,
    quadtree_split,
    region_geometry,
    touching_pairs,
)


def full_mask(w, h, t=0):
    return BinaryMask(np.ones((h, w), dtype=bool), t)


def img_of(rows):
    return GrayImage(np.array(rows, dtype=np.uint8))


def leaves(blocks):
    """``split``'s (n, 4) leaf array as the oracle's list of (x, y, w, h) tuples."""
    assert blocks.ndim == 2 and blocks.shape[1] == 4 and blocks.dtype.kind == "i"
    return list(map(tuple, blocks.tolist()))


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
        with pytest.raises(ValueError, match="min_block must be >= 1"):
            split(img_of([[1, 2]]), full_mask(2, 1), min_block=0)

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
        ],
    )
    def test_bad_blocks_raise(self, blocks, message):
        img = GrayImage(np.zeros((4, 4), np.uint8))
        with pytest.raises(ValueError, match=message):
            merge(img, full_mask(4, 4), blocks, 10)

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10_000), tau_merge=st.sampled_from([0, 5, 30]))
    def test_block_list_and_array_agree(self, seed, tau_merge):
        rng = np.random.default_rng(seed)
        img, mask = random_pair(rng)
        blocks = split(img, mask, 5)
        from_array = merge(img, mask, blocks, tau_merge)
        from_list = merge(img, mask, leaves(blocks), tau_merge)
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
        assert extract_regions(rm) == [1]
        edge = boundary_mask(rm.labels)
        assert edge.sum() == 8
        assert not edge[1, 1]

    def test_single_pixel_region(self):
        bits = np.zeros((10, 10), dtype=bool)
        bits[7, 5] = True
        img = GrayImage(np.zeros((10, 10), np.uint8))
        rm = segment_image(img, BinaryMask(bits, 0))
        assert extract_regions(rm) == extract_regions(rm, min_pixels=0) == [1]
        assert extract_regions(rm, min_pixels=2) == []
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
        assert extract_regions(rm) == []

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

    def test_region_map_pgm_wide_ids(self, tmp_path):
        labels = np.arange(300, dtype=np.int32).reshape(15, 20) + 1
        # Dense ids 1..300, one pixel each.
        path = tmp_path / "labels.pgm"
        write_region_map_pgm(RegionMap(labels, 300), path)
        data = path.read_bytes()
        header = b"P5\n20 15\n300\n"
        assert data.startswith(header)
        raster = np.frombuffer(data[len(header) :], dtype=">u2").reshape(15, 20)
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
        assert RegionMap(np.array(labels, dtype=np.int32), count).region_count == count


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
        min_block=st.integers(1, 5),
    )
    def test_split_merge_extract_match_oracle(self, pair, tau_split, tau_merge, min_block):
        img, mask = pair
        blocks = split(img, mask, tau_split, min_block)
        assert leaves(blocks) == quadtree_split(img.pixels, mask.bits, tau_split, min_block)
        rm = merge(img, mask, blocks, tau_merge)
        expected = flood_merge(img.pixels, mask.bits, blocks, tau_merge)
        assert np.array_equal(rm.labels, expected)
        geometry = region_geometry(expected)
        for min_pixels in (1, 2, 8):
            ids = extract_regions(rm, min_pixels)
            assert ids == [g.id for g in geometry if len(g.pixels) >= min_pixels]
            assert all(type(rid) is int for rid in ids)  # report_json rejects numpy ints
        painted = img.pixels.copy()
        for record in geometry:
            for x, y in record.boundary:
                painted[y, x] = 255
        assert np.array_equal(overlay_boundaries(img, rm).pixels, painted)

    @pytest.mark.parametrize("base,spread,tau,density,min_block", [
        (42, 1, 0, 1.0, 1),  # constant foreground
        (0, 1, 0, 0.5, 1),  # constant 0 on half the pixels
        (255, 1, 0, 1.0, 1),
        (100, 11, 10, 1.0, 1),  # spread exactly tau
        (100, 12, 10, 1.0, 1),  # spread just above tau: the root splits
        (0, 256, 30, 0.0, 1),  # no foreground
        (0, 256, 0, 1.0, 40),  # the root is no longer than min_block
        (0, 256, 0, 1.0, 39),
    ])
    def test_split_root_leaf_matches_oracle(self, base, spread, tau, density, min_block):
        rng = np.random.default_rng(spread + tau)
        for height, width in ((40, 40), (1, 37), (23, 9)):
            pixels = (base + rng.integers(0, spread, (height, width))).astype(np.uint8)
            bits = rng.random((height, width)) < density
            img, mask = GrayImage(pixels), BinaryMask(bits, 0)
            assert leaves(split(img, mask, tau, min_block)) == quadtree_split(
                pixels, bits, tau, min_block
            )

    @settings(deadline=None, max_examples=60)
    @given(
        pair=image_and_mask(max_side=24),
        tau_split=st.sampled_from(TAUS),
        tau_merge=st.sampled_from(TAUS),
        min_block=st.integers(1, 5),
    )
    def test_oracle_second_pass_never_merges(self, pair, tau_split, tau_merge, min_block):
        """``merge`` scans once: in the reference, every pass after the first merges nothing."""
        img, mask = pair
        blocks = quadtree_split(img.pixels, mask.bits, tau_split, min_block)
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
        min_block=st.integers(1, 5),
    )
    def test_visits_are_the_seeds_with_a_close_higher_neighbour(
        self, pair, tau_split, tau_merge, min_block
    ):
        img, mask = pair
        blocks = split(img, mask, tau_split, min_block)
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
        targets, offsets = _adjacency(grid, count)
        assert offsets.shape == (count + 2,)
        assert offsets[0] == 0 and offsets[-1] == len(targets)
        assert (np.diff(offsets) >= 0).all()
        rows = [targets[offsets[r] : offsets[r + 1]].tolist() for r in range(count + 1)]
        assert not rows[0]
        pairs = set()
        for r, row in enumerate(rows):
            assert all(a < b for a, b in zip(row, row[1:]))  # ascending, each once
            assert r not in row
            pairs.update((r, t) for t in row)
        assert pairs == {(b, a) for a, b in pairs}
        assert pairs == touching_pairs(grid)
