import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mammocad.errors import DegenerateFit, RegionTooSmall
from mammocad.fractal import (
    BlanketFit,
    blanket_area_table,
    blanket_dimension,
    box_count_dimension,
    fit_dimension,
    roughness_gate,
)
from mammocad.image import GrayImage, haar_downsample, negate
from mammocad.phantom import generate_phantom
from mammocad.segment import RegionMap, extract_regions, segment_image
from mammocad.threshold import BinaryMask, apply_threshold, histogram, otsu_threshold

from oracles import (
    blanket_recursion,
    box_count,
    diamond_square,
    line_fit,
    padded_blanket_areas,
    region_geometry,
)
from test_segment import windowed_image_and_mask


def full_map(img):
    """The label map whose one region is the whole image."""
    return RegionMap(np.ones(img.pixels.shape, dtype=np.int32), 1)


def map_from_mask(img, bits):
    rm = segment_image(img, BinaryMask(bits, 0), tau_split=255, tau_merge=255)
    assert rm.region_count == 1
    return rm


def alone(img, rm, rid, r_max=8):
    """The blanket fit of region ``rid`` from a table of that one id."""
    return blanket_dimension(blanket_area_table(img, rm, [rid], r_max), rid)


class TestBlanketAreas:
    def test_constant_region_area_is_pixel_count(self):
        img = GrayImage(np.full((6, 6), 77, np.uint8))
        fit = alone(img, full_map(img), 1, r_max=8)
        assert fit.scales == list(range(1, 9))
        assert fit.areas == [36.0] * 8

    def test_two_pixel_hand_unroll(self):
        pix = np.zeros((3, 3), np.uint8)
        bits = np.zeros((3, 3), dtype=bool)
        pix[0, 0], pix[1, 0] = 10, 12
        bits[0, 0] = bits[1, 0] = True
        img = GrayImage(pix)
        areas = blanket_area_table(img, map_from_mask(img, bits), [1], r_max=2).areas[1]
        assert areas.tolist() == [3.0, 2.5]

    def test_matches_naive_recursion(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            img = GrayImage(rng.integers(0, 256, (9, 9)).astype(np.uint8))
            bits = rng.random((9, 9)) < 0.6
            rm = segment_image(img, BinaryMask(bits, 0), tau_split=255, tau_merge=255)
            for record in region_geometry(rm.labels):
                got = blanket_area_table(img, rm, [record.id], r_max=5).areas[record.id]
                assert got.tolist() == blanket_recursion(img, record, 5)[1]

    def test_volume_strictly_increasing(self):
        rng = np.random.default_rng(4)
        img = GrayImage(rng.integers(0, 256, (8, 8)).astype(np.uint8))
        areas = blanket_area_table(img, full_map(img), [1], r_max=8).areas[1].tolist()
        volumes = [a * 2 * r for r, a in enumerate(areas, start=1)]
        assert all(b > a for a, b in zip(volumes, volumes[1:]))
        assert all(a > 0 for a in areas)

    def test_gray_shift_invariance(self):
        rng = np.random.default_rng(9)
        base = rng.integers(0, 200, (7, 7)).astype(np.uint8)
        rm = full_map(GrayImage(base))
        areas1 = blanket_area_table(GrayImage(base), rm, [1], r_max=6).areas[1]
        areas2 = blanket_area_table(GrayImage(base + 30), rm, [1], r_max=6).areas[1]
        assert areas1.tolist() == areas2.tolist()


def dense_map(raw):
    """RegionMap of a raw label array: nonzero labels renumbered 1..n."""
    present, inverse = np.unique(raw, return_inverse=True)
    labels = inverse.reshape(raw.shape) + (present[0] != 0)
    return RegionMap(labels, int(labels.max()))


@st.composite
def labeled_images(draw, max_side=14):
    """An image and a label map with touching regions, holes and thin arms.

    Regions are blocks of a coarse random label grid (so they touch along
    sides and at corners only), punched with background holes and crossed by
    one-pixel-wide lines; gray values are often 0 or 255.
    """
    width = draw(st.integers(1, max_side))
    height = draw(st.integers(1, max_side))
    kinds = draw(st.integers(1, 6))
    cell = draw(st.integers(1, 4))
    hole_rate = draw(st.sampled_from([0.0, 0.1, 0.3]))
    arms = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coarse = rng.integers(0, kinds + 1, (-(-height // cell), -(-width // cell)))
    raw = np.kron(coarse, np.ones((cell, cell), dtype=np.int64))[:height, :width]
    raw[rng.random((height, width)) < hole_rate] = 0
    for _ in range(arms):
        line = raw[rng.integers(height)] if rng.random() < 0.5 else raw[:, rng.integers(width)]
        start = rng.integers(len(line))
        line[start : start + rng.integers(1, len(line) + 1)] = rng.integers(1, kinds + 2)
    pick = rng.random((height, width))
    pixels = np.where(pick < 0.2, 0, np.where(pick < 0.4, 255, rng.integers(0, 256, raw.shape)))
    return GrayImage(pixels.astype(np.uint8)), dense_map(raw), rng


def checkerboard(side):
    """Two regions whose pixels touch their own region only at corners."""
    return 1 + np.indices((side, side)).sum(0) % 2


def cross_and_ring(side):
    """A ring with a one-pixel hole around a cross of one-pixel-wide arms."""
    raw = np.zeros((side, side), dtype=np.int64)
    raw[0, :] = raw[-1, :] = raw[:, 0] = raw[:, -1] = 1
    raw[side // 2, 1:-1] = raw[1:-1, side // 2] = 2
    raw[1, 1] = 3
    return raw


class TestBlanketAreaTable:
    """The one-pass table equals the per-region padded-shift blanket bit for bit."""

    @staticmethod
    def assert_matches_oracle(img, rm, ids, r_max):
        table = blanket_area_table(img, rm, ids, r_max).areas
        assert table.shape == (rm.region_count + 1, r_max)
        records = {r.id: r for r in region_geometry(rm.labels)}
        for rid in range(rm.region_count + 1):
            if rid in ids:
                assert table[rid].tolist() == padded_blanket_areas(img, records[rid], r_max)[1]
            else:
                assert not table[rid].any()
        for record in records.values():
            got = blanket_area_table(img, rm, [record.id], r_max).areas[record.id]
            assert got.tolist() == padded_blanket_areas(img, record, r_max)[1]

    @settings(deadline=None, max_examples=80)
    @given(case=labeled_images(), r_max=st.integers(2, 40))  # most settle by radius 7
    def test_matches_oracle(self, case, r_max):
        img, rm, rng = case
        ids = [rid for rid in range(1, rm.region_count + 1) if rng.random() < 0.7]
        # Shuffled, with some ids twice: the table must not depend on their order.
        ids = rng.permutation(ids + ids[: len(ids) // 2]).astype(int).tolist()
        self.assert_matches_oracle(img, rm, ids, r_max)

    @pytest.mark.parametrize("make", [checkerboard, cross_and_ring])
    @pytest.mark.parametrize("side", [2, 5, 9])
    def test_structured_maps(self, make, side):
        rng = np.random.default_rng(side)
        rm = dense_map(make(side))
        img = GrayImage(rng.choice(np.array([0, 255, 128], np.uint8), (side, side)))
        self.assert_matches_oracle(img, rm, list(range(1, rm.region_count + 1)), 10)

    @settings(deadline=None, max_examples=40)
    @given(pair=windowed_image_and_mask(max_side=32), r_max=st.integers(2, 6))
    def test_windowed_maps_match_oracle(self, pair, r_max):
        """A map whose regions lie in a small window, on any border or corner."""
        img, mask = pair
        rm = segment_image(img, mask, tau_split=30, tau_merge=30)
        ids = [rid for rid in range(1, rm.region_count + 1) if rid % 3]
        self.assert_matches_oracle(img, rm, ids, r_max)

    def test_dimension_from_table_equals_per_region(self):
        rng = np.random.default_rng(3)
        img = GrayImage(rng.integers(0, 256, (12, 12)).astype(np.uint8))
        rm = dense_map(rng.integers(0, 4, (12, 12)) // 2 * rng.integers(1, 3, (12, 12)))
        ids = range(1, rm.region_count + 1)
        table = blanket_area_table(img, rm, ids, 6)
        for rid in extract_regions(rm, min_pixels=2):
            assert blanket_dimension(table, rid) == alone(img, rm, rid, 6)

    def test_validation(self):
        img = GrayImage(np.zeros((3, 3), np.uint8))
        rm = RegionMap(np.ones((3, 3), np.int32), 1)
        with pytest.raises(ValueError):
            blanket_area_table(img, rm, [1], 1)
        for ids in ([0], [2], [-1]):
            with pytest.raises(ValueError):
                blanket_area_table(img, rm, ids, 4)
        with pytest.raises(ValueError):
            blanket_area_table(GrayImage(np.zeros((3, 4), np.uint8)), rm, [1], 4)
        assert not blanket_area_table(img, rm, [], 4).areas.any()

    @pytest.mark.parametrize("r_max", [257, 10**12])
    def test_r_max_above_bound_raises_before_allocating(self, r_max):
        img = GrayImage(np.zeros((4, 4), np.uint8))
        rm = RegionMap(np.ones((4, 4), np.int32), 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"r_max must be in \[2, 256\]"):
                blanket_area_table(img, rm, [1], r_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert blanket_area_table(img, rm, [1], 256).areas.shape == (2, 256)

    def test_dimension_with_table_rejects_one_pixel_region(self):
        img = GrayImage(np.zeros((3, 3), np.uint8))
        rm = RegionMap(np.array([[0, 0, 0], [0, 1, 0], [0, 0, 2]]), 2)
        table = blanket_area_table(img, rm, [1], 4)
        with pytest.raises(RegionTooSmall):
            blanket_dimension(table, 1)
        with pytest.raises(ValueError, match="no fit"):  # an unfitted row, before its size
            blanket_dimension(table, 2)

    @settings(deadline=None, max_examples=80)
    @given(case=labeled_images(), r_max=st.integers(2, 6))
    def test_first_area_bounds_pixel_count(self, case, r_max):
        """A(1) >= the region's pixel count, and A(1) == 1 exactly for one pixel.

        ``blanket_dimension`` reads a region's size from A(1).
        """
        img, rm, _ = case
        table = blanket_area_table(img, rm, range(1, rm.region_count + 1), r_max).areas
        sizes = np.bincount(rm.labels.ravel(), minlength=rm.region_count + 1)[1:]
        assert (table[1:, 0] >= sizes).all()
        assert np.array_equal(table[1:, 0] == 1.0, sizes == 1)


def settle_mix():
    """An image and map whose regions settle at different radii, or not by 40.

    Raw labels: 1 a constant block and 2 a single pixel (both settle at
    r = 1), 3 a ramp rising 3 per column (r = 6), 4 a block of noise
    (r = 10), and 5 a one-pixel-wide line of 0 with 255 at one end, whose
    blanket still moves at r = 40.
    """
    rng = np.random.default_rng(7)
    raw = np.zeros((8, 50), dtype=np.int64)
    pixels = np.zeros((8, 50), dtype=np.uint8)
    raw[2:, 0:4], pixels[2:, 0:4] = 1, 77
    raw[2, 12], pixels[2, 12] = 2, 200
    raw[2:, 5:11], pixels[2:, 5:11] = 3, 20 + 3 * np.arange(6)
    raw[2:, 14:22], pixels[2:, 14:22] = 4, rng.integers(0, 256, (6, 8))
    raw[0, :48], pixels[0, 0] = 5, 255
    return GrayImage(pixels), dense_map(raw)


class TestSettledBlanket:
    """Rows past the radius where every surface grows by one keep the loop's bits."""

    @pytest.mark.parametrize("r_max", [2, 8, 40])
    @pytest.mark.parametrize("ids", [[1, 2, 3, 4, 5], [1, 2, 3, 4], [1, 3], [1, 2], [5]])
    def test_mixed_regions(self, ids, r_max):
        img, rm = settle_mix()
        TestBlanketAreaTable.assert_matches_oracle(img, rm, ids, r_max)
        table = blanket_area_table(img, rm, ids, r_max).areas
        records = {r.id: r for r in region_geometry(rm.labels)}
        for rid in ids:
            assert table[rid].tolist() == blanket_recursion(img, records[rid], r_max)[1]

    def test_mix_settles_at_different_radii(self):
        """From the oracle's volumes: a region has settled once V(r) - V(r - 1) = 2n."""
        img, rm = settle_mix()
        records = {r.id: r for r in region_geometry(rm.labels)}

        def settles(rid):
            areas = padded_blanket_areas(img, records[rid], 40)[1]
            volumes = [0] + [round(a * 2 * r) for r, a in enumerate(areas, start=1)]
            moving = [r for r in range(1, 41) if volumes[r] - volumes[r - 1] != 2 * rm.sizes[rid]]
            last = max(moving, default=0)
            return None if last == 40 else last + 1

        assert {rid: settles(rid) for rid in records} == {1: 1, 2: 1, 3: 6, 4: 10, 5: None}

    @pytest.mark.parametrize("seed", [3, 5])
    def test_screen_blank_phantom(self, seed):
        """The default run's blank image at three Haar levels, as the bench makes it."""
        img = negate(haar_downsample(generate_phantom("blank", 100 * seed, 1024)[0], 3))
        mask = apply_threshold(img, otsu_threshold(histogram(img)))
        rm = segment_image(img, mask, 10, 10)
        ids = extract_regions(rm, 8)
        assert ids.size
        TestBlanketAreaTable.assert_matches_oracle(img, rm, ids, 8)


class TestFitTable:
    """Fitting all table rows at once equals fitting each row alone, bit for bit."""

    @settings(deadline=None, max_examples=80)
    @given(case=labeled_images(), r_max=st.integers(2, 16))
    def test_matches_per_row_fit(self, case, r_max):
        img, rm, rng = case
        ids = [rid for rid in extract_regions(rm, min_pixels=2) if rng.random() < 0.7]
        table = blanket_area_table(img, rm, ids, r_max)
        areas = table.areas
        scales = list(range(1, r_max + 1))
        for rid in ids:
            row = areas[rid].tolist()
            dimension, intercept, residual = line_fit(scales, row)
            expected = BlanketFit(scales, row, dimension, intercept, residual)
            assert blanket_dimension(table, rid) == expected
            assert alone(img, rm, rid, r_max) == expected
            assert fit_dimension(scales, row) == expected
        unfitted = np.ones(rm.region_count + 1, dtype=bool)
        unfitted[ids] = False
        assert np.isnan(table.dimension[unfitted]).all()

    @pytest.mark.parametrize("r_max", [2, 5, 8, 9, 16, 33])
    def test_many_rows(self, r_max):
        """Hundreds of regions of one to a dozen pixels, every other one fitted."""
        rng = np.random.default_rng(r_max)
        rm = dense_map(rng.integers(0, 300, (40, 40)))
        img = GrayImage(rng.integers(0, 256, (40, 40)).astype(np.uint8))
        ids = list(range(1, rm.region_count + 1, 2))
        table = blanket_area_table(img, rm, ids, r_max)
        scales = list(range(1, r_max + 1))
        for rid in ids:
            fit = fit_dimension(scales, table.areas[rid].tolist())
            fitted = (table.dimension[rid], table.intercept[rid], table.residual[rid])
            assert fitted == (fit.dimension, fit.intercept, fit.residual)

    def test_validation(self):
        img = GrayImage(np.zeros((3, 3), np.uint8))
        rm = RegionMap(np.repeat([[1, 1, 2]], 3, axis=0), 2)
        assert np.isnan(blanket_area_table(img, rm, [], 4).dimension).all()
        table = blanket_area_table(img, rm, [1], 4)
        assert blanket_dimension(table, 1).scales == [1, 2, 3, 4]
        with pytest.raises(ValueError, match="no fit"):
            blanket_dimension(table, 2)

    @pytest.mark.parametrize("rid", [-1, 0, 3])
    def test_dimension_rejects_ids_outside_the_map(self, rid):
        """A negative id must not read the last row: ids are 1..region_count."""
        img = GrayImage(np.arange(16, dtype=np.uint8).reshape(4, 4))
        rm = RegionMap(np.repeat([[1, 1, 2, 2]], 4, axis=0), 2)
        table = blanket_area_table(img, rm, [1, 2], 4)
        with pytest.raises(ValueError, match=r"1\.\.2"):
            blanket_dimension(table, rid)


class TestFitDimension:
    def test_flat_surface_is_exactly_two(self):
        fit = fit_dimension(list(range(1, 9)), [36.0] * 8)
        assert abs(fit.dimension - 2.0) <= 1e-9
        assert fit.residual <= 1e-18

    @pytest.mark.parametrize(
        "c,d0,r_max", [(7.0, 2.5, 8), (3.0, 2.75, 16), (11.0, 2.4, 8)]
    )
    def test_recovers_exact_power_law(self, c, d0, r_max):
        scales = list(range(1, r_max + 1))
        areas = [c * r ** (2.0 - d0) for r in scales]
        fit = fit_dimension(scales, areas)
        assert abs(fit.dimension - d0) <= 1e-9
        assert abs(fit.intercept - math.log(c)) <= 1e-9
        assert fit.residual <= 1e-18

    def test_degenerate_scales(self):
        with pytest.raises(DegenerateFit):
            fit_dimension([3, 3], [1.0, 1.0])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_dimension([1], [1.0])
        with pytest.raises(ValueError):
            fit_dimension([1, 2], [1.0, -1.0])
        with pytest.raises(ValueError):
            fit_dimension([1, 2], [1.0])


class TestBoxCount:
    def test_flat_block(self):
        img = GrayImage(np.full((64, 64), 90, np.uint8))
        assert abs(box_count_dimension(img, full_map(img), 1) - 2.0) <= 0.05

    def test_uniform_noise_is_rough(self):
        rng = np.random.default_rng(2)
        img = GrayImage(rng.integers(0, 256, (64, 64)).astype(np.uint8))
        d = box_count_dimension(img, full_map(img), 1)
        assert 2.3 < d < 3.0

    def test_smooth_ramp_is_smooth(self):
        img = GrayImage(np.tile(np.arange(64, dtype=np.uint8) * 3, (64, 1)))
        assert box_count_dimension(img, full_map(img), 1) < 2.2

    def test_small_bbox_rejected(self):
        img = GrayImage(np.zeros((6, 6), np.uint8))
        with pytest.raises(RegionTooSmall):
            box_count_dimension(img, full_map(img), 1)

    def test_region_is_its_bounding_box(self):
        rng = np.random.default_rng(5)
        pixels = rng.integers(0, 256, (40, 50)).astype(np.uint8)
        labels = np.ones((40, 50), np.int32)
        labels[3:35, 9:25] = 2  # the 32x16 box of region 2, with a hole
        labels[10, 12] = 1
        img, rm = GrayImage(pixels), RegionMap(labels, 2)
        crop = GrayImage(pixels[3:35, 9:25].copy())
        assert box_count_dimension(img, rm, 2) == box_count_dimension(crop, full_map(crop), 1)
        for bad in (0, 3):
            with pytest.raises(ValueError, match=r"1\.\.2"):
                box_count_dimension(img, rm, bad)
        with pytest.raises(ValueError, match="dimensions differ"):
            box_count_dimension(crop, rm, 2)

    def test_box_found_inside_an_offset_window(self):
        """The box is found in the map's window and read back at the window's offset."""
        rng = np.random.default_rng(6)
        pixels = rng.integers(0, 256, (40, 50)).astype(np.uint8)
        labels = np.zeros((40, 50), np.int32)
        labels[5:36, 7:46] = 1  # the map's window starts at row 5, column 7
        labels[12:30, 20:36] = 2  # region 2's box starts 7 rows and 13 columns into it
        img, rm = GrayImage(pixels), RegionMap(labels, 2)
        assert (rm.window[0].start, rm.window[1].start) == (5, 7)
        crop = GrayImage(pixels[12:30, 20:36].copy())
        assert box_count_dimension(img, rm, 2) == box_count_dimension(crop, full_map(crop), 1)
        whole = GrayImage(pixels[5:36, 7:46].copy())
        assert box_count_dimension(img, rm, 1) == box_count_dimension(whole, full_map(whole), 1)


    @settings(deadline=None, max_examples=60)
    @given(
        width=st.integers(6, 10) | st.integers(1, 80),
        height=st.integers(6, 10) | st.integers(1, 80),
        texture=st.sampled_from(["noise", "ramp", "extremes"]),
        kinds=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_cell_loop(self, width, height, texture, kinds, seed):
        """Equal to the cell-by-cell oracle bit for bit, ``RegionTooSmall`` included."""
        rng = np.random.default_rng(seed)
        if texture == "noise":
            pixels = rng.integers(0, 256, (height, width))
        elif texture == "ramp":
            pixels = np.add.outer(np.arange(height), np.arange(width)) * rng.integers(1, 9) % 256
        else:
            pixels = rng.choice([0, 255], (height, width))
        img = GrayImage(pixels.astype(np.uint8))
        raw = rng.integers(1, kinds + 1, (height, width)) * (rng.random((height, width)) < 0.7)
        rm = dense_map(raw)

        def outcome(measure, *args):
            try:
                return measure(*args)
            except RegionTooSmall as exc:
                return str(exc)

        for record in region_geometry(rm.labels):
            expected = outcome(box_count, img, record)
            assert outcome(box_count_dimension, img, rm, record.id) == expected


class TestOracleAgreement:
    def test_blanket_vs_box_count_on_textures(self):
        rng = np.random.default_rng(7)
        flat = GrayImage(np.full((64, 64), 100, np.uint8))
        ramp = GrayImage(np.tile(np.arange(64, dtype=np.uint8) * 3, (64, 1)))
        ramp_noise = GrayImage(
            np.clip(
                ramp.pixels.astype(int) + rng.integers(-6, 7, (64, 64)), 0, 255
            ).astype(np.uint8)
        )
        noise = GrayImage(rng.integers(0, 256, (64, 64)).astype(np.uint8))
        mpd = GrayImage(diamond_square(6, 0.5, rng)[:64, :64])

        dims = {}
        for name, img in [
            ("flat", flat),
            ("ramp", ramp),
            ("ramp_noise", ramp_noise),
            ("noise", noise),
            ("midpoint", mpd),
        ]:
            d_blanket = alone(img, full_map(img), 1).dimension
            d_box = box_count_dimension(img, full_map(img), 1)
            assert abs(d_blanket - d_box) <= 0.3, name
            dims[name] = d_blanket
        assert dims["flat"] < dims["ramp_noise"] < dims["noise"]


class TestRoughnessGate:
    @staticmethod
    def fit_with_d(d):
        return BlanketFit([1, 2], [1.0, 1.0], d, 0.0, 0.0)

    def test_band_keeps_middle(self):
        fits = {1: self.fit_with_d(2.0), 2: self.fit_with_d(2.5), 3: self.fit_with_d(2.9)}
        assert roughness_gate(fits, 2.4, 2.75) == [2]

    def test_empty(self):
        assert roughness_gate({}, 2.4, 2.75) == []

    def test_wide_band_keeps_all_in_order(self):
        fits = {3: self.fit_with_d(2.2), 5: self.fit_with_d(2.9), 9: self.fit_with_d(2.0)}
        assert roughness_gate(fits, 2.0, 3.0) == [3, 5, 9]

    def test_band_endpoints_inclusive(self):
        fits = {1: self.fit_with_d(2.4), 2: self.fit_with_d(2.75)}
        assert roughness_gate(fits, 2.4, 2.75) == [1, 2]

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            roughness_gate({}, 2.5, 2.5)
