import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mammocad.errors import DegenerateFit, RegionTooSmall
from mammocad.fractal import (
    BlanketFit,
    blanket_area_table,
    blanket_areas,
    blanket_dimension,
    box_count_dimension,
    fit_dimension,
    roughness_gate,
)
from mammocad.image import GrayImage
from mammocad.segment import RegionMap, extract_regions, segment_image
from mammocad.threshold import BinaryMask

from oracles import (
    blanket_recursion,
    diamond_square,
    line_fit,
    padded_blanket_areas,
    region_geometry,
)


def full_map(img):
    """The label map whose one region is the whole image."""
    return RegionMap(np.ones(img.pixels.shape, dtype=np.int32), 1)


def map_from_mask(img, bits):
    rm = segment_image(img, BinaryMask(bits, 0), tau_split=255, tau_merge=255)
    assert rm.region_count == 1
    return rm


class TestBlanketAreas:
    def test_constant_region_area_is_pixel_count(self):
        img = GrayImage(np.full((6, 6), 77, np.uint8))
        scales, areas = blanket_areas(img, full_map(img), 1, r_max=8)
        assert scales == list(range(1, 9))
        assert areas == [36.0] * 8

    def test_two_pixel_hand_unroll(self):
        pix = np.zeros((3, 3), np.uint8)
        bits = np.zeros((3, 3), dtype=bool)
        pix[0, 0], pix[1, 0] = 10, 12
        bits[0, 0] = bits[1, 0] = True
        img = GrayImage(pix)
        scales, areas = blanket_areas(img, map_from_mask(img, bits), 1, r_max=2)
        assert scales == [1, 2]
        assert areas == [3.0, 2.5]

    def test_matches_naive_recursion(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            img = GrayImage(rng.integers(0, 256, (9, 9)).astype(np.uint8))
            bits = rng.random((9, 9)) < 0.6
            rm = segment_image(img, BinaryMask(bits, 0), tau_split=255, tau_merge=255)
            for record in region_geometry(rm.labels):
                if len(record.pixels) < 2:
                    continue
                got = blanket_areas(img, rm, record.id, r_max=5)
                assert got == blanket_recursion(img, record, 5)

    def test_volume_strictly_increasing(self):
        rng = np.random.default_rng(4)
        img = GrayImage(rng.integers(0, 256, (8, 8)).astype(np.uint8))
        scales, areas = blanket_areas(img, full_map(img), 1, r_max=8)
        volumes = [a * 2 * r for r, a in zip(scales, areas)]
        assert all(b > a for a, b in zip(volumes, volumes[1:]))
        assert all(a > 0 for a in areas)

    def test_gray_shift_invariance(self):
        rng = np.random.default_rng(9)
        base = rng.integers(0, 200, (7, 7)).astype(np.uint8)
        rm = full_map(GrayImage(base))
        _, areas1 = blanket_areas(GrayImage(base), rm, 1, r_max=6)
        _, areas2 = blanket_areas(GrayImage(base + 30), rm, 1, r_max=6)
        assert areas1 == areas2

    def test_region_too_small(self):
        img = GrayImage(np.zeros((3, 3), np.uint8))
        bits = np.zeros((3, 3), dtype=bool)
        bits[1, 1] = True
        with pytest.raises(RegionTooSmall):
            blanket_areas(img, map_from_mask(img, bits), 1, r_max=4)

    def test_r_max_validation(self):
        img = GrayImage(np.zeros((4, 4), np.uint8))
        with pytest.raises(ValueError):
            blanket_areas(img, full_map(img), 1, r_max=1)


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
            if len(record.pixels) >= 2:
                expected = padded_blanket_areas(img, record, r_max)
                assert blanket_areas(img, rm, record.id, r_max) == expected

    @settings(deadline=None, max_examples=80)
    @given(case=labeled_images(), r_max=st.integers(2, 10))
    def test_matches_oracle(self, case, r_max):
        img, rm, rng = case
        ids = [rid for rid in range(1, rm.region_count + 1) if rng.random() < 0.7]
        self.assert_matches_oracle(img, rm, ids, r_max)

    @pytest.mark.parametrize("make", [checkerboard, cross_and_ring])
    @pytest.mark.parametrize("side", [2, 5, 9])
    def test_structured_maps(self, make, side):
        rng = np.random.default_rng(side)
        rm = dense_map(make(side))
        img = GrayImage(rng.choice(np.array([0, 255, 128], np.uint8), (side, side)))
        self.assert_matches_oracle(img, rm, list(range(1, rm.region_count + 1)), 10)

    def test_dimension_from_table_equals_per_region(self):
        rng = np.random.default_rng(3)
        img = GrayImage(rng.integers(0, 256, (12, 12)).astype(np.uint8))
        rm = dense_map(rng.integers(0, 4, (12, 12)) // 2 * rng.integers(1, 3, (12, 12)))
        ids = range(1, rm.region_count + 1)
        table = blanket_area_table(img, rm, ids, 6)
        for rid in extract_regions(rm, min_pixels=2):
            alone = fit_dimension(*blanket_areas(img, rm, rid, 6))
            assert blanket_dimension(table, rid) == alone

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

        ``blanket_dimension`` and ``blanket_areas`` read a region's size from A(1).
        """
        img, rm, _ = case
        table = blanket_area_table(img, rm, range(1, rm.region_count + 1), r_max).areas
        sizes = np.bincount(rm.labels.ravel(), minlength=rm.region_count + 1)[1:]
        assert (table[1:, 0] >= sizes).all()
        assert np.array_equal(table[1:, 0] == 1.0, sizes == 1)


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
            assert fit_dimension(*blanket_areas(img, rm, rid, r_max)) == expected
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
            d_blanket = fit_dimension(*blanket_areas(img, full_map(img), 1)).dimension
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
