import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mammocad.errors import DegenerateRegion
from mammocad.features import (
    FeatureVector,
    _slice_means,
    compute_features,
    feature_table,
    gradient_map,
)
from mammocad.image import GrayImage, negate
from mammocad.segment import RegionMap, segment_image
from mammocad.threshold import BinaryMask

from oracles import (
    area,
    compactness,
    edge_distance_variance,
    gray_std,
    intensity_diff,
    mean_boundary_gradient,
    mean_region_gradient,
    naive_features,
    region_features,
    region_geometry,
    slice_means,
    sobel_magnitude,
)
from test_fractal import checkerboard, cross_and_ring, dense_map, labeled_images
from test_segment import windowed_image_and_mask


def map_of(img, bits):
    """The label map whose one region is the pixels ``bits`` marks."""
    rm = segment_image(img, BinaryMask(bits, 0), tau_split=255, tau_merge=255)
    assert rm.region_count == 1
    return rm


def region_of(img, bits):
    """The oracle record of the one region ``bits`` marks."""
    (record,) = region_geometry(map_of(img, bits).labels)
    return record


def features_of(img, rm, rid):
    """The package's features of region ``rid`` alone: a table of that one id."""
    return compute_features(feature_table(img, rm, [rid]), rid)


def ramp_image(side=8):
    return GrayImage(np.tile(np.arange(side, dtype=np.uint8), (side, 1)))


def random_regions(rng, count):
    """(image, label map, oracle record) of ``count`` random regions of 2+ pixels."""
    out = []
    while len(out) < count:
        img = GrayImage(rng.integers(0, 256, (10, 10)).astype(np.uint8))
        bits = rng.random((10, 10)) < 0.5
        rm = segment_image(img, BinaryMask(bits, 0), tau_split=255, tau_merge=255)
        for record in region_geometry(rm.labels):
            if len(record.pixels) >= 2:
                out.append((img, rm, record))
    return out[:count]


class TestGradientMap:
    def test_constant_is_zero(self):
        img = GrayImage(np.full((5, 5), 80, np.uint8))
        assert (gradient_map(img) == 0).all()

    def test_unit_ramp_interior_is_one(self):
        grad = gradient_map(ramp_image())
        assert np.allclose(grad[1:-1, 1:-1], 1.0)

    def test_axis_symmetry(self):
        img = ramp_image()
        transposed = GrayImage(img.pixels.T.copy())
        assert np.allclose(gradient_map(img), gradient_map(transposed).T)

    def test_one_and_two_rows(self):
        """No minimum size: 1xN and 2xN images match the edge-padded loop reference."""
        rng = np.random.default_rng(2)
        for rows, cols in itertools.product((1, 2), (1, 2, 3, 8)):
            pix = rng.integers(0, 256, (rows, cols)).astype(np.uint8)
            assert np.allclose(gradient_map(GrayImage(pix)), sobel_magnitude(pix), atol=1e-12)
            assert np.allclose(
                gradient_map(GrayImage(pix.T.copy())), sobel_magnitude(pix.T), atol=1e-12
            )

    def test_matches_loop_convolution(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            pix = rng.integers(0, 256, (7, 6)).astype(np.uint8)
            got = gradient_map(GrayImage(pix))
            assert np.allclose(got, sobel_magnitude(pix), atol=1e-12)


class TestShapeDescriptors:
    def test_area_counts_pixels(self):
        img = GrayImage(np.full((3, 3), 5, np.uint8))
        region = region_of(img, np.ones((3, 3), bool))
        assert area(region) == 9

    def test_compactness_solid_rectangle(self):
        img = GrayImage(np.zeros((4, 6), np.uint8))
        bits = np.zeros((4, 6), bool)
        bits[1:3, 1:5] = True
        assert compactness(region_of(img, bits)) == 1.0

    def test_compactness_diagonal(self):
        n = 5
        img = GrayImage(np.zeros((n + 2, n + 2), np.uint8))
        bits = np.zeros((n + 2, n + 2), bool)
        for i in range(n):
            bits[i + 1, i + 1] = True
        assert compactness(region_of(img, bits)) == pytest.approx(1 / n)

    def test_compactness_single_pixel(self):
        img = GrayImage(np.zeros((3, 3), np.uint8))
        bits = np.zeros((3, 3), bool)
        bits[1, 1] = True
        assert compactness(region_of(img, bits)) == 1.0


class TestGradientFeatures:
    def test_zero_on_constant_image(self):
        img = GrayImage(np.full((6, 6), 9, np.uint8))
        region = region_of(img, np.ones((6, 6), bool))
        grad = gradient_map(img)
        assert mean_region_gradient(region, grad) == 0.0
        assert mean_boundary_gradient(region, grad) == 0.0

    def test_interior_ramp_block_reads_one(self):
        img = ramp_image(8)
        bits = np.zeros((8, 8), bool)
        bits[2:6, 2:6] = True
        region = region_of(img, bits)
        grad = gradient_map(img)
        assert mean_region_gradient(region, grad) == pytest.approx(1.0)
        assert mean_boundary_gradient(region, grad) == pytest.approx(1.0)

    def test_plateau_boundary_sharper_than_interior(self):
        pix = np.full((16, 16), 50, np.uint8)
        pix[4:12, 4:12] = 200
        img = GrayImage(pix)
        region = region_of(img, img.pixels > 100)
        grad = gradient_map(img)
        assert mean_boundary_gradient(region, grad) > mean_region_gradient(region, grad)

    def test_single_pixel_region_uses_its_gradient(self):
        img = ramp_image(5)
        bits = np.zeros((5, 5), bool)
        bits[2, 2] = True
        region = region_of(img, bits)
        grad = gradient_map(img)
        assert mean_boundary_gradient(region, grad) == grad[2, 2]


class TestGrayStd:
    def test_constant_region(self):
        img = GrayImage(np.full((4, 4), 33, np.uint8))
        assert gray_std(region_of(img, np.ones((4, 4), bool)), img) == 0.0

    def test_two_pixel_hand_value(self):
        pix = np.zeros((1, 2), np.uint8)
        pix[0, 1] = 2
        img = GrayImage(pix)
        region = region_of(img, np.ones((1, 2), bool))
        assert gray_std(region, img) == pytest.approx(1.0, abs=1e-12)

    def test_negation_symmetry(self):
        rng = np.random.default_rng(6)
        img = GrayImage(rng.integers(0, 256, (6, 6)).astype(np.uint8))
        region = region_of(img, rng.random((6, 6)) < 0.7)
        assert gray_std(region, img) == pytest.approx(
            gray_std(region, negate(img)), abs=1e-12
        )


class TestEdgeDistanceVariance:
    def test_symmetric_cross_is_zero(self):
        img = GrayImage(np.zeros((5, 5), np.uint8))
        bits = np.zeros((5, 5), bool)
        bits[2, 2] = bits[1, 2] = bits[3, 2] = bits[2, 1] = bits[2, 3] = True
        region = region_of(img, bits)
        assert len(region.boundary) == 4  # center pixel is interior
        assert edge_distance_variance(region) == 0.0

    def test_3x3_square_closed_form(self):
        img = GrayImage(np.full((3, 3), 1, np.uint8))
        region = region_of(img, np.ones((3, 3), bool))
        expected = (5.0 * math.sqrt(2.0) - 7.0) / 2.0  # about 0.0355
        assert edge_distance_variance(region) == pytest.approx(expected, abs=1e-12)

    def test_doubling_coordinates_doubles_value(self):
        img = GrayImage(np.full((3, 3), 1, np.uint8))
        region = region_of(img, np.ones((3, 3), bool))
        scaled = region._replace(
            pixels=[(2 * x, 2 * y) for x, y in region.pixels],
            boundary=[(2 * x, 2 * y) for x, y in region.boundary],
            bbox=(0, 0, 5, 5),
            centroid=(2 * region.centroid[0], 2 * region.centroid[1]),
        )
        assert edge_distance_variance(scaled) == pytest.approx(
            2.0 * edge_distance_variance(region), rel=1e-12
        )

    @pytest.mark.parametrize("gray", [0, 77, 255])
    def test_table_keeps_math_hypot_bits(self, gray):
        """A region whose value np.hypot's distances would change in the last bit."""
        bits = np.array([[1, 0, 0, 1], [1, 1, 0, 1], [1, 1, 1, 1], [1, 1, 0, 1]], bool)
        img = GrayImage(np.full(bits.shape, gray, np.uint8))
        rm = map_of(img, bits)
        assert features_of(img, rm, 1).edge_distance_variance == 0.15659167973233584
        assert edge_distance_variance(region_of(img, bits)) == 0.15659167973233584

    def test_single_pixel_degenerate(self):
        img = GrayImage(np.zeros((3, 3), np.uint8))
        bits = np.zeros((3, 3), bool)
        bits[1, 1] = True
        with pytest.raises(DegenerateRegion):
            edge_distance_variance(region_of(img, bits))


class TestIntensityDiff:
    def test_constant_contrast(self):
        pix = np.full((5, 5), 100, np.uint8)
        pix[2, 2] = pix[1, 2] = pix[3, 2] = pix[2, 1] = pix[2, 3] = 200
        img = GrayImage(pix)
        region = region_of(img, img.pixels > 150)
        assert intensity_diff(region, img) == pytest.approx(100.0)

    def test_region_filling_bbox(self):
        pix = np.zeros((4, 4), np.uint8)
        pix[1:3, 1:4] = 120
        img = GrayImage(pix)
        region = region_of(img, img.pixels > 0)
        assert intensity_diff(region, img) == pytest.approx(120.0)

    def test_sign_flips_under_negation(self):
        rng = np.random.default_rng(8)
        img = GrayImage(rng.integers(0, 256, (6, 6)).astype(np.uint8))
        bits = np.zeros((6, 6), bool)
        bits[2:4, 1:5] = True
        bits[2, 2] = False
        region = region_of(img, bits)
        assert intensity_diff(region, img) == pytest.approx(
            -intensity_diff(region, negate(img)), abs=1e-12
        )


class TestInvariances:
    def test_translation_invariance(self):
        rng = np.random.default_rng(13)
        patch = rng.integers(0, 256, (4, 4)).astype(np.uint8)
        blob = rng.random((4, 4)) < 0.7
        blob[1, 1] = True
        features = []
        for ox, oy in ((2, 2), (5, 3)):
            pix = np.full((12, 12), 30, np.uint8)
            bits = np.zeros((12, 12), bool)
            pix[oy : oy + 4, ox : ox + 4] = patch
            bits[oy : oy + 4, ox : ox + 4] = blob
            img = GrayImage(pix)
            features.append(features_of(img, map_of(img, bits), 1))
        a, b = features
        for name in vars(a):
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-9), name

    def test_gray_shift_covariance(self):
        rng = np.random.default_rng(14)
        pix = rng.integers(0, 200, (8, 8)).astype(np.uint8)
        bits = rng.random((8, 8)) < 0.6
        bits[3:5, 3:5] = True
        img1 = GrayImage(pix)
        img2 = GrayImage(pix + 40)
        rm = map_of(img1, bits)
        f1 = features_of(img1, rm, 1)
        f2 = features_of(img2, rm, 1)
        for name in vars(f1):
            assert getattr(f1, name) == pytest.approx(getattr(f2, name), abs=1e-9), name


class TestOracleEquivalence:
    def test_matches_naive_on_random_blobs(self):
        rng = np.random.default_rng(17)
        for img, rm, record in random_regions(rng, 25):
            got = features_of(img, rm, record.id)
            want = naive_features(record, img, gradient_map(img))
            for name, value in want.items():
                assert getattr(got, name) == pytest.approx(value, abs=1e-9), name


def solid_blocks(side):
    """Regions that each fill their bounding box, so no bbox pixel is outside."""
    return np.kron(np.arange(1, 5).reshape(2, 2), np.ones((side, side), dtype=np.int64))


class TestFeatureTable:
    """The one-pass table equals the per-region code in ``oracles`` bit for bit.

    The oracle reads the whole image's gradient map, so every comparison
    also checks that the table's windowed gradient has the same bits.
    """

    @staticmethod
    def assert_matches_oracle(img, rm, ids):
        table = feature_table(img, rm, ids)
        assert table.shape == (rm.region_count + 1, 7)
        grad = gradient_map(img)
        for record in region_geometry(rm.labels):
            rid = record.id
            if len(record.pixels) < 2:
                with pytest.raises(DegenerateRegion):
                    features_of(img, rm, rid)
                continue
            expected = FeatureVector(**region_features(record, img, grad))
            assert features_of(img, rm, rid) == expected
            if rid in ids:
                assert compute_features(table, rid) == expected
            else:
                assert not table[rid].any()

    @settings(deadline=None, max_examples=80)
    @given(case=labeled_images())
    def test_matches_oracle(self, case):
        img, rm, rng = case
        areas = np.bincount(rm.labels.ravel(), minlength=rm.region_count + 1)
        ids = [rid for rid, n in enumerate(areas) if rid and n >= 2 and rng.random() < 0.7]
        # Shuffled, with some ids twice: the table must not depend on their order.
        ids = rng.permutation(ids + ids[: len(ids) // 2]).astype(int).tolist()
        self.assert_matches_oracle(img, rm, ids)

    @pytest.mark.parametrize("make", [checkerboard, cross_and_ring, solid_blocks])
    @pytest.mark.parametrize("side", [3, 5, 9])
    def test_structured_maps(self, make, side):
        rng = np.random.default_rng(side)
        rm = dense_map(make(side))
        img = GrayImage(rng.integers(0, 256, rm.labels.shape).astype(np.uint8))
        areas = np.bincount(rm.labels.ravel())
        ids = [rid for rid in range(1, rm.region_count + 1) if areas[rid] >= 2]
        self.assert_matches_oracle(img, rm, ids)

    def test_validation(self):
        img = GrayImage(np.zeros((3, 3), np.uint8))
        rm = RegionMap(np.ones((3, 3), np.int32), 1)
        for ids in ([0], [2], [-1]):
            with pytest.raises(ValueError):
                feature_table(img, rm, ids)
        with pytest.raises(ValueError):
            feature_table(GrayImage(np.zeros((3, 4), np.uint8)), rm, [1])
        assert not feature_table(img, rm, []).any()
        with pytest.raises(ValueError):
            compute_features(feature_table(img, rm, []), 1)
        dot = np.zeros((3, 3), np.int32)
        dot[1, 1] = 1
        with pytest.raises(DegenerateRegion):
            feature_table(img, RegionMap(dot, 1), [1])

    @settings(deadline=None, max_examples=80)
    @given(case=labeled_images(max_side=20), share=st.sampled_from([0.2, 0.6, 1.0]))
    def test_window_gradient_matches_whole_map(self, case, share):
        img, rm, rng = case
        areas = np.bincount(rm.labels.ravel(), minlength=rm.region_count + 1)
        ids = [rid for rid, n in enumerate(areas) if rid and n >= 2 and rng.random() < share]
        self.assert_matches_oracle(img, rm, ids)

    @settings(deadline=None, max_examples=40)
    @given(pair=windowed_image_and_mask(max_side=32))
    def test_windowed_maps_match_oracle(self, pair):
        """A map whose regions lie in a small window, on any border or corner."""
        img, mask = pair
        rm = segment_image(img, mask, tau_split=30, tau_merge=30)
        areas = np.bincount(rm.labels.ravel(), minlength=rm.region_count + 1)
        ids = [rid for rid, n in enumerate(areas) if rid and n >= 2 and rid % 3]
        self.assert_matches_oracle(img, rm, ids)

    @pytest.mark.parametrize("window", [
        np.s_[:, :],  # the window is the whole image
        np.s_[0, 2:6],  # a region on each border
        np.s_[-1, 2:6],
        np.s_[3:7, 0],
        np.s_[3:7, -1],
        np.s_[2:5, 4],  # a window 1 px wide, inside the image
        np.s_[4, 3:8],  # 1 px high
        np.s_[:, 5],  # 1 px wide, from the top border to the bottom
        np.s_[0, :],  # 1 px high, from the left border to the right
        np.s_[:2, -2:],  # a corner
    ])
    def test_window_gradient_cases(self, window):
        rng = np.random.default_rng(5)
        img = GrayImage(rng.integers(0, 256, (9, 11)).astype(np.uint8))
        raw = np.zeros((9, 11), np.int64)
        raw[window] = 1
        rm = RegionMap(raw, 1)
        self.assert_matches_oracle(img, rm, [1])

    def test_window_gradient_on_a_ring(self):
        """A ring on all four borders, a cross inside: the window is the whole image."""
        img = GrayImage(np.random.default_rng(6).integers(0, 256, (9, 9)).astype(np.uint8))
        ring = dense_map(cross_and_ring(9))
        self.assert_matches_oracle(img, ring, [1, 2])  # 3 is one pixel

    @pytest.mark.parametrize("rows,cols", [(8, 40), (256, 260)])  # 160 and 66560 dominoes
    def test_many_ids_match_one_id_tables(self, rows, cols):
        """Tables past 255 and 65535 ids number their pixel groups in wider types.

        Every region is a 1x2 domino, and every id but 1 is wanted; each row
        checked has the bits of its id's own one-id table.
        """
        count = rows * cols
        labels = (np.arange(count, dtype=np.int32).reshape(rows, cols) + 1).repeat(2, axis=1)
        rng = np.random.default_rng(count)
        img = GrayImage(rng.integers(0, 256, labels.shape).astype(np.uint8))
        rm = RegionMap(labels, count)
        table = feature_table(img, rm, np.arange(2, count + 1))
        assert not table[1].any()
        edges = {r for r in (2, 3, 255, 256, 257, 65535, 65536, 65537, count) if r <= count}
        for rid in sorted(edges | set(rng.integers(2, count + 1, 20).tolist())):
            assert table[rid].tobytes() == feature_table(img, rm, [rid])[rid].tobytes()

    @pytest.mark.parametrize("rid", [-1, 0, 3])
    def test_row_rejects_ids_outside_the_map(self, rid):
        """A negative id must not read the last row: ids are 1..region_count."""
        img = GrayImage(np.arange(16, dtype=np.uint8).reshape(4, 4))
        rm = RegionMap(np.repeat([[1, 1, 2, 2]], 4, axis=0), 2)
        table = feature_table(img, rm, [1, 2])
        with pytest.raises(ValueError, match=r"1\.\.2"):
            compute_features(table, rid)


@st.composite
def slices(draw):
    """Random values cut into slices of lengths 1-300, with lengths repeating."""
    pool = draw(st.lists(st.integers(1, 300), min_size=1, max_size=6))
    lengths = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e5, 1e-3]))
    return rng.random(sum(lengths)) * scale, np.array(lengths)


def cut(lengths, scale=1e5):
    """Seeded values cut into slices of ``lengths``."""
    values = np.random.default_rng(len(lengths)).random(sum(lengths)) * scale
    return values, np.array(lengths)


class TestSliceMeans:
    """Grouped slice sums have the bits of one reduce per slice."""

    @settings(deadline=None, max_examples=100)
    @given(case=slices())
    @example(case=cut([1]))
    @example(case=cut([300]))
    @example(case=cut([9] * 50, 1e-3))
    @example(case=cut([7, 300, 7, 1, 300, 1]))
    def test_matches_per_slice_reduce(self, case):
        values, lengths = case
        means = _slice_means(lengths)
        for v in (values, values**2):  # one grouping serves every array of values
            assert means(v).tobytes() == slice_means(v, lengths.tolist()).tobytes()
