import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mammocad.errors import EmptyHistogram
from mammocad.image import GrayImage
from mammocad.threshold import (
    COUNT_MAX,
    BinaryMask,
    apply_threshold,
    histogram,
    mask_to_image,
    otsu_threshold,
)

from oracles import otsu_sweep


def hist_of(bins: dict, dtype=np.int64) -> np.ndarray:
    counts = np.zeros(256, dtype=dtype)
    for value, count in bins.items():
        counts[value] = count
    return counts


class TestHistogram:
    def test_direct_count(self):
        img = GrayImage(np.array([[0, 0], [255, 255]], np.uint8))
        hist = histogram(img)
        assert hist[0] == 2
        assert hist[255] == 2
        assert hist[1:255].sum() == 0

    def test_constant(self):
        img = GrayImage(np.full((5, 5), 7, np.uint8))
        assert histogram(img)[7] == 25

    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_total_is_pixel_count(self, data):
        w = data.draw(st.integers(1, 9))
        h = data.draw(st.integers(1, 9))
        pix = data.draw(st.lists(st.integers(0, 255), min_size=w * h, max_size=w * h))
        img = GrayImage(np.array(pix, np.uint8).reshape(h, w))
        hist = histogram(img)
        assert hist.shape == (256,)
        assert hist.sum() == w * h

    @pytest.mark.parametrize("shape", [(1, 65535), (1, 65536), (1, 65537), (300, 700)])
    def test_chunks_count_every_sample(self, shape):
        """Counts summed over 64 KiB chunks equal one count of the whole image."""
        pixels = np.random.default_rng(shape[1]).integers(0, 256, shape).astype(np.uint8)
        for img in (GrayImage(pixels), GrayImage(pixels.T)):  # a view ravel copies too
            expected = np.bincount(img.pixels.ravel(), minlength=256)
            hist = histogram(img)
            assert hist.dtype == expected.dtype and np.array_equal(hist, expected)

    def test_memory_stays_below_one_cast_chunk(self):
        """A 1024 px image: the peak is one chunk's ``intp`` cast, not the image's 8 MB."""
        img = GrayImage(np.random.default_rng(4).integers(0, 256, (1024, 1024)).astype(np.uint8))
        tracemalloc.start()
        try:
            hist = histogram(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hist.sum() == 1024 * 1024
        assert peak <= 1 << 20

    def test_invalid_bins_rejected(self):
        with pytest.raises(ValueError, match="256 bins"):
            otsu_threshold(np.zeros(255, np.int64))


class TestOtsu:
    def test_two_mass_tie_breaks_low(self):
        # Every t in [50, 199] separates the same two classes; lowest wins.
        assert otsu_threshold(hist_of({50: 10, 200: 10})) == 50

    def test_constant_returns_constant(self):
        assert otsu_threshold(hist_of({7: 9})) == 7
        assert otsu_threshold(hist_of({255: 3})) == 255

    def test_empty(self):
        with pytest.raises(EmptyHistogram):
            otsu_threshold(hist_of({}))

    def test_bimodal_mixture_lands_between_modes(self):
        rng = np.random.default_rng(5)
        samples = np.concatenate(
            [rng.normal(60, 12, 4000), rng.normal(180, 12, 4000)]
        )
        values = np.clip(np.rint(samples), 0, 255).astype(np.uint8)
        hist = hist_of(dict(zip(*np.unique(values, return_counts=True))))
        t = otsu_threshold(hist)
        assert 60 <= t <= 180
        assert t == otsu_sweep(hist)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_matches_exhaustive_sweep(self, data):
        bins = data.draw(
            st.dictionaries(st.integers(0, 255), st.integers(1, 50), min_size=1, max_size=12)
        )
        hist = hist_of(bins)
        assert otsu_threshold(hist) == otsu_sweep(hist)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_matches_exhaustive_sweep_on_huge_counts(self, data):
        """Counts far past 2**53 in their products, where float scores round."""
        bins = data.draw(
            st.dictionaries(
                st.integers(0, 255), st.integers(1, COUNT_MAX), min_size=2, max_size=6
            )
        )
        hist = hist_of(bins)
        assert otsu_threshold(hist) == otsu_sweep(hist)

    def test_near_tie_decided_exactly(self):
        # Masses 3m at 0, m at 1 and 3m + d at 2: by symmetry t = 0 and t = 1
        # tie at d = 0, and at d = -1 or 1 their scores differ by ~1/m, far
        # inside the float pre-selection's margin.
        for m in (10**6, 10**9, 10**12):
            picks = []
            for d in (-1, 0, 1):
                hist = hist_of({0: 3 * m, 1: m, 2: 3 * m + d})
                picks.append(otsu_threshold(hist))
                assert picks[-1] == otsu_sweep(hist)
            assert picks == [0, 0, 1]

    def test_every_integer_dtype(self):
        bins = {3: 5, 90: 7, 200: 11}
        for dtype in (np.uint8, np.int16, np.int32, np.uint64):
            assert otsu_threshold(hist_of(bins).astype(dtype)) == 90
        assert otsu_threshold(hist_of(bins).tolist()) == 90
        assert otsu_threshold(hist_of({0: COUNT_MAX, 255: COUNT_MAX})) == 0

    @pytest.mark.parametrize(
        "counts",
        [
            hist_of({10: -3, 20: 3}),  # sums to 0, yet holds pixels
            hist_of({10: -5, 100: 3, 200: 10}),
            hist_of({10: 2.7, 200: 0.5}, np.float64),  # floats are not counts
            hist_of({10: 2, 200: 3}, np.float64),  # not even whole ones
            hist_of({10: True, 200: True}, bool),  # nor are bools
            hist_of({10: COUNT_MAX + 1}, np.uint64),  # its sum would not fit int64
            [1] * 255 + [2**70],  # an object array
        ],
    )
    def test_rejects_counts_that_are_not_a_histogram(self, counts):
        with pytest.raises(ValueError, match="integers in 0.."):
            otsu_threshold(counts)

    @settings(deadline=None, max_examples=40)
    @given(
        a=st.integers(0, 254),
        gap=st.integers(1, 100),
        mass_a=st.integers(1, 30),
        mass_b=st.integers(1, 30),
    )
    def test_two_delta_separation(self, a, gap, mass_a, mass_b):
        b = min(a + gap, 255)
        t = otsu_threshold(hist_of({a: mass_a, b: mass_b}))
        assert a <= t < b


class TestApplyThreshold:
    def test_strict_comparison(self):
        img = GrayImage(np.array([[10, 200], [30, 120]], np.uint8))
        mask = apply_threshold(img, 100)
        assert mask.bits.tolist() == [[False, True], [False, True]]
        assert mask.threshold_used == 100

    def test_255_is_all_background(self):
        img = GrayImage(np.array([[255, 255]], np.uint8))
        assert apply_threshold(img, 255).foreground_count == 0

    def test_zero_on_positive_image_is_all_foreground(self):
        img = GrayImage(np.array([[1, 2], [3, 4]], np.uint8))
        assert apply_threshold(img, 0).foreground_count == 4

    def test_threshold_out_of_range(self):
        img = GrayImage(np.array([[1]], np.uint8))
        with pytest.raises(ValueError):
            apply_threshold(img, 256)

    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_monotone_in_threshold(self, data):
        pix = data.draw(st.lists(st.integers(0, 255), min_size=16, max_size=16))
        img = GrayImage(np.array(pix, np.uint8).reshape(4, 4))
        t1 = data.draw(st.integers(0, 255))
        t2 = data.draw(st.integers(t1, 255))
        fg1 = apply_threshold(img, t1).bits
        fg2 = apply_threshold(img, t2).bits
        assert (fg2 <= fg1).all()  # foreground shrinks as t grows

    def test_mask_to_image(self):
        mask = BinaryMask(np.array([[True, False]]), 9)
        assert mask_to_image(mask.bits).pixels.tolist() == [[255, 0]]
        with pytest.raises(ValueError, match="2-D"):
            BinaryMask(np.array([True, False]), 9)
