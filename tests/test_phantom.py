import hashlib
import tracemalloc

import numpy as np
import pytest

from mammocad.phantom import KINDS, _span, generate_phantom

from oracles import connected_components_8, phantom_reference


# sha256 of pixels then truth, one byte a sample: the phantoms the benchmark's
# screen and ingest-p2 workloads generate at its seed 5.
PINNED = {
    ("blank", 500, 512): "8b6066370dbf55e771f88a2674697b9f26da39e570ea2e458121451bbe8947a5",
    ("tumor", 501, 512): "e1888cab74f162c17e655f5d060cc71406762b0526f4c4c2e438e63d54f07272",
    ("multi", 502, 512): "5572896982c931a502e2e60052d6dfd9f6d40496b73d6ebc3282f5c80a8fadc8",
    ("blank", 500, 1024): "2eb224d22fb402c8d162314b34e2f0926c1c17d492f47994ba0efb31ce2c9247",
    ("tumor", 501, 1024): "6f5591edd5af1ab9d8abaf93f7c28bd59b694c3f5fd3c7bb05b98390b6f09806",
    ("multi", 502, 1024): "2243b8602533ccea2e1e750ffe9967d643b5ecca6baa88c5e0ad03bc393a42d7",
}


class TestGeneratePhantom:
    @pytest.mark.parametrize("key", list(PINNED), ids=lambda key: "%s_%d_%d" % key)
    def test_benchmark_phantoms_pinned(self, key):
        img, truth = generate_phantom(*key)
        digest = hashlib.sha256(img.pixels.tobytes() + truth.tobytes()).hexdigest()
        assert digest == PINNED[key]

    @pytest.mark.parametrize("size", [64, 100, 256, 513, 700, 1024])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_full_image_reference(self, kind, size):
        # Both upsample paths (below and from 512 px), odd sizes and multi's two boxes.
        for seed in (0, 1, 7):
            img, truth = generate_phantom(kind, seed, size)
            pixels, expected_truth = phantom_reference(kind, seed, size)
            assert img.pixels.tobytes() == pixels.tobytes()
            assert truth.tobytes() == expected_truth.tobytes()

    def test_blob_box_clipped_to_image(self):
        # No phantom's blob reaches an edge, so only a direct call clips.
        assert _span(1.5, 3.0, 10) == slice(0, 6)
        assert _span(8.5, 3.0, 10) == slice(5, 10)
        assert _span(5.0, 2.0, 10) == slice(3, 8)

    def test_memory_bounded(self):
        # The blob math stays on each blob's box: no full-image float planes
        # beyond the field and the noise it is built from.
        tracemalloc.start()
        try:
            generate_phantom("multi", 1, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20

    def test_deterministic_per_seed(self):
        img1, truth1 = generate_phantom("tumor", 5, 256)
        img2, truth2 = generate_phantom("tumor", 5, 256)
        assert img1 == img2
        assert (truth1 == truth2).all()

    def test_seeds_differ(self):
        img1, _ = generate_phantom("tumor", 1, 256)
        img2, _ = generate_phantom("tumor", 2, 256)
        assert img1 != img2

    def test_blank_truth_empty(self):
        img, truth = generate_phantom("blank", 3, 128)
        assert not truth.any()
        assert (img.width, img.height) == (128, 128)

    @pytest.mark.parametrize("size", [256, 513, 700])
    def test_tumor_truth_one_blob(self, size):
        img, truth = generate_phantom("tumor", 1, size)
        assert img.pixels.shape == truth.shape == (size, size)
        pixels = [(int(x), int(y)) for y, x in np.argwhere(truth)]
        assert pixels
        assert connected_components_8(pixels) == 1

    @pytest.mark.parametrize("size", [256, 513, 700])
    def test_multi_truth_marks_textured_blob_only(self, size):
        img, truth = generate_phantom("multi", 1, size)
        assert img.pixels.shape == truth.shape == (size, size)
        pixels = [(int(x), int(y)) for y, x in np.argwhere(truth)]
        assert connected_components_8(pixels) == 1
        xs = [x for x, _ in pixels]
        assert max(xs) < size // 2  # textured blob sits on the left

    def test_blob_darker_than_background(self):
        img, truth = generate_phantom("tumor", 2, 256)
        inside = img.pixels[truth].mean()
        outside = img.pixels[~truth].mean()
        assert inside < outside - 30

    def test_pixel_range_and_dtype(self):
        img, _ = generate_phantom("multi", 4, 128)
        assert img.pixels.dtype == np.uint8

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            generate_phantom("weird", 1, 128)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            generate_phantom("blank", 1, 32)

    def test_blank_is_smooth(self):
        img, _ = generate_phantom("blank", 1, 128)
        assert int(img.pixels.max()) - int(img.pixels.min()) < 16
