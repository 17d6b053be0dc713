"""Acceptance suite: one test per release criterion, each printing PASS.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import json
import math
import time

import numpy as np

from mammocad.features import gradient_map
from mammocad.fractal import (
    blanket_area_table,
    blanket_dimension,
    box_count_dimension,
    fit_dimension,
)
from mammocad.image import GrayImage, haar_downsample, read_pgm, write_pgm
from mammocad.phantom import generate_phantom
from mammocad.pipeline import PipelineConfig, run_batch, run_pipeline
from mammocad.segment import RegionMap, segment_image
from mammocad.threshold import BinaryMask, otsu_threshold

from oracles import diamond_square, naive_features, otsu_sweep, region_geometry
from test_features import features_of
from test_fractal import full_map

ALL_ARTIFACTS = ("inverted", "mask", "labels", "overlay", "features", "report")


def _pass(number, message):
    print(f"PASS criterion {number}: {message}")


def hist_from_counts(counts):
    return np.asarray(counts, dtype=np.int64)


def working_truth(truth):
    h, w = truth.shape
    return truth.reshape(h // 8, 8, w // 8, 8).mean(axis=(1, 3)) > 0.5


def map_from_labels_pgm(path):
    labels = read_pgm(path).pixels.astype(np.int32)
    return RegionMap(labels, int(labels.max()))


def test_criterion_1_pyramid_size_law():
    rng = np.random.default_rng(0)
    img = GrayImage(rng.integers(0, 256, (1024, 1024)).astype(np.uint8))
    start = time.perf_counter()
    out = haar_downsample(img, 3)
    elapsed = time.perf_counter() - start
    assert (out.width, out.height) == (128, 128)
    assert elapsed < 1.0
    _pass(1, f"1024x1024 -> {out.width}x{out.height} at levels=3 in {elapsed * 1000:.1f} ms")


def test_criterion_2_flat_surface_and_exact_fit():
    img = GrayImage(np.full((16, 16), 123, np.uint8))
    fit = blanket_dimension(blanket_area_table(img, full_map(img), [1]), 1)
    assert abs(fit.dimension - 2.0) <= 1e-9
    for d0 in (2.4, 2.75):
        scales = list(range(1, 9))
        areas = [5.0 * r ** (2.0 - d0) for r in scales]
        recovered = fit_dimension(scales, areas).dimension
        assert abs(recovered - d0) <= 1e-9, d0
    _pass(2, f"flat region D={fit.dimension!r}; power laws recover 2.4 and 2.75 within 1e-9")


def test_criterion_3_fractal_oracle_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    flat = GrayImage(np.full((64, 64), 100, np.uint8))
    ramp = GrayImage(np.tile(np.arange(64, dtype=np.uint8) * 3, (64, 1)))
    ramp_noise = GrayImage(
        np.clip(ramp.pixels.astype(int) + rng.integers(-6, 7, (64, 64)), 0, 255).astype(
            np.uint8
        )
    )
    noise = GrayImage(rng.integers(0, 256, (64, 64)).astype(np.uint8))
    midpoint = GrayImage(diamond_square(6, 0.5, rng)[:64, :64])

    dims = {}
    worst = 0.0
    for name, img in [
        ("flat", flat),
        ("ramp", ramp),
        ("ramp_noise", ramp_noise),
        ("noise", noise),
        ("midpoint", midpoint),
    ]:
        rm = full_map(img)
        d_blanket = blanket_dimension(blanket_area_table(img, rm, [1]), 1).dimension
        d_box = box_count_dimension(img, rm, 1)
        gap = abs(d_blanket - d_box)
        assert gap <= 0.3, (name, d_blanket, d_box)
        dims[name] = d_blanket
        worst = max(worst, gap)
    assert dims["flat"] < dims["ramp_noise"] < dims["noise"]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _pass(3, f"max |blanket - boxcount| = {worst:.3f} <= 0.3; ordering holds; {elapsed:.2f} s")


def test_criterion_4_otsu_brute_force_equivalence():
    rng = np.random.default_rng(42)
    cases = []
    for _ in range(70):  # dense uniform counts
        cases.append(rng.integers(0, 40, 256))
    for _ in range(70):  # sparse histograms
        counts = np.zeros(256, dtype=np.int64)
        bins = rng.integers(0, 256, rng.integers(2, 10))
        for b in bins:
            counts[b] += int(rng.integers(1, 200))
        cases.append(counts)
    for _ in range(60):  # bimodal mixtures
        counts = np.zeros(256, dtype=np.int64)
        for center, spread, mass in ((60, 10, 300), (180, 14, 260)):
            samples = np.clip(np.rint(rng.normal(center, spread, mass)), 0, 255)
            for v in samples.astype(int):
                counts[v] += 1
        cases.append(counts)
    # Edge cases: two-delta pairs and constants.
    for a, b in ((0, 255), (50, 200), (117, 118), (0, 1), (254, 255)):
        counts = np.zeros(256, dtype=np.int64)
        counts[a], counts[b] = 10, 7
        cases.append(counts)
    for v in (0, 7, 255):
        counts = np.zeros(256, dtype=np.int64)
        counts[v] = 5
        cases.append(counts)

    checked = 0
    for counts in cases:
        if counts.sum() == 0:
            continue
        hist = hist_from_counts(counts)
        assert otsu_threshold(hist) == otsu_sweep(counts), counts.nonzero()
        checked += 1
    assert checked >= 200
    _pass(4, f"{checked} histograms match the exhaustive sweep exactly")


def test_criterion_5_segmentation_invariants():
    rng = np.random.default_rng(3)
    for case in range(100):
        side = int(rng.integers(8, 20))
        img = GrayImage(rng.integers(0, 256, (side, side)).astype(np.uint8))
        mask = BinaryMask(rng.random((side, side)) < 0.45, 0)
        rm = segment_image(img, mask)
        assert ((rm.labels > 0) == mask.bits).all(), case
        sums, counts = {}, {}
        for y in range(side):
            for x in range(side):
                rid = int(rm.labels[y, x])
                if rid:
                    sums[rid] = sums.get(rid, 0) + int(img.pixels[y, x])
                    counts[rid] = counts.get(rid, 0) + 1
        assert set(sums) == set(range(1, rm.region_count + 1))
        means = {rid: sums[rid] / counts[rid] for rid in sums}
        for y in range(side):
            for x in range(side):
                a = int(rm.labels[y, x])
                if not a:
                    continue
                for dx, dy in ((1, 0), (0, 1)):
                    if x + dx < side and y + dy < side:
                        b = int(rm.labels[y + dy, x + dx])
                        if b and b != a:
                            assert abs(means[a] - means[b]) > 10, case

    pix = np.zeros((8, 8), np.uint8)
    pix[:, 4:] = 255
    rm = segment_image(GrayImage(pix), BinaryMask(np.ones((8, 8), bool), 0))
    assert rm.region_count == 2
    _pass(5, "100 random partitions valid and merge-maximal; half/half 8x8 gives 2 regions")


def test_criterion_6_feature_hand_values_and_oracles():
    # 3x3 solid square: brute force over its 8 boundary pixels.
    img3 = GrayImage(np.full((3, 3), 1, np.uint8))
    (record3,) = region_geometry(full_map(img3).labels)
    dists = [math.hypot(x - 1.0, y - 1.0) for x, y in record3.boundary]
    d_mean = sum(dists) / len(dists)
    brute_edv = sum((d - d_mean) ** 2 for d in dists) / len(dists) / d_mean
    got_edv = features_of(img3, full_map(img3), 1).edge_distance_variance
    assert abs(got_edv - brute_edv) <= 1e-6
    assert abs(got_edv - 0.0355339059) <= 1e-6

    pix = np.zeros((1, 2), np.uint8)
    pix[0, 1] = 2
    img2 = GrayImage(pix)
    assert abs(features_of(img2, full_map(img2), 1).gray_std - 1.0) <= 1e-6

    pix = np.full((5, 5), 100, np.uint8)
    for x, y in ((2, 2), (1, 2), (3, 2), (2, 1), (2, 3)):
        pix[y, x] = 200
    imgd = GrayImage(pix)
    rm = segment_image(imgd, BinaryMask(imgd.pixels > 150, 150))
    assert rm.region_count == 1
    assert abs(features_of(imgd, rm, 1).intensity_diff - 100.0) <= 1e-6

    ramp = GrayImage(np.tile(np.arange(8, dtype=np.uint8), (8, 1)))
    bits = np.zeros((8, 8), bool)
    bits[2:6, 2:6] = True
    rm = segment_image(ramp, BinaryMask(bits, 0), tau_split=255, tau_merge=255)
    assert rm.region_count == 1
    assert abs(features_of(ramp, rm, 1).mean_gradient - 1.0) <= 1e-6

    rng = np.random.default_rng(17)
    blobs = 0
    while blobs < 100:
        img = GrayImage(rng.integers(0, 256, (10, 10)).astype(np.uint8))
        mask = BinaryMask(rng.random((10, 10)) < 0.5, 0)
        rm = segment_image(img, mask, tau_split=255, tau_merge=255)
        grad = gradient_map(img)
        for record in region_geometry(rm.labels):
            if len(record.pixels) < 2 or blobs >= 100:
                continue
            got = features_of(img, rm, record.id)
            want = naive_features(record, img, grad)
            for name, value in want.items():
                assert abs(getattr(got, name) - value) <= 1e-9, name
            blobs += 1
    _pass(6, f"hand values match (Edv={got_edv:.6f}); {blobs} blobs match naive oracles to 1e-9")


def test_criterion_7_end_to_end_phantoms(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "out"
    cfg = PipelineConfig(output_dir=out, emit=ALL_ARTIFACTS)

    img, truth = generate_phantom("tumor", 1, 1024)
    report = run_pipeline(img, cfg, source="tumor.pgm")
    tumors = [d for d in report.detections if d.label == "tumor"]
    assert len(tumors) == 1
    labels = map_from_labels_pgm(out / "tumor_labels.pgm").labels
    truth8 = working_truth(truth)
    hit = labels == tumors[0].region_id
    overlap = (hit & truth8).sum() / truth8.sum()
    assert overlap >= 0.8

    blank, _ = generate_phantom("blank", 1, 1024)
    blank_report = run_pipeline(blank, PipelineConfig(output_dir=None))
    assert blank_report.detections == []

    multi, multi_truth = generate_phantom("multi", 1, 1024)
    multi_report = run_pipeline(multi, cfg, source="multi.pgm")
    multi_tumors = [d for d in multi_report.detections if d.label == "tumor"]
    assert len(multi_tumors) == 1
    inverted = read_pgm(out / "multi_inverted.pgm")
    region_map = map_from_labels_pgm(out / "multi_labels.pgm")
    truth8 = working_truth(multi_truth)
    kept = region_map.labels == multi_tumors[0].region_id
    assert (kept & truth8).sum() / truth8.sum() >= 0.8  # textured blob kept
    smooth_id = int(read_pgm(out / "multi_labels.pgm").pixels[64, 90])  # smooth blob center
    assert smooth_id > 0
    detected_ids = {d.region_id for d in multi_report.detections}
    assert smooth_id not in detected_ids  # dropped by the roughness gate
    smooth = blanket_area_table(inverted, region_map, [smooth_id])
    assert blanket_dimension(smooth, smooth_id).dimension < 2.4
    elapsed = time.perf_counter() - start
    _pass(
        7,
        f"tumor: 1 detection, overlap {overlap:.2f}; blank: 0; "
        f"multi: textured kept, smooth gated out; {elapsed:.2f} s",
    )


def test_criterion_8_batch_determinism(tmp_path):
    inputs = []
    for kind, seed in (("tumor", 1), ("multi", 2)):
        img, _ = generate_phantom(kind, seed, 1024)
        path = tmp_path / f"{kind}_{seed}.pgm"
        write_pgm(img, path)
        inputs.append(path)

    artifact_sets = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = PipelineConfig(output_dir=out, emit=ALL_ARTIFACTS)
        results = run_batch(inputs, cfg)
        assert all(not hasattr(r, "error") for r in results)
        artifacts = {}
        for path in sorted(out.iterdir()):
            if path.suffix == ".json":
                payload = json.loads(path.read_text())
                del payload["timings"]
                artifacts[path.name] = json.dumps(payload, indent=2)
            else:
                artifacts[path.name] = path.read_bytes()
        artifact_sets.append(artifacts)

    first, second = artifact_sets
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name
    _pass(8, f"{len(first)} artifacts byte-identical across two runs (timings excluded)")
