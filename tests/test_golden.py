"""Golden fingerprints that pin the pipeline's outputs byte for byte.

Each case runs the whole pipeline and hashes the JSON report, the label map
PGM, the feature CSV and the boundary overlay PGM. The report file must read
exactly as ``json.dumps(report, indent=2)`` plus a newline; its hash is taken
of that text re-written with ``timings`` removed. A hash may change only in a
change that says why.
"""

import json
from hashlib import sha256

import numpy as np
import pytest

from mammocad.image import GrayImage
from mammocad.phantom import generate_phantom
from mammocad.pipeline import PipelineConfig, run_pipeline


def box_noise(seed, size, box=3):
    """Uniform noise smoothed by a ``box`` x ``box`` mean, rounded half up."""
    rng = np.random.default_rng(seed)
    noise = rng.integers(0, 256, (size + box - 1, size + box - 1))
    c = np.pad(noise.cumsum(0).cumsum(1), ((1, 0), (1, 0)))
    sums = c[box:, box:] - c[:-box, box:] - c[box:, :-box] + c[:-box, :-box]
    return GrayImage(((2 * sums + box * box) // (2 * box * box)).astype(np.uint8))


def corner_tumor():
    """The 128 px tumor phantom cropped so its blob touches the top and left edges."""
    return GrayImage(generate_phantom("tumor", 1, 128)[0].pixels[58:, 58:].copy())


def band_tumor():
    """The 128 px tumor phantom cropped to 9 rows, so its blob touches the top and bottom."""
    return GrayImage(generate_phantom("tumor", 1, 128)[0].pixels[60:69, 40:90].copy())


def column_tumor():
    """The 128 px tumor phantom cropped to 9 columns, so its blob touches the left and right."""
    return GrayImage(generate_phantom("tumor", 1, 128)[0].pixels[40:90, 60:69].copy())


def far_corner_tumor():
    """The 128 px tumor phantom cropped so its blob touches the bottom and right edges."""
    return GrayImage(generate_phantom("tumor", 1, 128)[0].pixels[:70, :70].copy())


# name -> (image factory, config overrides, report, labels, features, overlay sha256)
CASES = {
    "blank_256": (
        lambda: generate_phantom("blank", 1, 256)[0],
        {},
        "31d0229f663a9341d587ffb5227e0fb326e795b74862d680c49cec0c527f1f8f",
        "3c67d1c688ea8d5d7debeb94b6062dcb59be12f01e25e32989622f8a8795043c",
        "6edae4b181937d0f64b7cc7d5b9125e8de6d47cce533c87360539dfc802b80ed",
        "1d4c6fa6995033e4f29ffdefd5f5c5080a9fe56dc2eb8dff28d31a48e00bce6c",
    ),
    "tumor_256": (
        lambda: generate_phantom("tumor", 1, 256)[0],
        {},
        "dddcd6acf9bca1ea0c51a14be43e7f29a96b46cbe9be3e4d7f2ffb144834fc61",
        "441b10cc9b73948afbd16d1fc3f76a99113fa59f07b68467eb39466f4eaea8d0",
        "6edae4b181937d0f64b7cc7d5b9125e8de6d47cce533c87360539dfc802b80ed",
        "ead57187d5b2562d03bf210f81c664f4e910e3c8817a020371587c3af414f227",
    ),
    "multi_256": (
        lambda: generate_phantom("multi", 1, 256)[0],
        {},
        "8cd170dd21d445137556fdf73156f660505e02942ba2f3bc34ea5823850b08b2",
        "746c1d96faf8c4ed7fc2d5144f758670eafb9ed099e99e5476bcfe303ccda88b",
        "6edae4b181937d0f64b7cc7d5b9125e8de6d47cce533c87360539dfc802b80ed",
        "68db76aea04d60fd0108a4d112b525f6aaa7b496ce7634cea163122fa6ca85c5",
    ),
    "tumor_128_l0": (
        lambda: generate_phantom("tumor", 1, 128)[0],
        {"dwt_levels": 0},
        "42680406803f632aa17b8beb58bf72a32dcd515a2e86b231f53c107142d6f2d1",
        "bd5087d8f7d6629be1322e31d42566bab89e71b9ce4f04eb509d923465b35b22",
        "c6e4bf926fbd13f26404b5b9632ab0c412bc1c3042109735d9fdf3bf30392029",
        "f8c7c937c9578f036ec354b7b5090fcebf00576e55064346ecafd4b2c6c20f5b",
    ),
    "noise_64_l0": (
        lambda: box_noise(7, 64),
        {"dwt_levels": 0},
        "ed77e35b1864e883e262f273cf1ee5584ebe562ee5bbd1404a00931113a72fb6",
        "063c8c3c0aed2e5b79876c8c0fefb796bb6ec712a9977a43a19120e48a48aac5",
        "0f63aec2dac9b1a85b150947ebf18351f8d141810b055dc77b6898abb5c62c31",
        "04dd8a59d5ce2bc4d5c96c52f9212c9a801a159f00b923c6c457c96e59b2e0e3",
    ),
    # ~2000 regions: every per-region table at scale.
    "noise_112_l0": (
        lambda: box_noise(11, 112),
        {"dwt_levels": 0},
        "cfc1412948d0e8e8d80bb47ba443a23cf952b8b98652f58a81d0a83fa8146b5e",
        "98de0618bdf1f0984ff5587617db8484edfa78b98802bd28a2e0be1768ec2727",
        "40822efdef23fd5bc554110e61035976499f6ca3d12151167e74c37f2e83e2ea",
        "dd2e85f3380e03ec45f18357f672b7894a3807875dbf05e16d879747e29bacf6",
    ),
    # More than 8 fit points, so numpy's sums run their pairwise blocks.
    "noise_64_l0_r12": (
        lambda: box_noise(7, 64),
        {"dwt_levels": 0, "r_max": 12},
        "d3b88e6e11c9b69cf20946f6f9f725879a94d50e35a2c754bb955808c5d98070",
        "063c8c3c0aed2e5b79876c8c0fefb796bb6ec712a9977a43a19120e48a48aac5",
        "4eff5cbede603747a22c16e9e3d60c59802cdedcf5e480f088f1078af5361cf9",
        "04dd8a59d5ce2bc4d5c96c52f9212c9a801a159f00b923c6c457c96e59b2e0e3",
    ),
    # Dense full resolution: the root block is the only leaf, 982 regions.
    "blank_256_l0": (
        lambda: generate_phantom("blank", 1, 256)[0],
        {"dwt_levels": 0},
        "2ab4b7d50df7388f70ff379f6b536880fbe89d905fbd900ff0915695f931873e",
        "b81114af881ae6460958a2c28095edca671e74cda029318bb48d8e8f02e97ace",
        "6edae4b181937d0f64b7cc7d5b9125e8de6d47cce533c87360539dfc802b80ed",
        "b9379ce56ed04d9dd37f5785edbaa2ac84d39bcaa2f69b8b5684cfea3c028481",
    ),
    # Full resolution at 512 px: the working image is the phantom itself.
    "tumor_512_l0": (
        lambda: generate_phantom("tumor", 1, 512)[0],
        {"dwt_levels": 0},
        "1294404122d54396c178d648d174c51a09125b34bd27b4749b9a2f507dc2bf6c",
        "ab4c01bc12001eeffc7e09bf9958ab50e8c558ed7dcdaa4b95a9e2bc3877625c",
        "ef99b2f650c247b01aadd20829d30731876cfdca0dd9c604fadf78f75ddd8e4d",
        "6ae85aa380e86810539ca069dd3bf011d1da8f77e6324159a3317aae3ba459b4",
    ),
    # The detected blob's foreground touches the image border on two sides.
    "tumor_corner_l0": (
        corner_tumor,
        {"dwt_levels": 0},
        "2538f625009454b51b6c0875842925028cdd534433f9c98ad3754ac2ccde8a9c",
        "ab03fc6d6e5776491e7d2a8dba4d9ccfad28f472e595a736ce2938da1d703e70",
        "26bfe37d57bdbcc9013503c6ccf3f53f47ebfe32fe535cdf7db015b165d72c73",
        "e4a7c974da42237b9ca66d02b7ba6d3e72a47a886512cc6c37ea2416e3d9eac9",
    ),
    # The gated foreground touches two opposite borders: its window spans the image's height.
    "tumor_band_l0": (
        band_tumor,
        {"dwt_levels": 0},
        "022de87c6714a121fab7d8669cd4f45fb1bb4d721bf275ad9bcf22d421821d1a",
        "dd9cc2c24b188253873677426ed87ee3a94c6c4e3936ad6353516a7fa72a3a5f",
        "cf9cf1101a444e588227e6cc8f15b55b3dd5c66da4a1edf8ecfb5a75e56ecb80",
        "f64fe6ee076192a068d6b07d7b2c475faee33a582480165d4826e714255a2387",
    ),
    # The same across the other axis: its window spans the image's width.
    "tumor_column_l0": (
        column_tumor,
        {"dwt_levels": 0},
        "89c8a44f4b960953aac44184da31f35b6d889af90ec72445bbe52723d88fb939",
        "f93070a525fff863694f8446d60a9463eaf1dde6798cb7d67b627ed4c7527435",
        "66ab9fc15c38e63f0515154c63e479e2bff3bf0274170e5af9046315ad9e336d",
        "3dbbff087ca6f78e336cb10e103b3471e43931e73fce6f50a72fb41f2be88e2d",
    ),
    # The two borders neither crop above touches: row and column halvings differ.
    "tumor_far_corner_l0": (
        far_corner_tumor,
        {"dwt_levels": 0},
        "56a1766c4b2316850a01c4907c8d2dff75e99cc96c6d72b80f6e4d711ca744af",
        "bf88b1fdb2d6e88cef77693555c8116631bde598f46ea72494438845b7c7a6e6",
        "ee48b954973233f848f1beb9b6453d48aa8f40be64917fd00ce764542b8a6e4b",
        "38e9c9ff005b60115d4e11bc8ea43bfcc65c93a2f43b3977fffaf2ea94317b79",
    ),
}


# Artifacts hashed after the report: emit name -> file name suffix.
ARTIFACTS = {"labels": "labels.pgm", "features": "features.csv", "overlay": "overlay.pgm"}


def fingerprints(name, tmp_path):
    make, overrides, *_ = CASES[name]
    cfg = PipelineConfig(output_dir=tmp_path, emit=("report", *ARTIFACTS), **overrides)
    run_pipeline(make(), cfg, source=f"{name}.pgm")
    text = (tmp_path / f"{name}_report.json").read_text(encoding="utf-8")
    report = json.loads(text)
    assert text == json.dumps(report, indent=2) + "\n"
    report.pop("timings")
    report_bytes = (json.dumps(report, indent=2) + "\n").encode("utf-8")
    files = [(tmp_path / f"{name}_{suffix}").read_bytes() for suffix in ARTIFACTS.values()]
    return tuple(sha256(data).hexdigest() for data in [report_bytes, *files])


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_fingerprints(name, tmp_path):
    _, _, *hashes = CASES[name]
    assert fingerprints(name, tmp_path) == tuple(hashes)


def gated_foreground(make, tmp_path):
    """The pixels of the detected regions of ``make()`` at full resolution."""
    img = make()
    cfg = PipelineConfig(dwt_levels=0, output_dir=tmp_path, emit=("labels",))
    report = run_pipeline(img, cfg, source="crop.pgm")
    assert report.region_count_pre_gate <= 255  # one byte per label
    raw = (tmp_path / "crop_labels.pgm").read_bytes()
    labels = np.frombuffer(raw[-img.pixels.size :], np.uint8).reshape(img.pixels.shape)
    assert [det.label for det in report.detections] == ["tumor"]
    return np.isin(labels, [det.region_id for det in report.detections])


def test_band_gated_foreground_touches_top_and_bottom(tmp_path):
    gated = gated_foreground(band_tumor, tmp_path)
    assert gated[0].any() and gated[-1].any()


def test_column_gated_foreground_touches_left_and_right(tmp_path):
    gated = gated_foreground(column_tumor, tmp_path)
    assert gated[:, 0].any() and gated[:, -1].any()


def test_far_corner_gated_foreground_touches_bottom_and_right(tmp_path):
    gated = gated_foreground(far_corner_tumor, tmp_path)
    assert gated[-1].any() and gated[:, -1].any()
