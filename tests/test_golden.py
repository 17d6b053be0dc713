"""Golden fingerprints that pin the pipeline's outputs byte for byte.

Each case runs the whole pipeline and hashes the JSON report with its
``timings`` removed (re-serialized the way ``report_json`` writes it) and
the label map PGM. A hash may change only in a change that says why.
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


# name -> (image factory, config overrides, report sha256, labels sha256)
CASES = {
    "blank_256": (
        lambda: generate_phantom("blank", 1, 256)[0],
        {},
        "31d0229f663a9341d587ffb5227e0fb326e795b74862d680c49cec0c527f1f8f",
        "3c67d1c688ea8d5d7debeb94b6062dcb59be12f01e25e32989622f8a8795043c",
    ),
    "tumor_256": (
        lambda: generate_phantom("tumor", 1, 256)[0],
        {},
        "dddcd6acf9bca1ea0c51a14be43e7f29a96b46cbe9be3e4d7f2ffb144834fc61",
        "441b10cc9b73948afbd16d1fc3f76a99113fa59f07b68467eb39466f4eaea8d0",
    ),
    "multi_256": (
        lambda: generate_phantom("multi", 1, 256)[0],
        {},
        "8cd170dd21d445137556fdf73156f660505e02942ba2f3bc34ea5823850b08b2",
        "746c1d96faf8c4ed7fc2d5144f758670eafb9ed099e99e5476bcfe303ccda88b",
    ),
    "tumor_128_l0": (
        lambda: generate_phantom("tumor", 1, 128)[0],
        {"dwt_levels": 0},
        "42680406803f632aa17b8beb58bf72a32dcd515a2e86b231f53c107142d6f2d1",
        "bd5087d8f7d6629be1322e31d42566bab89e71b9ce4f04eb509d923465b35b22",
    ),
    "noise_64_l0": (
        lambda: box_noise(7, 64),
        {"dwt_levels": 0},
        "ed77e35b1864e883e262f273cf1ee5584ebe562ee5bbd1404a00931113a72fb6",
        "063c8c3c0aed2e5b79876c8c0fefb796bb6ec712a9977a43a19120e48a48aac5",
    ),
}


def fingerprints(name, tmp_path):
    make, overrides, _, _ = CASES[name]
    cfg = PipelineConfig(output_dir=tmp_path, emit=("report", "labels"), **overrides)
    run_pipeline(make(), cfg, source=f"{name}.pgm")
    report = json.loads((tmp_path / f"{name}_report.json").read_text(encoding="utf-8"))
    report.pop("timings")
    report_bytes = (json.dumps(report, indent=2) + "\n").encode("utf-8")
    labels_bytes = (tmp_path / f"{name}_labels.pgm").read_bytes()
    return sha256(report_bytes).hexdigest(), sha256(labels_bytes).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_fingerprints(name, tmp_path):
    _, _, report_hash, labels_hash = CASES[name]
    assert fingerprints(name, tmp_path) == (report_hash, labels_hash)
