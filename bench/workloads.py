"""The benchmark's workloads: seeded inputs and the config each one runs.

Every input is a pure function of the workload seed, so a seed names one
fixed set of PGM files. Files are written by this module's own writers, not
by ``mammocad.write_pgm``, so a change to the program cannot change its
inputs.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mammocad.phantom import generate_phantom

ALL_ARTIFACTS = ("inverted", "mask", "labels", "overlay", "features", "report")
ARTIFACT_SUFFIX = {
    "inverted": "_inverted.pgm",
    "mask": "_mask.pgm",
    "labels": "_labels.pgm",
    "overlay": "_overlay.pgm",
    "features": "_features.csv",
    "report": "_report.json",
}

TEXTURED_SIZE = 192  # ~5800 regions after merge; 512 px takes ~10 s per image
TEXTURED_BOX = 3  # box-filter side; wider boxes give fewer, larger regions


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # PipelineConfig keyword arguments, output_dir aside
    make_images: Callable[[int], list[tuple[str, np.ndarray]]]  # seed -> (stem, pixels)
    ascii: bool = False  # store inputs as P2 instead of P5


def phantom_cycle(kinds, size):
    """Phantoms of ``kinds`` in order; image i uses phantom seed 100*seed + i."""

    def make(seed):
        return [
            (f"{kind}_{i}", generate_phantom(kind, 100 * seed + i, size)[0].pixels)
            for i, kind in enumerate(kinds)
        ]

    return make


def textured_images(seed, count=4, size=TEXTURED_SIZE, box=TEXTURED_BOX):
    """Uniform noise smoothed by a ``box`` x ``box`` mean: thousands of regions."""
    images = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        noise = rng.integers(0, 256, (size + box - 1, size + box - 1))
        c = np.pad(noise.cumsum(0).cumsum(1), ((1, 0), (1, 0)))
        sums = c[box:, box:] - c[:-box, box:] - c[box:, :-box] + c[:-box, :-box]
        mean = (2 * sums + box * box) // (2 * box * box)  # rounded half up
        images.append((f"noise_{i}", mean.astype(np.uint8)))
    return images


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "screen",
            {"emit": ALL_ARTIFACTS},
            phantom_cycle(("blank", "tumor", "multi") * 2, 1024),
        ),
        Workload(
            "ingest-p2",
            {"emit": ("report",)},
            # 512 px: a 1024 px P2 file takes ~3 s to parse, too few repeats
            # per run for a steady figure; the parser's share stays ~98 %.
            phantom_cycle(("blank", "tumor", "multi"), 512),
            ascii=True,
        ),
        Workload(
            "textured",
            {"dwt_levels": 0, "emit": ("report", "features", "labels")},
            textured_images,
        ),
    )
}

WARM_STEM = "warm"


def warm_image() -> np.ndarray:
    """Small image that loads every code path once before timing starts."""
    return generate_phantom("tumor", 0, 64)[0].pixels


_P2_TOKENS = [str(v).encode("ascii") for v in range(256)]


def pgm_bytes(pixels: np.ndarray, ascii: bool) -> bytes:
    """P5, or P2 with 17 samples per line, at maxval 255."""
    height, width = pixels.shape
    header = f"{'P2' if ascii else 'P5'}\n{width} {height}\n255\n".encode("ascii")
    if not ascii:
        return header + pixels.tobytes()
    flat = pixels.ravel().tolist()
    lines = (
        b" ".join([_P2_TOKENS[v] for v in flat[i : i + 17]])
        for i in range(0, len(flat), 17)
    )
    return header + b"\n".join(lines) + b"\n"


def write_inputs(workload: Workload, seed: int, directory: Path) -> list[Path]:
    """Generate and write the workload's inputs; returns their paths in cycle order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, pixels in [(WARM_STEM, warm_image())] + workload.make_images(seed):
        path = directory / f"{stem}.pgm"
        path.write_bytes(pgm_bytes(pixels, workload.ascii))
        paths.append(path)
    return paths
