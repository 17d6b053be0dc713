"""The benchmark's per-layer tracer still fits the pipeline it wraps.

``bench/tracing.py`` wraps pipeline functions by name and derives counts
from their calls (one ``blanket_dimension`` call per fitted region, one
``compute_features`` call per detection). A refactor that renames a hooked
function or stops calling it per region would silently break those
metrics; these tests run the tracer, unchanged, around ``run_batch``. The
bench's own modules must import and its workload configs validate, or every
bench run fails.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mammocad.image import haar_downsample, negate, write_pgm
from mammocad.phantom import generate_phantom
from mammocad.pipeline import EMIT_CHOICES, PipelineConfig, run_batch
from mammocad.segment import segment_image
from mammocad.threshold import apply_threshold, histogram, otsu_threshold

from oracles import quadtree_split
from test_golden import box_noise

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def working(img, cfg):
    """The inverted working image and its foreground mask, from the stages directly."""
    if cfg.dwt_levels:
        img = haar_downsample(img, cfg.dwt_levels)
    inverted = negate(img)
    return inverted, apply_threshold(inverted, otsu_threshold(histogram(inverted)))


def fitted_regions(img, cfg):
    """Regions of at least ``min_region_pixels``, from the stages directly."""
    inverted, mask = working(img, cfg)
    labels = segment_image(inverted, mask, cfg.tau_split, cfg.tau_merge).labels
    return int((np.bincount(labels.ravel())[1:] >= cfg.min_region_pixels).sum())


def test_hooked_names_resolve(tracing):
    for mod, name, *_ in tracing.TIMED + tracing.COUNTED:
        assert callable(getattr(mod, name)), f"{mod.__name__}.{name}"


@pytest.mark.parametrize(
    "name,make,levels",
    [
        ("noise", lambda: box_noise(7, 64), 0),
        ("tumor", lambda: generate_phantom("tumor", 1, 1024)[0], 3),
    ],
)
def test_traced_counts_and_closure(tracing, tmp_path, name, make, levels):
    img = make()
    path = tmp_path / f"{name}.pgm"
    write_pgm(img, path)
    cfg = PipelineConfig(dwt_levels=levels, output_dir=tmp_path / "out", emit=EMIT_CHOICES)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        tracer.begin(name)
        [report] = run_batch([path], cfg)
        tracer.end()
    row = tracer.per_image()[name]
    # The tracer counts leaves as len(split(...)): one per (x, y, w, h) row.
    inverted, mask = working(img, cfg)
    assert row["leaves"] == len(
        quadtree_split(inverted.pixels, mask.bits, cfg.tau_split)
    )
    assert row["fits"] == fitted_regions(img, cfg)
    assert row["fits"] > 0
    assert row["features"] == len(report.detections) > 0
    assert row["regions"] == report.region_count_pre_gate
    # fractal.kept_frac and classify.tumors come from these two counts.
    assert row["kept"] == report.region_count_post_gate
    assert row["tumors"] == sum(det.label == "tumor" for det in report.detections)
    # The pipeline builds its regions in extract_regions, so their time is
    # the extract layer's and not pipeline.self_ms.
    assert row["segment.extract_ms"] > 0
    # The merge scan runs inside segment.merge, the function the tracer times.
    assert row["segment.merge_ms"] > 0
    assert abs(row["unaccounted_ms"]) <= 1e-6 * max(1.0, row["total_ms"])


def test_bench_imports_and_workload_configs_validate(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(TRACING.parent))
    import record_golden  # noqa: F401
    import run  # noqa: F401
    import worker  # noqa: F401
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        # As bench/worker.py builds it.
        PipelineConfig(output_dir=tmp_path, **workload.config).validate()
