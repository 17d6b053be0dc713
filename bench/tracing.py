"""Per-layer tracing from outside the program.

``instrument`` wraps the layers' public functions where the pipeline looks
them up (``mammocad.pipeline`` and ``mammocad.segment`` module globals) and
restores them on exit. Spans and counts stay in memory; the caller writes
them once when the run ends.
"""

import os
import statistics
import time
from contextlib import contextmanager
from functools import wraps

import mammocad.pipeline
import mammocad.segment

ROOT = "run_batch"

# (module, function, per-layer metric its span time goes to)
TIMED = (
    (mammocad.pipeline, "read_pgm", "image.read_ms"),
    (mammocad.pipeline, "haar_downsample", "image.downsample_ms"),
    (mammocad.pipeline, "write_pgm", "image.write_ms"),
    (mammocad.pipeline, "write_region_map_pgm", "image.write_ms"),
    (mammocad.pipeline, "histogram", "threshold.ms"),
    (mammocad.pipeline, "otsu_threshold", "threshold.ms"),
    (mammocad.pipeline, "apply_threshold", "threshold.ms"),
    (mammocad.segment, "split", "segment.split_ms"),
    (mammocad.segment, "merge", "segment.merge_ms"),
    (mammocad.pipeline, "extract_regions", "segment.extract_ms"),
    (mammocad.pipeline, "overlay_boundaries", "segment.overlay_ms"),
    (mammocad.pipeline, "blanket_dimension", "fractal.blanket_ms"),
    (mammocad.pipeline, "gradient_map", "features.ms"),
    (mammocad.pipeline, "compute_features", "features.ms"),
    (mammocad.pipeline, "classify", "classify.ms"),
    (mammocad.pipeline, "report_json", "pipeline.serialize_ms"),
    (mammocad.pipeline, "features_csv", "pipeline.serialize_ms"),
)

# (module, function, count name, value from (args, result)); evaluated in
# Tracer.end after the root span closes, so counting adds to no span.
COUNTED = (
    (mammocad.pipeline, "read_pgm", "read_bytes", lambda a, r: os.path.getsize(a[0])),
    (mammocad.pipeline, "apply_threshold", "foreground", lambda a, r: r.foreground_count),
    (mammocad.pipeline, "apply_threshold", "pixels", lambda a, r: r.bits.size),
    (mammocad.segment, "split", "leaves", lambda a, r: len(r)),
    (mammocad.segment, "merge", "regions", lambda a, r: r.region_count),
    (mammocad.pipeline, "blanket_dimension", "fits", lambda a, r: 1),
    (mammocad.pipeline, "roughness_gate", "kept", lambda a, r: len(r)),
    (mammocad.pipeline, "compute_features", "features", lambda a, r: 1),
    (mammocad.pipeline, "classify", "tumors", lambda a, r: r.label == "tumor"),
)

MS_METRICS = sorted({metric for _, _, metric in TIMED}) + ["pipeline.self_ms"]
RAW_COUNTS = sorted({count for _, _, count, _ in COUNTED})
# Counts that depend on the input alone, so they must repeat exactly.
COUNT_NAMES = ("leaves", "regions", "fits", "features", "tumors")
LAYER_UNITS = dict.fromkeys(MS_METRICS, "ms") | {
    "image.read_mb": "MB",
    "threshold.fg_frac": "fraction",
    "segment.leaves": "count",
    "segment.regions": "count",
    "fractal.fits": "count",
    "fractal.kept_frac": "fraction",
    "features.regions": "count",
    "classify.tumors": "count",
    "trace.overhead_ms": "ms",
}


class Tracer:
    """Spans as [name, start, end, parent index, image id], plus raw counts."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # image id -> {count name: total}
        self.pending = []  # (count name, fn, args, result) of the open image
        self._stack = []
        self.image = None

    def begin(self, image):
        """Open the root span of one ``run_batch`` call on ``image``."""
        self.image = image
        self._root = self.open(ROOT)

    def end(self):
        """Close the root span, then evaluate the image's counts."""
        self.close(self._root)
        counts = self.counts.setdefault(self.image, dict.fromkeys(RAW_COUNTS, 0))
        for count, fn, args, result in self.pending:
            counts[count] += int(fn(args, result))
        self.pending.clear()
        self.image = None

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.image])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def per_image(self):
        """{image id: {metric or count: value}} from spans and counts."""
        metric_of = {f"{mod.__name__}.{fn}": metric for mod, fn, metric in TIMED}
        out = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, parent, image) in enumerate(self.spans):
            row = out.setdefault(image, {m: 0.0 for m in MS_METRICS})
            self_ms = (end - start - child_time[i]) * 1000.0
            if name == ROOT:
                row["pipeline.self_ms"] += self_ms
                row["total_ms"] = (end - start) * 1000.0
            else:
                row[metric_of[name]] += self_ms
        for image, counts in self.counts.items():
            out[image].update(counts)
        for row in out.values():
            row["unaccounted_ms"] = row["total_ms"] - sum(row[m] for m in MS_METRICS)
        return out

    def spans_json(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "image": i}
            for n, s, e, p, i in self.spans
        ]


def _wrapped(tracer, fn, qualname, timed, counts):
    @wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(qualname) if timed else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if index is not None:
                tracer.close(index)
        for count, value in counts:
            tracer.pending.append((count, value, args, result))
        return result

    return traced


@contextmanager
def instrument(tracer):
    """Wrap every TIMED and COUNTED function for the duration of the block."""
    targets = {}
    for mod, fn, _ in TIMED:
        targets.setdefault((mod, fn), [True, []])
    for mod, fn, count, value in COUNTED:
        targets.setdefault((mod, fn), [False, []])[1].append((count, value))
    originals = {key: getattr(*key) for key in targets}
    try:
        for (mod, fn), (timed, counts) in targets.items():
            qualname = f"{mod.__name__}.{fn}"
            setattr(mod, fn, _wrapped(tracer, originals[mod, fn], qualname, timed, counts))
        yield
    finally:
        for (mod, fn), original in originals.items():
            setattr(mod, fn, original)
    leftover = [key for key, original in originals.items() if getattr(*key) is not original]
    if leftover:
        raise RuntimeError(f"wrappers not restored: {leftover}")


def layer_metrics(rows):
    """Per-layer metrics as medians over per-image rows (see README.md).

    A fraction with a zero base on an image skips that image; a metric with
    no image to take it from is 0.
    """

    def med(fn):
        values = [v for v in (fn(r) for r in rows) if v is not None]
        return statistics.median(values) if values else 0.0

    metrics = {name: med(lambda r, n=name: r[n]) for name in MS_METRICS}
    metrics.update(
        {
            "image.read_mb": med(lambda r: r["read_bytes"] / 1e6),
            "threshold.fg_frac": med(lambda r: r["foreground"] / r["pixels"]),
            "segment.leaves": med(lambda r: r["leaves"]),
            "segment.regions": med(lambda r: r["regions"]),
            "fractal.fits": med(lambda r: r["fits"]),
            "fractal.kept_frac": med(lambda r: r["kept"] / r["fits"] if r["fits"] else None),
            "features.regions": med(lambda r: r["features"]),
            "classify.tumors": med(lambda r: r["tumors"]),
        }
    )
    return metrics
