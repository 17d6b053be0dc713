"""Pipeline orchestration: config, stage sequencing, artifacts, reports.

Stage order is fixed: downsample (optional) -> negate -> threshold ->
segment -> fractal gate -> features -> classify. Every run of the same
config on the same input produces byte-identical artifacts apart from the
timing values embedded in the JSON report.
"""

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cache
from json.encoder import encode_basestring_ascii
from numbers import Integral, Real
from pathlib import Path

from .classify import Detection, RuleSet, classify, default_rules
from .errors import ConfigError, IoFailure, MammoCadError, PipelineStageError
from .features import FeatureVector, compute_features, feature_table, gradient_map
from .fractal import blanket_area_table, blanket_dimension, roughness_gate
from .image import GrayImage, haar_downsample, negate, read_pgm, write_bytes, write_pgm
from .segment import extract_regions, overlay_boundaries, segment_image, write_region_map_pgm
from .threshold import apply_threshold, histogram, mask_to_image, otsu_threshold

EMIT_CHOICES = ("inverted", "mask", "labels", "overlay", "features", "report")
# Between id and D, the columns are the FeatureVector fields in order.
CSV_HEADER = "id,area,cmp,mwg,mg,var,edv,diff,D,label"


@dataclass
class PipelineConfig:
    """All knobs for one pipeline run; defaults reproduce the standard run."""

    dwt_levels: int = 3
    dwt_first: bool = True
    threshold: int | str = "auto"
    tau_split: int = 10
    tau_merge: int = 10
    min_block: int = 1
    r_max: int = 8
    d_min: float = 2.4
    d_max: float = 2.75
    min_region_pixels: int = 8
    rule_overrides: dict = field(default_factory=dict)
    output_dir: Path | None = None
    emit: tuple[str, ...] = ("report", "features")

    def validate(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            _check_number(name, getattr(self, name), kind)
        if self.dwt_levels < 0:
            raise ConfigError("dwt_levels must be >= 0")
        if self.threshold != "auto":
            _check_number("threshold", self.threshold, Integral)
            if not 0 <= self.threshold <= 255:
                raise ConfigError("threshold must be 'auto' or an integer in [0, 255]")
        if self.tau_split < 0 or self.tau_merge < 0:
            raise ConfigError("tau_split and tau_merge must be >= 0")
        if self.min_block < 1:
            raise ConfigError("min_block must be >= 1")
        if self.r_max < 2:
            raise ConfigError("r_max must be >= 2")
        if not self.d_min < self.d_max:
            raise ConfigError("d_min must be < d_max")
        if self.min_region_pixels < 2:
            raise ConfigError("min_region_pixels must be >= 2")
        for name in self.emit:
            if name not in EMIT_CHOICES:
                raise ConfigError(f"unknown emit artifact {name!r}")
        for key, value in self.rule_overrides.items():
            kind = _RULE_TYPES.get(key)
            if kind is None:
                raise ConfigError(f"unknown rule {key!r}")
            _check_number(f"rule {key}", value, kind)
        # The scaled default max_area is known only per image, so here it is
        # unbounded; min_area alone meets it in resolve_rules.
        try:
            RuleSet(**{"max_area": sys.maxsize, **self.rule_overrides})
        except ValueError as exc:
            raise ConfigError(f"rule {exc}") from exc


# The numbers an int or float annotation admits. Bools are numbers too, but
# no numeric field's (dwt_first is annotated bool, not int).
_NUMBERS = {int: Integral, float: Real}
# The numeric PipelineConfig fields; threshold (int | str) has its own check.
_FIELD_TYPES = {
    f.name: _NUMBERS[f.type] for f in fields(PipelineConfig) if f.type in _NUMBERS
}
# Rule thresholds settable by name: every RuleSet field.
_RULE_TYPES = {f.name: _NUMBERS[f.type] for f in fields(RuleSet)}
RULE_KEYS = tuple(_RULE_TYPES)


def _check_number(name: str, value, kind: type) -> None:
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is Integral else "a real number"
        raise ConfigError(f"{name} must be {noun}, got {value!r}")


@dataclass
class DetectionReport:
    """Per-image result: counts, detections, and per-stage milliseconds."""

    source: str
    image_size: list[int]  # [width, height] of the working image
    threshold_used: int
    region_count_pre_gate: int
    region_count_post_gate: int
    detections: list[Detection]
    timings: dict[str, float]


@dataclass
class BatchError:
    """Per-file failure record; the batch keeps going."""

    source: str
    error: str


def resolve_rules(cfg: PipelineConfig, working_pixels: int) -> RuleSet:
    """The rule set actually applied: scaled defaults plus rule_overrides."""
    rules = default_rules(working_pixels)
    if cfg.rule_overrides:
        try:
            rules = replace(rules, **cfg.rule_overrides)
        except ValueError as exc:
            raise ConfigError(
                f"rule overrides {cfg.rule_overrides} on a {working_pixels}-pixel image: {exc}"
            ) from exc
    return rules


@contextmanager
def _stage(timings: dict[str, float], name: str):
    """Time the block into ``timings[name]``; its MammoCadError becomes a PipelineStageError."""
    start = time.perf_counter()
    try:
        yield
    except MammoCadError as exc:
        raise PipelineStageError(f"{name}: {exc}") from exc
    timings[name] = (time.perf_counter() - start) * 1000.0


def run_pipeline(
    img: GrayImage, cfg: PipelineConfig, source: str = "<memory>"
) -> DetectionReport:
    """Run all stages on one image, emitting artifacts per cfg.emit."""
    cfg.validate()
    timings: dict[str, float] = {}
    working = img
    if cfg.dwt_first and cfg.dwt_levels:
        with _stage(timings, "downsample"):
            working = haar_downsample(img, cfg.dwt_levels)
    with _stage(timings, "negate"):
        inverted = negate(working)
    if not cfg.dwt_first and cfg.dwt_levels:
        with _stage(timings, "downsample"):
            inverted = haar_downsample(inverted, cfg.dwt_levels)
    with _stage(timings, "threshold"):
        t = otsu_threshold(histogram(inverted)) if cfg.threshold == "auto" else int(cfg.threshold)
        mask = apply_threshold(inverted, t)
    with _stage(timings, "segment"):
        region_map = segment_image(inverted, mask, cfg.tau_split, cfg.tau_merge, cfg.min_block)
    with _stage(timings, "regions"):
        ids = extract_regions(region_map, cfg.min_region_pixels)
    with _stage(timings, "fractal"):
        blankets = blanket_area_table(inverted, region_map, ids, cfg.r_max)
        fits = {rid: blanket_dimension(blankets, rid) for rid in ids}
    gated_ids = roughness_gate(fits, cfg.d_min, cfg.d_max)
    with _stage(timings, "features"):
        vectors = {}
        if gated_ids:
            table = feature_table(inverted, region_map, gated_ids, gradient_map(inverted))
            vectors = {rid: compute_features(table, rid) for rid in gated_ids}
    with _stage(timings, "classify"):
        rules = resolve_rules(cfg, inverted.width * inverted.height)
        detections = [classify(rid, vectors[rid], fits[rid], rules) for rid in gated_ids]

    report = DetectionReport(
        source=source,
        image_size=[inverted.width, inverted.height],
        threshold_used=mask.threshold_used,
        region_count_pre_gate=region_map.region_count,
        region_count_post_gate=len(detections),
        detections=detections,
        timings=timings,
    )

    if cfg.output_dir is not None and cfg.emit:
        out = Path(cfg.output_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoFailure(f"cannot create {out}: {exc}") from exc
        stem = Path(source).stem if source != "<memory>" else "image"
        if "inverted" in cfg.emit:
            write_pgm(inverted, out / f"{stem}_inverted.pgm")
        if "mask" in cfg.emit:
            write_pgm(mask_to_image(mask), out / f"{stem}_mask.pgm")
        if "labels" in cfg.emit:
            write_region_map_pgm(region_map, out / f"{stem}_labels.pgm")
        if "overlay" in cfg.emit:
            # Boundaries read best on the working source image, i.e. the
            # inverted image negated back.
            write_pgm(
                overlay_boundaries(negate(inverted), region_map),
                out / f"{stem}_overlay.pgm",
            )
        if "features" in cfg.emit or "report" in cfg.emit:
            tokens = _number_tokens(report)  # both writers format the same numbers
        if "features" in cfg.emit:
            write_bytes(
                out / f"{stem}_features.csv", features_csv(report, tokens).encode("utf-8")
            )
        if "report" in cfg.emit:
            write_bytes(out / f"{stem}_report.json", report_json(report, tokens).encode("utf-8"))
    return report


def run_batch(paths, cfg: PipelineConfig) -> list[DetectionReport | BatchError]:
    """Run the pipeline over many files; per-file errors become entries.

    The config is validated first, so a :class:`ConfigError` it raises
    comes before any file is read.
    """
    cfg.validate()
    results: list[DetectionReport | BatchError] = []
    for path in paths:
        try:
            img = read_pgm(path)
            results.append(run_pipeline(img, cfg, source=str(path)))
        except MammoCadError as exc:
            results.append(BatchError(str(path), str(exc)))
    return results


def _json_list(items: list[str], indent: int) -> str:
    """Encoded ``items`` as a list that ``json.dumps(indent=2)`` writes at ``indent``."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


# The detections sorted by region id, and the JSON tokens of their numbers.
_Tokens = tuple[list[Detection], list[str]]


def _number_tokens(report: DetectionReport) -> _Tokens:
    """The detections sorted by region id, and the JSON token of each of their numbers.

    A detection's numbers are its region id, its features, its dimension,
    its fit's scales and areas, then the fit's dimension, intercept and
    residual; the detections' numbers follow one another. One C-encoder
    dump of that flat list formats them all, split on ``", "`` into the
    tokens ``json.dumps`` writes for them (``NaN`` and ``Infinity``
    included). The number fields must hold numbers, as annotated.
    """
    detections = sorted(report.detections, key=lambda d: d.region_id)
    numbers = []
    for det in detections:
        fit = det.fit
        numbers.append(det.region_id)
        numbers += vars(det.features).values()
        numbers.append(det.dimension)
        numbers += fit.scales
        numbers += fit.areas
        numbers += (fit.dimension, fit.intercept, fit.residual)
    return detections, json.dumps(numbers)[1:-1].split(", ")


# A detection's region id, features and dimension: its first tokens, and
# the number columns of its CSV row.
_HEAD_NUMBERS = len(fields(FeatureVector)) + 2
_FIT_TAIL = 3  # the fit's dimension, intercept and residual


@cache
def _detection_template(scales: int, areas: int) -> str:
    """One detection as json.dumps(indent=2) writes it inside the report's list.

    Each %s takes an encoded value, in the order of the dataclass fields;
    the fit's lists hold ``scales`` and ``areas`` values.
    """
    features = ",\n".join(f'        "{f.name}": %s' for f in fields(FeatureVector))
    return f"""\
    {{
      "region_id": %s,
      "features": {{
{features}
      }},
      "dimension": %s,
      "label": %s,
      "failed_rules": %s,
      "fit": {{
        "scales": {_json_list(["%s"] * scales, 8)},
        "areas": {_json_list(["%s"] * areas, 8)},
        "dimension": %s,
        "intercept": %s,
        "residual": %s
      }}
    }}"""


def report_json(report: DetectionReport, tokens: _Tokens | None = None) -> str:
    """The report exactly as ``json.dumps(report_dict, indent=2)`` writes it, plus a newline.

    ``report_dict`` holds ``vars()`` of the dataclasses, detections sorted by
    region id. An indented dump runs the pure-Python encoder over every
    token, so only the small head goes through it. The detection numbers
    come formatted from one token pass, ``tokens`` (the report's
    :func:`_number_tokens`, made here when not given). One ``%`` pass over
    fixed per-detection templates lays them out with the strings encoded as
    that dump encodes them, and builds no string per detection.
    """
    head = json.dumps({**vars(report), "detections": []}, indent=2) + "\n"
    if not report.detections:
        return head
    detections, numbers = _number_tokens(report) if tokens is None else tokens
    values = []
    layout = []
    rules_of = {}  # failed_rules tuple -> its encoded list
    at = 0
    for det in detections:
        scales, areas = len(det.fit.scales), len(det.fit.areas)
        rules = tuple(det.failed_rules)
        if rules not in rules_of:
            rules_of[rules] = _json_list([encode_basestring_ascii(r) for r in rules], 6)
        end = at + _HEAD_NUMBERS + scales + areas + _FIT_TAIL
        values += numbers[at : at + _HEAD_NUMBERS]
        values += (encode_basestring_ascii(det.label), rules_of[rules])
        values += numbers[at + _HEAD_NUMBERS : end]
        layout.append(_detection_template(scales, areas))
        at = end
    # The head's strings escape every quote and newline, so its first
    # '\n  "detections": []' is the key itself.
    before, _, after = head.partition('\n  "detections": []')
    layout = ",\n".join(layout)
    return f'%s\n  "detections": [\n{layout}\n  ]%s' % (before, *values, after)


def features_csv(report: DetectionReport, tokens: _Tokens | None = None) -> str:
    """Feature table, one row per detection, sorted by region id.

    The numbers are the report's JSON tokens, ``tokens`` (the report's
    :func:`_number_tokens`, made here when not given), with ``NaN`` and
    ``Infinity`` written ``nan`` and ``inf``: for ints and floats, their
    ``repr``.
    """
    detections, numbers = _number_tokens(report) if tokens is None else tokens
    lines = [CSV_HEADER]
    at = 0
    for det in detections:
        row = ",".join(numbers[at : at + _HEAD_NUMBERS])
        lines.append(f"{row.replace('NaN', 'nan').replace('Infinity', 'inf')},{det.label}")
        at += _HEAD_NUMBERS + len(det.fit.scales) + len(det.fit.areas) + _FIT_TAIL
    return "\n".join(lines) + "\n"
