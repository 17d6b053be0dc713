"""Pipeline orchestration: config, stage sequencing, artifacts, reports.

Stage order is fixed, and the report's timing keys follow it: downsample
(when ``dwt_levels`` > 0) -> negate -> threshold -> segment -> regions ->
fractal -> features -> classify; the untimed fractal gate runs between fractal
and features. Every run of the same config on the same input produces
byte-identical artifacts apart from the timing values embedded in the JSON
report.
"""

import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .classify import Detection, RuleSet, classify, default_rules
from .errors import ConfigError, IoFailure, MammoCadError, PipelineStageError
# The bench's tracer hooks gradient_map by this name, though nothing here calls it.
from .features import FeatureVector, compute_features, feature_table, gradient_map  # noqa: F401
from .fractal import MAX_R_MAX, BlanketFit, blanket_area_table, blanket_dimension, roughness_gate
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
    threshold: int | str = "auto"
    tau_split: int = 10
    tau_merge: int = 10
    r_max: int = 8
    d_min: float = 2.4
    d_max: float = 2.75
    min_region_pixels: int = 8
    rule_overrides: dict = field(default_factory=dict)
    output_dir: Path | None = None
    emit: tuple[str, ...] = ("report", "features")

    def validate(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            _check_type(name, getattr(self, name), kind)
        if self.dwt_levels < 0:
            raise ConfigError("dwt_levels must be >= 0")
        if self.threshold != "auto" and (
            isinstance(self.threshold, str) or not 0 <= self.threshold <= 255
        ):
            raise ConfigError("threshold must be 'auto' or an integer in [0, 255]")
        if self.tau_split < 0 or self.tau_merge < 0:
            raise ConfigError("tau_split and tau_merge must be >= 0")
        if not 2 <= self.r_max <= MAX_R_MAX:
            raise ConfigError(f"r_max must be in [2, {MAX_R_MAX}]")
        if not self.d_min < self.d_max:
            raise ConfigError("d_min must be < d_max")
        if self.min_region_pixels < 2:
            raise ConfigError("min_region_pixels must be >= 2")
        for name in self.emit:
            if not isinstance(name, str) or name not in EMIT_CHOICES:
                raise ConfigError(f"unknown emit artifact {name!r}")
        for key, value in self.rule_overrides.items():
            kind = _RULE_TYPES.get(key)
            if kind is None:
                raise ConfigError(f"unknown rule {key!r}")
            _check_type(f"rule {key}", value, kind)
        # The scaled default max_area is known only per image, so here it is
        # unbounded; min_area alone meets it in resolve_rules.
        try:
            RuleSet(**{"max_area": sys.maxsize, **self.rule_overrides})
        except ValueError as exc:
            raise ConfigError(f"rule {exc}") from exc


def auto_or_int(value: str) -> int | str:
    return "auto" if value == "auto" else int(value)


def comma_list(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


# Per field annotation: the types it admits (numpy's numbers count), how to
# name them, and the parser of its text form (dict has none).
_KINDS = {
    int: ((Integral,), "an integer", int),
    float: ((Real,), "a real number", float),
    int | str: ((Integral, str), "'auto' or an integer", auto_or_int),
    dict: ((dict,), "a dict", None),
    Path | None: ((type(None), str, os.PathLike), "None, a str or a path", Path),
    tuple[str, ...]: ((tuple, list), "a tuple or list of str", comma_list),
}
_FIELD_TYPES = {f.name: _KINDS[f.type] for f in fields(PipelineConfig)}
# Rule thresholds settable by name: every RuleSet field.
_RULE_TYPES = {f.name: _KINDS[f.type] for f in fields(RuleSet)}
RULE_KEYS = tuple(_RULE_TYPES)
# The config keys (every field with a text form, and the rule names) and
# their parsers; the CLI's flags use the same ones.
CONFIG_PARSERS = {
    name: parse for name, (_, _, parse) in (_FIELD_TYPES | _RULE_TYPES).items() if parse
}


def _check_type(name: str, value, kind) -> None:
    kinds, noun, _ = kind
    # Bools are integers too, but no field takes one.
    if not isinstance(value, kinds) or isinstance(value, bool):
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
    if cfg.dwt_levels:
        with _stage(timings, "downsample"):
            working = haar_downsample(img, cfg.dwt_levels)
    with _stage(timings, "negate"):
        inverted = negate(working)
    with _stage(timings, "threshold"):
        t = otsu_threshold(histogram(inverted)) if cfg.threshold == "auto" else int(cfg.threshold)
        mask = apply_threshold(inverted, t)
    with _stage(timings, "segment"):
        region_map = segment_image(inverted, mask, cfg.tau_split, cfg.tau_merge)
    with _stage(timings, "regions"):
        ids = extract_regions(region_map, cfg.min_region_pixels)
    with _stage(timings, "fractal"):
        blankets = blanket_area_table(inverted, region_map, ids, cfg.r_max)
        fits = {rid: blanket_dimension(blankets, rid) for rid in ids.tolist()}
    gated_ids = roughness_gate(fits, cfg.d_min, cfg.d_max)
    with _stage(timings, "features"):
        table = feature_table(inverted, region_map, np.array(gated_ids, dtype=np.int64))
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
        # The label map is the one artifact its own data can refuse (more
        # regions than a PGM holds), so it goes first: such a file writes none.
        if "labels" in cfg.emit:
            write_region_map_pgm(region_map, out / f"{stem}_labels.pgm")
        if "inverted" in cfg.emit:
            write_pgm(inverted, out / f"{stem}_inverted.pgm")
        if "mask" in cfg.emit:
            write_pgm(mask_to_image(mask.bits), out / f"{stem}_mask.pgm")
        if "overlay" in cfg.emit:
            # Boundaries read best on the working source image.
            write_pgm(overlay_boundaries(working, region_map), out / f"{stem}_overlay.pgm")
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

    The config and, when artifacts are written, the files' stems are
    checked first: a :class:`ConfigError` comes before any file is read.
    """
    cfg.validate()
    paths = list(paths)
    if cfg.output_dir is not None and cfg.emit:
        first_of = {}
        for path in paths:
            first = first_of.setdefault(Path(path).stem, path)
            if Path(first) != Path(path):  # x.pgm and ./x.pgm are one file, no clash
                raise ConfigError(f"{first} and {path} would write the same artifacts")
    results: list[DetectionReport | BatchError] = []
    for path in paths:
        try:
            img = read_pgm(path)
            results.append(run_pipeline(img, cfg, source=str(path)))
        except MammoCadError as exc:
            results.append(BatchError(str(path), str(exc)))
    return results


# The detections sorted by region id, the tokens of their template slots,
# and the index of each one's label slot.
_Tokens = tuple[list[Detection], list[str], list[int]]


def _number_tokens(report: DetectionReport) -> _Tokens:
    """The detections sorted by region id, the tokens of their slots, and where each label goes.

    The tokens fill the slots of :func:`_detection_template`, detection after
    detection: region id, features and dimension, a ``0`` for the label and
    one for the failed rules, then the fit's areas, dimension, intercept and
    residual; the template holds the scales. ``slots[i]`` is the index of
    detection i's label token. One C-encoder dump of the flat list formats
    every number, split on ``", "`` into the tokens ``json.dumps`` writes for
    them (``NaN`` and ``Infinity`` included). The number fields must hold
    numbers, as annotated.
    """
    detections = sorted(report.detections, key=lambda d: d.region_id)
    numbers = []
    slots = []
    for det in detections:
        fit = det.fit
        numbers += (det.region_id, *vars(det.features).values(), det.dimension)
        slots.append(len(numbers))
        numbers += (0, 0, *fit.areas, fit.dimension, fit.intercept, fit.residual)
    return detections, json.dumps(numbers)[1:-1].split(", "), slots


# A detection's region id, features and dimension: the tokens before its
# label slot, and the number columns of its CSV row.
_HEAD_NUMBERS = len(fields(FeatureVector)) + 2


@lru_cache(maxsize=64)
def _detection_template(scales: tuple, types: tuple[type, ...], areas: int) -> str:
    """One detection as json.dumps(indent=2) writes it inside the report's list.

    The layout is json.dumps's own, of a detection whose fit's ``scales``
    are written as they are and whose every other value is a %s slot: each
    takes an encoded value, in the order of the dataclass fields, and the
    fit's areas list holds ``areas`` of them. A scale json.dumps refuses
    raises its ``TypeError`` here. ``types``, the scales' types, only keys
    the cache: ``1``, ``1.0``, ``True`` and ``np.int64(1)`` are equal keys
    that dump differently, the last not at all.
    """
    detection = dict.fromkeys(f.name for f in fields(Detection))
    detection["features"] = dict.fromkeys(f.name for f in fields(FeatureVector))
    detection["fit"] = dict.fromkeys(f.name for f in fields(BlanketFit))
    detection["fit"].update(scales=list(scales), areas=[None] * areas)
    # None dumps as null; no field name and no number's text holds "null" or a "%".
    text = json.dumps(detection, indent=2).replace("null", "%s")
    return "    " + text.replace("\n", "\n    ")


def report_json(report: DetectionReport, tokens: _Tokens | None = None) -> str:
    """The report exactly as ``json.dumps(report_dict, indent=2)`` writes it, plus a newline.

    ``report_dict`` holds ``vars()`` of the dataclasses, detections sorted by
    region id. An indented dump runs the pure-Python encoder over every
    token, so only the small head goes through it. The detections' slot
    tokens come from one token pass, ``tokens`` (the report's
    :func:`_number_tokens`, made here when not given). A copy of them takes
    each label and failed-rules list, encoded as that dump encodes them, in
    its two slots. The text between slots comes from the per-detection
    templates (:func:`_detection_template`, looked up and cut at its slots
    once per run of detections whose scales, scale types and area counts
    are equal), and one join interleaves it with the tokens.
    """
    head = json.dumps({**vars(report), "detections": []}, indent=2) + "\n"
    if not report.detections:
        return head
    detections, numbers, slots = _number_tokens(report) if tokens is None else tokens
    values = numbers.copy()  # the caller shares the tokens with features_csv
    # The head's strings escape every quote and newline, so its first
    # '\n  "detections": []' is the key itself.
    before, _, after = head.partition('\n  "detections": []')
    texts = []  # the text before each value
    joint = before + '\n  "detections": [\n'  # the text before the next detection's
    rules_of = {}  # failed_rules tuple -> its encoded list
    last = None  # the scales, their types and the area count of the last template
    for det, at in zip(detections, slots):
        rules = tuple(det.failed_rules)
        if rules not in rules_of:
            rules_of[rules] = json.dumps(rules, indent=2).replace("\n", "\n      ")
        values[at : at + 2] = encode_basestring_ascii(det.label), rules_of[rules]
        scales = det.fit.scales
        layout = (scales, tuple(map(type, scales)), len(det.fit.areas))
        if layout != last:
            last = layout
            first, *inner, end = _detection_template(tuple(scales), *layout[1:]).split("%s")
        texts.append(joint + first)
        texts += inner
        joint = end + ",\n"
    texts.append(f"{end}\n  ]{after}")
    parts = [None] * (len(texts) + len(values))
    parts[::2], parts[1::2] = texts, values
    return "".join(parts)


def features_csv(report: DetectionReport, tokens: _Tokens | None = None) -> str:
    """Feature table, one row per detection, sorted by region id.

    A row's numbers are the slot tokens before its detection's label slot,
    from ``tokens`` (the report's :func:`_number_tokens`, made here when not
    given), with ``NaN`` and ``Infinity`` written ``nan`` and ``inf``: for
    ints and floats, their ``repr``.
    """
    detections, numbers, slots = _number_tokens(report) if tokens is None else tokens
    lines = [CSV_HEADER]
    for det, at in zip(detections, slots):
        row = ",".join(numbers[at - _HEAD_NUMBERS : at])
        lines.append(f"{row.replace('NaN', 'nan').replace('Infinity', 'inf')},{det.label}")
    return "\n".join(lines) + "\n"
