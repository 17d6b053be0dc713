import json
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mammocad.classify import Detection, RuleSet
from mammocad.cli import CONFIG_PARSERS, build_config, main, parse_config_file
from mammocad.errors import ConfigError, NotDivisible, PipelineStageError
from mammocad.features import FeatureVector
from mammocad.fractal import BlanketFit
from mammocad.image import GrayImage, read_pgm, write_pgm
from mammocad.phantom import generate_phantom
from mammocad.pipeline import (
    EMIT_CHOICES,
    RULE_KEYS,
    BatchError,
    DetectionReport,
    PipelineConfig,
    _number_tokens,
    features_csv,
    report_json,
    run_batch,
    run_pipeline,
)

from oracles import oracle_pipeline, reference_csv, report_to_dict

REPORT_KEYS = [
    "source",
    "image_size",
    "threshold_used",
    "region_count_pre_gate",
    "region_count_post_gate",
    "detections",
    "timings",
]


@pytest.fixture(scope="module")
def tumor_1024():
    img, truth = generate_phantom("tumor", 1, 1024)
    return img, truth


class TestRunPipeline:
    def test_tumor_phantom_defaults(self, tumor_1024):
        img, _ = tumor_1024
        report = run_pipeline(img, PipelineConfig(output_dir=None), source="tumor.pgm")
        assert report.image_size == [128, 128]
        tumors = [d for d in report.detections if d.label == "tumor"]
        assert len(tumors) == 1
        assert report.region_count_post_gate == len(report.detections)
        assert report.region_count_post_gate <= report.region_count_pre_gate
        for det in report.detections:
            assert 1 <= det.region_id <= report.region_count_pre_gate
            assert det.fit is not None
            assert det.fit.scales == list(range(1, 9))

    def test_blank_phantom_no_detections(self):
        img, _ = generate_phantom("blank", 1, 1024)
        report = run_pipeline(img, PipelineConfig(output_dir=None))
        assert report.detections == []
        assert report.region_count_post_gate == 0

    def test_stage_timings_recorded(self, tumor_1024):
        img, _ = tumor_1024
        report = run_pipeline(img, PipelineConfig(output_dir=None))
        for stage in ("downsample", "negate", "threshold", "segment", "fractal"):
            assert stage in report.timings
            assert report.timings[stage] >= 0.0

    def test_dwt_levels_zero_keeps_size(self):
        img, _ = generate_phantom("blank", 2, 128)
        cfg = PipelineConfig(dwt_levels=0, output_dir=None)
        report = run_pipeline(img, cfg)
        assert report.image_size == [128, 128]
        assert "downsample" not in report.timings

    def test_manual_threshold_recorded(self):
        img = GrayImage(np.full((16, 16), 100, np.uint8))
        cfg = PipelineConfig(dwt_levels=0, threshold=120, output_dir=None)
        report = run_pipeline(img, cfg)
        assert report.threshold_used == 120

    def test_negate_then_downsample_order(self, tumor_1024):
        img, _ = tumor_1024
        cfg = PipelineConfig(dwt_first=False, output_dir=None)
        report = run_pipeline(img, cfg)
        assert report.image_size == [128, 128]

    def test_stage_error_carries_stage_name(self):
        img = GrayImage(np.zeros((100, 100), np.uint8))  # not divisible by 8
        message = r"^downsample: 100x100 not divisible by 2\^3$"
        with pytest.raises(PipelineStageError, match=message) as info:
            run_pipeline(img, PipelineConfig(output_dir=None))
        assert isinstance(info.value.__cause__, NotDivisible)

    def test_invalid_config_rejected(self):
        img = GrayImage(np.zeros((8, 8), np.uint8))
        with pytest.raises(ConfigError):
            run_pipeline(img, PipelineConfig(d_min=3.0, d_max=2.0, output_dir=None))


class TestArtifacts:
    def test_all_artifacts_emitted(self, tumor_1024, tmp_path):
        img, _ = tumor_1024
        src = tmp_path / "case.pgm"
        write_pgm(img, src)
        cfg = PipelineConfig(
            output_dir=tmp_path / "out",
            emit=("inverted", "mask", "labels", "overlay", "features", "report"),
        )
        report = run_pipeline(read_pgm(src), cfg, source=str(src))
        out = tmp_path / "out"
        for suffix in ("inverted.pgm", "mask.pgm", "labels.pgm", "overlay.pgm", "features.csv", "report.json"):
            assert (out / f"case_{suffix}").exists(), suffix
        inverted = read_pgm(out / "case_inverted.pgm")
        assert (inverted.width, inverted.height) == (128, 128)
        mask_img = read_pgm(out / "case_mask.pgm")
        assert set(np.unique(mask_img.pixels)) <= {0, 255}
        loaded = json.loads((out / "case_report.json").read_text())
        assert loaded == report_to_dict(report)

    def test_report_json_keys(self, tumor_1024):
        img, _ = tumor_1024
        report = run_pipeline(img, PipelineConfig(output_dir=None), source="x.pgm")
        payload = json.loads(report_json(report))
        assert list(payload.keys()) == REPORT_KEYS
        assert payload["source"] == "x.pgm"
        for det in payload["detections"]:
            assert list(det.keys()) == [
                "region_id",
                "features",
                "dimension",
                "label",
                "failed_rules",
                "fit",
            ]
            assert list(det["fit"].keys()) == [
                "scales",
                "areas",
                "dimension",
                "intercept",
                "residual",
            ]

    def test_detections_sorted_by_region_id(self, tumor_1024):
        img, _ = tumor_1024
        cfg = PipelineConfig(output_dir=None, d_min=2.0, d_max=3.0)
        report = run_pipeline(img, cfg)
        ids = [d["region_id"] for d in report_to_dict(report)["detections"]]
        assert ids == sorted(ids)

    def test_features_csv_header_and_rows(self, tumor_1024):
        img, _ = tumor_1024
        report = run_pipeline(img, PipelineConfig(output_dir=None))
        text = features_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == "id,area,cmp,mwg,mg,var,edv,diff,D,label"
        assert len(lines) == 1 + len(report.detections)
        first = lines[1].split(",")
        assert first[-1] in ("tumor", "normal")
        assert int(first[0]) == report.detections[0].region_id


# Text that would trip a writer that splices or splits the encoded report.
JSON_TRAPS = ['"detections": []', '", "', "\\", '"', "\n", "\x00", "\x1f", "\x7f", "é", "😀"]
json_text = st.lists(st.one_of(st.text(max_size=4), st.sampled_from(JSON_TRAPS)), max_size=4).map(
    "".join
)
json_floats = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e308]),
)
json_ints = st.integers(-(2**70), 2**70)
detections = st.builds(
    Detection,
    region_id=json_ints,
    features=st.builds(
        FeatureVector, json_ints, *[json_floats] * (len(fields(FeatureVector)) - 1)
    ),
    dimension=json_floats,
    label=json_text,
    failed_rules=st.lists(json_text, max_size=3),
    fit=st.builds(
        BlanketFit,
        st.lists(json_ints, min_size=2, max_size=12),
        st.lists(json_floats, min_size=2, max_size=12),
        json_floats,
        json_floats,
        json_floats,
    ),
)
reports = st.builds(
    DetectionReport,
    source=json_text,
    image_size=st.lists(json_ints, min_size=2, max_size=2),
    threshold_used=json_ints,
    region_count_pre_gate=json_ints,
    region_count_post_gate=json_ints,
    detections=st.lists(detections, max_size=4),
    timings=st.dictionaries(json_text, json_floats, max_size=3),
)


def hand_built_report(compactness, region_id=3, dimension=2.4):
    """A report of one detection with the given ``region_id``, compactness and D."""
    fit = BlanketFit([1, 2], [4.0, 3.5], 2.4, 1.0, 0.0)
    features = FeatureVector(9, compactness, 1.0, 2.0, 3.0, 0.1, 12.0)
    det = Detection(region_id, features, dimension, "normal", [], fit)
    return DetectionReport("x.pgm", [8, 8], 120, 5, 1, [det], {})


class TestReportJson:
    @settings(deadline=None, max_examples=100)
    @given(reports)
    def test_bytes_match_indented_dump(self, report):
        assert report_json(report) == json.dumps(report_to_dict(report), indent=2) + "\n"

    def test_numpy_integer_raises_the_dumps_type_error(self):
        report = hand_built_report(0.5, region_id=np.int64(3))
        with pytest.raises(TypeError) as expected:
            json.dumps(report_to_dict(report), indent=2)
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            report_json(report)


class TestFeaturesCsv:
    @settings(deadline=None, max_examples=100)
    @given(reports)
    def test_matches_reference(self, report):
        expected = reference_csv(report)
        assert features_csv(report) == expected
        assert features_csv(report, _number_tokens(report)) == expected

    def test_numpy_floats_read_as_their_values(self):
        report = hand_built_report(np.float64(0.5), dimension=np.float64(2.4))
        expected = "3,9,0.5,1.0,2.0,3.0,0.1,12.0,2.4,normal"
        assert features_csv(report).split("\n")[1] == expected
        assert '"compactness": 0.5,' in report_json(report)

    def test_numpy_integer_raises_the_report_type_error(self):
        report = hand_built_report(0.5, region_id=np.int64(3))
        with pytest.raises(TypeError) as expected:
            report_json(report)
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            features_csv(report)


class TestRunBatch:
    def test_empty(self):
        assert run_batch([], PipelineConfig(output_dir=None)) == []

    def test_error_isolation_preserves_order(self, tmp_path):
        good1 = tmp_path / "a.pgm"
        corrupt = tmp_path / "b.pgm"
        good2 = tmp_path / "c.pgm"
        img, _ = generate_phantom("blank", 1, 128)
        write_pgm(img, good1)
        corrupt.write_bytes(b"P5\n4 4\n255\nxx")  # truncated raster
        write_pgm(img, good2)
        cfg = PipelineConfig(dwt_levels=0, output_dir=None)
        results = run_batch([good1, corrupt, good2], cfg)
        assert len(results) == 3
        assert not isinstance(results[0], BatchError)
        assert isinstance(results[1], BatchError)
        assert not isinstance(results[2], BatchError)
        assert results[1].source == str(corrupt)

    def test_missing_file_is_error_entry(self, tmp_path):
        results = run_batch([tmp_path / "nope.pgm"], PipelineConfig(output_dir=None))
        assert isinstance(results[0], BatchError)


README_CONFIG = re.search(
    r"### Config file\n.*?```\n(.*?)```",
    (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8"),
    re.S,
)[1]
# The README block shows every config key at its default; output_dir is the
# CLI's "out" and max_area the unscaled RuleSet default.
README_VALUES = {
    **{f.name: f.default for f in fields(PipelineConfig) if f.name in CONFIG_PARSERS},
    "output_dir": Path("out"),
    **{key: getattr(RuleSet, key) for key in RULE_KEYS},
}


class TestConfigFile:
    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                "# pipeline settings\n"
                "dwt_levels = 0\n"
                "threshold = 140\n"
                "tau_merge = 12\n"
                "d_min = 2.0  # wide band\n"
                "d_max = 3.0\n"
                "min_area = 20\n"
                "emit = report\n"
                "dwt_first = false\n",
                {
                    "dwt_levels": 0,
                    "threshold": 140,
                    "tau_merge": 12,
                    "d_min": 2.0,
                    "d_max": 3.0,
                    "min_area": 20,
                    "emit": ("report",),
                    "dwt_first": False,
                },
            ),
            (README_CONFIG, README_VALUES),
        ],
        ids=["inline", "readme"],
    )
    def test_parse_values(self, tmp_path, text, expected):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(text)
        values = parse_config_file(cfg_file)
        assert values == expected
        assert {k: type(v) for k, v in values.items()} == {
            k: type(v) for k, v in expected.items()
        }
        build_config(values, {})

    def test_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("warp_speed = 9\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg_file)

    def test_bad_value(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("dwt_levels = three\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg_file)

    def test_missing_equals(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("dwt_levels\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg_file)

    def test_cli_overrides_file(self, tmp_path):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text("tau_merge = 12\nd_min = 2.0\n")
        cfg = build_config(parse_config_file(cfg_file), {"tau_merge": 20})
        assert cfg.tau_merge == 20
        assert cfg.d_min == 2.0
        assert cfg.rule_overrides == {}

    def test_file_output_dir_used_without_out_flag(self, tmp_path):
        src = tmp_path / "b.pgm"
        write_pgm(generate_phantom("blank", 1, 128)[0], src)
        cfg_file = tmp_path / "out.cfg"
        cfg_file.write_text(f"output_dir = {tmp_path / 'fromfile'}\nemit = report\n")
        assert main(["detect", str(src), "--config", str(cfg_file)]) == 0
        assert (tmp_path / "fromfile" / "b_report.json").exists()

        flag_dir = tmp_path / "fromflag"
        args = ["detect", str(src), "--config", str(cfg_file), "--out", str(flag_dir)]
        assert main(args) == 0
        assert (flag_dir / "b_report.json").exists()

    def test_out_defaults_to_out(self, tmp_path, monkeypatch):
        src = tmp_path / "b.pgm"
        write_pgm(generate_phantom("blank", 1, 128)[0], src)
        monkeypatch.chdir(tmp_path)
        assert main(["detect", str(src), "--emit", "report"]) == 0
        assert (tmp_path / "out" / "b_report.json").exists()

    def test_rule_keys_become_overrides(self, tmp_path):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text("min_area = 10\nmin_compactness = 0.2\n")
        cfg = build_config(parse_config_file(cfg_file), {})
        assert cfg.rule_overrides == {"min_area": 10, "min_compactness": 0.2}


class TestCli:
    def test_phantom_then_detect(self, tmp_path, capsys):
        assert (
            main(
                [
                    "phantom",
                    "--kind",
                    "tumor",
                    "--seed",
                    "1",
                    "--size",
                    "1024",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        image_path = tmp_path / "tumor_1.pgm"
        assert image_path.exists()
        assert (tmp_path / "tumor_1_truth.pgm").exists()

        out_dir = tmp_path / "out"
        code = main(["detect", str(image_path), "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 0
        assert "1 tumor" in captured.out
        assert (out_dir / "tumor_1_report.json").exists()
        assert (out_dir / "tumor_1_features.csv").exists()

    @pytest.mark.parametrize("under", [False, True])
    def test_phantom_out_on_a_file_exits_one(self, tmp_path, capsys, under):
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "sub" if under else afile
        args = ["phantom", "--kind", "tumor", "--size", "64", "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create {out}: ")
        assert err.count("\n") == 1

    def test_detect_flags_override(self, tmp_path):
        img, _ = generate_phantom("blank", 1, 128)
        src = tmp_path / "b.pgm"
        write_pgm(img, src)
        out_dir = tmp_path / "out"
        code = main(
            [
                "detect",
                str(src),
                "--dwt-levels",
                "0",
                "--threshold",
                "250",
                "--emit",
                "report",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        payload = json.loads((out_dir / "b_report.json").read_text())
        assert payload["threshold_used"] == 250
        assert payload["image_size"] == [128, 128]

    def test_per_file_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_text("not a pgm")
        code = main(["detect", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "ERROR" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("no_such_key = 1\n")
        img, _ = generate_phantom("blank", 1, 128)
        src = tmp_path / "b.pgm"
        write_pgm(img, src)
        code = main(["detect", str(src), "--config", str(cfg_file)])
        assert code == 2

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        code = main(["detect", "x.pgm", "--config", str(tmp_path / "missing.cfg")])
        assert code == 2
        assert "config error: cannot read config" in capsys.readouterr().err

    def test_bad_config_value_exits_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("dwt_first = maybe\n")
        assert main(["detect", "x.pgm", "--config", str(cfg_file)]) == 2
        assert "bad value" in capsys.readouterr().err

    def test_phantom_too_small_exits_two(self, tmp_path, capsys):
        assert main(["phantom", "--kind", "tumor", "--size", "10", "--out", str(tmp_path)]) == 2
        assert "error: size must be >= 64" in capsys.readouterr().err

    def test_bad_flag_value_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["detect", "x.pgm", "--threshold", "warm"])
        assert err.value.code == 2

    def test_unknown_emit_is_config_error(self, tmp_path, capsys):
        code = main(["detect", str(tmp_path / "never_read.pgm"), "--emit", "report,bogus"])
        assert code == 2
        assert "unknown emit artifact 'bogus'" in capsys.readouterr().err

    def test_config_file_drives_detection(self, tmp_path):
        img, _ = generate_phantom("tumor", 3, 1024)
        src = tmp_path / "t.pgm"
        write_pgm(img, src)
        cfg_file = tmp_path / "wide.cfg"
        cfg_file.write_text("d_min = 2.0\nd_max = 3.0\nemit = report\n")
        out_dir = tmp_path / "out"
        code = main(
            ["detect", str(src), "--config", str(cfg_file), "--out", str(out_dir)]
        )
        assert code == 0
        payload = json.loads((out_dir / "t_report.json").read_text())
        # The wide band keeps smooth regions the default band would drop.
        assert payload["region_count_post_gate"] >= 1


def isolated_dots(path):
    """512 px image whose 256x256 dark dots each become a one-pixel region."""
    pixels = np.full((512, 512), 255, np.uint8)
    pixels[::2, ::2] = 0
    write_pgm(GrayImage(pixels), path)
    return path


class TestBatchContract:
    """A bad file never stops the batch; config errors come before any read."""

    def test_too_many_regions_is_a_per_file_error(self, tmp_path):
        dots = isolated_dots(tmp_path / "dots.pgm")
        ok = tmp_path / "ok.pgm"
        write_pgm(generate_phantom("tumor", 1, 64)[0], ok)
        cfg = PipelineConfig(dwt_levels=0, emit=("labels",), output_dir=tmp_path / "out")
        results = run_batch([dots, ok], cfg)
        assert [type(r) for r in results] == [BatchError, DetectionReport]
        assert "65536 regions" in results[0].error
        assert (tmp_path / "out" / "ok_labels.pgm").exists()

    def test_too_many_regions_cli_exits_one(self, tmp_path, capsys):
        dots = isolated_dots(tmp_path / "dots.pgm")
        out = tmp_path / "out"
        args = ["detect", str(dots), "--dwt-levels", "0", "--emit", "labels", "--out", str(out)]
        assert main(args) == 1
        assert "dots.pgm: ERROR" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"min_area": 50, "max_area": 10},
            {"max_area": 10},  # below the default min_area of 50
            {"min_compactness": 1.5},
            {"min_compactness": -0.1},
            # Mistyped: min_area and max_area take ints, the rest real numbers.
            {"min_area": "x"},
            {"min_area": 2.5},
            {"max_area": None},
            {"max_area": True},
            {"min_compactness": "0.5"},
            {"min_boundary_gradient": None},
            {"min_intensity_diff": False},
        ],
    )
    def test_contradictory_overrides_rejected_before_reading(self, overrides, tmp_path):
        cfg = PipelineConfig(rule_overrides=overrides, output_dir=None)
        with pytest.raises(ConfigError):
            cfg.validate()
        # The path does not exist: reading it would give a BatchError entry.
        with pytest.raises(ConfigError):
            run_batch([tmp_path / "never_read.pgm"], cfg)

    @pytest.mark.parametrize(
        "field",
        [
            {"tau_split": "3"},
            {"d_min": "2"},
            {"r_max": 2.5},
            {"dwt_levels": 1.0},
            {"dwt_levels": True},
            {"min_region_pixels": 8.0},
            {"tau_merge": None},
            {"d_max": False},
            {"threshold": True},
            {"threshold": 120.0},
            {"threshold": "120"},
        ],
    )
    def test_mistyped_fields_rejected_before_reading(self, field, tmp_path):
        # Numeric fields take the numbers their annotations admit.
        cfg = PipelineConfig(**field, output_dir=None)
        with pytest.raises(ConfigError):
            cfg.validate()
        with pytest.raises(ConfigError):
            run_batch([tmp_path / "never_read.pgm"], cfg)

    @pytest.mark.parametrize(
        "field",
        [
            {"dwt_levels": -1},
            {"threshold": 256},
            {"threshold": -1},
            {"tau_split": -1},
            {"tau_merge": -1},
            {"min_block": 0},
            {"r_max": 1},
            {"min_region_pixels": 1},
            {"rule_overrides": {"no_such_rule": 1}},
        ],
    )
    def test_out_of_range_fields_rejected_before_reading(self, field, tmp_path):
        # The path does not exist: reading it would give a BatchError entry.
        with pytest.raises(ConfigError):
            run_batch([tmp_path / "never_read.pgm"], PipelineConfig(**field, output_dir=None))

    def test_fields_of_any_number_type_accepted(self):
        PipelineConfig(
            dwt_levels=np.int64(2), r_max=np.int32(4), d_min=2, d_max=np.float32(2.8),
            dwt_first=False,
        ).validate()

    def test_overrides_of_any_number_type_accepted(self):
        overrides = {
            "min_area": np.int64(10),
            "max_area": 5000,
            "min_compactness": 1,
            "min_boundary_gradient": np.float32(1.5),
            "min_intensity_diff": 5,
        }
        PipelineConfig(rule_overrides=overrides).validate()

    def test_threshold_of_any_integer_type_gives_the_same_report(self):
        img = generate_phantom("tumor", 1, 128)[0]

        def report_bytes(threshold):
            cfg = PipelineConfig(dwt_levels=0, threshold=threshold, output_dir=None)
            report = run_pipeline(img, cfg, source="t.pgm")
            report.timings = {}
            return report_json(report)

        assert report_bytes(np.int64(120)) == report_bytes(120)
        assert '"threshold_used": 120,' in report_bytes(np.uint8(120))

    def test_artifact_write_failure_is_a_per_file_error(self, tmp_path, capsys):
        first = tmp_path / "a.pgm"
        second = tmp_path / "b.pgm"
        write_pgm(generate_phantom("tumor", 1, 64)[0], first)
        write_pgm(generate_phantom("tumor", 2, 64)[0], second)
        out = tmp_path / "out"
        (out / "a_report.json").mkdir(parents=True)  # blocks a's report only
        assert main(["detect", str(first), str(second), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{first}: ERROR: cannot write" in err
        assert "b.pgm" not in err
        assert json.loads((out / "b_report.json").read_text())["source"] == str(second)

    def test_output_dir_that_is_a_file_is_a_per_file_error(self, tmp_path):
        src = tmp_path / "a.pgm"
        write_pgm(generate_phantom("tumor", 1, 64)[0], src)
        out = tmp_path / "taken"
        out.write_text("")
        results = run_batch([src, src], PipelineConfig(output_dir=out))
        assert [type(r) for r in results] == [BatchError, BatchError]
        assert all("cannot create" in r.error for r in results)

    def test_contradictory_override_file_exits_two(self, tmp_path):
        cfg_file = tmp_path / "rules.cfg"
        cfg_file.write_text("min_area = 50\nmax_area = 10\n")
        src = tmp_path / "b.pgm"
        write_pgm(generate_phantom("blank", 1, 128)[0], src)
        assert main(["detect", str(src), "--config", str(cfg_file)]) == 2

    def test_min_area_above_scaled_max_area_is_a_per_file_error(self, tmp_path):
        small = tmp_path / "small.pgm"
        large = tmp_path / "large.pgm"
        write_pgm(generate_phantom("tumor", 1, 64)[0], small)
        write_pgm(generate_phantom("tumor", 1, 256)[0], large)
        # 64 px at dwt_levels=0: default max_area is 64 * 64 // 4 = 1024.
        cfg = PipelineConfig(dwt_levels=0, rule_overrides={"min_area": 2000}, output_dir=None)
        small_result, large_result = run_batch([small, large], cfg)
        assert isinstance(small_result, BatchError)
        assert "classify" in small_result.error
        assert isinstance(large_result, DetectionReport)

    def test_regions_stage_timed(self):
        img, _ = generate_phantom("tumor", 1, 256)
        report = run_pipeline(img, PipelineConfig(output_dir=None))
        assert list(report.timings) == [
            "downsample",
            "negate",
            "threshold",
            "segment",
            "regions",
            "fractal",
            "features",
            "classify",
        ]


def extreme_image(kind, side):
    """A small image at an edge of the input space."""
    ramp = (np.arange(side) * 37 % 256).astype(np.uint8)
    if kind == "row":
        return ramp.reshape(1, side)
    if kind == "column":
        return ramp.reshape(side, 1)
    if kind == "tiny":
        return np.array([[0, 255, 0], [255, 128, 255], [0, 255, 0]], np.uint8)
    if kind == "black":
        return np.zeros((side, side), np.uint8)
    if kind == "white":
        return np.full((side, side), 255, np.uint8)
    if kind == "checkerboard":
        return (np.indices((side, side)).sum(0) % 2 * 255).astype(np.uint8)
    if kind == "noise":  # an ordinary image beside the extremes, for detections
        return np.random.default_rng(side).integers(0, 256, (side, side)).astype(np.uint8)
    dots = np.full((side, side), 255, np.uint8)  # isolated dark dots
    dots[::2, ::2] = 0
    return dots


KINDS = ("row", "column", "tiny", "black", "white", "checkerboard", "dots", "noise")


@pytest.mark.parametrize("kind", ["row", "column"])
def test_one_pixel_wide_image_reaches_features(kind):
    """A 1x8 ramp whose region passes the D gate gets features: no 3x3 minimum."""
    cfg = PipelineConfig(
        dwt_levels=0, threshold=0, tau_split=46, tau_merge=189, r_max=3, output_dir=None
    )
    report = run_pipeline(GrayImage(extreme_image(kind, 8)), cfg)
    assert report.region_count_post_gate == len(report.detections) == 1


@settings(deadline=None, max_examples=60)
@given(
    images=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(1, 24)), min_size=1, max_size=3),
    dwt_levels=st.integers(0, 3),
    dwt_first=st.booleans(),
    threshold=st.sampled_from(["auto", 0, 255]),
    tau_split=st.integers(0, 255),
    tau_merge=st.integers(0, 255),
    r_max=st.integers(2, 12),
)
def test_batch_sweep_over_extreme_inputs(images, **config):
    """Every file gives a report with all six artifacts, or a BatchError."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = []
        for i, (kind, side) in enumerate(images):
            paths.append(tmp / f"{i}_{kind}.pgm")
            write_pgm(GrayImage(extreme_image(kind, side)), paths[-1])
        cfg = PipelineConfig(output_dir=tmp / "out", emit=EMIT_CHOICES, **config)
        results = run_batch(paths, cfg)
        assert len(results) == len(paths)
        for path, result in zip(paths, results):
            assert result.source == str(path)
            if isinstance(result, DetectionReport):
                for name in EMIT_CHOICES:
                    suffix = {"features": "csv", "report": "json"}.get(name, "pgm")
                    assert (tmp / "out" / f"{path.stem}_{name}.{suffix}").is_file(), name
            else:
                assert isinstance(result, BatchError)


@st.composite
def oracle_cases(draw):
    """A random image and a valid config whose pyramid divides the image."""
    levels = draw(st.integers(0, 2))
    step = 1 << levels
    width = step * draw(st.integers(1, 24 // step))
    height = step * draw(st.integers(1, 24 // step))
    spread = draw(st.sampled_from([1, 4, 16, 64, 256]))
    base = draw(st.integers(0, 256 - spread))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pixels = (base + rng.integers(0, spread, (height, width))).astype(np.uint8)
    # Overrides valid on this image: min_area within the max_area in force.
    overrides = {}
    if draw(st.booleans()):
        overrides["max_area"] = draw(st.integers(1, 300))
    cap = overrides.get("max_area", max((width >> levels) * (height >> levels) // 4, 50))
    if cap < 50 or draw(st.booleans()):
        overrides["min_area"] = draw(st.integers(0, cap))
    for key, values in (
        ("min_compactness", st.floats(0.0, 1.0)),
        ("min_boundary_gradient", st.floats(0.0, 40.0)),
        ("min_intensity_diff", st.floats(-60.0, 60.0)),
    ):
        if draw(st.booleans()):
            overrides[key] = draw(values)
    d_min, d_max = draw(st.sampled_from([(2.4, 2.75), (1.5, 3.5)]))
    cfg = PipelineConfig(
        dwt_levels=levels,
        dwt_first=draw(st.booleans()),
        threshold=draw(st.one_of(st.just("auto"), st.integers(0, 255))),
        tau_split=draw(st.integers(0, 255)),
        tau_merge=draw(st.integers(0, 255)),
        min_block=draw(st.integers(1, 4)),
        r_max=draw(st.integers(2, 12)),
        d_min=d_min,
        d_max=d_max,
        min_region_pixels=draw(st.integers(2, 10)),
        rule_overrides=overrides,
        emit=EMIT_CHOICES,
    )
    return GrayImage(pixels), cfg


def read_label_map(path):
    """The label PGM's ids, from one- or two-byte samples."""
    _, dims, maxval, raster = path.read_bytes().split(b"\n", 3)
    width, height = map(int, dims.split())
    dtype = np.uint8 if int(maxval) < 256 else ">u2"
    return np.frombuffer(raster, dtype=dtype).reshape(height, width)


@settings(deadline=None, max_examples=40)
@given(case=oracle_cases())
def test_pipeline_matches_oracle(case):
    """PGM pixels to artifact bytes: the package equals the stage oracles composed."""
    img, cfg = case
    report, csv, labels, overlay = oracle_pipeline(img, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        run_pipeline(img, replace(cfg, output_dir=out))
        text = (out / "image_report.json").read_text(encoding="utf-8")
        timings = json.loads(text)["timings"]
        assert text == json.dumps({**report, "timings": timings}, indent=2) + "\n"
        assert (out / "image_features.csv").read_text(encoding="utf-8") == csv
        assert np.array_equal(read_label_map(out / "image_labels.pgm"), labels)
        assert np.array_equal(read_pgm(out / "image_overlay.pgm").pixels, overlay)


def test_package_exports():
    import mammocad

    for name in mammocad.__all__:
        assert getattr(mammocad, name, None) is not None, name
    namespace = {}
    exec("from mammocad import *", namespace)
    assert set(mammocad.__all__) <= namespace.keys()
