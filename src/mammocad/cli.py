"""Command-line entry points: batch detection and phantom generation.

Exit codes: 0 all inputs processed cleanly, 1 at least one per-file error,
2 configuration or usage error.
"""

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, IoFailure, MammoCadError
from .image import write_pgm
from .phantom import KINDS, generate_phantom
from .pipeline import (
    CONFIG_PARSERS,
    EMIT_CHOICES,
    RULE_KEYS,
    BatchError,
    PipelineConfig,
    run_batch,
)
from .threshold import mask_to_image


def parse_config_file(path) -> dict:
    """Read a flat key=value config file into typed override values."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in CONFIG_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = CONFIG_PARSERS[key](value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {value!r} for {key}") from None
    return values


def build_config(file_values: dict, cli_values: dict) -> PipelineConfig:
    """Defaults, then config-file values, then CLI flag overrides."""
    merged = dict(file_values)
    merged.update({k: v for k, v in cli_values.items() if v is not None})
    rule_overrides = {k: merged.pop(k) for k in list(merged) if k in RULE_KEYS}
    cfg = PipelineConfig(rule_overrides=rule_overrides, **merged)
    cfg.validate()
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mammocad",
        description="Tumor-candidate detection in mammogram PGM images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="run the detection pipeline on PGM files")
    detect.add_argument("inputs", nargs="+", help="input PGM files")
    detect.add_argument("--config", help="flat key=value config file")

    def option(flag, dest, **kwargs):
        """A flag that reads its text as the config key ``dest`` does."""
        detect.add_argument(flag, dest=dest, type=CONFIG_PARSERS[dest], **kwargs)

    option("--dwt-levels", "dwt_levels")
    option("--threshold", "threshold", help="'auto' or a gray level")
    option("--tau-split", "tau_split")
    option("--tau-merge", "tau_merge")
    option("--d-min", "d_min")
    option("--d-max", "d_max")
    option(
        "--out",
        "output_dir",
        help="artifact directory (default: the config file's output_dir, else out)",
    )
    option("--emit", "emit", help=f"comma list of artifacts: {','.join(EMIT_CHOICES)}")

    phantom = sub.add_parser("phantom", help="generate a synthetic test image")
    phantom.add_argument("--kind", required=True, choices=KINDS)
    phantom.add_argument("--seed", type=int, default=1)
    phantom.add_argument("--size", type=int, default=1024)
    phantom.add_argument("--out", type=Path, default=Path("."))
    return parser


def _cmd_detect(args) -> int:
    # --out, then the config file's output_dir, then "out".
    file_values = {"output_dir": Path("out")}
    if args.config:
        file_values.update(parse_config_file(args.config))
    cli_values = {k: v for k, v in vars(args).items() if k in CONFIG_PARSERS}
    cfg = build_config(file_values, cli_values)
    results = run_batch(args.inputs, cfg)
    failed = 0
    for result in results:
        if isinstance(result, BatchError):
            failed += 1
            print(f"{result.source}: ERROR: {result.error}", file=sys.stderr)
        else:
            tumors = sum(1 for d in result.detections if d.label == "tumor")
            print(
                f"{result.source}: {result.region_count_pre_gate} region(s), "
                f"{result.region_count_post_gate} past gate, {tumors} tumor"
            )
    return 1 if failed else 0


def _cmd_phantom(args) -> int:
    img, truth = generate_phantom(args.kind, args.seed, args.size)
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {args.out}: {exc}") from exc
    stem = f"{args.kind}_{args.seed}"
    image_path = args.out / f"{stem}.pgm"
    truth_path = args.out / f"{stem}_truth.pgm"
    write_pgm(img, image_path)
    write_pgm(mask_to_image(truth), truth_path)
    print(f"{image_path}\n{truth_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "detect":
            return _cmd_detect(args)
        return _cmd_phantom(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MammoCadError as exc:  # from the phantom command; detect reports per file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
