"""Command-line interface.

Subcommands mirror the pipeline stages (ingest, sample, extract, select,
classify, report) plus `pipeline` to run everything. Runs are driven by a
flat key=value config file; a handful of flags override the file. Exit
codes: 0 ok, 2 configuration error, 3 data error, 4 numeric degeneracy.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError, DataError, DegenerateDataError
from .pipeline import (REPORT_FORMATS, PipelineConfig, assemble_report,
                       emit_report, resolve_levels, run_pipeline,
                       stage_classify, stage_extract, stage_ingest,
                       stage_sample, stage_select)

# The config file's one list of keys, in template order: each section's
# template comment, then its (key, PipelineConfig field) rows. Defaults and
# value types come from PipelineConfig.
_SCHEMA = (
    ("# data: point data.dir at a directory with one subdirectory per set\n"
     "# (A..E, or the equivalent Z/O/N/F/S names), or enable synthetic data.",
     (("data.dir", "data_dir"), ("synthetic", "synthetic"),
      ("synthetic.n0", "synthetic_n0"), ("synthetic.n1", "synthetic_n1"),
      ("synthetic.length", "synthetic_length"),
      ("synthetic.burst_amplitude", "synthetic_burst_amplitude"), ("cases", "cases"))),
    ("# sampling",
     (("confidence", "confidence_levels"), ("z", "z"), ("p", "p"), ("e", "e"),
      ("strata", "n_strata"), ("policy", "policy"))),
    ("# selection",
     (("selection.mode", "selection_mode"), ("selection.stall_limit", "stall_limit"),
      ("selection.range_threshold", "range_threshold"))),
    ("# classifier",
     (("classifier", "classifier"), ("knn.k", "knn_k"), ("knn.standardize", "knn_standardize"),
      ("rf.trees", "rf_trees"), ("rf.seed", "rf_seed"), ("rf.max_features", "rf_max_features"),
      ("rf.bootstrap", "rf_bootstrap"), ("nb.var_floor", "nb_var_floor"))),
    ("# cross-validation",
     (("cv.folds", "cv_folds"), ("cv.repeats", "cv_repeats"), ("cv.stratified", "cv_stratified"))),
    ("# run", (("seed", "seed"), ("out", "out_dir"))),
)
_CONFIG_KEYS = {key: name for _, rows in _SCHEMA for key, name in rows}
_TYPES = get_type_hints(PipelineConfig)
_DEFAULTS = PipelineConfig()
_BOOLS = {"true": True, "yes": True, "1": True, "on": True,
          "false": False, "no": False, "0": False, "off": False}
_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number"}


def _scalar(kind: type, key: str, value: str):
    try:
        return _BOOLS[value.lower()] if kind is bool else kind(value)
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: expected {_EXPECTED[kind]}, got {value!r}") from None


def _convert(name: str, key: str, value: str):
    """Parse a non-blank value for PipelineConfig field `name` by its type.

    Tuples are comma-separated. Where an optional field defaults to a value,
    "none" (or "unbounded") sets it to None; elsewhere a blank value does.
    """
    kind = _TYPES[name]
    args = get_args(kind)
    if get_origin(kind) is tuple:
        return tuple(_scalar(args[0], key, part.strip()) for part in value.split(",")
                     if part.strip())
    if type(None) in args:
        if getattr(_DEFAULTS, name) is not None and value.lower() in ("none", "unbounded"):
            return None
        kind = args[0]
    return _scalar(kind, key, value)


def _template_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return str(value).lower() if isinstance(value, bool) else str(value)


CONFIG_TEMPLATE = "\n\n".join(
    "\n".join([comment] + [f"{key} = {_template_value(getattr(_DEFAULTS, name))}".rstrip()
                            for key, name in rows])
    for comment, rows in _SCHEMA
) + "\n"


def parse_config_file(path) -> dict:
    """Flat `key = value` lines; # starts a comment; blank values mean unset."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    kwargs = {}
    seen = set()
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        if value == "":
            continue
        name = _CONFIG_KEYS[key]
        kwargs[name] = _convert(name, key, value)
    return kwargs


def build_config(args) -> PipelineConfig:
    kwargs = parse_config_file(args.config) if args.config else {}
    if getattr(args, "data", None):
        kwargs["data_dir"] = args.data
    if getattr(args, "synthetic", False):
        kwargs["synthetic"] = True
    if getattr(args, "policy", None):
        kwargs["policy"] = args.policy
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.confidence:
        kwargs["confidence_levels"] = _convert("confidence_levels", "--confidence", args.confidence)
        kwargs["z"] = None
    if args.z is not None:
        kwargs["z"] = args.z
    if args.case:
        kwargs["cases"] = tuple(args.case)
    if args.classifier:
        kwargs["classifier"] = args.classifier
    if args.out:
        kwargs["out_dir"] = args.out
    try:
        return PipelineConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_init_config(args) -> int:
    target = Path(args.path)
    if target.exists():
        raise ConfigError(f"refusing to overwrite existing {target}")
    target.write_text(CONFIG_TEMPLATE)
    print(f"wrote {target}")
    return 0


def _cmd_ingest(args) -> int:
    cfg = build_config(args)
    manifest = stage_ingest(cfg)
    print(f"data root: {manifest['root']}")
    for s, count in manifest["channels_per_set"].items():
        print(f"  set {s}: {count} channels")
    return 0


def _cmd_sample(args) -> int:
    cfg = build_config(args)
    for label, z in resolve_levels(cfg):
        for case_id, sampling in stage_sample(cfg, label, z).items():
            print(f"{case_id} @ {label} (z={z:g}): n_bar={sampling['n_bar']}")
            for lab in ("0", "1"):
                print(f"  class {lab}: n_i={sampling['classes'][lab]['per_stratum']}")
    return 0


def _cmd_extract(args) -> int:
    cfg = build_config(args)
    for label, _ in resolve_levels(cfg):
        for case_id, fm in stage_extract(cfg, label).items():
            print(f"{case_id} @ {label}: {fm.n_rows} channels x {fm.n_features} features")
    return 0


def _cmd_select(args) -> int:
    cfg = build_config(args)
    for label, _ in resolve_levels(cfg):
        for case_id, subset in stage_select(cfg, label).items():
            print(f"{case_id} @ {label}: {len(subset.names)} features "
                  f"(merit {subset.merit:.4f}): {', '.join(subset.names)}")
            if subset.eliminated_by_range:
                print(f"  eliminated by range: {', '.join(subset.eliminated_by_range)}")
    return 0


def _cmd_classify(args) -> int:
    cfg = build_config(args)
    for label, _ in resolve_levels(cfg):
        for case_id, result in stage_classify(cfg, label).items():
            print(f"{case_id} @ {label} [{cfg.classifier}]: "
                  f"{result.mean:.2f} +/- {result.std:.2f} %")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = build_config(args)
    report = run_pipeline(cfg)
    sys.stdout.write(emit_report(report, "table").decode())
    print(f"report written to {Path(cfg.out_dir) / 'report.json'}")
    return 0


def _cmd_report(args) -> int:
    cfg = build_config(args)
    report = assemble_report(cfg)
    sys.stdout.buffer.write(emit_report(report, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegstrata",
        description="Stratified-sampling EEG classification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="base seed (overrides config)")
        p.add_argument("--confidence", help="comma-separated confidence presets, e.g. 95 or 70,85,95,99")
        p.add_argument("--z", type=float, help="explicit standard normal variate instead of a preset")
        p.add_argument("--case", action="append", help="case to run (repeatable): Case1, Case2, Case3")
        p.add_argument("--classifier", choices=("rf", "nb", "knn"), help="classifier to evaluate")

    p = sub.add_parser("init-config", help="write a template config file")
    p.add_argument("path", nargs="?", default="eegstrata.conf")
    p.set_defaults(func=_cmd_init_config)

    for name, func, extra in (
        ("ingest", _cmd_ingest, True),
        ("sample", _cmd_sample, False),
        ("extract", _cmd_extract, False),
        ("select", _cmd_select, False),
        ("classify", _cmd_classify, False),
        ("pipeline", _cmd_pipeline, True),
    ):
        p = sub.add_parser(name, help=f"run the {name} stage" if name != "pipeline"
                           else "run every stage end to end")
        add_common(p)
        if extra:
            p.add_argument("--data", help="directory of per-set channel files")
            p.add_argument("--synthetic", action="store_true", help="generate synthetic channels")
            p.add_argument("--policy", choices=("random", "systematic"),
                           help="within-stratum selection policy")
        p.set_defaults(func=func)

    p = sub.add_parser("report", help="format the persisted run artifacts")
    add_common(p)
    p.add_argument("--format", choices=REPORT_FORMATS, default="table")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
