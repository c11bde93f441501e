"""Command-line interface.

Subcommands mirror the pipeline stages (ingest, sample, extract, select,
classify, report) plus `pipeline` to run everything. Runs are driven by a
flat key=value config file; a handful of flags override the file. Exit
codes: 0 ok, 2 configuration error, 3 data or OS error, 4 numeric degeneracy.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .classifiers import CLASSIFIER_KINDS
from .errors import ConfigError, DegenerateDataError, EegStrataError
from .pipeline import (REPORT_FORMATS, PipelineConfig, artifact_path,
                       assemble_report, emit_report, resolve_levels,
                       run_pipeline, stage_classify, stage_extract, stage_ingest,
                       stage_sample, stage_select, _Run, _stage)
from .sampler import SELECTION_POLICIES

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
        too_long = kind is int and value[value[:1] in "+-":].isdecimal()  # int() takes the rest
        expected = _EXPECTED[kind] + f" of at most {sys.get_int_max_str_digits()} digits" * too_long
        shown = repr(value) if len(value) <= 40 else f"{value[:20]!r}... ({len(value)} characters)"
        raise ConfigError(f"{key}: expected {expected}, got {shown}") from None


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
    """Flat `key = value` lines; # starts a comment; blank values mean unset.
    Lines end at \\n, \\r\\n and \\r only, as a channel file's do."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    kwargs = {}
    seen = set()
    # read_text has already turned \r\n and \r into \n
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
        kwargs[name] = _convert(name, f"{path}:{lineno}: {key}", value)
    return kwargs


def build_config(args) -> PipelineConfig:
    kwargs = parse_config_file(args.config) if args.config else {}
    # a flag's dest is the field it overrides; None, not falsiness, is unset: --seed 0 overrides
    flags = {name: value for name, value in vars(args).items()
             if name in _TYPES and value is not None}
    if "confidence_levels" in flags:  # clears the file's z; a --z flag still sets one
        flags["confidence_levels"] = _convert("confidence_levels", "--confidence",
                                              flags["confidence_levels"])
        kwargs["z"] = None
    try:
        return PipelineConfig(**{**kwargs, **flags})
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def _per_level(stage, show):
    """Run stage(cfg, label, z, run) at every configured level with one run, and print
    one line per case: "<case> @ <label>", then what show(cfg, z, result) returns."""
    def run(cfg, args):
        held = _Run(cfg)  # sample's first level makes the corpus for every level
        for label, z in resolve_levels(cfg):
            for case_id, result in stage(cfg, label, z, held).items():
                print(f"{case_id} @ {label}{show(cfg, z, result)}")
    return run


def _show_sampling(cfg, z, sampling) -> str:
    return f" (z={z:g}): n_bar={sampling['n_bar']}" + "".join(
        f"\n  class {lab}: n_i={sampling['classes'][lab]['per_stratum']}" for lab in ("0", "1"))


def _show_subset(cfg, z, subset) -> str:
    text = f": {len(subset.names)} features (merit {subset.merit:.4f}): {', '.join(subset.names)}"
    if subset.eliminated_by_range:
        text += f"\n  eliminated by range: {', '.join(subset.eliminated_by_range)}"
    return text


def _ingest(cfg, args):
    manifest = stage_ingest(cfg)
    if "synthetic" in manifest:
        print("synthetic corpus:", ", ".join(f"{k}={v}" for k, v in manifest["synthetic"].items()))
        return
    print(f"data root: {manifest['root']}")
    for s, count in manifest["channels_per_set"].items():
        print(f"  set {s}: {count} channels")


def _pipeline(cfg, args):
    sys.stdout.write(emit_report(run_pipeline(cfg), "table").decode())
    print(f"report written to {artifact_path(cfg, 'report')}")


_DATA = (("--data", {"dest": "data_dir", "help": "directory of per-set channel files"}),
         ("--synthetic", {"action": "store_true", "default": None,
                          "help": "generate synthetic channels"}))
_POLICY = (("--policy", {"choices": SELECTION_POLICIES, "help": "within-stratum selection policy"}),)
_COMMON = (
    ("--config", {"help": "path to a key=value config file"}),
    ("--out", {"dest": "out_dir", "help": "output directory (overrides config)"}),
    ("--seed", {"type": int, "help": "base seed (overrides config)"}),
    ("--confidence", {"dest": "confidence_levels",
                      "help": "comma-separated confidence presets, e.g. 95 or 70,85,95,99"}),
    ("--z", {"type": float, "help": "explicit standard normal variate instead of a preset"}),
    ("--case", {"dest": "cases", "action": "append",
                "help": "case to run (repeatable): Case1, Case2, Case3"}),
    ("--classifier", {"choices": tuple(CLASSIFIER_KINDS), "help": "classifier to evaluate"}),
)

# Each stage subcommand: name, help, flags beside _COMMON, run(cfg, args).
_COMMANDS = (
    ("ingest", "run the ingest stage", _DATA, _ingest),
    ("sample", "run the sample stage", _POLICY, _per_level(stage_sample, _show_sampling)),
    ("extract", "run the extract stage", _POLICY, _per_level(
        lambda cfg, label, z, run: stage_extract(cfg, label, run),
        lambda cfg, z, fm: f": {fm.n_rows} channels x {fm.n_features} features")),
    ("select", "run the select stage", (), _per_level(
        lambda cfg, label, z, run: stage_select(cfg, label), _show_subset)),
    ("classify", "run the classify stage", (), _per_level(
        lambda cfg, label, z, run: stage_classify(cfg, label),
        lambda cfg, z, r: f" [{cfg.classifier}]: {r.mean:.2f} +/- {r.std:.2f} %")),
    ("pipeline", "run every stage end to end", _DATA + _POLICY, _pipeline),
    ("report", "format the persisted run artifacts",
     _POLICY + (("--format", {"choices": REPORT_FORMATS, "default": "table"}),),
     lambda cfg, args: sys.stdout.buffer.write(emit_report(assemble_report(cfg), args.format))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegstrata",
        description="Stratified-sampling EEG classification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("init-config", help="write a template config file")
    p.add_argument("path", nargs="?", default="eegstrata.conf")
    for name, help_text, flags, run in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in _COMMON + flags:
            p.add_argument(flag, **options)
        p.set_defaults(run=run)
    return parser


def _init_config(path: Path) -> None:
    if path.exists():
        raise ConfigError(f"refusing to overwrite existing {path}")
    path.write_text(CONFIG_TEMPLATE)
    print(f"wrote {path}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "init-config":
            _init_config(Path(args.path))
        elif args.command == "pipeline":  # run_pipeline names the failing stage itself
            args.run(build_config(args), args)
        else:
            _stage(args.command, args.run, build_config(args), args)
    except (EegStrataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {ConfigError: 2, DegenerateDataError: 4}.get(type(exc), 3)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
