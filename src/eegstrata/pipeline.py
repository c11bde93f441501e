"""End-to-end orchestration: ingest, sample, extract, select, classify, report.

Every stage reads its inputs from and writes its outputs to the output
directory, so a single `run_pipeline` call and the equivalent sequence of
stage calls produce byte-identical artifacts. Nothing here depends on
wall-clock time; a (config, seed) pair fully determines every output byte.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .corpus import (BONN_PREFIX_TO_SET, CASE_SETS, build_case,
                     generate_synthetic_case, save_channel, _set_channel_files)
from .errors import ConfigError, DataError, DegenerateDataError, EegStrataError
from .evaluation import SELECTION_MODES, CVConfig, run_cv, weighted_accuracy
from .features import MIN_STRATUM_LENGTH, FeatureMatrix, extract_vector
from .sampler import (CONFIDENCE_Z, SELECTION_POLICIES, SamplingConfig,
                      StratificationPlan, allocate, reduce_channel,
                      required_sample_size, stratify)
from .seeding import derive_seed
from .selection import RANGE_THRESHOLD, STALL_LIMIT, select_features

REPORT_FORMATS = ("json", "table", "csv")
REPORT_CSV_HEADER = ("confidence", "z", "case", "n_channels", "n_bar",
                     "accuracy_mean", "accuracy_std", "weighted_ac")

_SET_TO_PREFIX = {v: k for k, v in BONN_PREFIX_TO_SET.items()}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; the report echoes this object verbatim."""

    # data source: a directory of per-set channel files, or synthetic
    data_dir: str | None = None
    synthetic: bool = False
    synthetic_n0: int = 100
    synthetic_n1: int = 50
    synthetic_length: int = 4097
    synthetic_burst_amplitude: float = 5.0
    cases: tuple[str, ...] = ("Case1",)
    # sampling
    confidence_levels: tuple[int, ...] = (95,)
    z: float | None = None  # explicit variate, overrides confidence_levels
    p: float = 0.5
    e: float = 0.01
    n_strata: int = 4
    policy: str = "random"
    # selection
    selection_mode: str = "per-fold"
    stall_limit: int | None = STALL_LIMIT
    range_threshold: float = RANGE_THRESHOLD
    # classifier
    classifier: str = "rf"
    knn_k: int = 3
    knn_standardize: bool = True
    rf_trees: int = 100
    rf_seed: int | None = None
    rf_max_features: str = "sqrt"
    rf_bootstrap: bool = True
    nb_var_floor: float = 1e-9
    # cross-validation
    cv_folds: int = 10
    cv_repeats: int = 20
    cv_stratified: bool = True
    # run
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        object.__setattr__(self, "cases", tuple(self.cases))
        object.__setattr__(self, "confidence_levels", tuple(self.confidence_levels))
        if not self.cases:
            raise ConfigError("at least one case is required")
        for case in self.cases:
            if case not in CASE_SETS:
                raise ConfigError(f"unknown case {case!r}; expected one of {sorted(CASE_SETS)}")
        if self.policy not in SELECTION_POLICIES:
            raise ConfigError(f"unknown sampling policy {self.policy!r}")
        if self.selection_mode not in SELECTION_MODES:
            raise ConfigError(f"unknown selection mode {self.selection_mode!r}")
        if self.z is None:
            if not self.confidence_levels:
                raise ConfigError("either confidence levels or an explicit z is required")
            for level in self.confidence_levels:
                if level not in CONFIDENCE_Z:
                    raise ConfigError(
                        f"unknown confidence level {level}; presets are {sorted(CONFIDENCE_Z)} "
                        "(use z for anything else)"
                    )
        if not self.out_dir:
            raise ConfigError("an output directory is required")

    def classifier_spec(self) -> tuple:
        if self.classifier == "knn":
            return "knn", {"k": self.knn_k, "standardize": self.knn_standardize}
        if self.classifier == "nb":
            return "nb", {"var_floor": self.nb_var_floor}
        if self.classifier == "rf":
            return "rf", {"n_trees": self.rf_trees, "max_features": self.rf_max_features,
                          "bootstrap": self.rf_bootstrap,
                          "seed": self.seed if self.rf_seed is None else self.rf_seed}
        raise ConfigError(f"unknown classifier {self.classifier!r}")

    def cv_config(self) -> CVConfig:
        return CVConfig(n_folds=self.cv_folds, n_repeats=self.cv_repeats,
                        seed=self.seed, stratified=self.cv_stratified)


def resolve_levels(cfg: PipelineConfig) -> tuple:
    """(label, z) pairs to run: preset confidence levels, or one explicit z."""
    if cfg.z is not None:
        if not cfg.z > 0:
            raise ConfigError(f"z must be positive, got {cfg.z}")
        return ((f"z{cfg.z:g}", float(cfg.z)),)
    return tuple((str(level), CONFIDENCE_Z[level]) for level in cfg.confidence_levels)


def _out(cfg: PipelineConfig) -> Path:
    return Path(cfg.out_dir)


def _level_dir(cfg: PipelineConfig, label: str) -> Path:
    return _out(cfg) / f"confidence_{label}"


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _read_artifact(path: Path, hint: str, keys: dict | None = None):
    """Load what an earlier stage wrote: a FeatureMatrix from .csv, else a
    JSON object holding every key in keys ("a.b" names key b inside a).
    keys maps each key to None, or to a (test, description) pair its value
    must pass. hint names the stage that writes the file."""
    if not path.is_file():
        raise DataError(f"missing {path}; run '{hint}' first")
    if path.suffix == ".csv":
        return FeatureMatrix.from_csv(path)
    try:
        data = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: malformed JSON ({exc}); run '{hint}' again") from None
    if not isinstance(data, dict):
        raise DataError(f"{path}: expected a JSON object; run '{hint}' again")
    for key, check in (keys or {}).items():
        node = data
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                raise DataError(f"{path}: missing key {key!r}; run '{hint}' again")
            node = node[part]
        if check is not None and not check[0](node):
            raise DataError(f"{path}: {key!r} must be {check[1]}; run '{hint}' again")
    return data


def _case_sets(case_id: str) -> tuple:
    cat1, cat2 = CASE_SETS[case_id]
    return tuple(cat1) + tuple(cat2)


def stage_ingest(cfg: PipelineConfig) -> dict:
    """Resolve (or synthesize) the channel corpus and write the manifest."""
    needed = sorted({s for case in cfg.cases for s in _case_sets(case)})
    if cfg.synthetic:
        if cfg.cases != ("Case1",):
            raise ConfigError("synthetic data covers sets A/B/E, so only Case1 is supported")
        case = generate_synthetic_case((cfg.synthetic_n0, cfg.synthetic_n1),
                                       cfg.synthetic_length, cfg.seed,
                                       burst_amplitude=cfg.synthetic_burst_amplitude)
        root = _out(cfg) / "data"
        for ch, _ in case.channels:
            save_channel(ch, root / ch.set_label / f"{ch.id.rsplit('/', 1)[-1]}.txt")
        set_dirs = {s: root / s for s in needed}
    else:
        if not cfg.data_dir:
            raise ConfigError("either a data directory or synthetic data is required")
        root = Path(cfg.data_dir)
        if not root.is_dir():
            raise DataError(f"data directory not found: {root}")
        set_dirs = {}
        for s in needed:
            candidates = [root / s, root / _SET_TO_PREFIX[s]]
            found = next((c for c in candidates if c.is_dir()), None)
            if found is None:
                raise DataError(
                    f"no directory for set {s}: tried " + ", ".join(str(c) for c in candidates)
                )
            set_dirs[s] = found

    manifest = {
        "root": str(root),
        "set_dirs": {s: str(d) for s, d in sorted(set_dirs.items())},
        "cases": list(cfg.cases),
        "channels_per_set": {s: len(_set_channel_files(d)) for s, d in sorted(set_dirs.items())},
    }
    _write_json(_out(cfg) / "manifest.json", manifest)
    return manifest


def _load_case(cfg: PipelineConfig, case_id: str):
    strings = (lambda v: isinstance(v, dict) and all(isinstance(d, str) for d in v.values()),
               "an object of strings")
    manifest = _read_artifact(_out(cfg) / "manifest.json", "ingest", {"set_dirs": strings})
    return build_case(case_id, {s: Path(d) for s, d in manifest["set_dirs"].items()})


def stage_sample(cfg: PipelineConfig, label: str, z: float) -> dict:
    """Reduce every channel of every case at one confidence level."""
    out = {}
    level = _level_dir(cfg, label)
    for case_id in cfg.cases:
        case = _load_case(cfg, case_id)
        lengths = {len(ch) for ch, _ in case.channels}
        if len(lengths) != 1:
            raise DataError(f"{case_id}: channels have mixed lengths {sorted(lengths)}")
        length = lengths.pop()
        scfg = SamplingConfig(z=z, population_size=length, p=cfg.p, e=cfg.e,
                              n_strata=cfg.n_strata)
        n_bar = required_sample_size(scfg)
        plan = stratify(length, cfg.n_strata)

        allocs = {}
        for class_label in (0, 1):
            chans = [ch for ch, lab in case.channels if lab == class_label]
            try:
                allocs[class_label] = allocate(chans, plan, n_bar)
            except DegenerateDataError as exc:
                raise DegenerateDataError(f"{case_id} class {class_label}: {exc}") from None
            # extract needs MIN_STRATUM_LENGTH points per stratum: refuse here,
            # before writing, rather than leave artifacts extract cannot use
            for i, count in enumerate(allocs[class_label].per_stratum):
                if count < MIN_STRATUM_LENGTH:
                    raise ConfigError(
                        f"{case_id} class {class_label}: stratum {i} is allocated {count} "
                        f"samples, fewer than {MIN_STRATUM_LENGTH}; "
                        "lower n_strata or raise the confidence level")

        for ch, lab in case.channels:
            reduced = reduce_channel(ch, plan, allocs[lab],
                                     seed=derive_seed(cfg.seed, "reduce", ch.id),
                                     policy=cfg.policy)
            stem = ch.id.rsplit("/", 1)[-1]
            save_channel(reduced, level / "reduced" / case_id / ch.set_label / f"{stem}.txt")

        sampling = {
            "case": case_id,
            "length": length,
            "z": z,
            "n_bar": n_bar,
            "policy": cfg.policy,
            "plan": list(plan.sizes),
            "classes": {
                str(lab): {
                    "per_stratum": list(allocs[lab].per_stratum),
                    "weights": list(allocs[lab].per_stratum_weight),
                }
                for lab in (0, 1)
            },
        }
        _write_json(level / f"sampling_{case_id}.json", sampling)
        out[case_id] = sampling
    return out


def stage_extract(cfg: PipelineConfig, label: str) -> dict:
    """Turn reduced channels into per-case feature matrices."""
    out = {}
    level = _level_dir(cfg, label)
    counts = (lambda v: isinstance(v, list) and all(map(_is_count, v)), "a list of integers >= 0")
    for case_id in cfg.cases:
        sampling = _read_artifact(level / f"sampling_{case_id}.json", "sample",
                                  {"classes.0.per_stratum": counts,
                                   "classes.1.per_stratum": counts})
        set_dirs = {s: level / "reduced" / case_id / s for s in _case_sets(case_id)}
        case = build_case(case_id, set_dirs)
        plans = {
            lab: StratificationPlan.from_sizes(sampling["classes"][str(lab)]["per_stratum"])
            for lab in (0, 1)
        }
        vectors = [extract_vector(ch, plans[lab], label=lab) for ch, lab in case.channels]
        fm = FeatureMatrix.from_vectors(vectors)
        fm.to_csv(level / f"features_{case_id}.csv")
        out[case_id] = fm
    return out


def stage_select(cfg: PipelineConfig, label: str) -> dict:
    """Run feature selection per case on the persisted feature matrices."""
    out = {}
    level = _level_dir(cfg, label)
    for case_id in cfg.cases:
        fm = _read_artifact(level / f"features_{case_id}.csv", "extract")
        subset = select_features(fm, stall_limit=cfg.stall_limit,
                                 threshold=cfg.range_threshold)
        _write_json(level / f"selection_{case_id}.json", subset.to_dict())
        out[case_id] = subset
    return out


def stage_classify(cfg: PipelineConfig, label: str) -> dict:
    """Cross-validate the configured classifier per case."""
    out = {}
    level = _level_dir(cfg, label)
    for case_id in cfg.cases:
        fm = _read_artifact(level / f"features_{case_id}.csv", "extract")
        result = run_cv(fm, cfg.classifier_spec(), cfg.cv_config(),
                        select=cfg.selection_mode, stall_limit=cfg.stall_limit,
                        range_threshold=cfg.range_threshold)
        _write_json(level / f"evaluation_{case_id}.json", {
            "case": case_id,
            "classifier": cfg.classifier,
            "n_rows": fm.n_rows,
            "mean": result.mean,
            "std": result.std,
            "per_repeat": list(result.per_repeat),
        })
        out[case_id] = result
    return out


def assemble_report(cfg: PipelineConfig) -> dict:
    """Build the run report from persisted stage artifacts, write it as
    report.json and return it: the config, then per level the z, the
    channel-weighted average accuracy and each case's entry."""
    evaluation_keys = {
        "mean": (lambda v: _is_number(v) and 0 <= v <= 100, "a number in [0, 100]"),
        "std": (lambda v: _is_number(v) and v >= 0, "a number >= 0"),
        "per_repeat": (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                       "a list of numbers"),
        "n_rows": (lambda v: _is_count(v) and v > 0, "a positive integer"),
    }
    levels = []
    for label, z in resolve_levels(cfg):
        level = _level_dir(cfg, label)
        cases = {}
        for case_id in sorted(cfg.cases):
            sampling = _read_artifact(level / f"sampling_{case_id}.json", "sample",
                                      {"n_bar": None, "plan": None, "classes": None})
            selection = _read_artifact(level / f"selection_{case_id}.json", "select")
            evaluation = _read_artifact(level / f"evaluation_{case_id}.json", "classify",
                                        evaluation_keys)
            cases[case_id] = {
                "n_channels": evaluation["n_rows"],
                "n_bar": sampling["n_bar"],
                "plan": sampling["plan"],
                "allocation": sampling["classes"],
                "accuracy_mean": evaluation["mean"],
                "accuracy_std": evaluation["std"],
                "per_repeat": evaluation["per_repeat"],
                "selection": selection,
            }
        average = weighted_accuracy([e["accuracy_mean"] for e in cases.values()],
                                    [e["n_channels"] for e in cases.values()])
        levels.append({"confidence": label, "z": z, "weighted_average": average,
                       "cases": cases})
    report = {"config": asdict(cfg), "levels": levels}
    path = _out(cfg) / "report.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(emit_report(report, "json"))
    return report


def emit_report(report: dict, fmt: str = "json") -> bytes:
    """Serialize the dict assemble_report returns.

    csv columns: confidence,z,case,n_channels,n_bar,accuracy_mean,
    accuracy_std,weighted_ac, one row per (level, case).
    """
    if fmt == "json":
        return (json.dumps(report, indent=2) + "\n").encode()

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(REPORT_CSV_HEADER)
        for row in report["levels"]:
            for case_id, entry in row["cases"].items():
                writer.writerow([
                    row["confidence"], format(row["z"], "g"), case_id,
                    entry["n_channels"], entry["n_bar"],
                    format(entry["accuracy_mean"], ".4f"),
                    format(entry["accuracy_std"], ".4f"),
                    format(row["weighted_average"], ".4f"),
                ])
        return buf.getvalue().encode()

    if fmt == "table":
        case_ids = sorted({c for row in report["levels"] for c in row["cases"]})
        header = ["confidence", "z"] + case_ids + ["weighted_ac"]
        lines = [header]
        for row in report["levels"]:
            cells = [row["confidence"], format(row["z"], "g")]
            for case_id in case_ids:
                entry = row["cases"].get(case_id)
                cells.append("-" if entry is None else
                             f"{entry['accuracy_mean']:.2f} +/- {entry['accuracy_std']:.2f}")
            cells.append(f"{row['weighted_average']:.2f}")
            lines.append(cells)
        widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
        text = "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
                         for line in lines)
        return (text + "\n").encode()

    raise ConfigError(f"unknown report format {fmt!r}; expected one of {REPORT_FORMATS}")


def _stage(name: str, fn, *args):
    try:
        return fn(*args)
    except EegStrataError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def run_pipeline(cfg: PipelineConfig) -> dict:
    """All stages in order for every configured confidence level."""
    _stage("ingest", stage_ingest, cfg)
    for label, z in resolve_levels(cfg):
        _stage("sample", stage_sample, cfg, label, z)
        _stage("extract", stage_extract, cfg, label)
        _stage("select", stage_select, cfg, label)
        _stage("classify", stage_classify, cfg, label)
    return _stage("report", assemble_report, cfg)
