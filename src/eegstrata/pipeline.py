"""End-to-end orchestration: ingest, sample, extract, select, classify, report.

Every stage writes its outputs to the output directory; ingest records in
the manifest where the corpus comes from. What an invocation hands from
stage to stage, the corpus and sample's reduced classes, is held by one
`_Run`: `run_pipeline` keeps one for every level, so it makes its corpus
once and parses no channel file it wrote, while a stage called on its own
starts a new one, which reads its inputs from the output directory. Either
way a stage runs the same code on them, and `repr` round-trips float64, so
one `run_pipeline` call and the stages called one by one write
byte-identical artifacts. Nothing here depends on wall-clock time; a
(config, seed) pair fully determines every output byte.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .classifiers import KNN_K, NB_VAR_FLOOR, RF_TREES, make_classifier
from .corpus import (BONN_PREFIX_TO_SET, CASE_SETS, SYNTHETIC_BUDGET, SYNTHETIC_RULES,
                     case_channels, generate_synthetic_case, load_set, save_channel,
                     _check_synthetic, _file_name, _is_count, _is_number, _set_channel_files)
from .errors import ConfigError, DataError, DegenerateDataError, EegStrataError
from .evaluation import SELECTION_MODES, kfold_split, run_cv, weighted_accuracy
from .features import MIN_STRATUM_LENGTH, FeatureMatrix, extract_vector, feature_names
from .sampler import (CONFIDENCE_Z, SELECTION_POLICIES, allocate, reduce_channel,
                      required_sample_size, stratify)
from .seeding import derive_seed
from .selection import RANGE_THRESHOLD, STALL_LIMIT, select_features

REPORT_FORMATS = ("json", "table", "csv")
REPORT_CSV_HEADER = ("confidence", "z", "case", "n_channels", "n_bar",
                     "accuracy_mean", "accuracy_std", "weighted_ac")

_SET_TO_PREFIX = {v: k for k, v in BONN_PREFIX_TO_SET.items()}
_SELECT_SETTINGS = ("stall_limit", "range_threshold")  # the fields select reads


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
    knn_k: int = KNN_K
    knn_standardize: bool = True
    rf_trees: int = RF_TREES
    rf_seed: int | None = None
    rf_max_features: str = "sqrt"
    rf_bootstrap: bool = True
    nb_var_floor: float = NB_VAR_FLOOR
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
        for what, values in (("case", self.cases), ("confidence level", self.confidence_levels)):
            twice = next((v for i, v in enumerate(values) if v in values[:i]), None)
            if twice is not None:
                raise ConfigError(f"{what} {twice} is listed twice")
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
        if self.synthetic:
            _check_synthetic({key: getattr(self, f"synthetic_{key}") for key in SYNTHETIC_RULES},
                             "synthetic.")
        # no plan of n_strata entries is built: n_bar is at most an unbounded population's (or 1)
        if self.n_strata < 1:
            raise ConfigError(f"n_strata must be at least 1, got {self.n_strata}")
        for _, z in resolve_levels(self):
            most = max(1, required_sample_size(z, float("inf"), self.p, self.e))
            if self.n_strata > most // MIN_STRATUM_LENGTH:
                raise ConfigError(f"strata must be at most {most // MIN_STRATUM_LENGTH}: z={z:g}, "
                                  f"p={self.p:g} and e={self.e:g} give n_bar <= {most}, and a "
                                  f"stratum needs {MIN_STRATUM_LENGTH} samples")
        kind, params = self.classifier_spec()
        make_classifier(kind, **params)
        if self.cv_folds < 2:
            raise ConfigError(f"cv.folds must be at least 2, got {self.cv_folds}")
        if self.cv_repeats < 1:
            raise ConfigError(f"cv.repeats must be at least 1, got {self.cv_repeats}")
        if self.stall_limit is not None and self.stall_limit < 1:
            raise ConfigError("selection.stall_limit must be positive or None, "
                              f"got {self.stall_limit}")
        if not 0.0 <= self.range_threshold <= 1.0:
            raise ConfigError("selection.range_threshold must be in [0, 1], "
                              f"got {self.range_threshold}")

    def classifier_spec(self) -> tuple:
        """The classifier's name and constructor parameters: its fields
        <classifier>_<param>, keyed by param; a seed of None is the run's seed."""
        prefix = f"{self.classifier}_"
        params = {name[len(prefix):]: value for name, value in vars(self).items()
                  if name.startswith(prefix)}
        if "seed" in params and params["seed"] is None:
            params["seed"] = self.seed
        return self.classifier, params

    def classify_settings(self) -> dict:
        """The fields classify reads: its classifier's, the CV's, the selection's and the seed."""
        return {name: value for name, value in asdict(self).items()
                if name.startswith((self.classifier + "_", "cv_")) or name in (
                    "selection_mode", "seed", *_SELECT_SETTINGS)}


def resolve_levels(cfg: PipelineConfig) -> tuple:
    """(label, z) pairs to run: preset confidence levels, or one explicit z."""
    if cfg.z is not None:
        return ((f"z{cfg.z:g}", float(cfg.z)),)
    return tuple((str(level), CONFIDENCE_Z[level]) for level in cfg.confidence_levels)


def _count(least: int) -> tuple:
    return lambda v: _is_count(v, least), f"an integer >= {least}"


def _counts(least: int) -> tuple:
    return (lambda v: isinstance(v, list) and all(_is_count(c, least) for c in v),
            f"a list of integers >= {least}")


def _design(cfg: PipelineConfig, z: float, length: int) -> dict:
    """The sampling fields cfg fixes at z for channels of this length: the
    sample size, the policy and the plan's stratum sizes."""
    plan = list(stratify(length, cfg.n_strata))  # first: it checks n_strata and length
    return {"n_bar": required_sample_size(z, length, cfg.p, cfg.e), "policy": cfg.policy,
            "plan": plan}


def _sampling_fields(cfg: PipelineConfig, sampling: dict) -> list:
    """The fields _design gives; a class allocated over other strata than the plan's is corrupt."""
    for lab in ("0", "1"):
        counts = sampling["classes"][lab]["per_stratum"]
        if len(counts) != len(sampling["plan"]):
            raise DataError(f"class {lab}'s 'per_stratum' has {len(counts)} counts for the "
                            f"{len(sampling['plan'])} strata of 'plan'")
    design = _design(cfg, sampling["z"], sampling["length"])
    return [(key, sampling[key], value) for key, value in design.items()]


def _feature_columns(cfg: PipelineConfig, fm: FeatureMatrix) -> list:
    """n_features, fixed by cfg's strata; a header of that length holding other names is corrupt."""
    names = feature_names(cfg.n_strata)
    if fm.n_features == len(names) and fm.names != names:
        col = next(i for i, (got, want) in enumerate(zip(fm.names, names)) if got != want)
        raise DataError(f"column {col + 1} is {fm.names[col]!r}, not {names[col]!r}")
    return [("n_features", fm.n_features, len(names))]


def _manifest_keys(manifest) -> dict:
    """The checks of a manifest: a synthetic corpus's generator settings, or
    a data directory's set directories."""
    if isinstance(manifest, dict) and "synthetic" in manifest:
        return {**{f"synthetic.{key}": rule for key, rule in SYNTHETIC_RULES.items()},
                "synthetic.seed": (lambda v: _is_number(v) and isinstance(v, int), "an integer"),
                "synthetic": SYNTHETIC_BUDGET}  # last: it reads settings the rules passed
    return {"set_dirs": (
        lambda v: isinstance(v, dict) and all(isinstance(d, str) for d in v.values()),
        "an object of strings")}


# Every file of a run, one row per kind: its path under out_dir ({0} is the
# level label, {1} the case); the stage that writes it; the checks every
# reader applies, mapping a key ("a.b" is key b inside a) to None or to a
# (test, description) pair its value must pass, or a function of the
# artifact giving that mapping; and, where the config fixes the contents,
# cfg, artifact -> (key, value, the config's value) triples.
_LEVEL = "confidence_{0}"
_ARTIFACTS = {
    "manifest": ("manifest.json", "ingest", _manifest_keys, None),
    "reduced": (_LEVEL + "/reduced/{1}", "sample", {}, None),
    "sampling": (_LEVEL + "/sampling_{1}.json", "sample", {
        "length": _count(1), "z": (lambda v: _is_number(v) and v > 0, "a positive number"),
        "n_bar": _count(1), "policy": None, "plan": _counts(1),
        "classes.0.per_stratum": _counts(MIN_STRATUM_LENGTH),
        "classes.1.per_stratum": _counts(MIN_STRATUM_LENGTH),
    }, _sampling_fields),
    "features": (_LEVEL + "/features_{1}.csv", "extract", {}, _feature_columns),
    "selection": (_LEVEL + "/selection_{1}.json", "select", {"selected": (
        lambda v: isinstance(v, list) and len(v) > 0 and all(isinstance(n, str) for n in v),
        "a non-empty list of strings"), "settings": (lambda v: isinstance(v, dict), "an object")},
        lambda cfg, sel: [(f"settings.{name}", sel["settings"].get(name), getattr(cfg, name))
                          for name in _SELECT_SETTINGS]),
    "evaluation": (_LEVEL + "/evaluation_{1}.json", "classify", {
        "mean": (lambda v: _is_number(v) and 0 <= v <= 100, "a number in [0, 100]"),
        "std": (lambda v: _is_number(v) and v >= 0, "a number >= 0"),
        "per_repeat": (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                       "a list of numbers"),
        "n_rows": (lambda v: _is_count(v, 1), "a positive integer"), "classifier": None,
        "settings": (lambda v: isinstance(v, dict), "an object"),
    }, lambda cfg, ev: [("classifier", ev["classifier"], cfg.classifier)] + [
        (f"settings.{name}", ev["settings"].get(name), value)
        for name, value in cfg.classify_settings().items()]),
    "report": ("report.json", "report", {}, None),
}


def artifact_path(cfg: PipelineConfig, kind: str, *where) -> Path:
    """Where artifact kind of cfg's run lives; where is the level label, then the case."""
    return Path(cfg.out_dir) / _ARTIFACTS[kind][0].format(*where)


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _read(cfg: PipelineConfig, kind: str, *where):
    """Load artifact kind as an earlier stage wrote it, checked as its
    _ARTIFACTS row says: a FeatureMatrix from .csv, else a JSON object.
    A missing or malformed file, or one whose values give cfg no design,
    raises DataError; one made under other settings raises ConfigError."""
    path = artifact_path(cfg, kind, *where)
    _, writer, keys, settings = _ARTIFACTS[kind]
    if not path.is_file():
        raise DataError(f"missing {path}; run '{writer}' first")
    if path.suffix == ".csv":
        data = FeatureMatrix.from_csv(path)
    else:
        try:
            data = json.loads(path.read_text())
        except ValueError as exc:  # not UTF-8, not JSON, or an int of over 4300 digits
            raise DataError(f"{path}: malformed JSON ({exc}); run '{writer}' again") from None
    for key, check in (keys(data) if callable(keys) else keys).items():
        node = data
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                raise DataError(f"{path}: missing key {key!r}; run '{writer}' again")
            node = node[part]
        if check is not None and not check[0](node):
            raise DataError(f"{path}: {key!r} must be {check[1]}; run '{writer}' again")
    try:
        compared = settings(cfg, data) if settings else ()
    except (ConfigError, DataError) as exc:  # e.g. a z that overflows, a header of other names
        raise DataError(f"{path}: {exc}; run '{writer}' again") from None
    for key, value, wanted in compared:
        if value != wanted:
            raise ConfigError(f"{path}: {key!r} is {value!r}, but this config gives {wanted!r}; "
                              f"use the settings it was made with, or run '{writer}' again")
    return data


def _write_set(directory: Path, channels, writes: Counter) -> None:
    """Replace directory's channel files with one file per channel, named by
    _file_name. writes counts the writes each channel has left, by id();
    a channel's text is released after its last."""
    for path in _set_channel_files(directory):
        path.unlink()
    for ch in channels:
        save_channel(ch, directory / _file_name(ch))
        writes[id(ch)] -= 1
        if not writes[id(ch)]:
            ch.drop_text()


class _Run:
    """What one invocation hands from stage to stage: each corpus set in load_set's order,
    made once from the manifest's record, and the reduced classes of sample's last level,
    by (level label, case), until extract takes them."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg, self.sets, self.reduced, self._set_dirs = cfg, {}, {}, None

    def classes(self, case_id: str) -> tuple:
        """case_id's two classes; a set not held is generated from the synthetic
        settings the manifest records, or parsed from the directory it names."""
        for s in (s for sets in CASE_SETS[case_id] for s in sets if s not in self.sets):
            if self._set_dirs is None:  # the first set missing reads the manifest
                manifest = _read(self.cfg, "manifest")
                syn = manifest.get("synthetic")
                self._set_dirs = {} if syn else manifest["set_dirs"]
                if syn:
                    made = generate_synthetic_case((syn["n0"], syn["n1"]), syn["length"],
                                                   syn["seed"], syn["burst_amplitude"])
                    self.sets = {**made, **self.sets}
            if s not in self.sets:
                if s not in self._set_dirs:
                    raise DataError(f"{case_id}: set {s} is not in the manifest; run 'ingest' again")
                self.sets[s] = load_set(self._set_dirs[s], s)
        return case_channels(case_id, self.sets.__getitem__)

    def take_reduced(self, label: str, case_id: str) -> tuple:
        """case_id's reduced classes at level label: sample's once, else parsed from reduced/."""
        reduced_dir = artifact_path(self.cfg, "reduced", label, case_id)
        return self.reduced.pop((label, case_id), None) or case_channels(
            case_id, lambda s: load_set(reduced_dir / s, s))


def stage_ingest(cfg: PipelineConfig) -> dict:
    """Record where the corpus comes from in the manifest, and write it: a
    synthetic corpus's generator settings with the seed, or a data
    directory's set directories with their channel file counts. Ingest makes
    and parses no channel; a _Run does."""
    if cfg.synthetic:
        if cfg.cases != ("Case1",):
            raise ConfigError("synthetic data covers sets A/B/E, so only Case1 is supported")
        manifest = {"synthetic": {**{key: getattr(cfg, f"synthetic_{key}")
                                     for key in SYNTHETIC_RULES}, "seed": cfg.seed},
                    "cases": list(cfg.cases)}
    else:
        if not cfg.data_dir:
            raise ConfigError("either a data directory or synthetic data is required")
        root = Path(cfg.data_dir)
        if not root.is_dir():
            raise DataError(f"data directory not found: {root}")
        set_dirs = {}
        for s in sorted({s for case in cfg.cases for sets in CASE_SETS[case] for s in sets}):
            candidates = [root / s, root / _SET_TO_PREFIX[s]]
            found = next((c for c in candidates if c.is_dir()), None)
            if found is None:
                raise DataError(
                    f"no directory for set {s}: tried " + ", ".join(str(c) for c in candidates)
                )
            set_dirs[s] = found
        manifest = {"root": str(root), "set_dirs": {s: str(d) for s, d in set_dirs.items()},
                    "cases": list(cfg.cases),
                    "channels_per_set": {s: len(_set_channel_files(d))
                                         for s, d in set_dirs.items()}}
    _write_json(artifact_path(cfg, "manifest"), manifest)
    return manifest


def stage_sample(cfg: PipelineConfig, label: str, z: float, run: _Run | None = None) -> dict:
    """Reduce every channel of every case at one confidence level, taking the corpus from
    run (None: a new run), which lets it go at the config's last level, and return each
    case's sampling. A class that several cases share (set E is class 1 of every case) is
    allocated once, each of its channels reduced once and its text formatted once, then
    released after its last write. Nothing is written until every case is reduced, then
    each case's files in case order. Each case's reduced classes, in the order extract
    reads their files in, replace what run held."""
    run = _Run(cfg) if run is None else run
    run.reduced.clear()  # an earlier level's, which no extract took
    cases = {case_id: run.classes(case_id) for case_id in cfg.cases}
    if label == resolve_levels(cfg)[-1][0]:  # no later level reads the corpus
        run.sets, run._set_dirs = {}, None
    # a class's channels fix its length, so its sets key its allocation, and
    # a channel's reduction is keyed by its id and counts: cases that share a
    # class share its allocation, its reduced channels and their text
    allocations, reductions = {}, {}
    samplings, reduced = {}, {}
    for case_id, classes in cases.items():
        lengths = {len(ch) for chans in classes for ch in chans}
        if len(lengths) != 1:
            raise DataError(f"{case_id}: channels have mixed lengths {sorted(lengths)}")
        length = lengths.pop()
        design = _design(cfg, z, length)
        per_class = []
        for class_label, (sets, chans) in enumerate(zip(CASE_SETS[case_id], classes)):
            if sets not in allocations:
                try:
                    allocations[sets] = allocate(chans, design["plan"], design["n_bar"])
                except DegenerateDataError as exc:
                    raise DegenerateDataError(f"{case_id} class {class_label}: {exc}") from None
                # extract needs MIN_STRATUM_LENGTH points per stratum: refuse here,
                # before writing, rather than leave artifacts extract cannot use
                for i, count in enumerate(allocations[sets][0]):
                    if count < MIN_STRATUM_LENGTH:
                        raise ConfigError(
                            f"{case_id} class {class_label}: stratum {i} is allocated {count} "
                            f"samples, fewer than {MIN_STRATUM_LENGTH}; "
                            "lower n_strata or raise the confidence level")
            per_class.append(allocations[sets])
        for chans, (counts, _) in zip(classes, per_class):
            for ch in chans:
                if (ch.id, counts) not in reductions:
                    reductions[ch.id, counts] = reduce_channel(
                        ch, design["plan"], counts, policy=cfg.policy,
                        seed=derive_seed(cfg.seed, "reduce", ch.id))
        reduced[case_id] = tuple([reductions[ch.id, counts] for ch in chans]
                                 for chans, (counts, _) in zip(classes, per_class))
        samplings[case_id] = {
            "case": case_id, "length": length, "z": z, **design,
            "classes": {str(lab): {"per_stratum": list(counts), "weights": list(weights)}
                        for lab, (counts, weights) in enumerate(per_class)},
        }
    # every case's files, in case order, once every case is reduced
    writes = Counter(id(ch) for kept in reduced.values() for chans in kept for ch in chans)
    for case_id, kept in reduced.items():
        reduced_dir = artifact_path(cfg, "reduced", label, case_id)
        for sets, chans in zip(CASE_SETS[case_id], kept):
            for set_label in sets:
                _write_set(reduced_dir / set_label,
                           [ch for ch in chans if ch.set_label == set_label], writes)
        _write_json(artifact_path(cfg, "sampling", label, case_id), samplings[case_id])
    run.reduced.update(((label, case_id), kept) for case_id, kept in reduced.items())
    return samplings


def stage_extract(cfg: PipelineConfig, label: str, run: _Run | None = None) -> dict:
    """Turn each case's reduced classes, taken from run (None: a new run,
    which parses them from the output directory), into its feature matrix."""
    run = _Run(cfg) if run is None else run
    out = {}
    for case_id in cfg.cases:
        allocation = _read(cfg, "sampling", label, case_id)["classes"]
        classes = run.take_reduced(label, case_id)
        try:
            # one call per class, whose channels share a plan
            rows = [extract_vector(chans, allocation[str(lab)]["per_stratum"])
                    for lab, chans in enumerate(classes)]
        except DataError as exc:
            raise DataError(f"{case_id}: {exc}") from None
        fm = FeatureMatrix(feature_names(cfg.n_strata), np.vstack(rows),
                           np.repeat([0, 1], [len(chans) for chans in classes]))
        fm.to_csv(artifact_path(cfg, "features", label, case_id))
        out[case_id] = fm
    return out


def stage_select(cfg: PipelineConfig, label: str) -> dict:
    """Run feature selection per case on the persisted feature matrices."""
    out = {}
    for case_id in cfg.cases:
        fm = _read(cfg, "features", label, case_id)
        subset = select_features(fm, stall_limit=cfg.stall_limit,
                                 threshold=cfg.range_threshold)
        _write_json(artifact_path(cfg, "selection", label, case_id), {**subset.to_dict(),
                    "settings": {name: getattr(cfg, name) for name in _SELECT_SETTINGS}})
        out[case_id] = subset
    return out


def stage_classify(cfg: PipelineConfig, label: str) -> dict:
    """Cross-validate the configured classifier per case."""
    out = {}
    for case_id in cfg.cases:
        fm = _read(cfg, "features", label, case_id)
        result = run_cv(fm, cfg)
        _write_json(artifact_path(cfg, "evaluation", label, case_id), {
            "case": case_id,
            "classifier": cfg.classifier,
            "n_rows": fm.n_rows,
            "mean": result.mean,
            "std": result.std,
            "per_repeat": list(result.per_repeat),
            "settings": cfg.classify_settings(),
        })
        out[case_id] = result
    return out


def assemble_report(cfg: PipelineConfig) -> dict:
    """Build the run report from persisted stage artifacts, write it as
    the report artifact and return it: the config, then per level the z,
    the channel-weighted average accuracy and each case's entry."""
    levels = []
    for label, z in resolve_levels(cfg):
        cases = {}
        for case_id in sorted(cfg.cases):
            sampling = _read(cfg, "sampling", label, case_id)
            selection = _read(cfg, "selection", label, case_id)
            evaluation = _read(cfg, "evaluation", label, case_id)
            cases[case_id] = {
                "n_channels": evaluation["n_rows"],
                "n_bar": sampling["n_bar"],
                "plan": sampling["plan"],
                "allocation": sampling["classes"],
                "accuracy_mean": evaluation["mean"],
                "accuracy_std": evaluation["std"],
                "per_repeat": evaluation["per_repeat"],
                "selection": {k: v for k, v in selection.items() if k != "settings"},
            }
        average = weighted_accuracy([e["accuracy_mean"] for e in cases.values()],
                                    [e["n_channels"] for e in cases.values()])
        levels.append({"confidence": label, "z": z, "weighted_average": average,
                       "cases": cases})
    report = {"config": asdict(cfg), "levels": levels}
    _write_json(artifact_path(cfg, "report"), report)
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
    """All stages in order for every configured confidence level, through one run, so the
    corpus is made once and sample's reduced channels go to extract in memory."""
    run = _Run(cfg)
    if cfg.synthetic:  # class sizes are known now, so classify's check need not wait for it
        _stage("classify", kfold_split, [0] * cfg.synthetic_n0 + [1] * cfg.synthetic_n1, cfg)
    manifest = _stage("ingest", stage_ingest, cfg)
    for case_id in () if cfg.synthetic else cfg.cases:  # a data directory's, once ingest counted
        sizes = [sum(manifest["channels_per_set"][s] for s in sets) for sets in CASE_SETS[case_id]]
        _stage("classify", kfold_split, np.repeat([0, 1], sizes), cfg)
    for label, z in resolve_levels(cfg):
        _stage("sample", stage_sample, cfg, label, z, run)
        _stage("extract", stage_extract, cfg, label, run)
        _stage("select", stage_select, cfg, label)
        _stage("classify", stage_classify, cfg, label)
    return _stage("report", assemble_report, cfg)
