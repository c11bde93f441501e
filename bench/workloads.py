"""The benchmark's workloads: configs, inputs, timed operations, output checks.

Paths are relative to the checkout root, which is the working directory:
report.json and manifest.json embed the output and data directories, so a
fixed relative path keeps their bytes the same in every checkout.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from eegstrata import pipeline
from eegstrata.cli import build_config, build_parser
from eegstrata.corpus import CASE_SETS

import corpus_gen
from run import cli_argv

GOLDEN = Path(__file__).with_name("golden.json")
# n_bar at N = 4097 for the 70/85/95/99 % presets, and the 4-stratum plan
N_BAR = {"70": 1629, "85": 2288, "95": 2872, "99": 3287}
PLAN = [1024, 1024, 1024, 1025]
N_FEATURES = 60
# criterion 7 on a 100 + 50 channel extract, the one classify-sweep classifies
ACCURACY_FLOOR = 99.0
SWEEP_CLASSIFIERS = ("nb", "knn")
# classify-sweep classifies the extract made at this seed, whatever the
# workload seed, which sets only its cross-validation folds: best-first
# search works as long as the data's correlations ask, and over extracts
# made at seeds 0-9 one iteration's fastest time ranged from 0.42 to 0.73 s
EXTRACT_SEED = 0


def config(name: str, seed: int):
    """The workload's config, built the way the CLI builds it."""
    return build_config(build_parser().parse_args(cli_argv(name, seed)))


def prepare(name: str, cfg) -> None:
    """Make the untimed inputs of one invocation."""
    if name == "classify-sweep":
        data = dataclasses.replace(cfg, seed=EXTRACT_SEED)
        pipeline.stage_ingest(data)
        for label, z in pipeline.resolve_levels(data):
            pipeline.stage_sample(data, label, z)
            pipeline.stage_extract(data, label)
    elif name == "reduce-sweep":
        corpus_gen.write_corpus(cfg.data_dir, cfg.seed)


def reset(name: str, cfg) -> None:
    """Remove what an earlier iteration wrote, so every iteration starts alike."""
    out = Path(cfg.out_dir)
    if name == "classify-sweep":
        for path in out.glob("confidence_*/evaluation_*.json"):
            path.unlink()
    else:
        shutil.rmtree(out, ignore_errors=True)


def operations(name: str, cfg) -> list:
    """One timed iteration as (label, stage calls, thunk) triples, in order.

    The thunks look the stage functions up on the module when called, so a
    tracer installed around them sees every call.
    """
    levels = pipeline.resolve_levels(cfg)
    if name == "pipeline-rf":
        return [("run_pipeline", 2 + 4 * len(levels), lambda: pipeline.run_pipeline(cfg))]
    if name == "classify-sweep":
        return [(f"{kind}@{label}", 1,
                 lambda c=dataclasses.replace(cfg, classifier=kind), lab=label:
                 pipeline.stage_classify(c, lab))
                for label, _ in levels for kind in SWEEP_CLASSIFIERS]
    if name == "reduce-sweep":
        return [("ingest", 1, lambda: pipeline.stage_ingest(cfg))] + [
            (f"sample@{label}", 1, lambda lab=label, z=z: pipeline.stage_sample(cfg, lab, z))
            for label, z in levels]
    raise ValueError(f"unknown workload {name!r}")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _cv_dict(result) -> dict:
    return {"mean": result.mean, "std": result.std, "per_repeat": list(result.per_repeat)}


def _reduced_files(cfg, label: str, case_id: str) -> list:
    return sorted((Path(cfg.out_dir) / f"confidence_{label}" / "reduced" / case_id).rglob("*.txt"))


def _values(path: Path) -> np.ndarray:
    return np.array(path.read_text().split(), dtype=np.float64)


def digests(name: str, cfg, results: dict) -> dict:
    """The output facts a recorded seed pins, each as a sha256."""
    out = Path(cfg.out_dir)
    if name == "pipeline-rf":
        return {"report.json": _sha((out / "report.json").read_bytes())}
    if name == "classify-sweep":
        return {label: _sha(_canonical({c: _cv_dict(r) for c, r in sorted(res.items())}))
                for label, res in results.items()}
    sampling = []
    values = hashlib.sha256()
    for label, _ in pipeline.resolve_levels(cfg):
        for case_id in cfg.cases:
            sampling.append(json.loads(
                (out / f"confidence_{label}" / f"sampling_{case_id}.json").read_text()))
            for path in _reduced_files(cfg, label, case_id):
                values.update(_values(path).tobytes())
    return {"sampling": _sha(_canonical(sampling)), "reduced_values": values.hexdigest()}


def _check_sampling(where: str, label: str, n_bar, plan, classes) -> list:
    problems = []
    if n_bar != N_BAR.get(label):
        problems.append(f"{where}: n_bar {n_bar}, expected {N_BAR.get(label)}")
    if plan != PLAN:
        problems.append(f"{where}: plan {plan}, expected {PLAN}")
    for lab, entry in sorted(classes.items()):
        counts = entry["per_stratum"]
        if sum(counts) != n_bar or any(not 0 <= n <= size for n, size in zip(counts, PLAN)):
            problems.append(f"{where}: class {lab} allocation {counts} does not split {n_bar}")
    return problems


def _check_pipeline(cfg, results: dict) -> list:
    problems = []
    out = Path(cfg.out_dir)
    # the criterion-7 floor holds for 100 + 50 channels, not for this scaled
    # run, so its accuracy must beat the majority class at every seed, and
    # match the recorded report.json exactly at a recorded seed
    n0, n1 = cfg.synthetic_n0, cfg.synthetic_n1
    majority = 100.0 * max(n0, n1) / (n0 + n1)
    report = json.loads((out / "report.json").read_text())
    for row in report["levels"]:
        label = row["confidence"]
        for case_id, entry in row["cases"].items():
            where = f"{case_id}@{label}"
            problems += _check_sampling(where, label, entry["n_bar"], entry["plan"],
                                        entry["allocation"])
            if entry["accuracy_mean"] <= majority:
                problems.append(f"{where}: accuracy {entry['accuracy_mean']} is no better than "
                                f"always predicting the larger class ({majority})")
            if len(entry["per_repeat"]) != cfg.cv_repeats:
                problems.append(f"{where}: {len(entry['per_repeat'])} repeats, expected {cfg.cv_repeats}")
            with open(out / f"confidence_{label}" / f"features_{case_id}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            if len(rows[0]) != N_FEATURES + 1:
                problems.append(f"{where}: {len(rows[0]) - 1} feature columns, expected {N_FEATURES}")
            if len(rows) - 1 != cfg.synthetic_n0 + cfg.synthetic_n1:
                problems.append(f"{where}: {len(rows) - 1} feature rows")
    return problems


def _check_classify(cfg, results: dict) -> list:
    problems = []
    for label, res in results.items():
        for case_id, r in res.items():
            where = f"{case_id} {label}"
            per_repeat = np.array(r.per_repeat)
            if per_repeat.size != cfg.cv_repeats or not np.all((per_repeat >= 0) & (per_repeat <= 100)):
                problems.append(f"{where}: per-repeat accuracies {r.per_repeat}")
            elif abs(r.mean - per_repeat.mean()) > 1e-9:
                problems.append(f"{where}: mean {r.mean} is not the mean of its repeats")
            if r.mean < ACCURACY_FLOOR:
                problems.append(f"{where}: accuracy {r.mean} < {ACCURACY_FLOOR}")
    # every classifier writes the same evaluation file; the last one must be on disk
    last_label, last = list(results.items())[-1]
    kind, level = last_label.split("@")
    for case_id, r in last.items():
        path = Path(cfg.out_dir) / f"confidence_{level}" / f"evaluation_{case_id}.json"
        saved = json.loads(path.read_text())
        if saved["classifier"] != kind or {k: saved[k] for k in ("mean", "std", "per_repeat")} != _cv_dict(r):
            problems.append(f"{path}: does not hold the {kind} result")
    return problems


def _check_reduce(cfg, results: dict) -> list:
    problems = []
    out = Path(cfg.out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    if set(manifest["channels_per_set"].values()) != {corpus_gen.N_PER_SET}:
        problems.append(f"manifest: channels per set {manifest['channels_per_set']}")
    for label, _ in pipeline.resolve_levels(cfg):
        for case_id in cfg.cases:
            where = f"{case_id}@{label}"
            sampling = json.loads((out / f"confidence_{label}" / f"sampling_{case_id}.json").read_text())
            problems += _check_sampling(where, label, sampling["n_bar"], sampling["plan"],
                                        sampling["classes"])
            files = _reduced_files(cfg, label, case_id)
            expected = corpus_gen.N_PER_SET * sum(len(sets) for sets in CASE_SETS[case_id])
            if len(files) != expected:
                problems.append(f"{where}: {len(files)} reduced channels, expected {expected}")
            short = [p.name for p in files if _values(p).size != sampling["n_bar"]]
            if short:
                problems.append(f"{where}: reduced channels without n_bar values: {short[:3]}")
    return problems


CHECKS = {"pipeline-rf": _check_pipeline, "classify-sweep": _check_classify,
          "reduce-sweep": _check_reduce}


def recorded(name: str, seed: int):
    """Digests recorded for this workload and seed, or None."""
    return json.loads(GOLDEN.read_text()).get(name, {}).get(str(seed))


def check(name: str, cfg, results: dict) -> list:
    """Problems in one iteration's outputs: invariants at every seed, plus
    the recorded digests at a recorded seed. Empty when everything holds."""
    problems = CHECKS[name](cfg, results)
    want = recorded(name, cfg.seed)
    if want is not None:
        got = digests(name, cfg, results)
        problems += [f"{key}: sha256 {got.get(key)} differs from the recorded {value}"
                     for key, value in sorted(want.items()) if got.get(key) != value]
    return problems


def accuracy(name: str, cfg, results: dict) -> dict:
    """Accuracy in percent per classifier run; weighted over cases for a report."""
    if name == "pipeline-rf":
        report = json.loads((Path(cfg.out_dir) / "report.json").read_text())
        return {f"{cfg.classifier}@{row['confidence']}": row["weighted_average"]
                for row in report["levels"]}
    if name == "classify-sweep":
        return {label: float(np.mean([r.mean for r in res.values()]))
                for label, res in results.items()}
    return {}


def artifact_digest(name: str, cfg, results: dict) -> str:
    """One sha256 over every file under the output directory and the
    workload's digests, to compare a traced iteration with an untraced one."""
    h = hashlib.sha256()
    out = Path(cfg.out_dir)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    h.update(_canonical(digests(name, cfg, results)))
    return h.hexdigest()
