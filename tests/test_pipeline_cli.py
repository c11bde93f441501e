import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eegstrata
from eegstrata import (ConfigError, FeatureMatrix, PipelineConfig,
                       SamplingConfig, assemble_report, emit_report,
                       required_sample_size, run_pipeline)
from eegstrata.cli import (CONFIG_TEMPLATE, build_config, build_parser, main,
                           parse_config_file)
from eegstrata.pipeline import (REPORT_CSV_HEADER, resolve_levels,
                                stage_classify, stage_extract, stage_ingest,
                                stage_sample, stage_select)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = PipelineConfig(synthetic=True, synthetic_n0=12, synthetic_n1=10,
                         synthetic_length=512, cases=("Case1",),
                         confidence_levels=(95,), rf_trees=20,
                         cv_folds=5, cv_repeats=2, seed=7, out_dir=str(out))
    report = run_pipeline(cfg)
    return cfg, report


def test_report_structure(tiny_run):
    cfg, report = tiny_run
    data = report.to_dict()
    assert data["config"]["seed"] == 7
    assert len(data["levels"]) == 1
    level = data["levels"][0]
    assert level["confidence"] == "95"
    assert level["z"] == 1.96
    case = level["cases"]["Case1"]
    assert case["n_channels"] == 22
    assert case["n_bar"] == 486
    assert sum(case["plan"]) == 512
    assert sum(case["allocation"]["0"]["per_stratum"]) == 486
    assert sum(case["allocation"]["1"]["per_stratum"]) == 486
    assert 0.0 <= case["accuracy_mean"] <= 100.0
    assert len(case["per_repeat"]) == 2
    assert level["weighted_average"] == case["accuracy_mean"]
    assert 1 <= len(case["selection"]["selected"]) <= 60


def test_artifacts_on_disk(tiny_run):
    cfg, report = tiny_run
    out = Path(cfg.out_dir)
    assert (out / "manifest.json").is_file()
    assert (out / "report.json").is_file()
    level = out / "confidence_95"
    for name in ("sampling_Case1.json", "features_Case1.csv",
                 "selection_Case1.json", "evaluation_Case1.json"):
        assert (level / name).is_file()
    for set_label in ("A", "B", "E"):
        assert (out / "data" / set_label).is_dir()
        reduced = sorted((level / "reduced" / "Case1" / set_label).glob("*.txt"))
        assert reduced
        # every reduced channel holds exactly the allocated sample count
        lines = [ln for ln in reduced[0].read_text().splitlines() if ln.strip()]
        assert len(lines) == 486
    fm = FeatureMatrix.from_csv(level / "features_Case1.csv")
    assert fm.n_rows == 22
    assert fm.n_features == 60
    selection = json.loads((level / "selection_Case1.json").read_text())
    assert selection["selected"] == report.to_dict()["levels"][0]["cases"]["Case1"]["selection"]["selected"]


def test_rerun_is_byte_identical(tiny_run):
    cfg, _ = tiny_run
    out = Path(cfg.out_dir)
    before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    run_pipeline(cfg)
    after = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert before == after


def test_staged_run_matches_one_shot(tiny_run, tmp_path):
    cfg, _ = tiny_run
    staged_cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "staged"))
    stage_ingest(staged_cfg)
    for label, z in resolve_levels(staged_cfg):
        stage_sample(staged_cfg, label, z)
        stage_extract(staged_cfg, label)
        stage_select(staged_cfg, label)
        stage_classify(staged_cfg, label)
    assemble_report(staged_cfg)
    staged = json.loads((Path(staged_cfg.out_dir) / "report.json").read_text())
    oneshot = json.loads((Path(cfg.out_dir) / "report.json").read_text())
    staged["config"].pop("out_dir")
    oneshot["config"].pop("out_dir")
    assert staged == oneshot


def test_report_formats(tiny_run):
    _, report = tiny_run
    as_json = json.loads(emit_report(report, "json").decode())
    assert as_json == json.loads(json.dumps(report.to_dict()))

    csv_text = emit_report(report, "csv").decode()
    lines = csv_text.strip().splitlines()
    assert lines[0] == ",".join(REPORT_CSV_HEADER)
    assert len(lines) == 2  # one (level, case) row
    cells = lines[1].split(",")
    assert cells[0] == "95" and cells[2] == "Case1" and cells[3] == "22"

    table = emit_report(report, "table").decode()
    assert table.splitlines()[0].startswith("confidence")
    assert "Case1" in table.splitlines()[0]

    with pytest.raises(ConfigError):
        emit_report(report, "yaml")


def test_assemble_report_rebuilds_from_artifacts(tiny_run):
    cfg, report = tiny_run
    rebuilt = assemble_report(cfg)
    assert rebuilt.to_dict() == report.to_dict()


def test_resolve_levels():
    assert resolve_levels(PipelineConfig(z=1.5)) == (("z1.5", 1.5),)
    assert resolve_levels(PipelineConfig(confidence_levels=(70, 99))) == (
        ("70", 1.04), ("99", 2.58))
    with pytest.raises(ConfigError):
        resolve_levels(PipelineConfig(z=-1.0))


def test_multi_level_sweep(tmp_path):
    cfg = PipelineConfig(synthetic=True, synthetic_n0=8, synthetic_n1=6,
                         synthetic_length=512, confidence_levels=(70, 95),
                         rf_trees=10, cv_folds=3, cv_repeats=1, seed=3,
                         out_dir=str(tmp_path))
    report = run_pipeline(cfg)
    data = report.to_dict()
    assert [row["confidence"] for row in data["levels"]] == ["70", "95"]
    assert (tmp_path / "confidence_70").is_dir()
    assert (tmp_path / "confidence_95").is_dir()
    # higher confidence keeps more samples
    n70 = data["levels"][0]["cases"]["Case1"]["n_bar"]
    n95 = data["levels"][1]["cases"]["Case1"]["n_bar"]
    assert n70 < n95
    assert n95 == required_sample_size(SamplingConfig(z=1.96, population_size=512))
    lines = emit_report(report, "csv").decode().strip().splitlines()
    assert len(lines) == 3


def test_config_template_matches_defaults(tmp_path):
    path = tmp_path / "eegstrata.conf"
    assert main(["init-config", str(path)]) == 0
    assert path.read_text() == CONFIG_TEMPLATE
    kwargs = parse_config_file(path)
    assert PipelineConfig(**kwargs) == PipelineConfig()
    # refuses to clobber an existing file
    assert main(["init-config", str(path)]) == 2


def test_readme_config_block_parses_to_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.conf"
    path.write_text(blocks[0])
    # parse_config_file rejects unknown keys, so this also pins the key names
    assert PipelineConfig(**parse_config_file(path)) == PipelineConfig()


def test_config_parse_errors(tmp_path):
    def check(text, fragment):
        path = tmp_path / "bad.conf"
        path.write_text(text)
        with pytest.raises(ConfigError, match=fragment):
            parse_config_file(path)
        path.unlink()

    check("bogus.key = 1\n", "unknown key")
    check("seed = 1\nseed = 2\n", "duplicate key")
    check("seed = notanumber\n", "expected an integer")
    check("just some words\n", "expected 'key = value'")
    check("synthetic = perhaps\n", "expected a boolean")
    with pytest.raises(ConfigError, match="not found"):
        parse_config_file(tmp_path / "missing.conf")


def test_config_comments_and_blank_values(tmp_path):
    path = tmp_path / "ok.conf"
    path.write_text(
        "# full-line comment\n"
        "\n"
        "strata = 8  # trailing comment\n"
        "z =\n"
        "selection.stall_limit = none\n"
        "confidence = 70, 95\n"
    )
    kwargs = parse_config_file(path)
    assert kwargs == {"n_strata": 8, "stall_limit": None,
                      "confidence_levels": (70, 95)}


def test_cli_overrides_beat_config_file(tmp_path):
    path = tmp_path / "base.conf"
    path.write_text("seed = 1\nz = 2.0\nclassifier = rf\nout = fromfile\n")
    args = build_parser().parse_args([
        "pipeline", "--config", str(path), "--seed", "3",
        "--confidence", "70,99", "--classifier", "nb",
        "--case", "Case1", "--case", "Case2", "--out", str(tmp_path / "o"),
    ])
    cfg = build_config(args)
    assert cfg.seed == 3
    assert cfg.z is None  # --confidence clears the file's explicit z
    assert cfg.confidence_levels == (70, 99)
    assert cfg.classifier == "nb"
    assert cfg.cases == ("Case1", "Case2")
    assert cfg.out_dir == str(tmp_path / "o")


def test_cli_pipeline_runs_end_to_end(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "synthetic = true\n"
        "synthetic.n0 = 8\n"
        "synthetic.n1 = 6\n"
        "synthetic.length = 512\n"
        "rf.trees = 10\n"
        "cv.folds = 3\n"
        "cv.repeats = 1\n"
        "seed = 5\n"
        f"out = {tmp_path / 'out'}\n"
    )
    assert main(["pipeline", "--config", str(conf)]) == 0
    captured = capsys.readouterr()
    assert "report written to" in captured.out
    assert (tmp_path / "out" / "report.json").is_file()
    # report subcommand formats the persisted artifacts
    assert main(["report", "--config", str(conf), "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0] == ",".join(REPORT_CSV_HEADER)


def test_cli_explicit_z_level(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "synthetic = true\n"
        "synthetic.n0 = 4\n"
        "synthetic.n1 = 3\n"
        "synthetic.length = 512\n"
        f"out = {tmp_path / 'out'}\n"
    )
    assert main(["ingest", "--config", str(conf)]) == 0
    assert main(["sample", "--config", str(conf), "--z", "1.5"]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "confidence_z1.5" / "sampling_Case1.json").is_file()


def test_cli_error_exit_codes(tmp_path, capsys):
    # configuration error: unknown case name
    assert main(["pipeline", "--synthetic", "--case", "Case9",
                 "--out", str(tmp_path / "a")]) == 2
    # data error: report before any stage has produced artifacts
    assert main(["report", "--out", str(tmp_path / "b")]) == 3
    # degenerate data: constant channels carry no variance to weight
    data = tmp_path / "flat"
    for set_label in ("A", "B", "E"):
        d = data / set_label
        d.mkdir(parents=True)
        for i in range(2):
            (d / f"c{i}.txt").write_text("0.0\n" * 64)
    out = tmp_path / "c"
    assert main(["ingest", "--data", str(data), "--out", str(out)]) == 0
    assert main(["sample", "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert "error:" in captured.err


@pytest.mark.parametrize("artifact, damage, command", [
    ("manifest.json", 0.0, "sample"),  # empty
    ("confidence_95/sampling_Case1.json", 0.5, "extract"),  # truncated
    ("confidence_95/sampling_Case1.json", 0.5, "report"),
    # valid JSON of the wrong shape
    ("manifest.json", "[]", "sample"),
    ("confidence_95/sampling_Case1.json", "{}", "extract"),
    ("confidence_95/sampling_Case1.json", "{}", "report"),
    ("confidence_95/evaluation_Case1.json", "{}", "report"),
    # a value of the wrong type
    ("manifest.json", '{"set_dirs": []}', "sample"),
])
def test_cli_malformed_artifact_is_a_data_error(tmp_path, artifact, damage, command):
    """damage is the share of the artifact's text to keep, or text to replace it with."""
    conf = tmp_path / "run.conf"
    conf.write_text("synthetic = true\nsynthetic.n0 = 4\nsynthetic.n1 = 3\n"
                    f"synthetic.length = 512\nout = {tmp_path / 'out'}\n"
                    "classifier = nb\ncv.folds = 2\ncv.repeats = 1\n")
    stages = ["ingest", "sample"] + (["extract", "select", "classify"]
                                     if "evaluation" in artifact else [])
    for stage in stages:
        assert main([stage, "--config", str(conf)]) == 0
    path = tmp_path / "out" / artifact
    text = path.read_text()
    path.write_text(damage if isinstance(damage, str) else text[: int(len(text) * damage)])
    _assert_child_data_error([command, "--config", str(conf)], path)


def test_cli_non_utf8_channel_is_a_data_error(tmp_path):
    rng = np.random.default_rng(0)
    for prefix in "ZOS":  # Bonn directory names for sets A, B and E
        for i in range(3):
            path = tmp_path / "corpus" / prefix / f"{prefix}{i:03d}.txt"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("".join(f"{v}\n" for v in rng.integers(-200, 200, 256)))
    with path.open("ab") as f:
        f.write(b"\xff\n")
    args = ["--out", str(tmp_path / "out"), "--case", "Case1"]
    assert main(["ingest", "--data", str(tmp_path / "corpus"), *args]) == 0
    _assert_child_data_error(["sample", *args], path)


def _assert_child_data_error(args, path):
    """Run the CLI in a separate interpreter, so an uncaught exception would
    show as a traceback: it must exit 3 with a message naming path."""
    env = {**os.environ, "PYTHONPATH": str(Path(eegstrata.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "eegstrata", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert str(path) in proc.stderr
    assert "Traceback" not in proc.stderr
