import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eegstrata
import oracles
from eegstrata import (ConfigError, FeatureMatrix, PipelineConfig,
                       assemble_report, corpus, emit_report, pipeline,
                       reduce_channel, required_sample_size, run_pipeline)
from eegstrata.cli import (CONFIG_TEMPLATE, build_config, build_parser, main,
                           parse_config_file)
from eegstrata.pipeline import (_ARTIFACTS, REPORT_CSV_HEADER, resolve_levels,
                                stage_classify, stage_extract, stage_ingest,
                                stage_sample, stage_select)
from eegstrata.seeding import derive_seed

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import corpus_gen  # noqa: E402  the benchmark's seeded Bonn-layout corpus


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
    cfg, data = tiny_run
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
    level = out / "confidence_95"
    # the run writes these files and nothing else: the synthetic corpus is not written
    channels = {p.relative_to(level / "reduced" / "Case1").as_posix()
                for p in (level / "reduced" / "Case1").rglob("*") if p.is_file()}
    assert len(channels) == 22 and {c.split("/")[0] for c in channels} == {"A", "B", "E"}
    assert {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()} == {
        "manifest.json", "report.json", "confidence_95/sampling_Case1.json",
        "confidence_95/features_Case1.csv", "confidence_95/selection_Case1.json",
        "confidence_95/evaluation_Case1.json",
        *(f"confidence_95/reduced/Case1/{c}" for c in channels)}
    for set_label in ("A", "B", "E"):
        reduced = sorted((level / "reduced" / "Case1" / set_label).glob("*.txt"))
        assert reduced
        # every reduced channel holds exactly the allocated sample count
        lines = [ln for ln in reduced[0].read_text().splitlines() if ln.strip()]
        assert len(lines) == 486
    fm = FeatureMatrix.from_csv(level / "features_Case1.csv")
    assert fm.n_rows == 22
    assert fm.n_features == 60
    # the report embeds the selection without the settings select ran under
    selection = json.loads((level / "selection_Case1.json").read_text())
    assert selection == {**report["levels"][0]["cases"]["Case1"]["selection"], "settings": {
        "stall_limit": cfg.stall_limit, "range_threshold": cfg.range_threshold}}


def test_rerun_is_byte_identical(tiny_run):
    cfg, _ = tiny_run
    out = Path(cfg.out_dir)
    before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    run_pipeline(cfg)
    after = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert before == after


def _files(out: Path) -> dict:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file()}


def _run_staged(cfg):
    """Every stage called on its own, so each reads its inputs from out_dir."""
    stage_ingest(cfg)
    for label, z in resolve_levels(cfg):
        stage_sample(cfg, label, z)
        stage_extract(cfg, label)
        stage_select(cfg, label)
        stage_classify(cfg, label)
    assemble_report(cfg)


def _assert_staged_run_matches_one_shot(cfg):
    """Both runs write the same files, byte for byte, into the same out_dir,
    emptied in between so that neither sees the other's files."""
    _run_staged(cfg)
    staged = _files(Path(cfg.out_dir))
    shutil.rmtree(cfg.out_dir)
    run_pipeline(cfg)
    assert _files(Path(cfg.out_dir)) == staged


def test_staged_run_matches_one_shot(tiny_run, tmp_path):
    cfg, _ = tiny_run
    _assert_staged_run_matches_one_shot(dataclasses.replace(cfg, out_dir=str(tmp_path)))


@pytest.fixture(scope="module")
def bonn_corpus(tmp_path_factory):
    """Three channels per set of a seeded Bonn-layout corpus, and their paths."""
    root = tmp_path_factory.mktemp("bonn")
    return root, corpus_gen.write_corpus(root, seed=0, n_per_set=3, length=1024)


def _bonn_config(root, out, levels):
    return PipelineConfig(data_dir=str(root), cases=("Case1", "Case2", "Case3"),
                          confidence_levels=levels, classifier="nb", cv_folds=3,
                          cv_repeats=1, out_dir=str(out))


def test_staged_run_matches_one_shot_on_a_data_directory(bonn_corpus, tmp_path):
    _assert_staged_run_matches_one_shot(_bonn_config(bonn_corpus[0], tmp_path, (70, 99)))


def _count_loads(monkeypatch) -> list:
    loaded, load_channel = [], corpus.load_channel
    monkeypatch.setattr(corpus, "load_channel",
                        lambda path, *args: loaded.append(path) or load_channel(path, *args))
    return loaded


def test_synthetic_run_parses_no_channel_file(tiny_run, tmp_path, monkeypatch):
    cfg, _ = tiny_run
    loaded = _count_loads(monkeypatch)
    run_pipeline(dataclasses.replace(cfg, out_dir=str(tmp_path)))
    assert loaded == []


@pytest.mark.parametrize("steps, calls", [
    (["ingest"], 0), (["ingest", "sample"], 1), (["pipeline"], 1),
], ids=["ingest", "ingest-then-sample", "run-pipeline"])
def test_only_sample_generates_a_synthetic_corpus(tmp_path, monkeypatch, steps, calls):
    """ingest records the generator's settings and makes no channel; sample
    generates the corpus once, for a staged run and a one-shot run alike."""
    cfg = PipelineConfig(synthetic=True, synthetic_n0=4, synthetic_n1=3, synthetic_length=512,
                         classifier="nb", cv_folds=2, cv_repeats=1, out_dir=str(tmp_path))
    made, generate = [], pipeline.generate_synthetic_case
    monkeypatch.setattr(pipeline, "generate_synthetic_case",
                        lambda *args: made.append(args) or generate(*args))
    for step in steps:
        {"ingest": stage_ingest, "sample": lambda c: stage_sample(c, "95", 1.96),
         "pipeline": run_pipeline}[step](cfg)
    assert len(made) == calls


def test_data_directory_run_parses_each_channel_file_once(bonn_corpus, tmp_path, monkeypatch):
    root, paths = bonn_corpus
    loaded = _count_loads(monkeypatch)
    report = run_pipeline(_bonn_config(root, tmp_path, (70, 85, 95, 99)))
    assert len(report["levels"]) == 4 and all(len(row["cases"]) == 3 for row in report["levels"])
    assert sorted(loaded) == sorted(paths)


def test_cli_sample_parses_each_channel_file_once_for_every_level(bonn_corpus, tmp_path,
                                                                  monkeypatch):
    root, paths = bonn_corpus
    args = ["--case", "Case1", "--case", "Case2", "--case", "Case3", "--out", str(tmp_path)]
    assert main(["ingest", "--data", str(root), *args]) == 0
    loaded = _count_loads(monkeypatch)
    assert main(["sample", "--confidence", "70,85,95,99", *args]) == 0
    assert sorted(loaded) == sorted(paths)
    assert len(list(tmp_path.glob("confidence_*/sampling_Case*.json"))) == 12


@pytest.mark.parametrize("source", ["synthetic", "data-directory"])
def test_channels_in_memory_are_in_file_name_order(tmp_path, source):
    """The channels a run makes and sample hands on through it come in the
    order load_set reads them, that of the <stem>.txt names they are written
    as: past 1000 channels of a set, syn1000.txt sorts before syn101.txt, and
    in a data directory Z001.U.txt sorts before Z001.TXT, which is written
    back as Z001.txt."""
    out = tmp_path / "out"
    if source == "synthetic":
        cfg = PipelineConfig(synthetic=True, synthetic_n0=2, synthetic_n1=1001,
                             synthetic_length=256, n_strata=2, out_dir=str(out))
        first, second = "E/syn1000", "E/syn101"
    else:
        root = tmp_path / "corpus"
        _write_bonn_corpus(root, 256)
        (root / "Z" / "Z001.txt").rename(root / "Z" / "Z001.TXT")
        shutil.copy(root / "Z" / "Z002.txt", root / "Z" / "Z001.U.txt")
        cfg = PipelineConfig(data_dir=str(root), n_strata=2, classifier="nb", cv_folds=2,
                             cv_repeats=1, out_dir=str(out))
        first, second = "A/Z001.U", "A/Z001"
    run = pipeline._Run(cfg)
    stage_ingest(cfg)
    run.classes("Case1")
    sets = dict(run.sets)  # sample at the config's last level lets the run's sets go
    stage_sample(cfg, "95", 1.96, run)
    ids = [ch.id for ch in sets[first[0]]]
    assert ids.index(first) == ids.index(second) - 1
    reduced_dir = out / "confidence_95" / "reduced" / "Case1"
    for set_label, channels in sets.items():
        loaded = corpus.load_set(reduced_dir / set_label, set_label)
        assert [ch.id for ch in channels] == [ch.id for ch in loaded]
    assert [[ch.id for ch in chans] for chans in run.reduced["95", "Case1"]] == [
        [ch.id for ch in chans] for chans in corpus.case_channels(
            "Case1", lambda s: corpus.load_set(reduced_dir / s, s))]
    if source == "data-directory":  # features and report are cheap here, not at 1003 channels
        _assert_staged_run_matches_one_shot(cfg)


@pytest.mark.parametrize("source", ["synthetic", "data-directory"])
def test_one_shot_and_staged_runs_write_channels_alike(bonn_corpus, tmp_path, monkeypatch, source):
    """Each save_channel call is a leaf span that the benchmark cuts wall_s
    at: run_pipeline and the stages run one by one make the same calls in
    the same order, each writes each path once, and the paths written are
    exactly the channel files on disk."""
    out = tmp_path / "out"
    cfg = (PipelineConfig(synthetic=True, synthetic_n0=5, synthetic_n1=3, synthetic_length=256,
                          n_strata=2, confidence_levels=(70, 95), classifier="nb", cv_folds=2,
                          cv_repeats=1, out_dir=str(out)) if source == "synthetic"
           else _bonn_config(bonn_corpus[0], out, (70, 95)))
    saved, save_channel = [], pipeline.save_channel
    monkeypatch.setattr(pipeline, "save_channel",
                        lambda ch, path: saved.append(Path(path)) or save_channel(ch, path))
    _run_staged(cfg)
    staged = saved[:]
    shutil.rmtree(out)
    saved.clear()
    run_pipeline(cfg)
    assert saved == staged
    assert len(set(saved)) == len(saved)
    assert set(saved) == set(out.rglob("*.txt"))


def test_rerun_with_fewer_channels_leaves_no_stale_channel_files(tmp_path):
    """sample rewrites confidence_<x>/reduced/<case>/ whole, so a staged rerun
    reads only its own corpus."""
    cfg = PipelineConfig(synthetic=True, synthetic_n0=14, synthetic_n1=7, synthetic_length=512,
                         classifier="nb", cv_folds=3, cv_repeats=1, out_dir=str(tmp_path))
    run_pipeline(cfg)
    smaller = dataclasses.replace(cfg, synthetic_n0=10)
    _run_staged(smaller)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["synthetic"]["n0"] == 10
    reduced = tmp_path / "confidence_95" / "reduced" / "Case1"
    assert {s: len(list((reduced / s).glob("*.txt"))) for s in "ABE"} == {"A": 5, "B": 5, "E": 7}
    staged = _files(tmp_path)
    report = run_pipeline(smaller)
    assert report["levels"][0]["cases"]["Case1"]["n_channels"] == 17
    assert _files(tmp_path) == staged


def test_channel_files_that_differ_only_in_suffix_case_are_refused(tmp_path):
    """x.txt and x.TXT would both be channel <set>/x, reduced into one x.txt."""
    path = _write_bonn_corpus(tmp_path / "corpus", 256)
    path.with_suffix(".TXT").write_bytes(path.read_bytes())
    _assert_child_error(["ingest", "--data", str(tmp_path / "corpus"), "--out", str(tmp_path)],
                        f"{path.stem}.TXT and {path.name} are the same channel")


def test_report_formats(tiny_run):
    _, report = tiny_run
    as_json = json.loads(emit_report(report, "json").decode())
    assert as_json == json.loads(json.dumps(report))

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
    assert rebuilt == report


def test_report_bytes_are_pinned(tmp_path, monkeypatch):
    """A two-case run over an integer Bonn-layout corpus: report.json, the
    feature files and the csv and table output are pinned as sha256 literals,
    so any change to the report's layout or numbers, or to a feature column
    that selection ignores, shows."""
    rng = np.random.default_rng(0)
    for prefix, scale in (("Z", 20), ("O", 25), ("N", 40), ("F", 45), ("S", 40)):
        for i in range(4):
            x = rng.normal(0, scale, 512)
            if prefix == "S":  # seizure analogue: a burst in stratum i
                x[128 * i: 128 * i + 64] *= 3
            path = tmp_path / "corpus" / prefix / f"{prefix}{i:03d}.txt"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("".join(f"{v}\n" for v in np.rint(x).astype(int)))
    # relative paths, so the config echoed in the report does not depend on tmp_path
    monkeypatch.chdir(tmp_path)
    cfg = PipelineConfig(data_dir="corpus", cases=("Case3", "Case1"), classifier="nb",
                         cv_folds=2, cv_repeats=2, out_dir="out")
    report = run_pipeline(cfg)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in (
        ("report.json", Path("out/report.json").read_bytes()),
        *((name, Path("out/confidence_95", name).read_bytes())
          for name in ("features_Case1.csv", "features_Case3.csv")),
        ("csv", emit_report(report, "csv")), ("table", emit_report(report, "table")))}
    assert digests == {
        "report.json": "75f6be3a7353d506a828b0cd98fd9fe5f6ddb65d8529c7f5c13f75d46a45eec8",
        "features_Case1.csv": "afba56d73e72fd38c50be85112a958afde010ee300db900023bb91205a58fefe",
        "features_Case3.csv": "f4089033ddb97d82c7197480587e4a7cc4664c53aa07c7b18ab24941701b8b9f",
        "csv": "a50b05854df062d41495f274c97ff4dac4c3b2607e00d696464983f71b2d0322",
        "table": "34ef17d594e001b043af4c73096a57c32a6e4d1cb2a2f9b0e9a66361b6c201a8",
    }
    level = json.loads(Path("out/report.json").read_text())["levels"][0]
    means = [level["cases"][c]["accuracy_mean"] for c in ("Case1", "Case3")]
    weights = [level["cases"][c]["n_channels"] for c in ("Case1", "Case3")]
    assert weights == [12, 20]
    assert level["weighted_average"] == pytest.approx(
        oracles.weighted_mean_direct(means, weights), abs=1e-12)
    assert level["weighted_average"] not in means


def test_resolve_levels():
    assert resolve_levels(PipelineConfig(z=1.5)) == (("z1.5", 1.5),)
    assert resolve_levels(PipelineConfig(confidence_levels=(70, 99))) == (
        ("70", 1.04), ("99", 2.58))
    with pytest.raises(ConfigError, match="z must be positive"):
        PipelineConfig(z=-1.0)


def test_multi_level_sweep(tmp_path):
    cfg = PipelineConfig(synthetic=True, synthetic_n0=8, synthetic_n1=6,
                         synthetic_length=512, confidence_levels=(70, 95),
                         rf_trees=10, cv_folds=3, cv_repeats=1, seed=3,
                         out_dir=str(tmp_path))
    data = run_pipeline(cfg)
    assert [row["confidence"] for row in data["levels"]] == ["70", "95"]
    assert (tmp_path / "confidence_70").is_dir()
    assert (tmp_path / "confidence_95").is_dir()
    # higher confidence keeps more samples
    n70 = data["levels"][0]["cases"]["Case1"]["n_bar"]
    n95 = data["levels"][1]["cases"]["Case1"]["n_bar"]
    assert n70 < n95
    assert n95 == required_sample_size(1.96, 512)
    lines = emit_report(data, "csv").decode().strip().splitlines()
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


def test_readme_output_layout_lists_every_artifact():
    """The README's Output layout block and the artifact table name the same
    files: each kind's path, at level 95 and Case1, is a path of the block or
    holds one, and each file of the block is one kind's path or lies in it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Output layout\n\n```\nout/\n(.*?)```", readme, flags=re.S).group(1)
    files, parents = [], []
    for line in block.splitlines():
        depth = (len(line) - len(line.lstrip())) // 2 - 1
        name = line.split()[0]
        parents[depth:] = [name.rstrip("/")]
        if not name.endswith("/"):
            files.append("/".join(parents))
    kinds = {kind: row[0].format("95", "Case1") for kind, row in _ARTIFACTS.items()}

    def within(file, kind_path):
        return file == kind_path or file.startswith(kind_path + "/")

    assert [k for k, path in kinds.items() if not any(within(f, path) for f in files)] == []
    assert [f for f in files if not any(within(f, path) for path in kinds.values())] == []


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


@pytest.mark.parametrize("end", ["\f", "\v", "\x1c", "\x85", "\u2028"],
                         ids=["form-feed", "vertical-tab", "file-separator", "nel", "u2028"])
def test_config_lines_end_only_at_newlines(tmp_path, capsys, end):
    """As in a channel file, only \\n, \\r\\n and \\r end a line, so a line
    holding another of str.splitlines's breaks is one bad value on line 1."""
    path = tmp_path / "ff.conf"
    path.write_text(f"seed = 3{end}classifier = nb\nbogus = 1\n", encoding="utf-8")
    assert main(["ingest", "--config", str(path), "--synthetic",
                 "--out", str(tmp_path / "out")]) == 2
    value = f"3{end}classifier = nb"
    assert capsys.readouterr().err == (
        f"error: {path}:1: seed: expected an integer, got {value!r}\n")
    path.write_text("seed = 3\r\nclassifier = nb\rstrata = 8\n")
    assert parse_config_file(path) == {"seed": 3, "classifier": "nb", "n_strata": 8}


def test_config_integer_past_the_digit_limit(tmp_path, capsys):
    """int() refuses a decimal of more digits than the interpreter allows: the
    error names that limit and shows only the start of the value."""
    path = tmp_path / "big.conf"
    path.write_text("seed = " + "1" * 5000 + "\n")
    assert main(["ingest", "--config", str(path), "--synthetic",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:1: seed: expected an integer of at most "
        f"{sys.get_int_max_str_digits()} digits, got '{'1' * 20}'... (5000 characters)\n")


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
        "--case", "Case1", "--case", "Case2", "--out", str(tmp_path / "o"), "--data", "corpus",
    ])
    cfg = build_config(args)
    assert cfg.data_dir == "corpus"
    assert cfg.seed == 3
    assert cfg.z is None  # --confidence clears the file's explicit z
    assert cfg.confidence_levels == (70, 99)
    assert cfg.classifier == "nb"
    assert cfg.cases == ("Case1", "Case2")
    assert cfg.out_dir == str(tmp_path / "o")
    # a falsy flag value still overrides the file
    assert build_config(build_parser().parse_args(
        ["sample", "--config", str(path), "--seed", "0"])).seed == 0
    # --confidence clears only the file's z: a --z flag still sets one
    assert build_config(build_parser().parse_args(
        ["sample", "--config", str(path), "--confidence", "95", "--z", "1.5"])).z == 1.5


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
    assert main(["sample", "--config", str(conf), "--z", "1.5", "--policy", "systematic"]) == 0
    capsys.readouterr()
    sampling = tmp_path / "out" / "confidence_z1.5" / "sampling_Case1.json"
    assert json.loads(sampling.read_text())["policy"] == "systematic"


def test_cli_error_exit_codes(tmp_path, capsys):
    # configuration error: unknown case name
    assert main(["pipeline", "--synthetic", "--case", "Case9",
                 "--out", str(tmp_path / "a")]) == 2
    # --policy belongs to the stages that use or compare it, not to ingest
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--synthetic", "--policy", "systematic", "--out", str(tmp_path / "p")])
    assert exc.value.code == 2
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
    # configuration error: a z so large that the sample-size formula overflows
    assert main(["sample", "--z", "1e200", "--out", str(out)]) == 2
    assert main(["sample", "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert "error:" in captured.err


def _small_conf(path, changes=()):
    """Write a config for a 4 + 3 channel synthetic run into out/ beside
    path, nb at 2 folds x 1, with the (key, value) pairs in changes applied."""
    settings = {"synthetic": "true", "synthetic.n0": "4", "synthetic.n1": "3",
                "synthetic.length": "512", "out": str(path.parent / "out"),
                "classifier": "nb", "cv.folds": "2", "cv.repeats": "1", **dict(changes)}
    path.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    return path


def _sampling_json(per_stratum_0, **bad):
    """A sampling_Case1.json of the run below, with class 0's per_stratum
    and the values in bad replaced."""
    return json.dumps({
        "case": "Case1", "length": 512, "z": 1.96, "n_bar": 486, "policy": "random",
        "plan": [128, 128, 128, 128],
        "classes": {"0": {"per_stratum": per_stratum_0, "weights": [257.0, 247.0, 247.0, 257.0]},
                    "1": {"per_stratum": [128, 102, 128, 128],
                          "weights": [584.0, 405.0, 534.0, 595.0]}},
        **bad,
    })


def _manifest_json(**bad):
    """A manifest.json of the run below, with the generator settings in bad
    replaced, or left out where bad gives None."""
    settings = {"n0": 4, "n1": 3, "length": 512, "burst_amplitude": 5.0, "seed": 0, **bad}
    return json.dumps({"synthetic": {k: v for k, v in settings.items() if v is not None},
                       "cases": ["Case1"]})


def _evaluation_json(**bad):
    """An evaluation_Case1.json of the run below, with the values in bad replaced."""
    return json.dumps({"case": "Case1", "classifier": "nb", "n_rows": 7, "mean": 57.0,
                       "std": 0.0, "per_repeat": [57.0], "settings": {
                           "selection_mode": "per-fold", "stall_limit": 5,
                           "range_threshold": 0.8, "nb_var_floor": 1e-09, "cv_folds": 2,
                           "cv_repeats": 1, "cv_stratified": True, "seed": 0}, **bad})


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
    # an int past Python's 4300-digit limit on int parsing
    pytest.param("manifest.json", '{"set_dirs": ' + "1" * 5000 + "}", "sample",
                 id="int-over-the-int-parsing-limit"),
    # a generator setting missing, of the wrong type, or out of range
    ("manifest.json", _manifest_json(n0=None), "sample"),
    ("manifest.json", _manifest_json(n0="x"), "sample"),
    ("manifest.json", _manifest_json(length=10), "sample"),
    # text that is not UTF-8, or not CSV that the csv module reads
    ("confidence_95/features_Case1.csv", b"\xff\xfe,label\n", "select"),
    pytest.param("confidence_95/features_Case1.csv", "x" * 200_000 + ",label\n", "select",
                 id="csv-field-over-the-csv-module-limit"),
    ("confidence_95/sampling_Case1.json", _sampling_json("abc"), "extract"),
    ("confidence_95/sampling_Case1.json", _sampling_json([-1, 1000, 1000, 1000]), "extract"),
    # counts extract cannot use: a stratum under 64 samples
    ("confidence_95/sampling_Case1.json", _sampling_json([10, 118, 128, 128]), "extract"),
    ("confidence_95/sampling_Case1.json", _sampling_json([124, 119, 119, 124], n_bar="abc"),
     "report"),
    ("confidence_95/selection_Case1.json", "{}", "report"),
    ("confidence_95/selection_Case1.json", '{"selected": ["s1_max"]}', "report"),
    # values that give the config no design: z overflows the formula, length < strata
    ("confidence_95/sampling_Case1.json", _sampling_json([124, 119, 119, 124], z=1e200),
     "extract"),
    ("confidence_95/sampling_Case1.json", _sampling_json([124, 119, 119, 124], length=2),
     "report"),
    ("confidence_95/evaluation_Case1.json", _evaluation_json(mean="x"), "report"),
    ("confidence_95/evaluation_Case1.json", _evaluation_json(per_repeat=5), "report"),
    ("confidence_95/evaluation_Case1.json", _evaluation_json(n_rows=0), "report"),
    ("confidence_95/evaluation_Case1.json", _evaluation_json(mean=101), "report"),
    ("confidence_95/evaluation_Case1.json", _evaluation_json(settings=[]), "report"),
    # class 0 allocated over 3 strata where the plan has 4
    ("confidence_95/sampling_Case1.json", _sampling_json([162, 162, 162]), "extract"),
    ("confidence_95/sampling_Case1.json", _sampling_json([162, 162, 162]), "report"),
])
def test_cli_malformed_artifact_is_a_data_error(tmp_path, artifact, damage, command):
    """damage is the share of the artifact's text to keep, or text or bytes
    to replace it with."""
    conf = _small_conf(tmp_path / "run.conf")
    stages = ["ingest", "sample", "extract", "select", "classify", "report"]
    for stage in stages[:stages.index(command)]:
        assert main([stage, "--config", str(conf)]) == 0
    path = tmp_path / "out" / artifact
    if isinstance(damage, float):
        text = path.read_text()
        damage = text[: int(len(text) * damage)]
    path.write_bytes(damage if isinstance(damage, bytes) else damage.encode())
    stderr = _assert_child_error([command, "--config", str(conf)], path)
    if '"synthetic"' in str(damage):  # the message names the setting
        assert re.search(r"'synthetic\.(n0|length)'", stderr), stderr


@pytest.mark.parametrize("bad, message", [
    ({"burst_amplitude": 2**1100},
     "'synthetic.burst_amplitude' must be a number of magnitude at most 2.24712e+307"),
    ({"n0": 10**400}, "'synthetic' must be settings whose (n0 + n1) * length is at most 2^27 "
                      "samples"),
    ({"n1": 100_000_000_000}, "'synthetic' must be settings whose (n0 + n1) * length is at "
                              "most 2^27 samples"),
], ids=["burst-amplitude-2**1100", "n0-400-digits", "n1-1e11"])
def test_cli_manifest_settings_past_their_bounds_are_a_data_error(tmp_path, capsys, bad,
                                                                  message):
    """Each used to end sample with an OverflowError: an int too large for a
    float, or a corpus too large to index."""
    conf = _small_conf(tmp_path / "run.conf")
    assert main(["ingest", "--config", str(conf)]) == 0
    path = tmp_path / "out" / "manifest.json"
    path.write_text(_manifest_json(**bad))
    assert main(["sample", "--config", str(conf)]) == 3
    assert capsys.readouterr().err == f"error: sample: {path}: {message}; run 'ingest' again\n"


def test_cli_allocation_other_than_the_reduced_channels_names_case_and_channel(tmp_path):
    conf = _small_conf(tmp_path / "run.conf")
    for stage in ("ingest", "sample"):
        assert main([stage, "--config", str(conf)]) == 0
    path = tmp_path / "out" / "confidence_95" / "sampling_Case1.json"
    sampling = json.loads(path.read_text())
    counts = sampling["classes"]["0"]["per_stratum"]
    counts[0] += 1  # one count more than the reduced files hold
    path.write_text(json.dumps(sampling))
    assert _assert_child_error(["extract", "--config", str(conf)], "") == \
        "error: extract: Case1: channel 'A/syn000' has length 486, but its strata cover 487\n"


@pytest.mark.parametrize("change, command, artifact, key", [
    (("strata", "2"), "extract", "sampling_Case1.json", "'plan'"),
    (("strata", "2"), "classify", "features_Case1.csv", "'n_features'"),
    (("strata", "2"), "report", "sampling_Case1.json", "'plan'"),
    (("policy", "systematic"), "extract", "sampling_Case1.json", "'policy'"),
    (("e", "0.02"), "report", "sampling_Case1.json", "'n_bar'"),
    (("classifier", "rf"), "report", "evaluation_Case1.json", "'classifier'"),
    (("cv.repeats", "4"), "report", "evaluation_Case1.json", "'settings.cv_repeats'"),
    (("selection.mode", "global"), "report", "evaluation_Case1.json", "'settings.selection_mode'"),
    (("seed", "7"), "report", "evaluation_Case1.json", "'settings.seed'"),
], ids=["strata-extract", "strata-classify", "strata-report", "policy-extract", "e-report",
        "classifier-report", "cv-repeats-report", "selection-mode-report", "seed-report"])
def test_cli_artifact_of_another_config_is_refused(tmp_path, change, command, artifact, key):
    assert main(["pipeline", "--config", str(_small_conf(tmp_path / "run.conf"))]) == 0
    other = _small_conf(tmp_path / "other.conf", [change])
    path = tmp_path / "out" / "confidence_95" / artifact
    _assert_child_error([command, "--config", str(other)], f"{path}: {key} is", code=2)


def test_cli_report_refuses_a_selection_made_under_other_settings(tmp_path):
    """select run alone under other selection settings than the rest: report
    refuses its subset rather than embed it beside this config's settings."""
    size = [("synthetic.n0", "8"), ("synthetic.n1", "6")]
    conf = _small_conf(tmp_path / "run.conf", size)
    other = _small_conf(tmp_path / "other.conf", size + [("selection.stall_limit", "1"),
                                                          ("selection.range_threshold", "0.1")])
    for stage in ("ingest", "sample", "extract"):
        assert main([stage, "--config", str(conf)]) == 0
    assert main(["select", "--config", str(other)]) == 0
    assert main(["classify", "--config", str(conf)]) == 0
    path = tmp_path / "out" / "confidence_95" / "selection_Case1.json"
    _assert_child_error(["report", "--config", str(conf)],
                        f"{path}: 'settings.stall_limit' is 1, but this config gives 5", code=2)


def _swap_first_names(text):
    header, rows = text.split("\n", 1)
    first, second, *rest = header.split(",")
    return ",".join([second, first, *rest]) + "\n" + rows


def _relabel(line, label):
    """Edit for a feature file: the label of data line `line` (1 is the first) set to label."""
    def edit(text):
        lines = text.split("\n")
        lines[line] = lines[line].rsplit(",", 1)[0] + f",{label}"
        return "\n".join(lines)
    return edit


@pytest.mark.parametrize("edit, command, message", [
    (_swap_first_names, "select", ": column 1 is 's1_max', not 's1_min'; run 'extract' again"),
    (_relabel(2, 2), "select", ":3: label 2 is not 0 or 1"),
    (lambda text: text.replace(",1\n", ",0\n"), "classify",
     ": rows of label 0 and of label 1 are needed, got labels [0]"),
], ids=["header-swap", "label-2", "one-class"])
def test_cli_feature_file_is_checked_against_its_names_and_labels(tmp_path, edit, command,
                                                                   message):
    conf = _small_conf(tmp_path / "run.conf")
    for stage in ("ingest", "sample", "extract"):
        assert main([stage, "--config", str(conf)]) == 0
    path = tmp_path / "out" / "confidence_95" / "features_Case1.csv"
    path.write_text(edit(path.read_text()))
    assert _assert_child_error([command, "--config", str(conf)], "") == (
        f"error: {command}: {path}{message}\n")


@pytest.mark.parametrize("change, fragment", [
    (("classifier", "svm"), "unknown classifier 'svm'"),
    (("cv.folds", "1"), "cv.folds must be at least 2, got 1"),
    (("cv.repeats", "0"), "cv.repeats must be at least 1, got 0"),
    (("selection.stall_limit", "0"), "selection.stall_limit must be positive or None, got 0"),
    (("selection.range_threshold", "1.5"),
     "selection.range_threshold must be in [0, 1], got 1.5"),
    (("selection.range_threshold", "nan"),
     "selection.range_threshold must be in [0, 1], got nan"),
    (("nb.var_floor", "nan"), "var_floor must be positive and finite, at most 2.86112e+307, "
                              "got nan"),
    (("synthetic.burst_amplitude", "inf"),
     "synthetic.burst_amplitude must be a number of magnitude at most 2.24712e+307, got inf"),
    (("synthetic.burst_amplitude", "1e308"),
     "synthetic.burst_amplitude must be a number of magnitude at most 2.24712e+307, "
     "got 1e+308"),
    (("synthetic.length", "10"), "synthetic.length must be an integer >= 64, got 10"),
    (("e", "2"), "e must be in (0, 1), got 2.0"),
    (("strata", "0"), "n_strata must be at least 1, got 0"),
    # checked without a plan of that many strata: 64 samples each pass n_bar's bound
    (("strata", "9" * 30), "strata must be at most 150: z=1.96, p=0.5 and e=0.01 give n_bar "
                           "<= 9603, and a stratum needs 64 samples"),
    (("cases", "Case1, Case1"), "case Case1 is listed twice"),
    (("confidence", "95, 95"), "confidence level 95 is listed twice"),
    # one class-0 channel would leave set B empty
    (("synthetic.n0", "1"), "synthetic.n0 must be an integer >= 2, got 1"),
    (("synthetic.n1", "0"), "synthetic.n1 must be an integer >= 1, got 0"),
    # a corpus over 2^27 samples is refused before any list or channel is made
    (("synthetic.n0", "1" * 400), "synthetic.n0, synthetic.n1 and synthetic.length must be "
                                  "settings whose (n0 + n1) * length is at most 2^27 samples"),
    (("synthetic.n1", "100000000000"), "synthetic.n0, synthetic.n1 and synthetic.length must "
                                       "be settings whose (n0 + n1) * length is at most 2^27"),
    # 4 + 3 channels: classify's fold check runs before ingest
    (("cv.folds", "4"), "classify: class 1 has 3 rows, fewer than 4 folds"),
], ids=["classifier", "cv-folds", "cv-repeats", "stall-limit", "range-threshold",
        "range-threshold-nan", "nb-var-floor-nan", "burst-amplitude-inf",
        "burst-amplitude-1e308", "synthetic-length", "e", "strata", "strata-huge",
        "case-twice", "confidence-twice", "synthetic-n0", "synthetic-n1", "synthetic-n0-huge",
        "synthetic-n1-huge", "class-below-folds"])
def test_cli_bad_classifier_or_cv_fails_before_any_stage(tmp_path, capsys, change, fragment):
    assert main(["pipeline", "--config", str(_small_conf(tmp_path / "run.conf", [change]))]) == 2
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("conf, message", [
    ("", "cannot split 9 rows into 10 folds"),
    ("cv.folds = 4\n", "class 1 has 3 rows, fewer than 4 folds"),
], ids=["rows-below-folds", "class-below-folds"])
def test_cli_data_directory_below_the_folds_fails_before_sample(tmp_path, capsys, conf, message):
    """A data directory's class sizes are known once ingest has counted its
    files, so classify's fold check runs before sample writes anything."""
    _write_bonn_corpus(tmp_path / "corpus", 512)
    (tmp_path / "run.conf").write_text(conf)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(tmp_path / "run.conf"), "--data",
                 str(tmp_path / "corpus"), "--case", "Case1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: classify: {message}\n"
    assert [p.name for p in out.rglob("*")] == ["manifest.json"]


@pytest.mark.parametrize("command, before, change, code, message", [
    ("ingest", [], ("cases", "Case2"), 2,
     "synthetic data covers sets A/B/E, so only Case1 is supported"),
    ("sample", [], (), 3, "missing {out}/manifest.json; run 'ingest' first"),
    ("extract", ["ingest"], (), 3,
     "missing {out}/confidence_95/sampling_Case1.json; run 'sample' first"),
    ("select", ["ingest", "sample"], (), 3,
     "missing {out}/confidence_95/features_Case1.csv; run 'extract' first"),
    ("classify", ["ingest", "sample", "extract"], ("cv.folds", "4"), 2,
     "class 1 has 3 rows, fewer than 4 folds"),
    ("report", ["ingest", "sample", "extract", "select"], (), 3,
     "missing {out}/confidence_95/evaluation_Case1.json; run 'classify' first"),
])
def test_cli_stage_command_names_its_stage_in_errors(tmp_path, capsys, command, before, change,
                                                      code, message):
    """A stage run on its own names itself as pipeline names the stage that fails."""
    conf = _small_conf(tmp_path / "run.conf", [change] if change else [])
    for stage in before:
        assert main([stage, "--config", str(conf)]) == 0
    capsys.readouterr()
    assert main([command, "--config", str(conf)]) == code
    assert capsys.readouterr().err == (
        f"error: {command}: {message.format(out=tmp_path / 'out')}\n")


@pytest.mark.parametrize("stages", [
    ["ingest", "sample", "extract", "select", "classify", "report"],
    ["pipeline", "report"],
], ids=["staged", "pipeline"])
def test_cli_policy_flag_reaches_every_reader(tmp_path, capsys, stages):
    conf = _small_conf(tmp_path / "run.conf")
    for stage in stages:
        policy = ["--policy", "systematic"] if stage in ("sample", "extract", "report",
                                                         "pipeline") else []
        assert main([stage, "--config", str(conf), *policy]) == 0, capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["policy"] == "systematic"


def _write_bonn_corpus(root, length, edit=lambda prefix, x: x):
    """Three integer channels per set in Bonn directories Z, O and S (sets A,
    B and E), each passed through edit(prefix, samples); returns the last path."""
    rng = np.random.default_rng(0)
    for prefix in "ZOS":
        for i in range(3):
            path = root / prefix / f"{prefix}{i:03d}.txt"
            path.parent.mkdir(parents=True, exist_ok=True)
            x = edit(prefix, rng.integers(-200, 200, length))
            path.write_text("".join(f"{v}\n" for v in x))
    return path


def test_sample_parses_each_set_once(tmp_path, monkeypatch):
    """Sets that several cases share (A and B in Case1 and Case3, C and D in
    Case2 and Case3, E in all three) have each file read once per call."""
    paths = corpus_gen.write_corpus(tmp_path / "corpus", seed=0, n_per_set=3, length=512)
    cfg = PipelineConfig(data_dir=str(tmp_path / "corpus"), cases=("Case1", "Case2", "Case3"),
                         out_dir=str(tmp_path / "out"))
    stage_ingest(cfg)
    loaded, load_channel = [], corpus.load_channel
    monkeypatch.setattr(corpus, "load_channel",
                        lambda path, *args: loaded.append(path) or load_channel(path, *args))
    stage_sample(cfg, "95", 1.96)
    assert sorted(loaded) == sorted(paths)


def test_sample_shares_a_class_between_cases(tmp_path, monkeypatch):
    """Set E, class 1 of all three cases, is allocated once and each of its
    channels reduced once per call; every case gets the same reduced
    channels and writes the same bytes, and no channel keeps its text."""
    corpus_gen.write_corpus(tmp_path / "corpus", seed=0, n_per_set=3, length=512)
    cfg = PipelineConfig(data_dir=str(tmp_path / "corpus"), cases=("Case1", "Case2", "Case3"),
                         out_dir=str(tmp_path / "out"))
    stage_ingest(cfg)
    allocated, reduced_ids = [], []
    allocate, reduce = pipeline.allocate, pipeline.reduce_channel
    monkeypatch.setattr(pipeline, "allocate", lambda chans, *args: allocated.append(
        sorted({ch.set_label for ch in chans})) or allocate(chans, *args))
    monkeypatch.setattr(pipeline, "reduce_channel", lambda ch, *args, **kwargs: reduced_ids.append(
        ch.id) or reduce(ch, *args, **kwargs))
    run = pipeline._Run(cfg)
    stage_sample(cfg, "95", 1.96, run)
    reduced = {case_id: kept for (_, case_id), kept in run.reduced.items()}
    assert allocated == [["A", "B"], ["E"], ["C", "D"], ["A", "B", "C", "D"]]
    e_ids = [ch.id for ch in reduced["Case1"][1]]
    assert sorted(e_ids) == ["E/S001", "E/S002", "E/S003"]
    assert [i for i in reduced_ids if i.startswith("E/")] == e_ids
    assert len(reduced_ids) == 3 + 6 + 6 + 12
    assert all(map(lambda a, b: a is b, reduced["Case2"][1] + reduced["Case3"][1],
                   reduced["Case1"][1] * 2))
    assert not [ch.id for kept in reduced.values() for chans in kept for ch in chans
                if "text" in vars(ch)]
    out = tmp_path / "out" / "confidence_95" / "reduced"
    for name in (f"S00{i}.txt" for i in (1, 2, 3)):
        first = (out / "Case1" / "E" / name).read_bytes()
        assert all((out / case / "E" / name).read_bytes() == first for case in ("Case2", "Case3"))


def test_bonn_files_take_the_array_paths(tmp_path, monkeypatch):
    """Bonn-layout files of integer samples, and the reduced files sample
    writes from them, are parsed by corpus._decimal_values and formatted by
    corpus._integer_text: the per-value fallbacks are never called."""
    paths = corpus_gen.write_corpus(tmp_path / "corpus", seed=0, n_per_set=2, length=512)
    cfg = PipelineConfig(data_dir=str(tmp_path / "corpus"), cases=("Case1", "Case2", "Case3"),
                         out_dir=str(tmp_path / "out"))
    stage_ingest(cfg)

    def fallback(*args):
        raise AssertionError("a channel file took the per-value path")

    monkeypatch.setattr(corpus, "_parse_text", fallback)
    monkeypatch.setattr(corpus, "_repr_text", fallback)
    assert corpus.load_channel(paths[0], "A").samples.size == 512
    run = pipeline._Run(cfg)
    stage_sample(cfg, "95", 1.96, run)
    written = sorted((tmp_path / "out" / "confidence_95" / "reduced").rglob("*.txt"))
    assert len(written) == 2 * (3 + 3 + 5)  # two channels of each set of each case
    for (_, case_id), classes in run.reduced.items():
        for ch in classes[0] + classes[1]:
            path = (tmp_path / "out" / "confidence_95" / "reduced" / case_id / ch.set_label
                    / f"{ch.id.split('/')[1]}.txt")
            back = corpus.load_channel(path, ch.set_label).samples
            np.testing.assert_array_equal(back.view(np.uint64), ch.samples.view(np.uint64))


def test_sample_completes_a_partly_filled_corpus(tmp_path, monkeypatch):
    """A run that holds sets A and B has only C, D and E parsed into it, and
    keeps the lists it was given until sample at the config's last level
    lets them go; a level's reduced classes replace the last level's."""
    paths = corpus_gen.write_corpus(tmp_path / "corpus", seed=0, n_per_set=3, length=512)
    cfg = PipelineConfig(data_dir=str(tmp_path / "corpus"), cases=("Case1", "Case2", "Case3"),
                         confidence_levels=(95, 99), out_dir=str(tmp_path / "out"))
    set_dirs = stage_ingest(cfg)["set_dirs"]
    run = pipeline._Run(cfg)
    run.sets.update((s, corpus.load_set(set_dirs[s], s)) for s in ("A", "B"))
    set_a = run.sets["A"]
    loaded = _count_loads(monkeypatch)
    stage_sample(cfg, "95", 1.96, run)
    assert sorted(loaded) == sorted(p for p in paths
                                    if corpus.BONN_PREFIX_TO_SET[p.parent.name] in "CDE")
    assert run.sets["A"] is set_a and sorted(run.sets) == ["A", "B", "C", "D", "E"]
    stage_sample(cfg, "99", 2.58, run)
    assert sorted(loaded) == sorted(p for p in paths
                                    if corpus.BONN_PREFIX_TO_SET[p.parent.name] in "CDE")
    assert run.sets == {}
    assert sorted(run.reduced) == [("99", case_id) for case_id in cfg.cases]


def test_cli_sample_of_a_case_ingest_left_out(tmp_path):
    corpus_gen.write_corpus(tmp_path / "corpus", seed=0, n_per_set=2, length=512)
    args = ["--out", str(tmp_path / "out")]
    assert main(["ingest", "--data", str(tmp_path / "corpus"), "--case", "Case1", *args]) == 0
    _assert_child_error(["sample", "--case", "Case2", *args],
                        "Case2: set C is not in the manifest; run 'ingest' again")


def test_cli_sample_of_a_case_a_synthetic_ingest_left_out(tmp_path):
    """A synthetic corpus has sets A, B and E only, so Case2 is refused as
    for a data directory, though sample generates the corpus again."""
    args = ["--out", str(tmp_path / "out")]
    assert main(["ingest", "--synthetic", *args]) == 0
    _assert_child_error(["sample", "--case", "Case2", *args],
                        "error: sample: Case2: set C is not in the manifest; run 'ingest' again")


def test_cli_sample_reduces_the_corpus_of_the_seed_ingest_recorded(tmp_path):
    """The manifest records the seed ingest ran with, and sample generates
    the synthetic corpus from it: sample --seed 9 after ingest --seed 0
    reduces the seed-0 corpus, drawing each channel's samples with seed 9."""
    conf = _small_conf(tmp_path / "run.conf")
    assert main(["ingest", "--config", str(conf), "--seed", "0"]) == 0
    assert main(["sample", "--config", str(conf), "--seed", "9"]) == 0
    level = tmp_path / "out" / "confidence_95"
    sampling = json.loads((level / "sampling_Case1.json").read_text())
    sources = {ch.id: ch for chans in corpus.generate_synthetic_case((4, 3), 512, seed=0).values()
               for ch in chans}
    for set_label in ("A", "B", "E"):
        counts = sampling["classes"]["1" if set_label == "E" else "0"]["per_stratum"]
        for ch in corpus.load_set(level / "reduced" / "Case1" / set_label, set_label):
            expected = reduce_channel(sources[ch.id], sampling["plan"], counts,
                                      seed=derive_seed(9, "reduce", ch.id))
            np.testing.assert_array_equal(ch.samples, expected.samples)


def test_cli_non_utf8_channel_is_a_data_error(tmp_path):
    path = _write_bonn_corpus(tmp_path / "corpus", 256)
    with path.open("ab") as f:
        f.write(b"\xff\n")
    args = ["--out", str(tmp_path / "out"), "--case", "Case1"]
    assert main(["ingest", "--data", str(tmp_path / "corpus"), *args]) == 0
    _assert_child_error(["sample", *args], path)


@pytest.mark.parametrize("edit, code, fragment", [
    # sets A and B flat over stratum 0, so class 0 is allocated no samples there
    (lambda prefix, x: np.where((prefix in "ZO") & (np.arange(x.size) < 1024), 0, x),
     2, "Case1 class 0: stratum 0 is allocated 0 samples"),
    # set E so large that its stratum weights overflow float64
    (lambda prefix, x: x * 1e305 if prefix == "S" else x, 4, "Case1 class 1: stratum 0"),
], ids=["zero-count", "overflow"])
def test_cli_unusable_allocation_is_refused(tmp_path, edit, code, fragment):
    _write_bonn_corpus(tmp_path / "corpus", 4097, edit)
    args = ["--out", str(tmp_path / "out"), "--confidence", "70"]
    assert main(["ingest", "--data", str(tmp_path / "corpus"), *args]) == 0
    _assert_child_error(["sample", *args], fragment, code)
    assert not (tmp_path / "out" / "confidence_70").exists()  # nothing written


def test_cli_feature_that_is_not_finite_names_case_channel_and_feature(tmp_path):
    conf = _small_conf(tmp_path / "run.conf")
    for stage in ("ingest", "sample"):
        assert main([stage, "--config", str(conf)]) == 0
    # a reduced channel alternating 1.5e308 and -1.5e308, whose IQR of 3e308
    # exceeds float64 even when taken at a rescale
    path = sorted((tmp_path / "out" / "confidence_95" / "reduced" / "Case1" / "E").glob("*.txt"))[0]
    n = len(path.read_text().splitlines())
    path.write_text("".join(f"{v!r}\n" for v in np.resize([1.5e308, -1.5e308], n).tolist()))
    assert _assert_child_error(["extract", "--config", str(conf)], "") == (
        f"error: extract: Case1: channel 'E/{path.stem}': feature s1_iqr is inf; "
        "feature values must be finite\n")


@pytest.mark.parametrize("scale", [2.0 ** 266, 2.0 ** 500, 2.0 ** 540],
                         ids=["2^266", "2^500", "2^540"])
def test_cli_extracts_data_whose_moments_overflow(tmp_path, scale):
    # set E so large that the third or fourth moment of its strata overflows,
    # and at 2^540 their variance too, which sample takes at a rescale
    _write_bonn_corpus(tmp_path / "corpus", 1024, lambda prefix, x: x * scale if prefix == "S" else x)
    args = ["--out", str(tmp_path / "out"), "--case", "Case1"]
    assert main(["ingest", "--data", str(tmp_path / "corpus"), *args]) == 0
    for stage in ("sample", "extract"):
        assert main([stage, *args]) == 0
    fm = FeatureMatrix.from_csv(tmp_path / "out" / "confidence_95" / "features_Case1.csv")
    assert fm.values[:, fm.names.index("s1_kurtosis")].min() > 1.0


@pytest.mark.parametrize("command, code", [
    (["sample", "--config", "{tmp}/bad.conf"], 2),  # a 0xff byte in the config file
    (["init-config", "{tmp}/nodir/x.conf"], 3),  # no such directory
    (["ingest", "--synthetic", "--out", "{tmp}/a-file"], 3),  # --out names a regular file
], ids=["config-not-utf8", "init-config-no-dir", "out-is-a-file"])
def test_cli_os_and_decode_errors_exit_cleanly(tmp_path, command, code):
    (tmp_path / "bad.conf").write_bytes(b"seed = 1\n\xff\n")
    (tmp_path / "a-file").write_text("")
    args = [arg.format(tmp=tmp_path) for arg in command]
    _assert_child_error(args, args[-1], code)


def _run_child(args):
    """Run the CLI in a separate interpreter, with the package on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": str(Path(eegstrata.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "eegstrata", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def _assert_child_error(args, fragment, code=3):
    """Run the CLI in a separate interpreter, so an uncaught exception would
    show as a traceback: it must exit with code and a message holding
    fragment. Returns its stderr."""
    proc = _run_child(args)
    assert proc.returncode == code, proc.stderr
    assert str(fragment) in proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stderr


@pytest.mark.parametrize("kind", ["nb", "knn"])
def test_cli_feature_column_whose_spread_overflows_is_refused(tmp_path, kind):
    # nb and knn used to score this at chance with exit 0
    conf = _small_conf(tmp_path / "run.conf", [("selection.mode", "off"), ("classifier", kind)])
    for stage in ("ingest", "sample", "extract"):
        assert main([stage, "--config", str(conf)]) == 0
    path = tmp_path / "out" / "confidence_95" / "features_Case1.csv"
    fm = FeatureMatrix.from_csv(path)
    col = fm.names.index("s2_max")
    fm.values[:, col] *= 1e160
    fm.to_csv(path)
    proc = _run_child(["classify", "--config", str(conf)])
    assert (proc.returncode, proc.stderr) == (
        4, "error: classify: feature s2_max: its variance overflows float64; rescale the data\n")


def _scaled_bonn_corpus(root):
    """A 3-file-per-set Bonn corpus whose set E (directory S) is scaled by
    1e305, so its stratum weights overflow float64, run at 3 folds, which
    its 3 set-E channels allow."""
    corpus_gen.write_corpus(root, seed=0, n_per_set=3, length=1024)
    for path in (root / "S").glob("*.txt"):
        path.write_text("".join(f"{float(v) * 1e305!r}\n" for v in path.read_text().split()))
    (root / "run.conf").write_text("cv.folds = 3\n")
    return ["--config", str(root / "run.conf"), "--data", str(root), "--case", "Case1"]


@pytest.mark.parametrize("setup, code, stderr", [
    (_scaled_bonn_corpus, 4, "error: sample: Case1 class 1: stratum 0 weight overflows float64; "
                             "rescale the data\n"),
    (lambda root: ["--config", str(_small_conf(root / "run.conf",
                                               [("synthetic.burst_amplitude", "1e308")]))],
     2, "error: synthetic.burst_amplitude must be a number of magnitude at most 2.24712e+307, "
        "got 1e+308\n"),
    # nb's log(2 pi var) overflowed: a warning, then chance accuracy with exit 0
    (lambda root: ["--config", str(_small_conf(root / "run.conf", [("nb.var_floor", "1e308")]))],
     2, "error: var_floor must be positive and finite, at most 2.86112e+307, got 1e+308\n"),
    (lambda root: ["--config", str(_small_conf(root / "run.conf"))], 0, ""),
    (lambda root: ["--config", str(_small_conf(root / "run.conf", [("classifier", "knn")]))],
     0, ""),
    (lambda root: ["--config", str(_small_conf(root / "run.conf", [("classifier", "rf")]))],
     0, ""),
], ids=["weight-overflow", "burst-amplitude-1e308", "nb-var-floor-1e308", "success",
        "success-knn", "success-rf"])
def test_cli_stderr_is_one_error_line_or_empty(tmp_path, setup, code, stderr):
    """numpy's own warnings are attributed to numpy, not eegstrata, so only a
    separate interpreter's stderr shows them: a refused run prints exactly
    its one error line, and a run that succeeds prints nothing."""
    proc = _run_child(["pipeline", *setup(tmp_path), "--out", str(tmp_path / "out")])
    assert (proc.returncode, proc.stderr) == (code, stderr)
