"""Tests of the benchmark itself: the corpus generator, the tracer's patching,
the segments wall_s is made of, and the fidelity of a traced run. Workloads
run here at toy sizes.

    python3 -m pytest -q -p no:cacheprovider bench/tests
"""

import contextlib
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import corpus_gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS, lower_envelope  # noqa: E402

SMALL_SYNTHETIC = dict(synthetic_n0=12, synthetic_n1=10, synthetic_length=512,
                       cv_folds=3, cv_repeats=2, rf_trees=5)


def test_generator_is_deterministic(tmp_path):
    a = corpus_gen.write_corpus(tmp_path / "a", seed=5, n_per_set=3, length=512)
    b = corpus_gen.write_corpus(tmp_path / "b", seed=5, n_per_set=3, length=512)
    c = corpus_gen.write_corpus(tmp_path / "c", seed=6, n_per_set=3, length=512)
    assert [p.relative_to(tmp_path / "a") for p in a] == [p.relative_to(tmp_path / "b") for p in b]
    assert len(a) == 3 * len(corpus_gen.PROFILES)
    assert all(pa.read_bytes() == pb.read_bytes() for pa, pb in zip(a, b))
    assert all(pa.read_bytes() != pc.read_bytes() for pa, pc in zip(a, c))


def test_generator_layout_and_dispersion_profiles(tmp_path):
    path = corpus_gen.write_corpus(tmp_path, seed=0, n_per_set=1)[0]
    assert path.relative_to(tmp_path) == Path("Z/Z001.txt")
    lines = path.read_text().splitlines()
    assert len(lines) == corpus_gen.LENGTH and all(int(v) == float(v) for v in lines)
    std = {p: np.mean([corpus_gen.channel_samples(1, p, i).std() for i in range(5)])
           for p in corpus_gen.PROFILES}
    assert max(std["Z"], std["O"]) < min(std["N"], std["F"])
    assert max(std["N"], std["F"]) < std["S"]


def test_tracer_restores_originals_even_on_error():
    before = [vars(owner)[attr] for owner, attr, _ in tracing.TARGETS]
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            assert all(vars(owner)[attr] is not raw
                       for (owner, attr, _), raw in zip(tracing.TARGETS, before))
            raise RuntimeError("stop")
    assert all(vars(owner)[attr] is raw for (owner, attr, _), raw in zip(tracing.TARGETS, before))


def test_segments_cut_at_leaf_spans_and_envelope_takes_fastest():
    tracer = tracing.Tracer()
    tracer.spans = [["a", -1, 0.0, 10.0], ["b", 0, 1.0, 3.0], ["c", 0, 5.0, 6.0], ["d", -1, 10.5, 11.0]]
    names, durations = tracer.segments(0.0, 12.0)
    assert names == ["b", "c", "d"]
    assert durations == [1.0, 2.0, 2.0, 1.0, 4.5, 0.5, 1.0]
    runs = [{"failed": 0, "leaves": "x", "segments": [1.0, 2.0, 3.0]},
            {"failed": 0, "leaves": "x", "segments": [2.0, 1.0, 3.5]},
            {"failed": 1, "leaves": "y", "segments": [0.1]}]
    assert lower_envelope(runs) == (5.0, [])
    runs[2].update(failed=0)
    assert lower_envelope(runs)[1] == ["1 of 3 iterations made other calls than the first"]


# per workload: a layer it must exercise, and one it must leave alone
EXERCISED = {
    "pipeline-rf": ("classifiers.rf.trees", None),
    "classify-sweep": ("selection.select_features.calls", "corpus.load_channel.calls"),
    "reduce-sweep": ("corpus.load_channel.calls", "features.extract_vector.calls"),
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_leaves_identical_artifacts(name, tmp_path, monkeypatch):
    monkeypatch.chdir(BENCH.parent)  # configs are read relative to the checkout root
    cfg = workloads.config(name, seed=3)
    if name == "reduce-sweep":
        cfg = dataclasses.replace(cfg, out_dir="out", data_dir="bonn")
    else:
        cfg = dataclasses.replace(cfg, out_dir="out", **SMALL_SYNTHETIC)
    monkeypatch.chdir(tmp_path)
    if name == "reduce-sweep":
        corpus_gen.write_corpus(cfg.data_dir, cfg.seed, n_per_set=3, length=1024)
    else:
        workloads.prepare(name, cfg)

    def run(tracer):
        workloads.reset(name, cfg)
        with tracer.installed() if tracer else contextlib.nullcontext():
            results = {label: call() for label, _, call in workloads.operations(name, cfg)}
        return workloads.artifact_digest(name, cfg, results)

    tracer = tracing.Tracer()
    assert run(None) == run(tracer)

    used, absent = EXERCISED[name]
    metrics = tracer.metrics(wall_s=1.0)
    assert metrics[used] > 0 and metrics.get(absent, 0) == 0
    top_level = sum(end - start for _, parent, start, end in tracer.spans if parent < 0)
    assert sum(tracer.self_times()) == pytest.approx(top_level)
