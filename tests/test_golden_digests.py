"""The benchmark's recorded outputs, checked with the tests: each workload at
seed 0 reproduces the digests in bench/golden.json, so a change to any
output it pins shows here, not only when bench/run.py runs. The iteration
runs traced, and the kernel timers the workload exercises must read above
0: a timer whose target the program no longer calls would read 0. The leaf
spans that wall_s is cut at keep their recorded counts, so a change to the
program cannot move a traced call without this test saying so."""

import dataclasses
import hashlib
import sys
from pathlib import Path

import pytest

from eegstrata import pipeline

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "bench"))
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

# per-layer timers of bench/tracing.py that each workload's iteration runs
KERNEL_TIMERS = {
    "pipeline-rf": ("corpus.save_channel.s", "features.hurst_exponent.s",
                    "features.sample_entropy.s", "selection.best_first_search.s",
                    "classifiers.fit.s"),
    "classify-sweep": ("selection.best_first_search.s",),
    "reduce-sweep": ("corpus.save_channel.s", "sampler.reduce_channel.s"),
}

# counts of a traced seed-0 iteration that the bench's span cuts rest on, and
# the writer's calls and bytes: a synthetic run writes its reduced channels
# and not the corpus, which its manifest's settings generate again. A class
# that several cases share is reduced once per level: reduce-sweep's 4 set-E
# channels, in all three cases, are reduced 4 times, not 12, at each of its 4
# levels, so 144 reductions make its 176 files
SPAN_COUNTS = {
    "pipeline-rf": {"selection.select_features.calls": 11, "trace.spans": 204,
                    "sampler.reduce_channel.calls": 21,
                    "corpus.save_channel.calls": 21, "corpus.bytes_written": 1_179_201},
    "classify-sweep": {"selection.select_features.calls": 40, "trace.spans": 210,
                       "sampler.reduce_channel.calls": 0,
                       "corpus.save_channel.calls": 0, "corpus.bytes_written": 0},
    "reduce-sweep": {"selection.select_features.calls": 0, "trace.spans": 421,
                     "sampler.reduce_channel.calls": 144,
                     "corpus.save_channel.calls": 176, "corpus.bytes_written": 2_518_517},
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_reproduces_its_recorded_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # configs are read relative to the checkout root
    cfg = workloads.config(name, seed=0)
    assert workloads.recorded(name, 0)
    # the out and data paths stay relative, as they are when the digests are recorded
    monkeypatch.chdir(tmp_path)
    workloads.prepare(name, cfg)
    workloads.reset(name, cfg)
    tracer = tracing.Tracer()
    with tracer.installed():
        results = {label: call() for label, _, call in workloads.operations(name, cfg)}
    assert workloads.check(name, cfg, results) == []
    metrics = tracer.metrics(wall_s=1.0)  # the timers do not depend on wall_s
    assert {t: metrics[t] for t in KERNEL_TIMERS[name] if not metrics[t] > 0} == {}
    assert {c: metrics[c] for c in SPAN_COUNTS[name]} == SPAN_COUNTS[name]


# sha256 of features_Case1.csv from the pipeline-rf config's ingest, sample
# and extract at seed 0: every feature value to 12 significant digits, so a
# sample entropy count off by one shows here even where the selection and
# report.json do not move
FEATURES_CASE1_SHA256 = "cf2d46ae3abf45070381d70c8b5484e83e3c1d1d16e95d66ede815f2e9a9777a"


def test_pipeline_rf_features_keep_their_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    cfg = dataclasses.replace(workloads.config("pipeline-rf", seed=0), out_dir=str(tmp_path))
    pipeline.stage_ingest(cfg)
    (label, z), = pipeline.resolve_levels(cfg)
    pipeline.stage_sample(cfg, label, z)
    pipeline.stage_extract(cfg, label)
    digest = hashlib.sha256(pipeline.artifact_path(cfg, "features", label, "Case1").read_bytes())
    assert digest.hexdigest() == FEATURES_CASE1_SHA256
