"""The benchmark's recorded outputs, checked with the tests: each workload at
seed 0 reproduces the digests in bench/golden.json, so a change to any
output it pins shows here, not only when bench/run.py runs."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "bench"))
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_reproduces_its_recorded_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # configs are read relative to the checkout root
    cfg = workloads.config(name, seed=0)
    assert workloads.recorded(name, 0)
    # the out and data paths stay relative, as they are when the digests are recorded
    monkeypatch.chdir(tmp_path)
    workloads.prepare(name, cfg)
    workloads.reset(name, cfg)
    results = {label: call() for label, _, call in workloads.operations(name, cfg)}
    assert workloads.check(name, cfg, results) == []
