"""
The whole pipeline on synthetic data
====================================

ingest -> sample -> extract -> select -> classify -> report, driven by one
config object. Every stage persists its artifacts, so the equivalent CLI
stage sequence produces byte-identical outputs:

    eegstrata pipeline --config run.conf

The synthetic corpus imitates the shape of the real five-set layout:
background-noise channels (healthy analogue, sets A/B) against
high-amplitude burst channels (seizure analogue, set E).
"""

import tempfile
from pathlib import Path

from eegstrata import PipelineConfig, emit_report, run_pipeline

out = Path(tempfile.mkdtemp(prefix="eegstrata-demo-"))

cfg = PipelineConfig(
    synthetic=True,
    synthetic_n0=24,          # class-0 channels (split between sets A and B)
    synthetic_n1=16,          # class-1 channels (set E)
    synthetic_length=1024,
    confidence_levels=(85, 95),
    rf_trees=30,
    cv_folds=5,
    cv_repeats=3,
    seed=9,
    out_dir=str(out),
)

report = run_pipeline(cfg)
print(emit_report(report, "table").decode())

# everything the table summarizes is on disk, one directory per level
for path in sorted(out.rglob("*.json")):
    print(" ", path.relative_to(out))

# the report is the dict report.json holds, with the full audit trail per
# case: allocation, selection, per-repeat accuracies
case = report["levels"][1]["cases"]["Case1"]
print("95% level, Case1:")
print("  samples kept per channel:", case["n_bar"], "of", cfg.synthetic_length)
print("  features selected:", ", ".join(case["selection"]["selected"]))
print("  per-repeat accuracy:", [round(a, 2) for a in case["per_repeat"]])

# the same numbers, machine-readable
csv_rows = emit_report(report, "csv").decode().splitlines()
print("csv:", *csv_rows, sep="\n  ")
print("artifacts kept in", out)
