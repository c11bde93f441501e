"""Benchmark of eegstrata: seeded workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It works from the checkout root, builds nothing, and writes only under
bench/.work. Load is closed-loop: one caller, one stage call at a time.

--trace 0 makes the workload's untimed inputs in a worker process, then
repeats the timed iteration until S seconds have passed, in three fresh
worker processes one after another, and times set-up in fresh interpreters
before each of them. Each iteration records its spans and is cut into
segments at the edges of its innermost spans; wall_s is the sum over
segments of each segment's fastest time, which leaves out the time other
tenants of the host took from it. It also reports the peak memory of the
run.

--trace 1 alternates untraced and traced iterations in a fresh worker
process, checks that all of them leave identical artifacts, and reports
the per-layer numbers of the fastest traced one with the tracing overhead.

Every iteration's outputs are checked. The lines before the last give the
quartiles, counts and environment; the last line is one JSON object. Metric
names and units come from BENCHMARK.json. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path("bench/.work")
WORKLOADS = ("pipeline-rf", "classify-sweep", "reduce-sweep")
SETUP_SAMPLES = 9
MEASURE_PARTS = 3  # worker processes a measurement is split into
TRACE_PAIRS = 3  # untraced and traced iterations of a traced run, in turn
# start no iteration past this point, so a run ends well within 180 s
BUDGET_S = 120.0
WORKER_TIMEOUT_S = 170.0
SETUP_CODE = (
    "import sys, time\n"
    "import eegstrata\n"
    "from eegstrata.cli import build_config, build_parser\n"
    "build_config(build_parser().parse_args(sys.argv[1:]))\n"
    "print(repr(time.monotonic()))\n"
)


def cli_argv(name: str, seed: int) -> list:
    """The CLI arguments that build a workload's config; the seed is the only
    value the benchmark passes to the program beside its generated inputs."""
    return ["pipeline", "--config", f"bench/configs/{name}.conf", "--seed", str(seed)]


def pinned_env() -> dict:
    """What every child interpreter runs with: the checkout's program, no
    byte code written into the checkout (so the program's modules compile in
    every interpreter), and one BLAS/OpenMP thread."""
    return {
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
    }


def child_env() -> dict:
    return {**os.environ, **pinned_env()}


def run_worker(*args: str):
    proc = subprocess.run([sys.executable, "bench/worker.py", *args], stdout=subprocess.PIPE,
                          text=True, env=child_env(), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"bench: worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_sample(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until eegstrata is imported
    and the workload's config is built (both clocks are CLOCK_MONOTONIC)."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *cli_argv(name, seed)],
                          stdout=subprocess.PIPE, text=True, env=child_env(),
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"bench: setup interpreter exited with {proc.returncode}")
    return float(proc.stdout.strip().splitlines()[-1]) - start


def summary(values: list) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median={median!r} q1={q1!r} q3={q3!r} n={len(values)}"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in Path("src/eegstrata").rglob("*.py"))


def lower_envelope(runs: list) -> tuple:
    """Sum over the iteration's segments of each segment's fastest time.

    Every iteration makes the same calls in the same order, so segment k
    (the span of the k-th innermost traced call, or the gap before it) does
    the same work in every iteration. Other tenants of the host only ever
    slow a segment down, so its fastest time is its time without them. A
    problem is reported for any iteration whose calls differ from the first.
    """
    done = [r for r in runs if not r["failed"]] or runs
    same = [r for r in done if r["leaves"] == done[0]["leaves"]]
    problems = [] if len(same) == len(done) else [
        f"{len(done) - len(same)} of {len(done)} iterations made other calls than the first"]
    return sum(min(column) for column in zip(*(r["segments"] for r in same))), problems


def measure(name: str, seed: int, seconds: int) -> tuple:
    run_worker("prepare", name, str(seed))
    # the host's speed changes every few seconds, so the set-up samples are
    # taken in groups between parts of the measurement, not all at once
    runs, setup = [], []
    for _ in range(MEASURE_PARTS):
        setup += [setup_sample(name, seed) for _ in range(SETUP_SAMPLES // MEASURE_PARTS)]
        runs += run_worker("measure", name, str(seed),
                           "--seconds", str(min(seconds, BUDGET_S) / MEASURE_PARTS))
    walls = [r["wall_s"] for r in runs]
    envelope, problems = lower_envelope(runs)
    if problems:
        runs[-1]["failed"] += 1
        runs[-1]["problems"] += problems
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "wall_s": envelope,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": own_mb + max(r["rss_mb"] for r in runs),
    }
    lines = [f"wall_s {envelope!r}: the sum of the fastest times of each of "
             f"{len(runs[0]['segments'])} segments over {len(runs)} iterations",
             f"whole iterations: min={min(walls)!r} {summary(walls)}",
             f"setup_s {summary(setup)} (fresh interpreters, in groups over the run)",
             f"peak_rss_mb {values['peak_rss_mb']!r} (benchmark process plus its largest worker)"]
    return values, runs, lines


def trace(name: str, seed: int) -> tuple:
    run_worker("prepare", name, str(seed))
    runs = run_worker("trace", name, str(seed))
    plain = [r for r in runs if "layers" not in r]
    traced = [r for r in runs if "layers" in r]
    fastest = min(traced, key=lambda r: r["wall_s"])
    (WORK / name / "spans.json").write_text(json.dumps(fastest["spans"]) + "\n")
    for r in traced:
        del r["spans"]
    plain_s = min(r["wall_s"] for r in plain)
    values = dict(fastest["layers"])
    values["trace.overhead_pct"] = 100.0 * (fastest["wall_s"] - plain_s) / plain_s
    values["process.cpu_s"] = min(r["cpu_s"] for r in plain)
    values["src.lines"] = src_lines()
    accuracies = list(plain[0]["accuracy"].values())
    values["evaluation.accuracy_pct"] = statistics.fmean(accuracies) if accuracies else 0.0
    if len({r["artifacts"] for r in runs}) != 1:
        fastest["failed"] += 1
        fastest["problems"].append("traced artifacts differ from untraced artifacts")
    lines = [f"fastest untraced wall_s {plain_s!r}, fastest traced wall_s {fastest['wall_s']!r} "
             f"(of {len(plain)} each), overhead {values['trace.overhead_pct']:.2f}% "
             f"over {values['trace.spans']} spans",
             f"stages cover {values['pipeline.coverage_pct']:.2f}% of the traced wall_s"]
    return values, runs, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    os.chdir(ROOT)
    if not Path("src/eegstrata/__init__.py").is_file():
        print(f"bench: no program source at {ROOT / 'src/eegstrata'}", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    if args.trace:
        values, runs, lines = trace(args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        values, runs, lines = measure(args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "numpy": metadata.version("numpy"), "machine": platform.machine()}
    accuracy = runs[0]["accuracy"]
    lines += [
        "env " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"workload {args.workload} seed {args.seed} trace {args.trace}",
        f"error_rate {failed / attempted!r} ({failed} of {attempted} stage calls failed)",
        "accuracy_pct " + (" ".join(f"{k}={v!r}" for k, v in accuracy.items()) or "n/a"),
    ]
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (work / "result.json").write_text(json.dumps(
        {"env": env, "lines": lines, "runs": runs, "result": result}, indent=2) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
