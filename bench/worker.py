"""One phase of a benchmark run, in a fresh interpreter.

    python3 bench/worker.py prepare WORKLOAD SEED
    python3 bench/worker.py measure WORKLOAD SEED --seconds S
    python3 bench/worker.py trace WORKLOAD SEED
    python3 bench/worker.py record WORKLOAD SEED

run.py starts it from the checkout root with the program's src on
PYTHONPATH and BLAS/OpenMP pinned to one thread. ``prepare`` makes the
untimed inputs. ``measure`` runs traced iterations of the workload for S
seconds; ``trace`` runs untraced and traced iterations in turn. Every
iteration is timed, its outputs are checked, and each phase prints one JSON
list with a result per iteration. A traced iteration's result adds the
iteration cut into segments at the edges of its innermost spans, the
per-layer numbers and the spans. ``record`` runs one untraced iteration
after ``prepare`` and stores the digests of its outputs in golden.json as
the recorded results of SEED.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback

from run import ROOT, TRACE_PAIRS, WORKLOADS, child_env, pinned_env

if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in pinned_env().items()):
    # started by hand: pin the environment before numpy loads, as run.py does
    os.execve(sys.executable, [sys.executable, *sys.argv], child_env())

import tracing  # noqa: E402  (loads numpy)
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return usage / 1024.0


def iterate(name: str, cfg, trace: bool) -> dict:
    """Time one iteration of the workload and check its outputs."""
    workloads.reset(name, cfg)
    tracer = tracing.Tracer() if trace else None
    attempted = failed = 0
    results = {}
    problems = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for label, stage_calls, call in workloads.operations(name, cfg):
            attempted += stage_calls
            try:
                results[label] = call()
            except Exception:  # a failing stage is a failed operation, not a crash
                failed += 1
                problems.append(f"{label}: {traceback.format_exc()}")
                break
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    rss_mb = peak_rss_mb()  # before the checks, which are the benchmark's own work
    if not failed:
        try:
            problems = workloads.check(name, cfg, results)
        except Exception:  # missing or malformed outputs fail the check
            problems = [f"check: {traceback.format_exc()}"]
        failed += bool(problems)
    out = {"wall_s": wall, "cpu_s": cpu, "attempted": attempted, "failed": failed,
           "problems": problems, "rss_mb": rss_mb, "accuracy": {}, "artifacts": None}
    if not failed:
        out["accuracy"] = workloads.accuracy(name, cfg, results)
        out["artifacts"] = workloads.artifact_digest(name, cfg, results)
    if tracer:
        leaves, out["segments"] = tracer.segments(t0, t0 + wall)
        out["leaves"] = hashlib.sha256("\n".join(leaves).encode()).hexdigest()
        out["layers"] = tracer.metrics(wall)
        out["spans"] = [{"name": n, "parent": p, "start": s - t0, "end": e - t0, "self": own}
                        for (n, p, s, e), own in zip(tracer.spans, tracer.self_times())]
    return out


def measure(name: str, cfg, seconds: float) -> list:
    """Traced iterations, one after another, until ``seconds`` have passed."""
    runs = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        runs.append(iterate(name, cfg, trace=True))
        del runs[-1]["spans"], runs[-1]["layers"]
    return runs


def trace(name: str, cfg, pairs: int) -> list:
    """Untraced and traced iterations in turn, so that drift in the host's
    speed favours neither side of the tracing overhead."""
    return [iterate(name, cfg, traced) for _ in range(pairs) for traced in (False, True)]


def record(name: str, seed: int) -> None:
    cfg = workloads.config(name, seed)
    workloads.prepare(name, cfg)
    workloads.reset(name, cfg)
    results = {label: call() for label, _, call in workloads.operations(name, cfg)}
    problems = workloads.CHECKS[name](cfg, results)
    if problems:
        raise SystemExit("refusing to record outputs that fail their checks:\n" + "\n".join(problems))
    golden = json.loads(workloads.GOLDEN.read_text())
    golden.setdefault(name, {})[str(seed)] = workloads.digests(name, cfg, results)
    workloads.GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description="one phase of a benchmark run")
    parser.add_argument("phase", choices=("prepare", "measure", "trace", "record"))
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("--seconds", type=float, default=1.0, help="how long measure runs")
    args = parser.parse_args()
    os.chdir(ROOT)
    cfg = workloads.config(args.workload, args.seed)
    if args.phase == "prepare":
        workloads.prepare(args.workload, cfg)
        print(json.dumps({}))
    elif args.phase == "measure":
        print(json.dumps(measure(args.workload, cfg, args.seconds)))
    elif args.phase == "trace":
        print(json.dumps(trace(args.workload, cfg, TRACE_PAIRS)))
    else:
        record(args.workload, args.seed)


if __name__ == "__main__":
    main()
