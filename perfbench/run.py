"""trialg benchmark: time to an exact answer, end to end and layer by layer.

    python3 perfbench/run.py --workload solve-gfp --seed 1 --seconds 25 --trace 0

Closed loop, concurrency 1: each job is one ``trialg.cli.run_config`` config,
run to completion in a fresh child process (``job.py``) before the next one
starts.  A round runs every job of the workload once; rounds repeat until
``--seconds`` have passed (at least one round, or two traced ones).  The
seed only chooses the inputs (see ``workloads.py``).  Every job's report goes
through the correctness gate; ``attempted`` and ``failed`` count tasks, so
their ratio is the fail ratio.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: sum over the workload's jobs of each job's median wall time,
  from starting its process to its exit;
- ``setup_s``: median over child processes (one before each round, at least
  seven) that start, import ``trialg`` and build and validate every instance
  and twist of the workload;
- ``peak_rss_mb``: largest peak RSS of any job's process.

``--trace 1`` alternates traced and untraced rounds and reports the
per-layer metrics (see ``tracer.py``): layer self times are medians over
traced rounds of their sums over the jobs, counters are per round and must
repeat exactly across traced rounds, and every layer the workload must use
must record calls.  ``trace.overhead`` is traced ``wall_s`` over untraced
``wall_s`` within the same run.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
JOB = os.path.join(HERE, "job.py")

SETUP_REPEATS = 7
HARD_LIMIT_S = 170.0  # a child still running this long after the start is killed

# per_layer metric name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "families.build_s": "s",
    "families.algebra_dim": "count",
    "algebra.center_s": "s",
    "algebra.center.calls": "count",
    "maps.solve_s": "s",
    "maps.solve.calls": "count",
    "maps.solve.unknowns": "count",
    "maps.solve.nullity": "count",
    "maps.check_s": "s",
    "maps.check.calls": "count",
    "linalg.rref_s": "s",
    "linalg.rref.calls": "count",
    "linalg.rref.rows_in": "count",
    "linalg.rref.nnz_in": "count",
    "linalg.rref.cells_in": "count",
    "linalg.rref.max_cells": "count",
    "linalg.rref.rank": "count",
    "linalg.rref.pivot_ratio": "ratio",
    "linalg.rref.density": "ratio",
    "structure.decompose_s": "s",
    "structure.decompose.calls": "count",
    "theorems.verify_s": "s",
    "theorems.mayne.samples": "count",
    "cli.serialize_s": "s",
    "cli.report_bytes": "B",
    "cli.run_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}


class Run:
    """Launches job processes and accumulates their outcomes for one run."""

    def __init__(self, jobs: list[dict], started: float):
        self.jobs = jobs
        self.deadline = started + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rss_kb = 0

    def _child(self, args: list[str], payload) -> tuple[float, subprocess.CompletedProcess]:
        timeout = max(1.0, self.deadline - time.monotonic())
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, JOB, *args],
            input=json.dumps(payload),
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=ROOT,
        )
        return time.perf_counter() - start, proc

    def setup(self) -> float:
        elapsed, proc = self._child(["setup"], self.jobs)
        if proc.returncode != 0:
            raise RuntimeError(f"setup failed: {proc.stderr.strip()}")
        return elapsed

    def job(self, config: dict, traced: bool) -> tuple[float, dict | None]:
        """Run one job; returns its wall time and, when traced, its layer summary."""
        elapsed, proc = self._child(["run", "--trace"] if traced else ["run"], config)
        meta = report = None
        if proc.returncode == 0:
            head, _, body = proc.stdout.partition("\n")
            meta, report = json.loads(head), json.loads(body)
            self.rss_kb = max(self.rss_kb, meta["rss_kb"])
        problems = workloads.check_job(config, proc.returncode, report)
        if problems and proc.stderr.strip():
            problems[0] += f" [{proc.stderr.strip().splitlines()[-1]}]"
        self.attempted += len(config["tasks"])
        self.failed += len(problems)
        self.problems += [f"{workloads.job_name(config)}: {p}" for p in problems]
        return elapsed, meta["trace"] if meta else None

    def round(self, traced: bool) -> tuple[list[float], list[dict]]:
        times, traces = [], []
        for config in self.jobs:
            elapsed, trace = self.job(config, traced)
            times.append(elapsed)
            traces.append(trace)
        return times, traces


def job_medians(rounds: list[list[float]]) -> list[float]:
    return [statistics.median(samples) for samples in zip(*rounds)]


def end_to_end(run: Run, seconds: int) -> dict:
    # Set-up samples are spread between rounds so that one slow spell of the
    # machine does not cover all of them.
    start = time.monotonic()
    setups, rounds = [], []
    while not rounds or time.monotonic() - start < seconds:
        setups.append(run.setup())
        rounds.append(run.round(traced=False)[0])
    while len(setups) < SETUP_REPEATS:
        setups.append(run.setup())
    medians = job_medians(rounds)
    for config, median in zip(run.jobs, medians):
        print(f"# {workloads.job_name(config):44s} median {median:8.3f} s over {len(rounds)} rounds")
    print(f"# setup samples: {', '.join(f'{s:.3f}' for s in setups)} s")
    return {
        "wall_s": {"value": sum(medians), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": run.rss_kb / 1024, "unit": "MB"},
    }


def combine(traces: list[dict]) -> tuple[dict, dict]:
    """Sum one round's job summaries into layer self times and counters."""
    self_s, counts = {}, {}
    for trace in traces:
        if trace is None:
            continue
        for layer, value in trace["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + value
        for name, value in trace["counts"].items():
            total = counts.get(name, 0)
            counts[name] = max(total, value) if name in tracer.MAX_COUNTERS else total + value
    return self_s, counts


def layered(run: Run, seconds: int, workload: str) -> dict:
    start = time.monotonic()
    traced_rounds, untraced_rounds, layer_rounds, count_rounds = [], [], [], []
    while (
        len(traced_rounds) < 2
        or not untraced_rounds
        or time.monotonic() - start < seconds
    ):
        traced = len(traced_rounds) <= len(untraced_rounds)
        times, traces = run.round(traced)
        if not traced:
            untraced_rounds.append(times)
            continue
        traced_rounds.append(times)
        self_s, counts = combine(traces)
        layer_rounds.append(self_s)
        count_rounds.append(counts)

    counts = count_rounds[0]
    if any(c != counts for c in count_rounds[1:]):
        run.problems.append("trace: counters differ between traced rounds of the same inputs")
    for layer in workloads.REQUIRED_LAYERS[workload]:
        if not counts.get(layer + ".calls"):
            run.problems.append(f"trace: layer {layer} recorded no calls")

    traced_wall = sum(job_medians(traced_rounds))
    untraced_wall = sum(job_medians(untraced_rounds))
    values = {name: counts.get(name, 0) for name, unit in LAYER_METRICS.items() if unit != "s"}
    for layer in tracer.LAYERS:
        values[layer + "_s"] = statistics.median(r.get(layer, 0.0) for r in layer_rounds)
    values["linalg.rref.pivot_ratio"] = counts["linalg.rref.rank"] / max(1, counts["linalg.rref.rows_in"])
    values["linalg.rref.density"] = counts["linalg.rref.nnz_in"] / max(1, counts["linalg.rref.cells_in"])
    values["trace.wall_s"] = traced_wall
    values["trace.overhead"] = traced_wall / untraced_wall

    print(f"# {len(traced_rounds)} traced and {len(untraced_rounds)} untraced rounds; "
          f"traced wall {traced_wall:.3f} s, untraced {untraced_wall:.3f} s")
    for layer in tracer.LAYERS:
        secs = values[layer + "_s"]
        print(f"#   {layer:22s} self {secs:8.3f} s  {100 * secs / traced_wall:5.1f} % of traced wall")
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "trialg", "__init__.py")):
        print(f"error: no trialg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    run = Run(workloads.generate(args.workload, args.seed), started)
    if args.trace:
        metrics = layered(run, args.seconds, args.workload)
    else:
        metrics = end_to_end(run, args.seconds)
    for problem in run.problems:
        print(f"# FAIL {problem}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
