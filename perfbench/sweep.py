"""Run workloads over several seeds and summarise each metric.

Usage, from the repository root::

    python3 perfbench/sweep.py --seeds 1-10 [--workload NAME ...] [--trace 1]
        [--seconds S] [--out summary.json]

Each run is a fresh ``perfbench/run.py`` process.  For every workload
and metric the summary gives the median of the runs and the spread: the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, which
is what a metric's ``bound`` in ``BENCHMARK.json`` is compared with.
A run that leaves a Python process running stops the sweep with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def python_processes() -> set[int]:
    """Pids of the processes running a Python program now, this one excepted."""
    pids = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            program = (entry / "cmdline").read_bytes().split(b"\0")[0]
        except OSError:
            continue
        if b"python" in program.rsplit(b"/", 1)[-1]:
            pids.add(int(entry.name))
    return pids


def summarise(values: list[float]) -> dict[str, float]:
    """Median, quartile spread (share of the median), min and max."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "spread": (q3 - q1) / median if median else 0.0,
        "min": min(values),
        "max": max(values),
    }


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in config["workloads"]]
    summary: dict[str, dict[str, object]] = {}
    for name in names:
        values: dict[str, list[float]] = {}
        runs, report = [], []
        for seed in parse_seeds(args.seeds):
            before = python_processes()
            start = time.perf_counter()
            proc = subprocess.run(
                config["command"]
                + ["--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            stray = python_processes() - before
            if stray:
                print(f"{name} seed {seed}: processes left running: {sorted(stray)}", flush=True)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            report = report or lines[:-1]
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"]})
            print(f"{name} seed {seed}: {time.perf_counter() - start:.1f} s, "
                  f"correct {result['correct']}, failed {result['failed']}/{result['attempted']}",
                  flush=True)
            for metric, reading in result["metrics"].items():
                values.setdefault(metric, []).append(reading["value"])
        stats = {metric: summarise(vals) for metric, vals in values.items()}
        summary[name] = {"first_run_report": report, "runs": runs, "metrics": stats}
        for metric, s in stats.items():
            print(f"  {metric:28s} median {s['median']:14.4f}  spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
