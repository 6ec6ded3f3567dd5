#!/usr/bin/env python3
"""Run the benchmark over several seeds and judge its steadiness.

Usage (from the repository root)::

    python3 e2ebench/steadiness.py --seeds 101-110 --seconds 40 \\
        --out e2ebench/results/heldout.json [--workload lander ...]

For every workload, each seed runs once (``--trace 0``) as its own
process.  For each end-to-end metric the spread is the distance
between the first and third quartile of the per-seed values
(``statistics.quantiles(values, n=4)``) as a share of their median.
It must stay within the metric's bound in ``BENCHMARK.json``
(``setup_s`` is exempt, as its bound guards the median instead); a
spread below a third of the bound is reported as ``steady``.
``--against`` names an earlier summary of the same seeds: every
metric's median must then be no worse than that one's by more than
the bound.  Exit status 0 means every run reported correct outputs
and every spread and median held its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lander", "lander-inax", "serve-mix")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_one(workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    t0 = time.perf_counter()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=180
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["exit_code"] = done.returncode
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def worse_by(better: str, before: float, after: float) -> float:
    """Share by which ``after`` is worse than ``before`` (<= 0: not worse)."""
    change = (after - before) / before
    return -change if better == "higher" else change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    before = json.loads(args.against.read_text()) if args.against else None

    summary = {"seeds": args.seeds, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in args.workload or WORKLOADS:
        runs = [run_one(workload, seed, seconds) for seed in args.seeds]
        bad = [
            seed
            for seed, run in zip(args.seeds, runs)
            if run.get("exit_code") != 0 or not run.get("correct")
        ]
        ok &= not bad
        measured = [run for run in runs if "metrics" in run]
        metrics = {}
        for name, metric in bounds.items():
            values = [run["metrics"][name]["value"] for run in measured]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            entry = {
                "values": values,
                "median": median,
                "spread": share,
                "bound": metric["bound"],
                "spread_within_bound": name == "setup_s"
                or share <= metric["bound"],
                "steady": share < metric["bound"] / 3,
            }
            if before is not None:
                old = before["workloads"][workload]["metrics"][name]["median"]
                entry["worse_than_before"] = worse_by(
                    metric["better"], old, median
                )
                entry["within_bound"] = (
                    entry["worse_than_before"] <= metric["bound"]
                )
                ok &= entry["within_bound"]
            ok &= entry["spread_within_bound"]
            metrics[name] = entry
            flag = "" if entry["steady"] else "  above bound/3"
            if not entry["spread_within_bound"]:
                flag += "  SPREAD ABOVE BOUND"
            if not entry.get("within_bound", True):
                flag += "  WORSE THAN BEFORE"
            print(
                f"{workload:12s} {name:20s} median {median:12.6g} "
                f"spread {share:7.4f} bound {metric['bound']}{flag}",
                flush=True,
            )
        if bad:
            print(f"{workload}: checks failed for seeds {bad}", flush=True)
        summary["workloads"][workload] = {
            "failed_seeds": bad,
            "elapsed_s": [run["elapsed_s"] for run in runs],
            "metrics": metrics,
        }
    summary["ok"] = ok
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
