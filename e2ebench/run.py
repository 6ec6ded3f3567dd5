#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of the E3 generation loop.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload lander --seed 1 --seconds 40 --trace 0

``--workload all`` runs the three workloads one after another, each in
its own process, and prints all their metrics.

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced rounds with rounds whose layer
boundaries are wrapped (``tracer.py``) and reports the per-layer
metrics, the tracing overhead and the layers' coverage of the loop.
Either way the outputs are then checked against the reference oracles
(``checks.py``), outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full
payload -- host fingerprint and each metric's median, quartiles and
sample count -- is printed on the line before it and written to
``e2ebench/out/``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("lander", "lander-inax", "serve-mix")
LOOP_BACKENDS = {"lander": "cpu-compiled", "lander-inax": "inax"}
#: ``env.model_drift_x`` above this is flagged (informational)
DRIFT_FLAG_X = 2.0
SIMD_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512_vnni")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def spread(values) -> dict:
    """Median, quartiles and sample count of a metric's samples."""
    values = [float(v) for v in values]
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def fingerprint(seed: int, runs: int) -> dict:
    import numpy

    model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    present = set(value.split())
                    flags = [f for f in SIMD_FLAGS if f in present]
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "cpu_flags": flags,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "runs": runs,
    }


# ----------------------------------------------------------- loop workloads
def loop_result(workload: str, args) -> tuple[dict, list[str], dict]:
    """(metric samples, check problems, extras) of a loop workload."""
    import checks
    import layers
    from repro.serve.service import percentiles
    from workloads import LoopConfig, host_scale, run_loop_workload, run_once

    cfg = LoopConfig()
    backend = LOOP_BACKENDS[workload]
    samples = run_loop_workload(
        backend, cfg, args.seed, args.seconds, trace=bool(args.trace)
    )
    untraced = [r for r in samples.rounds if not r.traced]
    traced = [r for r in samples.rounds if r.traced]
    first = samples.rounds[0].runs
    jobs = [run for r in untraced for run in r.runs]
    latencies = [run.scaled_job_s for run in jobs]
    latency = percentiles(latencies, (50, 90))
    cycles = sum(run.cycles for run in first)
    scale = host_scale(samples.probes)
    values = {
        "gens_per_s": [r.scaled_gens_per_s for r in untraced],
        "jobs_per_s": [r.scaled_jobs_per_s for r in untraced],
        "setup_s": [t / scale for t in samples.setups],
        "peak_rss_mb": [samples.peak_rss_mb],
        "sim_inax_cycles": [cycles],
        "modeled_speedup_x": [
            sum(run.cpu_s for run in first) / sum(run.inax_s for run in first)
        ],
        "job_latency_p50_s": [latency["p50"]],
        "job_latency_p90_s": [latency["p90"]],
    }
    all_runs = [run for r in samples.rounds for run in r.runs]
    extras = {
        "host_probe_s": spread(samples.probes),
        "unscaled": {
            "gens_per_s": spread([r.gens_per_s for r in untraced]),
            "setup_s": spread(samples.setups),
            "job_s": spread([run.setup_s + run.run_s for run in jobs]),
        },
        "rounds": len(samples.rounds),
        "attempted": sum(run.evaluations for run in all_runs),
        "failed": sum(run.failed for run in all_runs),
        "job_latency_samples": len(latencies),
    }

    problems = checks.check_rounds(samples.rounds)
    if workload == "lander":
        problems += checks.check_oracle(cfg, backend, first[0])
    else:
        reference = run_once(LOOP_BACKENDS["lander"], cfg, first[0].seed)
        problems += checks.check_inax(first[0], reference)

    if traced:
        tracers = [r.tracer for r in traced]
        traced_runs = [run for r in traced for run in r.runs]
        generations = sum(run.generations for run in traced_runs)
        metrics, detail = layers.layer_metrics(tracers, generations)
        metrics["pricing.price_run_s"] = (
            sum(run.price_s for run in traced_runs) / generations
        )
        metrics["inax.packing_efficiency"] = sum(
            run.live_slot_steps for run in traced_runs
        ) / sum(run.slot_steps_provisioned for run in traced_runs)
        metrics["inax.fallback_waves"] = sum(
            run.fallback_waves for run in traced_runs
        )
        metrics.update(_no_serve())
        values = {name: [value] for name, value in metrics.items()}
        # rounds alternate untraced, traced: each pair is one sample
        values["trace.overhead_frac"] = [
            1.0 - t.scaled_gens_per_s / u.scaled_gens_per_s
            for u, t in zip(untraced, traced)
        ]
        extras["layers"] = detail
        extras["tracers"] = tracers
    return values, problems, extras


def _no_serve() -> dict:
    """Serve-layer metrics of a workload that runs no service."""
    return {
        "serve.queue_wait_s_p50": 0.0,
        "serve.lease_s": 0.0,
        "serve.checkpoint_s": 0.0,
        "serve.pool.created": 0.0,
        "serve.pool.reuse_frac": 0.0,
        "serve.pool.discarded": 0.0,
        "serve.generator_late_s": 0.0,
    }


# ------------------------------------------------------------- serve-mix
def serve_result(args) -> tuple[dict, list[str], dict]:
    import checks
    import layers
    from repro.core.experiment import cpu_model_for, price_run
    from workloads import (
        ServeConfig,
        cycle_total,
        run_serve_workload,
        serve_latencies,
    )

    cfg = ServeConfig()
    work = HERE / ".work" / f"serve-{os.getpid()}"
    samples = run_serve_workload(
        cfg, args.seed, args.seconds, trace=bool(args.trace), work=work
    )
    done = [job for job in samples.jobs if job.ok]
    generations = sum(job.status["generations_done"] for job in done)
    latency = serve_latencies(samples)

    t0 = time.perf_counter()
    cycles = cpu_s = inax_s = 0.0
    for job in done:
        if job.spec.backend != "inax":
            continue
        state = samples.records[job.spec.seed]
        platforms, _ = price_run(
            state["records"],
            state["inax_config"],
            cpu_model=cpu_model_for(job.spec.env),
        )
        cycles += cycle_total(state["records"])
        cpu_s += platforms["cpu"].runtime_seconds
        inax_s += platforms["inax"].runtime_seconds
    price_s = time.perf_counter() - t0

    values = {
        "gens_per_s": [generations / samples.wall_s],
        "jobs_per_s": [len(done) / samples.wall_s],
        "setup_s": samples.setups,
        "peak_rss_mb": [samples.peak_rss_mb],
        "sim_inax_cycles": [cycles],
        "modeled_speedup_x": [cpu_s / inax_s if inax_s else 0.0],
        "job_latency_p50_s": [latency["p50"]],
        "job_latency_p90_s": [latency["p90"]],
    }
    states = samples.records.values()
    extras = {
        "host_probe_s": spread(samples.probes),
        "jobs": len(samples.jobs),
        "completed": len(done),
        "attempted": len(samples.jobs),
        "failed": len(samples.jobs) - len(done),
        "evaluation_failures": sum(
            s["quarantined"] + s["fallback_genomes"] + s["oversize"]
            for s in states
        ),
        "pool": samples.pool_stats,
        "job_latency_samples": len(samples.jobs),
    }
    problems = checks.check_serve(cfg, samples)

    if samples.tracer is not None:
        metrics, detail = layers.layer_metrics([samples.tracer], generations)
        pool = samples.pool_stats
        metrics.update(
            {
                "pricing.price_run_s": price_s / generations,
                "inax.packing_efficiency": _packing(states),
                "inax.fallback_waves": sum(
                    s["fallback_waves"] for s in states
                ),
                "trace.overhead_frac": 0.0,
                "serve.pool.created": pool["created"],
                "serve.pool.reuse_frac": pool["reused"]
                / (pool["created"] + pool["reused"]),
                "serve.pool.discarded": pool["discarded"],
                "serve.generator_late_s": max(
                    job.submitted - job.due for job in samples.jobs
                ),
            }
        )
        values = {name: [value] for name, value in metrics.items()}
        # per-job samples, reported as their medians
        by_seed = {job.spec.seed: job for job in samples.jobs}
        values["serve.queue_wait_s_p50"] = [
            start - by_seed[seed].due
            for seed, (start, _) in samples.leases.items()
        ]
        values["serve.lease_s"] = [s for _, s in samples.leases.values()]
        values["serve.checkpoint_s"] = [
            span.duration
            for span in samples.tracer.spans
            if span.name == "serve.checkpoint"
        ]
        extras["layers"] = detail
        extras["tracers"] = [samples.tracer]
    return values, problems, extras


def _packing(states) -> float:
    """Live / provisioned slot-steps of the jobs that priced cycles."""
    live = provisioned = 0
    for state in states:
        for record in state["records"]:
            if record.cycle_report is not None:
                live += record.cycle_report.live_slot_steps
                provisioned += record.cycle_report.slot_steps_provisioned
    return live / provisioned if provisioned else 0.0


# ------------------------------------------------------------------ main
def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process);
    prints their metric tables and fails if any check failed."""
    import subprocess

    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(line for line in lines if not line.startswith("{")))
        status = max(status, done.returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if args.workload == "serve-mix":
        values, problems, extras = serve_result(args)
    else:
        values, problems, extras = loop_result(args.workload, args)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics, detail = {}, {}
    for metric in wanted:
        name = metric["name"]
        stats = spread(values[name])
        metrics[name] = {"value": stats["median"], "unit": metric["unit"]}
        detail[name] = dict(stats, unit=metric["unit"])

    tracers = extras.pop("tracers", None)
    layer_detail = extras.pop("layers", {})
    envs = layer_detail.get("envs", {})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    payload = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": fingerprint(args.seed, extras.get("rounds", 1)),
        "run": extras,
        "metrics": detail,
        "problems": problems,
    }
    payload.update(layer_detail)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(payload, indent=2) + "\n")
    if tracers:
        merged = tracers[0]
        for tracer in tracers[1:]:
            merged.spans.extend(tracer.spans)
        merged.write(OUT / f"{tag}.trace.jsonl")

    for name, stats in detail.items():
        print(
            f"{args.workload:12s} {name:26s} {stats['median']:14.6g} "
            f"{stats['unit']:8s} q1={stats['q1']:.6g} q3={stats['q3']:.6g} "
            f"n={stats['n']}"
        )
    shares = layer_detail.get("layer_shares")
    if shares:
        print(
            "self time share of the loop: "
            + ", ".join(
                f"{layer} {share:.1%}"
                for layer, share in sorted(
                    shares.items(), key=lambda item: -item[1]
                )
            )
        )
    for env, entry in envs.items():
        flag = "  FLAG: above 2x" if entry["drift_x"] > DRIFT_FLAG_X else ""
        print(
            f"env drift {env}: measured {entry['step_us']:.2f} us/step, "
            f"modeled {entry['model_us']:.2f} us/step, "
            f"{entry['drift_x']:.2f}x{flag}"
        )
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(payload, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": int(extras["attempted"]),
                "failed": int(extras["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
