"""Self-test of the benchmark: its checks pass on a tiny configuration
and fail on a planted divergence from an oracle output.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.LoopConfig(
    population=16, generations=2, subseeds=2, setup_samples=1
)
TINY_SERVE = workloads.ServeConfig(rate=20.0, population=8, setup_samples=1)


def next_float(value: float) -> float:
    """The planted divergence: one unit in the last place."""
    return math.nextafter(value, math.inf)


@pytest.fixture(scope="module")
def lander_rounds():
    return workloads.run_loop_workload(
        "cpu-compiled", TINY, seed=3, seconds=0, trace=True
    )


@pytest.fixture(scope="module")
def inax_run():
    seed = workloads.derive_seeds(3, 1)[0]
    run = workloads.run_once("inax", TINY, seed)
    reference = workloads.run_once("cpu-compiled", TINY, seed)
    return run, reference


def test_lander_checks_pass(lander_rounds):
    first = lander_rounds.rounds[0].runs[0]
    assert checks.check_rounds(lander_rounds.rounds) == []
    assert checks.check_oracle(TINY, "cpu-compiled", first) == []


def test_planted_oracle_fitness_divergence_fails(lander_rounds, monkeypatch):
    real_capture = checks.capture

    def planted(env, backend, *args):
        result = real_capture(env, backend, *args)
        if backend == "cpu":
            key, value = result.fitness[1][5]
            planted = next_float(float.fromhex(value)).hex()
            result.fitness[1][5] = (key, planted)
        return result

    monkeypatch.setattr(checks, "capture", planted)
    first = lander_rounds.rounds[0].runs[0]
    problems = checks.check_oracle(TINY, "cpu-compiled", first)
    assert problems and "fitness[1]" in problems[0]


def test_planted_episode_length_divergence_fails(lander_rounds):
    first = lander_rounds.rounds[0].runs[0]
    planted = dataclasses.replace(
        first, episode_lengths=[list(g) for g in first.episode_lengths]
    )
    planted.episode_lengths[0][0] += 1
    problems = checks.check_oracle(TINY, "cpu-compiled", planted)
    assert problems and "timed episode lengths" in problems[0]


def test_inax_checks_pass(inax_run):
    run, reference = inax_run
    assert checks.check_inax(run, reference) == []


def test_planted_inax_trajectory_divergence_fails(inax_run):
    run, reference = inax_run
    best, mean = reference.history[-1]
    planted = dataclasses.replace(
        reference, history=reference.history[:-1] + [(next_float(best), mean)]
    )
    problems = checks.check_inax(run, planted)
    assert problems and "inax history" in problems[0]


def test_planted_device_cycle_divergence_fails(inax_run):
    run, _ = inax_run
    report = dataclasses.replace(run.records[-1].cycle_report)
    report.compute_cycles += 1
    record = dataclasses.replace(run.records[-1], cycle_report=report)
    problems = checks.check_device_cycles(
        run.records[:-1] + [record], run.inax_config
    )
    assert problems == [
        f"generation {len(run.records) - 1} device cycles: compute_cycles="
        f"{report.compute_cycles!r} != oracle {report.compute_cycles - 1!r}"
    ]


def test_serve_checks_pass_and_fail_on_planted_divergence(tmp_path):
    samples = workloads.run_serve_workload(
        TINY_SERVE, seed=3, seconds=0.3, trace=False, work=tmp_path / "w"
    )
    assert len(samples.jobs) == 6
    assert all(job.ok for job in samples.jobs)
    assert checks.check_serve(TINY_SERVE, samples) == []
    job = samples.jobs[-1]
    job.status = dict(
        job.status, best_fitness=next_float(job.status["best_fitness"])
    )
    problems = checks.check_serve(TINY_SERVE, samples)
    assert problems and "best fitness" in problems[0]


def test_traced_round_spans_nest_and_cover_the_loop(lander_rounds):
    traced = [r for r in lander_rounds.rounds if r.traced]
    assert traced
    spans = traced[0].tracer.spans
    by_id = {s.id: s for s in spans}
    waves = [s for s in spans if s.name == "rollout.lockstep"]
    assert waves
    for wave in waves:
        evaluate = by_id[wave.parent]
        assert evaluate.name == "backend.evaluate"
        assert by_id[evaluate.parent].name == "loop"
        assert wave.tag == evaluate.tag and "/gen" in wave.tag
        assert {"infer", "decode"} <= set(wave.aggregates)
    assert min(tracing.self_times(spans).values()) >= 0.0
    generations = sum(run.generations for run in traced[0].runs)
    metrics, detail = layers.layer_metrics([traced[0].tracer], generations)
    assert set(detail["envs"]) == {"lunar_lander"}
    assert sum(detail["layer_shares"].values()) <= 1.0
    assert metrics["env.steps"] == metrics["infer.rows"] > 0
    assert 0.0 < metrics["trace.coverage_frac"] <= 1.0


def test_wrappers_uninstall_restores_the_program():
    import repro.core.backends as backends
    import repro.envs.rollout as rollout

    before = (backends.run_lockstep, rollout.decode_action_batch)
    wrappers = tracing.install(tracing.Tracer())
    assert backends.run_lockstep is not before[0]
    wrappers.uninstall()
    assert (backends.run_lockstep, rollout.decode_action_batch) == before


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "e2ebench",
        ignore=shutil.ignore_patterns("out", ".work", "__pycache__"),
    )
    done = subprocess.run(
        [
            sys.executable, "e2ebench/run.py", "--workload", "lander",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
