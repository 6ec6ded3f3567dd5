"""Guard: the ``--health`` monitor costs < 2% on the cpu-compiled hot path.

The watchtower contract (``src/repro/obs``) is that streaming health
evaluation is a per-*generation* cost — one sample build plus a pass
over ~9 deterministic detectors — never a per-genome or per-step one.
This bench keeps that honest the same way the telemetry guard does:

1. **micro**: measure the per-generation cost of ``build_sample`` +
   detector evaluation directly on a realistic sample stream;
2. **macro**: run a capped cpu-compiled CartPole evolution with health
   monitoring off, count the generations the monitored run crosses,
   and bound estimated monitor cost against the bare run's wall time.

Per-call-cost x generation-count is a stable upper bound where an A/B
wall-clock diff of two full runs would drown in scheduler jitter.

``benchmarks/output/BENCH_health_overhead.json`` captures the measured
fraction for the bench-trajectory regression gate (metric
``overhead_fraction``, lower is better, noisy).
"""

from __future__ import annotations

import json
import time
import timeit

from benchmarks.conftest import OUTPUT_DIR, write_output
from repro.core.platform import E3
from repro.neat.config import NEATConfig
from repro.obs.detectors import HealthConfig, build_detectors
from repro.obs.monitor import HealthMonitor, build_sample
from repro.neat.population import GenerationStats

POPULATION = 40
GENERATIONS = 4
MAX_HEALTH_OVERHEAD = 0.02  # same bar as the telemetry guard


def _run(monitor: HealthMonitor | None = None):
    platform = E3(
        "cartpole",
        backend="cpu-compiled",
        neat_config=NEATConfig(population_size=POPULATION),
        seed=11,
        health=monitor,
    )
    t0 = time.perf_counter()
    result = platform.run(max_generations=GENERATIONS)
    return result, time.perf_counter() - t0


def _stats(generation: int) -> GenerationStats:
    return GenerationStats(
        generation=generation,
        best_fitness=50.0 + generation,
        mean_fitness=20.0,
        num_species=3,
        best_genome_key=1,
        mean_nodes=4.0,
        mean_connections=6.0,
        population_size=POPULATION,
        extras={"quarantined": 0.0, "compile_hits": 100.0 * generation,
                "compile_misses": 10.0},
    )


def _per_generation_cost() -> float:
    """Seconds per generation of sample build + detector evaluation."""
    loops = 2_000
    config = HealthConfig()
    detectors = build_detectors(config)
    samples = [_stats(g) for g in range(8)]
    counter = {"g": 0}

    def one_generation() -> None:
        g = counter["g"] = (counter["g"] + 1) % len(samples)
        sample = build_sample(samples[g])
        for detector in detectors:
            detector.observe(sample)

    return timeit.timeit(one_generation, number=loops) / loops


def test_health_monitor_overhead_under_two_percent():
    # macro run with health off: the protected baseline
    _, bare_seconds = _run()

    # the same run monitored, to count the generations it crosses
    monitor = HealthMonitor()
    monitored_result, _ = _run(monitor=monitor)
    generation_count = len(monitor.samples)

    per_generation = _per_generation_cost()
    estimated = generation_count * per_generation
    fraction = estimated / bare_seconds

    payload = {
        "population": POPULATION,
        "generations": generation_count,
        "bare_seconds": bare_seconds,
        "per_generation_seconds": per_generation,
        "estimated_seconds": estimated,
        "overhead_fraction": fraction,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_health_overhead.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    write_output(
        "health_overhead",
        "\n".join(
            [
                "health-monitor overhead guard (cpu-compiled cartpole, "
                f"pop {POPULATION}, {GENERATIONS} gens)",
                f"bare run:            {bare_seconds * 1e3:8.1f} ms",
                f"monitored gens:      {generation_count:8d}",
                f"per-generation cost: {per_generation * 1e6:8.1f} us",
                f"estimated overhead:  {estimated * 1e6:8.1f} us "
                f"({fraction * 100:.4f}% of run)",
            ]
        ),
    )

    assert monitored_result.generations == generation_count
    assert fraction < MAX_HEALTH_OVERHEAD
    # a single generation's health pass must stay sub-millisecond, or
    # the per-generation cost model above stops being the right one
    assert per_generation < 1e-3
