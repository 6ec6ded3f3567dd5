"""Structural-batching compiler — speedup of ``cpu-compiled`` over
``cpu-fast`` on the software network-preparation path.

Both backends step environments identically and both run lock-step
inference through the same flattened engine, so those phases are
*shared* and cannot differ by construction.  What the compile cache
replaces is the per-generation **network preparation**: ``cpu-fast``
keys its decode LRU on the weighted structural hash, so every
weight-mutated offspring (the overwhelming majority of a NEAT
generation — see Fig 1(b)'s decode share) re-decodes from scratch —
two interpreted network builds plus a fresh vectorized plan.  The
``cpu-compiled`` backend keys on the weights-excluded shape key, hits
for every offspring whose parent was ever compiled, and only refills
parameter tensors into the cached structure's stacked buckets.

The bench prepares an identical mid-run CartPole population of
weight-mutated offspring on both paths:

* **prep** (gated): decode-LRU misses vs. compile-cache hits + bucket
  parameter fill + per-member plan views — everything up to the point
  where both paths hold identical per-member execution plans;
* **assemble + ticks** (reported): the shared flattened-engine build
  plus a fixed number of lock-step inference ticks, asserted
  bit-identical between the paths.

The compile cache persists across repeats, exactly like the
cross-generation cache a running E3 carries (weight-mutated children
keep hitting structures compiled generations ago), while the decode
path gets the fresh misses every generation hands it.  The floor on
the prep speedup is 3x; the paper-facing target on record is 10x.
``BENCH_compile.json`` captures workload, phase timings, and both
ratios for the CI artifact.
"""

from __future__ import annotations

import json
import time

import numpy as np

from benchmarks.conftest import OUTPUT_DIR, write_output
from repro.compile import CompileCache, CompiledBucket
from repro.core.backends import FastCPUBackend, _DecodeCache
from repro.core.results import format_table
from repro.envs.rollout import Tick
from repro.neat.config import NEATConfig
from repro.neat.population import Population
from repro.neat.vectorized import PopulationEvaluator

NUM_GENOMES = 200
BOOT_GENERATIONS = 6
TICKS = 10
SPEEDUP_FLOOR = 3.0
SPEEDUP_TARGET = 10.0  # the paper-facing goal, recorded but not gated
REPEATS = 3


def _midrun_population(config: NEATConfig):
    """Evolve CartPole briefly and return the live population."""
    boot = FastCPUBackend(
        "cartpole", config, episodes_per_genome=1, base_seed=3
    )
    population = Population(config, seed=3)
    population.run(boot.evaluate, max_generations=BOOT_GENERATIONS)
    boot.close()
    return list(population.population)


def _weight_mutated_offspring(parents):
    """One weight/bias-perturbed child per parent — the common NEAT
    offspring whose topology survives but whose structural hash (and
    therefore the decode-LRU key) does not."""
    rng = np.random.default_rng(17)
    offspring = []
    for parent in parents:
        child = parent.copy(new_key=10_000 + parent.key)
        for conn in child.connections.values():
            conn.weight += float(rng.normal(0.0, 0.1))
        for node in child.nodes.values():
            node.bias += float(rng.normal(0.0, 0.1))
        offspring.append(child)
    return offspring


def _observations(config, slots, tick):
    """One lock-step :class:`Tick`: every slot live, one normal draw per
    slot in slot order."""
    rng = np.random.default_rng(1000 + tick)
    rows = [rng.normal(size=config.num_inputs) for _ in slots]
    return Tick(slots, np.array(rows))


def _run_ticks(config, plans, count):
    """The shared phase: flat engine assembly + lock-step ticks."""
    start = time.perf_counter()
    evaluator = PopulationEvaluator.from_plans(plans)
    outputs = [
        evaluator.infer(_observations(config, range(len(plans)), tick))
        for tick in range(TICKS)
    ]
    return time.perf_counter() - start, outputs


def _fast_prep(config, parents, offspring):
    """cpu-fast: every weight-mutated child misses the decode LRU."""
    cache = _DecodeCache(capacity=4 * NUM_GENOMES)
    for parent in parents:  # the cross-generation cache state
        cache.warm(parent, config)
    start = time.perf_counter()
    decoded = [cache.get(genome, config) for genome in offspring]
    plans = [entry.vnet.plan for entry in decoded]
    return time.perf_counter() - start, plans, cache.misses


def _compiled_prep(config, cache, offspring):
    """cpu-compiled: shape-key hits + bucket fill + plan views."""
    start = time.perf_counter()
    entries = [cache.get(genome, config) for genome in offspring]
    grouped: dict[int, tuple[object, list[int]]] = {}
    for slot, entry in enumerate(entries):
        bucket = grouped.get(id(entry))
        if bucket is None:
            grouped[id(entry)] = (entry, [slot])
        else:
            bucket[1].append(slot)
    plans = [None] * len(offspring)
    buckets = 0
    for structure, slots in grouped.values():
        buckets += 1
        bucket = CompiledBucket(
            structure, [offspring[slot] for slot in slots]
        )
        for plan, slot in zip(bucket.member_plans(), slots):
            plans[slot] = plan
    return time.perf_counter() - start, plans, buckets


def test_compile_speedup():
    config = NEATConfig(
        num_inputs=4, num_outputs=2, population_size=NUM_GENOMES
    )
    parents = _midrun_population(config)
    assert len(parents) >= 100
    offspring = _weight_mutated_offspring(parents)
    # the workload must be the common case: every offspring vectorizable
    probe = _DecodeCache(capacity=len(offspring))
    offspring = [
        g for g in offspring if probe.get(g, config).vnet is not None
    ]
    assert len(offspring) >= 100

    # structures compiled in earlier generations, persisting across
    # them — a real run's children keep hitting these entries
    compile_cache = CompileCache(capacity=4 * NUM_GENOMES)
    for parent in parents:
        compile_cache.warm(parent, config)
    warmed = compile_cache.info()["warmed"]

    fast_prep = comp_prep = float("inf")
    fast_shared = comp_shared = float("inf")
    for _ in range(REPEATS):
        prep, fast_plans, misses = _fast_prep(config, parents, offspring)
        shared, fast_out = _run_ticks(config, fast_plans, TICKS)
        fast_prep = min(fast_prep, prep)
        fast_shared = min(fast_shared, shared)

        prep, comp_plans, buckets = _compiled_prep(
            config, compile_cache, offspring
        )
        shared, comp_out = _run_ticks(config, comp_plans, TICKS)
        comp_prep = min(comp_prep, prep)
        comp_shared = min(comp_shared, shared)

    # every weight-mutated child defeats the decode LRU ...
    assert misses == len(offspring)
    # ... and hits the shape-keyed compile cache, every generation
    cache_info = compile_cache.info()
    assert cache_info["hits"] == REPEATS * len(offspring)
    assert cache_info["misses"] == 0
    assert cache_info["size"] == warmed

    # the speedup is exact-result: identical bits on every tick
    for fast_tick, comp_tick in zip(fast_out, comp_out):
        assert fast_tick.shape == comp_tick.shape
        for fast_row, comp_row in zip(fast_tick, comp_tick):
            assert np.array_equal(fast_row, comp_row)

    prep_speedup = fast_prep / comp_prep
    total_speedup = (fast_prep + fast_shared) / (comp_prep + comp_shared)

    rows = [
        ["decode (cpu-fast)", f"{fast_prep * 1e3:.1f}",
         f"{fast_shared * 1e3:.1f}", "1.0x"],
        ["compiled (cpu-compiled)", f"{comp_prep * 1e3:.1f}",
         f"{comp_shared * 1e3:.1f}", f"{prep_speedup:.2f}x"],
    ]
    table = format_table(
        ["software path", "prep (ms)",
         f"assemble + {TICKS} ticks (ms)", "prep speedup"],
        rows,
        title=(
            f"compile-cache speedup: {len(offspring)} weight-mutated "
            f"mid-run CartPole offspring in {buckets} buckets "
            f"(end-to-end {total_speedup:.2f}x)"
        ),
    )
    write_output("compile_speedup", table)

    OUTPUT_DIR.mkdir(exist_ok=True)
    payload = {
        "workload": {
            "env": "cartpole",
            "population": len(offspring),
            "boot_generations": BOOT_GENERATIONS,
            "ticks": TICKS,
            "buckets": buckets,
        },
        "fast": {"prep_s": fast_prep, "shared_s": fast_shared},
        "compiled": {"prep_s": comp_prep, "shared_s": comp_shared},
        "compile_cache": cache_info,
        "prep_speedup": prep_speedup,
        "total_speedup": total_speedup,
        "floor": SPEEDUP_FLOOR,
        "target": SPEEDUP_TARGET,
        "bit_identical": True,
    }
    (OUTPUT_DIR / "BENCH_compile.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    assert prep_speedup >= SPEEDUP_FLOOR, (
        f"compiled prep only {prep_speedup:.2f}x over cpu-fast decode "
        f"(floor {SPEEDUP_FLOOR}x, target {SPEEDUP_TARGET}x)"
    )
