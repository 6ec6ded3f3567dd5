"""Output checks against the repository's reference oracles.

They run after the timed region and return a list of mismatch
descriptions; an empty list means the outputs are correct.  Floats are
compared by their exact bit patterns (``float.hex``), never with a
tolerance: every contract checked here is a bit-identity contract.

* ``lander``: the first generations of the timed backend match the
  interpreted ``cpu`` oracle -- every genome's fitness bits and every
  episode length -- and the timed run's own history matches both.
* ``lander-inax``: the functional INAX run is bit-equal in trajectory
  to the ``cpu-compiled`` loop of the same seed, and every generation's
  device ``CycleReport`` equals ``schedule_generation`` over the same
  records.
* ``serve-mix``: sampled jobs' best fitness equals a direct sequential
  ``E3`` run of the same spec, and pooled INAX jobs' cycle totals equal
  the fresh run's.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from repro.core.backends import GenerationRecord
from repro.core.platform import E3
from repro.inax.accelerator import schedule_generation
from repro.neat.config import NEATConfig

from workloads import (
    LoopConfig,
    LoopRun,
    ServeConfig,
    ServeSamples,
    cycle_total,
)


def bits(value: float) -> str:
    return float(value).hex()


@dataclass
class Capture:
    """Per-generation outputs of a seeded run."""

    #: per generation: (genome key, fitness bits) for every genome
    fitness: list[list[tuple[int, str]]]
    episode_lengths: list[list[int]]
    #: per generation: (best, mean) fitness bits
    history: list[tuple[str, str]]


def capture(
    env: str, backend: str, population: int, generations: int, seed: int
) -> Capture:
    """Run ``generations`` seeded generations, keeping every fitness."""
    e3 = E3(
        env,
        backend=backend,
        neat_config=NEATConfig(population_size=population),
        seed=seed,
    )
    fitness: list[list[tuple[int, str]]] = []
    evaluate = e3.backend.evaluate

    def recording_evaluate(genomes):
        evaluate(genomes)
        fitness.append([(g.key, bits(g.fitness)) for g in genomes])

    e3.backend.evaluate = recording_evaluate
    try:
        result = e3.run(
            max_generations=generations, fitness_threshold=math.inf
        )
    finally:
        e3.backend.close()
    return Capture(
        fitness=fitness,
        episode_lengths=[list(r.episode_lengths) for r in result.records],
        history=[
            (bits(s.best_fitness), bits(s.mean_fitness))
            for s in result.history
        ],
    )


def history_bits(run: LoopRun) -> list[tuple[str, str]]:
    return [(bits(best), bits(mean)) for best, mean in run.history]


def _compare(what: str, expected, actual) -> list[str]:
    if expected == actual:
        return []
    if isinstance(expected, dict) and isinstance(actual, dict):
        keys = sorted(k for k in expected if expected[k] != actual.get(k))
        return [
            f"{what}: {k}={actual.get(k)!r} != oracle {expected[k]!r}"
            for k in keys
        ]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [
                f"{what}: {len(actual)} entries, oracle has {len(expected)}"
            ]
        for index, (want, got) in enumerate(zip(expected, actual)):
            if want != got:
                return [f"{what}[{index}]: {got!r} != oracle {want!r}"]
    return [f"{what}: {actual!r} != oracle {expected!r}"]


def check_oracle(cfg: LoopConfig, backend: str, run: LoopRun) -> list[str]:
    """``backend``'s first generations against the ``cpu`` oracle."""
    k = min(cfg.oracle_generations, cfg.generations)
    oracle = capture(cfg.env, "cpu", cfg.population, k, run.seed)
    fast = capture(cfg.env, backend, cfg.population, k, run.seed)
    return (
        _compare(f"{backend} fitness", oracle.fitness, fast.fitness)
        + _compare(
            f"{backend} episode lengths",
            oracle.episode_lengths,
            fast.episode_lengths,
        )
        + _compare("timed history", fast.history, history_bits(run)[:k])
        + _compare(
            "timed episode lengths",
            fast.episode_lengths,
            run.episode_lengths[:k],
        )
    )


def report_totals(report) -> dict:
    """A ``CycleReport``'s totals; ``layer_iterations`` is a device-side
    diagnostic the closed form does not produce."""
    totals = asdict(report)
    del totals["layer_iterations"]
    return totals


def check_device_cycles(
    records: list[GenerationRecord], inax_config
) -> list[str]:
    """Every device report equals the closed-form schedule of its record."""
    problems = []
    for generation, record in enumerate(records):
        analytic = schedule_generation(
            inax_config,
            record.configs,
            record.episode_lengths,
            predicted_costs=record.predicted_costs,
        )
        problems += _compare(
            f"generation {generation} device cycles",
            report_totals(analytic),
            report_totals(record.cycle_report),
        )
    return problems


def check_inax(run: LoopRun, reference: LoopRun) -> list[str]:
    """The INAX run against the ``cpu-compiled`` loop of the same seed."""
    return (
        _compare("inax history", history_bits(reference), history_bits(run))
        + _compare(
            "inax episode lengths",
            reference.episode_lengths,
            run.episode_lengths,
        )
        + _compare(
            "inax total cycles", bits(reference.cycles), bits(run.cycles)
        )
        + check_device_cycles(run.records, run.inax_config)
    )


def check_rounds(rounds) -> list[str]:
    """Every round re-ran the same seeds: its outputs must repeat."""
    first = rounds[0].runs
    problems = []
    for index, later in enumerate(rounds[1:], start=1):
        for a, b in zip(first, later.runs):
            problems += _compare(
                f"round {index} seed {b.seed} history",
                history_bits(a),
                history_bits(b),
            )
            problems += _compare(
                f"round {index} seed {b.seed} cycles",
                bits(a.cycles),
                bits(b.cycles),
            )
    return problems


def check_serve(cfg: ServeConfig, samples: ServeSamples) -> list[str]:
    """Sampled jobs against direct sequential runs of their specs.

    The sample is the last jobs submitted, one per pool key, which run
    on reused (pooled) backends by then.
    """
    problems = []
    for job in samples.jobs[-cfg.checked_jobs:]:
        spec = job.spec
        if not job.ok:
            problems.append(
                f"job {job.index} ({spec.env}/{spec.backend}) did not "
                f"complete: {job.error or job.status}"
            )
            continue
        e3 = E3(
            spec.env,
            backend=spec.backend,
            neat_config=NEATConfig(population_size=spec.population_size),
            seed=spec.seed,
        )
        try:
            result = e3.run(max_generations=spec.generations)
        finally:
            e3.backend.close()
        what = f"job {job.index} ({spec.env}/{spec.backend})"
        problems += _compare(
            f"{what} best fitness",
            bits(result.best_fitness),
            bits(job.status["best_fitness"]),
        )
        problems += _compare(
            f"{what} generations",
            result.generations,
            job.status["generations_done"],
        )
        if spec.backend == "inax":
            records = samples.records[spec.seed]["records"]
            problems += _compare(
                f"{what} pooled device cycles",
                bits(cycle_total(result.records)),
                bits(cycle_total(records)),
            )
    return problems
