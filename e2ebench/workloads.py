"""The benchmark's workloads, driven through public entry points only.

* ``lander`` / ``lander-inax``: fixed seeded ``E3(...).run`` loops on
  LunarLander at population 150 with ``fitness_threshold=math.inf``, so
  no run stops early.  One *round* runs every sub-seed of the
  workload's seed suite once; a run repeats rounds until its time is
  spent.  Averaging each round over several seeded trajectories keeps
  the seed-to-seed spread of the metrics small.
* ``serve-mix``: an open loop.  One asyncio client submits short jobs
  to an in-process ``EvolutionService`` on a fixed schedule, rotating
  across three backend-pool keys.

Each function returns plain samples; ``run.py`` turns them into the
result payload.
"""

from __future__ import annotations

import asyncio
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.experiment import cpu_model_for, price_run
from repro.core.platform import E3
from repro.neat.config import NEATConfig
from repro.serve import EvolutionService, JobSpec
from repro.serve.pool import BackendPool
from repro.serve.queue import AdmissionError
from repro.serve.service import percentiles

import tracer as tracing
from probe import REFERENCE_S, host_probe

perf_counter = time.perf_counter


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_scale(probes: list[float]) -> float:
    """How much slower than the reference host this run's host was."""
    return statistics.median(probes) / REFERENCE_S


@dataclass(frozen=True)
class LoopConfig:
    """One seeded generation loop (``lander`` and ``lander-inax``)."""

    env: str = "lunar_lander"
    population: int = 150
    generations: int = 5
    #: seeded trajectories per round (derived from the run's seed)
    subseeds: int = 4
    #: extra ``E3(...)`` constructions timed before the first round, so
    #: ``setup_s`` is a median over many set-ups even when few rounds fit
    setup_samples: int = 8
    #: generations compared against the interpreted ``cpu`` oracle
    oracle_generations: int = 2


@dataclass(frozen=True)
class ServeConfig:
    """The ``serve-mix`` open loop."""

    #: jobs per second, about 40% of the mix's burst drain rate; a 40 s
    #: run submits 100 jobs, leaving 10 latency samples beyond p90
    rate: float = 2.5
    population: int = 24
    #: (env, backend, generations) per pool key, submitted round-robin
    mix: tuple = (
        ("lunar_lander", "cpu-compiled", 2),
        ("cartpole", "cpu-compiled", 3),
        ("lunar_lander", "inax", 2),
    )
    #: service processes started for ``setup_s``
    setup_samples: int = 7
    #: jobs re-run as direct sequential E3 runs by the output check
    checked_jobs: int = 3
    #: host probes before and after the open loop, for the payload
    probes: int = 5


def derive_seeds(seed: int, count: int) -> list[int]:
    """``count`` distinct 31-bit seeds, a pure function of ``seed``."""
    state = np.random.SeedSequence(seed).generate_state(count, np.uint64)
    seeds = [int(value >> np.uint64(33)) for value in state]
    if len(set(seeds)) != count:
        raise ValueError(f"seed {seed} derives colliding sub-seeds")
    return seeds


# ------------------------------------------------------------ generation loop
@dataclass
class LoopRun:
    """One ``E3(...).run`` and what the checks and metrics need of it."""

    seed: int
    setup_s: float
    run_s: float
    generations: int
    history: list[tuple[float, float]]
    episode_lengths: list[list[int]]
    records: list
    inax_config: object
    cycles: float
    cpu_s: float
    inax_s: float
    evaluations: int
    failed: int
    fallback_waves: int
    #: INAX slot-steps with a live individual / provisioned
    live_slot_steps: int
    slot_steps_provisioned: int
    #: seconds spent in ``price_run`` (outside the timed region)
    price_s: float
    #: mean host probe seconds just before and just after the run
    probe_s: float = REFERENCE_S

    @property
    def scaled_run_s(self) -> float:
        """``run_s`` at the reference host speed."""
        return self.run_s * REFERENCE_S / self.probe_s

    @property
    def scaled_job_s(self) -> float:
        """Set-up plus run at the reference host speed."""
        return (self.setup_s + self.run_s) * REFERENCE_S / self.probe_s


def run_once(
    backend: str, cfg: LoopConfig, seed: int, e3_class=E3
) -> LoopRun:
    """Construct, run and price one seeded E3 loop."""
    t0 = perf_counter()
    e3 = e3_class(
        cfg.env,
        backend=backend,
        neat_config=NEATConfig(population_size=cfg.population),
        seed=seed,
    )
    t1 = perf_counter()
    try:
        result = e3.run(
            max_generations=cfg.generations, fitness_threshold=math.inf
        )
        t2 = perf_counter()
    finally:
        e3.backend.close()
    backend_state = e3.backend
    failed = (
        backend_state.quarantine_count
        + getattr(backend_state, "oversize_count", 0)
        + getattr(backend_state, "fallback_genomes", 0)
    )
    t3 = perf_counter()
    platforms, merged = price_run(
        result.records, e3.inax_config, cpu_model=cpu_model_for(cfg.env)
    )
    price_s = perf_counter() - t3
    return LoopRun(
        seed=seed,
        setup_s=t1 - t0,
        run_s=t2 - t1,
        generations=result.generations,
        history=[(s.best_fitness, s.mean_fitness) for s in result.history],
        episode_lengths=[list(r.episode_lengths) for r in result.records],
        records=result.records,
        inax_config=e3.inax_config,
        cycles=merged.total_cycles,
        cpu_s=platforms["cpu"].runtime_seconds,
        inax_s=platforms["inax"].runtime_seconds,
        evaluations=sum(len(r.episode_lengths) for r in result.records),
        failed=failed,
        fallback_waves=getattr(backend_state, "fallback_waves", 0),
        live_slot_steps=merged.live_slot_steps,
        slot_steps_provisioned=merged.slot_steps_provisioned,
        price_s=price_s,
    )


@dataclass
class Round:
    runs: list[LoopRun]
    traced: bool = False
    tracer: object = None

    @property
    def gens_per_s(self) -> float:
        """Generations per second of ``E3.run`` wall time."""
        return sum(r.generations for r in self.runs) / sum(
            r.run_s for r in self.runs
        )

    @property
    def scaled_gens_per_s(self) -> float:
        """``gens_per_s`` at the reference host speed."""
        return sum(r.generations for r in self.runs) / sum(
            r.scaled_run_s for r in self.runs
        )

    @property
    def scaled_jobs_per_s(self) -> float:
        """Whole seeded runs (set-up included) per second at the
        reference host speed."""
        return len(self.runs) / sum(r.scaled_job_s for r in self.runs)


@dataclass
class LoopSamples:
    rounds: list[Round] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    #: host probe seconds, one before every seeded run and one at the end
    probes: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0


def run_loop_workload(
    backend: str,
    cfg: LoopConfig,
    seed: int,
    seconds: float,
    trace: bool,
) -> LoopSamples:
    """Rounds of seeded loops until ``seconds`` are spent.

    With ``trace``, rounds alternate untraced and traced (wrappers
    installed only for the traced ones), so the traced run's overhead
    is measured against untraced rounds of the same process.
    """
    seeds = derive_seeds(seed, cfg.subseeds)
    samples = LoopSamples()
    samples.probes.append(host_probe())
    for _ in range(cfg.setup_samples):
        t0 = perf_counter()
        e3 = E3(
            cfg.env,
            backend=backend,
            neat_config=NEATConfig(population_size=cfg.population),
            seed=seeds[0],
        )
        samples.setups.append(perf_counter() - t0)
        e3.backend.close()
    samples.probes.append(host_probe())
    start = perf_counter()
    while True:
        traced = trace and len(samples.rounds) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        wrappers = tracing.install(tracer) if traced else None
        runs = []
        try:
            for s in seeds:
                before = samples.probes[-1]
                run = run_once(backend, cfg, s, wrappers.E3 if traced else E3)
                samples.probes.append(host_probe())
                run.probe_s = (before + samples.probes[-1]) / 2
                if samples.rounds:  # only the first round's are checked
                    run.records = None
                runs.append(run)
        finally:
            if wrappers is not None:
                wrappers.uninstall()
        samples.rounds.append(Round(runs, traced=traced, tracer=tracer))
        samples.setups.extend(run.setup_s for run in runs)
        # start another round only if it would end within half a round
        # of the deadline, so a run measures ~``seconds`` whatever the
        # round length
        elapsed = perf_counter() - start
        per_round = elapsed / len(samples.rounds)
        enough = len(samples.rounds) >= (2 if trace else 1)
        if enough and elapsed + per_round / 2 > seconds:
            break
    samples.peak_rss_mb = peak_rss_mb()
    return samples


# ------------------------------------------------------------------ serve
class RecordingPool(BackendPool):
    """Backend pool that stamps each lease and keeps each finished
    job's generation records (the service exposes neither)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: job seed -> (lease start, lease seconds)
        self.leases: dict[int, tuple[float, float]] = {}
        #: job seed -> the finished run's backend state (see
        #: :class:`_RecordingLease`)
        self.records: dict[int, dict] = {}

    def lease(self, *args, **kwargs):
        t0 = perf_counter()
        lease = super().lease(*args, **kwargs)
        seed = kwargs["base_seed"]
        self.leases[seed] = (t0, perf_counter() - t0)
        return _RecordingLease(lease, self.records, seed)


class _RecordingLease:
    """Delegates to a ``BackendLease``; on release keeps the run's
    records, which the next lease's ``reset_run_state`` replaces."""

    def __init__(self, lease, sink: dict, seed: int):
        self.backend = lease.backend
        self._lease = lease
        self._sink = sink
        self._seed = seed

    def release(self, discard: bool = False) -> None:
        if not discard:
            backend = self.backend
            self._sink[self._seed] = {
                "records": backend.records,
                "inax_config": backend.inax_config,
                "quarantined": backend.quarantine_count,
                "fallback_waves": getattr(backend, "fallback_waves", 0),
                "fallback_genomes": getattr(backend, "fallback_genomes", 0),
                "oversize": getattr(backend, "oversize_count", 0),
            }
        self._lease.release(discard=discard)


@dataclass
class ServeJob:
    index: int
    spec: JobSpec
    due: float = 0.0
    submitted: float = 0.0
    finished: float = math.inf
    status: dict | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status is not None and self.status["state"] == "completed"

    @property
    def latency(self) -> float:
        return self.finished - self.due if self.ok else math.inf


@dataclass
class ServeSamples:
    jobs: list[ServeJob]
    setups: list[float]
    #: host probe seconds before and after the open loop (host context
    #: only: see :func:`serve_latencies`)
    probes: list[float]
    wall_s: float
    pool_stats: dict
    peak_rss_mb: float
    tracer: object = None
    leases: dict = field(default_factory=dict)
    records: dict = field(default_factory=dict)


def serve_specs(cfg: ServeConfig, seed: int, count: int) -> list[JobSpec]:
    seeds = derive_seeds(seed, count)
    specs = []
    for index, job_seed in enumerate(seeds):
        env, backend, generations = cfg.mix[index % len(cfg.mix)]
        specs.append(
            JobSpec(
                env=env,
                backend=backend,
                population_size=cfg.population,
                generations=generations,
                seed=job_seed,
                checkpoint=True,
            )
        )
    return specs


_READY = """
import asyncio, sys
sys.path.insert(0, sys.argv[1])
from repro.serve import EvolutionService
async def main():
    service = EvolutionService(data_dir=sys.argv[2])
    await service.start()
    await asyncio.sleep(0)
    print("ready", flush=True)
    await service.shutdown()
asyncio.run(main())
"""


def service_ready_s(data_dir: Path) -> float:
    """Seconds from starting a service process until it accepts jobs.

    That is what a user of the service waits for: interpreter start,
    imports and the service's own start-up.  Timing the in-process
    constructor alone would measure tens of microseconds of noise.
    """
    import repro

    src = Path(repro.__file__).resolve().parent.parent
    t0 = perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", _READY, str(src), str(data_dir)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = child.stdout.readline()
        ready = perf_counter() - t0
        if child.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("the service process did not start")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    return ready


async def _serve_mix(
    cfg: ServeConfig, seed: int, seconds: float, trace: bool, work: Path
) -> ServeSamples:
    count = max(1, int(cfg.rate * seconds))
    specs = serve_specs(cfg, seed, count)
    jobs = [ServeJob(index, spec) for index, spec in enumerate(specs)]
    by_seed = {job.spec.seed: job for job in jobs}

    probes = [host_probe() for _ in range(cfg.probes)]
    setups = [
        service_ready_s(work / "setup") for _ in range(cfg.setup_samples)
    ]

    tracer = wrappers = None
    if trace:
        tracer = tracing.Tracer()
        wrappers = tracing.install(
            tracer, tag_for_seed=lambda s: f"job{by_seed[s].index:04d}"
        )
    # the service's default pool sizing (two leases per run slot)
    pool = RecordingPool(max_leases=8)
    service = EvolutionService(data_dir=work / "jobs", pool=pool)
    await service.start()
    try:
        waiters = []

        async def wait(job: ServeJob, job_id: str) -> None:
            job.status = await service.wait(job_id)
            job.finished = perf_counter()

        start = perf_counter()
        for job in jobs:
            job.due = start + job.index / cfg.rate
            delay = job.due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            job.submitted = perf_counter()
            try:
                job_id = await service.submit(job.spec)
            except (AdmissionError, ValueError) as error:
                job.error = f"{type(error).__name__}: {error}"
                continue
            waiters.append(asyncio.create_task(wait(job, job_id)))
        await asyncio.gather(*waiters)
        finished = [job.finished for job in jobs if job.ok]
        wall = (max(finished) if finished else perf_counter()) - start
        pool_stats = pool.stats()
    finally:
        await service.shutdown()
        if wrappers is not None:
            wrappers.uninstall()
    probes += [host_probe() for _ in range(cfg.probes)]
    return ServeSamples(
        jobs=jobs,
        setups=setups,
        probes=probes,
        wall_s=wall,
        pool_stats=pool_stats,
        peak_rss_mb=peak_rss_mb(),
        tracer=tracer,
        leases=dict(pool.leases),
        records=dict(pool.records),
    )


def run_serve_workload(
    cfg: ServeConfig, seed: int, seconds: float, trace: bool, work: Path
) -> ServeSamples:
    work.mkdir(parents=True, exist_ok=True)
    try:
        return asyncio.run(_serve_mix(cfg, seed, seconds, trace, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def cycle_total(records) -> float:
    """Simulated INAX cycles of a run's generation records."""
    return sum(record.cycle_report.total_cycles for record in records)


def serve_latencies(samples: ServeSamples) -> dict[str, float]:
    """Nearest-rank p50/p90 of scheduled-submit-to-terminal latency;
    failed or refused jobs count as infinitely late.

    Unlike the loops' times these are not scaled by host speed: the
    client cannot probe in-process while jobs run without delaying its
    own schedule, and probes from another process run on the other
    core and did not follow the service's speed.
    """
    return percentiles([job.latency for job in samples.jobs], (50, 90))
