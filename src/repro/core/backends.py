"""Evaluation backends: where the "evaluate" phase actually runs.

The E3 platform (Fig 5) keeps "evolve" on the CPU and chooses where to
run "evaluate":

* :class:`CPUBackend` — the SW-only baseline (E3-CPU) and the fitness
  oracle: decode each genome and run its episodes with the interpreted
  per-node forward pass;
* :class:`CompiledCPUBackend` — the production software path
  (``cpu-compiled``): bucket the generation by topology shape, compile
  each shape once into a cross-generation cache, run the whole
  population's episodes in lock-step through one batched evaluator,
  and optionally shard the population across a supervised
  ``multiprocessing`` pool.  Fitness trajectories are bit-identical to
  :class:`CPUBackend`;
* :class:`INAXBackend` — the co-designed path (E3-INAX): lower each
  genome to a HW configuration, dispatch the population in waves to the
  INAX device — or to a supervised farm of them (``devices > 1``) — and
  account every wave's cycles.  Clean runs take outputs from the
  compiled engine and price waves analytically; runs whose results or
  cycles depend on data drive the stepwise functional device.

All backends drive episodes through the shared rollout machinery
(:func:`repro.envs.rollout.run_episode` for sequential evaluation,
:func:`repro.envs.rollout.run_lockstep` for wave evaluation) and
evaluate under the same per-(genome, episode) seeds, so a NEAT run's
fitness trajectory is identical regardless of backend — the property
the integration tests pin down.

Every backend also records the generation's *workload* (for the
CPU/GPU cost models) and, when an INAX configuration is attached, the
analytic cycle report (for E3-INAX pricing) — this is what the Fig 9/10
benchmark harnesses consume.

:func:`build_backend` is the one place a backend name becomes an
instance: ``E3``, ``repro resume``, the serve pool and the island model
all construct through it.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import time
from collections import deque
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass

from repro.compile import CompileCache, CompiledPopulationEvaluator
from repro.compile.structure import CompiledStructure
from repro.envs.base import Environment
from repro.envs.registry import make
from repro.envs.rollout import EpisodeRecord, run_episode, run_lockstep
from repro.hw.workload import GenerationWorkload, IndividualWork
from repro.inax.accelerator import INAX, INAXConfig, schedule_generation
from repro.inax.compiler import HWNetConfig, compile_genome
from repro.inax.farm import FabricSupervisor, assign_waves
from repro.inax.heuristics import choose_num_pes
from repro.inax.pipeline import PipelineConfig, pack_waves, predict_costs
from repro.inax.pu import BufferOverflowError
from repro.inax.timing import CycleReport, utilization
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.network import FeedForwardNetwork
from repro.resilience.faults import (
    DeviceFault,
    FaultPlan,
    ResilienceEvent,
    emit_event,
    maybe_fail_worker,
)
from repro.resilience.injectors import (
    DeviceFaultInjector,
    has_device_faults,
    has_fabric_faults,
    wrap_env,
)
from repro.resilience.quarantine import DEFAULT_PENALTY, quarantine_nonfinite
from repro.resilience.supervisor import ShardSupervisor, SupervisorConfig
from repro.telemetry.metrics import get_metrics
from repro.telemetry.spans import get_tracer, span as _span

__all__ = [
    "GenerationRecord",
    "EvaluationBackend",
    "CPUBackend",
    "CompiledCPUBackend",
    "GPUBackend",
    "INAXBackend",
    "BACKENDS",
    "build_backend",
    "default_inax_config",
]


@dataclass
class GenerationRecord:
    """Everything recorded while evaluating one generation."""

    workload: GenerationWorkload
    #: compiled individuals, aligned with workload.individuals
    configs: list[HWNetConfig]
    episode_lengths: list[int]
    #: analytic INAX cycles (filled when an INAX config is attached;
    #: with evolve/evaluate overlap the fill is deferred until the
    #: backend's :meth:`EvaluationBackend.drain` runs)
    cycle_report: CycleReport | None = None
    #: the per-individual cost predictions the wave packer used
    #: (``schedule="lpt"`` only), so the dispatch can be replayed
    predicted_costs: list[float | None] | None = None


class EvaluationBackend:
    """Base backend: owns env construction, seeding, and recording."""

    name = "backend"

    def __init__(
        self,
        env_name: str,
        neat_config: NEATConfig,
        episodes_per_genome: int = 1,
        base_seed: int = 0,
        inax_config: INAXConfig | None = None,
        env_kwargs: dict | None = None,
        fault_plan: FaultPlan | None = None,
        quarantine_penalty: float = DEFAULT_PENALTY,
        pipeline: PipelineConfig | None = None,
    ):
        self.env_name = env_name
        self.neat_config = neat_config
        self.episodes_per_genome = episodes_per_genome
        self.base_seed = base_seed
        self.inax_config = inax_config
        self.env_kwargs = dict(env_kwargs or {})
        #: armed chaos faults (None = clean run, zero injection overhead)
        self.fault_plan = fault_plan
        #: sentinel fitness for genomes whose evaluation went non-finite
        self.quarantine_penalty = quarantine_penalty
        self.quarantine_count = 0
        #: backend-level resilience events (quarantine, fallback, oversize)
        self.resilience_events: list[ResilienceEvent] = []
        self.records: list[GenerationRecord] = []
        self._generation = 0
        #: pipelining policies (wave packing / prefetch / overlap)
        self.pipeline = pipeline if pipeline is not None else PipelineConfig()
        #: genome key -> total episode steps at its last evaluation (the
        #: LPT packer's cost predictor)
        self._last_lengths: dict[int, int] = {}
        #: deferred per-generation bookkeeping (see :meth:`drain`)
        self._pending_drain: list = []

    # ------------------------------------------------------------ hooks
    def evaluate(self, genomes: list[Genome]) -> None:
        """Set ``fitness`` on every genome; record the workload.

        Wraps the backend-specific :meth:`_evaluate` in a telemetry
        span so every backend's generation shows up on the trace
        timeline with the same name and attributes.  After evaluation,
        genomes whose fitness came back NaN/inf (faulty sensor, corrupt
        buffer) are quarantined to :attr:`quarantine_penalty` so they
        cannot poison selection.
        """
        generation = self._generation
        with _span(
            "backend.evaluate",
            backend=self.name,
            generation=generation,
            genomes=len(genomes),
        ):
            self._evaluate(genomes)
            nonfinite = [
                g.key
                for g in genomes
                if g.fitness is not None and not math.isfinite(g.fitness)
            ]
            quarantined = quarantine_nonfinite(
                genomes,
                penalty=self.quarantine_penalty,
                site_prefix=f"gen={generation}|",
            )
            if quarantined:
                self.quarantine_count += len(quarantined)
                self.resilience_events.extend(quarantined)
                # a quarantined genome's episode ran under fault
                # conditions (NaN rewards end episodes at whatever step
                # the fault fired), so its recorded length would poison
                # the LPT cost prediction for its key next generation;
                # dropping it falls back to arrival-order placement
                for key in nonfinite:
                    self._last_lengths.pop(key, None)
        if not self.pipeline.overlap:
            self.drain()

    def _evaluate(self, genomes: list[Genome]) -> None:
        raise NotImplementedError

    def warm_caches(self, genomes: list[Genome]) -> int:
        """Pre-populate structural caches from ``genomes`` (resume path).

        ``load_checkpoint`` restores the population but no cache state;
        without warming, the first post-resume generation silently
        re-compiles everything.  Returns how many cache
        entries were built; backends without structural caches warm
        nothing.
        """
        return 0

    def drain(self) -> None:
        """Run the generation's deferred bookkeeping (idempotent).

        Every fitness is already set *synchronously* by
        :meth:`evaluate` — reproduction needs them all — so what the
        evolve/evaluate overlap actually hides is this drain: the
        analytic :func:`schedule_generation` pricing of the generation
        record.  It touches no RNG, no genomes, and no telemetry
        tracer, so running it on a background thread while
        ``Population`` evolves cannot change a bit of the run.  With
        ``pipeline.overlap`` off, :meth:`evaluate` drains inline and
        behavior is exactly the pre-pipeline sequential loop.
        """
        pending, self._pending_drain = self._pending_drain, []
        for task in pending:
            task()

    def close(self) -> None:
        """Release any resources (worker pools, devices). Idempotent."""

    def reset_run_state(self, base_seed: int | None = None) -> None:
        """Clear per-run accumulators so the instance can host a new run.

        The serve-layer :class:`~repro.serve.pool.BackendPool` leases
        backends across jobs; this resets everything a run accumulates
        — generation records, the generation counter, LPT cost history,
        quarantine/resilience accounting — while deliberately keeping
        the *structural* caches (compiled shapes, live worker pools).
        Those are keyed purely on genome content and cannot change
        fitness bits, so a reused backend is bit-identical to a fresh
        one but skips cold-start compile and pool-spawn costs.
        ``base_seed`` rebinds the run seed (it feeds every per-episode
        seed draw) when the next job differs.
        """
        self.records = []
        self._generation = 0
        self._last_lengths = {}
        self._pending_drain = []
        self.quarantine_count = 0
        self.resilience_events = []
        if base_seed is not None:
            self.base_seed = base_seed

    # ---------------------------------------------------------- helpers
    def _episode_seed(self, genome: Genome, episode: int) -> int:
        """Deterministic per (run, genome, episode); independent of backend.

        The (base_seed, genome key, episode) triple is hashed through
        SHA-256 and truncated to 63 bits, so distinct triples get
        distinct, well-mixed seeds (the old ``key * 31 + episode``
        scheme collided for adjacent keys as soon as
        ``episodes_per_genome`` exceeded 31).
        """
        payload = f"{self.base_seed}|{genome.key}|{episode}".encode()
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "little") >> 1

    def _make_env(self) -> Environment:
        env = make(self.env_name, **self.env_kwargs)
        # env-level faults apply identically on every backend (and inside
        # shard workers): FaultySensor keys its draws off the episode
        # seed, so sharding/fallback cannot change what fires
        return wrap_env(env, self.fault_plan)

    def _compiled_records(
        self,
        genomes: list[Genome],
        entries: list[CompiledStructure],
        episodes: Sequence[int],
    ) -> list[list[EpisodeRecord]]:
        """Run ``episodes`` of every genome on the compiled engine.

        The one lock-step function the fast software path evaluates
        with: ``cpu-compiled`` runs whole generations through it and
        the INAX wave fallback one faulted wave's episode.  ``entries``
        are the genomes' compiled shapes; a shape that does not
        vectorize (exotic aggregations) runs the interpreted reference
        path instead, which produces the same bits by construction.
        Returns each genome's episode records, in ``episodes`` order.
        """
        slots = [
            (i, episode)
            for i, entry in enumerate(entries)
            if entry.plan is not None
            for episode in episodes
        ]
        records: dict[tuple[int, int], EpisodeRecord] = {}
        if slots:
            envs = [self._make_env() for _ in slots]
            seeds = [
                self._episode_seed(genomes[i], episode)
                for i, episode in slots
            ]
            buckets = len({id(entries[i]) for i, _ in slots})
            with _span(
                "compile.batch_step", slots=len(slots), buckets=buckets
            ):
                evaluator = CompiledPopulationEvaluator(
                    [(entries[i], genomes[i]) for i, _ in slots]
                )
                episodes_run = run_lockstep(
                    envs, evaluator.infer, seeds=seeds
                )
                records.update(zip(slots, episodes_run))
        return [
            [records[i, e] for e in episodes]
            if entries[i].plan is not None
            else self._interpreted_records([genome], episodes)[0]
            for i, genome in enumerate(genomes)
        ]

    def _interpreted_records(
        self, genomes: list[Genome], episodes: Sequence[int]
    ) -> list[list[EpisodeRecord]]:
        """Run ``episodes`` of every genome on the interpreted reference
        path (:func:`run_episode`, one env at a time); returns each
        genome's episode records, in ``episodes`` order."""
        per_genome = []
        for genome in genomes:
            net = FeedForwardNetwork.create(genome, self.neat_config)
            per_genome.append(
                [
                    run_episode(
                        self._make_env(),
                        net,
                        seed=self._episode_seed(genome, episode),
                    )
                    for episode in episodes
                ]
            )
        return per_genome

    def _event(self, kind: str, site: str, **details) -> ResilienceEvent:
        """Record one backend-level resilience event (+ telemetry)."""
        event = ResilienceEvent(kind=kind, site=site, details=dict(details))
        self.resilience_events.append(event)
        emit_event(kind, site)
        return event

    def reporter_columns(self) -> dict[str, float]:
        """Cumulative per-generation extras for reporters (see
        :attr:`repro.neat.population.Population.stat_sources`)."""
        return {"quarantined": float(self.quarantine_count)}

    def resilience_log(self) -> list[dict]:
        """Backend + fault-plan events as comparable dicts (replay tests)."""
        events = [event.to_dict() for event in self.resilience_events]
        if self.fault_plan is not None:
            events.extend(self.fault_plan.event_log())
        return events

    def _predict_costs(
        self, configs: list[HWNetConfig], keys: list[int]
    ) -> list[float | None] | None:
        """LPT cost predictions from last-generation lengths (or None)."""
        if self.pipeline.schedule != "lpt" or self.inax_config is None:
            return None
        hw = self.inax_config
        return predict_costs(
            configs,
            keys,
            self._last_lengths,
            hw.num_pes_per_pu,
            hw.pe_costs,
            hw.pu_costs,
        )

    def _record(
        self,
        configs: list[HWNetConfig],
        episode_lengths: list[int],
        keys: list[int] | None = None,
        predicted_costs: list[float | None] | None = None,
        analytic: bool = True,
    ) -> GenerationRecord:
        """Record the generation; analytic pricing may be deferred.

        ``keys`` (genome keys aligned with ``configs``) feed the LPT
        cost predictor for the *next* generation.  ``analytic=False``
        skips the closed-form :func:`schedule_generation` — the INAX
        backend supersedes it with the functional device's own report,
        so pricing the generation twice would be pure waste.
        """
        if predicted_costs is None and analytic:
            # software backends model the dispatch the device would run;
            # predictions must come from *pre-update* history, exactly
            # like the device packs before evaluating
            predicted_costs = (
                self._predict_costs(configs, keys) if keys else None
            )
        workload = GenerationWorkload(
            individuals=[
                IndividualWork.from_config(cfg, steps)
                for cfg, steps in zip(configs, episode_lengths)
            ]
        )
        record = GenerationRecord(
            workload=workload,
            configs=configs,
            episode_lengths=episode_lengths,
            cycle_report=None,
            predicted_costs=predicted_costs,
        )
        if analytic and self.inax_config is not None:
            inax_config = self.inax_config
            pipeline = self.pipeline

            def price() -> None:
                record.cycle_report = schedule_generation(
                    inax_config,
                    configs,
                    episode_lengths,
                    pipeline=pipeline,
                    predicted_costs=predicted_costs,
                )

            self._pending_drain.append(price)
        if keys is not None:
            for key, steps in zip(keys, episode_lengths):
                self._last_lengths[key] = steps
        self.records.append(record)
        self._generation += 1
        return record


def _totals(records: list[EpisodeRecord]) -> tuple[float, int]:
    """One genome's summed reward and steps over its episodes.

    Per-episode totals are summed in episode order — the one
    accumulation every backend shares, so their fitness floats agree
    bit for bit.
    """
    total_reward = 0.0
    total_steps = 0
    for record in records:
        total_reward += record.total_reward
        total_steps += record.steps
    return total_reward, total_steps


class CPUBackend(EvaluationBackend):
    """SW-only evaluation: the E3-CPU baseline.

    Episodes run through the shared :func:`run_episode` driver with the
    interpreted per-node forward pass — deliberately the slow reference
    path the paper profiles in Fig 1(b).
    """

    name = "cpu"

    def _evaluate(self, genomes: list[Genome]) -> None:
        configs = [compile_genome(g, self.neat_config) for g in genomes]
        episodes = self.episodes_per_genome
        lengths: list[int] = []
        records = self._interpreted_records(genomes, range(episodes))
        for genome, genome_records in zip(genomes, records):
            total_reward, total_steps = _totals(genome_records)
            genome.fitness = total_reward / episodes
            lengths.append(total_steps)
        self._record(configs, lengths, keys=[g.key for g in genomes])


class GPUBackend(CPUBackend):
    """The E3-GPU reference setting (§VI-A).

    Functionally identical to the CPU backend — a GPU computes the same
    forward passes, just (per the paper) *slower* for this workload —
    so evaluation reuses the software path while the platform pricing
    (:class:`repro.hw.gpu_model.GPUModel`) charges GPU rates.  Exists so
    all three of the paper's settings are addressable as backends.
    """

    name = "gpu"


#: default capacity of a backend's cross-generation compile cache
_COMPILE_CACHE_SIZE = 512


class _CompileCacheOwner:
    """The compile-cache lifecycle of a backend that owns one.

    ``cpu-compiled`` and ``inax`` both keep a cross-generation
    :class:`~repro.compile.CompileCache` (:attr:`_compile_cache`): it is
    warmed on resume, reported to ``repro resume`` and the health
    monitor, and survives :meth:`EvaluationBackend.reset_run_state` with
    its counters restarted.
    """

    _compile_cache: CompileCache

    def compile_cache_info(self) -> dict[str, int]:
        """Compile-cache statistics: hits, misses, size, warmed."""
        return self._compile_cache.info()

    def warm_caches(self, genomes: list[Genome]) -> int:
        built = 0
        for genome in genomes:
            if self._compile_cache.warm(genome, self.neat_config):
                built += 1
        return built

    def _restart_compile_counters(self) -> None:
        """Zero hit/miss/warmed; the compiled entries stay."""
        self._compile_cache.hits = 0
        self._compile_cache.misses = 0
        self._compile_cache.warmed = 0


# ------------------------------------------------------------------ pool
class _WorkerState:
    """One worker process's state for CompiledCPUBackend's shards.

    Bundles the worker-local backend with the cumulative compile-cache
    counters it has already reported, so each shard result ships a
    *delta* the parent can sum regardless of which worker the shard
    landed on.  The whole object is rebuilt by :func:`_worker_init`
    every time a pool (re)initializes its workers — counters can never
    leak between successive or concurrent runs in one process the way
    module-level dicts would.
    """

    __slots__ = ("backend", "reported_compile")

    def __init__(self, backend: "CompiledCPUBackend") -> None:
        self.backend = backend
        self.reported_compile = {"hits": 0, "misses": 0}


# per-process handle, set only inside pool worker processes by the pool
# initializer; replaced wholesale on every pool (re)spawn
_WORKER_STATE: _WorkerState | None = None


def _shard_slot(site: str) -> str:
    """The stable shard slot (``shard=N``) in a payload site.

    Attempt indices change across retries but the slot does not, so a
    retried shard's size report *replaces* its predecessor instead of
    accumulating.  Siteless legacy payloads share the anonymous slot.
    """
    for part in site.split("|"):
        if part.startswith("shard="):
            return part
    return ""


def _worker_init(
    env_name: str,
    neat_config: NEATConfig,
    episodes_per_genome: int,
    base_seed: int,
    env_kwargs: dict,
    cache_size: int,
    fault_plan: FaultPlan | None = None,
) -> None:
    global _WORKER_STATE
    _WORKER_STATE = _WorkerState(
        CompiledCPUBackend(
            env_name,
            neat_config,
            episodes_per_genome=episodes_per_genome,
            base_seed=base_seed,
            env_kwargs=env_kwargs,
            workers=0,
            cache_size=cache_size,
            fault_plan=fault_plan,
        )
    )


def _worker_evaluate(
    task: tuple[list[Genome], bool, str],
) -> tuple[list[tuple[int, float, int]], dict]:
    """Evaluate one shard; returns (per-genome rows, shard telemetry).

    The telemetry payload carries the worker-side wall seconds, the
    compile-cache activity since the worker's last report, and — when
    the parent has a metrics registry installed — a fresh worker-side
    registry snapshot (episode-step and wave-size histograms), so
    sharded evaluation does not discard worker-side telemetry.

    ``task`` also carries the shard's fault site
    (``gen=G|shard=I|attempt=A``): any armed ``worker.*`` fault fires
    here, *before* evaluation — the attempt index is part of the draw,
    so a supervised retry of a crashed shard gets a fresh chance.
    """
    genomes, want_metrics, fault_site = task
    state = _WORKER_STATE
    assert state is not None, "worker pool not initialized"
    backend = state.backend
    maybe_fail_worker(backend.fault_plan, fault_site)
    from repro.telemetry.metrics import MetricsRegistry, set_metrics

    registry = MetricsRegistry() if want_metrics else None
    previous = set_metrics(registry) if want_metrics else None
    t0 = time.perf_counter()
    try:
        fitnesses, lengths = backend._fitness_for(genomes)
    finally:
        if want_metrics:
            set_metrics(previous)
    seconds = time.perf_counter() - t0
    info = backend._compile_cache.info()
    reported = state.reported_compile
    compile_delta = {
        "hits": info["hits"] - reported["hits"],
        "misses": info["misses"] - reported["misses"],
    }
    reported["hits"] = info["hits"]
    reported["misses"] = info["misses"]
    telemetry = {
        # the shard's unique site (gen=G|shard=I|attempt=A) rides along
        # so the parent can merge each payload exactly once even if a
        # supervisor retry path ever hands the same result back twice
        "site": fault_site,
        "seconds": seconds,
        "compile_delta": compile_delta,
        "compile_size": info["size"],
        "genomes": len(genomes),
        "metrics": registry.snapshot() if registry is not None else None,
    }
    rows = [
        (genome.key, fitness, length)
        for genome, fitness, length in zip(genomes, fitnesses, lengths)
    ]
    return rows, telemetry


class CompiledCPUBackend(_CompileCacheOwner, EvaluationBackend):
    """Structural-batching software evaluation (``cpu-compiled``).

    Three optimizations over :class:`CPUBackend`, none of which change a
    single bit of any fitness value:

    1. **Shape compilation** — genomes bucket by the weights-excluded
       :meth:`Genome.shape_key`, and each shape compiles **once** into
       a :class:`~repro.compile.CompiledStructure` held in a
       cross-generation :class:`~repro.compile.CompileCache`, so
       steady-state generations — weight-mutated offspring of known
       topologies — compile almost nothing.
    2. **Batched inference** — a generation's members become stacked
       weight/bias tensors over the shared plans
       (:class:`~repro.compile.CompiledPopulationEvaluator`), so the
       whole population advances one lock-step env step in a handful
       of NumPy ops instead of a Python per-node loop per individual.
    3. **Sharding** — with ``workers > 1`` the population splits across
       a persistent, supervised ``multiprocessing`` pool; each worker
       keeps its own compile cache and reports deltas back.
       Per-(genome, episode) seeding makes shard placement irrelevant
       to results.

    The arithmetic keeps the interpreted path's term order and
    activation kernels, and the HW configs lower through the shapes'
    fill recipes to exactly what :func:`compile_genome` produces, so
    fitness trajectories and workload records are bit-identical to
    ``cpu``.  Non-vectorizable shapes (exotic aggregations) fall back
    to the interpreted reference path, which produces the same bits by
    construction.
    """

    name = "cpu-compiled"

    def __init__(
        self,
        env_name: str,
        neat_config: NEATConfig,
        *,
        workers: int = 0,
        cache_size: int = _COMPILE_CACHE_SIZE,
        supervisor: SupervisorConfig | None = None,
        **kwargs,
    ):
        """``workers`` > 1 shards evaluation across that many worker
        processes; 0 or 1 evaluates in-process.  ``cache_size`` bounds
        the shape-keyed compile cache.  ``supervisor`` tunes the shard
        watchdog/retry policy (a default :class:`SupervisorConfig` is
        used when omitted).  Every other keyword goes to
        :class:`EvaluationBackend`."""
        super().__init__(env_name, neat_config, **kwargs)
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.supervisor_config = (
            supervisor if supervisor is not None else SupervisorConfig()
        )
        self._compile_cache = CompileCache(cache_size)
        self._supervisor: ShardSupervisor | None = None
        #: compile-cache deltas folded back from worker shards
        self._shard_compile = {"hits": 0, "misses": 0}
        #: latest reported compile-cache size per shard slot (``shard=N``
        #: parsed from the payload site); the aggregate size is their
        #: sum, so it is deterministic regardless of the order shard
        #: payloads arrive in
        self._shard_compile_sizes: dict[str, int] = {}

    # --------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Tear the worker pool down with a *bounded* join; idempotent.

        ``Pool.join`` has no timeout, so the supervisor joins on a
        daemon thread and gives up after ``join_timeout`` — a hung
        worker can never wedge interpreter shutdown.
        """
        if self._supervisor is not None:
            # keep the supervisor object: its counters/events survive
            # close() for end-of-run reporting, and close stays idempotent
            self._supervisor.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown guard
        try:
            self.close()
        except Exception:  # repro: noqa[RES001] -- interpreter teardown
            pass

    def reset_run_state(self, base_seed: int | None = None) -> None:
        """Reset run accumulators; keep compile cache + worker pool warm.

        Compiled structures survive (structural, content-keyed,
        bit-safe) but the hit/miss/warmed counters restart so the next
        run's cache stats cover only its own activity.  Worker-side
        sizes are still live (the pool persists), so the aggregate
        ``size`` stays truthful; worker deltas keep flowing against the
        workers' own cumulative reported counters, which the run
        boundary does not disturb.
        """
        super().reset_run_state(base_seed=base_seed)
        self._restart_compile_counters()
        self._shard_compile = {"hits": 0, "misses": 0}
        if self._supervisor is not None:
            # per-run resilience accounting; the pool itself stays warm
            self._supervisor.retries = 0
            self._supervisor.degraded_shards = 0
            self._supervisor.events = []

    def compile_cache_info(self) -> dict[str, int]:
        """Compile-cache statistics: hits, misses, size, warmed.

        With ``workers > 1`` the counts combine the parent cache with
        every worker shard's (workers report deltas back with each
        evaluated shard; ``size`` **sums each shard slot's most recent
        report**, so the aggregate is deterministic no matter what
        order payloads arrive in).  ``warmed`` counts entries built by
        :meth:`warm_caches` (resume warm-start), which are deliberately
        excluded from hits/misses.
        """
        info = self._compile_cache.info()
        return {
            "hits": info["hits"] + self._shard_compile["hits"],
            "misses": info["misses"] + self._shard_compile["misses"],
            "size": info["size"] + sum(self._shard_compile_sizes.values()),
            "warmed": info["warmed"],
        }

    def reporter_columns(self) -> dict[str, float]:
        columns = super().reporter_columns()
        if self.workers > 1:
            supervisor = self._supervisor
            columns["shard_retries"] = (
                float(supervisor.retries) if supervisor is not None else 0.0
            )
            columns["shard_degraded"] = (
                float(supervisor.degraded_shards)
                if supervisor is not None
                else 0.0
            )
        return columns

    def resilience_log(self) -> list[dict]:
        events = super().resilience_log()
        if self._supervisor is not None:
            events.extend(e.to_dict() for e in self._supervisor.events)
        return events

    # -------------------------------------------------------- evaluation
    def _evaluate(self, genomes: list[Genome]) -> None:
        with _span("compile.lookup", genomes=len(genomes)):
            entries = [
                self._compile_cache.get(g, self.neat_config) for g in genomes
            ]
        # workload records lower through the fill recipes — equal to
        # compile_genome() field for field, without re-running CreateNet
        configs = [
            entry.hw_config(genome)
            for entry, genome in zip(entries, genomes)
        ]
        if self.workers > 1 and len(genomes) > 1:
            fitnesses, lengths = self._fitness_sharded(genomes)
        else:
            fitnesses, lengths = self._fitness_for(genomes, entries)
        for genome, fitness in zip(genomes, fitnesses):
            genome.fitness = fitness
        self._publish_metrics()
        self._record(configs, lengths, keys=[g.key for g in genomes])

    def _publish_metrics(self) -> None:
        registry = get_metrics()
        if registry is None:
            return
        info = self.compile_cache_info()
        registry.gauge("compile.cache.hits").set(info["hits"])
        registry.gauge("compile.cache.misses").set(info["misses"])
        registry.gauge("compile.cache.size").set(info["size"])

    def _fitness_for(
        self,
        genomes: list[Genome],
        entries: list[CompiledStructure] | None = None,
    ) -> tuple[list[float], list[int]]:
        """Evaluate ``genomes`` in-process; returns (fitnesses, lengths).

        Reward/step accumulation mirrors :class:`CPUBackend` exactly:
        per-episode totals in step order, summed in episode order, then
        one division — so the resulting floats are bit-identical.
        """
        if entries is None:
            entries = [
                self._compile_cache.get(g, self.neat_config) for g in genomes
            ]
        episodes = self.episodes_per_genome
        fitnesses: list[float] = []
        lengths: list[int] = []
        for records in self._compiled_records(
            genomes, entries, range(episodes)
        ):
            total_reward, total_steps = _totals(records)
            fitnesses.append(total_reward / episodes)
            lengths.append(total_steps)
        return fitnesses, lengths

    def _make_pool(self):
        """Build a fresh initialized worker pool (supervisor factory)."""
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        return context.Pool(
            self.workers,
            initializer=_worker_init,
            initargs=(
                self.env_name,
                self.neat_config,
                self.episodes_per_genome,
                self.base_seed,
                self.env_kwargs,
                self._compile_cache.capacity,
                self.fault_plan,
            ),
        )

    def _shard_fallback(
        self, genomes: list[Genome], site: str = ""
    ) -> tuple[list, dict]:
        """In-process degradation: worker-shaped result, identical bits.

        The per-(genome, episode) seeding contract means this produces
        exactly the floats the dead shard would have — degradation is
        invisible in the fitness trajectory.  Cache activity lands on
        the parent's own cache (counted by :meth:`compile_cache_info`
        already), so the telemetry payload carries zero deltas.
        """
        fitnesses, lengths = self._fitness_for(genomes)
        rows = [
            (genome.key, fitness, length)
            for genome, fitness, length in zip(genomes, fitnesses, lengths)
        ]
        telemetry = {
            "site": site,
            "seconds": 0.0,
            "compile_delta": {"hits": 0, "misses": 0},
            "compile_size": 0,
            "genomes": len(genomes),
            "metrics": None,
        }
        return rows, telemetry

    def _fitness_sharded(
        self, genomes: list[Genome]
    ) -> tuple[list[float], list[int]]:
        """Shard the population across the supervised worker pool.

        The :class:`ShardSupervisor` watches each shard with a timeout,
        retries failures on a respawned pool with backoff, degrades to
        :meth:`_shard_fallback` after ``max_retries``, and disables
        sharding entirely after ``disable_after`` consecutive degraded
        generations — the generation always completes, bit-identically.
        """
        if self._supervisor is None:
            self._supervisor = ShardSupervisor(
                self._make_pool,
                _worker_evaluate,
                self.supervisor_config,
            )
        supervisor = self._supervisor
        if supervisor.disabled:
            return self._fitness_for(genomes)
        shards = [
            shard
            for shard in (
                genomes[i :: self.workers] for i in range(self.workers)
            )
            if shard
        ]
        want_metrics = get_metrics() is not None
        generation = self._generation

        def build_task(index: int, attempt: int):
            site = f"gen={generation}|shard={index}|attempt={attempt}"
            return (shards[index], want_metrics, site)

        def fallback(index: int):
            return self._shard_fallback(
                shards[index], site=f"gen={generation}|shard={index}|fallback"
            )

        results = supervisor.run(
            len(shards),
            build_task,
            fallback,
            site_prefix=f"gen={generation}|",
        )
        merged: dict[int, tuple[float, int]] = {}
        payloads: list[dict] = []
        for shard_rows, shard_telemetry in results:
            for key, fitness, length in shard_rows:
                merged[key] = (fitness, length)
            payloads.append(shard_telemetry)
        self._merge_shard_telemetry(payloads)
        fitnesses = [merged[g.key][0] for g in genomes]
        lengths = [merged[g.key][1] for g in genomes]
        return fitnesses, lengths

    def _merge_shard_telemetry(self, payloads: list[dict]) -> None:
        """Fold worker-side telemetry into the parent's accumulators.

        Compile-cache deltas fold into :meth:`compile_cache_info`, and —
        when a metrics registry is installed — counters/histograms for
        the shard workload plus each worker's registry snapshot.

        The merge is *idempotent per site*: each payload carries the
        unique ``gen|shard|attempt`` site it was produced under, and a
        site is folded in at most once — a crashed-then-respawned
        worker's retry has a fresh attempt index, while any duplicate
        delivery of the same payload is dropped instead of double
        counting cache/metric deltas.

        Cache *sizes* (unlike deltas) are absolute snapshots, so they
        aggregate as the **sum over shard slots of each slot's most
        recent report** — never by folding payloads in arrival order,
        which would make the reported size jitter with delivery order.
        Fallback payloads (site ``...|fallback``) leave the slot's size
        untouched: degradation ran in-parent, so the dead worker's
        cache did not change.  Siteless legacy payloads share one
        anonymous slot.
        """
        registry = get_metrics()
        seen_sites: set[str] = set()
        for payload in payloads:
            site = payload.get("site") or ""
            if site:
                if site in seen_sites:
                    continue
                seen_sites.add(site)
            self._shard_compile["hits"] += payload["compile_delta"]["hits"]
            self._shard_compile["misses"] += payload["compile_delta"]["misses"]
            if not site or "attempt=" in site.split("|")[-1]:
                self._shard_compile_sizes[_shard_slot(site)] = payload[
                    "compile_size"
                ]
            if registry is not None:
                registry.counter("shard.evaluate_seconds").inc(
                    payload["seconds"]
                )
                registry.histogram("shard.genomes").observe(
                    payload["genomes"]
                )
                if payload.get("metrics"):
                    registry.merge_snapshot(payload["metrics"])



class INAXBackend(_CompileCacheOwner, EvaluationBackend):
    """HW/SW co-designed evaluation on a farm of INAX devices.

    Episodes run in lock-step across a wave of PUs: each synchronized
    device step infers every still-alive individual, then the CPU steps
    each individual's environment with the decoded action.  Early
    terminations drop out of subsequent steps (the §V-B2 idle-PU
    effect), and the device's cycle report reflects it.

    **Routing.** Every genome lowers through the backend's
    cross-generation :class:`~repro.compile.CompileCache`
    (``entry.hw_config``), and the dispatch loop below is the same on
    both routes; only where a wave-episode's outputs and cycles come
    from differs:

    * *clean runs* (no ``fault_plan``, the float64 datapath, dense
      timing) run every runnable genome's episodes once, up front, on
      the compiled engine — bit-exact with the device — and price each
      wave-episode with :meth:`INAX.price_wave`, which advances the
      device's report, prefetch window, timeline and trace spans exactly
      as stepping it would;
    * *data-dependent runs* — any ``fault_plan``, a quantized
      ``inax_config.datapath`` or ``skip_zero_activations`` — drive the
      stepwise device (the shared :func:`run_lockstep` loop with
      :meth:`INAX.step` as the inference function), which stays the
      oracle for chaos replay, quantized outputs and the fallback
      ladder.

    The backend owns ``devices`` INAX devices (:attr:`farm`; one by
    default — a single device is a farm of one):

    * waves are packed exactly as on one device (``pack_waves``), then
      LPT-assigned across the alive devices (:func:`~repro.inax.farm.
      assign_waves`);
    * every wave-episode dispatch is preceded by a
      :meth:`~repro.inax.farm.FabricSupervisor.probe`; a device that
      misses its heartbeats (or hard-faults mid-wave) is evicted and its
      remaining queue is deterministically re-packed onto the
      survivors;
    * the per-(genome, episode) seeding contract makes device placement
      invisible to fitness, so a fault-ridden run is *fitness-identical*
      to a clean run of the same seed — eviction and re-pack can only
      move cycles, never results.

    Devices run in parallel in the cycle domain, so the generation's
    wall-clock is the max over per-device report cycles plus heartbeat
    penalties; the critical-path device's report becomes the generation
    record's ``cycle_report``.
    """

    name = "inax"

    def __init__(
        self,
        env_name: str,
        neat_config: NEATConfig,
        inax_config: INAXConfig | None = None,
        episodes_per_genome: int = 1,
        base_seed: int = 0,
        env_kwargs: dict | None = None,
        oversize_policy: str = "raise",
        oversize_penalty: float = -1e9,
        fallback: str | None = None,
        fault_plan: FaultPlan | None = None,
        quarantine_penalty: float = DEFAULT_PENALTY,
        pipeline: PipelineConfig | None = None,
        devices: int = 1,
        supervisor: SupervisorConfig | None = None,
    ):
        """``oversize_policy`` decides what happens when an evolved
        genome no longer fits the PUs' weight/value buffers (a real
        failure mode once buffer capacities are finite): ``"raise"``
        aborts the run; ``"penalize"`` assigns ``oversize_penalty`` as
        the fitness without evaluating, so selection prunes oversized
        topologies — the resource pressure a deployed E3 would apply.

        ``fallback`` (``"cpu-compiled"`` or ``"cpu"``) arms graceful
        degradation: a wave that hits a device fault
        (:class:`DeviceFault`, :class:`BufferOverflowError`) on the last
        alive device re-runs on the bit-identical software path instead
        of aborting, and an oversized genome under
        ``oversize_policy="raise"`` is evaluated in software rather than
        killing the run.  :attr:`oversize_count` is cumulative over the
        run — :meth:`reset_run_state` zeroes it, so a pooled backend
        counts each job from 0 — and per-generation deltas come from
        successive reporter rows.

        ``devices`` sizes the farm; ``supervisor`` is the shared
        recovery policy (:class:`SupervisorConfig` — the same frozen
        config the shard supervisor reads, recorded in the run
        manifest)."""
        if oversize_policy not in ("raise", "penalize"):
            raise ValueError(
                f"unknown oversize_policy {oversize_policy!r}; "
                "use 'raise' or 'penalize'"
            )
        if fallback not in (None, "cpu-compiled", "cpu"):
            raise ValueError(
                f"unknown fallback {fallback!r}; use 'cpu-compiled', 'cpu', "
                "or None"
            )
        if devices < 1:
            raise ValueError(f"devices must be >= 1, got {devices}")
        inax_config = inax_config or INAXConfig()
        super().__init__(
            env_name,
            neat_config,
            episodes_per_genome=episodes_per_genome,
            base_seed=base_seed,
            inax_config=inax_config,
            env_kwargs=env_kwargs,
            fault_plan=fault_plan,
            quarantine_penalty=quarantine_penalty,
            pipeline=pipeline,
        )
        self.num_devices = devices
        #: the one rule for farm-only behaviour: device-namespaced fault
        #: sites (``dev=N|``) and trace tracks (``devN.``), the
        #: ``fabric.*`` heartbeat injector, ``fabric.evict_refused``
        #: records, the farm's reporter columns and gauges, and the
        #: ``fabric.assign``/``fabric.gen`` trace markers all exist only
        #: when this is set — so a one-device run is exactly the single
        #: INAX device, fault sites and trace included
        self.is_farm = devices > 1
        # one INAX per device, each with its own injector namespace —
        # two devices probing the same (wave, step) site must draw
        # independently, and their span tracks must stay distinct
        self.farm: list[INAX] = []
        for index in range(devices):
            prefix = f"dev={index}|" if self.is_farm else ""
            injector = (
                DeviceFaultInjector(fault_plan, site_prefix=prefix)
                if fault_plan is not None and has_device_faults(fault_plan)
                else None
            )
            device = INAX(inax_config, fault_injector=injector)
            device.track_prefix = f"dev{index}." if self.is_farm else ""
            self.farm.append(device)
        self.supervisor_config = (
            supervisor if supervisor is not None else SupervisorConfig()
        )
        heartbeat = (
            DeviceFaultInjector(fault_plan)
            if self.is_farm and has_fabric_faults(fault_plan)
            else None
        )
        #: per-device health (heartbeats, eviction, re-admission)
        self.fabric = FabricSupervisor(
            devices, config=self.supervisor_config, injector=heartbeat
        )
        #: last generation's farm wall-clock (max device cycles +
        #: heartbeat penalties)
        self.last_wall_cycles = 0.0
        self.last_device_walls: dict[int, float] = {}
        self.oversize_policy = oversize_policy
        self.oversize_penalty = oversize_penalty
        self.oversize_count = 0
        self.fallback = fallback
        self.fallback_waves = 0
        self.fallback_genomes = 0
        self._compile_cache = CompileCache(_COMPILE_CACHE_SIZE)

    def reset_run_state(self, base_seed: int | None = None) -> None:
        super().reset_run_state(base_seed=base_seed)
        self._restart_compile_counters()
        # the devices carry no cross-generation run state (their reports
        # reset per generation); the farm's health history, walls and
        # the gate/fallback tallies do
        self.fabric = FabricSupervisor(
            self.num_devices,
            config=self.supervisor_config,
            injector=self.fabric.injector,
        )
        self.last_wall_cycles = 0.0
        self.last_device_walls = {}
        self.oversize_count = 0
        self.fallback_waves = 0
        self.fallback_genomes = 0

    def _fits_buffers(self, config: HWNetConfig) -> bool:
        limits = self.inax_config
        if (
            limits.weight_buffer_capacity is not None
            and config.weight_buffer_words > limits.weight_buffer_capacity
        ):
            return False
        if (
            limits.value_buffer_capacity is not None
            and config.value_buffer_words > limits.value_buffer_capacity
        ):
            return False
        return True

    def _gate_oversize(
        self, genomes: list[Genome]
    ) -> tuple[list[Genome], list[CompiledStructure], list[HWNetConfig]]:
        """Lower every genome and apply the buffer-capacity gate (§IV-D).

        Returns the runnable subset as (genomes, compiled shapes, HW
        configs); oversized genomes are resolved here (software fallback
        or penalty) per ``oversize_policy``.
        """
        with _span("compile.lookup", genomes=len(genomes)):
            all_entries = [
                self._compile_cache.get(g, self.neat_config) for g in genomes
            ]
        runnable: list[Genome] = []
        entries: list[CompiledStructure] = []
        configs: list[HWNetConfig] = []
        for genome, entry in zip(genomes, all_entries):
            config = entry.hw_config(genome)
            if self._fits_buffers(config):
                runnable.append(genome)
                entries.append(entry)
                configs.append(config)
                continue
            site = f"gen={self._generation}|genome={genome.key}"
            if self.oversize_policy == "raise" and self.fallback is None:
                raise BufferOverflowError(
                    f"genome {genome.key} needs {config.weight_buffer_words} "
                    "weight-buffer words; raise the capacity or use "
                    "oversize_policy='penalize'"
                )
            self.oversize_count += 1
            self._publish_oversize()
            if self.oversize_policy == "raise":
                # degradation ladder: an unrunnable genome evaluates in
                # software instead of aborting the whole run
                episodes = self.episodes_per_genome
                (records,) = self._fallback_records([genome], range(episodes))
                genome.fitness = _totals(records)[0] / episodes
                self.fallback_genomes += 1
                self._event(
                    "fallback.oversize", site,
                    weight_words=config.weight_buffer_words,
                )
            else:
                genome.fitness = self.oversize_penalty
                self._event(
                    "inax.oversize", site,
                    penalty=self.oversize_penalty,
                )
        return runnable, entries, configs

    def _stepwise(self) -> bool:
        """Whether this run must drive the stepwise device.

        Outputs or cycles depend on data under injected faults, a
        quantized datapath and zero-skipping; on every other run the
        outputs equal the compiled engine's and the cycles the analytic
        schedule's.
        """
        hw = self.inax_config
        return (
            self.fault_plan is not None
            or hw.datapath is not None
            or hw.skip_zero_activations
        )

    def _evaluate(self, genomes: list[Genome]) -> None:
        assert self.inax_config is not None
        generation = self._generation
        sup = self.fabric
        sup.begin_generation(generation)
        # buffer-capacity gate (§IV-D: finite weight/value buffers)
        runnable, entries, configs = self._gate_oversize(genomes)
        # a clean run computes every episode once, up front; the
        # dispatch below then only prices each wave-episode
        outputs = (
            None
            if self._stepwise()
            else self._compiled_records(
                runnable, entries, range(self.episodes_per_genome)
            )
        )

        lengths = [0] * len(runnable)
        rewards = [0.0] * len(runnable)
        keys = [g.key for g in runnable]
        num_pus = self.inax_config.num_pus

        # wave packing happens *before* evaluation, off last-generation
        # episode lengths — exactly what the analytic scheduler replays
        with _span("inax.pack", genomes=len(runnable)):
            predicted = self._predict_costs(configs, keys)
            waves = pack_waves(
                predicted
                if predicted is not None
                else [None] * len(runnable),
                num_pus,
                self.pipeline.schedule,
            )
        # without predictions (arrival schedule, or a cold first LPT
        # generation) every wave prices as one unit, so LPT assignment
        # degrades to balanced wave *counts* instead of piling the whole
        # generation onto device 0
        wave_costs = [
            max((predicted[i] or 1.0) for i in indices)
            if predicted is not None
            else 1.0
            for indices in waves
        ]
        for device in self.farm:
            device.reset_report()

        queues: dict[int, deque] = {}
        if waves:
            with (
                _span(
                    "fabric.assign", waves=len(waves), devices=len(sup.alive())
                )
                if self.is_farm
                else nullcontext()
            ):
                assignment = assign_waves(wave_costs, sup.alive())
            queues = {
                device: deque((ordinal, 0) for ordinal in ordinals)
                for device, ordinals in assignment.items()
            }
        dispatched = {device: 0 for device in range(self.num_devices)}

        # drain device queues; an eviction re-packs (and may refill an
        # already-passed device's queue), so the outer loop re-scans
        # until every queue is dry
        while any(queues.values()):
            for device in sorted(queues):
                queue = queues[device]
                while queue:
                    ordinal, start_episode = queue[0]
                    indices = waves[ordinal]
                    done = self._dispatch_wave(
                        generation,
                        device,
                        indices,
                        [runnable[i] for i in indices],
                        [configs[i] for i in indices],
                        start_episode,
                        lengths,
                        rewards,
                        dispatched,
                        queue,
                        outputs,
                    )
                    if not done:
                        self._repack(generation, device, queues, wave_costs)
                        break
                    queue.popleft()

        for genome, reward in zip(runnable, rewards):
            genome.fitness = reward / self.episodes_per_genome
        record = self._record(
            configs,
            lengths,
            keys=keys,
            predicted_costs=predicted,
            analytic=False,
        )
        # the functional devices' own report supersedes the analytic one
        record.cycle_report = self._finish_generation(generation)
        self._publish_cycle_gauges(record.cycle_report)

    def _dispatch_wave(
        self,
        generation: int,
        device: int,
        indices: list[int],
        wave_genomes: list[Genome],
        wave_configs: list[HWNetConfig],
        start_episode: int,
        lengths: list[int],
        rewards: list[float],
        dispatched: dict[int, int],
        queue: deque,
        outputs: list[list[EpisodeRecord]] | None,
    ) -> bool:
        """Run one queued wave's remaining episodes on ``device``.

        ``indices`` maps wave slot -> population index, so any packing
        order lands results on the right individual.  ``outputs`` holds
        every runnable genome's precomputed episode records on a clean
        run, where the device only prices the wave; ``None`` makes the
        stepwise device produce them.  Returns True when
        the wave completed; False when the device was evicted mid-wave
        — the queue's head entry is rewound to the first unfinished
        episode so the re-pack resumes exactly there.
        """
        for episode in range(start_episode, self.episodes_per_genome):
            if not self.fabric.probe(generation, device):
                queue[0] = (queue[0][0], episode)
                return False
            prefetched = self.pipeline.prefetch and dispatched[device] > 0
            try:
                records = self._device_wave_episode(
                    self.farm[device],
                    wave_genomes,
                    wave_configs,
                    episode,
                    prefetched=prefetched,
                    outputs=(
                        None
                        if outputs is None
                        else [outputs[i][episode] for i in indices]
                    ),
                )
            except (DeviceFault, BufferOverflowError) as error:
                self.farm[device].abort_wave()
                if self.is_farm and self.fabric.fail(
                    generation, device, type(error).__name__
                ):
                    queue[0] = (queue[0][0], episode)
                    return False
                # a lone device (or an eviction refused because it is
                # the last alive one) degrades to the software ladder
                if self.fallback is None:
                    raise
                self.fallback_waves += 1
                self.fallback_genomes += len(wave_genomes)
                self._event(
                    "fallback.wave",
                    f"gen={generation}|offset={indices[0]}|episode={episode}",
                    error=type(error).__name__,
                    genomes=len(wave_genomes),
                )
                records = self._fallback_wave_episode(wave_genomes, episode)
            dispatched[device] += 1
            for slot, record in enumerate(records):
                rewards[indices[slot]] += record.total_reward
                lengths[indices[slot]] += record.steps
        return True

    def _repack(
        self,
        generation: int,
        device: int,
        queues: dict[int, deque],
        wave_costs: list[float],
    ) -> None:
        """Move an evicted device's queue onto the survivors (LPT).

        Load is measured over *remaining* queued work only — already-
        evaluated waves are sunk cost; the result is still a pure
        function of (plan, topology) because everything upstream is.
        """
        orphans = list(queues[device])
        queues[device].clear()
        if not orphans:
            return
        survivors = self.fabric.alive()
        load = {
            s: sum(wave_costs[ordinal] for ordinal, _ in queues.get(s, ()))
            for s in survivors
        }
        for entry in sorted(
            orphans, key=lambda e: (-wave_costs[e[0]], e[0])
        ):
            target = min(survivors, key=lambda s: (load[s], s))
            queues.setdefault(target, deque()).append(entry)
            load[target] += wave_costs[entry[0]]
        self.fabric.repacked_waves += len(orphans)
        self._event(
            "fabric.repack",
            f"gen={generation}|device={device}",
            waves=len(orphans),
            survivors=len(survivors),
        )

    def _finish_generation(self, generation: int) -> CycleReport:
        """Close the generation: walls, farm gauges, ``fabric.gen``.

        Returns the critical-path device's cycle report (the farm's
        wall-clock determinant) for the generation record.
        """
        sup = self.fabric
        walls = {
            d: self.farm[d].report.total_cycles + sup.penalty_cycles(d)
            for d in range(self.num_devices)
        }
        critical = max(range(self.num_devices), key=lambda d: (walls[d], -d))
        self.last_wall_cycles = float(walls[critical])
        self.last_device_walls = {d: float(w) for d, w in walls.items()}
        if self.is_farm:
            counters = sup.counters()
            registry = get_metrics()
            if registry is not None:
                registry.gauge("fabric.wall_cycles").set(
                    self.last_wall_cycles
                )
                for name, value in counters.items():
                    registry.gauge(f"fabric.{name}").set(value)
            tracer = get_tracer()
            if tracer is not None:
                tracer.add_span(
                    "fabric.gen",
                    start=tracer.now(),
                    duration=0.0,
                    site=f"gen={generation}",
                    generation=generation,
                    wall_cycles=self.last_wall_cycles,
                    **counters,
                )
        return self.farm[critical].report

    def _publish_cycle_gauges(self, report) -> None:
        """Per-generation pipeline gauges (watchtower detector inputs)."""
        registry = get_metrics()
        if registry is None:
            return
        registry.gauge("inax.wave_occupancy").set(report.packing_efficiency)
        registry.gauge("inax.waves").set(float(report.waves))
        registry.gauge("inax.setup_cycles").set(report.setup_cycles)
        registry.gauge("inax.prefetch_hidden_cycles").set(
            report.prefetch_hidden_cycles
        )

    def _publish_oversize(self) -> None:
        registry = get_metrics()
        if registry is not None:
            registry.counter("inax.oversize.count").inc()

    def farm_counters(self) -> dict[str, float]:
        """The supervisor's cumulative farm counters (reporter columns,
        ``fabric.*`` gauges); empty on a single device."""
        return self.fabric.counters() if self.is_farm else {}

    def reporter_columns(self) -> dict[str, float]:
        columns = super().reporter_columns()
        columns["oversize"] = float(self.oversize_count)
        # count-based wave occupancy of the generation just evaluated,
        # farm-wide — the knob the LPT packer moves (every device report
        # was reset at the top of this generation's _evaluate)
        columns["pack_eff"] = utilization(
            sum(device.report.live_slot_steps for device in self.farm),
            sum(device.report.slot_steps_provisioned for device in self.farm),
        )
        if self.fallback is not None:
            columns["fallback_waves"] = float(self.fallback_waves)
        columns.update(self.farm_counters())
        return columns

    def resilience_log(self) -> list[dict]:
        """Backend + farm supervisor + plan events (replay identity)."""
        events = [event.to_dict() for event in self.resilience_events]
        events.extend(event.to_dict() for event in self.fabric.events)
        if self.fault_plan is not None:
            events.extend(self.fault_plan.event_log())
        return events

    def _fallback_records(
        self, genomes: list[Genome], episodes: Sequence[int]
    ) -> list[list[EpisodeRecord]]:
        """Run ``episodes`` of ``genomes`` on the armed software rung.

        Fresh envs + the same per-(genome, episode) seeds make this
        bit-identical to what the device would have produced (the
        backend-parity contract), no matter how far a faulted wave
        got.  ``fallback="cpu-compiled"`` runs the compiled engine
        ``cpu-compiled`` evaluates with; ``fallback="cpu"`` the
        interpreted per-node path.
        """
        if self.fallback == "cpu-compiled":
            entries = [
                self._compile_cache.get(g, self.neat_config) for g in genomes
            ]
            return self._compiled_records(genomes, entries, episodes)
        return self._interpreted_records(genomes, episodes)

    def _fallback_wave_episode(self, genomes: list[Genome], episode: int):
        """Re-run one faulted wave's episode on the software rung."""
        return [
            records[0]
            for records in self._fallback_records(genomes, [episode])
        ]

    def _device_wave_episode(
        self,
        device: INAX,
        genomes: list[Genome],
        configs: list[HWNetConfig],
        episode: int,
        prefetched: bool = False,
        outputs: list[EpisodeRecord] | None = None,
    ):
        """One wave's episode on one device; raises on device faults.

        Precomputed ``outputs`` are returned as they are, after the
        device prices the wave from their episode lengths.  Otherwise
        the device steps the episode itself; the fresh-env +
        per-(genome, episode) seed discipline lives here, so any farm
        device produces bit-identical episode records for the same wave.
        """
        if outputs is not None:
            device.price_wave(
                configs,
                [record.steps for record in outputs],
                prefetched=prefetched,
            )
            return outputs
        device.begin_wave(configs, prefetched=prefetched)
        envs = [self._make_env() for _ in genomes]
        seeds = [self._episode_seed(genome, episode) for genome in genomes]
        episode_records = run_lockstep(envs, device.step, seeds=seeds)
        device.end_wave()
        return episode_records


#: CLI/platform name -> backend class; :func:`build_backend` is the only
#: reader.
BACKENDS: dict[str, type[EvaluationBackend]] = {
    "cpu": CPUBackend,
    "cpu-compiled": CompiledCPUBackend,
    "gpu": GPUBackend,
    "inax": INAXBackend,
}

#: constructor kwargs a backend takes beyond the ones every backend does
_EXTRA_KWARGS: dict[str, tuple[str, ...]] = {
    "cpu-compiled": ("workers", "supervisor"),
    "inax": ("fallback", "devices", "supervisor"),
}


def default_inax_config(num_outputs: int, num_pus: int = 50) -> INAXConfig:
    """The paper's §VI-C configuration: PU=50, PE=#output nodes."""
    return INAXConfig(
        num_pus=num_pus, num_pes_per_pu=choose_num_pes(num_outputs)
    )


def build_backend(
    name: str,
    env_name: str,
    neat_config: NEATConfig,
    *,
    episodes_per_genome: int = 1,
    base_seed: int = 0,
    inax_config: INAXConfig | None = None,
    env_kwargs: dict | None = None,
    workers: int = 0,
    devices: int = 1,
    fault_plan: FaultPlan | None = None,
    fallback: str | None = None,
    supervisor: SupervisorConfig | None = None,
    pipeline: PipelineConfig | None = None,
) -> EvaluationBackend:
    """Construct the backend called ``name`` — the one construction path.

    Every backend gets the same INAX configuration rule (the explicit
    ``inax_config``, else :func:`default_inax_config` for the config's
    output count), so software backends price the same cycles a device
    run reports, and a pooled, resumed or island backend matches a
    fresh ``E3`` one.  ``workers`` and ``supervisor`` reach only the
    backends that shard or supervise; ``fallback`` and ``devices`` only
    the device backend, and a software backend asked for more than one
    device is rejected — it has no devices to spread over.  Fewer than
    one device is rejected for every backend.
    """
    if name not in BACKENDS:
        names = ", ".join(repr(n) for n in sorted(BACKENDS))
        raise ValueError(f"unknown backend {name!r}; use one of {names}")
    extra = _EXTRA_KWARGS.get(name, ())
    if devices < 1:
        raise ValueError(f"devices must be >= 1, got {devices}")
    if devices > 1 and "devices" not in extra:
        raise ValueError(
            f"devices={devices} needs the inax backend, not {name!r}"
        )
    if inax_config is None:
        inax_config = default_inax_config(neat_config.num_outputs)
    options = {
        "workers": workers,
        "devices": devices,
        "fallback": fallback,
        "supervisor": supervisor,
    }
    kwargs = {key: options[key] for key in extra}
    return BACKENDS[name](
        env_name,
        neat_config,
        episodes_per_genome=episodes_per_genome,
        base_seed=base_seed,
        inax_config=inax_config,
        env_kwargs=env_kwargs,
        fault_plan=fault_plan,
        pipeline=pipeline,
        **kwargs,
    )
