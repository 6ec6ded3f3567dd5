"""The determinism-under-concurrency contract (ISSUE 10 acceptance).

Two interleaved seeded runs — on threads and through the asyncio
service — must be fitness bit-identical to the same runs executed
sequentially, and each job's trace must contain only its own spans.
These tests are what the contextvars telemetry refactor, the
per-instance worker state, and the stateless serve layer exist for.
"""

import asyncio
import threading

from repro.core.platform import E3
from repro.neat.config import NEATConfig
from repro.serve import EvolutionService, JobSpec
from repro.telemetry import TelemetrySession

CONFIG = NEATConfig(population_size=8)
GENERATIONS = 3


def run_history(seed: int, backend: str = "cpu-compiled",
                population_size: int = 8,
                session: TelemetrySession | None = None) -> list[float]:
    result = E3(
        "cartpole",
        backend=backend,
        neat_config=NEATConfig(population_size=population_size),
        seed=seed,
        telemetry=session,
    ).run(max_generations=GENERATIONS)
    return [stats.best_fitness for stats in result.history]


class TestInterleavedThreads:
    def test_threaded_runs_bit_identical_to_sequential(self):
        sequential = {seed: run_history(seed) for seed in (1, 2, 3, 4)}
        results: dict[int, list[float]] = {}
        barrier = threading.Barrier(4)

        def worker(seed: int) -> None:
            barrier.wait()  # maximize interleaving: all start together
            results[seed] = run_history(seed)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in (1, 2, 3, 4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == sequential

    def test_same_seed_twice_concurrently(self):
        # the hardest aliasing case: identical jobs racing each other
        expected = run_history(7)
        results: list[list[float]] = [[], []]
        barrier = threading.Barrier(2)

        def worker(slot: int) -> None:
            barrier.wait()
            results[slot] = run_history(7)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results[0] == expected
        assert results[1] == expected


class TestInterleavedService:
    def test_service_runs_bit_identical_to_solo_runs(self, tmp_path):
        solo = {seed: run_history(seed) for seed in (5, 6, 7)}

        async def scenario():
            service = EvolutionService(max_concurrent=3, data_dir=tmp_path)
            await service.start()
            ids = {
                seed: await service.submit(
                    JobSpec(env="cartpole", population_size=8,
                            generations=GENERATIONS, seed=seed,
                            backend="cpu-compiled")
                )
                for seed in (5, 6, 7)
            }
            for job_id in ids.values():
                await service.wait(job_id)
            histories = {
                seed: service.jobs[job_id].history
                for seed, job_id in ids.items()
            }
            await service.shutdown()
            return histories

        assert asyncio.run(scenario()) == solo


class TestTraceIsolation:
    def test_concurrent_sessions_capture_only_their_own_spans(self):
        # population sizes discriminate the jobs: every backend.evaluate
        # span records how many genomes it evaluated
        sizes = {0: 8, 1: 12}
        sessions = {slot: TelemetrySession() for slot in sizes}
        barrier = threading.Barrier(2)

        def worker(slot: int) -> None:
            barrier.wait()
            run_history(
                seed=slot,
                population_size=sizes[slot],
                session=sessions[slot],
            )

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for slot, session in sessions.items():
            evaluates = [
                span for span in session.tracer.spans
                if span.name == "backend.evaluate"
            ]
            assert len(evaluates) == GENERATIONS
            assert all(
                span.attrs["genomes"] == sizes[slot] for span in evaluates
            ), f"slot {slot} trace contains another job's spans"

    def test_service_traced_jobs_are_isolated(self, tmp_path):
        from repro.telemetry import read_trace_jsonl

        async def scenario():
            service = EvolutionService(max_concurrent=2, data_dir=tmp_path)
            await service.start()
            ids = [
                await service.submit(
                    JobSpec(env="cartpole", population_size=size,
                            generations=GENERATIONS, seed=9, trace=True)
                )
                for size in (8, 12)
            ]
            statuses = [await service.wait(job_id) for job_id in ids]
            await service.shutdown()
            return statuses

        statuses = asyncio.run(scenario())
        for status, size in zip(statuses, (8, 12)):
            rows = read_trace_jsonl(status["trace_path"])
            evaluates = [
                row for row in rows
                if row.get("type") == "span"
                and row.get("name") == "backend.evaluate"
            ]
            assert len(evaluates) == GENERATIONS
            assert all(
                row["attrs"]["genomes"] == size for row in evaluates
            ), "a job's exported trace leaked another job's spans"
