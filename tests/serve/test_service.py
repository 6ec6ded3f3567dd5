"""EvolutionService: submit/status/stream/cancel/resume lifecycle."""

import asyncio

import pytest

from repro.neat.checkpoint import load_checkpoint
from repro.serve import (
    AdmissionError,
    EvolutionService,
    JobSpec,
    QuotaConfig,
)

SMALL = dict(env="cartpole", population_size=8, generations=3,
             backend="cpu-compiled")


def run_async(coro):
    return asyncio.run(coro)


class TestLifecycle:
    def test_submit_runs_to_completion(self, tmp_path):
        async def scenario():
            service = EvolutionService(max_concurrent=2, data_dir=tmp_path)
            await service.start()
            job_id = await service.submit(JobSpec(**SMALL, seed=5))
            status = await service.wait(job_id)
            await service.shutdown()
            return status

        status = run_async(scenario())
        assert status["state"] == "completed"
        assert status["generations_done"] >= 1
        assert status["best_fitness"] is not None
        assert status["latency_seconds"] > 0
        assert status["checkpoint_path"] is not None

    def test_deterministic_job_ids(self, tmp_path):
        async def scenario():
            service = EvolutionService(max_concurrent=1, data_dir=tmp_path)
            await service.start()
            ids = [
                await service.submit(JobSpec(**SMALL, seed=i))
                for i in range(3)
            ]
            for job_id in ids:
                await service.wait(job_id)
            await service.shutdown()
            return ids

        assert run_async(scenario()) == [
            "job-00000", "job-00001", "job-00002"
        ]

    def test_stream_replays_then_follows(self, tmp_path):
        async def scenario():
            service = EvolutionService(max_concurrent=1, data_dir=tmp_path)
            await service.start()
            job_id = await service.submit(JobSpec(**SMALL, seed=1))
            await service.wait(job_id)
            # subscribe *after* completion: pure replay
            events = [e async for e in service.stream(job_id)]
            await service.shutdown()
            return events

        events = run_async(scenario())
        kinds = [e["event"] for e in events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "done"
        assert kinds.count("generation") >= 1
        generations = [e for e in events if e["event"] == "generation"]
        assert all("best_fitness" in e for e in generations)

    def test_admission_error_surfaces_and_records_nothing(self, tmp_path):
        async def scenario():
            service = EvolutionService(
                max_concurrent=1,
                quotas=QuotaConfig(max_population=8),
                data_dir=tmp_path,
            )
            await service.start()
            with pytest.raises(AdmissionError):
                await service.submit(
                    JobSpec(env="cartpole", population_size=64)
                )
            jobs = service.list_jobs()
            await service.shutdown()
            return jobs

        assert run_async(scenario()) == []

    def test_invalid_spec_rejected(self, tmp_path):
        async def scenario():
            service = EvolutionService(max_concurrent=1)
            await service.start()
            with pytest.raises(ValueError):
                await service.submit(JobSpec(env="not-an-env"))
            await service.shutdown()

        run_async(scenario())


class TestCancel:
    def test_cancel_queued_job(self, tmp_path):
        async def scenario():
            service = EvolutionService(max_concurrent=1, data_dir=tmp_path)
            await service.start()
            # a long-ish job occupies the only slot...
            runner = await service.submit(
                JobSpec(env="cartpole", population_size=8, generations=6)
            )
            # ...so this one stays queued long enough to cancel
            victim = await service.submit(JobSpec(**SMALL))
            status = await service.cancel(victim)
            assert status["state"] == "cancelled"
            final = await service.wait(victim)
            await service.wait(runner)
            await service.shutdown()
            return final

        final = run_async(scenario())
        assert final["state"] == "cancelled"
        assert final["generations_done"] == 0

    def test_cancel_running_leaves_loadable_checkpoint(self, tmp_path):
        async def scenario():
            service = EvolutionService(max_concurrent=1, data_dir=tmp_path)
            await service.start()
            # this seeded MountainCar run stays at -200 for all 50
            # generations, so it cannot finish before the cancel lands
            job_id = await service.submit(
                JobSpec(env="mountain_car", population_size=8,
                        generations=50, seed=2)
            )
            # wait until it is genuinely mid-run (first generation done)
            async for event in service.stream(job_id):
                if event["event"] == "generation":
                    break
            await service.cancel(job_id)
            final = await service.wait(job_id)
            await service.shutdown()
            return final

        final = run_async(scenario())
        assert final["state"] == "cancelled"
        assert 1 <= final["generations_done"] < 50
        # the cancel checkpoint is complete and loadable
        restored = load_checkpoint(final["checkpoint_path"])
        assert restored.generation == final["generations_done"]


class TestResume:
    def test_resume_continues_from_checkpoint(self, tmp_path):
        async def scenario():
            service = EvolutionService(max_concurrent=1, data_dir=tmp_path)
            await service.start()
            first = await service.submit(JobSpec(**SMALL, seed=4))
            first_status = await service.wait(first)
            resumed = await service.submit(
                JobSpec(**SMALL, seed=4,
                        resume_from=first_status["checkpoint_path"])
            )
            resumed_status = await service.wait(resumed)
            await service.shutdown()
            return first_status, resumed_status

        first, resumed = run_async(scenario())
        assert first["state"] == "completed"
        assert resumed["state"] == "completed"
        # generation counter carries across the resume boundary
        assert resumed["generations_done"] > first["generations_done"]

    def test_resume_missing_checkpoint_rejected(self, tmp_path):
        async def scenario():
            service = EvolutionService(max_concurrent=1)
            await service.start()
            with pytest.raises(ValueError, match="resume_from"):
                await service.submit(
                    JobSpec(**SMALL, resume_from=str(tmp_path / "no.json"))
                )
            await service.shutdown()

        run_async(scenario())


class TestShutdown:
    def test_drain_shutdown_cancels_queued_finishes_running(self, tmp_path):
        async def scenario():
            service = EvolutionService(max_concurrent=1, data_dir=tmp_path)
            await service.start()
            running = await service.submit(JobSpec(**SMALL, seed=1))
            queued = await service.submit(JobSpec(**SMALL, seed=2))
            await service.shutdown(drain=True)
            return service.status(running), service.status(queued)

        running, queued = run_async(scenario())
        assert running["state"] in ("completed", "cancelled")
        assert queued["state"] == "cancelled"

    def test_submit_after_shutdown_refused(self):
        async def scenario():
            service = EvolutionService(max_concurrent=1)
            await service.start()
            await service.shutdown()
            with pytest.raises(RuntimeError, match="shut down"):
                await service.submit(JobSpec(**SMALL))

        run_async(scenario())

    def test_stats_shape(self, tmp_path):
        async def scenario():
            service = EvolutionService(max_concurrent=2, data_dir=tmp_path)
            await service.start()
            job_id = await service.submit(JobSpec(**SMALL))
            await service.wait(job_id)
            stats = service.stats()
            await service.shutdown()
            return stats

        stats = run_async(scenario())
        assert stats["jobs"] == {"completed": 1}
        assert set(stats["latency_seconds"]) == {"p50", "p95", "p99"}
        assert stats["pool"]["created"] == 1
