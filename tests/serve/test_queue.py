"""JobQueue ordering, admission control, and per-tenant quotas."""

import pytest

from repro.serve.jobs import Job, JobSpec
from repro.serve.queue import AdmissionError, JobQueue, QuotaConfig


def make_job(job_id: str, tenant: str = "t0", priority: int = 0,
             **spec_kwargs) -> Job:
    return Job(
        id=job_id,
        spec=JobSpec(**spec_kwargs),
        tenant=tenant,
        priority=priority,
    )


class TestOrdering:
    def test_fifo_within_priority(self):
        queue = JobQueue()
        for i in range(4):
            queue.submit(make_job(f"job-{i}"))
        popped = [queue.pop_eligible({}).id for _ in range(4)]
        assert popped == ["job-0", "job-1", "job-2", "job-3"]

    def test_higher_priority_first(self):
        queue = JobQueue()
        queue.submit(make_job("low", priority=0))
        queue.submit(make_job("high", priority=5))
        queue.submit(make_job("mid", priority=3))
        popped = [queue.pop_eligible({}).id for _ in range(3)]
        assert popped == ["high", "mid", "low"]

    def test_pop_empty_returns_none(self):
        assert JobQueue().pop_eligible({}) is None

    def test_remove_withdraws_queued_job(self):
        queue = JobQueue()
        keep, drop = make_job("keep"), make_job("drop")
        queue.submit(keep)
        queue.submit(drop)
        assert queue.remove(drop)
        assert not queue.remove(drop)  # already gone
        assert queue.pop_eligible({}) is keep
        assert queue.pop_eligible({}) is None


class TestAdmission:
    def test_queue_depth_cap(self):
        queue = JobQueue(QuotaConfig(max_queue_depth=2))
        queue.submit(make_job("a"))
        queue.submit(make_job("b"))
        with pytest.raises(AdmissionError, match="queue full"):
            queue.submit(make_job("c"))

    def test_per_tenant_queued_cap(self):
        queue = JobQueue(QuotaConfig(max_queued_per_tenant=1))
        queue.submit(make_job("a", tenant="greedy"))
        with pytest.raises(AdmissionError, match="greedy"):
            queue.submit(make_job("b", tenant="greedy"))
        # other tenants are unaffected
        queue.submit(make_job("c", tenant="polite"))

    def test_spec_ceilings(self):
        queue = JobQueue(
            QuotaConfig(max_population=16, max_generations=10, max_workers=0)
        )
        with pytest.raises(AdmissionError, match="population_size"):
            queue.submit(make_job("a", population_size=32))
        with pytest.raises(AdmissionError, match="generations"):
            queue.submit(make_job("b", population_size=8, generations=100))
        with pytest.raises(AdmissionError, match="workers"):
            queue.submit(make_job("c", population_size=8, workers=2))
        # a refused job never entered the queue
        assert len(queue) == 0


class TestDispatchQuota:
    def test_saturated_tenant_skipped_without_losing_order(self):
        queue = JobQueue(QuotaConfig(max_running_per_tenant=1))
        queue.submit(make_job("g1", tenant="greedy", priority=9))
        queue.submit(make_job("g2", tenant="greedy", priority=9))
        queue.submit(make_job("p1", tenant="polite"))
        # greedy already runs one job: its high-priority entries are
        # skipped, polite dispatches instead
        job = queue.pop_eligible({"greedy": 1})
        assert job.id == "p1"
        # once greedy frees up, its jobs come back in FIFO order
        assert queue.pop_eligible({}).id == "g1"
        assert queue.pop_eligible({}).id == "g2"

    def test_all_tenants_saturated(self):
        queue = JobQueue(QuotaConfig(max_running_per_tenant=1))
        queue.submit(make_job("a", tenant="t0"))
        assert queue.pop_eligible({"t0": 1}) is None
        assert len(queue) == 1  # still queued, nothing lost


class TestSpecValidation:
    def test_unknown_env(self):
        with pytest.raises(ValueError):
            JobSpec(env="nope").validate()

    def test_unknown_backend(self):
        # "fabric" too: the device farm is the inax backend
        for name in ("tpu", "fabric"):
            with pytest.raises(ValueError, match=f"unknown backend '{name}'"):
                JobSpec(backend=name).validate()

    def test_bad_numbers(self):
        with pytest.raises(ValueError):
            JobSpec(population_size=1).validate()
        with pytest.raises(ValueError):
            JobSpec(generations=0).validate()
        with pytest.raises(ValueError):
            JobSpec(workers=-1).validate()

    def test_round_trips_through_dict(self):
        spec = JobSpec(env="acrobot", seed=7, trace=True)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown JobSpec fields"):
            JobSpec.from_dict({"env": "cartpole", "gpu_count": 8})
