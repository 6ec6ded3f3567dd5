"""Serve bench: tail latency under a 100+ job concurrent burst.

Submits ``NUM_JOBS`` small seeded runs (cartpole, population 8, one
generation, checkpointing off) to a live :class:`EvolutionService` in
one burst, waits for the queue to drain, and reports submit-to-complete
latency percentiles plus sustained throughput.  The measured series
lands in ``benchmarks/output/BENCH_serve.json`` and the p95 /
throughput pair is gated by ``repro bench-diff`` via the curated
``serve`` metric specs.
"""

import asyncio
import json
import time

from benchmarks.conftest import OUTPUT_DIR, write_output
from repro.serve import EvolutionService, JobSpec, QuotaConfig
from repro.serve.service import percentiles

NUM_JOBS = 120
MAX_CONCURRENT = 4


def _spec(seed: int) -> JobSpec:
    return JobSpec(
        env="cartpole",
        backend="cpu-compiled",
        population_size=8,
        generations=1,
        seed=seed,
        checkpoint=False,
    )


async def _burst(tmp_path) -> dict:
    quotas = QuotaConfig(
        max_queue_depth=NUM_JOBS * 2,
        max_queued_per_tenant=NUM_JOBS * 2,
        max_running_per_tenant=MAX_CONCURRENT,
    )
    service = EvolutionService(
        max_concurrent=MAX_CONCURRENT, quotas=quotas, data_dir=tmp_path
    )
    await service.start()
    wall_start = time.perf_counter()
    ids = [
        await service.submit(_spec(seed=i), tenant=f"t{i % 4}")
        for i in range(NUM_JOBS)
    ]
    statuses = [await service.wait(job_id) for job_id in ids]
    wall = time.perf_counter() - wall_start
    stats = service.stats()
    await service.shutdown()

    latencies = [s["latency_seconds"] for s in statuses]
    tails = percentiles(latencies)
    return {
        "jobs": NUM_JOBS,
        "max_concurrent": MAX_CONCURRENT,
        "completed": sum(
            1 for s in statuses if s["state"] == "completed"
        ),
        "wall_seconds": round(wall, 4),
        "throughput_jobs_per_second": round(NUM_JOBS / wall, 4),
        "p50_seconds": round(tails["p50"], 4),
        "p95_seconds": round(tails["p95"], 4),
        "p99_seconds": round(tails["p99"], 4),
        "pool": stats["pool"],
    }


def test_serve_tail_latency(tmp_path):
    payload = asyncio.run(_burst(tmp_path))

    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / "BENCH_serve.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    write_output(
        "BENCH_serve",
        (
            f"serve burst: {payload['jobs']} jobs @ "
            f"{payload['max_concurrent']} slots | "
            f"p50 {payload['p50_seconds']}s "
            f"p95 {payload['p95_seconds']}s "
            f"p99 {payload['p99_seconds']}s | "
            f"{payload['throughput_jobs_per_second']} jobs/s"
        ),
    )
    print(f"[written to {path}]")

    # every job completed; none failed or got stuck
    assert payload["completed"] == NUM_JOBS, payload
    # tails are ordered and finite
    assert (
        0
        < payload["p50_seconds"]
        <= payload["p95_seconds"]
        <= payload["p99_seconds"]
    ), payload
    # the shared pool kept lease churn bounded: backends were reused,
    # not rebuilt per job
    assert payload["pool"]["created"] <= MAX_CONCURRENT * 2, payload
