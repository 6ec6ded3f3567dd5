"""BackendPool leasing, reuse, reset, and bit-identity guarantees."""

import pytest

from repro.core.platform import E3, effective_neat_config
from repro.neat.config import NEATConfig
from repro.serve.pool import BackendPool, PoolExhausted

CONFIG = NEATConfig(population_size=8)


def run_fitness_history(backend_or_name, seed: int) -> list[float]:
    result = E3(
        "cartpole", backend=backend_or_name, neat_config=CONFIG, seed=seed
    ).run(max_generations=3)
    return [stats.best_fitness for stats in result.history]


class TestLeasing:
    def test_fresh_then_reused(self):
        pool = BackendPool(max_leases=2)
        config = effective_neat_config("cartpole", CONFIG)
        lease = pool.lease("cartpole", "cpu-compiled", config)
        first_backend = lease.backend
        lease.release()
        again = pool.lease("cartpole", "cpu-compiled", config)
        assert again.backend is first_backend
        assert pool.stats()["created"] == 1
        assert pool.stats()["reused"] == 1

    def test_key_mismatch_builds_fresh(self):
        pool = BackendPool(max_leases=4)
        config = effective_neat_config("cartpole", CONFIG)
        a = pool.lease("cartpole", "cpu-compiled", config)
        a.release()
        b = pool.lease("cartpole", "cpu", config)  # different backend
        assert b.backend is not a.backend
        other = effective_neat_config(
            "cartpole", NEATConfig(population_size=12)
        )
        c = pool.lease("cartpole", "cpu-compiled", other)  # different config
        assert c.backend is not a.backend

    def test_capacity_raises_instead_of_blocking(self):
        pool = BackendPool(max_leases=1)
        config = effective_neat_config("cartpole", CONFIG)
        held = pool.lease("cartpole", "cpu", config)
        with pytest.raises(PoolExhausted):
            pool.lease("cartpole", "cpu", config)
        held.release()
        pool.lease("cartpole", "cpu", config)  # slot is free again

    def test_discard_drops_backend(self):
        pool = BackendPool(max_leases=2)
        config = effective_neat_config("cartpole", CONFIG)
        lease = pool.lease("cartpole", "cpu-compiled", config)
        broken = lease.backend
        lease.release(discard=True)
        fresh = pool.lease("cartpole", "cpu-compiled", config)
        assert fresh.backend is not broken
        assert pool.stats()["discarded"] == 1

    def test_release_is_idempotent(self):
        pool = BackendPool(max_leases=2)
        config = effective_neat_config("cartpole", CONFIG)
        lease = pool.lease("cartpole", "cpu", config)
        lease.release()
        lease.release()
        assert pool.stats()["active"] == 0
        assert pool.stats()["idle"] == 1


class TestIdleRetention:
    def test_simultaneous_releases_are_all_kept(self):
        """Regression: the pool used to close every same-key backend
        beyond two idle ones, so a burst of finishing jobs forced the
        next jobs to rebuild."""
        n = 4
        pool = BackendPool(max_leases=2 * n)
        config = effective_neat_config("cartpole", CONFIG)
        leases = [pool.lease("cartpole", "cpu", config) for _ in range(n)]
        first = {id(lease.backend) for lease in leases}
        for lease in leases:
            lease.release()
        assert pool.stats()["discarded"] == 0
        assert pool.stats()["idle"] == n
        again = [pool.lease("cartpole", "cpu", config) for _ in range(n)]
        assert {id(lease.backend) for lease in again} == first
        assert pool.stats()["created"] == n
        assert pool.stats()["reused"] == n

    def test_full_pool_evicts_oldest_idle_for_a_new_key(self):
        pool = BackendPool(max_leases=2)
        config = effective_neat_config("cartpole", CONFIG)
        older = pool.lease("cartpole", "cpu", config)
        newer = pool.lease("cartpole", "cpu-compiled", config)
        older.release()
        newer.release()
        third = pool.lease("cartpole", "gpu", config)
        stats = pool.stats()
        assert stats["discarded"] == 1
        assert stats["idle"] + stats["active"] == 2
        # the most recently released backend survived the eviction
        again = pool.lease("cartpole", "cpu-compiled", config)
        assert again.backend is newer.backend
        third.release()
        again.release()


class TestResetRunState:
    def test_reused_backend_starts_clean(self):
        pool = BackendPool(max_leases=2)
        config = effective_neat_config("cartpole", CONFIG)
        lease = pool.lease("cartpole", "cpu-compiled", config, base_seed=0)
        run_fitness_history(lease.backend, seed=0)
        assert lease.backend.records  # first run accumulated state
        assert lease.backend.compile_cache_info()["hits"] > 0
        lease.release()
        again = pool.lease("cartpole", "cpu-compiled", config, base_seed=1)
        backend = again.backend
        assert backend.records == []
        assert backend._generation == 0
        assert backend.compile_cache_info()["hits"] == 0
        assert backend.compile_cache_info()["misses"] == 0
        assert backend.base_seed == 1
        # structural cache entries deliberately survive the reset
        assert backend.compile_cache_info()["size"] > 0

    def test_reused_backend_is_bit_identical_to_fresh(self):
        # the acceptance contract: a leased backend that already ran a
        # different job produces the same bits a fresh backend would
        fresh = run_fitness_history("cpu-compiled", seed=3)
        pool = BackendPool(max_leases=2)
        config = effective_neat_config("cartpole", CONFIG)
        lease = pool.lease("cartpole", "cpu-compiled", config, base_seed=11)
        run_fitness_history(lease.backend, seed=11)  # pollute with job A
        lease.release()
        again = pool.lease("cartpole", "cpu-compiled", config, base_seed=3)
        reused = run_fitness_history(again.backend, seed=3)
        assert reused == fresh

    def test_compiled_backend_reset(self):
        pool = BackendPool(max_leases=2)
        config = effective_neat_config("cartpole", CONFIG)
        lease = pool.lease("cartpole", "cpu-compiled", config, base_seed=0)
        run_fitness_history(lease.backend, seed=0)
        assert lease.backend.compile_cache_info()["misses"] > 0
        lease.release()
        again = pool.lease("cartpole", "cpu-compiled", config, base_seed=0)
        info = again.backend.compile_cache_info()
        assert info["hits"] == 0
        assert info["misses"] == 0
        assert info["size"] > 0  # compiled structures stay warm

    def test_pooled_cycle_report_matches_fresh(self):
        """Pooled and fresh backends come out of the same factory, so a
        pooled cpu-compiled lease prices the same analytic INAX cycles
        as ``E3(..., backend="cpu-compiled")``."""
        config = NEATConfig(population_size=8)
        fresh = E3(
            "lunar_lander", backend="cpu-compiled", neat_config=config,
            seed=4,
        ).run(max_generations=2)
        pool = BackendPool(max_leases=1)
        lease = pool.lease(
            "lunar_lander",
            "cpu-compiled",
            effective_neat_config("lunar_lander", config),
            base_seed=4,
        )
        pooled = E3(
            "lunar_lander", backend=lease.backend, neat_config=config,
            seed=4,
        ).run(max_generations=2)
        lease.release()
        pool.close()
        reports = [record.cycle_report for record in pooled.records]
        assert None not in reports
        assert reports == [record.cycle_report for record in fresh.records]

    def test_close_closes_idle_backends(self):
        pool = BackendPool(max_leases=2)
        config = effective_neat_config("cartpole", CONFIG)
        pool.lease("cartpole", "cpu", config).release()
        pool.close()
        assert pool.stats()["idle"] == 0
