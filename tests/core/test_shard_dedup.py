"""S3: shard telemetry deltas merge exactly once, even across retries.

A crashed-then-respawned worker re-runs its shard; each attempt's
payload carries a unique ``gen|shard|attempt`` site, and the merge is
idempotent per site — a duplicated delivery of the same payload must
never double-count cache or metric deltas."""

import numpy as np
import pytest

from repro.core.backends import CompiledCPUBackend
from repro.neat.config import NEATConfig
from repro.neat.innovation import InnovationTracker
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import SupervisorConfig

from tests.conftest import evolved_genome


def _cfg():
    return NEATConfig(num_inputs=4, num_outputs=2, population_size=6)


def _genomes(cfg, seed=0):
    tracker = InnovationTracker(cfg.num_outputs)
    rng = np.random.default_rng(seed)
    return [
        evolved_genome(cfg, tracker, rng, mutations=6, key=i)
        for i in range(cfg.population_size)
    ]


def _payload(site, hits=3, misses=2, size=5):
    return {
        "site": site,
        "seconds": 0.25,
        "compile_delta": {"hits": hits, "misses": misses},
        "compile_size": size,
        "genomes": 3,
        "metrics": None,
    }


class TestMergeIdempotency:
    def test_duplicate_site_folds_once(self):
        cfg = _cfg()
        backend = CompiledCPUBackend("cartpole", cfg, base_seed=1, workers=0)
        try:
            payload = _payload("gen=0|shard=0|attempt=0")
            backend._merge_shard_telemetry([payload, dict(payload)])
            assert backend._shard_compile["hits"] == 3
            assert backend._shard_compile["misses"] == 2
        finally:
            backend.close()

    def test_distinct_attempts_both_fold(self):
        cfg = _cfg()
        backend = CompiledCPUBackend("cartpole", cfg, base_seed=1, workers=0)
        try:
            backend._merge_shard_telemetry(
                [
                    _payload("gen=0|shard=0|attempt=0"),
                    _payload("gen=0|shard=0|attempt=1"),
                    _payload("gen=0|shard=1|attempt=0"),
                ]
            )
            assert backend._shard_compile["hits"] == 9
            assert backend._shard_compile["misses"] == 6
        finally:
            backend.close()

    def test_siteless_legacy_payloads_still_merge(self):
        cfg = _cfg()
        backend = CompiledCPUBackend("cartpole", cfg, base_seed=1, workers=0)
        try:
            legacy = _payload("")
            backend._merge_shard_telemetry([legacy, dict(legacy)])
            # no site -> no dedup key -> both fold (pre-site behavior)
            assert backend._shard_compile["hits"] == 6
        finally:
            backend.close()


@pytest.mark.slow
class TestCrashRetryAccounting:
    def test_respawned_shard_counts_once(self):
        """seed=3 crashes shard 0's first attempt; the respawned retry
        succeeds.  Fitness stays bit-identical and the surviving
        attempt's telemetry is folded exactly once (cache hits+misses
        equal one lookup per (genome, episode))."""
        cfg = _cfg()
        clean_backend = CompiledCPUBackend(
            "cartpole", cfg, base_seed=1, workers=2
        )
        genomes = _genomes(cfg)
        try:
            clean_backend.evaluate(genomes)
            clean_info = clean_backend.compile_cache_info()
        finally:
            clean_backend.close()
        clean = {g.key: g.fitness for g in genomes}

        backend = CompiledCPUBackend(
            "cartpole",
            cfg,
            base_seed=1,
            workers=2,
            fault_plan=FaultPlan.parse("seed=3,worker.crash@0.5"),
            supervisor=SupervisorConfig(
                shard_timeout=3.0,
                max_retries=2,
                backoff_base=0.0,
                join_timeout=5.0,
                disable_after=99,
            ),
        )
        chaotic = _genomes(cfg)
        try:
            backend.evaluate(chaotic)
            info = backend.compile_cache_info()
        finally:
            backend.close()
        assert {g.key: g.fitness for g in chaotic} == clean
        assert backend._supervisor.respawns >= 1
        # the crashed attempt's payload never arrives and the retry's
        # folds exactly once, so the merged cache deltas equal a clean
        # 2-worker run's — a double merge would inflate them by a shard
        assert info["hits"] + info["misses"] == (
            clean_info["hits"] + clean_info["misses"]
        )


class TestShardSizeAccounting:
    """Cache *sizes* are absolute snapshots, not deltas.

    Before the fix, ``_merge_shard_telemetry`` folded each payload's
    ``compile_size`` in arrival order, so the reported aggregate
    depended on which shard's payload happened to land last.  The
    contract is now: size = sum over shard slots of each slot's most
    recent report, which is order-independent and survives retries,
    fallbacks, and duplicate deliveries.
    """

    def _backend(self, workers=0):
        return CompiledCPUBackend(
            "cartpole", _cfg(), base_seed=1, workers=workers
        )

    def test_size_is_order_independent_sum_over_slots(self):
        payloads = [
            _payload("gen=0|shard=0|attempt=0", size=5),
            _payload("gen=0|shard=1|attempt=0", size=7),
        ]
        sizes = []
        for ordering in (payloads, payloads[::-1]):
            backend = self._backend()
            try:
                backend._merge_shard_telemetry(list(ordering))
                sizes.append(backend.compile_cache_info()["size"])
            finally:
                backend.close()
        assert sizes == [12, 12], "aggregate size must not depend on order"

    def test_duplicate_delivery_does_not_change_size(self):
        backend = self._backend()
        try:
            payload = _payload("gen=0|shard=0|attempt=0", size=5)
            backend._merge_shard_telemetry([payload, dict(payload)])
            assert backend.compile_cache_info()["size"] == 5
        finally:
            backend.close()

    def test_retry_attempt_replaces_same_slot(self):
        """A respawned shard's report supersedes the dead attempt's —
        the slot is the shard index, not the attempt."""
        backend = self._backend()
        try:
            backend._merge_shard_telemetry(
                [
                    _payload("gen=0|shard=0|attempt=0", size=5),
                    _payload("gen=0|shard=1|attempt=0", size=7),
                    _payload("gen=0|shard=0|attempt=1", size=9),
                ]
            )
            assert backend.compile_cache_info()["size"] == 9 + 7
        finally:
            backend.close()

    def test_next_generation_report_replaces_slot(self):
        backend = self._backend()
        try:
            backend._merge_shard_telemetry(
                [_payload("gen=0|shard=0|attempt=0", size=5)]
            )
            backend._merge_shard_telemetry(
                [_payload("gen=1|shard=0|attempt=0", size=11)]
            )
            assert backend.compile_cache_info()["size"] == 11
        finally:
            backend.close()

    def test_fallback_payload_keeps_previous_size(self):
        """In-parent degradation did not touch the dead worker's cache,
        so its fallback payload must not zero the slot's size."""
        backend = self._backend()
        try:
            backend._merge_shard_telemetry(
                [
                    _payload("gen=0|shard=0|attempt=0", size=5),
                    _payload("gen=0|shard=1|attempt=0", size=7),
                ]
            )
            backend._merge_shard_telemetry(
                [
                    _payload("gen=1|shard=0|fallback", size=0),
                    _payload("gen=1|shard=1|attempt=0", size=8),
                ]
            )
            assert backend.compile_cache_info()["size"] == 5 + 8
        finally:
            backend.close()

    def test_compile_sizes_follow_the_same_contract(self):
        backend = self._backend()
        try:
            first = _payload("gen=0|shard=0|attempt=0", hits=2, misses=1,
                             size=4)
            second = _payload("gen=0|shard=1|attempt=0", hits=1, misses=2,
                              size=6)
            backend._merge_shard_telemetry([second, first, dict(first)])
            info = backend.compile_cache_info()
            assert info["size"] == 10
            assert info["hits"] == 3
            assert info["misses"] == 3
        finally:
            backend.close()
