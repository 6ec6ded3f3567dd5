"""Chaos determinism for the multi-device INAX farm.

The farm's recovery contract, asserted end-to-end on CartPole:

* **placement transparency** — a clean N-device farm is fitness
  bit-identical to the single-device INAX backend (the per-(genome,
  episode) seeding contract makes device placement invisible);
* **fault transparency** — killing a device mid-generation recovers
  through eviction + deterministic re-pack and still finishes fitness
  bit-identical to the clean run;
* **replayability** — the same FaultPlan over the same run yields the
  same structured resilience log, byte for byte.
"""

import numpy as np
import pytest

from repro.core.backends import INAXBackend
from repro.inax.accelerator import INAXConfig
from repro.neat.config import NEATConfig
from repro.neat.innovation import InnovationTracker
from repro.resilience.faults import DeviceFault, FaultPlan

from tests.conftest import evolved_genome


def _cfg():
    return NEATConfig(num_inputs=4, num_outputs=2, population_size=8)


def _genomes(cfg, n=8, mutations=6, seed=0):
    tracker = InnovationTracker(cfg.num_outputs)
    rng = np.random.default_rng(seed)
    return [
        evolved_genome(cfg, tracker, rng, mutations=mutations, key=i)
        for i in range(n)
    ]


INAX_CFG = dict(num_pus=3, num_pes_per_pu=2)


def _fabric(devices=2, plan_text=None, **kwargs):
    return INAXBackend(
        "cartpole",
        _cfg(),
        inax_config=INAXConfig(**INAX_CFG),
        base_seed=1,
        devices=devices,
        fault_plan=(
            FaultPlan.parse(plan_text) if plan_text is not None else None
        ),
        **kwargs,
    )


def _fitness(backend):
    genomes = _genomes(_cfg())
    try:
        backend.evaluate(genomes)
    finally:
        backend.close()
    return [g.fitness for g in genomes]


class TestPlacementTransparency:
    def test_clean_farm_matches_single_device_bitwise(self):
        single_backend = INAXBackend(
            "cartpole",
            _cfg(),
            inax_config=INAXConfig(**INAX_CFG),
            base_seed=1,
        )
        single = _fitness(single_backend)
        for devices in (1, 2, 3):
            farm = _fabric(devices=devices)
            assert _fitness(farm) == single
            assert (
                farm.records[-1].episode_lengths
                == single_backend.records[-1].episode_lengths
            )

    def test_fault_sites_and_tracks_are_namespaced_only_on_a_farm(self):
        plan_text = "seed=3,inax.weight_bitflip@0.3"
        for devices, prefix in ((1, ""), (2, "dev=")):
            backend = _fabric(devices=devices, plan_text=plan_text)
            _fitness(backend)
            sites = [event["site"] for event in backend.fault_plan.event_log()]
            assert sites  # the plan really fired
            assert all(site.startswith(prefix) for site in sites)
            assert prefix or not any("dev=" in site for site in sites)
            assert [device.track_prefix for device in backend.farm] == (
                [f"dev{d}." for d in range(devices)] if devices > 1 else [""]
            )

    def test_farm_walls_cover_every_device(self):
        backend = _fabric(devices=2)
        try:
            backend.evaluate(_genomes(_cfg()))
        finally:
            backend.close()
        walls = backend.last_device_walls
        assert set(walls) == {0, 1}
        # 8 genomes over num_pus=3 = 3 waves; both devices worked
        assert all(wall > 0 for wall in walls.values())
        assert backend.last_wall_cycles == max(walls.values())


class TestMidGenerationKill:
    def test_device_kill_recovers_through_eviction_and_repack(self):
        clean = _fitness(_fabric(devices=2))
        backend = _fabric(
            devices=2, plan_text="seed=0,fabric.device_drop@1.0"
        )
        chaotic = _fitness(backend)
        assert chaotic == clean
        sup = backend.fabric
        # device 0 walked the ladder and was evicted mid-generation;
        # device 1's eviction was refused (last alive) and it carried
        # the whole re-packed queue
        assert sup.device_evictions == 1
        assert sup.alive() == [1]
        assert sup.repacked_waves > 0
        kinds = [e.kind for e in sup.events]
        assert "fabric.evict" in kinds
        assert "fabric.evict_refused" in kinds
        log_kinds = [e["kind"] for e in backend.resilience_log()]
        assert "fabric.repack" in log_kinds

    def test_heartbeat_delays_move_cycles_not_fitness(self):
        clean_backend = _fabric(devices=2)
        clean = _fitness(clean_backend)
        delayed_backend = _fabric(
            devices=2, plan_text="seed=0,fabric.heartbeat_delay@1.0:500"
        )
        delayed = _fitness(delayed_backend)
        assert delayed == clean
        assert (
            delayed_backend.last_wall_cycles
            > clean_backend.last_wall_cycles
        )
        assert delayed_backend.fabric.device_evictions == 0

    def test_hard_fault_on_last_device_without_fallback_raises(self):
        backend = _fabric(devices=1, plan_text="seed=0,inax.wedge@1.0")
        with pytest.raises(DeviceFault):
            backend.evaluate(_genomes(_cfg()))
        backend.close()

    def test_hard_fault_on_last_device_degrades_with_fallback(self):
        clean = _fitness(_fabric(devices=1))
        backend = _fabric(
            devices=1,
            plan_text="seed=0,inax.wedge@1.0",
            fallback="cpu-compiled",
        )
        chaotic = _fitness(backend)
        assert chaotic == clean
        assert backend.fallback_waves > 0
        assert backend.fabric.device_evictions == 0


class TestReplayability:
    def test_same_plan_yields_identical_logs_and_fitness(self):
        plan_text = (
            "seed=4,fabric.device_drop@0.4,fabric.heartbeat_delay@0.5:128"
        )
        logs, fitnesses = [], []
        for _ in range(2):
            backend = _fabric(devices=3, plan_text=plan_text)
            fitnesses.append(_fitness(backend))
            logs.append(backend.resilience_log())
        assert logs[0] == logs[1]
        assert logs[0]  # the chaos actually happened
        assert fitnesses[0] == fitnesses[1]

    def test_chaos_is_fitness_identical_across_probabilities(self):
        clean = _fitness(_fabric(devices=3))
        for probability in (0.2, 0.5, 1.0):
            backend = _fabric(
                devices=3,
                plan_text=f"seed=7,fabric.device_drop@{probability}",
            )
            assert _fitness(backend) == clean


class TestReporterColumns:
    def test_fabric_columns_extend_inax(self):
        backend = _fabric(devices=2)
        try:
            backend.evaluate(_genomes(_cfg()))
            columns = backend.reporter_columns()
        finally:
            backend.close()
        assert {
            "pack_eff",
            "devices_up",
            "device_evictions",
            "device_readmissions",
            "repacked_waves",
        } <= set(columns)
        assert columns["devices_up"] == 2.0
        # farm-wide occupancy, not device 0's
        assert 0.0 < columns["pack_eff"] <= 1.0


class TestResetRunState:
    def test_reused_farm_matches_fresh_farm(self):
        """A pooled farm must not carry evictions, events or walls from
        its previous run into the next one."""
        plan_text = "seed=0,fabric.device_drop@1.0"
        reused = _fabric(devices=2, plan_text=plan_text)
        fresh = _fabric(devices=2, plan_text=plan_text)
        try:
            reused.evaluate(_genomes(_cfg()))
            reused.reset_run_state()
            reused.evaluate(_genomes(_cfg()))
            fresh.evaluate(_genomes(_cfg()))
        finally:
            reused.close()
            fresh.close()
        assert [e.to_dict() for e in reused.fabric.events] == [
            e.to_dict() for e in fresh.fabric.events
        ]
        assert reused.fabric.alive() == fresh.fabric.alive()
        assert reused.fabric.counters() == fresh.fabric.counters()
        assert (
            reused.records[-1].cycle_report == fresh.records[-1].cycle_report
        )
        assert reused.last_wall_cycles == fresh.last_wall_cycles
        assert reused.last_device_walls == fresh.last_device_walls
