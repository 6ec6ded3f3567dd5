"""Unit tests for the device eviction ladder (FabricSupervisor)."""

import pytest

from repro.inax.farm import (
    EVICTED,
    HEALTHY,
    PROBATION,
    FabricSupervisor,
)
from repro.resilience.faults import FaultPlan
from repro.resilience.injectors import DeviceFaultInjector
from repro.resilience.supervisor import SupervisorConfig


def _supervisor(devices=2, plan_text=None, **config_overrides):
    config = SupervisorConfig(**config_overrides) if config_overrides else None
    injector = (
        DeviceFaultInjector(FaultPlan.parse(plan_text))
        if plan_text is not None
        else None
    )
    return FabricSupervisor(devices, config=config, injector=injector)


class TestQuietPath:
    def test_no_injector_probes_always_pass(self):
        sup = _supervisor(devices=3)
        sup.begin_generation(0)
        assert all(sup.probe(0, d) for d in range(3))
        assert sup.alive() == [0, 1, 2]
        assert sup.counters() == {
            "devices_up": 3.0,
            "device_evictions": 0.0,
            "device_readmissions": 0.0,
            "repacked_waves": 0.0,
        }

    def test_invalid_farm_size(self):
        with pytest.raises(ValueError):
            FabricSupervisor(0)


class TestEvictionLadder:
    def test_persistent_drops_evict_after_max_retries(self):
        sup = _supervisor(devices=2, plan_text="seed=0,fabric.device_drop@1.0")
        sup.begin_generation(0)
        assert sup.probe(0, 0) is False
        state = sup.states[0]
        assert state.status == EVICTED
        assert state.evicted_at == 0
        # misses walked the full ladder: max_retries + 1 consecutive
        assert state.misses == sup.config.max_retries + 1
        assert sup.alive() == [1]
        assert sup.device_evictions == 1
        assert [e.kind for e in sup.events] == ["fabric.evict"]

    def test_last_alive_device_is_never_evicted(self):
        sup = _supervisor(devices=1, plan_text="seed=0,fabric.device_drop@1.0")
        sup.begin_generation(0)
        # the refusal keeps the probe green and resets the miss count
        assert sup.probe(0, 0) is True
        assert sup.alive() == [0]
        assert sup.states[0].misses == 0
        assert [e.kind for e in sup.events] == ["fabric.evict_refused"]

    def test_hard_fail_evicts_immediately(self):
        sup = _supervisor(devices=2)
        assert sup.fail(3, 1, reason="DeviceFault") is True
        assert sup.states[1].status == EVICTED
        assert sup.alive() == [0]
        assert sup.events[0].details["reason"] == "DeviceFault"

    def test_hard_fail_on_last_device_is_refused(self):
        sup = _supervisor(devices=1)
        assert sup.fail(0, 0, reason="DeviceFault") is False
        assert sup.alive() == [0]


class TestHeartbeatPenalties:
    def test_delay_burns_cycles_but_keeps_device_alive(self):
        sup = _supervisor(
            devices=2, plan_text="seed=0,fabric.heartbeat_delay@1.0:100"
        )
        sup.begin_generation(0)
        assert sup.probe(0, 0) is True
        assert sup.penalty_cycles(0) == 100
        assert sup.alive() == [0, 1]

    def test_penalty_backs_off_with_miss_count(self):
        sup = _supervisor(
            devices=2,
            plan_text=(
                "seed=0,fabric.heartbeat_delay@1.0:100,"
                "fabric.device_drop@1.0"
            ),
        )
        sup.begin_generation(0)
        assert sup.probe(0, 0) is False  # dropped all the way to eviction
        # misses 0, 1, 2 before the evicting draw: 100 + 200 + 400
        assert sup.penalty_cycles(0) == 100 + 200 + 400

    def test_begin_generation_resets_penalties(self):
        sup = _supervisor(
            devices=2, plan_text="seed=0,fabric.heartbeat_delay@1.0:64"
        )
        sup.begin_generation(0)
        sup.probe(0, 0)
        assert sup.penalty_cycles(0) == 64
        sup.begin_generation(1)
        assert sup.penalty_cycles(0) == 0


class TestProbationaryReadmission:
    def test_evicted_device_returns_through_probation(self):
        sup = _supervisor(devices=2)
        assert sup.fail(0, 1, reason="DeviceFault") is True
        # next generation: the probe is clean (no injector), so the
        # device is re-admitted on probation...
        sup.begin_generation(1)
        assert sup.states[1].status == PROBATION
        assert sup.alive() == [0, 1]
        assert sup.device_readmissions == 1
        kinds = [e.kind for e in sup.events]
        assert kinds == ["fabric.evict", "fabric.readmit"]
        assert sup.events[-1].details["sat_out"] == 1
        # ...and surviving the full generation restores healthy
        sup.begin_generation(2)
        assert sup.states[1].status == HEALTHY

    def test_wedged_device_stays_out(self):
        sup = _supervisor(devices=2, plan_text="seed=0,fabric.device_drop@1.0")
        sup.begin_generation(0)
        sup.probe(0, 0)
        assert sup.alive() == [1]
        for generation in (1, 2, 3):
            sup.begin_generation(generation)
            assert sup.states[0].status == EVICTED
        assert sup.device_readmissions == 0

    def test_probation_waits_the_configured_generations(self):
        sup = _supervisor(devices=2, probation_generations=3)
        sup.fail(0, 1, reason="DeviceFault")
        sup.begin_generation(1)
        sup.begin_generation(2)
        assert sup.states[1].status == EVICTED
        sup.begin_generation(3)
        assert sup.states[1].status == PROBATION
