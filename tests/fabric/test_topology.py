"""Unit tests for farm topology and the wave-to-device LPT assigner."""

import pytest

from repro.fabric.topology import FarmTopology
from repro.inax.farm import assign_waves


class TestFarmTopology:
    def test_defaults_are_single_device(self):
        topo = FarmTopology()
        assert topo.devices == 1
        assert topo.islands == 1
        assert not topo.migrates(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"devices": 0},
            {"islands": 0},
            {"migration_interval": -1},
            {"migration_size": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FarmTopology(**kwargs)

    def test_island_homing_wraps_over_devices(self):
        topo = FarmTopology(devices=2, islands=5)
        assert [topo.island_device(i) for i in range(5)] == [0, 1, 0, 1, 0]

    def test_migration_barriers(self):
        topo = FarmTopology(
            devices=2, islands=2, migration_interval=3, migration_size=1
        )
        fires = [g for g in range(9) if topo.migrates(g)]
        assert fires == [2, 5, 8]

    def test_migration_disabled_without_all_three_knobs(self):
        base = dict(devices=2, migration_interval=2, migration_size=1)
        assert not FarmTopology(islands=1, **base).migrates(1)
        assert not FarmTopology(
            islands=2, devices=2, migration_interval=0, migration_size=1
        ).migrates(1)
        assert not FarmTopology(
            islands=2, devices=2, migration_interval=2, migration_size=0
        ).migrates(1)

    def test_to_dict_round_trips(self):
        topo = FarmTopology(devices=4, islands=4, migration_interval=5,
                            migration_size=2)
        assert FarmTopology(**topo.to_dict()) == topo


class TestAssignWaves:
    def test_heaviest_first_to_least_loaded(self):
        # costs 40, 30, 20, 10 over two devices: LPT gives {40,10} / {30,20}
        queues = assign_waves([40.0, 30.0, 20.0, 10.0], [0, 1])
        assert queues == {0: [0, 3], 1: [1, 2]}

    def test_ties_break_by_ordinal_then_device_id(self):
        queues = assign_waves([1.0, 1.0, 1.0, 1.0], [0, 1])
        assert queues == {0: [0, 2], 1: [1, 3]}

    def test_per_device_lists_stay_in_ordinal_order(self):
        queues = assign_waves([5.0, 1.0, 9.0, 2.0, 7.0], [0, 1, 2])
        for ordinals in queues.values():
            assert ordinals == sorted(ordinals)

    def test_pure_function_of_inputs(self):
        costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        assert assign_waves(costs, [2, 0, 1]) == assign_waves(costs, [0, 1, 2])

    def test_survivor_subset_is_the_repack_rule(self):
        costs = [4.0, 3.0, 2.0, 1.0]
        degraded = assign_waves(costs, [1])
        assert degraded == {1: [0, 1, 2, 3]}

    def test_no_alive_devices_raises(self):
        with pytest.raises(ValueError):
            assign_waves([1.0], [])
