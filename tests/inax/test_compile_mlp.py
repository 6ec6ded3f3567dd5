"""Tests for lowering dense MLP policies onto INAX (the regular path)."""

import numpy as np
import pytest

from repro.inax.compiler import compile_mlp
from repro.inax.pu import ProcessingUnit
from repro.rl.nn import MLP
from tests.conftest import infer_by_slot


def _mlp(sizes=(3, 5, 2), seed=0):
    return MLP(list(sizes), rng=np.random.default_rng(seed))


class TestStructure:
    def test_dense_shape(self):
        hw = compile_mlp(_mlp())
        assert hw.num_inputs == 3
        assert hw.num_outputs == 2
        assert hw.layer_sizes() == [3, 5, 2]
        # fully connected: 3*5 + 5*2 connections
        assert hw.num_connections == 15 + 10

    def test_density_is_one(self):
        hw = compile_mlp(_mlp())
        dense = sum(
            a * b for a, b in zip(hw.layer_sizes(), hw.layer_sizes()[1:])
        )
        assert hw.num_connections == dense

    def test_output_keys_in_last_layer(self):
        hw = compile_mlp(_mlp((4, 8, 8, 3)))
        last = {plan.key for plan in hw.layers[-1]}
        assert last == {0, 1, 2}


class TestEquivalence:
    @pytest.mark.parametrize("sizes", [(3, 5, 2), (4, 8, 8, 3), (2, 2)])
    def test_pu_matches_mlp_predict(self, sizes):
        mlp = _mlp(sizes, seed=3)
        hw = compile_mlp(mlp)
        pu = ProcessingUnit(num_pes=2)
        pu.load(hw)
        rng = np.random.default_rng(0)
        for _ in range(4):
            x = rng.standard_normal(sizes[0])
            expected = mlp.predict(x[None, :])[0]
            # the MLP applies tanh on hidden layers, linear output —
            # exactly how compile_mlp lowers it.  MACs accumulate in a
            # different order (fsum vs dot), so allow float slack.
            got, _ = pu.infer(x)
            assert np.allclose(got, expected, atol=1e-9), sizes

    def test_relu_mlp(self):
        mlp = MLP([3, 6, 2], activation="relu", rng=np.random.default_rng(1))
        hw = compile_mlp(mlp, activation="relu")
        pu = ProcessingUnit(num_pes=3)
        pu.load(hw)
        x = np.array([0.5, -0.5, 1.0])
        assert np.allclose(
            pu.infer(x)[0], mlp.predict(x[None, :])[0], atol=1e-9
        )


class TestRegularWorkloadOnDevice:
    def test_es_population_evaluates_on_inax(self):
        """An ES generation (same topology, different weights) runs as
        a wave of regular individuals on the device."""
        from repro.inax.accelerator import INAX, INAXConfig

        candidates = [_mlp((3, 4, 2), seed=s) for s in range(4)]
        configs = [compile_mlp(m) for m in candidates]
        device = INAX(INAXConfig(num_pus=4, num_pes_per_pu=2))
        device.begin_wave(configs)
        x = np.ones(3)
        outputs = infer_by_slot(device.step, {i: x for i in range(4)})
        device.end_wave()
        for i, mlp in enumerate(candidates):
            assert np.allclose(
                outputs[i], mlp.predict(x[None, :])[0], atol=1e-9
            )
