"""The LunarLander batch kernel against its scalar oracle, and routing.

:class:`LunarLanderBatch` must be bit-equal to stepping each
:class:`LunarLander` alone: observation bits, reward bits, ``done`` and
``truncated`` on every tick, over seeds x action sequences.  The
pinned scenarios make sure episodes end in every way the task allows:
a safe landing, a crash landing, leaving the field, truncation at the
400-step limit, and a natural landing on exactly step 400 (which is
not truncated).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.envs.rollout as rollout
from repro.envs.batch import (
    LunarLanderBatch,
    ScalarEnvBatch,
    env_batch,
)
from repro.envs.lunar_lander import LunarLander
from repro.envs.registry import make, registered_names
from repro.envs.rollout import run_episode, run_lockstep
from repro.envs.wrappers import (
    ActionRepeat,
    FaultySensor,
    ObservationNoise,
    TimeLimitOverride,
)


# ------------------------------------------------------------- policies
def hover(obs, t):
    """Holds altitude and attitude; drifts out of the field on some
    seeds and hovers to the time limit on others."""
    x, y, vx, vy, angle, omega = obs[:6]
    if vy < -0.05:
        return 2
    if angle > 0.05 or omega > 0.1:
        return 3
    if angle < -0.05 or omega < -0.1:
        return 1
    return 0


def descend(obs, t):
    """Brakes the fall at -0.3 speed: lands safely on the pad or
    crashes beside it, depending on the seed."""
    x, y, vx, vy, angle, omega = obs[:6]
    if vy < -0.3:
        return 2
    if angle > 0.05 or omega > 0.1:
        return 3
    if angle < -0.05 or omega < -0.1:
        return 1
    return 0


def hover_then_drop(switch):
    def policy(obs, t):
        return hover(obs, t) if t < switch else 0

    return policy


def scripted(actions):
    def policy(obs, t):
        return actions[t % len(actions)]

    return policy


def step_both(seeds, policies):
    """Step scalar envs and the kernel side by side, asserting bit
    equality every tick; returns each slot's (steps, final reward,
    truncated)."""
    scalar = [LunarLander() for _ in seeds]
    obs = [env.reset(seed=seed) for env, seed in zip(scalar, seeds)]
    kernel = LunarLanderBatch([LunarLander() for _ in seeds])
    kernel_obs = kernel.reset(seeds)
    assert kernel_obs.tobytes() == np.stack(obs).tobytes()
    alive = list(range(len(seeds)))
    outcome = {}
    t = 0
    while alive:
        actions = [policies[slot](obs[slot], t) for slot in alive]
        k_obs, k_reward, k_done, k_trunc = kernel.step(
            np.array(alive), actions
        )
        survivors = []
        for row, (slot, action) in enumerate(zip(alive, actions)):
            o, r, done, info = scalar[slot].step(action)
            assert k_obs[row].tobytes() == o.tobytes(), (slot, t)
            assert np.float64(k_reward[row]).tobytes() == np.float64(
                r
            ).tobytes(), (slot, t)
            assert bool(k_done[row]) == done, (slot, t)
            if done:
                assert bool(k_trunc[row]) == info["truncated"], (slot, t)
                outcome[slot] = (t + 1, r, info["truncated"])
            else:
                survivors.append(slot)
            obs[slot] = o
        alive = survivors
        t += 1
    return [outcome[slot] for slot in range(len(seeds))]


class TestKernelMatchesScalar:
    def test_every_way_an_episode_ends(self):
        cases = {
            "safe landing": (6, descend),
            "crash landing": (0, descend),
            "left the field": (3, hover),
            "truncated at 400": (0, hover),
            "landed on step 400": (4, hover_then_drop(343)),
        }
        outcomes = dict(
            zip(
                cases,
                step_both(
                    [seed for seed, _ in cases.values()],
                    [policy for _, policy in cases.values()],
                ),
            )
        )
        steps, reward, truncated = outcomes["safe landing"]
        assert reward > 50.0 and not truncated
        steps, reward, truncated = outcomes["crash landing"]
        assert reward < -50.0 and steps < 400 and not truncated
        steps, reward, truncated = outcomes["left the field"]
        assert reward < -50.0 and steps < 400 and not truncated
        assert outcomes["truncated at 400"][0] == 400
        assert outcomes["truncated at 400"][2] is True
        steps, reward, truncated = outcomes["landed on step 400"]
        assert steps == 400 and truncated is False and reward < -50.0

    @settings(max_examples=40, deadline=None)
    @given(
        seeds=st.lists(
            st.integers(0, 2**32 - 1), min_size=1, max_size=5
        ),
        scripts=st.lists(
            st.lists(st.integers(0, 3), min_size=1, max_size=40),
            min_size=5,
            max_size=5,
        ),
        switch=st.integers(0, 400),
    )
    def test_seeds_by_action_sequences(self, seeds, scripts, switch):
        # each slot gets a scripted sequence or a state feedback policy,
        # so a wave mixes lengths and slots drop out at different ticks
        choices = [
            scripted(scripts[0]),
            scripted(scripts[1]),
            hover_then_drop(switch),
            descend,
            scripted(scripts[2] + scripts[3] + scripts[4]),
        ]
        policies = [choices[i % len(choices)] for i in range(len(seeds))]
        step_both(seeds, policies)

    def test_rejects_invalid_actions(self):
        kernel = LunarLanderBatch([LunarLander()])
        kernel.reset([1])
        with pytest.raises(ValueError, match="invalid"):
            kernel.step(np.array([0]), [4])


# ---------------------------------------------------- run_lockstep paths
def _hover_infer(tick):
    actions = [hover(obs, 0) for obs in tick.obs]
    return np.eye(4)[actions]


def _records(monkeypatch, batch_factory, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(rollout, "env_batch", batch_factory)
        envs = [LunarLander() for _ in range(8)]
        return run_lockstep(
            envs, _hover_infer, seeds=list(range(8)), **kwargs
        )


def _record_bits(records):
    return [
        (
            np.float64(r.total_reward).tobytes(),
            r.steps,
            r.truncated,
            np.array(r.rewards).tobytes(),
        )
        for r in records
    ]


class TestLockstepPaths:
    @pytest.mark.parametrize("max_steps", [None, 50, 399])
    def test_kernel_records_equal_scalar_records(self, monkeypatch, max_steps):
        kernel = _records(
            monkeypatch, env_batch, keep_rewards=True, max_steps=max_steps
        )
        scalar = _records(
            monkeypatch, ScalarEnvBatch, keep_rewards=True, max_steps=max_steps
        )
        assert _record_bits(kernel) == _record_bits(scalar)
        # and both equal each episode run alone
        for seed, record in enumerate(kernel):
            solo = run_episode(
                LunarLander(),
                lambda obs: np.eye(4)[hover(obs, 0)],
                seed=seed,
                max_steps=max_steps,
                keep_rewards=True,
            )
            assert _record_bits([record]) == _record_bits([solo])
        if max_steps is not None:
            assert max(r.steps for r in kernel) == max_steps
            assert any(r.truncated for r in kernel)

    def test_kernel_path_is_taken(self, monkeypatch):
        chosen = []

        def spy(envs):
            batch = env_batch(envs)
            chosen.append(type(batch))
            return batch

        _records(monkeypatch, spy)
        assert chosen == [LunarLanderBatch]


# ------------------------------------------------------------- routing
class TestRouting:
    def test_plain_landers_take_the_kernel(self):
        assert isinstance(
            env_batch([LunarLander(), make("lunar_lander")]),
            LunarLanderBatch,
        )

    @pytest.mark.parametrize(
        "wrap",
        [
            lambda env: FaultySensor(env, obs_nan=0.1, seed=3),
            lambda env: ObservationNoise(env, std=0.01),
            lambda env: ActionRepeat(env, 2),
            lambda env: TimeLimitOverride(env, 50),
        ],
        ids=["FaultySensor", "ObservationNoise", "ActionRepeat",
             "TimeLimitOverride"],
    )
    def test_wrapped_landers_take_the_scalar_path(self, wrap):
        assert isinstance(env_batch([wrap(LunarLander())]), ScalarEnvBatch)
        # one wrapped env sends the whole wave to the scalar path
        mixed = [LunarLander(), wrap(LunarLander())]
        assert isinstance(env_batch(mixed), ScalarEnvBatch)

    def test_subclass_takes_the_scalar_path(self):
        class HeavyLander(LunarLander):
            GRAVITY = -3.0

        assert isinstance(env_batch([HeavyLander()]), ScalarEnvBatch)

    def test_instance_override_takes_the_scalar_path(self):
        env = LunarLander()
        env.GRAVITY = -3.0
        assert isinstance(env_batch([env]), ScalarEnvBatch)

    @pytest.mark.parametrize(
        "name", [n for n in registered_names() if n != "lunar_lander"]
    )
    def test_other_envs_take_the_scalar_path(self, name):
        assert isinstance(env_batch([make(name)]), ScalarEnvBatch)

    def test_empty_wave(self):
        assert isinstance(env_batch([]), ScalarEnvBatch)
