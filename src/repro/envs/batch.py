"""Population-batched environment stepping for the lock-step driver.

:func:`repro.envs.rollout.run_lockstep` advances one episode per env,
all in lock-step.  It never steps an env itself: it hands the envs to
an :class:`EnvBatch` and steps the live slots of every tick in one
call.  :func:`env_batch` picks the implementation:

* :class:`LunarLanderBatch` — a structure-of-arrays kernel that
  advances every live LunarLander episode with a handful of NumPy ops
  per tick.  It is chosen only when every env is an exact, unwrapped
  :class:`~repro.envs.lunar_lander.LunarLander` whose instance shadows
  none of the class's physics constants.
* :class:`ScalarEnvBatch` — loops the scalar envs' own ``step``.  It is
  bit-identical by construction and covers everything else: wrappers
  (``FaultySensor``'s seeded corruption, ``ObservationNoise``'s draws,
  ``ActionRepeat``, ``TimeLimitOverride``, timing proxies), subclasses,
  physics overrides, and every env without a kernel (Pong re-serves
  from its own ``Generator`` mid-episode).

The scalar ``_step`` of each env stays the oracle; a kernel is a fast
path paired with it, differential-tested against it bit for bit.  A
kernel may use only operations that are bit-equal to the scalar code's
(``np.sin``/``np.cos``/``np.sqrt``/``np.abs``, ``np.remainder`` for
Python's ``%``, and ``x * x``), spelled in the oracle's operation
order; ``tests/envs/test_kernel_numerics.py`` pins that ground on the
host.  The NUM002 lint rule forbids ``**`` in this module: a scalar
``x**2`` goes through C ``pow``, which rounds differently from
``x * x``.
"""

from __future__ import annotations

import math
from typing import Any, Protocol, Sequence

import numpy as np

from repro.envs.base import Environment
from repro.envs.lunar_lander import LunarLander

__all__ = [
    "BatchStep",
    "EnvBatch",
    "ScalarEnvBatch",
    "LunarLanderBatch",
    "env_batch",
]

#: ``(observations (k, obs_dim), rewards (k,), done (k,), truncated
#: (k,))`` for the ``k`` stepped slots, in the order they were given.
#: ``truncated`` is the env's own time-limit flag, meaningful where
#: ``done`` is set.
BatchStep = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class EnvBatch(Protocol):
    """One episode per env, stepped a tick at a time.

    ``reset`` starts every episode (``seeds`` has one entry per env, or
    is ``None``) and returns the ``(n, obs_dim)`` initial observations.
    ``step`` advances the listed live ``slots`` (ascending) by one
    action each; a slot whose episode is done must not be stepped
    again.
    """

    def reset(self, seeds: Sequence[int | None] | None) -> np.ndarray: ...

    def step(self, slots: np.ndarray, actions: Sequence[Any]) -> BatchStep: ...


class ScalarEnvBatch:
    """Loops each env's own ``step``: the general, bit-identical path."""

    def __init__(self, envs: Sequence[Environment]):
        self.envs = envs

    def reset(self, seeds: Sequence[int | None] | None) -> np.ndarray:
        return np.stack(
            [
                env.reset(seed=seeds[i] if seeds is not None else None)
                for i, env in enumerate(self.envs)
            ]
        )

    def step(self, slots: np.ndarray, actions: Sequence[Any]) -> BatchStep:
        envs = self.envs
        count = len(slots)
        observations = []
        rewards = np.empty(count)
        done = np.zeros(count, dtype=bool)
        truncated = np.zeros(count, dtype=bool)
        for i, (slot, action) in enumerate(zip(slots.tolist(), actions)):
            obs, reward, finished, info = envs[slot].step(action)
            observations.append(obs)
            rewards[i] = reward
            if finished:
                done[i] = True
                truncated[i] = bool(info.get("truncated", False))
        return np.stack(observations), rewards, done, truncated


class LunarLanderBatch:
    """Structure-of-arrays twin of :meth:`LunarLander._step`.

    Each state component is one float64 array over the envs.  Every
    expression mirrors the scalar code's operation order and constant
    folding, so each slot's observation, reward and flags are bit-equal
    to stepping its scalar env.  Episodes start from each env's own
    seeded ``reset`` (the scalar envs keep their RNG streams); after
    that the kernel owns the episode state, and the scalar envs are
    marked as needing a reset so none of them can be stepped from a
    stale state.
    """

    _L = LunarLander
    #: fuel cost by action: noop, left, main engine, right
    _FUEL = np.array([0.0, 0.03, 0.30, 0.03])
    _TORQUE_STEP = _L.SIDE_ENGINE_TORQUE * _L.DT
    _DAMPING = 1.0 - _L.ANGULAR_DAMPING * _L.DT
    _TWO_PI = 2 * math.pi
    _CEILING = 2.0 * _L.START_ALTITUDE

    def __init__(self, envs: Sequence[LunarLander]):
        self.envs = envs
        self._limit = np.array(
            [env.max_episode_steps for env in envs], dtype=np.int64
        )

    def reset(self, seeds: Sequence[int | None] | None) -> np.ndarray:
        envs = self.envs
        observations = np.stack(
            [
                env.reset(seed=seeds[i] if seeds is not None else None)
                for i, env in enumerate(envs)
            ]
        )
        state = np.array([env._state for env in envs]).reshape(-1, 6)
        for env in envs:
            env._needs_reset = True
        (self._x, self._y, self._vx, self._vy, self._angle,
         self._omega) = state.T.copy()
        self._prev_shaping = np.zeros(len(envs))
        self._elapsed = np.zeros(len(envs), dtype=np.int64)
        return observations

    def step(self, slots: np.ndarray, actions: Sequence[Any]) -> BatchStep:
        L = self._L
        action = np.asarray(actions, dtype=np.intp).reshape(-1)
        if action.size and (action.min() < 0 or action.max() > 3):
            raise ValueError(f"invalid LunarLander actions {actions!r}")
        first = self._elapsed[slots] == 0
        x = self._x[slots]
        y = self._y[slots]
        vx = self._vx[slots]
        vy = self._vy[slots]
        angle = self._angle[slots]
        omega = self._omega[slots]

        main = action == L.MAIN_ENGINE
        left = action == L.LEFT_THRUSTER
        right = action == L.RIGHT_THRUSTER
        sin = np.sin(angle)
        cos = np.cos(angle)
        ax = 0.0 + np.where(
            main,
            -sin * L.MAIN_ENGINE_ACCEL,
            np.where(
                left,
                L.SIDE_ENGINE_ACCEL * cos,
                np.where(right, -L.SIDE_ENGINE_ACCEL * cos, 0.0),
            ),
        )
        ay = np.where(main, L.GRAVITY + cos * L.MAIN_ENGINE_ACCEL, L.GRAVITY)
        omega = np.where(
            left,
            omega + self._TORQUE_STEP,
            np.where(right, omega - self._TORQUE_STEP, omega),
        )

        vx = vx + ax * L.DT
        vy = vy + ay * L.DT
        x = x + vx * L.DT
        y = y + vy * L.DT
        omega = omega * self._DAMPING
        angle = angle + omega * L.DT
        angle = np.remainder(angle + math.pi, self._TWO_PI) - math.pi

        # leg contacts from the new state (the scalar _leg_contacts)
        leg = L.LEG_SPAN * np.sin(-angle)
        legs_left = (y - leg) <= 0.01
        legs_right = (y + leg) <= 0.01
        speed = np.sqrt(vx * vx + vy * vy)
        shaping = (
            -100.0 * np.sqrt(x * x + y * y)
            - 100.0 * speed
            - 100.0 * np.abs(angle)
            + 10.0 * (legs_left.astype(np.int64) + legs_right)
        )
        reward = (
            np.where(first, 0.0, shaping - self._prev_shaping[slots])
            - self._FUEL[action]
        )

        landed = y <= 0.0
        safe = (
            (np.abs(x) <= L.HELIPAD_HALF_WIDTH)
            & (speed <= L.SAFE_LANDING_SPEED)
            & (np.abs(angle) <= L.SAFE_LANDING_ANGLE)
        )
        lost = (np.abs(x) > L.FIELD_HALF_WIDTH) | (y > self._CEILING)
        reward = np.where(
            landed,
            np.where(safe, reward + 100.0, reward - 100.0),
            np.where(lost, reward - 100.0, reward),
        )
        terminated = landed | lost

        elapsed = self._elapsed[slots] + 1
        truncated = ~terminated & (elapsed >= self._limit[slots])

        self._x[slots] = x
        self._y[slots] = y
        self._vx[slots] = vx
        self._vy[slots] = vy
        self._angle[slots] = angle
        self._omega[slots] = omega
        self._prev_shaping[slots] = shaping
        self._elapsed[slots] = elapsed

        observations = np.stack(
            [x, y, vx, vy, angle, omega,
             legs_left.astype(np.float64), legs_right.astype(np.float64)],
            axis=1,
        )
        return observations, reward, terminated | truncated, truncated


def _is_plain_lander(env: object) -> bool:
    """An exact LunarLander whose instance overrides no class constant."""
    return type(env) is LunarLander and not any(
        name in LunarLander.__dict__ for name in vars(env)
    )


def env_batch(envs: Sequence[Environment]) -> EnvBatch:
    """The kernel for ``envs`` if one applies to all of them, else the
    scalar loop."""
    if envs and all(_is_plain_lander(env) for env in envs):
        return LunarLanderBatch(envs)  # type: ignore[arg-type]
    return ScalarEnvBatch(envs)
