"""Episode rollouts and fitness evaluation.

This module is the "Evaluate" glue from the paper's Table III: given a
policy (any callable mapping an observation vector to a raw output
vector), it runs episodes against an environment, converts raw network
outputs into environment actions, and reports the fitness along with the
step counts the hardware cost models need.

Two drivers, one rule:

* :func:`run_episode` steps one env with one policy — the scalar
  oracle every other path is checked against;
* :func:`run_lockstep` runs one episode per env in lock-step and is the
  only multi-episode driver.  Each tick hands the live slots to
  ``infer`` as one :class:`Tick` (slot indices plus a ``(k, n_in)``
  observation block) and gets a ``(k, n_out)`` block back, then steps
  all live episodes through an :class:`~repro.envs.batch.EnvBatch`.

``EnvBatch`` protocol: ``reset(seeds) -> (n, obs_dim)`` starts every
episode; ``step(slots, actions) -> (obs, rewards, done, truncated)``
advances the listed live slots by one action each.  Kernel selection
(:func:`~repro.envs.batch.env_batch`): a structure-of-arrays kernel
when every env is an exact, unwrapped instance of an env that has one
(today :class:`~repro.envs.batch.LunarLanderBatch`), otherwise
:class:`~repro.envs.batch.ScalarEnvBatch`, which calls each env's own
``step`` and is bit-identical by construction — wrappers, subclasses,
physics overrides and envs that draw from their RNG mid-episode all
take it.  Each kernel is a fast path paired with its env's scalar
``_step``, which stays the oracle: differential tests assert the two
agree in observation and reward bits, ``done`` and ``truncated``.
Rewards, step counts and truncation accumulate with array ops under
:func:`run_episode`'s exact rule, so a lock-step record is
bit-identical to running the episode alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.envs.base import Environment
from repro.envs.batch import env_batch
from repro.envs.spaces import Box, Discrete
from repro.telemetry.metrics import get_metrics
from repro.telemetry.spans import span as _span

__all__ = [
    "PolicyFn",
    "InferFn",
    "Tick",
    "EpisodeRecord",
    "decode_action",
    "decode_action_batch",
    "run_episode",
    "run_lockstep",
    "evaluate_policy",
]

PolicyFn = Callable[[np.ndarray], np.ndarray]


class Tick:
    """One lock-step tick's live inputs: the still-alive slot indices
    (ascending) and their ``(k, n_in)`` observation block, row ``i``
    belonging to ``slots[i]``.  ``len()`` is the live count ``k``."""

    __slots__ = ("slots", "obs")

    def __init__(self, slots, obs):
        self.slots = np.asarray(slots, dtype=np.intp)
        self.obs = np.asarray(obs, dtype=np.float64)
        if self.obs.shape[:1] != self.slots.shape:
            raise ValueError(
                f"{self.slots.shape[0]} slots but observations of shape "
                f"{self.obs.shape}"
            )

    def __len__(self) -> int:
        return self.slots.shape[0]


#: Lock-step inference: a :class:`Tick` -> the ``(k, n_out)`` block of
#: raw outputs, row ``i`` for ``tick.slots[i]``.  The INAX device's
#: scatter/infer/gather step and the software population evaluators
#: satisfy this signature.
InferFn = Callable[[Tick], np.ndarray]


@dataclass
class EpisodeRecord:
    """Outcome of one episode: fitness plus workload accounting."""

    total_reward: float
    steps: int
    truncated: bool
    #: Per-step rewards, kept for convergence-trace benches.
    rewards: list[float] = field(default_factory=list)


def decode_action(env: Environment, raw_output: np.ndarray):
    """Convert a raw network output vector into an environment action.

    * ``Discrete(n)`` — argmax over the ``n`` output nodes (the standard
      NEAT policy head, and how the paper sizes INAX's PE count per env);
    * ``Box`` — squash each output with tanh and scale to the bounds.
    """
    raw = np.asarray(raw_output, dtype=np.float64).reshape(-1)
    space = env.action_space
    if isinstance(space, Discrete):
        if raw.shape[0] < space.n:
            raise ValueError(
                f"policy produced {raw.shape[0]} outputs but {env.name} "
                f"needs {space.n}"
            )
        return int(np.argmax(raw[: space.n]))
    if isinstance(space, Box):
        dim = space.flat_dim
        if raw.shape[0] < dim:
            raise ValueError(
                f"policy produced {raw.shape[0]} outputs but {env.name} "
                f"needs {dim}"
            )
        squashed = np.tanh(raw[:dim])
        center = (space.high + space.low) / 2.0
        half_range = (space.high - space.low) / 2.0
        # unbounded dims pass through un-scaled
        half_range = np.where(np.isfinite(half_range), half_range, 1.0)
        center = np.where(np.isfinite(center), center, 0.0)
        return center + half_range * squashed.reshape(space.shape)
    raise TypeError(f"unsupported action space {space!r}")


def decode_action_batch(env: Environment, raw_outputs: np.ndarray) -> list:
    """Decode a ``(batch, num_outputs)`` block of raw outputs at once.

    Bit-identical to calling :func:`decode_action` row by row (ties in
    the argmax resolve to the first maximum in both, and the Box path
    applies the same value-pure elementwise ops), but pays the NumPy
    call overhead once per lock-step tick instead of once per individual.
    """
    raw = np.atleast_2d(np.asarray(raw_outputs, dtype=np.float64))
    space = env.action_space
    if isinstance(space, Discrete):
        if raw.shape[1] < space.n:
            raise ValueError(
                f"policy produced {raw.shape[1]} outputs but {env.name} "
                f"needs {space.n}"
            )
        return np.argmax(raw[:, : space.n], axis=1).tolist()
    if isinstance(space, Box):
        dim = space.flat_dim
        if raw.shape[1] < dim:
            raise ValueError(
                f"policy produced {raw.shape[1]} outputs but {env.name} "
                f"needs {dim}"
            )
        squashed = np.tanh(raw[:, :dim])
        center = (space.high + space.low) / 2.0
        half_range = (space.high - space.low) / 2.0
        half_range = np.where(np.isfinite(half_range), half_range, 1.0)
        center = np.where(np.isfinite(center), center, 0.0)
        actions = center + half_range * squashed.reshape(
            (raw.shape[0],) + space.shape
        )
        return [actions[i] for i in range(raw.shape[0])]
    raise TypeError(f"unsupported action space {space!r}")


def run_episode(
    env: Environment,
    policy: PolicyFn,
    seed: int | None = None,
    max_steps: int | None = None,
    keep_rewards: bool = False,
) -> EpisodeRecord:
    """Run one episode of ``policy`` in ``env`` and return its record.

    ``truncated`` reports the *environment's* truncation flag when the
    episode ends on its own (an episode that terminates naturally on
    exactly the last allowed step is **not** truncated), and is only
    forced ``True`` when the external ``max_steps`` cap cuts a
    still-running episode short.
    """
    obs = env.reset(seed=seed)
    total = 0.0
    steps = 0
    truncated = False
    rewards: list[float] = []
    limit = max_steps if max_steps is not None else env.max_episode_steps
    while True:
        action = decode_action(env, policy(obs))
        obs, reward, done, info = env.step(action)
        total += reward
        steps += 1
        if keep_rewards:
            rewards.append(reward)
        if done:
            truncated = bool(info.get("truncated", False))
            break
        if steps >= limit:
            truncated = True
            break
    registry = get_metrics()
    if registry is not None:
        registry.histogram("episode.steps").observe(steps)
        registry.counter("episode.count").inc()
    return EpisodeRecord(
        total_reward=total, steps=steps, truncated=truncated, rewards=rewards
    )


def run_lockstep(
    envs: Sequence[Environment],
    infer: InferFn,
    seeds: Sequence[int | None] | None = None,
    max_steps: int | None = None,
    keep_rewards: bool = False,
) -> list[EpisodeRecord]:
    """Run one episode per env, all in lock-step, and return the records.

    This is the one multi-episode driver behind every batched
    evaluation path.  Each synchronized tick infers every still-alive
    slot at once (``infer`` maps a :class:`Tick` to a ``(k, n_out)``
    block), decodes the whole wave's actions in one batch, then steps
    every live episode through the :class:`~repro.envs.batch.EnvBatch`
    that :func:`~repro.envs.batch.env_batch` picked for ``envs``.
    Slots whose episodes terminate drop out of subsequent ticks — the
    software analogue of the paper's §V-B2 idle-PU effect — so the INAX
    backend's device waves and the software backends' population
    inference run through identical bookkeeping.

    Per-slot rewards accumulate in step order with float64 adds, and
    truncation follows :func:`run_episode`'s rule exactly, so a
    lock-step episode's record is bit-identical to running it alone.
    """
    if seeds is not None and len(seeds) != len(envs):
        raise ValueError("seeds, when given, must have one entry per env")
    n = len(envs)
    limits = np.array(
        [
            max_steps if max_steps is not None else env.max_episode_steps
            for env in envs
        ],
        dtype=np.int64,
    )
    totals = np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    truncated = np.zeros(n, dtype=bool)
    reward_rows: list[np.ndarray] = []
    alive = np.arange(n)
    ticks = 0
    inferences = 0
    with _span("rollout.lockstep", envs=n):
        if n:
            batch = env_batch(envs)
            observations = batch.reset(seeds)
        while alive.size:
            ticks += 1
            inferences += alive.size
            outputs = infer(Tick(alive, observations))
            actions = decode_action_batch(envs[alive[0]], outputs)
            observations, rewards, done, env_truncated = batch.step(
                alive, actions
            )
            totals[alive] += rewards
            steps[alive] += 1
            if keep_rewards:
                row = np.full(n, np.nan)
                row[alive] = rewards
                reward_rows.append(row)
            capped = ~done & (steps[alive] >= limits[alive])
            ended = done | capped
            truncated[alive[ended]] = (env_truncated | capped)[ended]
            survivors = ~ended
            alive = alive[survivors]
            observations = observations[survivors]
    registry = get_metrics()
    if registry is not None:
        registry.histogram("rollout.wave_size").observe(n)
        registry.counter("rollout.ticks").inc(ticks)
        registry.counter("rollout.inferences").inc(inferences)
        registry.counter("episode.count").inc(n)
        episode_steps = registry.histogram("episode.steps")
        for count in steps.tolist():
            episode_steps.observe(count)
    reward_table = np.array(reward_rows) if keep_rewards else None
    return [
        EpisodeRecord(
            total_reward=total,
            steps=count,
            truncated=cut,
            rewards=(
                reward_table[:count, i].tolist()
                if reward_table is not None
                else []
            ),
        )
        for i, (total, count, cut) in enumerate(
            zip(totals.tolist(), steps.tolist(), truncated.tolist())
        )
    ]


def evaluate_policy(
    env: Environment,
    policy: PolicyFn,
    episodes: int = 1,
    seeds: Sequence[int] | None = None,
    max_steps: int | None = None,
) -> float:
    """Average episode reward of ``policy`` over ``episodes`` runs.

    This is the fitness function NEAT maximizes; it is also used to
    check a trained RL policy against the task's required fitness.
    """
    if seeds is not None and len(seeds) != episodes:
        raise ValueError("seeds, when given, must have one entry per episode")
    total = 0.0
    for i in range(episodes):
        seed = seeds[i] if seeds is not None else None
        total += run_episode(env, policy, seed=seed, max_steps=max_steps).total_reward
    return total / episodes
