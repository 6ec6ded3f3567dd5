"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.envs.rollout import Tick
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.innovation import InnovationTracker


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def small_config() -> NEATConfig:
    """A small, fast NEAT config used across unit tests."""
    return NEATConfig(
        num_inputs=3,
        num_outputs=2,
        population_size=20,
        max_generations=10,
    )


@pytest.fixture
def tracker(small_config) -> InnovationTracker:
    return InnovationTracker(small_config.num_outputs)


@pytest.fixture
def initial_genome(small_config, tracker, rng) -> Genome:
    return Genome.initial(0, small_config, tracker, rng)


def evolved_genome(
    config: NEATConfig,
    tracker: InnovationTracker,
    rng: np.random.Generator,
    mutations: int = 10,
    key: int = 0,
) -> Genome:
    """A genome after a number of random structural mutations."""
    genome = Genome.initial(key, config, tracker, rng)
    for _ in range(mutations):
        genome.mutate(config, tracker, rng)
    return genome


# ------------------------------------------------------- hypothesis helpers
seeds = st.integers(min_value=0, max_value=2**31 - 1)
small_ints = st.integers(min_value=1, max_value=8)
finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def tick_of(observations: dict[int, np.ndarray]) -> Tick:
    """The lock-step :class:`Tick` carrying ``{slot: obs}``, slots
    ascending."""
    slots = sorted(observations)
    rows = np.array([observations[s] for s in slots]).reshape(len(slots), -1)
    return Tick(slots, rows)


def infer_by_slot(infer, observations: dict[int, np.ndarray]) -> dict:
    """Run one tick of ``infer`` and key its output rows by slot."""
    tick = tick_of(observations)
    return dict(zip(tick.slots.tolist(), infer(tick)))
