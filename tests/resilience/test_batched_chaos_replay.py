"""Chaos replay across the batched lock-step driver.

A seeded run that combines ``FaultySensor`` env faults with INAX device
faults (bit flips, DMA corruption, PU stalls, wedges with a software
fallback) must replay byte for byte, and must match what a per-slot
driver produces: the driver below is the plain loop that stepped one
env at a time before :func:`repro.envs.rollout.run_lockstep` handed
its envs to an ``EnvBatch``.  Wrapped envs route to the scalar batch,
so the whole fault stream (keyed by seed, episode seed, wave, step and
slot) must come out unchanged.
"""

from __future__ import annotations

import json

import numpy as np

import repro.core.backends as backends
from repro.core.backends import INAXBackend
from repro.envs.rollout import EpisodeRecord, Tick, decode_action
from repro.inax.accelerator import INAXConfig
from repro.neat.config import NEATConfig
from repro.neat.innovation import InnovationTracker
from repro.resilience.faults import FaultPlan

from tests.conftest import evolved_genome

PLAN = (
    "seed=7,env.obs_nan@0.02,env.reward_nan@0.005,"
    "inax.value_bitflip@0.01,dma.output_corrupt@0.01,"
    "inax.pu_stall@0.02:5,inax.wedge@0.01"
)


def per_slot_lockstep(
    envs, infer, seeds=None, max_steps=None, keep_rewards=False
):
    """One env ``step`` per live slot per tick, Python accumulation."""
    observations = [
        env.reset(seed=seeds[i] if seeds is not None else None)
        for i, env in enumerate(envs)
    ]
    n = len(envs)
    totals, steps = [0.0] * n, [0] * n
    truncated = [False] * n
    rewards: list[list[float]] = [[] for _ in range(n)]
    alive = list(range(n))
    while alive:
        outputs = infer(Tick(alive, [observations[s] for s in alive]))
        survivors = []
        for row, slot in enumerate(alive):
            action = decode_action(envs[slot], outputs[row])
            obs, reward, done, info = envs[slot].step(action)
            observations[slot] = obs
            totals[slot] += reward
            steps[slot] += 1
            if keep_rewards:
                rewards[slot].append(reward)
            limit = (
                max_steps
                if max_steps is not None
                else envs[slot].max_episode_steps
            )
            if done:
                truncated[slot] = bool(info.get("truncated", False))
            elif steps[slot] >= limit:
                truncated[slot] = True
            else:
                survivors.append(slot)
        alive = survivors
    return [
        EpisodeRecord(totals[i], steps[i], truncated[i], rewards[i])
        for i in range(n)
    ]


def chaos_payload() -> bytes:
    cfg = NEATConfig(num_inputs=8, num_outputs=4, population_size=12)
    tracker = InnovationTracker(cfg.num_outputs)
    rng = np.random.default_rng(3)
    backend = INAXBackend(
        "lunar_lander",
        cfg,
        inax_config=INAXConfig(num_pus=5, num_pes_per_pu=4),
        base_seed=11,
        fallback="cpu-fast",
        fault_plan=FaultPlan.parse(PLAN),
    )
    generations = []
    try:
        for generation in range(2):
            genomes = [
                evolved_genome(cfg, tracker, rng, mutations=6, key=i)
                for i in range(12)
            ]
            backend.evaluate(genomes)
            generations.append(
                [np.float64(g.fitness).tobytes().hex() for g in genomes]
            )
        payload = {
            "fitness": generations,
            "events": backend.resilience_log(),
            "columns": backend.reporter_columns(),
            "cycles": backend.device.report.total_cycles,
            "lengths": [record.episode_lengths for record in backend.records],
        }
    finally:
        backend.close()
    return json.dumps(payload, sort_keys=True, default=str).encode()


def test_chaos_run_replays_and_matches_per_slot_driver(monkeypatch):
    batched = chaos_payload()
    assert chaos_payload() == batched
    monkeypatch.setattr(backends, "run_lockstep", per_slot_lockstep)
    assert chaos_payload() == batched

    # the plan really exercised both fault families and the fallback
    events = json.loads(batched)["events"]
    kinds = {event["kind"] for event in events}
    assert "fallback.wave" in kinds, sorted(kinds)
    assert any(kind.startswith("quarantine") for kind in kinds), sorted(kinds)
    assert any(kind.startswith("inax.") or kind.startswith("dma.")
               for kind in kinds), sorted(kinds)
