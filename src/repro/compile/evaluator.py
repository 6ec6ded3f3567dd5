"""Fused bucket evaluation: stacked parameters over shared plans.

A *bucket* is every member of a generation sharing one shape key.  Its
weights and biases stack into ``(B, rows, fan_in)`` / ``(B, rows)``
tensors over the shape's single compiled plan, so one batched matmul
per layer advances the whole bucket — the software analogue of mapping
same-topology individuals onto identically-configured PUs.

For the env-facing lock-step loop, where a generation mixes many
shapes and the alive set shrinks as episodes terminate,
:class:`CompiledPopulationEvaluator` hands per-member parameter *views*
into those stacks to the proven
:class:`~repro.neat.vectorized.PopulationEvaluator` engine — same
flattened tensors, same term-by-term accumulation order, so fitness is
bit-identical to the interpreted ``cpu`` path by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.compile.structure import CompiledStructure
from repro.neat.genome import Genome
from repro.neat.vectorized import PopulationEvaluator, _apply_activations

if TYPE_CHECKING:
    from repro.envs.rollout import Tick

__all__ = ["CompiledBucket", "CompiledPopulationEvaluator"]


class CompiledBucket:
    """One shape's members with stacked parameter tensors."""

    def __init__(self, structure: CompiledStructure, genomes: list[Genome]):
        if structure.plan is None:
            raise ValueError(
                f"shape {structure.shape_key[:12]} is not vectorizable"
            )
        if not genomes:
            raise ValueError("a bucket needs at least one genome")
        self.structure = structure
        self.genomes = list(genomes)
        # the per-layer stacks are views into one flat row per member
        views = structure.parameter_views(structure.fill_stack(self.genomes))
        self.weights: list[np.ndarray] = [w for w, _ in views]
        self.biases: list[np.ndarray] = [b for _, b in views]

    @property
    def size(self) -> int:
        return len(self.genomes)

    def member_plans(self):
        """Per-member plans whose params are views into the stacks."""
        return [
            self.structure.member_plan(
                [
                    (self.weights[level][member], self.biases[level][member])
                    for level in range(len(self.weights))
                ]
            )
            for member in range(self.size)
        ]

    def activate(self, inputs: np.ndarray) -> np.ndarray:
        """One fused step: ``(B, num_inputs)`` -> ``(B, num_outputs)``.

        Every member advances in the same batched ops — the arithmetic
        (term-by-term accumulation in ingress order) mirrors
        :meth:`VectorizedNetwork.activate_batch` exactly, so row ``b``
        equals evaluating ``genomes[b]`` alone.
        """
        plan = self.structure.plan
        x = np.asarray(inputs, dtype=np.float64)
        if x.shape != (self.size, plan.num_inputs):
            raise ValueError(
                f"expected ({self.size}, {plan.num_inputs}) inputs, "
                f"got {x.shape}"
            )
        values = np.zeros((self.size, plan.num_slots))
        values[:, : plan.num_inputs] = x
        for level, base in enumerate(plan.layers):
            gathered = values[:, base.sources]  # (B, rows, fan_in)
            products = gathered * self.weights[level]
            acc = np.zeros(products.shape[:2])
            for term in range(products.shape[2]):
                acc += products[:, :, term]
            pre = acc + self.biases[level]
            values[:, base.slots] = _apply_activations(base, pre)
        out = np.zeros((self.size, plan.num_outputs))
        visible = plan.output_slots >= 0
        out[:, visible] = values[:, plan.output_slots[visible]]
        return out


class CompiledPopulationEvaluator:
    """Lock-step inference over a mixed-shape generation.

    ``members`` is the slot-ordered ``(structure, genome)`` list — one
    entry per (genome, episode) slot, exactly how the backend lays out
    its lock-step envs.  Slots bucket by compiled structure; the
    flattened engine then runs all buckets in one pass per tick.
    """

    def __init__(self, members: list[tuple[CompiledStructure, Genome]]):
        if not members:
            raise ValueError(
                "CompiledPopulationEvaluator needs at least one member"
            )
        grouped: dict[int, tuple[CompiledStructure, list[int]]] = {}
        for slot, (structure, genome) in enumerate(members):
            bucket = grouped.get(id(structure))
            if bucket is None:
                grouped[id(structure)] = (structure, [slot])
            else:
                bucket[1].append(slot)
        self.buckets: list[CompiledBucket] = []
        plans: list = [None] * len(members)
        for structure, slots in grouped.values():
            bucket = CompiledBucket(
                structure, [members[slot][1] for slot in slots]
            )
            self.buckets.append(bucket)
            for plan, slot in zip(bucket.member_plans(), slots):
                plans[slot] = plan
        self._flat = PopulationEvaluator.from_plans(plans)

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    @property
    def rebuilds(self) -> int:
        return self._flat.rebuilds

    def infer(self, tick: Tick) -> np.ndarray:
        """One lock-step tick: a :class:`~repro.envs.rollout.Tick` ->
        the ``(k, num_outputs)`` raw outputs of its live slots."""
        return self._flat.infer(tick)
