"""Structural-batching genome compiler for the software path.

A software backend that decodes genome by genome pays a *decode* cost
every generation: ``CreateNet`` pruning + ASAP layering, the ``_NetPlan``
lowering, and the HW-config compilation.  A decode cache keyed on
:meth:`~repro.neat.genome.Genome.structural_hash`, which includes
weights, would hit only unchanged elites, and the weight-mutated bulk
of every generation would re-decode from scratch even though its
*topology* is identical to its parents'.

This package exploits that: genomes bucket by
:meth:`~repro.neat.genome.Genome.shape_key` (the weights-excluded
topology signature), each shape compiles **once** into a
:class:`CompiledStructure` (the shared execution plan plus parameter
fill recipes), and a generation's members become stacked weight/bias
tensors over that shared plan — so an entire bucket advances one
lock-step env step in a single batched matmul instead of per-genome
graph walks, and the cross-generation :class:`CompileCache` keeps
hitting where a weighted-hash cache would miss.

Pieces:

* :class:`CompiledStructure` — one topology signature's compiled plan
  (reuses :class:`~repro.neat.vectorized._NetPlan`) plus the recipes
  that fill any same-shape genome's weights/biases into plan layout;
* :class:`CompileCache` — cross-generation LRU keyed by shape key,
  warmable from a restored checkpoint population;
* :class:`CompiledBucket` — stacked ``(B, rows, fan_in)`` parameter
  tensors for one bucket, with a fused batched forward;
* :class:`CompiledPopulationEvaluator` — lock-step inference over a
  mixed-shape generation, delegating the per-tick work to the shared
  :class:`~repro.neat.vectorized.PopulationEvaluator` engine via
  per-member parameter views (bit-identical to ``cpu``).

The ``cpu-compiled`` backend in :mod:`repro.core.backends` wires this
into the evaluation loop.
"""

from repro.compile.cache import CompileCache
from repro.compile.evaluator import CompiledBucket, CompiledPopulationEvaluator
from repro.compile.structure import CompiledStructure

__all__ = [
    "CompiledStructure",
    "CompileCache",
    "CompiledBucket",
    "CompiledPopulationEvaluator",
]
