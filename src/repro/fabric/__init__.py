"""Island-model NEAT over the INAX device farm.

The farm itself is the ``inax`` backend on ``devices > 1``
(:class:`repro.core.backends.INAXBackend`, with wave placement and
device health in :mod:`repro.inax.farm`).  This package holds what
runs on top of it, built so that recovery is a pure function of
``(seed, farm topology, FaultPlan)``:

* :mod:`repro.fabric.topology` — the farm shape and
  :func:`price_farm`, the farm's analytic pricing;
* :mod:`repro.fabric.islands` — the K-island evolution driver with
  seeded, skip-and-log ring migration.

See ``docs/fabric.md`` for the topology, the eviction ladder, and the
migration determinism contract.
"""

from repro.fabric.islands import (
    KEY_STRIDE,
    IslandModel,
    IslandRunResult,
    island_seed,
)
from repro.fabric.topology import FarmTopology, price_farm

__all__ = [
    "FarmTopology",
    "price_farm",
    "IslandModel",
    "IslandRunResult",
    "KEY_STRIDE",
    "island_seed",
]
