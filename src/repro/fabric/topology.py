"""Farm topology and the farm's analytic pricing.

The ``inax`` backend scales the single simulated INAX device into an
N-device farm (``--devices N``; PAPERS.md's distributed-FPGA
neuroevolution ran 432 of them).  This module holds what sits around
that farm:

* :class:`FarmTopology` — the farm shape the island model runs over
  (devices, islands, the migration policy);
* :func:`price_farm` — the analytic twin of a healthy farm, for the
  scaling bench.

Work placement itself (:func:`repro.inax.farm.assign_waves`) and
device health (:class:`repro.inax.farm.FabricSupervisor`) live with the
device in :mod:`repro.inax.farm`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.inax.accelerator import INAXConfig, schedule_waves
from repro.inax.farm import assign_waves
from repro.inax.pipeline import PipelineConfig, pack_waves
from repro.inax.pu import _static_step_cycles

__all__ = ["FarmTopology", "price_farm"]


@dataclass(frozen=True)
class FarmTopology:
    """Shape of the simulated INAX farm.

    ``devices`` INAX devices evaluate waves in (cycle-domain) parallel.
    ``islands`` sub-populations evolve independently; island ``i`` is
    homed on device ``i % devices``, and that home decides whether the
    island's migration edges are healthy at a barrier.  Migration moves
    ``migration_size`` champions around the island ring every
    ``migration_interval`` generations (0 disables migration).
    """

    devices: int = 1
    islands: int = 1
    migration_interval: int = 0
    migration_size: int = 0

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ValueError(f"devices must be >= 1, got {self.devices}")
        if self.islands < 1:
            raise ValueError(f"islands must be >= 1, got {self.islands}")
        if self.migration_interval < 0:
            raise ValueError(
                f"migration_interval must be >= 0, got {self.migration_interval}"
            )
        if self.migration_size < 0:
            raise ValueError(
                f"migration_size must be >= 0, got {self.migration_size}"
            )

    def island_device(self, island: int) -> int:
        """The device an island is homed on (migration health rule)."""
        return island % self.devices

    def migrates(self, generation: int) -> bool:
        """Is the end of ``generation`` a migration barrier?"""
        return (
            self.islands > 1
            and self.migration_interval > 0
            and self.migration_size > 0
            and (generation + 1) % self.migration_interval == 0
        )

    def to_dict(self) -> dict:
        return asdict(self)


def price_farm(
    inax_config: INAXConfig,
    net_configs: list,
    episode_lengths: list[int],
    devices: int,
    pipeline: PipelineConfig | None = None,
) -> dict:
    """Analytic farm pricing: the scaling-bench twin of the farm.

    Packs the workload into waves exactly like one device, LPT-assigns
    them across ``devices`` healthy devices, and prices each device's
    subset through :func:`~repro.inax.accelerator.schedule_waves` — so
    the multi-device scaling numbers use the identical per-wave cycle
    semantics as a functional run.  Wall-clock is the max over devices
    (they run in parallel in the cycle domain).
    """
    pipeline = pipeline if pipeline is not None else PipelineConfig()
    step_fn = lambda c: _static_step_cycles(  # noqa: E731
        c, inax_config.num_pes_per_pu, inax_config.pe_costs,
        inax_config.pu_costs,
    )
    pack_costs: list
    if pipeline.schedule == "arrival":
        pack_costs = [None] * len(net_configs)
    else:
        pack_costs = [
            float(length) * step_fn(config)
            for config, length in zip(net_configs, episode_lengths)
        ]
    waves = pack_waves(pack_costs, inax_config.num_pus, pipeline.schedule)
    wave_costs = [
        max((pack_costs[i] or 1.0) for i in indices) for indices in waves
    ]
    assignment = assign_waves(wave_costs, list(range(devices)))
    reports = {}
    for device, ordinals in sorted(assignment.items()):
        reports[device] = schedule_waves(
            inax_config,
            net_configs,
            episode_lengths,
            [waves[ordinal] for ordinal in ordinals],
            prefetch=pipeline.prefetch,
        )
    device_walls = {
        device: report.total_cycles for device, report in reports.items()
    }
    return {
        "devices": devices,
        "waves": len(waves),
        "per_device": reports,
        "device_walls": device_walls,
        "wall_cycles": max(device_walls.values()) if device_walls else 0.0,
    }
