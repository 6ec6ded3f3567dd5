"""Fabric bench: farm scaling on the skewed hero/filler workload.

Prices the same adversarial workload as the pipeline bench — a few
long "hero" episodes amid short fillers — through
:func:`repro.fabric.topology.price_farm` at 1, 2, 4 and 8 devices.  The
two-level LPT (individuals into waves, waves onto devices) should keep
the heroes spread across the farm, so 4 devices must recover at least
the issue's 3.2x wall-clock speedup over a single device.  The
measured series lands in ``benchmarks/output/BENCH_fabric.json`` and
is gated by ``repro bench-diff`` via the ``speedup_4dev`` metric.
"""

import json

from benchmarks.conftest import OUTPUT_DIR
from repro.fabric.topology import price_farm
from repro.inax.accelerator import INAXConfig
from repro.inax.pipeline import PipelineConfig
from repro.inax.synthetic import synthetic_population

NUM_PUS = 5
NUM_HEROES = 16
NUM_FILLERS = 64
HERO_STEPS = 400
FILLER_STEPS = 20
DEVICE_COUNTS = (1, 2, 4, 8)


def _skewed_lengths(num_individuals: int) -> list[int]:
    """Heroes scattered through arrival order, fillers elsewhere."""
    lengths = [FILLER_STEPS] * num_individuals
    stride = num_individuals // NUM_HEROES
    for hero in range(NUM_HEROES):
        lengths[hero * stride] = HERO_STEPS
    return lengths


def test_farm_scaling_hits_acceptance_bar():
    config = INAXConfig(num_pus=NUM_PUS, num_pes_per_pu=2)
    total = NUM_HEROES + NUM_FILLERS
    pop = synthetic_population(num_individuals=total, seed=17)
    lengths = _skewed_lengths(total)
    pipeline = PipelineConfig(schedule="lpt")

    walls = {}
    waves = None
    for devices in DEVICE_COUNTS:
        priced = price_farm(config, pop, lengths, devices, pipeline=pipeline)
        walls[devices] = priced["wall_cycles"]
        waves = priced["waves"]

    speedups = {
        devices: walls[1] / walls[devices] for devices in DEVICE_COUNTS
    }
    payload = {
        "workload": {
            "num_pus": NUM_PUS,
            "individuals": total,
            "heroes": NUM_HEROES,
            "hero_steps": HERO_STEPS,
            "filler_steps": FILLER_STEPS,
            "waves": waves,
            "schedule": pipeline.schedule,
        },
        "wall_cycles": {str(d): walls[d] for d in DEVICE_COUNTS},
        "speedups": {str(d): round(speedups[d], 4) for d in DEVICE_COUNTS},
        "speedup_4dev": round(speedups[4], 4),
        "acceptance_floor": 3.2,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / "BENCH_fabric.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nfarm scaling: {payload['speedups']}")
    print(f"[written to {path}]")

    # the acceptance bar: >= 3.2x at 4 devices on the skewed workload
    assert speedups[4] >= 3.2, payload
    # scaling is monotonic: more devices never slows the farm down
    for smaller, larger in zip(DEVICE_COUNTS, DEVICE_COUNTS[1:]):
        assert walls[larger] <= walls[smaller], walls
