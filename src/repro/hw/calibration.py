"""Calibration constants for the platform cost models.

The paper measured wall-clock seconds on a desktop i7 (SW), a GTX 1080
(GPU reference), and a ZCU104 FPGA (INAX) — hardware this offline
reproduction does not have.  Instead, every platform's runtime is a
*cost model* over the same workload counts (environment steps, MACs,
genome sizes, accelerator cycles), and all free constants live here.

The constants were set **once**, from first principles (interpreted
per-node dispatch ~ microseconds, framework dispatch on a dynamic GPU
graph ~ milliseconds, 200 MHz FPGA fabric clock, published package
powers), then cross-checked against the paper's own ratios (E3-CPU
runtime column of Fig 9(b), the ~60%/~97% profile splits, the 30x /
71x / 97% headlines) and never tuned per-experiment.  Absolute seconds
are not expected to match the authors' testbed; EXPERIMENTS.md records
paper-vs-measured for every figure.

Derivations
-----------
* neat-python's ``activate`` walks per-node Python lists and dicts:
  ~8 us per node and ~2 us per connection at ~2.3 GHz, plus ~20 us of
  call marshalling — an evolved 10-node/20-connection network costs
  ~140 us per inference, which against a ~4 us NumPy env step gives the
  ~30:1 evaluate:env ratio Fig 1(b) implies.
* a GPU "evaluate" of a NEAT genome cannot use a static batched graph
  (every individual's topology differs and changes each generation), so
  each step pays framework dispatch on a freshly-wired dynamic graph
  (~2.5 ms, TF-session / per-node-kernel class) plus PCIe latency —
  matching Fig 9(b), where E3-GPU is ~20-40x *slower* than E3-CPU.
"""

from __future__ import annotations

__all__ = [
    "FPGA_CLOCK_HZ",
    "CPU_SECONDS_PER_MAC",
    "CPU_SECONDS_PER_NODE",
    "CPU_SECONDS_PER_ACTIVATE_CALL",
    "CPU_SECONDS_PER_ENV_STEP",
    "ENV_STEP_SECONDS",
    "CPU_SECONDS_PER_GENOME_EVOLVE",
    "CPU_SECONDS_PER_CONN_CREATENET",
    "GPU_DISPATCH_SECONDS",
    "GPU_KERNEL_LAUNCH_SECONDS",
    "GPU_TRANSFER_SECONDS_PER_BYTE",
    "GPU_SECONDS_PER_MAC",
    "CPU_POWER_WATTS",
    "GPU_PLATFORM_POWER_WATTS",
    "FPGA_POWER_WATTS",
    "EDGE_CPU_POWER_WATTS",
]

# ------------------------------------------------------------------ clocks
#: INAX fabric clock on the ZCU104 (typical timing closure for a 16 nm
#: UltraScale+ dataflow design).
FPGA_CLOCK_HZ: float = 200e6

# ----------------------------------------------------------- CPU (python)
# The paper's SW baseline is neat-python [25]: an interpreted, per-node
# dict-driven forward pass.
CPU_SECONDS_PER_MAC: float = 2.0e-6
CPU_SECONDS_PER_NODE: float = 8.0e-6
#: fixed overhead per activate() call (argument marshalling, list setup)
CPU_SECONDS_PER_ACTIVATE_CALL: float = 2.0e-5
#: one env.step() of a Gym classic-control task (NumPy-backed)
CPU_SECONDS_PER_ENV_STEP: float = 4.0e-6

#: per-environment env.step() costs: the two Box2D tasks pay a contact
#: solver per step, classic control is a handful of NumPy ops.  These
#: model the paper's CPU running Gym, not this package's own envs: the
#: batched LunarLander kernel (``repro.envs.batch``) makes the software
#: loop faster but leaves the modeled platform seconds unchanged.
ENV_STEP_SECONDS: dict[str, float] = {
    "cartpole": 3.0e-6,
    "acrobot": 8.0e-6,  # RK4 integration
    "mountain_car": 3.0e-6,
    "bipedal_walker": 5.0e-5,  # Box2D articulated contact solve
    "lunar_lander": 2.5e-5,  # Box2D rigid body + contacts
    "pendulum": 4.0e-6,
    "pong": 1.0e-5,  # ALE-class emulator step
    "mountain_car_continuous": 3.0e-6,
}
#: evolve-side cost per genome per generation (mutation, crossover,
#: speciation distance computations), amortized
CPU_SECONDS_PER_GENOME_EVOLVE: float = 1.0e-4
#: CreateNet cost per connection (dependency solve + decode)
CPU_SECONDS_PER_CONN_CREATENET: float = 2.0e-6

# ------------------------------------------------------------------- GPU
# NEAT is "generally not efficient on GPUs [36], because of small batch
# size and dynamic topology" (§VI-A): every individual is its own tiny
# dynamic graph, so framework dispatch dominates.
GPU_DISPATCH_SECONDS: float = 2.5e-3  # per individual per env step
GPU_KERNEL_LAUNCH_SECONDS: float = 6.0e-5  # per layer kernel
GPU_TRANSFER_SECONDS_PER_BYTE: float = 1.0e-9  # ~1 GB/s effective PCIe
GPU_SECONDS_PER_MAC: float = 1.0e-9  # compute is never the bottleneck

# ------------------------------------------------------------------ power
#: desktop i7 package power under single-core CPython load
CPU_POWER_WATTS: float = 25.0
#: GTX 1080 board (non-idle, small-kernel regime) plus its host core
GPU_PLATFORM_POWER_WATTS: float = 95.0
#: ZCU104 programmable-logic power for the INAX design (Vivado
#: post-routing class estimate; the PS side is accounted separately)
FPGA_POWER_WATTS: float = 4.0
#: the ZCU104's embedded ARM cores running evolve + env in the E3 setting
EDGE_CPU_POWER_WATTS: float = 6.0
