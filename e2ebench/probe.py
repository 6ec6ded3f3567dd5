"""Host-speed probe: a fixed, benchmark-owned piece of work.

The host this benchmark was built on changes speed by 30-50% within
minutes, far more than any bound could absorb.  The probe does the
same kind of work as the E3 loop -- Python float arithmetic over
dict-backed bodies, small-object churn and small NumPy calls -- but
none of the program's code, so a program change cannot move it.
Dividing a measured time by the probe time next to it gives the time
on a host where the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

perf_counter = time.perf_counter

#: seconds the probe takes on the reference host (a 2-core AVX-512 Xeon
#: VM, Python 3.11, NumPy 2.4)
REFERENCE_S = 0.055


def host_probe() -> float:
    """Seconds the probe's fixed work takes now."""
    t0 = perf_counter()
    rng = random.Random(7)
    bodies = [
        {"x": rng.uniform(-1, 1), "y": rng.uniform(0, 2), "vx": 0.0,
         "vy": 0.0}
        for _ in range(16)
    ]
    weights = np.linspace(-0.5, 0.5, 64).reshape(8, 8)
    state = np.ones(8)
    for _ in range(3000):
        for body in bodies:
            body["vx"] += (
                -0.1 * math.sin(body["y"]) + 0.01 * body["vx"]
            ) * 0.02
            body["vy"] += (-0.98 + 0.1 * math.cos(body["x"])) * 0.02
            body["x"] += body["vx"] * 0.02
            body["y"] = max(0.0, body["y"] + body["vy"] * 0.02)
        state = np.tanh(weights @ state + 0.1)
        sorted(range(16), key=lambda i: bodies[i]["y"])
    return perf_counter() - t0
