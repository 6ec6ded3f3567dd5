"""Numerics tripwire: the batch kernels' NumPy ops are bit-equal to the
scalar oracles' Python/``math`` ops on this host.

:class:`repro.envs.batch.LunarLanderBatch` is bit-identical to
:meth:`LunarLander._step` only because every operation it uses rounds
exactly like its scalar counterpart: ``np.sin``/``np.cos``/``np.sqrt``
like ``math.sin``/``math.cos``/``math.sqrt``, ``np.abs`` like ``abs``,
``np.remainder`` like Python's float ``%``, and array ``v * v`` like
``x * x``.  A NumPy build or libm where one of these diverges would
silently fork fitness between the kernel and the scalar path, so this
test compares each pair over at least 10^5 samples drawn from the
ranges the kernel feeds them, plus the edge values, and fails loudly.

Recorded finding (10^6 samples each from a standard normal,
uniform(-5, 5) and uniform(-10, 10), NumPy 2.4 on x86-64 glibc):
Python's ``x**2`` (C ``pow``) differs from ``x * x`` in 825-881 samples
per million, and ``math.pow(x, 2)`` agrees with ``x**2`` exactly.
``np.square(v)`` and ``np.power(v, 2)`` round like ``v * v``, so they
carry the same ~860 mismatches against a scalar ``x**2``, and
``np.power`` with an array exponent differs in ~27,000.  No NumPy
expression reproduces ``x**2`` here, which is why NUM002 forbids ``**``
in kernel code and why CartPole (whose ``_step`` squares with ``**``)
and every other env using ``**`` stay on ``ScalarEnvBatch`` until their
oracle writes the product out.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

SAMPLES = 100_000


def _edges(*values: float) -> np.ndarray:
    return np.array(
        [0.0, -0.0, *values, *(-v for v in values)], dtype=np.float64
    )


def _samples(low: float, high: float, seed: int, *edges: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [rng.uniform(low, high, SAMPLES), _edges(*edges)]
    )


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


# angles stay in [-pi, pi] after each step's wrap; one step's update can
# carry them a little past it before the wrap
ANGLES = _samples(-4.0, 4.0, 1, math.pi, math.pi / 2, 2 * math.pi)
# squared distances and speeds
SQUARES = np.abs(_samples(0.0, 400.0, 2, 1e-300, 1.0, 2.0))
# angle + pi before the wrap, including exact multiples of the period
WRAPPED = _samples(-1.0, 2 * math.pi + 1.0, 3, math.pi, 2 * math.pi)
STATES = _samples(-20.0, 20.0, 4, 1e-160, 1.5, 2.8)


@pytest.mark.parametrize(
    "vector,scalar,values",
    [
        (np.sin, math.sin, ANGLES),
        (np.cos, math.cos, ANGLES),
        (np.sqrt, math.sqrt, SQUARES),
        (np.abs, abs, STATES),
    ],
    ids=["sin", "cos", "sqrt", "abs"],
)
def test_unary_ops_bit_equal(vector, scalar, values):
    expected = [scalar(x) for x in values.tolist()]
    assert _bits(vector(values)) == _bits(expected)


def test_remainder_matches_python_modulo():
    period = 2 * math.pi
    expected = [x % period for x in WRAPPED.tolist()]
    assert _bits(np.remainder(WRAPPED, period)) == _bits(expected)


def test_product_matches_python_product():
    expected = [x * x for x in STATES.tolist()]
    assert _bits(STATES * STATES) == _bits(expected)
