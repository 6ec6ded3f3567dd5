"""Fixture: NUM002 — operations without a bit-equal twin (never imported)."""

import math

import numpy as np


def activation(x):
    return math.tanh(x)  # VIOLATION NUM002


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))  # VIOLATION NUM002


def kernel_speed(vx, vy):
    energy = vx**2 + vy * vy  # VIOLATION NUM002
    energy **= 0.5  # VIOLATION NUM002
    bound = math.pow(vx, 2)  # VIOLATION NUM002
    legacy = vx**2  # repro: noqa[NUM002]
    fine = np.tanh(vx) + np.exp(vy) + np.sqrt(vx * vx + vy * vy)  # ok
    return energy, bound, legacy, fine
