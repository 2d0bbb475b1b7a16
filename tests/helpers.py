"""Helpers the test modules share: parameter sets, and the exact bits of
floats and of equilibrium records."""

from __future__ import annotations

import numpy as np

from tripatch.model import ModelParams


def build(r, k, m6):
    """A parameter set from r, k and the off-diagonal rates
    (m12, m13, m21, m23, m31, m32)."""
    m = np.zeros((3, 3))
    (m[0, 1], m[0, 2], m[1, 0], m[1, 2], m[2, 0], m[2, 1]) = m6
    return ModelParams(np.array(r), np.array(k), m)


def symmetric_full():
    """FULL with every growth rate, capacity and migration rate 1."""
    m = np.full((3, 3), 1.0) * (1 - np.eye(3))
    return ModelParams(np.ones(3), np.ones(3), m)


def hexes(a):
    """Each entry's ``float.hex``: exact, with the sign of zero, NaN as 'nan'."""
    return [float.hex(v) for v in np.asarray(a, dtype=float).ravel().tolist()]


def bits(records):
    """Equilibrium records as comparable tuples, every float by its exact bits."""
    return [(r.label, r.feasible, float(r.residual).hex(),
             [v.hex() for v in r.point.tolist()]) for r in records]
