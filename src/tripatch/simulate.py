"""Adaptive time integration and basin-of-attraction sampling.

The stepper is a hand-rolled Dormand–Prince 5(4) embedded pair (the
classic dopri5 tableau) with per-component error control, first-same-
as-last reuse, and two domain-specific rules: a step that drives a
component below zero is clamped to the boundary only when the overshoot
is within the absolute tolerance (otherwise the step is rejected and
retried smaller), and integration stops early once the vector field's
max-norm stays below 1e-9·(1 + ‖state‖) for ten consecutive accepted
steps — a steady-state test on the flow itself, which stays reliable
even when a slow eigenvalue makes state increments tiny long before an
equilibrium is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibria import _halton, find_all_equilibria
from .model import ModelParams, _coeffs, _rhs, as_state
from .topology import apply_topology

__all__ = [
    "StepUnderflowError",
    "Trajectory",
    "basin_sample",
    "integrate",
]

#: Steady state: max-norm of rhs below RHS_TOL·(1+‖state‖) for STEADY_STEPS
#: consecutive accepted steps.
RHS_TOL = 1e-9
STEADY_STEPS = 10

#: Once the vector field drops below SLOW_TOL·(1+‖state‖), step growth is
#: frozen.  Without this the controller inflates h far past the stability
#: region near attractors, and the state hovers at the tolerance floor
#: instead of contracting below the steady-state threshold.
SLOW_TOL = 1e-5

#: Divergence guard (the flow is bounded for valid parameters; this trips
#: only for hand-built pathological inputs).
DIVERGE_NORM = 1e12

# Dormand–Prince 5(4) tableau (Hairer, Nørsett & Wanner, 2nd ed., p. 178).
_A2 = (1 / 5,)
_A3 = (3 / 40, 9 / 40)
_A4 = (44 / 45, -56 / 15, 32 / 9)
_A5 = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
_A6 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# Difference between the 5th- and the embedded 4th-order weights.
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
      -1 / 40)


class StepUnderflowError(RuntimeError):
    """The adaptive step collapsed below 1e-14·t_end."""


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration states; ``times`` strictly increasing.

    ``terminal`` is STEADY (vector field vanished), MAX_TIME (reached
    t_end still moving), or DIVERGED (left the trusted region).
    """

    times: np.ndarray
    states: np.ndarray
    terminal: str


def integrate(params: ModelParams, x0, t_end: float, rel_tol: float = 1e-8,
              abs_tol: float = 1e-10) -> Trajectory:
    """Integrate the flow from ``x0`` for up to ``t_end`` time units."""
    if not (t_end > 0.0):
        raise ValueError(f"t_end must be positive, got {t_end}")
    if not (rel_tol > 0.0 and abs_tol > 0.0):
        raise ValueError("tolerances must be positive")
    y = tuple(float(v) for v in np.maximum(as_state(x0), 0.0))
    c = _coeffs(params)

    times = [0.0]
    states = [y]
    t = 0.0
    k1 = _rhs(c, *y)
    scale0 = 1.0 + max(abs(v) for v in y)
    f0 = max(abs(v) for v in k1)
    h = min(t_end, 0.01 * scale0 / (1.0 + f0))
    h_min = 1e-14 * t_end
    streak = 0
    prev_rhs = math.inf
    terminal = "MAX_TIME"

    while t < t_end:
        h = min(h, t_end - t)
        if h < h_min:
            raise StepUnderflowError(
                f"step size {h:.3e} fell below {h_min:.3e} at t={t:.6g}")

        k2 = _rhs(c, *(y[i] + h * _A2[0] * k1[i] for i in range(3)))
        k3 = _rhs(c, *(y[i] + h * (_A3[0] * k1[i] + _A3[1] * k2[i])
                       for i in range(3)))
        k4 = _rhs(c, *(y[i] + h * (_A4[0] * k1[i] + _A4[1] * k2[i]
                                   + _A4[2] * k3[i]) for i in range(3)))
        k5 = _rhs(c, *(y[i] + h * (_A5[0] * k1[i] + _A5[1] * k2[i]
                                   + _A5[2] * k3[i] + _A5[3] * k4[i])
                       for i in range(3)))
        k6 = _rhs(c, *(y[i] + h * (_A6[0] * k1[i] + _A6[1] * k2[i]
                                   + _A6[2] * k3[i] + _A6[3] * k4[i]
                                   + _A6[4] * k5[i]) for i in range(3)))
        y_new = tuple(y[i] + h * (_B[0] * k1[i] + _B[2] * k3[i]
                                  + _B[3] * k4[i] + _B[4] * k5[i]
                                  + _B[5] * k6[i]) for i in range(3))
        k7 = _rhs(c, *y_new)

        err = 0.0
        for i in range(3):
            e_i = h * (_E[0] * k1[i] + _E[2] * k3[i] + _E[3] * k4[i]
                       + _E[4] * k5[i] + _E[5] * k6[i] + _E[6] * k7[i])
            sc = abs_tol + rel_tol * max(abs(y[i]), abs(y_new[i]))
            err = max(err, abs(e_i) / sc)

        low = min(y_new)
        if err > 1.0 or low < -abs_tol:
            # Reject: error too large, or the orthant was left by more
            # than the absolute tolerance.
            shrink = 0.5 if low < -abs_tol else max(
                0.2, 0.9 * err ** -0.2)
            h *= min(shrink, 0.9)
            continue

        if low < 0.0:
            y_new = tuple(max(0.0, v) for v in y_new)
            k7 = _rhs(c, *y_new)

        t += h
        y = y_new
        k1 = k7  # first-same-as-last
        times.append(t)
        states.append(y)

        norm = max(abs(v) for v in y)
        if not all(math.isfinite(v) for v in y) or norm > DIVERGE_NORM:
            terminal = "DIVERGED"
            break
        rhs_norm = max(abs(v) for v in k7)
        if rhs_norm < RHS_TOL * (1.0 + norm):
            streak += 1
            if streak >= STEADY_STEPS:
                terminal = "STEADY"
                break
        else:
            streak = 0

        grow = min(5.0, max(0.2, 0.9 * (err + 1e-16) ** -0.2))
        if rhs_norm < SLOW_TOL * (1.0 + norm):
            # Freeze growth near an attractor — and if the field norm
            # stopped falling, the step is parked at the edge of the
            # stability region (neutral wobble the error test cannot
            # see), so shrink until contraction resumes.
            grow = min(grow, 1.0 if rhs_norm < 0.999 * prev_rhs else 0.7)
        prev_rhs = rhs_norm
        h *= grow

    return Trajectory(times=np.array(times), states=np.array(states),
                      terminal=terminal)


def basin_sample(topo: str, params: ModelParams, n: int, seed: int,
                 t_end: float = 2000.0, rel_tol: float = 1e-6,
                 abs_tol: float = 1e-9, match_tol: float = 1e-4
                 ) -> dict[str, float]:
    """Attraction fractions over quasi-random starts in (0, 2·max k]³.

    Each start integrates until steady; a STEADY terminus is assigned
    the label of the nearest known equilibrium within ``match_tol``
    (max-norm), or UNMATCHED if none is close enough.  Trajectories
    ending otherwise contribute to the MAX_TIME / DIVERGED keys, so the
    fractions always sum to 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    params = apply_topology(params, topo)
    known = find_all_equilibria(topo, params, seed=seed)
    box = 2.0 * float(np.max(params.k))
    starts = _halton(3, n, seed) * box
    starts = np.maximum(starts, 1e-9 * box)

    counts: dict[str, int] = {}
    for row in starts:
        traj = integrate(params, row, t_end, rel_tol=rel_tol, abs_tol=abs_tol)
        if traj.terminal != "STEADY":
            key = traj.terminal
        else:
            end = traj.states[-1]
            best, dist = None, math.inf
            for rec in known:
                d = float(np.max(np.abs(rec.point - end)))
                if d < dist:
                    best, dist = rec.label, d
            key = best if dist <= match_tol else "UNMATCHED"
        counts[key] = counts.get(key, 0) + 1
    return {label: cnt / n for label, cnt in sorted(counts.items())}
