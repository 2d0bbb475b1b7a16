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

The stepper is written twice: in scalar form (``_advance``, behind
``integrate``) and batched over starts (``_integrate_lanes``, behind
``basin_sample``).  ``_advance`` is unrolled over the three patches on
plain floats.  The batch holds its lanes in the oracle's layout, a (3, n)
state with one column per start, and shares ``newton``'s lane kernels:
``_rhs_lanes``, where each lane carries its own coefficient column as the
oracle's lanes do, ``_abs_max`` for the max-norms and ``_col_min`` for the
lowest patch.  ``_abs_max`` takes Python's ``max`` of absolute values,
which are never -0.0, as ``maximum(a0, fmax(a0, fmax(a1, a2)))``:
``fmax`` skips NaN where ``max`` skips a later one, and ``maximum``
passes on a NaN in the first row, which ``max`` returns.  Each lane has
its own time, step, stage cache and steady-state streak, and lanes are
accepted, rejected and retired by mask.  Both forms perform the same
float operations in the same order (the C library's ``pow`` for the
controller powers, Python's ``max``/``min`` tie and NaN rules), so each
start ends in the same terminal state as ``integrate`` from it, bit for
bit.  The last few live lanes finish in ``_advance``, because a handful
of slow starts would otherwise keep a nearly empty batch stepping; each
carries its time, state, next step, steady-state streak and last rhs
norm, and ``_advance`` recomputes the rhs at the state, its cached stage.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .equilibria import _halton, find_all_equilibria
from .model import (ModelParams, NumericalError, ParameterError, _coeffs, _count,
                    _positive, _rhs, as_state)
from .newton import _abs_max, _col_min, _lane_coeffs, _rhs_lanes
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

#: Divergence guard, relative to the capacities: a state whose max-norm
#: passes DIVERGE_NORM·(1 + max k) has DIVERGED, as has a non-finite one.
#: The flow is bounded for valid parameters, and scaling every k scales
#: it, so this trips only for hand-built pathological inputs.
DIVERGE_NORM = 1e12

#: ``_integrate_lanes`` finishes its last this-many live lanes one at a
#: time in ``_advance``: a few starts take ~40x the median step count, and
#: a batch step costs about 30 scalar ones (≈0.32 ms at 24 lanes against
#: ≈11 µs per accepted scalar step on a 2-vCPU x86_64 VM).  CPU ms per
#: 200-start draw over the 50 acceptance-10 draws, median of 15 rounds that
#: interleave the values, by handoff: 12: 49.4, 16: 45.6, 24: 47.2,
#: 32: 43.6, 48: 47.1; none beats 24 in more than 8 of the 15 rounds.
HANDOFF_LANES = 24

#: Relative and absolute step tolerances of ``basin_sample``'s trajectories.
_BASIN_TOLS = (1e-6, 1e-9)

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


class StepUnderflowError(NumericalError):
    """The adaptive step collapsed below 1e-14·t_end."""


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration states; ``times`` strictly increasing.

    ``terminal`` is STEADY (vector field vanished), MAX_TIME (reached
    t_end still moving), or DIVERGED (a state not finite, or with a
    max-norm above ``DIVERGE_NORM·(1 + max k)``).
    """

    times: np.ndarray
    states: np.ndarray
    terminal: str


def integrate(params: ModelParams, x0, t_end: float, rel_tol: float = 1e-8,
              abs_tol: float = 1e-10) -> Trajectory:
    """Integrate the flow from ``x0`` for up to ``t_end`` time units."""
    _positive("t_end", t_end)
    _positive("tolerances", rel_tol, abs_tol)
    y = tuple(float(v) for v in np.maximum(as_state(x0), 0.0))
    c = _coeffs(params)
    scale0 = 1.0 + max(abs(v) for v in y)
    f0 = max(abs(v) for v in _rhs(c, *y))
    h = min(t_end, 0.01 * scale0 / (1.0 + f0))
    terminal, _, times, states = _advance(c, 0.0, y, h, 0, math.inf, t_end,
                                          rel_tol, abs_tol, True)
    return Trajectory(times=np.array(times), states=np.array(states),
                      terminal=terminal)


def _advance(c: tuple, t: float, y: tuple, h: float, streak: int,
             prev_rhs: float, t_end: float, rel_tol: float, abs_tol: float,
             record: bool) -> tuple[str, tuple, list, list]:
    """Step one trajectory from a step attempt's state to its terminus.

    ``h`` is the step to try next, ``streak`` the count of consecutive
    small-rhs steps and ``prev_rhs`` the rhs norm of the last accepted
    step; the first stage is the rhs at ``y`` (first-same-as-last).  Returns
    ``(terminal, y, times, states)``; with ``record`` the lists hold the
    given state and every accepted one, otherwise they are empty.  The
    seven stage evaluations write ``_rhs`` out inline, operation for
    operation; the rare clamped re-evaluation calls it.
    """
    times, states = ([t], [y]) if record else ([], [])
    h_min = 1e-14 * t_end
    terminal = "MAX_TIME"
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _A2, _A3, _A4, _A5, _A6
    b1, _, b3, b4, b5, b6 = _B
    e1, _, e3, e4, e5, e6, e7 = _E
    # _rhs's coefficients; q1..q3 are the capacities.
    r1, r2, r3, q1, q2, q3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    bound = DIVERGE_NORM * (1.0 + max(q1, q2, q3))
    y1, y2, y3 = y
    k11, k12, k13 = _rhs(c, y1, y2, y3)

    while t < t_end:
        h = min(h, t_end - t)
        if h < h_min:
            raise StepUnderflowError(
                f"step size {h:.3e} fell below {h_min:.3e} at t={t:.6g}")

        ha = h * a21
        p1, p2, p3 = y1 + ha * k11, y2 + ha * k12, y3 + ha * k13
        k21 = r1 * p1 * (1.0 - p1 / q1) + m12 * p2 + m13 * p3 - o1 * p1
        k22 = r2 * p2 * (1.0 - p2 / q2) + m21 * p1 + m23 * p3 - o2 * p2
        k23 = r3 * p3 * (1.0 - p3 / q3) + m31 * p1 + m32 * p2 - o3 * p3
        p1 = y1 + h * (a31 * k11 + a32 * k21)
        p2 = y2 + h * (a31 * k12 + a32 * k22)
        p3 = y3 + h * (a31 * k13 + a32 * k23)
        k31 = r1 * p1 * (1.0 - p1 / q1) + m12 * p2 + m13 * p3 - o1 * p1
        k32 = r2 * p2 * (1.0 - p2 / q2) + m21 * p1 + m23 * p3 - o2 * p2
        k33 = r3 * p3 * (1.0 - p3 / q3) + m31 * p1 + m32 * p2 - o3 * p3
        p1 = y1 + h * (a41 * k11 + a42 * k21 + a43 * k31)
        p2 = y2 + h * (a41 * k12 + a42 * k22 + a43 * k32)
        p3 = y3 + h * (a41 * k13 + a42 * k23 + a43 * k33)
        k41 = r1 * p1 * (1.0 - p1 / q1) + m12 * p2 + m13 * p3 - o1 * p1
        k42 = r2 * p2 * (1.0 - p2 / q2) + m21 * p1 + m23 * p3 - o2 * p2
        k43 = r3 * p3 * (1.0 - p3 / q3) + m31 * p1 + m32 * p2 - o3 * p3
        p1 = y1 + h * (a51 * k11 + a52 * k21 + a53 * k31 + a54 * k41)
        p2 = y2 + h * (a51 * k12 + a52 * k22 + a53 * k32 + a54 * k42)
        p3 = y3 + h * (a51 * k13 + a52 * k23 + a53 * k33 + a54 * k43)
        k51 = r1 * p1 * (1.0 - p1 / q1) + m12 * p2 + m13 * p3 - o1 * p1
        k52 = r2 * p2 * (1.0 - p2 / q2) + m21 * p1 + m23 * p3 - o2 * p2
        k53 = r3 * p3 * (1.0 - p3 / q3) + m31 * p1 + m32 * p2 - o3 * p3
        p1 = y1 + h * (a61 * k11 + a62 * k21 + a63 * k31 + a64 * k41
                       + a65 * k51)
        p2 = y2 + h * (a61 * k12 + a62 * k22 + a63 * k32 + a64 * k42
                       + a65 * k52)
        p3 = y3 + h * (a61 * k13 + a62 * k23 + a63 * k33 + a64 * k43
                       + a65 * k53)
        k61 = r1 * p1 * (1.0 - p1 / q1) + m12 * p2 + m13 * p3 - o1 * p1
        k62 = r2 * p2 * (1.0 - p2 / q2) + m21 * p1 + m23 * p3 - o2 * p2
        k63 = r3 * p3 * (1.0 - p3 / q3) + m31 * p1 + m32 * p2 - o3 * p3
        z1 = y1 + h * (b1 * k11 + b3 * k31 + b4 * k41 + b5 * k51 + b6 * k61)
        z2 = y2 + h * (b1 * k12 + b3 * k32 + b4 * k42 + b5 * k52 + b6 * k62)
        z3 = y3 + h * (b1 * k13 + b3 * k33 + b4 * k43 + b5 * k53 + b6 * k63)
        k71 = r1 * z1 * (1.0 - z1 / q1) + m12 * z2 + m13 * z3 - o1 * z1
        k72 = r2 * z2 * (1.0 - z2 / q2) + m21 * z1 + m23 * z3 - o2 * z2
        k73 = r3 * z3 * (1.0 - z3 / q3) + m31 * z1 + m32 * z2 - o3 * z3

        err = max(0.0, abs(h * (e1 * k11 + e3 * k31 + e4 * k41 + e5 * k51
                                + e6 * k61 + e7 * k71))
                  / (abs_tol + rel_tol * max(abs(y1), abs(z1))),
                  abs(h * (e1 * k12 + e3 * k32 + e4 * k42 + e5 * k52
                           + e6 * k62 + e7 * k72))
                  / (abs_tol + rel_tol * max(abs(y2), abs(z2))),
                  abs(h * (e1 * k13 + e3 * k33 + e4 * k43 + e5 * k53
                           + e6 * k63 + e7 * k73))
                  / (abs_tol + rel_tol * max(abs(y3), abs(z3))))

        low = min(z1, z2, z3)
        if err > 1.0 or low < -abs_tol:
            # Reject: error too large, or the orthant was left by more
            # than the absolute tolerance.
            shrink = 0.5 if low < -abs_tol else max(
                0.2, 0.9 * err ** -0.2)
            h *= min(shrink, 0.9)
            continue

        if low < 0.0:
            z1, z2, z3 = max(0.0, z1), max(0.0, z2), max(0.0, z3)
            k71, k72, k73 = _rhs(c, z1, z2, z3)

        t += h
        y1, y2, y3 = z1, z2, z3
        k11, k12, k13 = k71, k72, k73  # first-same-as-last
        if record:
            times.append(t)
            states.append((y1, y2, y3))

        norm = max(abs(y1), abs(y2), abs(y3))
        if not (math.isfinite(y1) and math.isfinite(y2)
                and math.isfinite(y3)) or not norm <= bound:
            terminal = "DIVERGED"
            break
        rhs_norm = max(abs(k11), abs(k12), abs(k13))
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

    return terminal, (y1, y2, y3), times, states


def _integrate_lanes(c: tuple, starts: np.ndarray, t_end: float,
                     rel_tol: float, abs_tol: float
                     ) -> tuple[list[str], np.ndarray]:
    """Integrate each nonnegative row of ``starts`` as one lane of a batch.

    Every lane repeats :func:`_advance`'s arithmetic operation for
    operation, so its terminal and end state equal those of
    :func:`integrate` bit for bit.  Lanes retire as they end; once at
    most ``HANDOFF_LANES`` are live, each finishes in :func:`_advance`.
    Returns the terminals and the (n, 3) end states, in row order.
    """
    n = len(starts)
    # One coefficient column per lane, compacted with the lanes: products
    # of same-shape operands cost far less than broadcasting one column.
    K = _lane_coeffs([c] * n)
    terminals: list[str] = [""] * n
    ends = np.empty((n, 3))
    lane = np.arange(n)
    y = np.array(starts, dtype=float).T.copy()
    k1 = _rhs_lanes(K, y)
    h = 0.01 * (1.0 + _abs_max(y)) / (1.0 + _abs_max(k1))
    h = np.where(h < t_end, h, t_end)
    t = np.zeros(n)
    streak = np.zeros(n, dtype=int)
    prev_rhs = np.full(n, math.inf)
    h_min = 1e-14 * t_end
    bound = DIVERGE_NORM * (1.0 + max(c[3], c[4], c[5]))
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _A2, _A3, _A4, _A5, _A6
    b1, _, b3, b4, b5, b6 = _B
    e1, _, e3, e4, e5, e6, e7 = _E

    while len(lane) > HANDOFF_LANES:
        h = np.minimum(h, t_end - t)  # both positive: no tie rule applies
        if (h < h_min).any():
            i = int(np.argmax(h < h_min))
            raise StepUnderflowError(f"step size {h[i]:.3e} fell below "
                                     f"{h_min:.3e} at t={t[i]:.6g}")
        H = np.empty(y.shape)  # each lane's step, in every patch row
        H[:] = h

        k2 = _rhs_lanes(K, y + H * a21 * k1)
        k3 = _rhs_lanes(K, y + H * (a31 * k1 + a32 * k2))
        k4 = _rhs_lanes(K, y + H * (a41 * k1 + a42 * k2 + a43 * k3))
        k5 = _rhs_lanes(K, y + H * (a51 * k1 + a52 * k2 + a53 * k3
                                    + a54 * k4))
        k6 = _rhs_lanes(K, y + H * (a61 * k1 + a62 * k2 + a63 * k3
                                    + a64 * k4 + a65 * k5))
        y_new = y + H * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
        k7 = _rhs_lanes(K, y_new)

        e = H * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7)
        # Python's max(|y_i|, |z_i|) and max(0.0, q1, q2, q3): a live lane's
        # state is finite and no operand is -0.0, so fmax, which skips a
        # NaN, picks what Python's max picks.
        q = np.abs(e) / (abs_tol + rel_tol * np.fmax(np.abs(y), np.abs(y_new)))
        err = np.fmax(np.fmax.reduce(q), 0.0)

        low = _col_min(y_new)
        out = low < -abs_tol
        acc = ~((err > 1.0) | out)
        clamp = acc & (low < 0.0)
        if clamp.any():
            z = y_new[:, clamp]
            y_new[:, clamp] = z = np.where(z > 0.0, z, 0.0)
            k7[:, clamp] = _rhs_lanes(K[:, clamp], z)
        t = np.where(acc, t + h, t)
        y = np.where(acc, y_new, y)
        k1 = np.where(acc, k7, k1)

        # Python's max(|y1|, |y2|, |y3|) where the state is finite; maximum
        # passes a NaN on, so the one test also catches a non-finite state.
        ay = np.abs(y)
        norm = np.maximum(np.maximum(ay[0], ay[1]), ay[2])
        diverged = acc & ~(norm <= bound)
        rhs_norm = _abs_max(k1)
        scale = 1.0 + norm
        small = rhs_norm < RHS_TOL * scale
        streak = np.where(acc, np.where(small, streak + 1, 0), streak)
        steady = acc & small & (streak >= STEADY_STEPS)

        # One power over every lane: err + 1e-16 where accepted, err where
        # rejected on error, and 1.0 where the orthant was left, since those
        # lanes shrink by 0.5 whatever their error, which may be 0.0.
        # float_power calls the C library's pow on each element, as Python's
        # float ** does; np.power may take a SIMD path that misses by an ulp.
        # The factors are positive and never NaN, so maximum and minimum
        # pick what Python's max and min pick.
        g = np.maximum(0.9 * np.float_power(
            np.where(acc, err + 1e-16, np.where(out, 1.0, err)), -0.2), 0.2)
        grow = np.minimum(g, 5.0)
        cap = np.where(rhs_norm < 0.999 * prev_rhs, 1.0, 0.7)
        slow = rhs_norm < SLOW_TOL * scale
        h = h * np.where(acc, np.where(slow, np.minimum(grow, cap), grow),
                         np.where(out, 0.5, np.minimum(g, 0.9)))
        prev_rhs = np.where(acc, rhs_norm, prev_rhs)

        done = diverged | steady | (t >= t_end)
        if done.any():
            for i in np.flatnonzero(done).tolist():
                terminals[lane[i]] = ("DIVERGED" if diverged[i] else
                                      "STEADY" if steady[i] else "MAX_TIME")
            ends[lane[done]] = y[:, done].T
            keep = ~done
            lane, t, y, k1, h = (lane[keep], t[keep], y[:, keep], k1[:, keep],
                                 h[keep])
            streak, prev_rhs, K = streak[keep], prev_rhs[keep], K[:, keep]

    for i, j in enumerate(lane.tolist()):
        terminals[j], ends[j], _, _ = _advance(
            c, float(t[i]), y[:, i].tolist(), float(h[i]), int(streak[i]),
            float(prev_rhs[i]), t_end, rel_tol, abs_tol, False)
    return terminals, ends


def basin_sample(topo: str, params: ModelParams, n: int, seed: int,
                 t_end: float = 2000.0, match_tol: float = 1e-4
                 ) -> dict[str, float]:
    """Attraction fractions over quasi-random starts in (0, 2·max k]³.

    Each start integrates until steady; a STEADY terminus is assigned
    the label of the nearest known equilibrium within ``match_tol``
    (max-norm), or UNMATCHED if none is close enough.  Trajectories
    ending otherwise contribute to the MAX_TIME / DIVERGED keys, so the
    fractions always sum to 1.
    """
    n = _count("n", n, 1)
    _positive("t_end", t_end)
    if not (math.isfinite(match_tol) and match_tol >= 0.0):
        raise ParameterError(
            f"match_tol must be finite and >= 0, got {match_tol}")
    params = apply_topology(params, topo)
    known = find_all_equilibria(topo, params, seed=seed)
    box = 2.0 * float(np.max(params.k))
    starts = _halton(3, n, seed) * box
    starts = np.maximum(starts, 1e-9 * box)

    keys, ends = _integrate_lanes(_coeffs(params), starts, t_end, *_BASIN_TOLS)
    steady = [i for i, key in enumerate(keys) if key == "STEADY"]
    if steady:
        points = np.array([rec.point for rec in known])
        dist = np.max(np.abs(points - ends[steady][:, None, :]), axis=2)
        # argmin takes the first of equal distances, as a strict '<' scan.
        best = np.argmin(dist, axis=1).tolist()
        for i, j, d in zip(steady, best, dist.min(axis=1).tolist()):
            keys[i] = known[j].label if d <= match_tol else "UNMATCHED"
    counts = Counter(keys)
    return {label: cnt / n for label, cnt in sorted(counts.items())}
