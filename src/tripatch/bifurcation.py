"""Transcritical thresholds, the Hopf candidate, and one-parameter sweeps.

The closed-form stability/feasibility inequalities of the sparse
topologies all degenerate to equalities on simple parameter loci; those
loci are where boundary equilibria exchange stability with a
neighboring branch (transcritical bifurcations).  This module collects
them analytically and, independently, detects eigenvalue crossings
numerically by sweeping one parameter and bisecting every sign change
of a tracked equilibrium's eigenvalue real parts.

A note on the trace-zero candidate for the EX8 topology: turning the
two-patch trace condition into an equality is advertised in the source
material as a Hopf bifurcation, but at trace zero the 2×2 block has
determinant −J22² − m23·m32 < 0 whenever the block rates are positive,
so the crossing eigenvalues are real and of opposite sign — never a
complex pair.  hopf_candidate() therefore computes the candidate value
and labels its validity instead of trusting the claim; the genuinely
observable eigenvalue-zero locus nearby is the block-determinant
boundary, which transcritical_thresholds() reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibria import EquilibriumRecord, _find_all_many
from .model import ModelParams, PARAM_TOKENS, ParameterError, _coeffs, _jac, with_param
from .newton import _newton_support
from .stability import StabilityReport, _margin, classify, eigenvalues_3x3
from .topology import apply_topology
# Unused since sweep batches its grid: bench/test_bench.py checks that the
# benchmark tracer wraps this binding.
from .equilibria import find_all_equilibria  # noqa: F401

__all__ = [
    "Crossing",
    "SweepRecord",
    "hopf_candidate",
    "sweep",
    "transcritical_thresholds",
]

#: Imaginary-part threshold separating REAL_ZERO from COMPLEX_PAIR crossings.
PAIR_IMAG_TOL = 1e-8

#: Bisection interval width target (parameter units); two orders below
#: the 1e-6 reporting accuracy so that branch coincidence at the refined
#: value survives steep branch slopes.
CROSSING_REFINE = 2e-8


@dataclass(frozen=True)
class Crossing:
    """One refined eigenvalue-real-part zero crossing on a tracked branch."""

    label: str
    eig_index: int
    kind: str  # REAL_ZERO or COMPLEX_PAIR
    param_value: float
    point: tuple[float, float, float]
    eig_re: float
    eig_im: float


@dataclass(frozen=True)
class SweepRecord:
    """State of the equilibrium set at one grid value of the swept parameter.

    ``crossings`` holds the refined crossings detected between the
    previous grid value and this one (empty on the first record).
    """

    param_name: str
    param_value: float
    equilibria: tuple[EquilibriumRecord, ...]
    reports: tuple[StabilityReport, ...]
    crossings: tuple[Crossing, ...]


def transcritical_thresholds(topo: str, params: ModelParams
                             ) -> list[tuple[str, float, tuple[str, str]]]:
    """Analytic zero-eigenvalue loci where two labeled branches exchange.

    Each entry is ``(parameter token, critical value, (label_a, label_b))``:
    at the critical value of the token (all other parameters held at
    their current values) the two labeled equilibria collide and trade
    stability or feasibility.  Thresholds are the equality cases of the
    closed-form catalog conditions; topologies whose catalog has no
    single-parameter boundary (the strongly connected ones) return [].
    """
    c = _coeffs(apply_topology(params, topo))
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32 = c[:12]
    out: list[tuple[str, float, tuple[str, str]]] = []
    if topo == "EX6":
        out.append(("r2", m12 + m32, ("I2", "COEX")))
        out.append(("r2", m12 + m32, ("I3", "COEX")))
        out.append(("r3", m13, ("I2", "I3")))
    elif topo in ("EX7", "EX7N"):
        out.append(("r2", m12 + m32, ("Q1", "COEX")))
    elif topo == "CHAIN":
        out.append(("r1", m21, ("W3", "COEX")))
        out.append(("r2", m32, ("W2", "W3")))
    elif topo == "CONVERGE":
        out.append(("r1", m21, ("X1", "X2")))
        out.append(("r1", m21, ("Y3", "COEX")))
        out.append(("r3", m23, ("X1", "Y3")))
        out.append(("r3", m23, ("X2", "COEX")))
    elif topo == "DIVERGE":
        out.append(("r2", m12 + m32, ("Z3", "COEX")))
    elif topo == "EX8":
        # Determinant boundary of the 2×2 block at (k1, 0, 0), solved
        # for r2; the trace boundary is the (degenerate) Hopf candidate.
        den = r3 - m13 - m23
        if abs(den) > 1e-12:
            val = m12 + m32 * (r3 - m13) / den
            if math.isfinite(val) and val > 0.0:
                out.append(("r2", val, ("M2_EX8", "COEX")))
    elif topo == "EX2N":
        # Determinant boundary of the 1–3 block at (0, k2, 0), solved
        # for r1 (the block is sign-symmetric, so its eigenvalues are
        # real and only real crossings occur).
        den = m13 + m23 - r3
        if abs(den) > 1e-12:
            val = m31 - m13 * m31 / den
            if math.isfinite(val) and val > 0.0:
                out.append(("r1", val, ("X_EX2N", "COEX")))
    return out


def hopf_candidate(params: ModelParams) -> tuple[float, str]:
    """Trace-zero candidate r2 for the patch-1-at-capacity point of EX8.

    Returns ``(r2_critical, validity)`` with validity GENUINE only if
    the crossing eigenvalue pair at (k1, 0, 0) has nonzero imaginary
    part there — equivalently, the 2×2 block determinant is positive at
    the critical point.  For positive rates the determinant equals
    −J22² − m23·m32 < 0, so the expected outcome is DEGENERATE.
    """
    c = _coeffs(apply_topology(params, "EX8"))
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32 = c[:12]
    r2c = m13 + m23 + m32 + m12 - r3
    if r2c <= 0.0:
        return r2c, "DEGENERATE"
    j22 = r2c - m12 - m32
    j33 = r3 - m13 - m23
    det = j22 * j33 - m23 * m32
    return r2c, ("GENUINE" if det > 0.0 else "DEGENERATE")


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------


def _unstable_count(eigenvalues) -> int:
    margin = _margin(eigenvalues)
    return sum(1 for z in eigenvalues if z.real > margin)


def _continue_point(c, xa, xb, t, scale):
    """Track an equilibrium into the interior of a bracketing interval.

    Linear interpolation between the endpoint locations seeds a
    support-restricted Newton solve (components that vanish at both
    endpoints stay pinned).  Falls back to the interpolant if Newton
    stalls — near a collision the interpolant is already accurate.
    """
    x = [xa[i] + t * (xb[i] - xa[i]) for i in range(3)]
    free = tuple(i for i in range(3)
                 if max(abs(xa[i]), abs(xb[i])) > 1e-9 * scale)
    if not free:
        return tuple(x)
    for i in range(3):
        if i not in free:
            x[i] = 0.0
    got = _newton_support(c, x, free, 1e-10)
    return got if got is not None else tuple(x)


def _grid_params(params: ModelParams, topo: str, param: str, value: float
                 ) -> ModelParams:
    return apply_topology(with_param(params, param, value), topo)


def _detect_crossings(topo, params, param, a_val, b_val, eqs_a, eqs_b,
                      reps_a, reps_b) -> list[Crossing]:
    scale = max(1.0, float(np.max(params.k)))
    # Distance cap: half the minimum separation between distinct
    # equilibria at the left endpoint (branch identity is ambiguous
    # beyond that).
    pts = [e.point for e in eqs_a]
    min_sep = math.inf
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            min_sep = min(min_sep, float(np.max(np.abs(pts[i] - pts[j]))))
    cap = 0.5 * min_sep

    by_label: dict[str, list[int]] = {}
    for j, e in enumerate(eqs_b):
        by_label.setdefault(e.label, []).append(j)

    crossings: list[Crossing] = []
    taken: set[int] = set()
    for i, ea in enumerate(eqs_a):
        cands = [j for j in by_label.get(ea.label, ()) if j not in taken]
        if not cands:
            continue
        j = min(cands, key=lambda j: float(np.max(np.abs(eqs_b[j].point - ea.point))))
        dist = float(np.max(np.abs(eqs_b[j].point - ea.point)))
        if dist > cap:
            continue
        taken.add(j)
        na = _unstable_count(reps_a[i].eigenvalues)
        nb = _unstable_count(reps_b[j].eigenvalues)
        if na == nb:
            continue
        idx = min(na, nb)
        xa = tuple(float(v) for v in ea.point)
        xb = tuple(float(v) for v in eqs_b[j].point)

        def re_at(theta: float):
            p = _grid_params(params, topo, param, theta)
            c = _coeffs(p)
            t = (theta - a_val) / (b_val - a_val)
            x = _continue_point(c, xa, xb, t, scale)
            eig = eigenvalues_3x3(
                np.array(_jac(c, *x)).reshape(3, 3))
            return eig[idx].real, x, eig

        fa, _, eig_a = re_at(a_val)
        fb, _, eig_b = re_at(b_val)
        if abs(fa) <= _margin(eig_a):
            # A grid value landed on the crossing itself.
            lo = hi = a_val
        elif abs(fb) <= _margin(eig_b):
            lo = hi = b_val
        elif fa * fb > 0.0:
            # The count changed but the idx-th real part does not
            # bracket zero (coincident crossings); report the midpoint.
            lo, hi = a_val, b_val
        else:
            lo, hi = a_val, b_val
            flo = fa
            while hi - lo > CROSSING_REFINE:
                mid = 0.5 * (lo + hi)
                fm, _, _ = re_at(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if (fm > 0.0) == (flo > 0.0):
                    lo, flo = mid, fm
                else:
                    hi = mid
        theta_star = 0.5 * (lo + hi)
        _, x_star, eig_star = re_at(theta_star)
        lam = eig_star[idx]
        kind = "REAL_ZERO" if abs(lam.imag) < PAIR_IMAG_TOL else "COMPLEX_PAIR"
        crossings.append(Crossing(
            label=ea.label, eig_index=idx, kind=kind,
            param_value=float(theta_star),
            point=tuple(float(v) for v in x_star),
            eig_re=float(lam.real), eig_im=float(lam.imag),
        ))
    return crossings


def sweep(topo: str, params: ModelParams, param: str, lo: float, hi: float,
          steps: int) -> list[SweepRecord]:
    """Grid a parameter, resolve the equilibrium set, and refine crossings.

    At each of ``steps`` evenly spaced values the full equilibrium set
    is computed (the oracle solves all grid values in one batch, with
    the same result as one ``find_all_equilibria`` per value) and
    classified.  Between consecutive grid values the
    same-labeled equilibria are matched by nearest point (capped at
    half the minimum branch separation); whenever a matched branch
    changes its count of eigenvalues with positive real part, the
    crossing is bisected to well below 1e-6 in the parameter and typed
    REAL_ZERO or COMPLEX_PAIR by the imaginary part at the crossing.
    """
    if param not in PARAM_TOKENS:
        raise ParameterError(f"unknown parameter token {param!r}")
    if not (lo < hi):
        raise ParameterError(f"sweep range must have lo < hi, got [{lo}, {hi}]")
    if steps < 2:
        raise ParameterError(f"sweep needs at least 2 grid points, got {steps}")
    if param.startswith(("r", "k")):
        if lo <= 0.0:
            raise ParameterError(
                f"{param} must stay positive; sweep range [{lo}, {hi}] leaves its domain")
    elif lo < 0.0:
        raise ParameterError(
            f"{param} must stay nonnegative; sweep range [{lo}, {hi}] leaves its domain")

    grid = [float(theta) for theta in np.linspace(lo, hi, steps)]
    points = [_grid_params(params, topo, param, theta) for theta in grid]
    records: list[SweepRecord] = []
    prev: tuple | None = None
    for theta, p, eqs in zip(grid, points, _find_all_many(topo, points)):
        eqs = tuple(eqs)
        reps = tuple(classify(topo, e, p) for e in eqs)
        crossings: tuple[Crossing, ...] = ()
        if prev is not None:
            a_val, eqs_a, reps_a = prev
            crossings = tuple(_detect_crossings(
                topo, params, param, a_val, theta, eqs_a, eqs, reps_a, reps))
        records.append(SweepRecord(
            param_name=param, param_value=theta,
            equilibria=eqs, reports=reps, crossings=crossings))
        prev = (theta, eqs, reps)
    return records
