"""Transcritical thresholds, the Hopf candidate, and one-parameter sweeps.

The closed-form stability/feasibility inequalities of the sparse
topologies all degenerate to equalities on simple parameter loci; those
loci are where boundary equilibria exchange stability with a
neighboring branch (transcritical bifurcations).  This module collects
them analytically and, independently, detects the crossings numerically
by sweeping one parameter (see :func:`sweep`).

No pattern has an oscillatory (Hopf) onset from a stable state.  Every
model Jacobian is Metzler (its off-diagonal entries are the rates
m_ij ≥ 0), so by Perron–Frobenius its spectral abscissa is a real
eigenvalue: a stable equilibrium loses stability only through a real
eigenvalue at 0, a sign change of det J.  The trace-zero candidate of
EX8, advertised in the source material as a Hopf bifurcation, is one
instance: at trace zero the 2×2 block has determinant −J22² − m23·m32 < 0
for positive block rates, so the crossing eigenvalues are real and of
opposite sign.  hopf_candidate() computes the candidate and labels its
validity; the observable eigenvalue-zero locus nearby is the
block-determinant boundary, which transcritical_thresholds() reports.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .equilibria import POLISH_TOL, EquilibriumRecord, _find_all_many
from .model import (ModelParams, PARAM_TOKENS, ParameterError, _ENTRY, _coeffs, _count,
                    _gap, _jac, _with_coeff)
from .newton import _newton_full
from .stability import (StabilityReport, _axis_terms, _characteristic, _classify,
                        eigenvalues_3x3)
from .topology import apply_topology, zeroed_rates
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

#: Bisection interval width target (parameter units); two orders below
#: the 1e-6 reporting accuracy so that branch coincidence at the refined
#: value survives steep branch slopes.
CROSSING_REFINE = 2e-8


@dataclass(frozen=True)
class Crossing:
    """One refined crossing of the imaginary axis on a tracked branch."""

    label: str
    eig_index: int  # least |Re| at the crossing (a pair's +imag member)
    kind: str  # REAL_ZERO (det J changed sign) or COMPLEX_PAIR (Hurwitz product)
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
    stability or feasibility; where the branch COEX meets depends on a
    second sign (EX6's r3 - o3, CHAIN's r2 - o2), the pair names the
    one it meets.  Thresholds are the equality cases of the
    closed-form catalog conditions; on the one-way patterns each is a
    growth rate equal to its patch's total outflow, ``r_i = o_i``.
    Topologies whose catalog has no single-parameter boundary (the
    strongly connected ones) return [].
    Only values in (0, inf), the domain of a rate, are listed.
    """
    c = _coeffs(apply_topology(params, topo))
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    out: list[tuple[str, float, tuple[str, str]]] = []
    if topo == "EX6":
        out = [("r2", o2, ("I2" if r3 < o3 else "I3", "COEX")),
               ("r3", o3, ("I2", "I3"))]
    elif topo in ("EX7", "EX7N"):
        out = [("r2", o2, ("Q1", "COEX"))]
    elif topo == "CHAIN":
        out = [("r1", o1, ("W2" if r2 < o2 else "W3", "COEX")),
               ("r2", o2, ("W2", "W3"))]
    elif topo == "CONVERGE":
        out = [("r1", o1, ("X1", "X2")), ("r1", o1, ("Y3", "COEX")),
               ("r3", o3, ("X1", "Y3")), ("r3", o3, ("X2", "COEX"))]
    elif topo == "DIVERGE":
        out = [("r2", o2, ("Z3", "COEX"))]
    elif topo == "EX8":
        # Determinant boundary of the 2×2 block at (k1, 0, 0), solved
        # for r2; the trace boundary is the (degenerate) Hopf candidate.
        den = r3 - m13 - m23
        if abs(den) > 1e-12:
            out = [("r2", m12 + m32 * (r3 - m13) / den, ("M2_EX8", "COEX"))]
    elif topo == "EX2N":
        # Determinant boundary of the 1–3 block at (0, k2, 0), solved
        # for r1 (the block is sign-symmetric, so its eigenvalues are
        # real and only real crossings occur).
        den = m13 + m23 - r3
        if abs(den) > 1e-12:
            out = [("r1", m31 - m13 * m31 / den, ("X_EX2N", "COEX"))]
    # 0 where every rate in a formula is cut, inf where a sum overflows.
    return [t for t in out if 0.0 < t[1] < math.inf]


def hopf_candidate(params: ModelParams) -> tuple[float, str]:
    """Trace-zero candidate r2 for the patch-1-at-capacity point of EX8.

    Returns ``(r2_critical, validity)`` with validity GENUINE only if
    the crossing eigenvalue pair at (k1, 0, 0) has nonzero imaginary
    part there — equivalently, the 2×2 block determinant is positive at
    the critical point.  For positive rates the determinant equals
    −J22² − m23·m32 < 0, so the expected outcome is DEGENERATE, as for
    any onset from a stable state (Metzler Jacobian; module docstring).
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


def _continue_point(c, xa, xb, t, scale):
    """Track an equilibrium into the interior of a bracketing interval.

    Linear interpolation between the endpoint locations seeds Newton on
    the components that are nonzero at an endpoint (the others stay
    pinned at 0).  Falls back to the interpolant if Newton stalls — near
    a collision the interpolant is already accurate.
    """
    x = tuple(xa[i] + t * (xb[i] - xa[i]) for i in range(3))
    free = tuple(i for i in range(3)
                 if max(abs(xa[i]), abs(xb[i])) > 1e-9 * scale)
    if not free:
        return x
    got = _newton_full(c, x, POLISH_TOL, 60, free=free)
    return got[0] if got is not None else tuple(
        v if i in free else 0.0 for i, v in enumerate(x))


def _same_sign(x: float, y: float) -> bool:
    """``np.sign(x) == np.sign(y)`` on floats: a NaN matches nothing."""
    return (x > 0.0) == (y > 0.0) and (x < 0.0) == (y < 0.0) and x == x and y == y


def _detect_crossings(base, param, a_val, b_val, eqs_a, eqs_b, reps_a, reps_b
                      ) -> list[Crossing]:
    """Crossings between two grid values, each value set in the sweep's tuple ``base``."""
    scale = max(1.0, base[3], base[4], base[5])
    pts_a = [e.point.tolist() for e in eqs_a]
    pts_b = [e.point.tolist() for e in eqs_b]
    # Distance cap: half the minimum separation between distinct
    # equilibria at the left endpoint (branch identity is ambiguous
    # beyond that).
    min_sep = math.inf
    for i in range(len(pts_a)):
        for j in range(i + 1, len(pts_a)):
            min_sep = min(min_sep, _gap(pts_a[i], pts_a[j]))
    cap = 0.5 * min_sep

    crossings: list[Crossing] = []
    taken: set[int] = set()
    for i, ea in enumerate(eqs_a):
        cands = [j for j, eb in enumerate(eqs_b)
                 if eb.label == ea.label and j not in taken]
        if not cands:
            continue
        xa = pts_a[i]
        j = min(cands, key=lambda j: _gap(pts_b[j], xa))
        if _gap(pts_b[j], xa) > cap:
            continue
        taken.add(j)
        fa = _axis_terms(reps_a[i].coefficients)
        fb = _axis_terms(reps_b[j].coefficients)

        def jac_at(theta: float):
            c = _with_coeff(base, param, theta)
            t = (theta - a_val) / (b_val - a_val)
            x = _continue_point(c, xa, pts_b[j], t, scale)
            return _jac(c, *x), x

        for k, kind in enumerate(("REAL_ZERO", "COMPLEX_PAIR")):
            if _same_sign(fa[k], fb[k]):
                continue
            # A grid value on the crossing is the crossing itself.
            lo, hi = ((a_val, a_val) if fa[k] == 0.0 else
                      (b_val, b_val) if fb[k] == 0.0 else (a_val, b_val))
            while hi - lo > CROSSING_REFINE:
                mid = 0.5 * (lo + hi)
                fm = _axis_terms(_characteristic(jac_at(mid)[0]))[k]
                if fm == 0.0:
                    lo = hi = mid
                elif (fm > 0.0) == (fa[k] > 0.0):
                    lo = mid
                else:
                    hi = mid
            theta_star = 0.5 * (lo + hi)
            jac, x_star = jac_at(theta_star)
            # With a2 ≤ 0 the product's zero is (λ + a1)(λ² + a2): no root on the axis.
            if k and not _characteristic(jac).m_j > 0.0:
                continue
            eig = eigenvalues_3x3((jac[0:3], jac[3:6], jac[6:9]))
            idx = min(range(3), key=lambda n: abs(eig[n].real))
            crossings.append(Crossing(
                label=ea.label, eig_index=idx, kind=kind, param_value=theta_star,
                point=tuple(x_star), eig_re=eig[idx].real, eig_im=eig[idx].imag))
    return crossings


def sweep(topo: str, params: ModelParams, param: str, lo: float, hi: float,
          steps: int, seed: int = 0) -> list[SweepRecord]:
    """Grid a parameter, resolve the equilibrium set, and refine crossings.

    At each of ``steps`` evenly spaced values the full equilibrium set
    is computed (the oracle solves all grid values in one batch, with
    the same result as one ``find_all_equilibria(..., seed=seed)`` per
    value) and classified; grid and bisection values alike are set in
    the coefficient tuple of ``params`` projected onto ``topo``.  Between
    consecutive grid values the same-labeled equilibria are matched by
    nearest point (capped at half the minimum branch separation).  Of the cubic λ³ + a1λ² + a2λ + a3,
    a sign change of ``a3 = −det J`` is a REAL_ZERO crossing, and one of
    ``a1·a2 − a3`` is a COMPLEX_PAIR (at ±i√a2) if ``a2 > 0`` where it
    vanishes.  Each is bisected to well below 1e-6 in the parameter; the
    spectrum is solved once, at the crossing.  A grid value where the
    term is exactly 0 is the crossing, reported once.  A rate the
    pattern pins to 0 is refused: every grid point would be one set.
    """
    if param not in PARAM_TOKENS:
        raise ParameterError(f"unknown parameter token {param!r}")
    if not (isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real)):
        raise ParameterError(
            f"sweep range must be two real numbers, got [{lo!r}, {hi!r}]")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError(f"sweep range must be finite, got [{lo}, {hi}]")
    if not (lo < hi):
        raise ParameterError(f"sweep range must have lo < hi, got [{lo}, {hi}]")
    if _count("steps", steps, 0) < 2:
        raise ParameterError(f"sweep needs at least 2 grid points, got {steps}")
    if param.startswith(("r", "k")):
        if lo <= 0.0:
            raise ParameterError(
                f"{param} must stay positive; sweep range [{lo}, {hi}] leaves its domain")
    elif lo < 0.0:
        raise ParameterError(
            f"{param} must stay nonnegative; sweep range [{lo}, {hi}] leaves its domain")
    if _ENTRY[param] in zeroed_rates(topo):
        raise ParameterError(f"{topo} pins {param} to 0; sweep a rate it keeps")

    base = _coeffs(apply_topology(params, topo))
    grid = [float(theta) for theta in np.linspace(lo, hi, steps)]
    cs = [_with_coeff(base, param, theta) for theta in grid]
    records: list[SweepRecord] = []
    for theta, c, eqs in zip(grid, cs, _find_all_many(topo, cs, seed)):
        eqs = tuple(eqs)
        reps = tuple(_classify(topo, c, e) for e in eqs)
        crossings: tuple[Crossing, ...] = ()
        if records:
            a = records[-1]
            # A grid value on a crossing ends one cell and starts the next;
            # the cell it ends reports it.
            seen = {(x.label, x.kind, x.param_value) for x in a.crossings}
            crossings = tuple(x for x in _detect_crossings(
                base, param, a.param_value, theta, a.equilibria, eqs,
                a.reports, reps) if (x.label, x.kind, x.param_value) not in seen)
        records.append(SweepRecord(
            param_name=param, param_value=theta,
            equilibria=eqs, reports=reps, crossings=crossings))
    return records
