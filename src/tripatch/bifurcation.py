"""Transcritical thresholds, the Hopf candidate, and one-parameter sweeps.

Where a boundary equilibrium exchanges stability with a neighboring
branch (a transcritical bifurcation), the Jacobian block at 0 of a source
component C of its support gains a zero eigenvalue: ``r_i = o_i`` for one
patch, ``det A_C = 0`` with a negative trace for EX8's and EX2N's 2×2
blocks.  One rule over ``equilibria._SUPPORTS`` finds each locus (see
transcritical_thresholds).  This module collects the loci analytically
and, independently, detects the crossings numerically by sweeping one
parameter (see :func:`sweep`).

No pattern has an oscillatory (Hopf) onset from a stable state.  Every
model Jacobian is Metzler (its off-diagonal entries are the rates
m_ij ≥ 0), so by Perron–Frobenius its spectral abscissa is a real
eigenvalue: a stable equilibrium loses stability only through a real
eigenvalue at 0, a sign change of det J.  The trace-zero candidate of
EX8, advertised in the source material as a Hopf bifurcation, is one
instance: at trace zero the 2×2 block has determinant −J22² − m23·m32 < 0
for positive block rates, so the crossing eigenvalues are real and of
opposite sign.  hopf_candidate() computes the candidate and labels its
validity; the observable locus is the block-determinant boundary with a
negative trace, which transcritical_thresholds() reports.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .equilibria import _SUPPORTS, POLISH_TOL, EquilibriumRecord, _find_all_many
from .model import (ModelParams, PARAM_TOKENS, ParameterError, _ENTRY, _coeffs, _count,
                    _gap, _jac, _with_coeff)
from .newton import _newton_full
from .stability import (StabilityReport, _axis_terms, _characteristic, _classify,
                        eigenvalues_3x3)
from .topology import apply_topology, arcs_of_topology, zeroed_rates
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
    stability or feasibility.  For each state ``b`` on a closed support
    ``S`` of ``equilibria._SUPPORTS``, each source component ``C`` of ``S``
    (fed by no patch of ``S − C``) that an arc leaves and each ``x`` in
    ``C``, the ``r_x`` where ``s(A_C)``, ``A_C = diag(r − o) + M`` on ``C``,
    crosses 0 is listed: ``o_x`` for ``C = {x}``, and for ``C = {x, y}``
    ``o_x + m_xy·m_yx/(r_y − o_y)`` where ``r_y < o_y`` (elsewhere the trace
    is positive at ``det A_C = 0``).  Its partner ``a`` is the state on
    ``S − C`` less, repeatedly, each patch that had a feeder in ``S``, has
    none left and has ``r_j < o_j``.  Entries are sorted stably by token;
    only values in (0, inf), the domain of a rate, are listed.
    """
    c = _coeffs(apply_topology(params, topo))
    arcs = arcs_of_topology(topo)
    feeders = [{s for s, d in arcs if d == j} for j in range(3)]
    label_of = {frozenset(patches): label for label, patches in _SUPPORTS[topo]}
    m = {_ENTRY[t]: v for t, v in zip(PARAM_TOKENS[6:], c[6:12])}  # m[i, j] = m_ij
    out = []
    for S, label in label_of.items():
        # A patch with its two-way partners is its component or is fed from S − C.
        for C in {frozenset({i, *(j for j in S if {(i, j), (j, i)} <= arcs)}) for i in S}:
            if any(feeders[j] & (S - C) for j in C) or all(d in C for s, d in arcs if s in C):
                continue
            rest = S - C
            while drop := {j for j in rest if feeders[j] & S and not feeders[j] & rest
                           and c[j] < c[12 + j]}:
                rest -= drop
            for x in sorted(C):
                value = c[12 + x]
                for y in C - {x}:
                    if not c[y] < c[12 + y]:
                        break  # the trace is positive at det A_C = 0
                    value += m[x, y] * m[y, x] / (c[y] - c[12 + y])
                else:
                    out.append((f"r{x + 1}", value, (label_of[rest], label)))
    out.sort(key=lambda t: t[0])
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
