"""Equilibrium catalog and solvers for the three-patch model.

Four complementary routes to the steady states:

* ``closed_form_equilibria`` — the per-topology algebraic catalog
  (explicit points and single-variable root-finding on parabola
  intersections).
* ``newton_coexistence`` — damped Newton iteration with the analytic
  Jacobian, kept inside the positive orthant.
* ``coexistence_by_construction`` — a constructive existence argument
  turned into an algorithm: intersect two parabolic cylinders at height
  ``h``, then bisect the height until it matches the explicit
  square-root surface of the third equation.
* ``brute_force_equilibria`` — multi-start Newton over the state box
  and all its boundary faces/edges; the independent oracle the rest of
  the package is checked against.

``find_all_equilibria`` merges the catalog with the oracle and
cross-validates them.

The Newton solvers live in ``newton``: scalar ones for polishing and
the interior solver, and batched ones behind the oracle, which run every
start of every parameter set as one lane of a batch and end each start
where the scalar solve from it ends, bit for bit.  ``sweep`` solves all
its grid values in one such batch.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, NumericalError, ParameterError, _coeffs, _count, _gap
from .newton import (
    ConvergenceError,
    SingularJacobianError,
    _col_max,
    _face_lanes,
    _full_lanes,
    _lane_coeffs,
    _newton_full,
    _newton_support,
    _residual,
    _rhs_lanes,
)
from .topology import apply_topology

__all__ = [
    "ADMITTED_LABELS",
    "EQUILIBRIUM_LABELS",
    "BracketError",
    "ConsistencyError",
    "ConvergenceError",
    "EquilibriumRecord",
    "SingularJacobianError",
    "brute_force_equilibria",
    "closed_form_equilibria",
    "coexistence_by_construction",
    "find_all_equilibria",
    "newton_coexistence",
]

#: Stable label tokens for equilibrium records.
EQUILIBRIUM_LABELS = (
    "ORIGIN", "COEX", "X_EX2N", "Q1", "M2_EX8", "I2", "I3",
    "W2", "W3", "X1", "X2", "Y3", "Z1", "Z2", "Z3", "NUMERICAL",
)

#: Equilibrium labels each topology can exhibit (real points; boundary
#: points whose formulas involve negative square roots may be absent for
#: particular parameters, but never anything outside this set).
ADMITTED_LABELS = {
    "FULL": ("ORIGIN", "COEX"),
    "EX2": ("ORIGIN", "COEX"),
    "HUB0": ("ORIGIN", "COEX"),
    "EX3": ("ORIGIN", "COEX"),
    "EX1": ("ORIGIN", "COEX"),
    "EX2N": ("ORIGIN", "X_EX2N", "COEX"),
    "EX7": ("ORIGIN", "Q1", "COEX"),
    "EX7N": ("ORIGIN", "Q1", "COEX"),
    "EX8": ("ORIGIN", "M2_EX8", "COEX"),
    "EX6": ("ORIGIN", "I2", "I3", "COEX"),
    "CHAIN": ("ORIGIN", "W2", "W3", "COEX"),
    "CONVERGE": ("ORIGIN", "X1", "X2", "Y3", "COEX"),
    "DIVERGE": ("ORIGIN", "Z1", "Z2", "Z3", "COEX"),
}

#: Components may undershoot zero by this much and still count feasible.
FEASIBLE_TOL = 1e-10

#: Two equilibria closer than this (max-norm) are considered identical.
DEDUP_TOL = 1e-6

#: A point is an equilibrium when the max-norm of the vector field there is
#: at most this: the oracle keeps its roots by it, and ``classify`` refuses
#: a record above it.
RESIDUAL_LIMIT = 1e-8

#: Polishing Newton solves aim for a max-norm residual of at most this.
POLISH_TOL = 1e-10


class BracketError(NumericalError):
    """The coexistence construction found no sign change on [0, H]."""


class ConsistencyError(NumericalError):
    """A feasible closed-form equilibrium is missing from the oracle set."""


@dataclass(frozen=True)
class EquilibriumRecord:
    """One steady state: where it is, what it is, whether it counts.

    ``feasible`` requires every component ≥ -1e-10 *and* the defining
    closed-form side conditions (when the label has any); ``residual``
    is the max-norm of the vector field at ``point``.
    """

    point: np.ndarray
    label: str
    feasible: bool
    residual: float


def _make_record(c, point, label, conditions_ok: bool = True) -> EquilibriumRecord:
    p = np.asarray(point, dtype=float)
    signs_ok = bool(np.min(p) >= -FEASIBLE_TOL)
    # The closed forms were transcribed by hand; a robust disagreement
    # between their side conditions and the actual component signs would
    # mean one of them is wrong, so surface it loudly.
    scale = 1e-8 * (1.0 + float(np.max(np.abs(p))))
    if conditions_ok and np.min(p) < -scale:
        warnings.warn(
            f"{label}: side conditions hold but point {p.tolist()} has a "
            "negative component — closed form and conditions disagree",
            stacklevel=2,
        )
    res = _residual(c, p[0], p[1], p[2])
    return EquilibriumRecord(point=p, label=label, feasible=signs_ok and conditions_ok,
                             residual=res)


# ---------------------------------------------------------------------------
# Sampling and scalar root finding.
# ---------------------------------------------------------------------------


def _halton_table(base: int):
    """Identity permutations, digit weights and place values of ``base``."""
    depth = math.ceil(54 / math.log2(base)) - 1
    # Running quotients, not base**-j: the two differ in the last bit.
    weights = [1.0 / base]
    for _ in range(depth - 1):
        weights.append(weights[-1] / base)
    return (np.tile(np.arange(base), (depth, 1)), np.array(weights)[:, None],
            base ** np.arange(depth)[:, None])


_HALTON_TABLES = {base: _halton_table(base) for base in (2, 3, 5)}


@functools.lru_cache(maxsize=8)
def _halton_digits(base: int, n: int) -> np.ndarray:
    """Flat index of digit ``j`` of point ``i`` into a (depth, base) digit
    table, at ``[j, i]`` of a (depth, n) array; read-only, as it is cached."""
    places = _HALTON_TABLES[base][2]
    digits = np.arange(len(places))[:, None] * base + np.arange(n) // places % base
    digits.setflags(write=False)
    return digits


def _halton(d: int, n: int, seed: int) -> np.ndarray:
    """First ``n`` points of a scrambled Halton sequence in [0, 1)^d, d ≤ 3.

    Owen's random digit scrambling (Owen 2017, "A randomized Halton
    algorithm", Algorithm 1): base 2, 3, 5 per coordinate, one random
    permutation of the digits 0..base-1 per digit position, down to
    double-precision depth.  Equal seeds give bit-identical points: the
    permutations come row by row from one ``default_rng(seed)`` stream
    and the digit terms are summed left to right.  The digits depend on
    ``(base, n)`` alone and are cached by ``_halton_digits``.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((n, d))
    for col, base in enumerate((2, 3, 5)[:d]):
        identity, weights, _ = _HALTON_TABLES[base]
        # Weighting before the gather multiplies the same digit-weight pairs.
        table = rng.permuted(identity, axis=1) * weights
        terms = table.take(_halton_digits(base, n))
        out[:, col] = np.add.accumulate(terms)[-1]
    return out


def _brentq(f, a: float, b: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """Root of ``f`` bracketed by ``[a, b]`` by Brent's method.

    Brent 1973, *Algorithms for Minimization without Derivatives*, ch. 4:
    secant or inverse quadratic steps, falling back to bisection when a
    step is not short enough.  Converged once half the bracket is below
    ``(xtol + rtol·|x|)/2``.

    Raises
    ------
    BracketError
        If ``f(a)`` and ``f(b)`` have the same sign.
    ConvergenceError
        If ``maxiter`` iterations do not converge.
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError(f"f({a}) and f({b}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre < 0.0) != (fcur < 0.0):  # fpre is never 0 here
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise ConvergenceError(
        f"Brent's method did not converge in {maxiter} iterations "
        f"(last x {xcur})")


# ---------------------------------------------------------------------------
# Interior solver.
# ---------------------------------------------------------------------------


def newton_coexistence(params: ModelParams) -> EquilibriumRecord:
    """Damped Newton search for the interior equilibrium.

    Starts at the carrying capacities ``k`` and takes at most 100 steps
    to bring the max-norm residual to ``POLISH_TOL``.

    Returns
    -------
    EquilibriumRecord
        Labeled COEX, all components > 0, residual ≤ ``POLISH_TOL``.

    Raises
    ------
    ConvergenceError
        If the residual target is not met within 100 steps.
    SingularJacobianError
        If a Newton system is numerically singular.
    """
    c = _coeffs(params)
    point, res = _newton_full(c, params.k, POLISH_TOL, 100, positive=True,
                              raise_errors=True)
    p = np.array(point)
    return EquilibriumRecord(point=p, label="COEX",
                             feasible=bool(np.min(p) > 0.0), residual=res)


# ---------------------------------------------------------------------------
# Parabola intersections: shared by the coexistence construction and the
# patch-2-free equilibrium of the source/sink topologies.
# ---------------------------------------------------------------------------


def _parabola_intersection(qa, qb, scale: float):
    """Positive-branch intersection of two mutually inverse parabolae.

    ``qa = (a, b, g)`` encodes ``y = a x² + b x + g`` with ``a > 0`` and
    ``g ≤ 0``; ``qb`` encodes ``x = a' y² + b' y + g'`` likewise.  The
    feasible branch of ``qa`` starts at its nonnegative root ``x0``;
    along it ``F(x) = qb(qa(x)) − x`` is negative at ``x0`` and grows
    quartically, so the intersection is a bracketed scalar root.
    Returns ``(x, y)`` with both ≥ 0; degenerates to ``(0, 0)`` when the
    curves only meet at the origin.
    """
    aa, ba, ga = qa
    ab, bb, gb = qb

    def fa(x):
        return (aa * x + ba) * x + ga

    def fb(y):
        return (ab * y + bb) * y + gb

    def F(x):
        return fb(fa(x)) - x

    disc = ba * ba - 4.0 * aa * ga
    x0 = max(0.0, (-ba + math.sqrt(disc)) / (2.0 * aa))
    lo, flo = x0, F(x0)
    tiny = 1e-14 * max(1.0, scale)
    if flo >= -tiny:
        # Intersection at the branch start itself (the origin case) —
        # unless the composition dips negative just past it, in which
        # case a genuine positive crossing exists further out.
        probe = x0 + 1e-9 * max(1.0, scale)
        if F(probe) >= -tiny:
            return x0, max(0.0, fa(x0))
        lo, flo = probe, F(probe)
    hi = max(1.0, scale, 2.0 * lo)
    for _ in range(80):
        if F(hi) > 0.0:
            break
        hi *= 2.0
    else:  # pragma: no cover - quartic growth guarantees a sign change
        raise BracketError("parabola intersection bracket expansion failed")
    x = _brentq(F, lo, hi, xtol=1e-15, rtol=8.9e-16)
    return x, max(0.0, fa(x))


def coexistence_by_construction(params: ModelParams) -> EquilibriumRecord:
    """Locate the interior equilibrium by the constructive argument.

    For each height ``h ≥ 0``, the first two equilibrium equations with
    ``P3 = h`` define two parabolic cylinders whose feasible branches
    meet in a single point ``Q_h = (P1(h), P2(h))``.  The third equation
    defines the explicit nonnegative surface

        P3⁺ = k3/(2 r3) [ (r3−m13−m23) + sqrt((r3−m13−m23)² +
                           4 r3 (m31 P1 + m32 P2)/k3) ].

    The equilibrium is the fixed point of ``h ↦ P3⁺(Q_h)``, found by
    bracketing and bisecting ``g(h) = P3⁺(Q_h) − h`` on ``[0, H]`` with
    ``H = 10·max(k)``, to an absolute width of 1e-12 in ``h``.  This is
    a fully independent oracle: no Newton step touches the result.

    Raises
    ------
    ParameterError
        If any of m12, m21, m13, m23 is zero (the construction divides
        by them).
    BracketError
        If ``g`` has no sign change on ``[0, H]`` — this would
        contradict existence of the interior equilibrium and must never
        fire for valid fully-coupled parameters.
    """
    c = _coeffs(params)
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    for name, val in (("m12", m12), ("m21", m21), ("m13", m13), ("m23", m23)):
        if val <= 0.0:
            raise ParameterError(
                f"coexistence construction requires {name} > 0, got {val}"
            )
    scale = max(k1, k2, k3)

    def line_point(h: float):
        qa = (r1 / (k1 * m12), (o1 - r1) / m12, -m13 * h / m12)
        qb = (r2 / (k2 * m21), (o2 - r2) / m21, -m23 * h / m21)
        return _parabola_intersection(qa, qb, scale)

    s = r3 - o3

    def g(h: float) -> float:
        p1, p2 = line_point(h)
        surf = (k3 / (2.0 * r3)) * (
            s + math.sqrt(s * s + 4.0 * (r3 / k3) * (m31 * p1 + m32 * p2))
        )
        return surf - h

    H = 10.0 * scale
    lo = 0.0
    if g(0.0) <= 0.0:
        # Origin-degenerate start: walk a geometric ladder to find where
        # the surface rises above the plane height.
        lo = None
        h = 1e-12 * H
        while h < H:
            if g(h) > 0.0:
                lo = h
                break
            h *= 1.9
        if lo is None:
            raise BracketError(
                "g(h) has no positive values on (0, H]; no interior "
                "equilibrium bracketed — this contradicts the existence theorem"
            )
    if g(H) >= 0.0:
        raise BracketError(f"g({H}) >= 0; bracket [0, H] contains no sign change")
    h_star = _brentq(g, lo, H, xtol=1e-12, rtol=8.9e-16)
    p1, p2 = line_point(h_star)
    point = np.array([p1, p2, h_star])
    return EquilibriumRecord(point=point, label="COEX",
                             feasible=bool(np.min(point) >= -FEASIBLE_TOL),
                             residual=_residual(c, p1, p2, h_star))


# ---------------------------------------------------------------------------
# Closed-form catalog.
# ---------------------------------------------------------------------------


def _logistic_root(r: float, k: float, outflow: float) -> float:
    """Nonzero root of r p (1 - p/k) - outflow·p = 0."""
    return k * (r - outflow) / r


def _sqrt_branch(r: float, k: float, loss: float, inflow: float):
    """Positive root of r p (1 - p/k) - loss·p + inflow = 0, or None.

    This quadratic shape (logistic minus linear loss plus constant
    inflow) recurs in every sparse-topology coexistence formula:
    p = k/(2r) [ (r-loss) + sqrt((r-loss)² + 4 r·inflow / k) ].
    With r - loss < 0 that sum cancels, so the root is taken in the
    conjugate form 2·inflow / (sqrt(...) - (r-loss)).
    """
    s = r - loss
    disc = s * s + 4.0 * r * inflow / k
    if disc < 0.0:
        return None
    if s < 0.0:
        return -2.0 * inflow / (s - math.sqrt(disc))
    return (k / (2.0 * r)) * (s + math.sqrt(disc))


def _cf_ex2n(c):
    k2 = c[4]
    return [(np.array([0.0, k2, 0.0]), "X_EX2N", True)]


def _cf_ex7(c):
    """Patch 2 is a pure source: its level at coexistence is explicit."""
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    out = []
    d1, d3 = k1 * m13, k3 * m31
    if not (d1 > 0.0 and d3 > 0.0 and 0.0 < r1 / d1 < math.inf
            and 0.0 < r3 / d3 < math.inf):
        # The parabolae need finite, positive leading coefficients: a zero rate,
        # or a k·m or r/(k·m) outside the float range, leaves Q1 and COEX to
        # the oracle.
        return out
    scale = max(k1, k2, k3)
    # Patch-2-free point: intersection of the two face parabolae.
    if not (r1 < m31 and r3 < m13):
        qa = (r1 / d1, (m31 - r1) / m13, 0.0)
        qb = (r3 / d3, (m13 - r3) / m31, 0.0)
        x, y = _parabola_intersection(qa, qb, scale)
        out.append((np.array([x, 0.0, y]), "Q1", True))
    p2 = _logistic_root(r2, k2, m12 + m32)
    if p2 > 0.0:
        qa = (r1 / d1, (m31 - r1) / m13, -m12 * p2 / m13)
        qb = (r3 / d3, (m13 - r3) / m31, -m32 * p2 / m31)
        x, y = _parabola_intersection(qa, qb, scale)
        out.append((np.array([x, p2, y]), "COEX", p2 > 0.0))
    return out


def _cf_ex8(c):
    k1 = c[3]
    return [(np.array([k1, 0.0, 0.0]), "M2_EX8", True)]


def _cf_ex6(c):
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    out = [(np.array([k1, 0.0, 0.0]), "I2", True)]
    beta = _logistic_root(r3, k3, m13)
    alpha = _sqrt_branch(r1, k1, 0.0, m13 * beta)
    if alpha is not None:
        out.append((np.array([alpha, 0.0, beta]), "I3", r3 > m13))
    p2 = _logistic_root(r2, k2, m12 + m32)
    p3 = _sqrt_branch(r3, k3, m13, m32 * p2)
    if p3 is not None:
        p1 = _sqrt_branch(r1, k1, 0.0, m12 * p2 + m13 * p3)
        if p1 is not None:
            out.append((np.array([p1, p2, p3]), "COEX", r2 > m12 + m32))
    return out


def _cf_chain(c):
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    out = [(np.array([0.0, 0.0, k3]), "W2", True)]
    p2p = _logistic_root(r2, k2, m32)
    p3p = _sqrt_branch(r3, k3, 0.0, m32 * p2p)
    if p3p is not None:
        out.append((np.array([0.0, p2p, p3p]), "W3", r2 >= m32))
    p1 = _logistic_root(r1, k1, m21)
    p2 = _sqrt_branch(r2, k2, m32, m21 * p1)
    if p2 is not None:
        p3 = _sqrt_branch(r3, k3, 0.0, m32 * p2)
        if p3 is not None:
            out.append((np.array([p1, p2, p3]), "COEX", r1 > m21))
    return out


def _cf_converge(c):
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    out = [(np.array([0.0, k2, 0.0]), "X1", True)]
    p1x = _logistic_root(r1, k1, m21)
    p2x = _sqrt_branch(r2, k2, 0.0, m21 * p1x)
    if p2x is not None:
        out.append((np.array([p1x, p2x, 0.0]), "X2", r1 >= m21))
    p3y = _logistic_root(r3, k3, m23)
    p2y = _sqrt_branch(r2, k2, 0.0, m23 * p3y)
    if p2y is not None:
        out.append((np.array([0.0, p2y, p3y]), "Y3", r3 >= m23))
    p1, p3 = p1x, p3y
    p2 = _sqrt_branch(r2, k2, 0.0, m21 * p1 + m23 * p3)
    if p2 is not None:
        out.append((np.array([p1, p2, p3]), "COEX", r1 > m21 and r3 > m23))
    return out


def _cf_diverge(c):
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    out = [
        (np.array([k1, 0.0, 0.0]), "Z1", True),
        (np.array([0.0, 0.0, k3]), "Z2", True),
        (np.array([k1, 0.0, k3]), "Z3", True),
    ]
    p2 = _logistic_root(r2, k2, m12 + m32)
    p1 = _sqrt_branch(r1, k1, 0.0, m12 * p2)
    p3 = _sqrt_branch(r3, k3, 0.0, m32 * p2)
    if p1 is not None and p3 is not None:
        out.append((np.array([p1, p2, p3]), "COEX", r2 > m12 + m32))
    return out


_CLOSED_FORMS = {
    "FULL": lambda c: [],
    "EX2": lambda c: [],
    "HUB0": lambda c: [],
    "EX3": lambda c: [],
    "EX1": lambda c: [],
    "EX2N": _cf_ex2n,
    "EX7": _cf_ex7,
    "EX7N": _cf_ex7,
    "EX8": _cf_ex8,
    "EX6": _cf_ex6,
    "CHAIN": _cf_chain,
    "CONVERGE": _cf_converge,
    "DIVERGE": _cf_diverge,
}


def closed_form_equilibria(topo: str, params: ModelParams) -> list[EquilibriumRecord]:
    """Algebraic equilibrium catalog of a topology.

    ``params`` is projected onto ``topo`` first.  The origin is always
    included; the per-topology boundary points and explicit coexistence
    expressions follow.  A point whose formula involves the square root
    of a negative number does not exist in the reals and is omitted;
    points that exist but violate their side conditions are returned
    with ``feasible=False``.
    """
    c = _coeffs(apply_topology(params, topo))
    records = [EquilibriumRecord(point=np.zeros(3), label="ORIGIN",
                                 feasible=True, residual=0.0)]
    for point, label, cond_ok in _CLOSED_FORMS[topo](c):
        records.append(_make_record(c, point, label, cond_ok))
    return records


# ---------------------------------------------------------------------------
# Brute-force oracle.
# ---------------------------------------------------------------------------


#: At most this many parameter sets share one batch, which bounds memory
#: on long sweeps.
_BATCH_SETS = 64

#: The free coordinates of the three boundary faces.
_FACES = ((0, 1), (0, 2), (1, 2))

#: Halton starts of the oracle in the full space, besides the box corners.
_N_STARTS = 64

#: The corners of the unit box.
_CORNERS = np.array([(a, b, d) for a in (0.0, 1.0) for b in (0.0, 1.0)
                     for d in (0.0, 1.0)])

#: Halton starts of the oracle on each boundary face, besides three fixed ones.
_FACE_STARTS = 12


def _oracle_batch(params_list, seed):
    """``brute_force_equilibria`` of each parameter set, in one batch."""
    cs = [_coeffs(p) for p in params_list]
    boxes = np.array([2.0 * float(np.max(p.k)) for p in params_list])
    coef = _lane_coeffs(cs)
    n_sets = len(cs)

    # Full space: Halton starts, then the 8 box corners, per set.
    unit = np.concatenate([_halton(3, _N_STARTS, seed), _CORNERS])
    X = (unit * boxes[:, None, None]).transpose(2, 0, 1).reshape(3, -1)
    sid = np.repeat(np.arange(n_sets), len(unit))
    full = _full_lanes(cs, coef[:, sid], X, sid, RESIDUAL_LIMIT)

    # Faces: _FACE_STARTS Halton starts and three fixed ones per set, face
    # by face; lane n is free in coordinates IJ[:, n].
    planes = np.empty((len(_FACES), _FACE_STARTS + 3, 2))
    for fi in range(len(_FACES)):
        planes[fi, :_FACE_STARTS] = _halton(2, _FACE_STARTS, seed * 8 + fi + 1)
    planes[:, _FACE_STARTS:] = [(1.0, 1.0), (1.0, 0.25), (0.25, 1.0)]
    IJ = np.repeat(np.array(_FACES).T, n_sets * planes.shape[1], axis=1)
    X = np.zeros((3, IJ.shape[1]))
    X[IJ, np.arange(IJ.shape[1])] = \
        (planes[:, None] * boxes[:, None, None]).reshape(-1, 2).T
    fsid = np.tile(np.repeat(np.arange(n_sets), planes.shape[1]), len(_FACES))
    faces = _face_lanes(cs, coef[:, fsid], X, IJ, fsid, RESIDUAL_LIMIT)

    # The origin is always a root; then the converged lanes and the edges.
    X = [np.zeros((3, n_sets)), full[0][:, full[1]], faces[0][:, faces[1]]]
    rsid = [np.arange(n_sets), sid[full[1]], fsid[faces[1]]]
    for s, c in enumerate(cs):
        for i in range(3):
            root = _logistic_root(c[i], c[3 + i], c[12 + i])
            if root > 0.0:
                x0 = [0.0, 0.0, 0.0]
                x0[i] = root
                got = tuple(x0) if _residual(c, *x0) <= RESIDUAL_LIMIT else \
                    _newton_support(c, x0, (i,), RESIDUAL_LIMIT)
                if got is not None:
                    X.append(np.array(got)[:, None])
                    rsid.append([s])
    X, rsid = np.concatenate(X, axis=1), np.concatenate(rsid)

    # Drop roots below -1e-9, snap components within 1e-12·max(1, box) of
    # zero to 0, take every residual and sort each set's roots, in one pass.
    keep = ~(X.min(axis=0) < -1e-9)
    rsid, X = rsid[keep], X[:, keep]
    X = np.where(np.abs(X) <= 1e-12 * np.maximum(1.0, boxes)[rsid], 0.0, X)
    order = np.lexsort((X[2], X[1], X[0], rsid))
    rsid, X = rsid[order], X[:, order]
    res = _col_max(np.abs(_rhs_lanes(coef[:, rsid], X))).tolist()
    points = X.T.tolist()
    bounds = np.searchsorted(rsid, np.arange(n_sets + 1)).tolist()
    keep = [[lo + n for n in _dedup(points[lo:hi], res[lo:hi])]
            for lo, hi in zip(bounds, bounds[1:])]
    return [[EquilibriumRecord(point=np.array(points[n]), label="NUMERICAL",
                               feasible=bool(min(points[n]) >= -FEASIBLE_TOL),
                               residual=res[n]) for n in ns] for ns in keep]


def _dedup(points, residuals):
    """Indices into sorted ``points`` of one representative per DEDUP_TOL cluster.

    Each point joins the first earlier representative within DEDUP_TOL
    (max-norm) and replaces it if its residual is smaller.  Identical
    points may come in any order: a repeat never changes a representative.
    A point with a NaN or infinite coordinate joins nothing, and nothing
    joins it.
    """
    reps: list[tuple] = []
    for n, (p, res) in enumerate(zip(points, residuals)):
        for idx, (q, res_q, _) in enumerate(reps):
            if abs(p[0] - q[0]) < DEDUP_TOL and abs(p[1] - q[1]) < DEDUP_TOL \
                    and abs(p[2] - q[2]) < DEDUP_TOL:
                if res < res_q:
                    reps[idx] = (p, res, n)
                break
        else:
            reps.append((p, res, n))
    return [n for _, _, n in reps]


def _oracle_many(params_list, seed: int = 0) -> list[list[EquilibriumRecord]]:
    """``brute_force_equilibria`` of every set in ``params_list``, batched."""
    seed = _count("seed", seed, 0)
    out = []
    with np.errstate(all="ignore"):  # overflow and NaN as in scalar floats
        for lo in range(0, len(params_list), _BATCH_SETS):
            out += _oracle_batch(params_list[lo:lo + _BATCH_SETS], seed)
    return out


def brute_force_equilibria(params: ModelParams, seed: int = 0
                           ) -> list[EquilibriumRecord]:
    """Multi-start Newton oracle over the box [0, 2·max k]³.

    Interior starts are 64 scrambled Halton points plus the 8 box
    corners; every boundary face and edge gets its own restricted
    Newton solves so equilibria that repel the interior are still
    found.  Converged points (full residual ≤ ``RESIDUAL_LIMIT``,
    components ≥ −1e−9) are deduplicated at 1e−6 and returned labeled
    NUMERICAL.  Deterministic for fixed ``seed``.

    The starts run as lanes of one batched Newton (see ``newton``):
    full-space lanes take damped 3×3 Cramer steps, face lanes
    2×2 Cramer steps, and lanes retire by mask once they converge or turn
    singular.  The last few live lanes finish in the scalar Newton with
    their remaining iterations.  Each lane repeats the scalar solve's
    float operations in order, so the result equals a one-start-at-a-time
    scalar oracle bit for bit.

    Raises
    ------
    ParameterError
        If ``seed`` is not an integer >= 0.
    """
    return _oracle_many([params], seed)[0]


# ---------------------------------------------------------------------------
# Merge: catalog + oracle.
# ---------------------------------------------------------------------------


def _polish(c, record: EquilibriumRecord) -> EquilibriumRecord:
    """Tighten a record with structure-preserving Newton.

    Components that are exactly zero stay pinned (so a boundary label
    keeps its face); free components are refined until the full
    residual drops below ``POLISH_TOL``.  If polishing cannot improve the
    point, the original is kept.
    """
    p = record.point.tolist()
    free = tuple(i for i in range(3) if p[i] != 0.0)
    if not free:
        return record
    if len(free) == 3:
        got = _newton_full(c, p, POLISH_TOL, 40, settle=40)
        better = got[0] if got is not None else None
    else:
        better = _newton_support(c, p, free, POLISH_TOL, settle=40)
    if better is None:
        return record
    res = _residual(c, *better)
    if res >= record.residual:
        return record
    return EquilibriumRecord(point=np.array(better), label=record.label,
                             feasible=record.feasible, residual=res)


def find_all_equilibria(topo: str, params: ModelParams, seed: int = 0
                        ) -> list[EquilibriumRecord]:
    """Complete equilibrium set: closed forms merged with the oracle.

    The parameter set is projected onto ``topo`` first.  Closed-form
    records win label ties; oracle points that match no catalog entry
    are appended — relabeled COEX when strictly interior, NUMERICAL
    otherwise.  Every record is polished to residual ≤ ``POLISH_TOL``
    where the Jacobian allows.

    Raises
    ------
    ConsistencyError
        If a *feasible* catalog point is absent from the oracle set —
        that combination means a transcribed formula is wrong.
    ParameterError
        If ``seed`` is not an integer >= 0.
    """
    params = apply_topology(params, topo)
    return _merge(topo, params, brute_force_equilibria(params, seed=seed))


def _find_all_many(topo: str, params_list, seed: int = 0
                   ) -> list[list[EquilibriumRecord]]:
    """``find_all_equilibria`` of every set in ``params_list``.

    The oracle solves all sets in one batch; the closed forms, polish,
    merge and cross-check then run set by set.
    """
    params_list = [apply_topology(p, topo) for p in params_list]
    oracles = _oracle_many(params_list, seed)
    return [_merge(topo, p, o) for p, o in zip(params_list, oracles)]


def _merge(topo: str, params: ModelParams, oracle: list[EquilibriumRecord]
           ) -> list[EquilibriumRecord]:
    """Polish the catalog and the oracle points of a projected set and merge."""
    c = _coeffs(params)
    catalog = [_polish(c, rec) for rec in closed_form_equilibria(topo, params)]

    # Polish oracle points before matching: near a transcritical the
    # Jacobian is close to singular, so a raw residual of 1e-8 can leave
    # the point several 1e-6 away from the closed form.  Polished points
    # may also collapse onto one root, so dedup again.
    polished = sorted((_polish(c, rec) for rec in oracle),
                      key=lambda r: tuple(r.point))
    points = [rec.point.tolist() for rec in polished]
    keep = _dedup(points, [rec.residual for rec in polished])
    oracle, points = [polished[n] for n in keep], [points[n] for n in keep]

    scale = max(1.0, float(np.max(params.k)))
    merged = list(catalog)
    matched: set[int] = set()
    catalog_points = [cf.point.tolist() for cf in catalog]
    for rec, p in zip(oracle, points):
        # Every hit, not the first: at a branch crossing two catalog labels
        # coincide and one oracle point must vouch for both.
        hits = [i for i, q in enumerate(catalog_points) if _gap(p, q) < DEDUP_TOL]
        matched.update(hits)
        if hits:
            continue
        if float(np.min(rec.point)) > 1e-7 * scale:
            rec = EquilibriumRecord(point=rec.point, label="COEX",
                                    feasible=rec.feasible, residual=rec.residual)
        merged.append(rec)

    for i, cf in enumerate(catalog):
        if cf.feasible and i not in matched:
            raise ConsistencyError(
                f"feasible closed-form equilibrium {cf.label} at "
                f"{cf.point.tolist()} not found by the brute-force oracle "
                f"({topo}); a transcribed formula is suspect"
            )
    return merged
