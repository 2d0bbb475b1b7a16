"""Equilibrium catalog and solvers for the three-patch model.

Four complementary routes to the steady states:

* ``closed_form_equilibria`` — the per-topology algebraic catalog
  (explicit points and single-variable root-finding on parabola
  intersections); on the five strongly connected patterns its COEX is
  the limit of the coexistence descent.
* ``newton_coexistence`` — the coexistence descent: the map that sets
  each patch at balance with its inflow falls monotonically from a
  super-solution to the maximal equilibrium; Newton finishes from there.
* ``coexistence_by_construction`` — a constructive existence argument
  turned into an algorithm: intersect two parabolic cylinders at height
  ``h``, then bisect the height until it matches the explicit
  square-root surface of the third equation.
* ``brute_force_equilibria`` — multi-start Newton over the state box,
  its closed boundary faces and its edges; the independent oracle the
  rest of the package is checked against.

``find_all_equilibria`` merges the catalog with the oracle and
cross-validates them.  The Newton solver lives in ``newton``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, NumericalError, ParameterError, _coeffs, _count, _gap
from .newton import (
    RESIDUAL_LIMIT,
    _DROP_FLOOR,
    _abs_max,
    _full_lanes,
    _lane_coeffs,
    _newton_full,
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
    "brute_force_equilibria",
    "closed_form_equilibria",
    "coexistence_by_construction",
    "find_all_equilibria",
    "newton_coexistence",
]

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

#: Stable label tokens for equilibrium records: every admitted label, in
#: order of first appearance, then NUMERICAL.
EQUILIBRIUM_LABELS = tuple(dict.fromkeys(
    label for labels in ADMITTED_LABELS.values() for label in labels)) + ("NUMERICAL",)

#: Components may undershoot zero by this much and still count feasible.
FEASIBLE_TOL = 1e-10

#: Two equilibria closer than this (max-norm) are considered identical.
DEDUP_TOL = 1e-6

#: Polishing Newton solves aim for a max-norm residual of at most this.
POLISH_TOL = 1e-10


class BracketError(NumericalError):
    """The coexistence construction found no sign change on [0, H]."""


class ConsistencyError(NumericalError):
    """A feasible catalog equilibrium is missing from the oracle set."""


class ConvergenceError(NumericalError):
    """An iterative solver did not reach its tolerance."""


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
    """The record of a closed-form ``point``, a tuple of three floats.

    Its components are tested as ``np.min`` and ``np.max`` of the array
    would test them: a NaN component fails the sign test and raises no
    warning.
    """
    p1, p2, p3 = point
    signs_ok = p1 >= -FEASIBLE_TOL and p2 >= -FEASIBLE_TOL and p3 >= -FEASIBLE_TOL
    # The closed forms were transcribed by hand; a robust disagreement
    # between their side conditions and the actual component signs would
    # mean one of them is wrong, so surface it loudly.  The test implies
    # a component below -1e-8, so it runs only where the signs fail.
    if conditions_ok and not signs_ok and not math.isnan(p1 + p2 + p3) \
            and min(p1, p2, p3) < -1e-8 * (1.0 + max(abs(p1), abs(p2), abs(p3))):
        warnings.warn(
            f"{label}: side conditions hold but point {list(point)} has a "
            "negative component — closed form and conditions disagree",
            stacklevel=2,
        )
    return EquilibriumRecord(point=np.array(point), label=label,
                             feasible=signs_ok and conditions_ok,
                             residual=_residual(c, p1, p2, p3))


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
# The coexistence route.
# ---------------------------------------------------------------------------


#: The descent stops once no coordinate moves by more than this times its
#: start level U (a looser stop left the Newton finish singular Jacobians
#: at zero or subnormal rates), or after ``_DESCENT_CAP`` steps.
_DESCENT_STOP, _DESCENT_CAP = 1e-12, 200


def _descent(c):
    """The iterates of ``G_i(x) = _sqrt_branch(r_i, k_i, o_i, Σ_j m_ij·x_j)``
    from ``U·1``, ``U = max_i k_i·(1 + max(0, in_i − o_i)/r_i)``, that first.

    Every ``f_i ≤ 0`` at ``U·1`` (``in_i`` is patch ``i``'s inflow rate)
    and ``G`` is increasing, as the model is cooperative, so the iterates
    fall to the maximal equilibrium (Amann, SIAM Rev. 1976): on a strongly
    connected pattern, the only positive one (Smith, Nonlinear Anal. 1986).
    Scaling patch ``i``'s rates leaves ``G_i`` unchanged.  The first
    iterate that is not finite is the last.
    """
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    u = max(k1 * (1.0 + max(0.0, m12 + m13 - o1) / r1),
            k2 * (1.0 + max(0.0, m21 + m23 - o2) / r2),
            k3 * (1.0 + max(0.0, m31 + m32 - o3) / r3))
    x = (u, u, u)
    yield x
    for _ in range(_DESCENT_CAP):
        y = (_sqrt_branch(r1, k1, o1, m12 * x[1] + m13 * x[2]),
             _sqrt_branch(r2, k2, o2, m21 * x[0] + m23 * x[2]),
             _sqrt_branch(r3, k3, o3, m31 * x[0] + m32 * x[1]))
        yield y
        if not _gap(x, y) > _DESCENT_STOP * u:  # NaN stops too
            return
        x = y


def _descent_limit(c):
    """The last iterate of ``_descent``; ConvergenceError if it is not finite
    (``U`` itself overflows once ``k_i·(in_i − o_i)/r_i`` passes ≈1.8e308)."""
    *_, x = _descent(c)
    if not all(map(math.isfinite, x)):
        raise ConvergenceError(f"the coexistence descent's iterates leave the "
                               f"float range: {list(x)}")
    return x


def newton_coexistence(params: ModelParams) -> EquilibriumRecord:
    """The maximal equilibrium: monotone descent from a super-solution (see
    ``_descent``), then at most 100 Newton steps to residual ``POLISH_TOL``.

    Returns a record labeled COEX, feasible when every component is > 0.
    Raises ConvergenceError if an iterate leaves the float range, or the
    Newton finish turns singular or misses ``POLISH_TOL``.
    """
    c = _coeffs(params)
    x = _descent_limit(c)
    got = _newton_full(c, x, POLISH_TOL, 100)
    if got is None:
        raise ConvergenceError(f"Newton from the descent's last iterate {list(x)} "
                               f"did not reach residual {POLISH_TOL:.0e} in 100 steps")
    p = np.array(got[0])
    return EquilibriumRecord(point=p, label="COEX",
                             feasible=bool(np.min(p) > 0.0), residual=got[1])


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
    conjugate form 2·inflow / (sqrt(...) - (r-loss)).  Where the
    discriminant overflows (``|r - loss|`` past ≈1.3e154), its root is
    taken as ``|s|·sqrt(1 + 4·(r/|s|)·(inflow/|s|)/k)`` with ``s = r - loss``.
    """
    s = r - loss
    disc = s * s + 4.0 * r * inflow / k
    if disc < 0.0:
        return None
    if math.isfinite(disc) or s == 0.0:
        root = math.sqrt(disc)
    else:
        a = abs(s)
        root = a * math.sqrt(1.0 + 4.0 * (r / a) * (inflow / a) / k)
    if s < 0.0:
        return -2.0 * inflow / (s - root)
    return (k / (2.0 * r)) * (s + root)


def _cf_ex2n(c):
    k2 = c[4]
    return [((0.0, k2, 0.0), "X_EX2N", True)]


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
    if not (r1 < o1 and r3 < o3):
        qa = (r1 / d1, (o1 - r1) / m13, 0.0)
        qb = (r3 / d3, (o3 - r3) / m31, 0.0)
        x, y = _parabola_intersection(qa, qb, scale)
        out.append(((x, 0.0, y), "Q1", True))
    p2 = _logistic_root(r2, k2, o2)
    if p2 > 0.0:
        qa = (r1 / d1, (o1 - r1) / m13, -m12 * p2 / m13)
        qb = (r3 / d3, (o3 - r3) / m31, -m32 * p2 / m31)
        x, y = _parabola_intersection(qa, qb, scale)
        out.append(((x, p2, y), "COEX", p2 > 0.0))
    return out


def _cf_ex8(c):
    k1 = c[3]
    return [((k1, 0.0, 0.0), "M2_EX8", True)]


def _cf_ex6(c):
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    out = [((k1, 0.0, 0.0), "I2", True)]
    beta = _logistic_root(r3, k3, o3)
    alpha = _sqrt_branch(r1, k1, o1, m13 * beta)
    if alpha is not None:
        out.append(((alpha, 0.0, beta), "I3", r3 > o3))
    p2 = _logistic_root(r2, k2, o2)
    p3 = _sqrt_branch(r3, k3, o3, m32 * p2)
    if p3 is not None:
        p1 = _sqrt_branch(r1, k1, o1, m12 * p2 + m13 * p3)
        if p1 is not None:
            out.append(((p1, p2, p3), "COEX", r2 > o2))
    return out


def _cf_chain(c):
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    out = [((0.0, 0.0, k3), "W2", True)]
    p2p = _logistic_root(r2, k2, o2)
    p3p = _sqrt_branch(r3, k3, o3, m32 * p2p)
    if p3p is not None:
        out.append(((0.0, p2p, p3p), "W3", r2 >= o2))
    p1 = _logistic_root(r1, k1, o1)
    p2 = _sqrt_branch(r2, k2, o2, m21 * p1)
    if p2 is not None:
        p3 = _sqrt_branch(r3, k3, o3, m32 * p2)
        if p3 is not None:
            out.append(((p1, p2, p3), "COEX", r1 > o1))
    return out


def _cf_converge(c):
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    out = [((0.0, k2, 0.0), "X1", True)]
    p1x = _logistic_root(r1, k1, o1)
    p2x = _sqrt_branch(r2, k2, o2, m21 * p1x)
    if p2x is not None:
        out.append(((p1x, p2x, 0.0), "X2", r1 >= o1))
    p3y = _logistic_root(r3, k3, o3)
    p2y = _sqrt_branch(r2, k2, o2, m23 * p3y)
    if p2y is not None:
        out.append(((0.0, p2y, p3y), "Y3", r3 >= o3))
    p1, p3 = p1x, p3y
    p2 = _sqrt_branch(r2, k2, o2, m21 * p1 + m23 * p3)
    if p2 is not None:
        out.append(((p1, p2, p3), "COEX", r1 > o1 and r3 > o3))
    return out


def _cf_diverge(c):
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    out = [
        ((k1, 0.0, 0.0), "Z1", True),
        ((0.0, 0.0, k3), "Z2", True),
        ((k1, 0.0, k3), "Z3", True),
    ]
    p2 = _logistic_root(r2, k2, o2)
    p1 = _sqrt_branch(r1, k1, o1, m12 * p2)
    p3 = _sqrt_branch(r3, k3, o3, m32 * p2)
    if p1 is not None and p3 is not None:
        out.append(((p1, p2, p3), "COEX", r2 > o2))
    return out


def _cf_strong(c):
    return [(_descent_limit(c), "COEX", True)]


_CLOSED_FORMS = {
    **dict.fromkeys(("FULL", "EX2", "HUB0", "EX3", "EX1"), _cf_strong),
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
    with ``feasible=False``.  On the five strongly connected patterns COEX
    is the last iterate of ``_descent``, which ``find_all_equilibria``
    polishes; a ConvergenceError there means an iterate left the float
    range.  An unknown ``topo`` is a ParameterError.
    """
    return _catalog(topo, _coeffs(apply_topology(params, topo)))


def _catalog(topo: str, c: tuple) -> list[EquilibriumRecord]:
    """``closed_form_equilibria`` of a projected coefficient tuple ``c``."""
    records = [EquilibriumRecord(point=np.zeros(3), label="ORIGIN",
                                 feasible=True, residual=0.0)]
    # Each closed form gives (point as a tuple of floats, label, conditions).
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


def _oracle_batch(cs, seed):
    """``brute_force_equilibria`` of each coefficient tuple in ``cs``, in one batch."""
    coef = _lane_coeffs(cs)
    boxes = 2.0 * coef[3:6].max(axis=0)
    n_sets = len(cs)

    # Full space: Halton starts, then the 8 box corners, per set.
    unit = np.concatenate([_halton(3, _N_STARTS, seed), _CORNERS])
    X = (unit * boxes[:, None, None]).transpose(2, 0, 1).reshape(3, -1)
    sid = np.repeat(np.arange(n_sets), len(unit))

    # Faces: _FACE_STARTS Halton starts and three fixed ones per set, face
    # by face, on each face the set closes (see brute_force_equilibria).
    # Face fi pins patch p = 2 - fi, whose inflow rates are lane rows 6 + p
    # and 9 + p.  A set with a small positive rate closes every face.
    rates = coef[6:12]
    small = ((rates > 0.0) & (rates * DEDUP_TOL <= RESIDUAL_LIMIT)).any(axis=0)
    closed = ~((coef[6:9] > 0.0) | (coef[9:12] > 0.0))[::-1] | small
    fid, fsid = np.nonzero(closed)
    planes = np.empty((len(_FACES), _FACE_STARTS + 3, 2))
    for fi in np.flatnonzero(closed.any(axis=1)).tolist():
        planes[fi, :_FACE_STARTS] = _halton(2, _FACE_STARTS, seed * 8 + fi + 1)
    planes[:, _FACE_STARTS:] = [(1.0, 1.0), (1.0, 0.25), (0.25, 1.0)]
    # Edges: patch i alone at its logistic root, wherever that root is positive.
    roots = _logistic_root(coef[0:3], coef[3:6], coef[12:15])
    ei, esid = np.nonzero(roots > 0.0)
    # Lane n is free in coordinates IJ[:, n] and pinned in the others; an
    # edge lane names its one coordinate twice.
    IJ = np.concatenate([np.repeat(np.array(_FACES)[fid].T, planes.shape[1], axis=1),
                         [ei, ei]], axis=1)
    starts = (planes[fid] * boxes[fsid, None, None]).reshape(-1, 2).T
    pinned = X.shape[1] + np.arange(IJ.shape[1])
    X = np.concatenate([X, np.zeros((3, len(pinned)))], axis=1)
    X[IJ, pinned] = np.concatenate([starts, [roots[ei, esid]] * 2], axis=1)
    free = np.ones(X.shape, dtype=bool)
    free[:, pinned] = False
    free[IJ, pinned] = True
    sid = np.concatenate([sid, np.repeat(fsid, planes.shape[1]), esid])
    # Full-space, face and edge starts run as lanes of one batch.
    ends, ok = _full_lanes(cs, sid, X, free)

    # The origin is always a root; then the converged lanes.
    X = np.concatenate([np.zeros((3, n_sets)), ends[:, ok]], axis=1)
    rsid = np.concatenate([np.arange(n_sets), sid[ok]])

    # Drop roots below _DROP_FLOOR, snap components within 1e-12·max(1, box)
    # of zero to 0, take every residual and sort each set's roots, in one pass.
    keep = ~(X.min(axis=0) < _DROP_FLOOR)
    rsid, X = rsid[keep], X[:, keep]
    X = np.where(np.abs(X) <= 1e-12 * np.maximum(1.0, boxes)[rsid], 0.0, X)
    order = np.lexsort((X[2], X[1], X[0], rsid))
    rsid, X = rsid[order], X[:, order]
    res = _abs_max(_rhs_lanes(coef[:, rsid], X)).tolist()
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


def _oracle_many(cs, seed: int = 0) -> list[list[EquilibriumRecord]]:
    """``brute_force_equilibria`` of every coefficient tuple in ``cs``, batched."""
    seed = _count("seed", seed, 0)
    out = []
    with np.errstate(all="ignore"):  # overflow and NaN as in scalar floats
        for lo in range(0, len(cs), _BATCH_SETS):
            out += _oracle_batch(cs[lo:lo + _BATCH_SETS], seed)
    return out


def brute_force_equilibria(params: ModelParams, seed: int = 0
                           ) -> list[EquilibriumRecord]:
    """Multi-start Newton oracle over the box [0, 2·max k]³.

    Interior starts are 64 scrambled Halton points plus the 8 box
    corners; every boundary face that is closed gets 15 starts of its
    own, and every edge one at its patch's logistic root where that is
    positive, solved by the same damped Newton with the other
    coordinates pinned at 0, so equilibria that repel the interior are
    still found.  A face ``x_p = 0`` is closed when no rate flows into
    ``p``.  Its pinned row is ``f_p = m_pi·x_i + m_pj·x_j``, so an arc into
    ``p`` forces its source to 0 at an exact root, and an open face holds
    no root but an edge's or the origin.  The residual test is absolute,
    though: a rate ``m`` lets a point with ``m·x ≤ RESIDUAL_LIMIT`` pass
    at a distance ``x`` from a face or an edge, and more than DEDUP_TOL
    away where ``m·DEDUP_TOL ≤ RESIDUAL_LIMIT``.  So a set with such a
    positive rate (``m ≤ 0.01``) starts every face.  Converged points
    (full residual ≤ ``RESIDUAL_LIMIT``, components ≥ −1e−9) are
    deduplicated at 1e−6 and returned labeled NUMERICAL.  A start fails
    after 60 iterations, or sooner once 16 iterates in a row have had a
    component below −1e−9, where its root would be dropped anyway.
    Deterministic for fixed ``seed``.  Every start, in the full space, on
    a face or on an edge, is a lane of one batched Newton, which ends it
    where the scalar solve from it ends, bit for bit (see ``newton``).

    Raises
    ------
    ParameterError
        If ``seed`` is not an integer >= 0.
    """
    return _oracle_many([_coeffs(params)], seed)[0]


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
    got = _newton_full(c, p, POLISH_TOL, 40, settle=40, free=free)
    if got is None or got[1] >= record.residual:
        return record
    return EquilibriumRecord(point=np.array(got[0]), label=record.label,
                             feasible=record.feasible, residual=got[1])


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
        If a *feasible* catalog point is absent from the oracle set: a
        transcribed formula is wrong, or the oracle missed a state, as
        its absolute residual limit can when rates are far from 1.
    ConvergenceError
        If the coexistence descent leaves the float range.
    ParameterError
        If ``seed`` is not an integer >= 0.
    """
    params = apply_topology(params, topo)
    oracle = brute_force_equilibria(params, seed=seed)
    return _merge(topo, _coeffs(params), closed_form_equilibria(topo, params), oracle)


def _find_all_many(topo: str, cs, seed: int = 0) -> list[list[EquilibriumRecord]]:
    """``find_all_equilibria`` of every projected coefficient tuple in ``cs``.

    The oracle solves all tuples in one batch; the closed forms, polish,
    merge and cross-check then run tuple by tuple.
    """
    oracles = _oracle_many(cs, seed)
    return [_merge(topo, c, _catalog(topo, c), o) for c, o in zip(cs, oracles)]


def _merge(topo: str, c: tuple, catalog, oracle) -> list[EquilibriumRecord]:
    """Polish the catalog and the oracle points of projected tuple ``c`` and merge."""
    catalog = [_polish(c, rec) for rec in catalog]

    # Polish oracle points before matching: near a transcritical the
    # Jacobian is close to singular, so a raw residual of 1e-8 can leave
    # the point several 1e-6 away from the closed form.  Polished points
    # may also collapse onto one root, so dedup again.
    polished = sorted(((rec.point.tolist(), rec) for rec in
                       (_polish(c, r) for r in oracle)), key=lambda pr: pr[0])
    keep = _dedup([p for p, _ in polished], [rec.residual for _, rec in polished])

    interior = 1e-7 * max(1.0, c[3], c[4], c[5])
    merged = list(catalog)
    matched: set[int] = set()
    catalog_points = [cf.point.tolist() for cf in catalog]
    for p, rec in (polished[n] for n in keep):
        # Every hit, not the first: at a branch crossing two catalog labels
        # coincide and one oracle point must vouch for both.
        hits = [i for i, q in enumerate(catalog_points) if _gap(p, q) < DEDUP_TOL]
        matched.update(hits)
        if hits:
            continue
        # Strictly interior; a point with a NaN component is not.
        if p[0] > interior and p[1] > interior and p[2] > interior:
            rec = EquilibriumRecord(point=rec.point, label="COEX",
                                    feasible=rec.feasible, residual=rec.residual)
        merged.append(rec)

    for i, cf in enumerate(catalog):
        if cf.feasible and i not in matched:
            raise ConsistencyError(
                f"feasible closed-form equilibrium {cf.label} at "
                f"{cf.point.tolist()} not found by the brute-force oracle "
                f"({topo}); the catalog and the oracle disagree"
            )
    return merged
