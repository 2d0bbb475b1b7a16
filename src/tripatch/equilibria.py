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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, _coeffs, _jac, _rhs
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


class ConvergenceError(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""


class SingularJacobianError(ConvergenceError):
    """Newton system numerically singular (condition estimate > 1e14)."""


class BracketError(RuntimeError):
    """The coexistence construction found no sign change on [0, H]."""


class ConsistencyError(RuntimeError):
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


def _residual(c: tuple, p1: float, p2: float, p3: float) -> float:
    f1, f2, f3 = _rhs(c, p1, p2, p3)
    return max(abs(f1), abs(f2), abs(f3))


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


def _halton(d: int, n: int, seed: int) -> np.ndarray:
    """First ``n`` points of a scrambled Halton sequence in [0, 1)^d, d ≤ 3.

    Owen's random digit scrambling (Owen 2017, "A randomized Halton
    algorithm", Algorithm 1): base 2, 3, 5 per coordinate, one random
    permutation of the digits 0..base-1 per digit position, down to
    double-precision depth.  Equal seeds give bit-identical points: the
    permutations come row by row from one ``default_rng(seed)`` stream
    and the digit terms are summed left to right.
    """
    rng = np.random.default_rng(seed)
    index = np.arange(n)
    cols = []
    for base in (2, 3, 5)[:d]:
        depth = math.ceil(54 / math.log2(base)) - 1
        perms = rng.permuted(np.tile(np.arange(base), (depth, 1)), axis=1)
        digits = index[:, None] // base ** np.arange(depth) % base
        # Running quotients, not base**-j: the two differ in the last bit.
        weights = np.empty(depth)
        binv = 1.0 / base
        for j in range(depth):
            weights[j] = binv
            binv /= base
        terms = perms[np.arange(depth), digits] * weights
        cols.append(np.add.accumulate(terms, axis=1)[:, -1])
    return np.stack(cols, axis=1)


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
# Damped Newton on the full system and on boundary faces.
# ---------------------------------------------------------------------------

_COND_LIMIT = 1e14


def _solve3(j: tuple, f1: float, f2: float, f3: float):
    """Solve the 3x3 system J x = -f by Cramer; returns step or None.

    Also returns a cheap 1-norm condition estimate built from the
    explicit adjugate, so callers can flag numerically singular systems.
    """
    a, b, c_, d, e, f, g, h, i = j
    A = e * i - f * h
    B = -(d * i - f * g)
    C = d * h - e * g
    det = a * A + b * B + c_ * C
    if det == 0.0:
        return None, math.inf
    D = -(b * i - c_ * h)
    E = a * i - c_ * g
    F = -(a * h - b * g)
    G = b * f - c_ * e
    H = -(a * f - c_ * d)
    I = a * e - b * d
    inv = abs(det)
    n_j = max(abs(a) + abs(d) + abs(g), abs(b) + abs(e) + abs(h),
              abs(c_) + abs(f) + abs(i))
    n_inv = max(abs(A) + abs(D) + abs(G), abs(B) + abs(E) + abs(H),
                abs(C) + abs(F) + abs(I)) / inv
    x1 = -(A * f1 + D * f2 + G * f3) / det
    x2 = -(B * f1 + E * f2 + H * f3) / det
    x3 = -(C * f1 + F * f2 + I * f3) / det
    return (x1, x2, x3), n_j * n_inv


def _newton_full(c, x0, tol, max_iter, positive=False, raise_errors=False,
                 settle=0):
    """Damped Newton on the full 3-D system.

    With ``positive=True`` the step is halved until the iterate stays
    strictly inside the positive orthant; otherwise steps are halved
    only while they increase the residual (at most a few times), which
    lets the iteration settle onto boundary equilibria.

    ``settle`` grants extra iterations after the residual test is met,
    stopping only once the Newton step itself reaches round-off.  Near a
    branch crossing the Jacobian is almost singular and the residual
    tolerance is satisfied up to ~1e-5 away along the null direction;
    the settle phase walks that last stretch (the step halves each
    iteration there instead of converging quadratically).
    """
    p1, p2, p3 = (float(v) for v in x0)
    res = _residual(c, p1, p2, p3)
    for _ in range(max_iter + settle):
        converged = res <= tol
        if converged and settle <= 0:
            return (p1, p2, p3), res
        f1, f2, f3 = _rhs(c, p1, p2, p3)
        step, cond = _solve3(_jac(c, p1, p2, p3), f1, f2, f3)
        if step is None or cond > _COND_LIMIT:
            if converged:
                return (p1, p2, p3), res  # cannot settle further
            if raise_errors:
                raise SingularJacobianError(
                    f"Jacobian condition estimate {cond:.2e} exceeds {_COND_LIMIT:.0e} "
                    f"at point ({p1}, {p2}, {p3})"
                )
            return None
        if converged:
            settle -= 1
            scale = 1.0 + max(abs(p1), abs(p2), abs(p3))
            if max(abs(s) for s in step) <= 1e-13 * scale:
                return (p1, p2, p3), res
        lam = 1.0
        if positive:
            for _ in range(60):
                if p1 + lam * step[0] > 0 and p2 + lam * step[1] > 0 \
                        and p3 + lam * step[2] > 0:
                    break
                lam *= 0.5
        q = (p1 + lam * step[0], p2 + lam * step[1], p3 + lam * step[2])
        new_res = _residual(c, *q)
        if not positive:
            halvings = 0
            while new_res > res and halvings < 6:
                lam *= 0.5
                q = (p1 + lam * step[0], p2 + lam * step[1], p3 + lam * step[2])
                new_res = _residual(c, *q)
                halvings += 1
        p1, p2, p3 = q
        res = new_res
    if res <= tol:
        return (p1, p2, p3), res
    if raise_errors:
        raise ConvergenceError(
            f"Newton did not reach residual {tol:.1e} in {max_iter} iterations "
            f"(best residual {res:.2e})"
        )
    return None


def _newton_support(c, x0, free, tol, max_iter=60, settle=0):
    """Newton restricted to the coordinates in ``free``; others pinned at 0.

    Returns the full-space point when the *full* residual meets ``tol``,
    else None.  This is how boundary equilibria are located even when
    they repel the interior.  ``settle`` grants extra iterations after
    the residual test is met, ending only when the step reaches
    round-off — see :func:`_newton_full`.
    """
    p = [0.0, 0.0, 0.0]
    for i in free:
        p[i] = float(x0[i])
    n = len(free)
    for _ in range(max_iter + settle):
        f = _rhs(c, p[0], p[1], p[2])
        converged = max(abs(f[i]) for i in free) <= 0.25 * tol
        if converged and settle <= 0:
            break
        jfull = _jac(c, p[0], p[1], p[2])
        if n == 1:
            i = free[0]
            d = jfull[4 * i]
            if d == 0.0:
                if converged:
                    break
                return None
            steps = {i: -f[i] / d}
        else:
            i, j = free
            a, b = jfull[3 * i + i], jfull[3 * i + j]
            d, e = jfull[3 * j + i], jfull[3 * j + j]
            det = a * e - b * d
            if det == 0.0:
                if converged:
                    break
                return None
            steps = {i: -(e * f[i] - b * f[j]) / det,
                     j: -(-d * f[i] + a * f[j]) / det}
        if converged:
            settle -= 1
            scale = 1.0 + max(abs(v) for v in p)
            if max(abs(s) for s in steps.values()) <= 1e-13 * scale:
                break
        for i, s in steps.items():
            p[i] += s
        if not all(math.isfinite(v) for v in p):
            return None
    if _residual(c, p[0], p[1], p[2]) <= tol:
        return tuple(p)
    return None


def newton_coexistence(params: ModelParams, start=None, tol: float = 1e-10,
                       max_iter: int = 100) -> EquilibriumRecord:
    """Damped Newton search for the interior equilibrium.

    Parameters
    ----------
    params : ModelParams
    start : array-like, optional
        Strictly positive initial point; defaults to the carrying
        capacities ``k``.
    tol, max_iter :
        Max-norm residual target and iteration budget.

    Returns
    -------
    EquilibriumRecord
        Labeled COEX, all components > 0, residual ≤ ``tol``.

    Raises
    ------
    ConvergenceError
        If the residual target is not met within ``max_iter``.
    SingularJacobianError
        If a Newton system is numerically singular.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    c = _coeffs(params)
    x0 = tuple(float(v) for v in params.k) if start is None else tuple(start)
    if min(x0) <= 0:
        raise ValueError("start must be strictly positive")
    point, res = _newton_full(c, x0, tol, max_iter, positive=True, raise_errors=True)
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


def coexistence_by_construction(params: ModelParams,
                                h_tol: float = 1e-12) -> EquilibriumRecord:
    """Locate the interior equilibrium by the constructive argument.

    For each height ``h ≥ 0``, the first two equilibrium equations with
    ``P3 = h`` define two parabolic cylinders whose feasible branches
    meet in a single point ``Q_h = (P1(h), P2(h))``.  The third equation
    defines the explicit nonnegative surface

        P3⁺ = k3/(2 r3) [ (r3−m13−m23) + sqrt((r3−m13−m23)² +
                           4 r3 (m31 P1 + m32 P2)/k3) ].

    The equilibrium is the fixed point of ``h ↦ P3⁺(Q_h)``, found by
    bracketing and bisecting ``g(h) = P3⁺(Q_h) − h`` on ``[0, H]`` with
    ``H = 10·max(k)``.  This is a fully independent oracle: no Newton
    step touches the result.

    Raises
    ------
    ModelParams ``ParameterError``-style ``ValueError``
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
            raise ValueError(
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
    h_star = _brentq(g, lo, H, xtol=h_tol, rtol=8.9e-16)
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
    """
    s = r - loss
    disc = s * s + 4.0 * r * inflow / k
    if disc < 0.0:
        return None
    return (k / (2.0 * r)) * (s + math.sqrt(disc))


def _cf_ex2n(c):
    k2 = c[4]
    return [(np.array([0.0, k2, 0.0]), "X_EX2N", True)]


def _cf_ex7(c):
    """Patch 2 is a pure source: its level at coexistence is explicit."""
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    out = []
    if m13 <= 0.0 or m31 <= 0.0:
        # Degenerate rates turn this into a sparser flow pattern; the
        # parabola construction (which divides by both) does not apply.
        return out
    scale = max(k1, k2, k3)
    # Patch-2-free point: intersection of the two face parabolae.
    if not (r1 < m31 and r3 < m13):
        qa = (r1 / (k1 * m13), (m31 - r1) / m13, 0.0)
        qb = (r3 / (k3 * m31), (m13 - r3) / m31, 0.0)
        x, y = _parabola_intersection(qa, qb, scale)
        out.append((np.array([x, 0.0, y]), "Q1", True))
    p2 = _logistic_root(r2, k2, m12 + m32)
    if p2 > 0.0:
        qa = (r1 / (k1 * m13), (m31 - r1) / m13, -m12 * p2 / m13)
        qb = (r3 / (k3 * m31), (m13 - r3) / m31, -m32 * p2 / m31)
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

    ``params`` must already be projected onto ``topo`` (zeroed rates
    actually zero).  The origin is always included; the per-topology
    boundary points and explicit coexistence expressions follow.  A
    point whose formula involves the square root of a negative number
    does not exist in the reals and is omitted; points that exist but
    violate their side conditions are returned with ``feasible=False``.
    """
    if topo not in _CLOSED_FORMS:
        raise ValueError(f"unknown topology token {topo!r}")
    c = _coeffs(params)
    records = [EquilibriumRecord(point=np.zeros(3), label="ORIGIN",
                                 feasible=True, residual=0.0)]
    for point, label, cond_ok in _CLOSED_FORMS[topo](c):
        records.append(_make_record(c, point, label, cond_ok))
    return records


# ---------------------------------------------------------------------------
# Brute-force oracle.
# ---------------------------------------------------------------------------


def _snap_zeros(p, scale):
    return tuple(0.0 if abs(v) <= 1e-12 * scale else v for v in p)


def brute_force_equilibria(params: ModelParams, n_starts: int = 64,
                           seed: int = 0, tol: float = 1e-8
                           ) -> list[EquilibriumRecord]:
    """Multi-start Newton oracle over the box [0, 2·max k]³.

    Interior starts come from a scrambled Halton sequence plus the 8
    box corners; every boundary face and edge gets its own restricted
    Newton solves so equilibria that repel the interior are still
    found.  Converged points (full residual ≤ ``tol``, components ≥
    −1e−9) are deduplicated at 1e−6 and returned labeled NUMERICAL.
    Deterministic for fixed ``seed``.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    c = _coeffs(params)
    box = 2.0 * float(np.max(params.k))
    scale = max(1.0, box)
    found: list[tuple] = [(0.0, 0.0, 0.0)]  # the origin is always a root

    interior = _halton(3, n_starts, seed) * box
    corners = [(a, b, d) for a in (0.0, box) for b in (0.0, box) for d in (0.0, box)]
    for x0 in list(interior) + corners:
        got = _newton_full(c, tuple(x0), tol, 60)
        if got is not None:
            found.append(got[0])

    faces = ((0, 1), (0, 2), (1, 2))
    for fi, free in enumerate(faces):
        plane = _halton(2, 12, seed * 8 + fi + 1) * box
        starts = [tuple(row) for row in plane]
        starts += [(box, box), (box, 0.25 * box), (0.25 * box, box)]
        for s in starts:
            x0 = [0.0, 0.0, 0.0]
            x0[free[0]], x0[free[1]] = s[0], s[1]
            got = _newton_support(c, x0, free, tol)
            if got is not None:
                found.append(got)

    for i in range(3):
        root = _logistic_root(c[i], c[3 + i], c[12 + i])
        if root > 0.0:
            x0 = [0.0, 0.0, 0.0]
            x0[i] = root
            if _residual(c, *x0) <= tol:
                found.append(tuple(x0))
            else:
                got = _newton_support(c, x0, (i,), tol)
                if got is not None:
                    found.append(got)

    kept = []
    for p in found:
        if min(p) < -1e-9:
            continue
        kept.append(_snap_zeros(p, scale))
    kept.sort()

    reps: list[tuple] = []
    for p in kept:
        for idx, q in enumerate(reps):
            if max(abs(p[0] - q[0]), abs(p[1] - q[1]), abs(p[2] - q[2])) < DEDUP_TOL:
                if _residual(c, *p) < _residual(c, *q):
                    reps[idx] = p
                break
        else:
            reps.append(p)

    return [
        EquilibriumRecord(point=np.array(p), label="NUMERICAL",
                          feasible=bool(min(p) >= -FEASIBLE_TOL),
                          residual=_residual(c, *p))
        for p in reps
    ]


# ---------------------------------------------------------------------------
# Merge: catalog + oracle.
# ---------------------------------------------------------------------------


def _polish(c, record: EquilibriumRecord, tol: float = 1e-10) -> EquilibriumRecord:
    """Tighten a record with structure-preserving Newton.

    Components that are exactly zero stay pinned (so a boundary label
    keeps its face); free components are refined until the full
    residual drops below ``tol``.  If polishing cannot improve the
    point, the original is kept.
    """
    p = record.point
    free = tuple(i for i in range(3) if p[i] != 0.0)
    if not free:
        return record
    if len(free) == 3:
        got = _newton_full(c, tuple(p), tol, 40, settle=40)
        better = got[0] if got is not None else None
    else:
        better = _newton_support(c, list(p), free, tol, settle=40)
    if better is None:
        return record
    res = _residual(c, *better)
    if res >= record.residual:
        return record
    return EquilibriumRecord(point=np.array(better), label=record.label,
                             feasible=record.feasible, residual=res)


def find_all_equilibria(topo: str, params: ModelParams, n_starts: int = 64,
                        seed: int = 0, tol: float = 1e-8
                        ) -> list[EquilibriumRecord]:
    """Complete equilibrium set: closed forms merged with the oracle.

    The parameter set is projected onto ``topo`` first.  Closed-form
    records win label ties; oracle points that match no catalog entry
    are appended — relabeled COEX when strictly interior, NUMERICAL
    otherwise.  Every record is polished to residual ≤ 1e−10 where the
    Jacobian allows.

    Raises
    ------
    ConsistencyError
        If a *feasible* catalog point is absent from the oracle set —
        that combination means a transcribed formula is wrong.
    """
    params = apply_topology(params, topo)
    c = _coeffs(params)
    catalog = [_polish(c, rec) for rec in closed_form_equilibria(topo, params)]
    oracle = brute_force_equilibria(params, n_starts=n_starts, seed=seed, tol=tol)

    # Polish oracle points before matching: near a transcritical the
    # Jacobian is close to singular, so a raw residual of 1e-8 can leave
    # the point several 1e-6 away from the closed form.  Polished points
    # may also collapse onto one root, so dedup again.
    polished = []
    for rec in sorted((_polish(c, rec) for rec in oracle),
                      key=lambda r: tuple(r.point)):
        dup = next((i for i, q in enumerate(polished)
                    if float(np.max(np.abs(rec.point - q.point))) < DEDUP_TOL),
                   None)
        if dup is None:
            polished.append(rec)
        elif rec.residual < polished[dup].residual:
            polished[dup] = rec
    oracle = polished

    scale = max(1.0, float(np.max(params.k)))
    merged = list(catalog)
    matched = [False] * len(catalog)
    extras = []
    for rec in oracle:
        hit = False
        # No break: at a branch crossing two catalog labels coincide and
        # one oracle point must vouch for both.
        for i, cf in enumerate(catalog):
            if float(np.max(np.abs(rec.point - cf.point))) < DEDUP_TOL:
                matched[i] = True
                hit = True
        if not hit:
            extras.append(rec)

    for i, cf in enumerate(catalog):
        if cf.feasible and not matched[i]:
            raise ConsistencyError(
                f"feasible closed-form equilibrium {cf.label} at "
                f"{cf.point.tolist()} not found by the brute-force oracle "
                f"({topo}); a transcribed formula is suspect"
            )

    for rec in extras:
        if float(np.min(rec.point)) > 1e-7 * scale:
            rec = EquilibriumRecord(point=rec.point, label="COEX",
                                    feasible=rec.feasible, residual=rec.residual)
        merged.append(rec)
    return merged
