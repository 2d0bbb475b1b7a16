"""Newton's method on the three-patch model, one start at a time or batched.

The scalar solvers (``_newton_full`` on the full system,
``_newton_support`` on a boundary face or edge) serve polishing,
``newton_coexistence``, sweep continuation and single leftover starts.
They unpack the coefficient tuple once, write the rhs, the Jacobian
diagonal and the Cramer solve out inline in each iteration, evaluate the
rhs once per trial point and carry it into the next Newton step.  The
batched ones (``_full_lanes`` and ``_face_lanes``) serve the multi-start
oracle: they hold every start of every parameter set as a lane with its own
coefficient column, and stop lanes by mask once they converge or turn
singular.  Each batch iteration stacks like terms across lanes: the nine
cofactors of the 3x3 solve are one (9, n) array built from index tables,
and a face's two free coordinates are one (2, n) gather.  Every lane
performs the scalar solve's float operations in the same order (Python's
``max`` tie rule included, and the residual-halving search evaluated for
all six damping factors at once but taken at the first that does not raise
the residual), so each start ends where the scalar solve from it ends, bit
for bit.  The last few live lanes finish in the scalar solvers with their
remaining iterations.
"""

from __future__ import annotations

import math

import numpy as np

from .model import NumericalError, _rhs

__all__ = ["ConvergenceError", "SingularJacobianError"]


class ConvergenceError(NumericalError):
    """Newton iteration failed to reach the residual tolerance."""


class SingularJacobianError(ConvergenceError):
    """Newton system numerically singular (condition estimate > 1e14)."""


def _residual(c: tuple, p1: float, p2: float, p3: float) -> float:
    f1, f2, f3 = _rhs(c, p1, p2, p3)
    return max(abs(f1), abs(f2), abs(f3))


# ---------------------------------------------------------------------------
# Scalar damped Newton on the full system and on boundary faces.
# ---------------------------------------------------------------------------

_COND_LIMIT = 1e14


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

    Inside the loop, the rhs, the Jacobian diagonal and the Cramer solve of
    J s = -f are written out with ``_rhs``'s and ``_jac``'s operations in
    their order, and so is Python's ``max`` of three values (a later one
    wins only if it is greater).  The step's cofactors are those of the
    matrix (a b c; d e f; g h i) with a, e, i the diagonal and b = m12,
    c = m13, d = m21, f = m23, g = m31, h = m32; a product of two rates is
    the same every iteration, so it is taken once.  The condition estimate is
    the 1-norm of J times that of its explicit inverse, and the system
    counts as singular where the determinant is 0 or the estimate exceeds
    ``_COND_LIMIT``.
    """
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    t1, t2, t3 = 2.0 * r1, 2.0 * r2, 2.0 * r3
    fh, fg, dh = m23 * m32, m23 * m31, m21 * m32
    ch, cg, bg = m13 * m32, m13 * m31, m12 * m31
    bf, cd, bd = m12 * m23, m13 * m21, m12 * m21
    ab, ac, ad, af, ag, ah = abs(m12), abs(m13), abs(m21), abs(m23), abs(m31), abs(m32)
    p1, p2, p3 = (float(v) for v in x0)
    f1, f2, f3 = _rhs(c, p1, p2, p3)
    res = max(abs(f1), abs(f2), abs(f3))
    for _ in range(max_iter + settle):
        converged = res <= tol
        if converged and settle <= 0:
            return (p1, p2, p3), res
        a = r1 - t1 * p1 / k1 - o1
        e = r2 - t2 * p2 / k2 - o2
        i = r3 - t3 * p3 / k3 - o3
        A = e * i - fh
        B = -(m21 * i - fg)
        C = dh - e * m31
        det = a * A + m12 * B + m13 * C
        cond = math.inf
        if det != 0.0:
            D = -(m12 * i - ch)
            E = a * i - cg
            F = -(a * m32 - bg)
            G = bf - m13 * e
            H = -(a * m23 - cd)
            I = a * e - bd
            n_j, x, y = abs(a) + ad + ag, ab + abs(e) + ah, ac + af + abs(i)
            if x > n_j:
                n_j = x
            if y > n_j:
                n_j = y
            n_a, x, y = (abs(A) + abs(D) + abs(G), abs(B) + abs(E) + abs(H),
                         abs(C) + abs(F) + abs(I))
            if x > n_a:
                n_a = x
            if y > n_a:
                n_a = y
            cond = n_j * (n_a / abs(det))
        if det == 0.0 or cond > _COND_LIMIT:
            if converged:
                return (p1, p2, p3), res  # cannot settle further
            if raise_errors:
                raise SingularJacobianError(
                    f"Jacobian condition estimate {cond:.2e} exceeds {_COND_LIMIT:.0e} "
                    f"at point ({p1}, {p2}, {p3})"
                )
            return None
        s1 = -(A * f1 + D * f2 + G * f3) / det
        s2 = -(B * f1 + E * f2 + H * f3) / det
        s3 = -(C * f1 + F * f2 + I * f3) / det
        if converged:
            settle -= 1
            scale = 1.0 + max(abs(p1), abs(p2), abs(p3))
            if max(abs(s1), abs(s2), abs(s3)) <= 1e-13 * scale:
                return (p1, p2, p3), res
        lam = 1.0
        if positive:
            for _ in range(60):
                if p1 + lam * s1 > 0 and p2 + lam * s2 > 0 and p3 + lam * s3 > 0:
                    break
                lam *= 0.5
        # The step, then (unless positive) at most six halvings while the
        # residual rises; the last halving is taken even if it does not help.
        for halvings in range(7):
            q1, q2, q3 = p1 + lam * s1, p2 + lam * s2, p3 + lam * s3
            f1 = r1 * q1 * (1.0 - q1 / k1) + m12 * q2 + m13 * q3 - o1 * q1
            f2 = r2 * q2 * (1.0 - q2 / k2) + m21 * q1 + m23 * q3 - o2 * q2
            f3 = r3 * q3 * (1.0 - q3 / k3) + m31 * q1 + m32 * q2 - o3 * q3
            new_res, x, y = abs(f1), abs(f2), abs(f3)
            if x > new_res:
                new_res = x
            if y > new_res:
                new_res = y
            if positive or not new_res > res or halvings == 6:
                break
            lam *= 0.5
        p1, p2, p3, res = q1, q2, q3, new_res
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
    round-off — see :func:`_newton_full`, which also writes the rhs and
    the Jacobian out in the same way.
    """
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    i, j = free * 2 if len(free) == 1 else free  # i == j on an edge
    p = [0.0, 0.0, 0.0]
    p[i], p[j] = float(x0[i]), float(x0[j])
    ri, ki, oi, ti = c[i], c[3 + i], c[12 + i], 2.0 * c[i]
    rj, kj, oj, tj = c[j], c[3 + j], c[12 + j], 2.0 * c[j]
    off = (0.0, m12, m13, m21, 0.0, m23, m31, m32, 0.0)
    b, d = off[3 * i + j], off[3 * j + i]  # J_ij and J_ji
    bd = b * d
    for _ in range(max_iter + settle):
        p1, p2, p3 = p
        f = (r1 * p1 * (1.0 - p1 / k1) + m12 * p2 + m13 * p3 - o1 * p1,
             r2 * p2 * (1.0 - p2 / k2) + m21 * p1 + m23 * p3 - o2 * p2,
             r3 * p3 * (1.0 - p3 / k3) + m31 * p1 + m32 * p2 - o3 * p3)
        fi, fj = f[i], f[j]
        x, y = abs(fi), abs(fj)
        converged = (y if y > x else x) <= 0.25 * tol
        if converged and settle <= 0:
            break
        a = ri - ti * p[i] / ki - oi
        if i == j:
            det = a
        else:
            e = rj - tj * p[j] / kj - oj
            det = a * e - bd
        if det == 0.0:
            if converged:
                break
            return None
        if i == j:
            si = sj = -fi / det
        else:
            si = -(e * fi - b * fj) / det
            sj = -(-d * fi + a * fj) / det
        if converged:
            settle -= 1
            scale = 1.0 + max(abs(p1), abs(p2), abs(p3))
            if max(abs(si), abs(sj)) <= 1e-13 * scale:
                break
        p[i] += si
        if j != i:
            p[j] += sj
        if not (math.isfinite(p[i]) and math.isfinite(p[j])):
            return None
    if _residual(c, p[0], p[1], p[2]) <= tol:
        return tuple(p)
    return None


# ---------------------------------------------------------------------------
# The same solves batched over lanes.
# ---------------------------------------------------------------------------


#: The batched oracle finishes its last this-many live lanes one at a time
#: in the scalar Newton.  A few starts need many more iterations than the
#: rest, or never converge; one batch iteration of a set's 72 full-space
#: lanes costs about as much as 24 scalar ones (≈175 µs against ≈7 µs for
#: a start that stalls, on a 2-CPU x86_64 VM).  At 8, 16, 24, 32 and 48 a
#: bench scan op took 4.31, 3.54, 3.51, 3.47 and 3.47 ms and a sweep op
#: 19.2, 18.3, 16.3, 17.8 and 17.8 ms (medians of 6 laps and of 8 passes
#: over 60 ops): no value was faster than 24 on both.
_HANDOFF_LANES = 24

#: Iteration budget of every oracle start.
_ORACLE_ITER = 60

#: Damping factors of the full-space residual-halving search, in the
#: order the scalar loop tries them.
_HALVINGS = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625])

# Lane coefficient rows: _coeffs reordered to r, k, (m12, m21, m31),
# (m13, m23, m32), o, so that f_i = r_i·p_i·(1 - p_i/k_i) + ma_i·p_a
# + mb_i·p_b - o_i·p_i with (a, b) the other two patches in _rhs's order.
_LANE_ROWS = [0, 1, 2, 3, 4, 5, 6, 8, 10, 7, 9, 11, 12, 13, 14]
_IA, _IB = np.array([1, 0, 0]), np.array([2, 2, 1])
# Lane coefficient row of the Jacobian entry J_ij (i != j), an m rate.
_OFFDIAG_ROW = np.array([[-1, 6, 9], [7, -1, 10], [8, 11, -1]])

# _solve3_lanes stacks the Jacobian's entries as the rows of one array M:
# the diagonal a, e, i, then the lane rows 6-11, which hold b = J12,
# d = J21, g = J31, c = J13, f = J23, h = J32.
_a, _e, _i, _b, _d, _g, _c, _f, _h = range(9)
# Cofactor n is (M[X1]·M[Y1] - M[X2]·M[Y2])·sign, in the order A..I of
# the explicit adjugate: A, B, C multiply f1 in the step's three rows,
# D, E, F multiply f2 and G, H, I multiply f3.  Negating by ·(-1.0) is exact.
# Four (9, n) gathers: one (4, 9, n) gather made a 1008-lane solve take 2.5x
# as long.
_X1, _Y1, _X2, _Y2 = np.array([
    [_e, _d, _d, _b, _a, _a, _b, _a, _a],
    [_i, _i, _h, _i, _i, _h, _f, _f, _e],
    [_f, _f, _e, _c, _c, _b, _c, _c, _b],
    [_h, _g, _g, _h, _g, _g, _e, _d, _d],
])
_COFACTOR_SIGN = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0])[:, None]
# The row of M in term t of column k's absolute sum, for J's 1-norm; in
# the adjugate's, that term is cofactor 3t + k.
_NORM_TERMS = np.array([[_a, _b, _c], [_d, _e, _f], [_g, _h, _i]])


def _lane_coeffs(cs) -> np.ndarray:
    """The (15, n) lane coefficient columns of ``_coeffs`` tuples ``cs``."""
    return np.array(cs).T[_LANE_ROWS]


def _rhs_lanes(K, P):
    """``_rhs`` on every column of a (3, n) state, with the same operand order."""
    return (K[0:3] * P * (1.0 - P / K[3:6]) + K[6:9] * P[_IA]
            + K[9:12] * P[_IB] - K[12:15] * P)


def _diag_lanes(K, P):
    """Diagonal of ``_jac`` on every column; the off-diagonals are K's m rows."""
    return K[0:3] - 2.0 * K[0:3] * P / K[3:6] - K[12:15]


def _col_max(a):
    """Python's ``max`` over the rows of each column of ``a``.

    Like ``max(x, y)``, a later entry wins only if it is greater, so a
    NaN after the first entry is skipped where ``np.max`` would return it.
    """
    m = a[0]
    for row in a[1:]:
        m = np.where(row > m, row, m)
    return m


def _col_min(a):
    """Python's ``min`` over the rows of each column of ``a`` (see _col_max)."""
    m = a[0]
    for row in a[1:]:
        m = np.where(row < m, row, m)
    return m


def _solve3_lanes(K, diag, F):
    """The scalar Newton's Cramer solve on every lane: step and singular mask.

    A lane is singular where the determinant is 0 or the condition
    estimate exceeds ``_COND_LIMIT``; its step is then meaningless.  Each
    lane performs ``_newton_full``'s float operations in their order,
    with ``-(x - y)`` written as ``(x - y)·(-1.0)``, which is exact.
    """
    M = np.concatenate((diag, K[6:12]))
    cof = (M[_X1] * M[_Y1] - M[_X2] * M[_Y2]) * _COFACTOR_SIGN
    t = M[0:9:3] * cof[0:3]  # a·A, b·B, c·C
    det = t[0] + t[1] + t[2]
    j, adj = np.abs(M)[_NORM_TERMS], np.abs(cof).reshape(3, 3, -1)
    cond = _col_max(j[0] + j[1] + j[2]) * (_col_max(adj[0] + adj[1] + adj[2])
                                           / np.abs(det))
    t = cof.reshape(3, 3, -1) * F[:, None]
    step = -(t[0] + t[1] + t[2]) / det
    return step, (det == 0.0) | (cond > _COND_LIMIT)


def _ladder(mask):
    """Indices of the ``mask`` lanes, padded with others to a power of two.

    Keeping every batch on a few fixed widths keeps NumPy's cache of
    freed small blocks (up to 7 per size under 1 KiB) to a few sizes.
    """
    width = min(len(mask), 1 << (int(np.count_nonzero(mask)) - 1).bit_length())
    return np.argsort(~mask, kind="stable")[:width]


def _full_lanes(cs, K, P, sid, tol):
    """``_newton_full(c, x0, tol, 60)`` on every column of ``P`` at once.

    ``K`` holds each lane's coefficient column, ``sid`` its index into
    ``cs``.  Returns the (3, n) end points and a mask of the lanes whose
    scalar solve returns a root.  A lane that converges or turns singular
    stops moving; the batch drops stopped lanes once half of it has.
    """
    ends, ok = np.empty_like(P), np.zeros(P.shape[1], dtype=bool)
    lane, live = np.arange(P.shape[1]), np.ones(P.shape[1], dtype=bool)
    conv = ~live
    F = _rhs_lanes(K, P)
    res = _col_max(np.abs(F))
    for it in range(_ORACLE_ITER):
        done = live & (res <= tol)
        conv |= done
        live &= ~done
        if np.count_nonzero(live) <= _HANDOFF_LANES:
            ends[:, lane], ok[lane] = P, conv
            for n in np.flatnonzero(live).tolist():
                j = lane[n]
                got = _newton_full(cs[sid[j]], P[:, n].tolist(), tol,
                                   _ORACLE_ITER - it)
                if got is not None:
                    ends[:, j], ok[j] = got[0], True
            return ends, ok
        step, singular = _solve3_lanes(K, _diag_lanes(K, P), F)
        live &= ~singular
        if 2 * np.count_nonzero(live) <= len(live):
            ends[:, lane], ok[lane] = P, conv
            keep = _ladder(live)
            lane, K, P, F, res, step, live, conv = (
                lane[keep], K[:, keep], P[:, keep], F[:, keep], res[keep],
                step[:, keep], live[keep], conv[keep])
        # The full step (lam = 1.0, exact), then at most six halvings while
        # the residual rises; the last halving is taken even if it does not help.
        Q = P + step
        FQ = _rhs_lanes(K, Q)
        rq = _col_max(np.abs(FQ))
        up = live & (rq > res)
        if up.any():
            idx = _ladder(up)
            Qc = P[:, idx][:, None] + _HALVINGS[:, None] * step[:, idx][:, None]
            Fc = _rhs_lanes(K[:, idx][:, None], Qc)
            rc = _col_max(np.abs(Fc))
            # Take the first factor whose residual does not rise, else the last.
            rises = rc > res[idx]
            rises[-1] = False
            # _ladder puts the lanes of up first, in order, then padding.
            n_up = np.count_nonzero(up)
            pick, cols = rises.argmin(axis=0)[:n_up], np.arange(n_up)
            up = idx[:n_up]
            Q[:, up], FQ[:, up], rq[up] = (Qc[:, pick, cols], Fc[:, pick, cols],
                                           rc[pick, cols])
        P, F, res = np.where(live, Q, P), FQ, rq
    conv |= live & (res <= tol)
    ends[:, lane], ok[lane] = P, conv
    return ends, ok


def _face_lanes(cs, K, P, IJ, sid, tol):
    """``_newton_support(c, x0, (i, j), tol)`` on every column of ``P``.

    Lane ``n`` is free in coordinates ``IJ[0, n] < IJ[1, n]`` and pinned
    at 0 in the third.  Returns the (3, n) end points and a mask of the lanes
    whose scalar solve returns a root.  Stopped lanes stay put until half
    of the batch has stopped, as in _full_lanes.
    """
    ends, ok = np.empty_like(P), np.zeros(P.shape[1], dtype=bool)
    lane, live = np.arange(P.shape[1]), np.ones(P.shape[1], dtype=bool)
    met, cols = ~live, lane
    # Rows 15-25, two per quantity: r, 2r, k and o of the free coordinates
    # i and j, the off-diagonal entries b = J_ij and d = J_ji negated, then
    # the one row b·d.
    r, off = K[IJ, cols], K[_OFFDIAG_ROW[IJ, IJ[::-1]], cols]
    K = np.concatenate([K, r, 2.0 * r, K[3 + IJ, cols], K[12 + IJ, cols], -off,
                        off[0:1] * off[1:2]])
    for it in range(_ORACLE_ITER + 1):
        F = _rhs_lanes(K, P)
        fij = F[IJ, cols]
        done = live & (_col_max(np.abs(fij)) <= 0.25 * tol)
        if it == _ORACLE_ITER:
            done = live
        # A lane that met the face test (or the cap) has stopped; it is a
        # root if the full residual at its point meets ``tol``.
        met |= done
        live &= ~done
        if np.count_nonzero(live) <= _HANDOFF_LANES:
            ends[:, lane], ok[lane] = P, met & (_col_max(np.abs(F)) <= tol)
            for n in np.flatnonzero(live).tolist():
                j = lane[n]
                got = _newton_support(cs[sid[j]], P[:, n].tolist(),
                                      tuple(IJ[:, n].tolist()), tol,
                                      _ORACLE_ITER - it)
                if got is not None:
                    ends[:, j], ok[j] = got, True
            return ends, ok
        # The diagonal entries a = J_ii and e = J_jj; the step is
        # -(e·f_i + (-b)·f_j, (-d)·f_i + a·f_j)/(a·e - b·d).
        pij = P[IJ, cols]
        ae = K[15:17] - K[17:19] * pij / K[19:21] - K[21:23]
        det = ae[0] * ae[1] - K[25]
        pij = np.where(live, pij + -(ae[::-1] * fij + K[23:25] * fij[::-1]) / det, pij)
        P[IJ, cols] = pij
        live &= (det != 0.0) & np.isfinite(pij).all(axis=0)
        if 2 * np.count_nonzero(live) <= len(live):
            ends[:, lane], ok[lane] = P, met & (_col_max(np.abs(F)) <= tol)
            keep = _ladder(live)
            lane, K, P, IJ, live, met = (lane[keep], K[:, keep], P[:, keep],
                                         IJ[:, keep], live[keep], met[keep])
            cols = np.arange(len(lane))
    return ends, ok  # pragma: no cover - the last pass retires every lane
