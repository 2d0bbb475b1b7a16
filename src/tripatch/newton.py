"""Newton's method on the three-patch model, one start at a time or batched.

The scalar solvers (``_newton_full`` on the full system, ``_newton_support``
on a boundary face or edge) serve polishing, ``newton_coexistence``, sweep
continuation and single leftover starts.  The batched ones
(``_full_lanes`` and ``_face_lanes``) serve the multi-start oracle: they
hold every start of every parameter set as a lane with its own
coefficient column, and stop lanes by mask once they converge or turn
singular.  Every lane performs the scalar solve's float operations in the
same order (Python's ``max`` tie rule included, and the residual-halving
search evaluated for all six damping factors at once but taken at the
first that does not raise the residual), so each start ends where the
scalar solve from it ends, bit for bit.  The last few live lanes finish
in the scalar solvers with their remaining iterations.
"""

from __future__ import annotations

import math

import numpy as np

from .model import _jac, _rhs

__all__ = ["ConvergenceError", "SingularJacobianError"]


class ConvergenceError(RuntimeError):
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


# ---------------------------------------------------------------------------
# The same solves batched over lanes.
# ---------------------------------------------------------------------------


#: The batched oracle finishes its last this-many live lanes one at a time
#: in the scalar Newton.  A few starts need many more iterations than the
#: rest, or never converge; one batch iteration costs about as much as 25
#: scalar ones (≈250 µs against ≈10 µs on a 2-CPU x86_64 VM), whatever the
#: number of lanes.
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
_IA, _IB = [1, 0, 0], [2, 2, 1]
# Lane coefficient row of the Jacobian entry J_ij (i != j), an m rate.
_OFFDIAG_ROW = np.array([[-1, 6, 9], [7, -1, 10], [8, 11, -1]])


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


def _solve3_lanes(K, diag, F):
    """``_solve3`` on every lane: the step and the condition estimate.

    A lane is singular where the determinant is 0 or the estimate
    exceeds ``_COND_LIMIT``; its step and estimate are then meaningless.
    """
    a, e, i = diag
    b, d, g, c_, f, h = K[6], K[7], K[8], K[9], K[10], K[11]
    f1, f2, f3 = F
    A = e * i - f * h
    B = -(d * i - f * g)
    C = d * h - e * g
    det = a * A + b * B + c_ * C
    D = -(b * i - c_ * h)
    E = a * i - c_ * g
    F_ = -(a * h - b * g)
    G = b * f - c_ * e
    H = -(a * f - c_ * d)
    I = a * e - b * d
    n_j = _col_max(np.array([np.abs(a) + np.abs(d) + np.abs(g),
                             np.abs(b) + np.abs(e) + np.abs(h),
                             np.abs(c_) + np.abs(f) + np.abs(i)]))
    n_inv = _col_max(np.array([np.abs(A) + np.abs(D) + np.abs(G),
                               np.abs(B) + np.abs(E) + np.abs(H),
                               np.abs(C) + np.abs(F_) + np.abs(I)])) / np.abs(det)
    step = np.array([-(A * f1 + D * f2 + G * f3) / det,
                     -(B * f1 + E * f2 + H * f3) / det,
                     -(C * f1 + F_ * f2 + I * f3) / det])
    singular = (det == 0.0) | (n_j * n_inv > _COND_LIMIT)
    return step, singular


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
            pick = ~(rc > res[idx])
            pick = np.where(pick.any(axis=0), pick.argmax(axis=0), len(_HALVINGS) - 1)
            cols, sel = np.arange(len(idx)), up[idx]
            Q[:, idx] = np.where(sel, Qc[:, pick, cols], Q[:, idx])
            FQ[:, idx] = np.where(sel, Fc[:, pick, cols], FQ[:, idx])
            rq[idx] = np.where(sel, rc[pick, cols], rq[idx])
        P, F, res = np.where(live, Q, P), FQ, rq
    conv |= live & (res <= tol)
    ends[:, lane], ok[lane] = P, conv
    return ends, ok


def _face_lanes(cs, K, P, I, J, sid, tol):
    """``_newton_support(c, x0, (i, j), tol)`` on every column of ``P``.

    Lane ``n`` is free in coordinates ``I[n] < J[n]`` and pinned at 0 in
    the third.  Returns the (3, n) end points and a mask of the lanes
    whose scalar solve returns a root.  Stopped lanes stay put until half
    of the batch has stopped, as in _full_lanes.
    """
    ends, ok = np.empty_like(P), np.zeros(P.shape[1], dtype=bool)
    lane, live = np.arange(P.shape[1]), np.ones(P.shape[1], dtype=bool)
    conv, cols = ~live, lane
    # Rows 15 and 16: the face's off-diagonal Jacobian entries J_ij, J_ji.
    rows = _OFFDIAG_ROW[np.array([I, J]), np.array([J, I])]
    K = np.concatenate([K, K[rows, cols]])
    for it in range(_ORACLE_ITER + 1):
        F = _rhs_lanes(K, P)
        fi, fj = F[I, cols], F[J, cols]
        ai, aj = np.abs(fi), np.abs(fj)
        done = live & (np.where(aj > ai, aj, ai) <= 0.25 * tol)
        if it == _ORACLE_ITER:
            done = live
        conv |= done & (_col_max(np.abs(F)) <= tol)
        live &= ~done
        if np.count_nonzero(live) <= _HANDOFF_LANES:
            ends[:, lane], ok[lane] = P, conv
            for n in np.flatnonzero(live).tolist():
                j = lane[n]
                got = _newton_support(cs[sid[j]], P[:, n].tolist(),
                                      (int(I[n]), int(J[n])), tol,
                                      _ORACLE_ITER - it)
                if got is not None:
                    ends[:, j], ok[j] = got, True
            return ends, ok
        diag = _diag_lanes(K, P)
        a, e, b, d = diag[I, cols], diag[J, cols], K[15], K[16]
        det = a * e - b * d
        pi, pj = P[I, cols], P[J, cols]
        P[I, cols] = np.where(live, pi + -(e * fi - b * fj) / det, pi)
        P[J, cols] = np.where(live, pj + -(-d * fi + a * fj) / det, pj)
        live &= (det != 0.0) & np.isfinite(P).all(axis=0)
        if 2 * np.count_nonzero(live) <= len(live):
            ends[:, lane], ok[lane] = P, conv
            keep = _ladder(live)
            lane, K, P, I, J, live, conv = (lane[keep], K[:, keep], P[:, keep],
                                            I[keep], J[keep], live[keep],
                                            conv[keep])
            cols = np.arange(len(lane))
    return ends, ok  # pragma: no cover - the last pass retires every lane
