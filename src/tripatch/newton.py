"""Newton's method on the three-patch model, one start at a time or batched.

One damped Newton solves on a support: the coordinates in ``free`` move
and the others stay pinned at 0, so the full space, the boundary faces
and the edges are all solved by it.  A pinned patch's Jacobian row is a
unit row and its rhs row is weighted 0 in the step and in the damping
merit, so the same 3x3 Cramer step solves the free block and leaves each
pinned coordinate at +0.0; a root is accepted where the free rows and
then the full residual meet the tolerance.  With every coordinate free
the weights are 1.0 and the Jacobian's coefficients are the model's, so
each added operation is exact.

The scalar solver (``_newton_full``) serves polishing, the coexistence
route's finish, sweep continuation and the batch's last few lanes; it
returns None where it fails, and the caller decides whether that is an
error.  It writes the rhs, the Jacobian diagonal and the Cramer solve
out inline, and its residual-halving search drops a trial at its first
rhs row above the merit (see its docstring).  The batched one
(``_full_lanes``) serves the multi-start oracle: every start of every
parameter set, in the full space, on a face or on an edge, is a lane
with its own coefficient column and free coordinates, stopped by mask
once it converges or turns singular.  An oracle start also stops, as
failed, once ``_NEGATIVE_STREAK`` iterates in a row have had a component
below ``_DROP_FLOOR``, the floor under which the oracle drops a root
anyway: most starts that never converge wander below it.  The lanes
count that streak, and a lane handed to the scalar solver takes its
count along (the ``streak`` keyword); polishing, the coexistence finish
and sweep continuation leave ``streak`` at None, which turns the rule
off.  Every lane performs the scalar solve's float operations in the
same order (Python's ``max`` tie rule included, and the residual-halving
search evaluated for all six damping factors at once but taken at the
first that does not raise the residual), so each start ends where the
scalar solve from it ends, bit for bit.  The residual norms and the
condition estimate's column sums take Python's ``max`` over at most
three operands that are never -0.0 (absolute values and their sums), so
``_abs_max`` computes it as ``maximum(a0, fmax(a0, fmax(a1, a2)))``:
``fmax`` skips NaN, ``maximum`` passes a NaN first operand on, and equal
operands have equal bits.  The last few live lanes finish in the scalar
solver with their remaining iterations.
"""

from __future__ import annotations

import numpy as np

from .model import _rhs


def _residual(c: tuple, p1: float, p2: float, p3: float) -> float:
    f1, f2, f3 = _rhs(c, p1, p2, p3)
    return max(abs(f1), abs(f2), abs(f3))


# ---------------------------------------------------------------------------
# Scalar damped Newton on a support.
# ---------------------------------------------------------------------------

_COND_LIMIT = 1e14


def _pinned(c, free):
    """The Jacobian's coefficients: ``c`` with each pinned patch's row a unit row.

    A patch outside ``free`` gets rate 0, outflow -1 and zero rates to
    the other patches, so its Jacobian row is e_i at every state.
    """
    if len(free) == 3:
        return c
    c = list(c)
    for i in {0, 1, 2}.difference(free):
        c[i], c[6 + 2 * i], c[7 + 2 * i], c[12 + i] = 0.0, 0.0, 0.0, -1.0
    return tuple(c)


def _newton_full(c, x0, tol, max_iter, settle=0, free=(0, 1, 2), streak=None):
    """Damped Newton on the coordinates in ``free``: ``(point, residual)`` or None.

    The other coordinates start and stay at 0 (see the module docstring),
    which is how boundary equilibria are located even when they repel
    the interior.  Steps are halved only while they increase the merit,
    the residual of the free rows (at most a few times), which lets the
    iteration settle onto boundary equilibria.  It returns None where the
    Jacobian turns singular before the merit test is met, where
    ``max_iter`` iterations do not meet it, or where the full residual at
    the end misses ``tol``; the residual returned is the full one.

    ``streak``, where not None, turns on the oracle's stopping rule and
    counts the iterates before ``x0`` that had a component below
    ``_DROP_FLOOR``: the solve returns None once ``_NEGATIVE_STREAK``
    iterates in a row have had one, counted at the top of each iteration
    after the merit test.  The oracle's lanes hand their count over with
    the iterate; the other callers (polishing, the coexistence finish and
    sweep continuation) keep the default None.

    ``settle`` grants extra iterations after the merit test is met,
    stopping only once the Newton step itself reaches round-off.  Near a
    branch crossing the Jacobian is almost singular and the residual
    tolerance is satisfied up to ~1e-5 away along the null direction;
    the settle phase walks that last stretch (the step halves each
    iteration there instead of converging quadratically).

    The halving search tries the factors of ``_STEP_FACTORS`` in turn and
    takes the first trial that does not raise the merit, or the last one
    whatever its merit.  A trial's rhs rows are computed in the order
    ``max`` reads them (f1, f2, f3), and the trial is dropped at its first
    row that lifts the running maximum above the merit: that maximum only
    grows, so the trial cannot be taken, and a NaN f1 is never above the
    merit, so it is kept as ``max`` keeps it.  The last factor's trial is
    never dropped, so it is always evaluated whole, as its rows feed the
    next step and the final residual test.
    Inside the loop, the rhs, the Jacobian diagonal and the Cramer solve of
    J s = -w·f are written out with ``_rhs``'s and ``_jac``'s operations in
    their order, and so is Python's ``max`` of three values (a later one
    wins only if it is greater).  The step's cofactors are those of the
    matrix (a b c; d e f; g h i) with a, e, i the diagonal and b = J12,
    c = J13, d = J21, f = J23, g = J31, h = J32, the rates ``j12`` ... of
    the Jacobian's coefficients; a product of two rates is the same every
    iteration, so it is taken once.  The condition estimate is the 1-norm
    of J times that of its explicit inverse, and the system counts as
    singular where the determinant is 0 or the estimate is not at most
    ``_COND_LIMIT``: a NaN estimate (an overflowed determinant) is singular.
    """
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    jr1, jr2, jr3, _, _, _, j12, j13, j21, j23, j31, j32, jo1, jo2, jo3 = \
        _pinned(c, free)
    w1, w2, w3 = (1.0 if i in free else 0.0 for i in range(3))
    t1, t2, t3 = 2.0 * jr1, 2.0 * jr2, 2.0 * jr3
    fh, fg, dh = j23 * j32, j23 * j31, j21 * j32
    ch, cg, bg = j13 * j32, j13 * j31, j12 * j31
    bf, cd, bd = j12 * j23, j13 * j21, j12 * j21
    ab, ac, ad, af, ag, ah = abs(j12), abs(j13), abs(j21), abs(j23), abs(j31), abs(j32)
    last = _STEP_FACTORS[-1]
    p1, p2, p3 = (float(x0[i]) if i in free else 0.0 for i in range(3))
    f1, f2, f3 = _rhs(c, p1, p2, p3)
    res = max(abs(w1 * f1), abs(w2 * f2), abs(w3 * f3))
    for _ in range(max_iter + settle):
        converged = res <= tol
        if converged and settle <= 0:
            break
        if streak is not None:
            if p1 < _DROP_FLOOR or p2 < _DROP_FLOOR or p3 < _DROP_FLOOR:
                streak += 1
                if streak >= _NEGATIVE_STREAK:
                    return None
            else:
                streak = 0
        a = jr1 - t1 * p1 / k1 - jo1
        e = jr2 - t2 * p2 / k2 - jo2
        i = jr3 - t3 * p3 / k3 - jo3
        A = e * i - fh
        B = -(j21 * i - fg)
        C = dh - e * j31
        det = a * A + j12 * B + j13 * C
        if det != 0.0:
            D = -(j12 * i - ch)
            E = a * i - cg
            F = -(a * j32 - bg)
            G = bf - j13 * e
            H = -(a * j23 - cd)
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
        if det == 0.0 or not cond <= _COND_LIMIT:  # singular: no step, no settling
            break
        g1, g2, g3 = w1 * f1, w2 * f2, w3 * f3
        s1 = -(A * g1 + D * g2 + G * g3) / det
        s2 = -(B * g1 + E * g2 + H * g3) / det
        s3 = -(C * g1 + F * g2 + I * g3) / det
        if converged:
            settle -= 1
            scale = 1.0 + max(abs(p1), abs(p2), abs(p3))
            if max(abs(s1), abs(s2), abs(s3)) <= 1e-13 * scale:
                break
        # The step, then at most six halvings (see the docstring).
        for lam in _STEP_FACTORS:
            q1, q2, q3 = p1 + lam * s1, p2 + lam * s2, p3 + lam * s3
            f1 = r1 * q1 * (1.0 - q1 / k1) + m12 * q2 + m13 * q3 - o1 * q1
            new_res = abs(w1 * f1)
            if new_res > res and lam != last:
                continue
            f2 = r2 * q2 * (1.0 - q2 / k2) + m21 * q1 + m23 * q3 - o2 * q2
            x = abs(w2 * f2)
            if x > new_res:
                new_res = x
                if new_res > res and lam != last:
                    continue
            f3 = r3 * q3 * (1.0 - q3 / k3) + m31 * q1 + m32 * q2 - o3 * q3
            y = abs(w3 * f3)
            if y > new_res:
                new_res = y
            if not new_res > res:
                break
        p1, p2, p3, res = q1, q2, q3, new_res
    full = max(abs(f1), abs(f2), abs(f3))
    return ((p1, p2, p3), full) if res <= tol and full <= tol else None


# ---------------------------------------------------------------------------
# The same solves batched over lanes.
# ---------------------------------------------------------------------------


#: The batched oracle finishes its last this-many live lanes one at a time
#: in the scalar Newton.  A few starts need many more iterations than the
#: rest; since ``_NEGATIVE_STREAK`` stops most of those that never converge
#: (a scan lap's failing handoff solves spend ≈33k iterations, 162k without
#: the rule), the tail is mostly starts that converge late.  Re-timed with
#: the rule over 20 interleaved rounds of 1040 scan ops and 30 sweep ops
#: (CPU time, loaded 2-vCPU x86_64 VM): at 16, 24, 32 and 48 a scan op took
#: 2.33, 2.38, 2.41 and 2.49 ms and a sweep op 13.0, 12.7, 12.0 and 12.2 ms
#: (medians); against 24, 16, 32 and 48 were faster in 14, 10 and 9 of 20
#: scan rounds and 13, 15 and 10 of 20 sweep rounds, and two earlier series
#: split the same way: no value was reliably faster than 24 on both.  A set
#: runs 72 lanes, plus 15 per closed face, plus one per edge with a
#: positive root (72–120).
_HANDOFF_LANES = 24

#: Iteration budget of every oracle start.
_ORACLE_ITER = 60

#: The oracle drops a root with a component below this floor (absolute).
_DROP_FLOOR = -1e-9

#: An oracle start stops as failed once this many consecutive iterates have
#: had a component below ``_DROP_FLOOR``.  Some starts that reach a kept
#: root spend a long streak below the floor first, so the limit trades
#: saved iterations against roots only such a start finds: at 12, 3 of
#: 2400 HUB0 and EX2N tables with a 1e-12 rate into a pinned patch changed
#: (a near-face root then had only its face point as representative); 13
#: changed none of the tables the tests compare with the rule off, and 16
#: leaves a margin.
_NEGATIVE_STREAK = 16

#: Step factors of the residual-halving search, in the order
#: the scalar loop tries them; the lanes take the full step, then try all
#: of ``_HALVINGS`` at once.
_STEP_FACTORS = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625)
_HALVINGS = np.array(_STEP_FACTORS[1:])

# Lane coefficient rows: _coeffs reordered to r, k, (m12, m21, m31),
# (m13, m23, m32), o, so that f_i = r_i·p_i·(1 - p_i/k_i) + ma_i·p_a
# + mb_i·p_b - o_i·p_i with (a, b) the other two patches in _rhs's order.
_LANE_ROWS = [0, 1, 2, 3, 4, 5, 6, 8, 10, 7, 9, 11, 12, 13, 14]
# The state row each of the lane rows 6-11 multiplies: p_a, then p_b.
_MIGRANTS = np.array([1, 0, 0, 2, 2, 1])
# Patch i's row of the Jacobian reads lane rows i (r), 6 + i and 9 + i
# (its rates to the other patches) and 12 + i (o); where it is pinned,
# these take the values of _pinned's unit row.
_UNIT_ROW = np.repeat([0.0, 0.0, 0.0, 0.0, -1.0], 3)[:, None]

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
    """``_rhs`` on every column of a (3, n) state, with the same operand order.

    Both migration terms come from one (6, n) product: rows 0-2 are
    ``m_a·p_a`` and rows 3-5 ``m_b·p_b``, added in ``_rhs``'s order.
    """
    mig = K[6:12] * P[_MIGRANTS]
    return K[0:3] * P * (1.0 - P / K[3:6]) + mig[0:3] + mig[3:6] - K[12:15] * P


def _diag_lanes(K, P):
    """Diagonal of ``_jac`` on every column; the off-diagonals are K's m rows."""
    return K[0:3] - 2.0 * K[0:3] * P / K[3:6] - K[12:15]


def _abs_max(a):
    """Python's ``max(abs(x1), abs(x2), abs(x3))`` of each column of ``a``.

    ``a`` has two or three rows.  Python's ``max`` returns a NaN first
    entry, skips a NaN after it, and lets a later entry win only if it is
    greater.  Over the absolute rows, ``maximum(a0, fmax(a0, fmax(a1,
    a2)))`` picks the same: ``fmax`` skips NaN, so the inner value is the
    largest non-NaN entry and NaN only where every entry is, and
    ``maximum`` passes a NaN ``a0`` on.  An absolute value is never -0.0,
    so equal entries have equal bits, and which one a tie picks does not
    matter (``fmax`` breaks a ±0 tie differently from ``max`` under some
    SIMD paths).
    """
    return _nonneg_max(np.abs(a))


def _nonneg_max(a):
    """``_abs_max`` of an ``a`` whose entries are NaN or at least +0.0."""
    m = np.fmax(a[-2], a[-1])
    if len(a) == 3:
        m = np.fmax(a[0], m)
    return np.maximum(a[0], m)


def _col_min(a):
    """Python's ``min`` over the rows of each column of ``a``.

    Like ``min(x, y)``, a later entry wins only if it is smaller, so a
    NaN after the first entry is skipped where ``np.min`` would return it.
    """
    m = a[0]
    for row in a[1:]:
        m = np.where(row < m, row, m)
    return m


def _solve3_lanes(K, diag, F):
    """The scalar Newton's Cramer solve on every lane: step and singular mask.

    A lane is singular where the determinant is 0 or the condition
    estimate is not at most ``_COND_LIMIT`` (NaN included); its step is
    then meaningless.  Each lane performs ``_newton_full``'s float
    operations in their order, with ``-(x - y)`` written as
    ``(x - y)·(-1.0)``, which is exact.
    """
    M = np.concatenate((diag, K[6:12]))
    cof = (M[_X1] * M[_Y1] - M[_X2] * M[_Y2]) * _COFACTOR_SIGN
    t = M[0:9:3] * cof[0:3]  # a·A, b·B, c·C
    det = t[0] + t[1] + t[2]
    j, adj = np.abs(M)[_NORM_TERMS], np.abs(cof).reshape(3, 3, -1)
    # Sums of absolute values: NaN or at least +0.0.
    n_j, n_a = _nonneg_max(j[0] + j[1] + j[2]), _nonneg_max(adj[0] + adj[1] + adj[2])
    cond = n_j * (n_a / np.abs(det))
    t = cof.reshape(3, 3, -1) * F[:, None]
    step = -(t[0] + t[1] + t[2]) / det
    return step, (det == 0.0) | ~(cond <= _COND_LIMIT)


def _ladder(mask):
    """Indices of the ``mask`` lanes, padded with others to a power of two.

    Keeping every batch on a few fixed widths keeps NumPy's cache of
    freed small blocks (up to 7 per size under 1 KiB) to a few sizes.
    """
    width = min(len(mask), 1 << (int(np.count_nonzero(mask)) - 1).bit_length())
    return np.argsort(~mask, kind="stable")[:width]


def _full_lanes(cs, K, P, free, sid, tol):
    """``_newton_full(c, x0, tol, 60, free=..., streak=0)`` on every column of ``P``.

    ``K`` holds each lane's coefficient column, ``free`` its (3, n) mask
    of free coordinates and ``sid`` its index into ``cs``.  Returns the
    (3, n) end points and a mask of the lanes whose scalar solve, with
    ``streak=0``, returns a root.  A lane that converges, turns singular or
    reaches ``_NEGATIVE_STREAK`` stops moving; the batch drops stopped
    lanes once half of it has.
    """
    ends, ok = np.empty_like(P), np.zeros(P.shape[1], dtype=bool)
    lane, live = np.arange(P.shape[1]), np.ones(P.shape[1], dtype=bool)
    conv, since = ~live, np.zeros(P.shape[1], dtype=np.int64)
    pin = np.tile(~free, (5, 1))
    pin[3:6] = False  # the capacities keep their values
    KJ = np.where(pin, _UNIT_ROW, K)  # the Jacobian's coefficients, as in _pinned
    K0, W, P = K, free * 1.0, np.where(free, P, 0.0)
    F = W * _rhs_lanes(K, P)  # the rhs with its pinned rows weighted 0
    res = _abs_max(F)
    for it in range(_ORACLE_ITER + 1):
        done = live & (res <= tol)
        conv |= done
        live &= ~done
        if it == _ORACLE_ITER or np.count_nonzero(live) <= _HANDOFF_LANES:
            break
        # Iterates since..it have had a component below the floor (none
        # where since = it + 1); a run of _NEGATIVE_STREAK stops the lane.
        since = np.where((P < _DROP_FLOOR).any(axis=0), since, it + 1)
        step, singular = _solve3_lanes(KJ, _diag_lanes(KJ, P), F)
        live &= ~singular
        if it + 1 >= _NEGATIVE_STREAK:
            live &= since > it + 1 - _NEGATIVE_STREAK
        if 2 * np.count_nonzero(live) <= len(live):
            ends[:, lane], ok[lane] = P, conv
            keep = _ladder(live)
            lane, K, KJ, W, P, F, res, step, live, conv, since = (
                lane[keep], K[:, keep], KJ[:, keep], W[:, keep], P[:, keep],
                F[:, keep], res[keep], step[:, keep], live[keep], conv[keep],
                since[keep])
        # The full step (lam = 1.0, exact), then at most six halvings while
        # the merit rises; the last halving is taken even if it does not help.
        Q = P + step
        FQ = W * _rhs_lanes(K, Q)
        rq = _abs_max(FQ)
        up = live & (rq > res)
        if up.any():
            idx = _ladder(up)
            Qc = P[:, idx][:, None] + _HALVINGS[:, None] * step[:, idx][:, None]
            Fc = W[:, idx][:, None] * _rhs_lanes(K[:, idx][:, None], Qc)
            rc = _abs_max(Fc)
            # Take the first factor whose merit does not rise, else the last.
            rises = rc > res[idx]
            rises[-1] = False
            # _ladder puts the lanes of up first, in order, then padding.
            n_up = np.count_nonzero(up)
            pick, cols = rises.argmin(axis=0)[:n_up], np.arange(n_up)
            up = idx[:n_up]
            Q[:, up], FQ[:, up], rq[up] = (Qc[:, pick, cols], Fc[:, pick, cols],
                                           rc[pick, cols])
        P, F, res = np.where(live, Q, P), FQ, rq
    ends[:, lane], ok[lane] = P, conv
    if it < _ORACLE_ITER:  # the last few live lanes finish in the scalar solve
        for n in np.flatnonzero(live).tolist():
            j = lane[n]
            got = _newton_full(cs[sid[j]], P[:, n].tolist(), tol, _ORACLE_ITER - it,
                               free=tuple(np.flatnonzero(W[:, n]).tolist()),
                               streak=it - int(since[n]))
            if got is not None:
                ends[:, j], ok[j] = got[0], True
    # A root's full residual meets tol too (the scalar solve's last test).
    return ends, ok & (_abs_max(_rhs_lanes(K0, ends)) <= tol)
