"""The scalar Newton solvers against their earlier form, and the lane max rule."""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import hexes
from tripatch import newton
from tripatch.equilibria import _halton
from tripatch.model import ModelParams, _coeffs, _jac, _rhs, with_param
from tripatch.newton import (
    _COND_LIMIT,
    _col_min,
    _residual,
)
from tripatch.topology import TOPOLOGIES, apply_topology
from tripatch.verification import draw_params


def _col_max(a):
    """Python's ``max`` over the rows of each column of ``a``.

    Like ``max(x, y)``, a later entry wins only if it is greater, so a
    NaN after the first entry is skipped where ``np.max`` would return it.
    The lane kernels' form before ``newton._abs_max`` replaced it.
    """
    m = a[0]
    for row in a[1:]:
        m = np.where(row > m, row, m)
    return m


def _solve3(j: tuple, f1: float, f2: float, f3: float):
    """Solve the 3x3 system J x = -f by Cramer; returns step or None.

    Also returns a cheap 1-norm condition estimate built from the
    explicit adjugate, so callers can flag numerically singular systems.
    The scalar Newton's solve before it was written out inline.
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


def reference_newton_free(c, x0, tol, max_iter, settle=0, free=(0, 1, 2),
                          streak=None, why=None, trace=None):
    """_newton_full as it was, written with _rhs, _jac and _solve3.

    A pinned coordinate starts at 0, its Jacobian row is e_i and its rhs
    row is weighted 0 in the step and in the merit; a root's full residual
    meets ``tol`` too.  ``streak``, if not None, counts the iterates before
    ``x0`` that had a component below the drop floor; the solve fails
    where ``newton._NEGATIVE_STREAK`` iterates in a row have had one.
    ``why``, if a list, gets the way out of the loop: "merit" (the test is
    met), "streak", "singular", "round-off" (settled) or "iteration cap".
    ``trace``, if a list, gets ``(halvings, rose)`` for each step taken:
    how many times the step was halved, and whether the merit rose.
    """
    why = [] if why is None else why
    w = [1.0 if i in free else 0.0 for i in range(3)]
    p = [float(x0[i]) if i in free else 0.0 for i in range(3)]

    def merit(q):
        f = _rhs(c, *q)
        return max(abs(w[0] * f[0]), abs(w[1] * f[1]), abs(w[2] * f[2]))

    res = merit(p)
    for _ in range(max_iter + settle):
        converged = res <= tol
        if converged and settle <= 0:
            why.append("merit")
            break
        if streak is not None:
            streak = streak + 1 if any(v < newton._DROP_FLOOR for v in p) else 0
            if streak >= newton._NEGATIVE_STREAK:
                why.append("streak")
                return None
        j = list(_jac(c, *p))
        for i in set(range(3)) - set(free):
            j[3 * i:3 * i + 3] = [1.0 if n == i else 0.0 for n in range(3)]
        f = _rhs(c, *p)
        step, cond = _solve3(tuple(j), w[0] * f[0], w[1] * f[1], w[2] * f[2])
        if step is None or not cond <= _COND_LIMIT:
            why.append("singular")
            break
        if converged:
            settle -= 1
            if max(abs(s) for s in step) <= 1e-13 * (1.0 + max(abs(v) for v in p)):
                why.append("round-off")
                break
        lam = 1.0
        q = [p[i] + lam * step[i] for i in range(3)]
        new_res = merit(q)
        halvings = 0
        while new_res > res and halvings < 6:
            lam *= 0.5
            q = [p[i] + lam * step[i] for i in range(3)]
            new_res = merit(q)
            halvings += 1
        if trace is not None:
            trace.append((halvings, new_res > res))
        p, res = q, new_res
    else:
        why.append("iteration cap")
    full = _residual(c, *p)
    return (tuple(p), full) if res <= tol and full <= tol else None


def outcome(fn, *args, **kwargs):
    """("root", exact bits), ("none",) or (exception name, message)."""
    try:
        got = fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    if got is None:
        return ("none",)
    if isinstance(got[0], tuple):  # the full solve's (point, residual)
        got = (*got[0], got[1])
    return "root", tuple(v.hex() for v in got)


def starts(params, n=24, seed=0):
    """The oracle's full-space starts: ``n`` Halton points in the box
    [0, 2·max k]³, then its eight corners."""
    box = 2.0 * float(np.max(params.k))
    corners = [(a, b, d) for a in (0.0, box) for b in (0.0, box) for d in (0.0, box)]
    return [tuple(x) for x in _halton(3, n, seed) * box] + corners


def singular_converge():
    """CONVERGE at r1 = m21 (J11 = 0 wherever p1 = 0) and one ulp above it."""
    conv = apply_topology(draw_params(np.random.default_rng(3003)), "CONVERGE")
    return [with_param(conv, "r1", float(conv.m[1, 0])),
            with_param(conv, "r1", float(np.nextafter(conv.m[1, 0], 9)))]


def near_threshold():
    """EX6 on its I2/COEX exchange r2 = m12 + m32, where Newton crawls."""
    p = apply_topology(draw_params(np.random.default_rng(13), m_lo=0.2), "EX6")
    return [with_param(p, "r2", float(p.m[0, 1] + p.m[2, 1]))]


def draws():
    rng = np.random.default_rng(2024)
    return [apply_topology(draw_params(rng), topo) for topo in TOPOLOGIES]


FULL_SPACE = ((0, 1, 2),)


def assert_same(frees, params_list, tol, *args, **kwargs):
    """Assert _newton_full equals its reference from every start on every
    support in ``frees``; returns the outcome kinds seen."""
    results = set()
    for p in params_list:
        c = _coeffs(p)
        for x0 in starts(p):
            for free in frees:
                want = outcome(reference_newton_free, c, x0, tol, *args,
                               free=free, **kwargs)
                assert outcome(newton._newton_full, c, x0, tol, *args,
                               free=free, **kwargs) == want
                results.add(want[0])
    return results


def assert_same_polish(frees, params_list):
    """Assert the polish call agrees from each root the starts reach."""
    for p in params_list:
        c = _coeffs(p)
        for x0 in starts(p):
            for free in frees:
                got = reference_newton_free(c, x0, 1e-8, 60, free=free)
                if got is not None:
                    assert outcome(newton._newton_full, c, got[0], 1e-10, 40,
                                   settle=40, free=free) == \
                        outcome(reference_newton_free, c, got[0], 1e-10, 40,
                                settle=40, free=free)


class TestNewtonFull:
    """_newton_full in the full space equals its reference, bit for bit."""

    def test_oracle_solves(self):
        assert assert_same(FULL_SPACE, draws() + singular_converge(), 1e-8, 60) == \
            {"root", "none"}

    def test_oracle_solves_with_streak(self):
        assert assert_same(FULL_SPACE, draws() + singular_converge(), 1e-8, 60,
                           streak=0) == {"root", "none"}

    def test_settle(self):
        # The polish call, from starts and from the roots they reach.
        params = draws() + near_threshold() + singular_converge()
        assert "root" in assert_same(FULL_SPACE, params, 1e-10, 40, settle=40)
        assert_same_polish(FULL_SPACE, params)

    def test_singular(self):
        assert "none" in assert_same(FULL_SPACE, singular_converge(), 1e-8, 60)
        # Converged at a singular point: returned as it is.
        c = _coeffs(singular_converge()[0])
        for fn in (newton._newton_full, reference_newton_free):
            assert outcome(fn, c, (0.0, 0.0, 0.0), 1e-8, 5, settle=5) == \
                ("root", ("0x0.0p+0",) * 4)

    def test_iteration_cap(self):
        assert "none" in assert_same(FULL_SPACE, draws(), 1e-300, 60)


class TestNewtonSupport:
    """_newton_full on faces and on edges equals its reference, bit for bit."""

    FREE = ((0, 1), (0, 2), (1, 2), (0,), (1,), (2,))

    def test_oracle_solves(self):
        assert assert_same(self.FREE, draws() + singular_converge(), 1e-8, 60) \
            == {"root", "none"}

    def test_oracle_solves_with_streak(self):
        assert assert_same(self.FREE, draws() + singular_converge(), 1e-8, 60,
                           streak=0) == {"root", "none"}

    def test_settle(self):
        # The polish call, from starts and from the roots they reach.
        params = draws() + near_threshold() + singular_converge()
        assert "root" in assert_same(self.FREE, params, 1e-10, 40, settle=40)
        assert_same_polish(self.FREE, params)

    def test_singular_and_iteration_cap(self):
        # J11 = 0 on the p1 = 0 edge of CONVERGE at r1 = m21: the (0, 1)
        # face from (0, p2, 0) meets a zero determinant before converging.
        c = _coeffs(singular_converge()[0])
        x0 = (0.0, 1.0, 0.0)
        for fn in (newton._newton_full, reference_newton_free):
            assert outcome(fn, c, x0, 1e-8, 60, free=(0, 1)) == ("none",)
        assert "none" in assert_same(self.FREE, draws(), 1e-300, 60)

    def test_blow_up_and_three_free_coordinates(self):
        c = _coeffs(draws()[0])
        for x0 in ((1e200, 1e200, 1e200), (-1e300, 1e300, 5.0)):
            for free in FULL_SPACE + self.FREE:
                assert outcome(newton._newton_full, c, x0, 1e-8, 60, free=free) \
                    == outcome(reference_newton_free, c, x0, 1e-8, 60, free=free) \
                    == ("none",)
        # Three free coordinates, in any order, are the full solve.
        for p in draws():
            c = _coeffs(p)
            for x0 in starts(p):
                assert outcome(newton._newton_full, c, x0, 1e-8, 60,
                               free=(2, 0, 1)) == \
                    outcome(reference_newton_free, c, x0, 1e-8, 60)

    def test_pinned_coordinates_end_at_plus_zero(self):
        # Starts with a nonzero, -0.0 or non-finite pinned coordinate.
        params = draws()
        cs, points, frees = [], [], []
        for p in params:
            for x0 in starts(p, n=8):
                for free in FULL_SPACE + self.FREE:
                    for pinned in (x0, (-0.0,) * 3, (math.nan, -1.0, math.inf)):
                        cs.append(_coeffs(p))
                        points.append([x0[i] if i in free else pinned[i]
                                       for i in range(3)])
                        frees.append([i in free for i in range(3)])
        roots = 0
        for c, x0, free in zip(cs, points, frees):
            got = newton._newton_full(c, x0, 1e-8, 60, streak=0,
                                      free=tuple(i for i in range(3) if free[i]))
            if got is not None:
                roots += 1
                assert [got[0][i].hex() for i in range(3) if not free[i]] == \
                    ["0x0.0p+0"] * (3 - sum(free))
        assert roots > 100
        K, P, free = newton._lane_coeffs(cs), np.array(points).T, np.array(frees).T
        with np.errstate(all="ignore"):
            ends, ok = newton._full_lanes(cs, K, P, free, np.arange(len(cs)), 1e-8)
        assert np.count_nonzero(ok) == roots
        pinned = ends[:, ok][~free[:, ok]]
        assert len(pinned) > 100
        assert (pinned == 0.0).all() and not np.signbit(pinned).any()


class TestHalvingSearch:
    """The scalar search drops a trial at its first row above the merit.

    It reads the rows in the order of Python's ``max`` (f1, f2, f3), so a
    NaN f1 is kept as ``max`` keeps it, and it evaluates the last factor
    whole, since that trial is taken whatever its merit.
    """

    def test_nan_first_row_is_kept(self):
        # Rates near 1 and capacities near 1e306: a root's residual is
        # about r·k·1e-16 here, so ``tol`` is 1e296.  The start lies just
        # below patch 1's vertex k1·(r1 - o1)/(2·r1) = 2.5e305, where J11 is
        # small, and the full step goes out to x1 ≈ -1.2e308.
        r, k = np.array([3.0, 5.0, 2.0]), np.array([1e306, 8e305, 1.5e306])
        m = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.25], [1.5, 1.875, 0.0]])
        c = _coeffs(ModelParams(r, k, m))
        x0 = (2.4975e305, 3e304, 1.1e306)
        f = _rhs(c, *x0)
        step, _ = _solve3(_jac(c, *x0), *f)
        rows = _rhs(c, *(x + s for x, s in zip(x0, step)))
        merit = max(abs(v) for v in f)
        # There f1 is inf - inf while f2 and f3 overflow: max keeps the
        # NaN, so the trial is taken and the solve never recovers.  A search
        # that read f2 or f3 first would drop it and end at a root.
        assert math.isnan(rows[0]) and abs(rows[1]) > merit and abs(rows[2]) > merit
        want = outcome(reference_newton_free, c, x0, 1e296, 60)
        assert want == ("none",)
        assert outcome(newton._newton_full, c, x0, 1e296, 60) == want

    def test_stalled_start_takes_the_last_halving(self):
        # An EX1 corner start runs the whole budget, and about one step in
        # three is the last halving although the merit rises; a search that
        # left that trial's f2 and f3 unevaluated would end at a root.
        p = draws()[TOPOLOGIES.index("EX1")]
        c = _coeffs(p)
        box = 2.0 * float(np.max(p.k))
        x0 = (0.0, box, box)
        trace = []
        want = outcome(reference_newton_free, c, x0, 1e-8, 60, trace=trace)
        assert want == ("none",) and len(trace) == 60
        assert sum(halvings == 6 and rose for halvings, rose in trace) > 10
        assert outcome(newton._newton_full, c, x0, 1e-8, 60) == want


def solve3_lanes(params_list):
    """Lane arrays ``(K, diag, F)`` at every start of ``starts`` on each set."""
    cs, points = [], []
    for p in params_list:
        for x0 in starts(p):
            cs.append(_coeffs(p))
            points.append(x0)
    K = newton._lane_coeffs(cs)
    P = np.array(points).T
    return K, newton._diag_lanes(K, P), newton._rhs_lanes(K, P)


def lane_system(K, diag, F, n):
    """Lane ``n`` as ``_solve3``'s arguments: J row-major, then f."""
    a, e, i = diag[:, n].tolist()
    b, d, g, c_, f, h = K[6:12, n].tolist()
    return (a, b, c_, d, e, f, g, h, i), F[:, n].tolist()


class TestSolve3Lanes:
    """_solve3_lanes equals the scalar Cramer solve, lane by lane."""

    def test_lanes_match_the_scalar_solve(self):
        K, diag, F = solve3_lanes(draws() + singular_converge())
        # Lanes with non-finite and signed-zero entries: the diagonal, the
        # rhs and an off-diagonal rate in turn.
        special = []
        for value in (math.nan, math.inf, -math.inf, 0.0, -0.0):
            for row in range(9):
                k, d, f = K[:, :1].copy(), diag[:, :1].copy(), F[:, :1].copy()
                if row < 3:
                    d[row] = value
                elif row < 6:
                    f[row - 3] = value
                else:
                    k[row] = value
                special.append((k, d, f))
        # All-zero rhs of both signs, and a zero diagonal.
        special.append((K[:, :1], diag[:, :1], np.zeros((3, 1))))
        special.append((K[:, :1], diag[:, :1], -np.zeros((3, 1))))
        special.append((K[:, :1], np.zeros((3, 1)), F[:, :1]))
        K, diag, F = (np.concatenate([x] + [s[n] for s in special], axis=1)
                      for n, x in enumerate((K, diag, F)))
        with np.errstate(all="ignore"):
            step, singular = newton._solve3_lanes(K, diag, F)
        seen = set()
        for n in range(K.shape[1]):
            j, f = lane_system(K, diag, F, n)
            want, cond = _solve3(j, *f)
            if want is None:
                seen.add("zero determinant")
            elif cond > _COND_LIMIT:
                seen.add("condition estimate")
            elif math.isnan(cond):
                seen.add("NaN estimate")
            assert bool(singular[n]) == (want is None or not cond <= _COND_LIMIT), n
            if not singular[n]:
                assert [v.hex() for v in step[:, n].tolist()] == \
                    [v.hex() for v in want], n
        assert seen == {"zero determinant", "condition estimate", "NaN estimate"}


class TestNanConditionEstimate:
    """A NaN condition estimate counts as singular, in the scalar solve and
    in the lanes alike."""

    @staticmethod
    def overflowing_root():
        # FULL with r = 1e160, k = 1 and every rate 1e160: (1, 1, 1) is a
        # root with residual 0, and the Jacobian's products overflow, so
        # the determinant and the condition estimate are NaN there.
        m = np.full((3, 3), 1e160)
        np.fill_diagonal(m, 0.0)
        c = _coeffs(ModelParams(np.full(3, 1e160), np.ones(3), m))
        assert _residual(c, 1.0, 1.0, 1.0) == 0.0
        assert math.isnan(_solve3(_jac(c, 1.0, 1.0, 1.0), 0.0, 0.0, 0.0)[1])
        return c

    def test_polish_keeps_the_root(self):
        c = self.overflowing_root()
        assert newton._newton_full(c, (1.0, 1.0, 1.0), 1e-10, 40, settle=40) == \
            ((1.0, 1.0, 1.0), 0.0)

    def test_lane_is_singular(self):
        c = self.overflowing_root()
        K, P = newton._lane_coeffs([c]), np.ones((3, 1))
        with np.errstate(all="ignore"):
            step, singular = newton._solve3_lanes(K, newton._diag_lanes(K, P),
                                                  newton._rhs_lanes(K, P))
        assert np.isnan(step).all()
        assert singular.tolist() == [True]


class TestNewtonSupportPaths:
    """_newton_full on a support equals its reference on each way out of the loop."""

    @staticmethod
    def first_root(c, params, free, tol=1e-8):
        for x0 in starts(params):
            if reference_newton_free(c, x0, tol, 60, free=free) is not None:
                return x0
        raise AssertionError(f"no start converges on {free}")

    def cases(self):
        p = draws()[0]
        c = _coeffs(p)
        face = self.first_root(c, p, (0, 1))
        root = reference_newton_free(c, face, 1e-8, 60, free=(0, 1))[0]
        conv = _coeffs(singular_converge()[0])
        return {
            # The merit test is met and the loop ends.
            "converged": ((c, face, 1e-8, 60), (0, 1), "root"),
            "edge": ((c, self.first_root(c, p, (2,)), 1e-8, 60), (2,), "root"),
            # Past the merit test until the step reaches round-off.
            "settle": ((c, root, 1e-10, 40, 40), (0, 1), "root"),
            # J11 = J12 = 0 on the p1 = 0 edge of CONVERGE at r1 = m21.
            "zero determinant": ((conv, (0.0, 1.0, 0.0), 1e-8, 60), (0, 1), "none"),
            "zero determinant, converged":
                ((conv, (0.0, 0.0, 0.0), 1e-8, 60, 5), (0,), "root"),
            # The first step overflows.
            "non-finite": ((c, (1e200, 1e200, 1e200), 1e-8, 60), (0, 1), "none"),
            "iteration cap": ((c, starts(p)[-1], 1e-8, 2), (0, 1), "none"),
        }

    @pytest.mark.parametrize("path", [
        "converged", "edge", "settle", "zero determinant",
        "zero determinant, converged", "non-finite", "iteration cap"])
    def test_path(self, path):
        args, free, kind = self.cases()[path]
        want = outcome(reference_newton_free, *args, free=free)
        assert want[0] == kind
        assert outcome(newton._newton_full, *args, free=free) == want

    def test_zero_determinant_preconditions(self):
        # The zero-determinant cases start where the 2x2 block (or the
        # edge's 1x1) is singular, the first away from a root.
        c = _coeffs(singular_converge()[0])
        j = _jac(c, 0.0, 1.0, 0.0)
        assert j[0] * j[4] - j[1] * j[3] == 0.0
        assert _residual(c, 0.0, 1.0, 0.0) > 1e-8
        assert _jac(c, 0.0, 0.0, 0.0)[0] == 0.0


def wide_full():
    """FULL draw 0 with every k times 1e9: the residual at its coexistence
    state, about r·k·2**-52, misses 1e-8, so starts that reach it stall
    there, feasible, for the whole budget."""
    p = q = draws()[0]
    for i in range(3):
        q = with_param(q, f"k{i + 1}", float(p.k[i]) * 1e9)
    return q


class TestNegativeStreak:
    """An oracle start fails once ``_NEGATIVE_STREAK`` iterates in a row have
    had a component below the drop floor, in the lanes and in the scalar
    tail alike; a lane handed to the scalar solve carries its count."""

    FREE = ((0, 1, 2), (0, 1), (2,))

    def test_a_carried_count_equals_its_reference(self):
        # 11 stops a solve at its first iterate below the floor.
        kinds = set()
        for p in draws() + singular_converge():
            c = _coeffs(p)
            for x0 in starts(p, n=8):
                for free in self.FREE:
                    why = []
                    want = outcome(reference_newton_free, c, x0, 1e-8, 60, free=free,
                                   streak=newton._NEGATIVE_STREAK - 1, why=why)
                    assert outcome(newton._newton_full, c, x0, 1e-8, 60, free=free,
                                   streak=newton._NEGATIVE_STREAK - 1) == want
                    kinds.add(why[0])
        assert {"merit", "streak"} <= kinds

    def test_the_rule_can_stop_a_start_that_reaches_a_root(self):
        # EX2N draw 94 of acceptance 03 from the box corner (b, b, 0): the
        # solve spends more than 16 iterates below the floor on its way to
        # the boundary point (0, k2, 0), which the oracle's edge start on
        # patch 2 finds as well.
        rng = np.random.default_rng(3003)
        draws = [draw_params(rng) for _ in range(200 * len(TOPOLOGIES))]
        p = apply_topology(draws[200 * TOPOLOGIES.index("EX2N") + 94], "EX2N")
        box = 2.0 * float(np.max(p.k))
        c, x0 = _coeffs(p), (box, box, 0.0)
        got = newton._newton_full(c, x0, 1e-8, 60)
        assert got is not None and abs(got[0][1] - p.k[1]) < 1e-9
        trace, why = [], []
        assert outcome(reference_newton_free, c, x0, 1e-8, 60, trace=trace,
                       streak=0, why=why) == ("none",)
        assert len(trace) == newton._NEGATIVE_STREAK and why == ["streak"]
        assert outcome(newton._newton_full, c, x0, 1e-8, 60, streak=0) == ("none",)

    def test_lanes_equal_the_scalar_solve_at_every_handoff(self, monkeypatch):
        # Every start of ``starts`` in the full space, on a face and on an
        # edge.  Without a handoff the rule and the iteration cap stop lanes
        # in the batch; a handoff larger than the batch gives every lane to
        # the scalar solve with a count of 0.  The 61 lanes of ``wide_full``
        # that stall keep more than 32 lanes live to the cap; at 100, lanes
        # arrive in the scalar solve with a count above 0, and the rule
        # stops some of them there.
        cs, points, frees = [], [], []
        for p in draws() + [wide_full()]:
            for x0 in starts(p):
                for free in self.FREE:
                    cs.append(_coeffs(p))
                    points.append(x0)
                    frees.append([i in free for i in range(3)])
        ways, want = [], []
        for c, x0, free in zip(cs, points, frees):
            why = []
            got = reference_newton_free(c, x0, 1e-8, 60, streak=0, why=why,
                                        free=tuple(i for i in range(3) if free[i]))
            ways.append(why[0])
            want.append(None if got is None else [v.hex() for v in got[0]])
        assert {"streak", "iteration cap"} <= set(ways)
        K, P, free = newton._lane_coeffs(cs), np.array(points).T, np.array(frees).T
        newton_full = newton._newton_full
        for handoff in (0, 32, 100, 10**6):
            handed = []

            def counting(c, x0, tol, max_iter, *, free, streak):
                got = newton_full(c, x0, tol, max_iter, free=free, streak=streak)
                handed.append((c, x0, max_iter, free, streak, got))
                return got

            with monkeypatch.context() as m, np.errstate(all="ignore"):
                m.setattr(newton, "_HANDOFF_LANES", handoff)
                m.setattr(newton, "_newton_full", counting)
                ends, ok = newton._full_lanes(cs, K, P, free, np.arange(len(cs)), 1e-8)
            assert [[v.hex() for v in ends[:, n].tolist()] if ok[n] else None
                    for n in range(len(cs))] == want, handoff
            carried = [h for h in handed if h[4] > 0]
            if handoff <= 32:
                assert not handed
            elif handoff == 100:
                stops = set()
                for c, x0, max_iter, on, streak, got in carried:
                    why = []
                    ref = reference_newton_free(c, x0, 1e-8, max_iter, free=on,
                                                streak=streak, why=why)
                    assert outcome(lambda: got) == outcome(lambda: ref)
                    stops.update(why)
                assert "streak" in stops
            else:  # every lane not converged at its start, the rule's included
                assert {h[4] for h in handed} == {0}
                assert len(handed) >= len(cs) - ways.count("merit")


class TestColMax:
    @pytest.mark.parametrize("column", [
        [math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan],
        [2.0, math.nan, 1.0], [math.nan, math.nan, 1.0], [math.nan] * 3,
        [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [1.0, math.inf, math.nan],
        [1.0, -math.inf, math.nan],
        # A leading 0 row, as in the lane stepper's error norm: max is 2.0.
        [0.0, math.nan, 2.0],
    ])
    def test_python_max_tie_rule(self, column):
        # Python's max and min: a NaN first wins, a later one is skipped;
        # ties keep the first.  The column is one lane of a (3, n) array.
        for fn, want in ((_col_max, max(column)), (_col_min, min(column))):
            got = fn(np.array(column)[:, None])
            assert got.shape == (1,)
            assert repr(float(got[0])) == repr(want), fn.__name__


# Entries for the lane kernels' differential tests: NaN, ±inf, the
# subnormals, ±0 and ordinary values of both signs.
SPECIAL = (math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, 0.0, -0.0,
           1.0, -1.0, -2.5, 1e308)


class TestAbsMax:
    """_abs_max equals Python's max of absolute values, _col_max(np.abs(.))."""

    @pytest.mark.parametrize("rows", [2, 3])
    @pytest.mark.parametrize("lanes", [1, 72, 1008])
    def test_equals_col_max_of_abs(self, rows, lanes):
        # Every column of SPECIAL entries: NaN and each other value in every
        # position, cut into batches of ``lanes`` columns.
        columns = np.array(np.meshgrid(*[SPECIAL] * rows)).reshape(rows, -1)
        for lo in range(0, columns.shape[1], lanes):
            a = columns[:, lo:lo + lanes]
            want = _col_max(np.abs(a))
            assert hexes(newton._abs_max(a)) == hexes(want)
            # Sums of absolute values, as in _solve3_lanes' condition estimate.
            with np.errstate(over="ignore"):
                s = np.abs(a) + np.abs(a[::-1])
            assert hexes(newton._nonneg_max(s)) == hexes(_col_max(s))
            for n in range(a.shape[1]):
                assert hexes(want[n]) == hexes(max(abs(v) for v in a[:, n].tolist()))

    def test_lane_axis_may_be_two_dimensional(self):
        # _full_lanes takes the residual of every halving at once: (3, 6, n).
        a = np.random.default_rng(0).choice(SPECIAL, size=(3, 6, 72))
        assert hexes(newton._abs_max(a)) == hexes(_col_max(np.abs(a)))


class TestRhsLanes:
    """_rhs_lanes equals _rhs on every column, bit for bit."""

    def test_columns_match_the_scalar_rhs(self):
        rng = np.random.default_rng(15)
        cs = [_coeffs(apply_topology(draw_params(rng), topo))
              for topo in TOPOLOGIES for _ in range(4)]
        # Finite states, and states with a non-finite or signed-zero coordinate
        # in each position; zeroed rates then multiply an infinite coordinate.
        points = [x0.tolist() for x0 in _halton(3, 8, 0) * 4.0]
        for value in (math.nan, math.inf, -math.inf, -0.0, 1e308):
            for i in range(3):
                for base in ([1.0, 2.0, 0.5], [0.0, 0.0, 0.0]):
                    x = list(base)
                    x[i] = value
                    points.append(x)
                    points.append([value if j != i else 1.0 for j in range(3)])
        pairs = [(c, x) for c in cs for x in points]
        K = newton._lane_coeffs([c for c, _ in pairs])
        P = np.array([x for _, x in pairs]).T
        with np.errstate(all="ignore"):
            F = newton._rhs_lanes(K, P)
        for n, (c, x) in enumerate(pairs):
            assert hexes(F[:, n]) == hexes(_rhs(c, *x)), (c, x)
