"""The scalar Newton solvers against their earlier form, and the lane max rule."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tripatch import newton
from tripatch.equilibria import _halton
from tripatch.model import _coeffs, with_param
from tripatch.newton import (
    _COND_LIMIT,
    ConvergenceError,
    SingularJacobianError,
    _col_max,
    _col_min,
    _jac,
    _residual,
    _rhs,
    _solve3,
)
from tripatch.topology import TOPOLOGIES, apply_topology
from tripatch.verification import draw_params


def reference_newton_full(c, x0, tol, max_iter, positive=False,
                          raise_errors=False, settle=0):
    """_newton_full as it was, evaluating the rhs again at each iterate."""
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


def reference_newton_support(c, x0, free, tol, max_iter=60, settle=0):
    """_newton_support as it was, with its step dict and generators."""
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


def outcome(fn, *args, **kwargs):
    """("root", exact bits), ("none",) or (exception name, message)."""
    try:
        got = fn(*args, **kwargs)
    except (ConvergenceError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if got is None:
        return ("none",)
    if isinstance(got[0], tuple):  # the full solve's (point, residual)
        got = (*got[0], got[1])
    return "root", tuple(v.hex() for v in got)


def starts(params, n=24, seed=0):
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


class TestNewtonFull:
    """_newton_full equals its earlier form on every path, bit for bit."""

    def assert_same(self, params_list, *args, **kwargs):
        kinds = set()
        for p in params_list:
            c = _coeffs(p)
            for x0 in starts(p):
                want = outcome(reference_newton_full, c, x0, *args, **kwargs)
                assert outcome(newton._newton_full, c, x0, *args, **kwargs) == want
                kinds.add(want[0])
        return kinds

    def test_oracle_solves(self):
        assert self.assert_same(draws() + singular_converge(), 1e-8, 60) == \
            {"root", "none"}

    def test_positive_with_errors(self):
        # newton_coexistence's call, then too short a budget to converge.
        assert self.assert_same(draws(), 1e-10, 100, positive=True,
                                raise_errors=True) >= {"root"}
        assert self.assert_same(draws(), 1e-10, 2, positive=True,
                                raise_errors=True) >= {"ConvergenceError"}

    def test_settle(self):
        # The polish call, from starts and from the roots they reach.
        params = draws() + near_threshold() + singular_converge()
        assert "root" in self.assert_same(params, 1e-10, 40, settle=40)
        for p in params:
            c = _coeffs(p)
            for x0 in starts(p):
                got = reference_newton_full(c, x0, 1e-8, 60)
                if got is not None:
                    assert outcome(newton._newton_full, c, got[0], 1e-10, 40,
                                   settle=40) == \
                        outcome(reference_newton_full, c, got[0], 1e-10, 40,
                                settle=40)

    def test_singular(self):
        kinds = self.assert_same(singular_converge(), 1e-8, 60,
                                 raise_errors=True)
        assert "SingularJacobianError" in kinds
        # Converged at a singular point: returned as it is.
        c = _coeffs(singular_converge()[0])
        assert outcome(newton._newton_full, c, (0.0, 0.0, 0.0), 1e-8, 5,
                       settle=5) == ("root", ("0x0.0p+0",) * 4)

    def test_iteration_cap(self):
        assert "none" in self.assert_same(draws(), 1e-300, 60)
        assert "ConvergenceError" in self.assert_same(draws(), 1e-300, 60,
                                                      raise_errors=True)


class TestNewtonSupport:
    """_newton_support equals its earlier form on faces and edges."""

    FREE = ((0, 1), (0, 2), (1, 2), (0,), (1,), (2,))

    def assert_same(self, params_list, tol, *args, **kwargs):
        results = set()
        for p in params_list:
            c = _coeffs(p)
            for x0 in starts(p):
                for free in self.FREE:
                    want = outcome(reference_newton_support, c, x0, free, tol,
                                   *args, **kwargs)
                    assert outcome(newton._newton_support, c, x0, free, tol,
                                   *args, **kwargs) == want
                    results.add(want[0])
        return results

    def test_oracle_solves(self):
        assert self.assert_same(draws() + singular_converge(), 1e-8) == \
            {"root", "none"}

    def test_settle(self):
        assert "root" in self.assert_same(draws() + near_threshold(), 1e-10,
                                          60, settle=40)

    def test_singular_and_iteration_cap(self):
        # J11 = 0 on the p1 = 0 edge of CONVERGE at r1 = m21: the (0, 1)
        # face from (0, p2, 0) meets a zero determinant before converging.
        c = _coeffs(singular_converge()[0])
        x0 = (0.0, 1.0, 0.0)
        assert outcome(newton._newton_support, c, x0, (0, 1), 1e-8) == ("none",)
        assert outcome(reference_newton_support, c, x0, (0, 1), 1e-8) == ("none",)
        assert "none" in self.assert_same(draws(), 1e-300)

    def test_blow_up_and_three_free_coordinates(self):
        c = _coeffs(draws()[0])
        for x0 in ((1e200, 1e200, 1e200), (-1e300, 1e300, 5.0)):
            for free in self.FREE:
                assert outcome(newton._newton_support, c, x0, free, 1e-8) == \
                    outcome(reference_newton_support, c, x0, free, 1e-8)
        assert outcome(newton._newton_support, c, (1.0,) * 3, (0, 1, 2), 1e-8) \
            == outcome(reference_newton_support, c, (1.0,) * 3, (0, 1, 2), 1e-8)


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
