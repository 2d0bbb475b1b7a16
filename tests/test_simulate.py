"""Adaptive integrator and basin sampling."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import symmetric_full
from tripatch import simulate
from tripatch.equilibria import _halton, find_all_equilibria
from tripatch.model import ModelParams, _coeffs, _rhs
from tripatch.simulate import (_A2, _A3, _A4, _A5, _A6, _B, _E, DIVERGE_NORM,
                               HANDOFF_LANES, RHS_TOL, SLOW_TOL, STEADY_STEPS,
                               StepUnderflowError, _integrate_lanes,
                               basin_sample, integrate)
from tripatch.topology import apply_topology
from tripatch.verification import draw_params


def logistic_exact(r, k, p0, t):
    e = math.exp(r * t)
    return k * p0 * e / (k + p0 * (e - 1.0))


class TestIntegrate:
    def test_uncoupled_patches_track_the_logistic_solution(self):
        r = np.array([0.7, 1.3, 2.1])
        k = np.array([2.0, 1.0, 3.5])
        p = ModelParams(r, k, np.zeros((3, 3)))
        x0 = np.array([0.1, 2.5, 1.0])
        traj = integrate(p, x0, t_end=5.0, rel_tol=1e-10, abs_tol=1e-12)
        for idx, t in enumerate(traj.times):
            exact = [logistic_exact(r[i], k[i], x0[i], t) for i in range(3)]
            err = float(np.max(np.abs(traj.states[idx] - exact)))
            assert err <= 1e-6 * (1 + float(np.max(np.abs(exact)))), (
                f"t={t}: integrator off by {err:.2e}"
            )

    def test_symmetric_network_settles_at_capacity(self):
        traj = integrate(symmetric_full(), [0.2, 1.7, 0.05], t_end=200.0)
        assert traj.terminal == "STEADY"
        assert np.allclose(traj.states[-1], [1.0, 1.0, 1.0], atol=1e-6)

    def test_pure_exchange_conserves_total_population(self):
        rng = np.random.default_rng(14)
        m = rng.uniform(0.2, 1.0, (3, 3))
        np.fill_diagonal(m, 0.0)
        p = ModelParams.unchecked(np.zeros(3), np.ones(3), m)
        x0 = np.array([3.0, 0.5, 1.5])
        traj = integrate(p, x0, t_end=20.0, rel_tol=1e-10, abs_tol=1e-12)
        totals = traj.states.sum(axis=1)
        assert float(np.max(np.abs(totals - 5.0))) <= 1e-8

    def test_states_stay_in_the_closed_orthant(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            p = draw_params(rng)
            x0 = rng.uniform(0.0, 2.0, 3)
            traj = integrate(p, x0, t_end=50.0)
            assert float(traj.states.min()) >= 0.0

    def test_times_strictly_increase_from_zero(self):
        traj = integrate(symmetric_full(), [0.5, 0.5, 0.5], t_end=30.0)
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.times) == len(traj.states)

    def test_start_at_equilibrium_is_immediately_steady(self):
        traj = integrate(symmetric_full(), [1.0, 1.0, 1.0], t_end=10.0)
        assert traj.terminal == "STEADY"
        assert np.allclose(traj.states[-1], 1.0, atol=1e-9)
        assert traj.times[-1] < 10.0

    def test_short_horizon_reports_max_time(self):
        traj = integrate(symmetric_full(), [0.2, 0.3, 0.4], t_end=1e-3)
        assert traj.terminal == "MAX_TIME"
        assert traj.times[-1] == pytest.approx(1e-3)

    def test_validation(self):
        p = symmetric_full()
        with pytest.raises(ValueError, match="t_end"):
            integrate(p, [1, 1, 1], t_end=0.0)
        with pytest.raises(ValueError, match="tolerances"):
            integrate(p, [1, 1, 1], t_end=1.0, rel_tol=-1e-8)
        for t_end in (math.inf, math.nan):
            with pytest.raises(ValueError, match="t_end"):
                integrate(p, [1, 1, 1], t_end=t_end)
        for tols in ({"rel_tol": math.inf}, {"abs_tol": math.nan}):
            with pytest.raises(ValueError, match="tolerances"):
                integrate(p, [1, 1, 1], t_end=1.0, **tols)
        with pytest.raises(ValueError):
            integrate(p, [1, 1], t_end=1.0)

    def test_negative_start_is_rejected(self):
        with pytest.raises(ValueError):
            integrate(symmetric_full(), [-0.5, 1.0, 1.0], t_end=1.0)


def acceptance_10_case(i):
    """Acceptance-10 draw ``i`` on FULL and its 200 basin starts."""
    rng = np.random.default_rng(1010)
    p = apply_topology([draw_params(rng) for _ in range(i + 1)][i], "FULL")
    box = 2.0 * float(np.max(p.k))
    return p, np.maximum(_halton(3, 200, i) * box, 1e-9 * box)


def loose_case():
    """A draw and 24 starts for tolerances of 0.5 over t_end = 5.

    Tolerances this loose leave the orthant, clamp back into it and let
    some starts run away, so every reject and terminal path runs.
    """
    rng = np.random.default_rng(12)
    p = draw_params(rng)
    starts = rng.uniform(0.0, 20.0, (24, 3)) * float(p.k.max())
    starts[rng.uniform(size=(24, 3)) < 0.3] = 0.0
    return p, starts


def reference_advance(c: tuple, t: float, y: tuple, h: float, streak: int,
                      prev_rhs: float, t_end: float, rel_tol: float,
                      abs_tol: float, record: bool) -> tuple[str, tuple, list, list]:
    """The generator-based scalar stepper, kept as the unrolled one's reference.

    Step one trajectory from a step attempt's state to its terminus.

    ``h`` is the step to try next, ``streak`` the count of consecutive
    small-rhs steps and ``prev_rhs`` the rhs norm of the last accepted
    step; the first stage is the rhs at ``y`` (first-same-as-last).
    Returns ``(terminal, y, times, states)``; with ``record`` the lists
    hold the given state and every accepted one, otherwise they are empty.
    """
    times, states = ([t], [y]) if record else ([], [])
    k1 = _rhs(c, *y)
    h_min = 1e-14 * t_end
    bound = DIVERGE_NORM * (1.0 + max(c[3], c[4], c[5]))
    terminal = "MAX_TIME"

    while t < t_end:
        h = min(h, t_end - t)
        if h < h_min:
            raise StepUnderflowError(
                f"step size {h:.3e} fell below {h_min:.3e} at t={t:.6g}")

        k2 = _rhs(c, *(y[i] + h * _A2[0] * k1[i] for i in range(3)))
        k3 = _rhs(c, *(y[i] + h * (_A3[0] * k1[i] + _A3[1] * k2[i])
                       for i in range(3)))
        k4 = _rhs(c, *(y[i] + h * (_A4[0] * k1[i] + _A4[1] * k2[i]
                                   + _A4[2] * k3[i]) for i in range(3)))
        k5 = _rhs(c, *(y[i] + h * (_A5[0] * k1[i] + _A5[1] * k2[i]
                                   + _A5[2] * k3[i] + _A5[3] * k4[i])
                       for i in range(3)))
        k6 = _rhs(c, *(y[i] + h * (_A6[0] * k1[i] + _A6[1] * k2[i]
                                   + _A6[2] * k3[i] + _A6[3] * k4[i]
                                   + _A6[4] * k5[i]) for i in range(3)))
        y_new = tuple(y[i] + h * (_B[0] * k1[i] + _B[2] * k3[i]
                                  + _B[3] * k4[i] + _B[4] * k5[i]
                                  + _B[5] * k6[i]) for i in range(3))
        k7 = _rhs(c, *y_new)

        err = 0.0
        for i in range(3):
            e_i = h * (_E[0] * k1[i] + _E[2] * k3[i] + _E[3] * k4[i]
                       + _E[4] * k5[i] + _E[5] * k6[i] + _E[6] * k7[i])
            sc = abs_tol + rel_tol * max(abs(y[i]), abs(y_new[i]))
            err = max(err, abs(e_i) / sc)

        low = min(y_new)
        if err > 1.0 or low < -abs_tol:
            # Reject: error too large, or the orthant was left by more
            # than the absolute tolerance.
            shrink = 0.5 if low < -abs_tol else max(
                0.2, 0.9 * err ** -0.2)
            h *= min(shrink, 0.9)
            continue

        if low < 0.0:
            y_new = tuple(max(0.0, v) for v in y_new)
            k7 = _rhs(c, *y_new)

        t += h
        y = y_new
        k1 = k7  # first-same-as-last
        if record:
            times.append(t)
            states.append(y)

        norm = max(abs(v) for v in y)
        if not all(math.isfinite(v) for v in y) or not norm <= bound:
            terminal = "DIVERGED"
            break
        rhs_norm = max(abs(v) for v in k7)
        if rhs_norm < RHS_TOL * (1.0 + norm):
            streak += 1
            if streak >= STEADY_STEPS:
                terminal = "STEADY"
                break
        else:
            streak = 0

        grow = min(5.0, max(0.2, 0.9 * (err + 1e-16) ** -0.2))
        if rhs_norm < SLOW_TOL * (1.0 + norm):
            # Freeze growth near an attractor — and if the field norm
            # stopped falling, the step is parked at the edge of the
            # stability region (neutral wobble the error test cannot
            # see), so shrink until contraction resumes.
            grow = min(grow, 1.0 if rhs_norm < 0.999 * prev_rhs else 0.7)
        prev_rhs = rhs_norm
        h *= grow

    return terminal, y, times, states


class TestUnrolledStepper:
    """The unrolled ``_advance`` against the generator-based one it replaced."""

    @staticmethod
    def outcomes(p, starts, t_end, rel_tol, abs_tol):
        # Bytes, so that NaN and signed zeros are compared as well.
        got = []
        for x0 in starts:
            try:
                traj = integrate(p, x0, t_end, rel_tol=rel_tol,
                                 abs_tol=abs_tol)
            except StepUnderflowError as exc:
                got.append(("StepUnderflowError", str(exc)))
            else:
                got.append((traj.terminal, traj.times.tobytes(),
                            traj.states.tobytes()))
        return got

    def assert_same(self, monkeypatch, p, starts, t_end, rel_tol, abs_tol):
        got = self.outcomes(p, starts, t_end, rel_tol, abs_tol)
        with monkeypatch.context() as m:
            m.setattr(simulate, "_advance", reference_advance)
            want = self.outcomes(p, starts, t_end, rel_tol, abs_tol)
        for j, (a, b) in enumerate(zip(got, want)):
            assert a == b, f"start {j}"
        return {a[0] for a in got}

    def test_acceptance_10_draws(self, monkeypatch):
        seen = set()
        # Every 5th start of every 5th draw; start 103 of draw 40 ends at
        # MAX_TIME.
        for i in range(0, 50, 5):
            p, starts = acceptance_10_case(i)
            seen |= self.assert_same(monkeypatch, p, starts[3::5], 2000.0,
                                     1e-6, 1e-9)
        assert seen == {"STEADY", "MAX_TIME"}

    def test_loose_tolerances(self, monkeypatch):
        seen = self.assert_same(monkeypatch, *loose_case(), 5.0, 0.5, 0.5)
        assert seen == {"DIVERGED", "MAX_TIME", "STEADY"}

    def test_step_underflow_message(self, monkeypatch):
        p = ModelParams.unchecked(np.ones(3), np.array([-1.0, 1.0, 1.0]),
                                  np.zeros((3, 3)))
        got = self.assert_same(monkeypatch, p, [[1.0, 1.0, 1.0]], 50.0, 1e-6,
                               1e-9)
        assert got == {"StepUnderflowError"}


def scalar_basin(topo, params, n, seed):
    """basin_sample at its default tolerances, one integrate per start."""
    params = apply_topology(params, topo)
    known = find_all_equilibria(topo, params, seed=seed)
    box = 2.0 * float(np.max(params.k))
    counts = {}
    for row in np.maximum(_halton(3, n, seed) * box, 1e-9 * box):
        traj = integrate(params, row, 2000.0, rel_tol=1e-6, abs_tol=1e-9)
        key = traj.terminal
        if key == "STEADY":
            dist = [float(np.max(np.abs(rec.point - traj.states[-1])))
                    for rec in known]
            best = int(np.argmin(dist))
            key = known[best].label if dist[best] <= 1e-4 else "UNMATCHED"
        counts[key] = counts.get(key, 0) + 1
    return {label: cnt / n for label, cnt in sorted(counts.items())}


class TestLanes:
    """The batched stepper against scalar integrate, start by start."""

    @staticmethod
    def assert_lanes_match(p, starts, t_end, rel_tol, abs_tol):
        terminals, ends = _integrate_lanes(_coeffs(p), starts, t_end,
                                           rel_tol, abs_tol)
        for j, x0 in enumerate(starts):
            traj = integrate(p, x0, t_end, rel_tol=rel_tol, abs_tol=abs_tol)
            # Bytes, so that NaN and signed zeros are compared as well.
            assert (terminals[j], ends[j].tobytes()) == \
                (traj.terminal, traj.states[-1].tobytes()), f"start {j}"
        return set(terminals)

    def test_acceptance_10_draws_match_bit_for_bit(self):
        seen = set()
        # Every 5th draw; draw 40 has a start that ends at MAX_TIME.
        for i in range(0, 50, 5):
            seen |= self.assert_lanes_match(*acceptance_10_case(i), 2000.0,
                                            1e-6, 1e-9)
        assert seen == {"STEADY", "MAX_TIME"}

    def test_loose_tolerances_match_on_every_branch(self):
        seen = self.assert_lanes_match(*loose_case(), 5.0, 0.5, 0.5)
        assert seen == {"DIVERGED", "MAX_TIME", "STEADY"}

    def test_float_power_is_pythons_power(self):
        # The batch's step factors come from np.float_power, the scalar
        # stepper's from Python's **; the lanes match only if these agree.
        rng = np.random.default_rng(19)
        x = np.concatenate((np.logspace(-20, 20, 4001), 2.0 * rng.random(4000),
                            [1e-16, 1.0 + 1e-16, 5e-324, math.inf]))
        want = np.array([v ** -0.2 for v in x.tolist()])
        assert np.float_power(x, -0.2).tobytes() == want.tobytes()

    def test_step_underflow_raises(self):
        # A negative capacity makes p1 blow up in finite time.
        p = ModelParams.unchecked(np.ones(3), np.array([-1.0, 1.0, 1.0]),
                                  np.zeros((3, 3)))
        starts = 1.0 + 1e-3 * _halton(3, HANDOFF_LANES + 16, 0)
        with pytest.raises(StepUnderflowError, match="fell below"):
            integrate(p, starts[0], t_end=50.0)
        with pytest.raises(StepUnderflowError, match="fell below"):
            _integrate_lanes(_coeffs(p), starts, 50.0, 1e-6, 1e-9)

    @pytest.mark.parametrize("handoff", [0, 10**6])
    def test_handoff_extremes_match_integrate(self, monkeypatch, handoff):
        # 0: the batch runs every lane to its end; 10**6: no lane is batched.
        monkeypatch.setattr(simulate, "HANDOFF_LANES", handoff)
        seen = self.assert_lanes_match(*loose_case(), 5.0, 0.5, 0.5)
        assert seen == {"DIVERGED", "MAX_TIME", "STEADY"}
        seen = self.assert_lanes_match(*acceptance_10_case(40), 2000.0, 1e-6,
                                       1e-9)
        assert seen == {"STEADY", "MAX_TIME"}

    @pytest.mark.parametrize("n", [1, HANDOFF_LANES, HANDOFF_LANES + 1,
                                   3 * HANDOFF_LANES],
                             ids=["one", "handoff", "handoff+1", "3x handoff"])
    def test_basin_sample_matches_scalar_reference(self, n):
        rng = np.random.default_rng(18)
        for topo in ("FULL", "EX6", "CHAIN", "CONVERGE", "DIVERGE"):
            p = draw_params(rng, m_lo=0.1)
            assert basin_sample(topo, p, n=n, seed=5) == \
                scalar_basin(topo, p, n, seed=5), topo


def golden_full(scale: float) -> ModelParams:
    """The FULL golden config's parameters with every capacity times ``scale``."""
    doc = json.loads((Path(__file__).parent / "golden" / "FULL.json").read_text())
    return ModelParams(doc["r"], scale * np.array(doc["k"]), doc["m"])


class TestRelativeDivergenceGuard:
    """The divergence bound scales with the capacities, as the flow does."""

    def test_scaled_capacities_end_steady(self):
        # tripatch simulate's run: from x0 = k over t_end = 30.
        small, big = golden_full(1.0), golden_full(1e12)
        want = integrate(small, small.k, 30.0)
        got = integrate(big, big.k, 30.0)
        assert want.terminal == got.terminal == "STEADY"
        np.testing.assert_allclose(got.states[-1], 1e12 * want.states[-1],
                                   rtol=1e-6, atol=0.0)

    def test_lanes_match_integrate_at_scaled_capacities(self):
        p = golden_full(1e12)
        box = 2.0 * float(np.max(p.k))
        starts = np.maximum(_halton(3, 3 * HANDOFF_LANES, 0) * box, 1e-9 * box)
        assert TestLanes.assert_lanes_match(p, starts, 2000.0, 1e-6, 1e-9) == \
            {"STEADY"}


class TestBasinSample:
    def test_symmetric_network_is_globally_coexistent(self):
        fractions = basin_sample("FULL", symmetric_full(), n=64, seed=0)
        assert fractions == {"COEX": 1.0}

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(16)
        for topo in ("FULL", "EX6", "CHAIN"):
            p = draw_params(rng, m_lo=0.1)
            fr = basin_sample(topo, p, n=40, seed=3)
            assert sum(fr.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(v > 0 for v in fr.values())

    def test_same_seed_reproduces(self):
        p = draw_params(np.random.default_rng(17), m_lo=0.1)
        a = basin_sample("EX6", p, n=50, seed=9)
        b = basin_sample("EX6", p, n=50, seed=9)
        assert a == b

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError, match="n must be"):
            basin_sample("FULL", symmetric_full(), n=0, seed=0)

    @pytest.mark.parametrize("kwargs, match", [
        ({"n": 2.5, "seed": 0}, "n must be an integer"),
        ({"n": 4, "seed": -1}, "seed must be >= 0"),
        ({"n": 4, "seed": 0.5}, "seed must be an integer"),
    ])
    def test_rejects_a_count_or_seed_that_is_not_a_whole_number(self, kwargs,
                                                                 match):
        # n=2.5 used to raise IndexError inside the Halton sampler, seed=-1
        # NumPy's error, which did not name the argument.
        with pytest.raises(ValueError, match=match):
            basin_sample("FULL", symmetric_full(), **kwargs)

    def test_numpy_integers_count_as_integers(self):
        p = draw_params(np.random.default_rng(17), m_lo=0.1)
        assert basin_sample("EX6", p, n=np.int32(20), seed=np.int64(9)) == \
            basin_sample("EX6", p, n=20, seed=9)

    def test_rejects_bad_horizon_and_tolerances(self):
        p = symmetric_full()
        with pytest.raises(ValueError, match="t_end"):
            basin_sample("FULL", p, n=4, seed=0, t_end=math.inf)
        for match_tol in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="match_tol"):
                basin_sample("FULL", p, n=4, seed=0, match_tol=match_tol)
