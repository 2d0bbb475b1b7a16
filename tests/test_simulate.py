"""Adaptive integrator and basin sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tripatch.equilibria import _halton, find_all_equilibria
from tripatch.model import ModelParams, _coeffs
from tripatch.simulate import (HANDOFF_LANES, StepUnderflowError, Trajectory,
                               _integrate_lanes, _row_max, _row_min, basin_sample,
                               integrate)
from tripatch.topology import apply_topology
from tripatch.verification import draw_params


def logistic_exact(r, k, p0, t):
    e = math.exp(r * t)
    return k * p0 * e / (k + p0 * (e - 1.0))


def symmetric_full() -> ModelParams:
    m = np.full((3, 3), 1.0) * (1 - np.eye(3))
    return ModelParams(np.ones(3), np.ones(3), m)


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
            assert terminals[j] == traj.terminal, f"start {j}"
            assert np.array_equal(ends[j], traj.states[-1]), f"start {j}"
        return set(terminals)

    def test_acceptance_10_draws_match_bit_for_bit(self):
        rng = np.random.default_rng(1010)
        draws = [draw_params(rng) for _ in range(50)]
        seen = set()
        # Every 5th draw; draw 40 has a start that ends at MAX_TIME.
        for i in range(0, 50, 5):
            p = apply_topology(draws[i], "FULL")
            box = 2.0 * float(np.max(p.k))
            starts = np.maximum(_halton(3, 200, i) * box, 1e-9 * box)
            seen |= self.assert_lanes_match(p, starts, 2000.0, 1e-6, 1e-9)
        assert seen == {"STEADY", "MAX_TIME"}

    def test_loose_tolerances_match_on_every_branch(self):
        # Tolerances this loose leave the orthant, clamp back into it and
        # let some starts run away, so every reject and terminal path runs.
        rng = np.random.default_rng(12)
        p = draw_params(rng)
        starts = rng.uniform(0.0, 20.0, (24, 3)) * float(p.k.max())
        starts[rng.uniform(size=(24, 3)) < 0.3] = 0.0
        seen = self.assert_lanes_match(p, starts, 5.0, 0.5, 0.5)
        assert seen == {"DIVERGED", "MAX_TIME", "STEADY"}

    def test_step_underflow_raises(self):
        # A negative capacity makes p1 blow up in finite time.
        p = ModelParams.unchecked(np.ones(3), np.array([-1.0, 1.0, 1.0]),
                                  np.zeros((3, 3)))
        starts = 1.0 + 1e-3 * _halton(3, 24, 0)
        with pytest.raises(StepUnderflowError, match="fell below"):
            integrate(p, starts[0], t_end=50.0)
        with pytest.raises(StepUnderflowError, match="fell below"):
            _integrate_lanes(_coeffs(p), starts, 50.0, 1e-6, 1e-9)

    @pytest.mark.parametrize("n", [1, HANDOFF_LANES, HANDOFF_LANES + 1])
    def test_basin_sample_matches_scalar_reference(self, n):
        rng = np.random.default_rng(18)
        for topo in ("FULL", "EX6", "CHAIN", "CONVERGE", "DIVERGE"):
            p = draw_params(rng, m_lo=0.1)
            assert basin_sample(topo, p, n=n, seed=5) == \
                scalar_basin(topo, p, n, seed=5), topo


class TestRowExtrema:
    ROWS = [
        [math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan],
        [2.0, math.nan, 1.0], [math.nan, math.nan, 1.0], [math.nan] * 3,
        [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [1.0, -math.inf, math.nan],
    ]

    def test_python_tie_rule(self):
        # A NaN first wins, a later one is skipped; ties keep the first.
        a = np.array(self.ROWS)
        assert [repr(v) for v in _row_max(a).tolist()] == \
            [repr(max(row)) for row in self.ROWS]
        assert [repr(v) for v in _row_min(a).tolist()] == \
            [repr(min(row)) for row in self.ROWS]


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

    def test_rejects_bad_horizon_and_tolerances(self):
        p = symmetric_full()
        with pytest.raises(ValueError, match="t_end"):
            basin_sample("FULL", p, n=4, seed=0, t_end=math.inf)
        with pytest.raises(ValueError, match="tolerances"):
            basin_sample("FULL", p, n=4, seed=0, abs_tol=0.0)
        for match_tol in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="match_tol"):
                basin_sample("FULL", p, n=4, seed=0, match_tol=match_tol)
