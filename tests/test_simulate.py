"""Adaptive integrator and basin sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tripatch.model import ModelParams
from tripatch.simulate import Trajectory, basin_sample, integrate
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
        with pytest.raises(ValueError):
            integrate(p, [1, 1], t_end=1.0)

    def test_negative_start_is_rejected(self):
        with pytest.raises(ValueError):
            integrate(symmetric_full(), [-0.5, 1.0, 1.0], t_end=1.0)


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
