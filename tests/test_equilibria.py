"""Closed-form equilibrium catalog, Newton solvers, and the merged set."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripatch.equilibria import (
    ADMITTED_LABELS,
    DEDUP_TOL,
    EQUILIBRIUM_LABELS,
    brute_force_equilibria,
    closed_form_equilibria,
    coexistence_by_construction,
    find_all_equilibria,
    newton_coexistence,
)
from tripatch.model import ModelParams, rhs, with_param
from tripatch.topology import TOPOLOGIES, apply_topology
from tripatch.verification import draw_params

rates = st.floats(0.1, 5.0)
migrations = st.floats(0.0, 2.0)
# The construction oracle divides by m12, m21, m13, m23; keep them off
# the boundary where it is documented not to apply.
positive_migrations = st.floats(0.001, 2.0)


def build(r, k, m6):
    m = np.zeros((3, 3))
    (m[0, 1], m[0, 2], m[1, 0], m[1, 2], m[2, 0], m[2, 1]) = m6
    return ModelParams(np.array(r), np.array(k), m)


params_st = st.builds(
    build,
    st.tuples(rates, rates, rates),
    st.tuples(rates, rates, rates),
    st.tuples(*(migrations,) * 6),
)

coupled_params_st = st.builds(
    build,
    st.tuples(rates, rates, rates),
    st.tuples(rates, rates, rates),
    st.tuples(*(positive_migrations,) * 6),
)


def residual_of(p, point) -> float:
    return float(np.max(np.abs(rhs(p, np.maximum(point, 0.0)))))


class TestCoexistenceSolvers:
    @given(params_st)
    @settings(max_examples=100, deadline=None)
    def test_interior_equilibrium_always_found(self, p):
        rec = newton_coexistence(p)
        assert float(np.min(rec.point)) > 0.0, (
            f"interior point has a nonpositive component: {rec.point.tolist()}"
        )
        assert rec.residual <= 1e-10

    @given(coupled_params_st)
    @settings(max_examples=100, deadline=None)
    def test_two_solvers_agree(self, p):
        a = newton_coexistence(p)
        b = coexistence_by_construction(p)
        gap = float(np.max(np.abs(a.point - b.point)))
        assert gap <= 1e-6, f"solver gap {gap} at r={p.r.tolist()}"

    def test_symmetric_coexistence_is_capacity(self):
        m = np.full((3, 3), 1.0) * (1 - np.eye(3))
        p = ModelParams(np.ones(3), np.ones(3), m)
        rec = newton_coexistence(p)
        assert np.allclose(rec.point, [1.0, 1.0, 1.0], atol=1e-12)


class TestClosedForms:
    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_feasible_records_are_equilibria(self, topo):
        rng = np.random.default_rng(hash(topo) % 2**32)
        for i in range(40):
            p = apply_topology(draw_params(rng), topo)
            for rec in closed_form_equilibria(topo, p):
                if rec.feasible:
                    res = residual_of(p, rec.point)
                    assert res <= 1e-8, (
                        f"{topo}/{rec.label} draw {i}: residual {res:.2e}"
                    )

    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_labels_stay_in_topology_vocabulary(self, topo):
        rng = np.random.default_rng(hash(topo) % 2**32 + 1)
        admitted = set(ADMITTED_LABELS[topo])
        for i in range(20):
            p = apply_topology(draw_params(rng), topo)
            labels = {rec.label for rec in closed_form_equilibria(topo, p)}
            assert labels <= admitted, f"{topo}: unexpected labels {labels - admitted}"
            assert "ORIGIN" in labels

    def test_origin_is_always_first_and_exact(self):
        p = apply_topology(
            draw_params(np.random.default_rng(5)), "CHAIN")
        recs = closed_form_equilibria("CHAIN", p)
        assert recs[0].label == "ORIGIN"
        assert np.all(recs[0].point == 0.0) and recs[0].residual == 0.0

    def test_unknown_topology_raises(self):
        p = draw_params(np.random.default_rng(0))
        with pytest.raises(ValueError, match="unknown topology"):
            closed_form_equilibria("RING", p)


class TestBruteForce:
    def test_symmetric_full_finds_exactly_two(self):
        m = np.full((3, 3), 1.0) * (1 - np.eye(3))
        p = ModelParams(np.ones(3), np.ones(3), m)
        recs = brute_force_equilibria(p)
        points = sorted(tuple(np.round(r.point, 9)) for r in recs)
        assert points == [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)], (
            f"expected origin and (1,1,1), got {points}"
        )

    def test_points_are_deduplicated(self):
        rng = np.random.default_rng(11)
        for i in range(10):
            p = draw_params(rng)
            recs = brute_force_equilibria(p, seed=i)
            for a in range(len(recs)):
                for b in range(a + 1, len(recs)):
                    gap = float(np.max(np.abs(recs[a].point - recs[b].point)))
                    assert gap >= DEDUP_TOL, (
                        f"draw {i}: records {a},{b} within {gap}"
                    )

    def test_seeded_runs_are_reproducible(self):
        p = draw_params(np.random.default_rng(12))
        a = brute_force_equilibria(p, seed=7)
        b = brute_force_equilibria(p, seed=7)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.point, y.point)


class TestFindAll:
    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_catalog_and_oracle_agree(self, topo):
        rng = np.random.default_rng(hash(topo) % 2**32 + 2)
        for i in range(15):
            p = apply_topology(draw_params(rng), topo)
            recs = find_all_equilibria(topo, p, seed=i)
            for rec in recs:
                assert rec.label in EQUILIBRIUM_LABELS
                assert rec.residual <= 1e-8

    def test_strongly_connected_set_is_origin_and_coex(self):
        rng = np.random.default_rng(21)
        for topo in ("FULL", "EX2", "HUB0", "EX3", "EX1"):
            for i in range(10):
                p = apply_topology(draw_params(rng, m_lo=0.05), topo)
                labels = sorted(r.label for r in find_all_equilibria(topo, p))
                assert labels == ["COEX", "ORIGIN"], (
                    f"{topo} draw {i}: {labels}"
                )

    def test_skipped_boundary_point_surfaces_as_numerical(self):
        # A p2 = 0 boundary point whose construction rule does not apply
        # (r1 < m31 and r3 < m13): the catalog omits it, the oracle must
        # still find the actual equilibrium and report it as NUMERICAL.
        p = ModelParams(
            np.array([0.655110677969723, 4.746510474977496,
                      0.7571632021892445]),
            np.array([0.4291006354896144, 1.9439013168586734,
                      4.22271434156476]),
            np.array([
                [0.0, 0.1231277155508121, 1.1799964196330623],
                [0.0, 0.0, 0.0],
                [1.1949068204212492, 1.502838460422242, 0.0],
            ]),
        )
        assert p.r[0] < p.m[2, 0] and p.r[2] < p.m[0, 2]
        cf_labels = {r.label for r in closed_form_equilibria("EX7", p)}
        assert "Q1" not in cf_labels
        recs = find_all_equilibria("EX7", p)
        extras = [r for r in recs if r.label == "NUMERICAL"]
        assert extras, "oracle should surface the skipped boundary point"
        pt = extras[0].point
        assert pt[1] == pytest.approx(0.0, abs=1e-9)
        assert pt[0] > 0 and pt[2] > 0
        assert extras[0].residual <= 1e-10

    def test_projection_is_applied_for_caller(self):
        # Passing un-projected params must give the projected answer.
        rng = np.random.default_rng(31)
        p = draw_params(rng, m_lo=0.1)
        direct = find_all_equilibria("EX6", apply_topology(p, "EX6"))
        lazy = find_all_equilibria("EX6", p)
        assert sorted(r.label for r in direct) == sorted(r.label for r in lazy)

    def test_coincident_branches_share_one_oracle_point(self):
        # At an exact branch crossing the two exchanging equilibria are
        # the same point; the merged set must keep both labels without
        # raising a consistency error.
        rng = np.random.default_rng(606)
        p = apply_topology(draw_params(rng, m_lo=0.2), "EX6")
        p = with_param(p, "r2", float(p.m[0, 1] + p.m[2, 1]))
        partner = "I2" if p.r[2] < p.m[0, 2] else "I3"
        recs = find_all_equilibria("EX6", p)
        by_label = {r.label: r for r in recs}
        assert partner in by_label
        assert "COEX" in by_label
        gap = float(np.max(np.abs(by_label[partner].point
                                  - by_label["COEX"].point)))
        assert gap <= 1e-9, f"exchanging pair should coincide, gap {gap}"
