"""Analytic thresholds, Hopf screening, and parameter sweeps."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tripatch.bifurcation import (
    Crossing,
    SweepRecord,
    hopf_candidate,
    sweep,
    transcritical_thresholds,
)
from tripatch.equilibria import find_all_equilibria
from tripatch.model import ModelParams, ParameterError, with_param
from tripatch.stability import classify
from tripatch.topology import apply_topology
from tripatch.verification import draw_params


def ex1_ring(rate: float = 2.0) -> ModelParams:
    m = np.zeros((3, 3))
    m[1, 0] = m[2, 1] = m[0, 2] = rate
    return ModelParams(np.full(3, 3.0), np.ones(3), m)


class TestTranscriticalThresholds:
    @pytest.mark.parametrize("topo", ("FULL", "EX2", "HUB0", "EX3", "EX1"))
    def test_strongly_connected_have_no_boundaries(self, topo):
        p = draw_params(np.random.default_rng(1), m_lo=0.1)
        assert transcritical_thresholds(topo, p) == []

    def test_formula_values(self):
        p = draw_params(np.random.default_rng(2), m_lo=0.1)
        thr = {(tok, pair): val
               for tok, val, pair in transcritical_thresholds("EX6", p)}
        assert thr[("r2", ("I2", "COEX"))] == p.m[0, 1] + p.m[2, 1]
        assert thr[("r2", ("I3", "COEX"))] == p.m[0, 1] + p.m[2, 1]
        assert thr[("r3", ("I2", "I3"))] == p.m[0, 2]

        chain = {tok: val
                 for tok, val, _ in transcritical_thresholds("CHAIN", p)}
        assert chain == {"r1": p.m[1, 0], "r2": p.m[2, 1]}

        div = transcritical_thresholds("DIVERGE", p)
        assert div == [("r2", p.m[0, 1] + p.m[2, 1], ("Z3", "COEX"))]

    @pytest.mark.parametrize("topo", ("EX6", "CHAIN", "CONVERGE", "DIVERGE",
                                      "EX7", "EX7N"))
    def test_thresholds_really_are_zero_eigenvalue_loci(self, topo):
        # Pinning the token at its critical value must put an exact (or
        # near-exact) zero eigenvalue on at least one of the named
        # branches.  A pair can be absent entirely when a different
        # existence condition fails at the draw (square root of a
        # negative number); those loci are skipped but must not
        # dominate.
        rng = np.random.default_rng(3)
        verified = 0
        for _ in range(5):
            p = apply_topology(draw_params(rng, m_lo=0.2), topo)
            for tok, val, pair in transcritical_thresholds(topo, p):
                q = with_param(p, tok, float(val))
                recs = {r.label: r for r in find_all_equilibria(topo, q)}
                hits = []
                for label in pair:
                    if label not in recs:
                        continue
                    rep = classify(topo, recs[label], q)
                    scale = max(abs(z) for z in rep.eigenvalues) + 1.0
                    hits.append(min(abs(z.real) for z in rep.eigenvalues)
                                <= 1e-8 * scale)
                if not hits:
                    continue
                verified += 1
                assert any(hits), (
                    f"{topo} {tok}={val}: no zero eigenvalue on {pair}"
                )
        assert verified >= 5, f"only {verified} loci had live branches"

    def test_one_source_determinant_boundary(self):
        # Solving the 2x2 block determinant for r2 must zero an
        # eigenvalue of the patch-1-at-capacity state.
        rng = np.random.default_rng(4)
        found = 0
        for _ in range(20):
            p = apply_topology(draw_params(rng, m_lo=0.2), "EX8")
            thr = transcritical_thresholds("EX8", p)
            if not thr:
                continue
            tok, val, pair = thr[0]
            assert (tok, pair) == ("r2", ("M2_EX8", "COEX"))
            q = with_param(p, "r2", float(val))
            recs = {r.label: r for r in find_all_equilibria("EX8", q)}
            rep = classify("EX8", recs["M2_EX8"], q)
            scale = max(abs(z) for z in rep.eigenvalues) + 1.0
            assert min(abs(z.real) for z in rep.eigenvalues) <= 1e-8 * scale
            found += 1
        assert found >= 10, f"only {found} admissible boundary draws"

    def test_one_sink_determinant_boundary(self):
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(20):
            p = apply_topology(draw_params(rng, m_lo=0.2), "EX2N")
            thr = transcritical_thresholds("EX2N", p)
            if not thr:
                continue
            tok, val, pair = thr[0]
            assert (tok, pair) == ("r1", ("X_EX2N", "COEX"))
            q = with_param(p, "r1", float(val))
            recs = {r.label: r for r in find_all_equilibria("EX2N", q)}
            rep = classify("EX2N", recs["X_EX2N"], q)
            scale = max(abs(z) for z in rep.eigenvalues) + 1.0
            assert min(abs(z.real) for z in rep.eigenvalues) <= 1e-8 * scale
            found += 1
        assert found >= 10, f"only {found} admissible boundary draws"

    def test_degenerate_denominator_is_skipped(self):
        p = draw_params(np.random.default_rng(6), m_lo=0.2)
        p = with_param(p, "r3", float(p.m[0, 2] + p.m[1, 2]))
        assert transcritical_thresholds("EX8", p) == []


class TestHopfCandidate:
    def test_candidate_formula(self):
        p = draw_params(np.random.default_rng(7), m_lo=0.1)
        r2c, validity = hopf_candidate(p)
        expected = float(p.m[0, 2] + p.m[1, 2] + p.m[2, 1] + p.m[0, 1]
                         - p.r[2])
        assert r2c == pytest.approx(expected, rel=1e-15)

    def test_always_degenerate_for_positive_rates(self):
        # The block determinant at the candidate equals -J33² - m23·m32,
        # which cannot be positive, so the trace-zero crossing is always
        # a real pair, never an oscillatory one.
        rng = np.random.default_rng(8)
        for _ in range(200):
            _, validity = hopf_candidate(draw_params(rng))
            assert validity == "DEGENERATE"

    def test_nonpositive_candidate_short_circuits(self):
        p = draw_params(np.random.default_rng(9), m_lo=0.0, m_hi=0.1)
        p = with_param(p, "r3", 4.9)
        r2c, validity = hopf_candidate(p)
        assert r2c <= 0.0 and validity == "DEGENERATE"


class TestSweepValidation:
    def setup_method(self):
        self.p = draw_params(np.random.default_rng(10), m_lo=0.1)

    def test_unknown_token(self):
        with pytest.raises(ParameterError, match="unknown parameter token"):
            sweep("FULL", self.p, "m11", 0.1, 1.0, 3)

    def test_empty_range(self):
        with pytest.raises(ParameterError, match="lo < hi"):
            sweep("FULL", self.p, "r1", 2.0, 1.0, 3)

    def test_too_few_steps(self):
        with pytest.raises(ParameterError, match="at least 2"):
            sweep("FULL", self.p, "r1", 0.5, 1.0, 1)

    def test_rate_domain(self):
        with pytest.raises(ParameterError, match="must stay positive"):
            sweep("FULL", self.p, "k2", 0.0, 1.0, 3)

    def test_migration_domain(self):
        with pytest.raises(ParameterError, match="nonnegative"):
            sweep("FULL", self.p, "m21", -0.5, 1.0, 3)


class TestSweep:
    def test_record_shape(self):
        p = draw_params(np.random.default_rng(11), m_lo=0.1)
        recs = sweep("FULL", p, "r1", 0.5, 1.5, 5)
        assert len(recs) == 5
        assert [r.param_value for r in recs] == pytest.approx(
            list(np.linspace(0.5, 1.5, 5)))
        assert all(r.param_name == "r1" for r in recs)
        assert recs[0].crossings == ()
        for r in recs:
            assert len(r.reports) == len(r.equilibria)

    def test_minimal_two_point_grid(self):
        p = draw_params(np.random.default_rng(12), m_lo=0.1)
        recs = sweep("FULL", p, "m21", 0.1, 0.2, 2)
        assert len(recs) == 2

    def test_exchange_crossing_is_refined(self):
        # Sweeping r2 through m12 + m32 with the threshold strictly
        # inside a grid cell: the refined crossing must land within 1e-6
        # of the analytic value.
        rng = np.random.default_rng(13)
        p = apply_topology(draw_params(rng, m_lo=0.2), "EX6")
        thr = float(p.m[0, 1] + p.m[2, 1])
        recs = sweep("EX6", p, "r2", 0.52 * thr, 1.48 * thr, 8)
        cross = [c for r in recs for c in r.crossings]
        assert cross, "no crossing detected across the threshold"
        best = min(abs(c.param_value - thr) for c in cross)
        assert best <= 1e-6, f"refined crossing off by {best:.2e}"
        assert all(c.kind == "REAL_ZERO" for c in cross
                   if abs(c.param_value - thr) <= 1e-6)

    def test_oscillatory_crossing_on_the_ring(self):
        # A cyclic 1->2->3->1 arrangement loses origin stability through
        # a complex pair as the ring rate passes 2; at the crossing the
        # pair is ±i·sqrt(3).
        recs = sweep("EX1", ex1_ring(), "m21", 1.5, 2.5, 11)
        cross = [c for r in recs for c in r.crossings
                 if c.label == "ORIGIN"]
        assert len(cross) == 1
        c = cross[0]
        assert c.kind == "COMPLEX_PAIR"
        assert c.param_value == pytest.approx(2.0, abs=1e-9)
        assert abs(c.eig_im) == pytest.approx(math.sqrt(3.0), abs=1e-6)
        assert abs(c.eig_re) <= 1e-6
