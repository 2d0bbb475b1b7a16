"""Analytic thresholds, Hopf screening, and parameter sweeps."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from helpers import STRONG, bits
from tripatch import bifurcation, equilibria
from tripatch.bifurcation import (
    Crossing,
    SweepRecord,
    hopf_candidate,
    sweep,
    transcritical_thresholds,
)
from tripatch.equilibria import find_all_equilibria
from tripatch.model import ModelParams, ParameterError, _coeffs, _jac, with_param
from tripatch.stability import _axis_terms, characteristic, classify
from tripatch.topology import TOPOLOGIES, apply_topology, zeroed_rates
from tripatch.verification import draw_params


def ex1_ring(rate: float = 2.0) -> ModelParams:
    m = np.zeros((3, 3))
    m[1, 0] = m[2, 1] = m[0, 2] = rate
    return ModelParams(np.full(3, 3.0), np.ones(3), m)


def pair_gap(topo, params, pair):
    """Max-norm distance between the two labeled records of ``pair``, or
    None where the table lacks one of them."""
    at = {r.label: r.point for r in find_all_equilibria(topo, params)}
    if not set(pair) <= set(at):
        return None
    return float(np.max(np.abs(at[pair[0]] - at[pair[1]])))


class TestTranscriticalThresholds:
    @pytest.mark.parametrize("topo", STRONG)
    def test_strongly_connected_have_no_boundaries(self, topo):
        p = draw_params(np.random.default_rng(1), m_lo=0.1)
        assert transcritical_thresholds(topo, p) == []

    def test_formula_values(self):
        p = draw_params(np.random.default_rng(2), m_lo=0.1)
        m12, m13, m21, m32 = p.m[0, 1], p.m[0, 2], p.m[1, 0], p.m[2, 1]
        # COEX meets I2 below r3 = m13 and I3 from there on; W2 below
        # r2 = m32 and W3 from there on.
        for r3, partner in ((0.5 * m13, "I2"), (m13, "I3"), (2.0 * m13, "I3")):
            q = with_param(p, "r3", float(r3))
            assert transcritical_thresholds("EX6", q) == [
                ("r2", m12 + m32, (partner, "COEX")), ("r3", m13, ("I2", "I3"))]
        for r2, partner in ((0.5 * m32, "W2"), (m32, "W3"), (2.0 * m32, "W3")):
            q = with_param(p, "r2", float(r2))
            assert transcritical_thresholds("CHAIN", q) == [
                ("r1", m21, (partner, "COEX")), ("r2", m32, ("W2", "W3"))]

        div = transcritical_thresholds("DIVERGE", p)
        assert div == [("r2", m12 + m32, ("Z3", "COEX"))]
        # CONVERGE lists the same pairs on each side of r1 = o1 = m21 and
        # r3 = o3 = m23, and on both; so do EX7 and EX7N about o1 = m31 and
        # o3 = m13, and DIVERGE, whose patches 1 and 3 have no outflow.
        m23, m31 = p.m[1, 2], p.m[2, 0]
        for f1, f3 in itertools.product((0.5, 1.0, 2.0), repeat=2):
            q = with_param(with_param(p, "r1", float(f1 * m21)), "r3", float(f3 * m23))
            assert transcritical_thresholds("CONVERGE", q) == [
                ("r1", m21, ("X1", "X2")), ("r1", m21, ("Y3", "COEX")),
                ("r3", m23, ("X1", "Y3")), ("r3", m23, ("X2", "COEX"))]
            q = with_param(with_param(p, "r1", float(f1 * m31)), "r3", float(f3 * m13))
            assert transcritical_thresholds("DIVERGE", q) == div
            assert transcritical_thresholds("EX7", q) == [
                ("r2", m12 + m32, ("Q1", "COEX"))]
            assert transcritical_thresholds("EX7N", q) == [("r2", m32, ("Q1", "COEX"))]
        # EX8's {2,3} and EX2N's {1,3} blocks list r_x = o_x + m_xy·m_yx/(r_y − o_y)
        # for each patch x of the block, only where r_y < o_y, below, at and
        # above each o.
        for topo, x, y, boundary in (("EX8", 1, 2, "M2_EX8"), ("EX2N", 0, 2, "X_EX2N")):
            pair = (boundary, "COEX")
            o = _coeffs(apply_topology(p, topo))[12:]
            for fx, fy in itertools.product((0.1, 1.0, 2.0), repeat=2):
                q = apply_topology(with_param(with_param(
                    p, f"r{x + 1}", fx * o[x]), f"r{y + 1}", fy * o[y]), topo)
                r, product = q.r, q.m[x, y] * q.m[y, x]
                want = [(f"r{i + 1}", o[i] + product / (r[j] - o[j]), pair)
                        for i, j in ((x, y), (y, x)) if r[j] < o[j]]
                assert transcritical_thresholds(topo, q) == [t for t in want if t[1] > 0.0]

    @pytest.mark.parametrize("topo", ("EX6", "CHAIN", "CONVERGE", "DIVERGE",
                                      "EX8", "EX2N"))
    def test_listed_pairs_meet_at_the_value(self, topo):
        # Wherever both labels of a listed pair exist at the critical value,
        # they are one point up to the solvers' round-off.  EX8 and EX2N have
        # no catalog COEX, and at the value their table holds one of the two
        # records; there the pair meets in the limit instead: at value·(1 ± δ),
        # on each side where both exist, the gap falls at least 5× from
        # δ = 1e-4 to 1e-5.
        rng = np.random.default_rng(606)
        block = topo in ("EX8", "EX2N")
        met = 0
        for _ in range(90 if block else 30):
            p = apply_topology(draw_params(rng), topo)
            for tok, val, pair in transcritical_thresholds(topo, p):
                if not block:
                    gap = pair_gap(topo, with_param(p, tok, val), pair)
                    if gap is not None:
                        assert gap <= 1e-5, (tok, val, pair, gap)
                        met += 1
                    continue
                checked = False
                for side in (-1.0, 1.0):
                    far, near = (pair_gap(topo, with_param(p, tok, val * (1.0 + side * d)), pair)
                                 for d in (1e-4, 1e-5))
                    if far is not None and near is not None:
                        assert near * 5.0 <= far, (tok, val, pair, side, far, near)
                        checked = True
                met += checked
        assert met >= (15 if block else 30)

    @pytest.mark.parametrize("topo", ("EX6", "CHAIN", "CONVERGE", "DIVERGE",
                                      "EX7", "EX7N", "EX8", "EX2N"))
    def test_thresholds_really_are_zero_eigenvalue_loci(self, topo):
        # Pinning the token at its critical value must put an exact (or
        # near-exact) zero eigenvalue on at least one of the named
        # branches.  A pair can be absent entirely when a different
        # existence condition fails at the draw (square root of a
        # negative number); those loci are skipped but must not
        # dominate.  On EX8 and EX2N the first label's state has A_C as
        # its whole block off the support, so the zero is there.
        rng = np.random.default_rng(3)
        block = topo in ("EX8", "EX2N")
        verified = 0
        for _ in range(40 if block else 5):
            p = apply_topology(draw_params(rng, m_lo=0.2), topo)
            for tok, val, pair in transcritical_thresholds(topo, p):
                q = with_param(p, tok, float(val))
                recs = {r.label: r for r in find_all_equilibria(topo, q)}
                hits = {}
                for label in pair:
                    if label not in recs:
                        continue
                    rep = classify(topo, recs[label], q)
                    scale = max(abs(z) for z in rep.eigenvalues) + 1.0
                    hits[label] = (min(abs(z.real) for z in rep.eigenvalues)
                                   <= 1e-8 * scale)
                if block:
                    assert hits.get(pair[0]), f"{topo} {tok}={val}: no zero on {pair[0]}"
                if not hits:
                    continue
                verified += 1
                assert any(hits.values()), (
                    f"{topo} {tok}={val}: no zero eigenvalue on {pair}"
                )
        assert verified >= 5, f"only {verified} loci had live branches"

    def test_one_source_determinant_boundary(self):
        # Solving the 2x2 block determinant for r2 must zero an
        # eigenvalue of the patch-1-at-capacity state.  r2 is listed only
        # where r3 < o3, so 60 draws give the 10 boundaries 20 gave when
        # it was listed on every draw.
        rng = np.random.default_rng(4)
        found = 0
        for _ in range(60):
            p = apply_topology(draw_params(rng, m_lo=0.2), "EX8")
            for tok, val, pair in transcritical_thresholds("EX8", p):
                assert tok in ("r2", "r3") and pair == ("M2_EX8", "COEX")
                if tok != "r2":
                    continue
                q = with_param(p, "r2", float(val))
                recs = {r.label: r for r in find_all_equilibria("EX8", q)}
                rep = classify("EX8", recs["M2_EX8"], q)
                scale = max(abs(z) for z in rep.eigenvalues) + 1.0
                assert min(abs(z.real) for z in rep.eigenvalues) <= 1e-8 * scale
                found += 1
        assert found >= 10, f"only {found} admissible boundary draws"

    def test_one_sink_determinant_boundary(self):
        # As above for EX2N's r1, listed only where r3 < o3.
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(60):
            p = apply_topology(draw_params(rng, m_lo=0.2), "EX2N")
            for tok, val, pair in transcritical_thresholds("EX2N", p):
                assert tok in ("r1", "r3") and pair == ("X_EX2N", "COEX")
                if tok != "r1":
                    continue
                q = with_param(p, "r1", float(val))
                recs = {r.label: r for r in find_all_equilibria("EX2N", q)}
                rep = classify("EX2N", recs["X_EX2N"], q)
                scale = max(abs(z) for z in rep.eigenvalues) + 1.0
                assert min(abs(z.real) for z in rep.eigenvalues) <= 1e-8 * scale
                found += 1
        assert found >= 10, f"only {found} admissible boundary draws"

    @pytest.mark.parametrize("topo", ("EX8", "EX2N"))
    def test_block_rule_against_the_removed_formulas(self, topo):
        # 3000 draws (rng 5).  Where both list a value, EX8's r2 and EX2N's
        # r1 equal the per-pattern formulas the rule replaced to rounding:
        # each is a sum of two terms, so within 32 ulps of the largest of
        # them and of o_x.  Every listed value has a negative block trace
        # at det A_C = 0.
        block = {"EX8": {1, 2}, "EX2N": {0, 2}}[topo]
        rng = np.random.default_rng(5)
        compared, worst = 0, 0.0
        for _ in range(3000):
            p = apply_topology(draw_params(rng), topo)
            c = _coeffs(p)
            r3, m12, m13, m23, m31, m32 = c[2], *c[6:8], *c[9:12]
            listed = {}
            for tok, val, _ in transcritical_thresholds(topo, p):
                x = int(tok[1]) - 1
                (y,) = block - {x}
                assert (val - c[12 + x]) + (c[y] - c[12 + y]) < 0.0, (tok, val)
                listed[tok] = val
            x, lead, num, den = ((1, m12, m32 * (r3 - m13), r3 - m13 - m23) if topo == "EX8"
                                 else (0, m31, -m13 * m31, m13 + m23 - r3))
            if f"r{x + 1}" not in listed or abs(den) <= 1e-12:
                continue
            removed = lead + num / den
            if 0.0 < removed < math.inf:
                scale = math.ulp(max(abs(lead), abs(num / den), c[12 + x]))
                worst = max(worst, abs(listed[f"r{x + 1}"] - removed) / scale)
                compared += 1
        assert worst <= 32.0, worst
        assert compared >= 500, compared

    @pytest.mark.parametrize("topo", ("EX6", "EX7", "EX7N", "EX8", "EX2N",
                                      "CHAIN", "CONVERGE", "DIVERGE"))
    def test_every_value_is_a_rate(self, topo):
        # With any of the pattern's rates cut to 0, or raised until a sum
        # overflows, every listed value is one with_param accepts.
        p = apply_topology(draw_params(np.random.default_rng(2), m_lo=0.1), topo)
        present = [f"m{i + 1}{j + 1}" for i in range(3) for j in range(3)
                   if p.m[i, j] > 0.0]
        for value in (0.0, 1e308):
            for n in range(len(present) + 1):
                for cut in itertools.combinations(present, n):
                    q = p
                    for tok in cut:
                        q = with_param(q, tok, value)
                    for tok, val, _ in transcritical_thresholds(topo, q):
                        assert 0.0 < val < math.inf, (cut, value, tok, val)
                        with_param(q, tok, val)

    @pytest.mark.parametrize("topo, cut, token", [
        ("CHAIN", ("m21",), "r1"), ("EX6", ("m12", "m32"), "r2"),
        ("DIVERGE", ("m12", "m32"), "r2")])
    def test_a_cut_threshold_is_not_listed(self, topo, cut, token):
        p = apply_topology(draw_params(np.random.default_rng(2), m_lo=0.1), topo)
        assert token in {tok for tok, _, _ in transcritical_thresholds(topo, p)}
        for tok in cut:
            p = with_param(p, tok, 0.0)
        assert token not in {tok for tok, _, _ in transcritical_thresholds(topo, p)}

    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_pairs_name_admitted_labels(self, topo):
        # On 200 draws, each also with every r_i set to its o_i.
        admitted = set(equilibria.ADMITTED_LABELS[topo])
        rng = np.random.default_rng([TOPOLOGIES.index(topo), 27])
        for _ in range(200):
            p = apply_topology(draw_params(rng), topo)
            o = _coeffs(p)[12:15]
            q = p
            for i in range(3):
                if o[i] > 0.0:
                    q = with_param(q, f"r{i + 1}", o[i])
            for params in (p, q):
                for _, _, pair in transcritical_thresholds(topo, params):
                    assert set(pair) <= admitted, pair

    def test_degenerate_denominator_is_skipped(self):
        # At r3 = o3 exactly, det A_C = 0 has no root in r2; r3 itself may
        # still be listed.
        p = apply_topology(draw_params(np.random.default_rng(6), m_lo=0.2), "EX8")
        p = with_param(p, "r3", _coeffs(p)[14])
        assert "r2" not in {tok for tok, _, _ in transcritical_thresholds("EX8", p)}


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
        p = draw_params(np.random.default_rng(9))
        # Rates in [0, 0.1]: 0.05 times a rate in [0, 2] is exact.
        p = with_param(ModelParams(p.r, p.k, 0.05 * p.m), "r3", 4.9)
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

    def test_zeroed_rate(self):
        # Projecting onto the pattern resets such a rate to 0 at every grid
        # point, so every grid point would be the same set.
        for topo in TOPOLOGIES:
            for i, j in zeroed_rates(topo):
                tok = f"m{i + 1}{j + 1}"
                with pytest.raises(ParameterError, match=f"^{topo} pins {tok} to 0;"):
                    sweep(topo, self.p, tok, 0.1, 2.0, 4)

    @pytest.mark.parametrize("steps", (2.5, "3"))
    def test_steps_must_be_an_integer(self, steps):
        # 2.5 used to raise NumPy's TypeError, "3" a TypeError from <.
        with pytest.raises(ParameterError, match="steps must be an integer"):
            sweep("FULL", self.p, "r1", 0.5, 1.5, steps)

    def test_numpy_integer_steps(self):
        assert len(sweep("FULL", self.p, "r1", 0.5, 1.5, np.int64(3))) == 3

    @pytest.mark.parametrize("lo, hi", [
        (-math.inf, 1.0), (math.inf, 1.0), (math.nan, 1.0),
        (0.4, -math.inf), (0.4, math.inf), (0.4, math.nan),
    ])
    def test_non_finite_bound(self, lo, hi):
        # hi=inf used to build a grid of inf and NaN, with NumPy's
        # RuntimeWarning, before the parameter check rejected it.
        with pytest.raises(ParameterError, match=r"sweep range must be finite"):
            sweep("EX6", self.p, "r2", lo, hi, 5)

    @pytest.mark.parametrize("lo, hi", [
        ("0.5", 1.5), (None, 1.5), (0.5, "1.5"), (0.5, None),
    ])
    def test_non_numeric_bound(self, lo, hi):
        # A str or None bound used to raise TypeError from math.isfinite.
        with pytest.raises(ParameterError, match="two real numbers"):
            sweep("FULL", self.p, "r1", lo, hi, 3)

    def test_integer_and_numpy_bounds(self):
        want = [r.param_value for r in sweep("FULL", self.p, "r1", 1.0, 2.0, 3)]
        for lo, hi in ((1, 2), (np.float64(1.0), np.float64(2.0)),
                       (np.int64(1), 2.0)):
            got = sweep("FULL", self.p, "r1", lo, hi, 3)
            assert [r.param_value for r in got] == want


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

    def test_stalled_continuation_falls_back_to_the_interpolant(self, monkeypatch):
        # Where Newton stalls, the interpolant stands in, with the coordinates
        # that are near zero at both ends pinned at 0.
        frees = []
        monkeypatch.setattr(bifurcation, "_newton_full",
                            lambda *args, free: frees.append(free))
        x = bifurcation._continue_point(_coeffs(ex1_ring()), (1.0, 1e-12, 2.0),
                                        (3.0, -1e-12, 4.0), 0.25, 1.0)
        assert x == (1.5, 0.0, 2.5) and frees == [(0, 2)]

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


class TestCrossingTerms:
    """Crossings where det J or the Hurwitz product changes sign."""

    @staticmethod
    def crossings(recs, label=None):
        return [(i, c) for i, r in enumerate(recs) for c in r.crossings
                if label in (None, c.label)]

    def test_one_rate_dwarfing_the_others(self):
        # r1 ≈ 1e4 against rates ≈ 1: the crossing eigenvalue stays inside
        # 1e-9·|λ|max over most of the grid, but det J changes sign where
        # det A_C = 0 on X_EX2N's 1–3 block.  A search on the eigenvalue's
        # sign missed it by 403.  With r3 > o3 the block's trace is positive
        # there, so no branch exchanges and transcritical_thresholds lists
        # nothing: the value is solved here.
        p = apply_topology(ModelParams(
            np.array([4.172034689150015, 4.828948085455452, 2.1286569165286138]),
            np.array([4.2779510689306015, 2.656552418585041, 2.4988733861920096]),
            np.array([[0.0, 0.0, 1.8612557460273338],
                      [0.0, 0.0, 0.26717878041521637],
                      [1.302408824705061, 0.0, 0.0]])), "EX2N")
        r3, m13, m23, m31 = p.r[2], p.m[0, 2], p.m[1, 2], p.m[2, 0]
        thr = float(m31 - m13 * m31 / (m13 + m23 - r3))
        assert thr == pytest.approx(10901.59, abs=0.01)
        assert r3 > m13 + m23 and transcritical_thresholds("EX2N", p) == []
        recs = sweep("EX2N", p, "r1", 0.52 * thr, 1.48 * thr, 14)
        cross = self.crossings(recs, "X_EX2N")
        assert len(cross) == 1
        assert cross[0][1].kind == "REAL_ZERO"
        assert abs(cross[0][1].param_value - thr) <= 1e-6

    @pytest.mark.parametrize("lo, hi, steps, cell", [
        (0.5, 1.0, 6, 1),    # threshold on lo
        (0.25, 0.5, 6, 5),   # threshold on hi
        (0.3, 0.7, 5, 2),    # threshold on an interior grid value
    ])
    def test_threshold_on_a_grid_value_is_reported_once(self, lo, hi, steps, cell):
        # CHAIN's ORIGIN, W2 and W3 each have the eigenvalue r1 - m21.
        p = with_param(apply_topology(
            draw_params(np.random.default_rng(14), m_lo=0.2), "CHAIN"), "m21", 0.5)
        recs = sweep("CHAIN", p, "r1", lo, hi, steps)
        assert 0.5 in [r.param_value for r in recs]
        got = [(i, c.label, c.kind, c.param_value) for i, c in self.crossings(recs)]
        assert got == [(cell, label, "REAL_ZERO", 0.5)
                       for label in ("ORIGIN", "W2", "W3")]

    def test_pair_index_is_its_positive_imaginary_member(self):
        [(_, c)] = self.crossings(sweep("EX1", ex1_ring(), "m21", 1.5, 2.5, 11))
        assert c.kind == "COMPLEX_PAIR" and c.eig_im > 0.0
        q = apply_topology(with_param(ex1_ring(), "m21", c.param_value), "EX1")
        eig = bifurcation.eigenvalues_3x3(
            np.array(_jac(_coeffs(q), *c.point)).reshape(3, 3))
        assert eig[c.eig_index] == complex(c.eig_re, c.eig_im)

    def test_real_zero_and_pair_in_one_cell(self):
        # On EX3's origin a pair enters the right half-plane at r1 ≈ 0.8955
        # and splits into two reals; one of them passes 0 at r1 ≈ 0.9094.
        # Both lie in the grid cell [0.873, 0.996] of this sweep.
        p = apply_topology(ModelParams(
            np.array([0.5990037734751898, 2.027247301851164, 4.314339852092491]),
            np.array([2.736372600256741, 4.295095449028681, 4.259057003626681]),
            np.array([[0.0, 0.0, 0.23195592501107276],
                      [0.625027258641607, 0.0, 0.918552029564152],
                      [0.0, 1.7952677678264226, 0.0]])), "EX3")
        recs = sweep("EX3", p, "r1", 0.13640090482291822, 1.119038991081068, 9)
        got = self.crossings(recs, "ORIGIN")
        assert [(i, c.kind) for i, c in got] == [(7, "REAL_ZERO"), (7, "COMPLEX_PAIR")]
        real, pair = (c for _, c in got)
        assert real.param_value == pytest.approx(0.90945, abs=1e-5)
        assert pair.param_value == pytest.approx(0.89553, abs=1e-5)
        assert abs(pair.eig_re) <= 1e-7 and pair.eig_im > 0.05

    def test_hurwitz_zero_off_the_axis_is_no_crossing(self):
        # DIVERGE's interior COEX (infeasible here) has a3 < 0 and a1 > 0,
        # so where a1·a2 - a3 changes sign a2 = a3/a1 < 0: the cubic is
        # (λ + a1)(λ² + a2) with real roots, and nothing meets the axis.
        p = apply_topology(ModelParams(
            np.array([0.8281096146905722, 2.2144610728312215, 3.0371952717402775]),
            np.array([2.3314944593587392, 0.8111111752622469, 3.7743838810933297]),
            np.array([[0.0, 0.9303197548546478, 0.0],
                      [0.0, 0.0, 0.0],
                      [0.0, 1.9193875988251503, 0.0]])), "DIVERGE")
        recs = sweep("DIVERGE", p, "r1", 0.31716911968489925, 1.9206848582720506, 9)
        coex = [_axis_terms(rep.coefficients)[1] for r in recs
                for e, rep in zip(r.equilibria, r.reports) if e.label == "COEX"]
        assert min(coex) < 0.0 < max(coex)
        assert self.crossings(recs, "COEX") == []


def record_bits(rec: SweepRecord):
    """A sweep record as a comparable tuple, equilibria by their exact bits."""
    return (rec.param_name, rec.param_value.hex(),
            bits(rec.equilibria), rec.reports, rec.crossings)


class TestBatchedGrid:
    """sweep's one-batch grid solve against one find_all per grid point."""

    @staticmethod
    def assert_matches_per_point(monkeypatch, topo, p, tok, lo, hi, steps):
        got = sweep(topo, p, tok, lo, hi, steps)
        grid = np.linspace(lo, hi, steps).tolist()

        def per_point(topo, cs, seed):
            # One validated parameter set per grid value, as sweep built
            # them before it set grid values in its coefficient tuple.
            assert len(cs) == len(grid)
            return [find_all_equilibria(
                        topo, apply_topology(with_param(p, tok, theta), topo), seed=seed)
                    for theta in grid]

        with monkeypatch.context() as m:
            m.setattr(bifurcation, "_find_all_many", per_point)
            ref = sweep(topo, p, tok, lo, hi, steps)
        assert [record_bits(r) for r in got] == [record_bits(r) for r in ref]
        return [c for r in got for c in r.crossings]

    def test_r_sweep_through_an_exchange(self, monkeypatch):
        p = apply_topology(draw_params(np.random.default_rng(13), m_lo=0.2),
                           "EX6")
        thr = float(p.m[0, 1] + p.m[2, 1])
        cross = self.assert_matches_per_point(monkeypatch, "EX6", p, "r2",
                                              0.52 * thr, 1.48 * thr, 14)
        assert cross, "the sweep should cross the threshold"

    def test_m_sweep_through_an_exchange(self, monkeypatch):
        # CHAIN's W3/COEX exchange sits at r1 = m21.
        p = apply_topology(draw_params(np.random.default_rng(14), m_lo=0.2),
                           "CHAIN")
        r1 = float(p.r[0])
        cross = self.assert_matches_per_point(monkeypatch, "CHAIN", p, "m21",
                                              0.52 * r1, 1.48 * r1, 14)
        assert cross, "the sweep should cross the threshold"

    def test_k_sweep_moves_the_start_box(self, monkeypatch):
        # Sweeping the largest capacity upward rescales the oracle's
        # start box [0, 2·max k]³ at every grid point.
        p = apply_topology(draw_params(np.random.default_rng(15), m_lo=0.1),
                           "CONVERGE")
        i = int(np.argmax(p.k))
        k = float(p.k[i])
        self.assert_matches_per_point(monkeypatch, "CONVERGE", p, f"k{i + 1}",
                                      k, 3.0 * k, 14)

    def test_a_projected_sweep_builds_no_parameter_set(self, monkeypatch):
        p = apply_topology(draw_params(np.random.default_rng(13), m_lo=0.2),
                           "EX6")
        thr = float(p.m[0, 1] + p.m[2, 1])
        built = []
        post_init = ModelParams.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(ModelParams, "__post_init__", counting)
        recs = sweep("EX6", p, "r2", 0.52 * thr, 1.48 * thr, 14)
        assert any(r.crossings for r in recs), "the sweep should refine a crossing"
        assert built == []
        with_param(p, "r2", thr)
        assert len(built) == 1  # the counter sees a parameter set built

    def test_seed_reaches_every_grid_point(self, monkeypatch):
        # FULL's records are the catalog's, whatever the seed, so the seed
        # is watched where the oracle receives it.
        p = draw_params(np.random.default_rng(11), m_lo=0.2)
        seen, oracle = [], equilibria._oracle_many

        def recording_oracle(params_list, seed=0):
            seen.append((len(params_list), seed))
            return oracle(params_list, seed)

        monkeypatch.setattr(equilibria, "_oracle_many", recording_oracle)
        grid = [bits(r.equilibria)
                for r in sweep("FULL", p, "k1", 0.5, 1.5, 6, seed=3)]
        assert seen == [(6, 3)]
        want = [bits(find_all_equilibria(
                    "FULL", with_param(p, "k1", theta), seed=3))
                for theta in np.linspace(0.5, 1.5, 6).tolist()]
        assert grid == want


def reference_detect_crossings(topo, params, param, a_val, b_val, eqs_a, eqs_b,
                               reps_a, reps_b):
    """_detect_crossings with a validated parameter set per bisection
    evaluation and NumPy max-norms."""
    scale = max(1.0, float(np.max(params.k)))
    pts = [e.point for e in eqs_a]
    min_sep = math.inf
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            min_sep = min(min_sep, float(np.max(np.abs(pts[i] - pts[j]))))
    cap = 0.5 * min_sep

    by_label: dict[str, list[int]] = {}
    for j, e in enumerate(eqs_b):
        by_label.setdefault(e.label, []).append(j)

    crossings = []
    taken: set[int] = set()
    for i, ea in enumerate(eqs_a):
        cands = [j for j in by_label.get(ea.label, ()) if j not in taken]
        if not cands:
            continue
        j = min(cands, key=lambda j: float(np.max(np.abs(eqs_b[j].point - ea.point))))
        dist = float(np.max(np.abs(eqs_b[j].point - ea.point)))
        if dist > cap:
            continue
        taken.add(j)
        xa = tuple(float(v) for v in ea.point)
        xb = tuple(float(v) for v in eqs_b[j].point)

        def jac_at(theta: float):
            p = apply_topology(with_param(params, param, theta), topo)
            c = _coeffs(p)
            t = (theta - a_val) / (b_val - a_val)
            x = bifurcation._continue_point(c, xa, xb, t, scale)
            return np.array(_jac(c, *x)).reshape(3, 3), x

        for k, kind in enumerate(("REAL_ZERO", "COMPLEX_PAIR")):
            fa = _axis_terms(reps_a[i].coefficients)[k]
            fb = _axis_terms(reps_b[j].coefficients)[k]
            if np.sign(fa) == np.sign(fb):
                continue
            if fa == 0.0:
                lo = hi = a_val
            elif fb == 0.0:
                lo = hi = b_val
            else:
                lo, hi, flo = a_val, b_val, fa
                while hi - lo > bifurcation.CROSSING_REFINE:
                    mid = 0.5 * (lo + hi)
                    fm = _axis_terms(characteristic(jac_at(mid)[0]))[k]
                    if fm == 0.0:
                        lo = hi = mid
                        break
                    if (fm > 0.0) == (flo > 0.0):
                        lo, flo = mid, fm
                    else:
                        hi = mid
            theta_star = 0.5 * (lo + hi)
            jac, x_star = jac_at(theta_star)
            if kind == "COMPLEX_PAIR" and characteristic(jac).m_j <= 0.0:
                continue
            eig = bifurcation.eigenvalues_3x3(jac)
            idx = int(np.argmin([abs(z.real) for z in eig]))
            crossings.append(Crossing(
                label=ea.label, eig_index=idx, kind=kind,
                param_value=float(theta_star),
                point=tuple(float(v) for v in x_star),
                eig_re=float(eig[idx].real), eig_im=float(eig[idx].imag),
            ))
    return crossings


class TestBisectionOnTuples:
    """Crossings refined on coefficient tuples equal the parameter-set path."""

    @staticmethod
    def sweep_both(monkeypatch, topo, p, tok, lo, hi, steps=14):
        evals = []
        continue_point = bifurcation._continue_point

        def counted(*args):
            evals[-1] += 1
            return continue_point(*args)

        def reference(base, *args):
            return reference_detect_crossings(topo, p, *args)

        runs = []
        for detect in (bifurcation._detect_crossings, reference):
            evals.append(0)
            with monkeypatch.context() as m:
                m.setattr(bifurcation, "_detect_crossings", detect)
                m.setattr(bifurcation, "_continue_point", counted)
                runs.append([record_bits(r) + (repr(r.crossings),)
                             for r in sweep(topo, p, tok, lo, hi, steps)])
        assert runs[0] == runs[1]
        assert evals[0] == evals[1]
        return evals[0]

    @pytest.mark.parametrize("topo", ("EX6", "EX7", "EX7N", "EX8", "EX2N",
                                      "CHAIN", "CONVERGE", "DIVERGE"))
    def test_every_analytic_threshold(self, monkeypatch, topo):
        rng = np.random.default_rng(["EX6", "EX7", "EX7N", "EX8", "EX2N", "CHAIN",
                                     "CONVERGE", "DIVERGE"].index(topo) + 70)
        evals = 0
        # EX2N lists its block's values only where they exchange: none in
        # its first ten draws.
        for _ in range(12 if topo == "EX2N" else 3):
            p = apply_topology(draw_params(rng, m_lo=0.1), topo)
            for tok, thr, _ in transcritical_thresholds(topo, p):
                evals += self.sweep_both(monkeypatch, topo, p, tok,
                                         0.52 * thr, 1.48 * thr)
        assert evals > 0, "no sweep refined a crossing"

    def test_rate_and_capacity_sweeps(self, monkeypatch):
        p = apply_topology(draw_params(np.random.default_rng(14), m_lo=0.2),
                           "CHAIN")
        r1 = float(p.r[0])
        assert self.sweep_both(monkeypatch, "CHAIN", p, "m21", 0.52 * r1,
                               1.48 * r1) > 0
        self.sweep_both(monkeypatch, "CONVERGE", p, "k2", 0.5, 4.0, 6)
        assert self.sweep_both(monkeypatch, "EX1", ex1_ring(), "m21", 1.5,
                               2.5, 11) > 0

    def test_sign_test_on_floats_equals_np_sign(self):
        values = (math.nan, -math.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 2.0,
                  math.inf)
        for x in values:
            for y in values:
                assert bifurcation._same_sign(x, y) == bool(np.sign(x) == np.sign(y))
