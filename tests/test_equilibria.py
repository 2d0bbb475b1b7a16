"""Closed-form equilibrium catalog, Newton solvers, and the merged set."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_newton
from helpers import STRONG, bits, build, hexes, symmetric_full
from tripatch import equilibria as eq
from tripatch import newton
from tripatch.equilibria import (
    _BATCH_SETS,
    ADMITTED_LABELS,
    DEDUP_TOL,
    ConsistencyError,
    ConvergenceError,
    EQUILIBRIUM_LABELS,
    _find_all_many,
    _oracle_many,
    brute_force_equilibria,
    closed_form_equilibria,
    coexistence_by_construction,
    find_all_equilibria,
    newton_coexistence,
)
from tripatch.bifurcation import transcritical_thresholds
from tripatch.model import (ModelParams, ParameterError, _coeffs, _gap, _jac, _rhs,
                            rhs, with_param)
from tripatch.stability import classify
from tripatch.topology import (
    TOPOLOGIES,
    apply_topology,
    arcs_of_topology,
    is_admissible,
    is_strongly_connected,
    iter_arc_sets,
)
from tripatch.verification import draw_params

rates = st.floats(0.1, 5.0)
# The construction oracle divides by m12, m21, m13, m23; keep them off
# the boundary where it is documented not to apply.
positive_migrations = st.floats(0.001, 2.0)


coupled_params_st = st.builds(
    build,
    st.tuples(rates, rates, rates),
    st.tuples(rates, rates, rates),
    st.tuples(*(positive_migrations,) * 6),
)


def residual_of(p, point) -> float:
    return float(np.max(np.abs(rhs(p, np.maximum(point, 0.0)))))


STRONG_ARC_SETS = [arcs for arcs in iter_arc_sets()
                   if is_admissible(arcs) and is_strongly_connected(arcs)]


def on_arcs(p, arcs):
    """``p`` with the rate of every arc outside ``arcs`` set to zero."""
    m = np.array([[p.m[i, j] if (j, i) in arcs else 0.0 for j in range(3)]
                  for i in range(3)])
    return ModelParams(p.r, p.k, m)


# Every strongly connected arc set: each relabeling of FULL, EX2, HUB0, EX3
# and EX1.  The positive rates stay at 0.001 or more: at m31 = 5e-324 the
# positive state's p3 ≈ 2.5e-324 lies below the float range.
strong_params_st = st.builds(on_arcs, coupled_params_st,
                             st.sampled_from(STRONG_ARC_SETS))


class TestCoexistenceSolvers:
    # A positive equilibrium exists where the pattern is strongly connected;
    # elsewhere it need not (see below).
    @given(strong_params_st)
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

    def test_no_positive_equilibrium_gives_a_zero_component(self):
        # Patch 2 has no inflow and loses as fast as it grows (r2 = m32 = 1):
        # f2 = -p2², so (1, 0, 1) is the only equilibrium besides the origin.
        # The positivity-halving Newton used to stop at p2 ≈ 1e-5 instead.
        m = np.zeros((3, 3))
        m[2, 1] = 1.0
        rec = newton_coexistence(ModelParams(np.ones(3), np.ones(3), m))
        assert rec.point.tolist() == [1.0, 0.0, 1.0]
        assert not rec.feasible and rec.residual == 0.0

    def test_symmetric_coexistence_is_capacity(self):
        m = np.full((3, 3), 1.0) * (1 - np.eye(3))
        p = ModelParams(np.ones(3), np.ones(3), m)
        rec = newton_coexistence(p)
        assert np.allclose(rec.point, [1.0, 1.0, 1.0], atol=1e-12)

    def test_a_failed_newton_finish_raises(self, monkeypatch):
        monkeypatch.setattr(eq, "_newton_full", lambda *args, **kw: None)
        with pytest.raises(ConvergenceError, match="did not reach residual 1e-10"):
            newton_coexistence(symmetric_full())

    @pytest.mark.parametrize("name", ["m12", "m21", "m13", "m23"])
    def test_construction_needs_its_four_rates(self, name):
        with pytest.raises(ParameterError, match=f"requires {name} > 0, got 0.0"):
            coexistence_by_construction(with_param(symmetric_full(), name, 0.0))


#: A FULL draw's r, k and m, its r1 raised to 1e10.
R1_DRAW = ([1e10, 0.8, 2.0], [1.0, 2.0, 3.0],
           [[0.0, 0.3, 0.4], [0.5, 0.0, 0.2], [0.6, 0.35, 0.0]])

#: FULL configs that raise a named error instead of giving a wrong table.
#: Fields: id, r, k, m, error, a fragment of its message.
NAMED_ERRORS = [
    # COEX is [1, 1, 1], residual exactly 0; the oracle found the origin alone.
    ("huge-r1", [1e16, 1.0, 1.0], [1.0, 1.0, 1.0],
     [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
     ConsistencyError, "COEX at [1.0, 1.0, 1.0] not found"),
    # Every residual is below the oracle's absolute limit: it gave 78 records.
    ("tiny-rates", [1e-110, 2e-110, 3e-110], [1.0, 1.0, 1.0],
     [[0.0, 1e-111, 1e-111], [1e-111, 0.0, 1e-111], [1e-111, 1e-111, 0.0]],
     ConsistencyError, "not found by the brute-force oracle"),
    # Row 1's round-off alone exceeds RESIDUAL_LIMIT near COEX; the oracle
    # gave the origin and a NUMERICAL point at p1 = -1.3e-10.
    ("r1-1e10", *R1_DRAW, ConsistencyError, "COEX at [1.0000000000554523, "),
    # The descent's start U = k1·(1 + (in1 − o1)/r1) overflows, a known
    # limit of a constant super-solution; COEX is [1000, 1, 1], which the
    # oracle gave labeled NUMERICAL.
    ("start-overflow", [1e-300, 1.0, 1.0], [1e10, 1.0, 1.0],
     [[0.0, 1.0, 1.0], [1e-3, 0.0, 1.0], [1e-3, 1.0, 0.0]],
     ConvergenceError, "leave the float range"),
]


@functools.lru_cache(maxsize=1)
def acceptance_05_draws():
    """The 1000 draws of acceptance 05: 200 of each strongly connected pattern."""
    rng = np.random.default_rng(5005)
    return [apply_topology(draw_params(rng), topo)
            for topo in STRONG for _ in range(200)]


def balance_map(c, x):
    """``G``: each patch's level at balance with the inflow from ``x``."""
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    return (eq._sqrt_branch(r1, k1, o1, m12 * x[1] + m13 * x[2]),
            eq._sqrt_branch(r2, k2, o2, m21 * x[0] + m23 * x[2]),
            eq._sqrt_branch(r3, k3, o3, m31 * x[0] + m32 * x[1]))


def term_sizes(c, x):
    """The size of the terms of each ``f_i`` at ``x``, which bounds its round-off."""
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    p1, p2, p3 = x
    return (r1 * p1 * (1.0 + p1 / k1) + m12 * p2 + m13 * p3 + o1 * p1,
            r2 * p2 * (1.0 + p2 / k2) + m21 * p1 + m23 * p3 + o2 * p2,
            r3 * p3 * (1.0 + p3 / k3) + m31 * p1 + m32 * p2 + o3 * p3)


EPS = 2.0 ** -52


class TestCoexistenceRoute:
    """The monotone descent from a super-solution and its Newton finish."""

    @pytest.mark.parametrize("r, k, m, error, message",
                             [case[1:] for case in NAMED_ERRORS],
                             ids=[case[0] for case in NAMED_ERRORS])
    def test_named_error_instead_of_a_wrong_table(self, r, k, m, error, message):
        with pytest.raises(error, match=re.escape(message)):
            find_all_equilibria("FULL", ModelParams(r, k, m))

    @pytest.mark.parametrize("r1", [1e6, 1e7, 1e8])
    def test_large_r1_gives_origin_and_coex(self, r1):
        # Round-off keeps the route's point above POLISH_TOL from r1 ≈ 1e7
        # (COEX's residual is 1.7e-9 at 1e7); _polish keeps its best point,
        # and the oracle still finds COEX below RESIDUAL_LIMIT.
        r, k, m = R1_DRAW
        recs = find_all_equilibria("FULL", ModelParams([r1, *r[1:]], k, m))
        assert [rec.label for rec in recs] == ["ORIGIN", "COEX"]
        assert min(recs[1].point) > 0.0 and recs[1].residual <= eq.RESIDUAL_LIMIT

    def test_a_non_finite_iterate_ends_the_descent(self):
        # Patch 2's inflow 1e12·1e300 overflows, so _sqrt_branch gives it NaN:
        # the second iterate is (1e300, nan, 0), and the route raises without
        # running its cap on NaN.
        p = apply_topology(ModelParams(
            [1e300, 1e-6, 1e-12], [1e300, 1.0, 1e-300],
            [[0.0, 1e-300, 1e-300], [0.0, 0.0, 1e12], [0.0, 0.5, 0.0]]), "EX3")
        assert len(list(eq._descent(_coeffs(p)))) == 2
        with pytest.raises(ConvergenceError, match="leave the float range"):
            closed_form_equilibria("EX3", p)

    def test_iterates_fall_and_stay_super_solutions(self):
        # Exact in real arithmetic; G's own round-off is a few ulps.
        for n, p in enumerate(acceptance_05_draws()):
            c = _coeffs(p)
            iterates = list(eq._descent(c))
            assert len(iterates) <= eq._DESCENT_CAP + 1
            for x, y in zip(iterates, iterates[1:]):
                assert all(b <= a * (1.0 + 4 * EPS) for a, b in zip(x, y)), n
            for x in iterates:
                f, t = _rhs(c, *x), term_sizes(c, x)
                assert all(fi <= 4 * EPS * ti for fi, ti in zip(f, t)), n

    def test_a_lower_sequence_meets_the_upper_limit(self):
        # From ε times the Perron vector v of J(0), f(εv) >= 0 holds where
        # ε·v_i <= s·k_i/r_i, s the spectral abscissa; G then rises to the
        # least positive equilibrium, which on these patterns is the only one.
        for n, p in enumerate(acceptance_05_draws()):
            c = _coeffs(p)
            upper = newton_coexistence(p).point
            u = next(eq._descent(c))[0]
            w, vecs = np.linalg.eig(np.array(_jac(c, 0.0, 0.0, 0.0)).reshape(3, 3))
            lead = int(np.argmax(w.real))
            v = np.abs(vecs[:, lead].real)
            size = 0.5 * float(np.min(w[lead].real * p.k / (p.r * v)))
            x = tuple((size * v).tolist())
            assert min(_rhs(c, *x)) >= 0.0, n
            for _ in range(10_000):  # until it stops rising beyond round-off
                y = balance_map(c, x)
                if all(b <= a * (1.0 + 4 * EPS) for a, b in zip(x, y)):
                    break
                x = y
            # Newton stops at a residual of POLISH_TOL, not at the exact state.
            assert _gap(x, upper) <= 1e-9 * u, n

    @pytest.mark.parametrize("factor", [1e-100, 1e8])
    def test_rate_scale_leaves_the_limit_unchanged(self, factor):
        # G_i is homogeneous of degree 0 in patch i's rates; scaling them
        # by a factor that is not a power of two adds only round-off.
        for n, p in enumerate(acceptance_05_draws()):
            got = list(eq._descent(_coeffs(ModelParams(p.r * factor, p.k,
                                                       p.m * factor))))
            want = list(eq._descent(_coeffs(p)))
            assert len(got) == len(want), n
            assert _gap(got[-1], want[-1]) <= 64 * EPS * want[0][0], n


class TestClosedForms:
    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_feasible_records_are_equilibria(self, topo):
        rng = np.random.default_rng(TOPOLOGIES.index(topo))
        for i in range(40):
            p = apply_topology(draw_params(rng), topo)
            for rec in closed_form_equilibria(topo, p):
                if rec.feasible:
                    res = residual_of(p, rec.point)
                    assert res <= 1e-8, (
                        f"{topo}/{rec.label} draw {i}: residual {res:.2e}"
                    )

    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_unprojected_params_give_the_projected_records(self, topo):
        # Unprojected, CHAIN on draw_params(default_rng(1)) used to mark
        # W2 and W3 feasible with residuals 1.8 and 6.55.
        rng = np.random.default_rng([1, TOPOLOGIES.index(topo)])
        for i in range(10):
            p = draw_params(rng)
            want = closed_form_equilibria(topo, apply_topology(p, topo))
            assert bits(closed_form_equilibria(topo, p)) == bits(want), \
                f"{topo} draw {i}"

    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_labels_stay_in_topology_vocabulary(self, topo):
        rng = np.random.default_rng([TOPOLOGIES.index(topo), 1])
        admitted = set(ADMITTED_LABELS[topo])
        for i in range(20):
            p = apply_topology(draw_params(rng), topo)
            labels = {rec.label for rec in closed_form_equilibria(topo, p)}
            assert labels <= admitted, f"{topo}: unexpected labels {labels - admitted}"
            assert "ORIGIN" in labels

    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_support_table_matches_the_arcs(self, topo):
        # The closed supports whose strongly connected components are single
        # patches, read off the arcs, are exactly the table's; each row lists
        # a patch after every patch that feeds it, in ADMITTED_LABELS order.
        arcs = arcs_of_topology(topo)
        want = set()
        for size in (1, 2, 3):
            for S in itertools.combinations(range(3), size):
                if any(s in S and d not in S for s, d in arcs):
                    continue  # an arc leaves S
                reach = {(s, d) for s, d in arcs if s in S and d in S}
                for _ in S:
                    reach |= {(i, j) for i, a in reach for b, j in reach if a == b}
                if not any((j, i) in reach for i, j in reach):
                    want.add(frozenset(S))
        rows = eq._SUPPORTS.get(topo, ())
        assert {frozenset(patches) for _, patches in rows} == want
        for label, patches in rows:
            for n, i in enumerate(patches):
                feeders = {s for s, d in arcs if d == i and s in patches}
                assert feeders <= set(patches[:n]), (label, patches)
        labels = [label for label, _ in rows]
        assert labels == sorted(labels, key=ADMITTED_LABELS[topo].index)

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

    @pytest.mark.parametrize("topo, r, k, m", [
        # k1·m13 underflows to 0.
        ("EX7", [1e6, 0.1, 1.0], [1e-300, 1.0, 1e-300],
         [[0.0, 0.5, 1e-300], [1e-12, 0.0, 0.5], [1e12, 1e6, 0.0]]),
        # k1·m13 overflows, so r1/(k1·m13) is 0.
        ("EX7N", [1e6, 1e300, 3.0], [1e300, 1e-6, 1e12],
         [[0.0, 1e300, 1e300], [1e-6, 0.0, 2.0], [1e-300, 2.0, 0.0]]),
    ])
    def test_ex7_parabolae_outside_the_float_range_are_skipped(self, topo, r, k, m):
        # Q1 and COEX need finite, positive leading coefficients; without
        # them the catalog leaves those points to the oracle.
        p = apply_topology(ModelParams(r, k, m), topo)
        assert [rec.label for rec in closed_form_equilibria(topo, p)] == ["ORIGIN"]
        recs = find_all_equilibria(topo, p)
        assert [rec.label for rec in recs] == ["ORIGIN"]
        assert recs[0].residual == 0.0


def reference_make_record(c, point, label, conditions_ok=True):
    """_make_record as it was, on a NumPy array; a warning is returned."""
    p = np.asarray(point, dtype=float)
    signs_ok = bool(np.min(p) >= -eq.FEASIBLE_TOL)
    scale = 1e-8 * (1.0 + float(np.max(np.abs(p))))
    warned = bool(conditions_ok and np.min(p) < -scale)
    with np.errstate(all="ignore"):
        res = newton._residual(c, p[0], p[1], p[2])
    return (hexes(p), label, signs_ok and conditions_ok, float.hex(float(res)),
            warned)


class TestMakeRecord:
    """_make_record on floats equals its NumPy form, NaN rule included."""

    def test_points_with_nan_and_infinite_components(self):
        c = _coeffs(apply_topology(draw_params(np.random.default_rng(3)), "FULL"))
        values = (math.nan, -math.inf, -1.0, -1e-9, -1e-11, -0.0, 0.0, 2.0,
                  math.inf)
        for point in itertools.product(values, repeat=3):
            for conditions_ok in (True, False):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    rec = eq._make_record(c, point, "COEX", conditions_ok)
                got = (hexes(rec.point), rec.label, rec.feasible,
                       float.hex(rec.residual), bool(caught))
                assert got == reference_make_record(c, point, "COEX",
                                                    conditions_ok), point

    def test_nan_after_the_first_component_fails_the_sign_test(self):
        # Python's min would skip the NaN and call (-1, nan, 0) negative.
        c = _coeffs(apply_topology(draw_params(np.random.default_rng(3)), "FULL"))
        for point in ((-1.0, math.nan, 0.0), (-1.0, 0.0, math.nan),
                      (1.0, math.nan, 1.0), (1.0, 1.0, math.nan)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert not eq._make_record(c, point, "COEX").feasible


class TestSqrtBranch:
    """Where r - loss squares past the float range, the root stays finite."""

    # 2**665 ≈ 1.3e200: scaling r, loss and inflow by a power of two scales
    # every term of the quadratic alike and leaves its root where it was.
    BIG = 2.0 ** 665

    @pytest.mark.parametrize("r, loss, inflow, root", [
        (2.0, 1.0, 3.0, 1.5),  # s = r - loss > 0
        (1.0, 2.0, 2.0, 1.0),  # s < 0, the conjugate form
    ])
    def test_huge_rates_give_the_unscaled_root(self, r, loss, inflow, root):
        assert eq._sqrt_branch(r, 1.0, loss, inflow) == root
        big = self.BIG
        assert abs(r * big - loss * big) > 1e200
        assert eq._sqrt_branch(r * big, 1.0, loss * big, inflow * big) == root

    def test_finite_discriminants_are_unchanged(self):
        # Only a non-finite discriminant takes the scaled form.
        rng = np.random.default_rng(7)
        for r, k, loss, inflow in rng.uniform(0.0, 5.0, (200, 4)).tolist():
            s = r - loss
            disc = s * s + 4.0 * r * inflow / k
            want = (-2.0 * inflow / (s - math.sqrt(disc)) if s < 0.0 else
                    (k / (2.0 * r)) * (s + math.sqrt(disc)))
            assert eq._sqrt_branch(r, k, loss, inflow) == want


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

    def test_dedup_keeps_the_lowest_residual_of_each_cluster(self):
        # Each point joins the first earlier representative within
        # DEDUP_TOL and replaces it only with a smaller residual; a NaN
        # difference never joins.
        points = [(0.0, 0.0, 0.0), (0.0, 0.0, 5e-7), (1.0, 1.0, 1.0),
                  (1.0, 1.0, 1.0 + 5e-7), (math.nan, 1.0, 1.0), (2.0, 2.0, 2.0)]
        residuals = [2e-9, 1e-9, 1e-9, 1e-9, 0.0, 1e-9]
        assert eq._dedup(points, residuals) == [1, 2, 4, 5]
        assert eq._dedup([], []) == []

    def test_dedup_hand_cases(self):
        nan, inf, tol = math.nan, math.inf, DEDUP_TOL
        cases = [
            # A tie keeps the first; an exact duplicate never replaces.
            ([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0 + 1e-7), (1.0, 1.0, 1.0)],
             [1e-9, 1e-9, 1e-9], [0]),
            ([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0)], [2e-9, 1e-9], [1]),
            # DEDUP_TOL apart is apart, in each coordinate.
            ([(0.0, 0.0, 0.0), (tol, 0.0, 0.0), (tol, tol, 0.0), (tol, tol, tol)],
             [0.0] * 4, [0, 1, 2, 3]),
            # A replacement moves its representative: the third point is
            # within DEDUP_TOL of the second but not of the first.
            ([(0.0, 0.0, 0.0), (5e-7, 0.0, 0.0), (1.2e-6, 0.0, 0.0)],
             [2e-9, 1e-9, 3e-9], [1]),
            # Within DEDUP_TOL of two representatives: the first wins.
            ([(0.0, 0.0, 0.0), (5e-7, 1.5e-6, 0.0), (6e-7, 7e-7, 0.0)],
             [1e-9, 1e-9, 0.0], [2, 1]),
            # Far apart, then close again behind a moved representative.
            ([(0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (3.0, 0.0, 0.0), (3.0, 1.0, 0.0),
              (3.0 + 5e-7, 1.0, 0.0)], [1e-9] * 5, [0, 1, 2, 3]),
            # NaN and infinite coordinates, and a NaN residual.
            ([(0.0, nan, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 1.0, inf),
              (1.0, 1.0, inf), (nan, 0.0, 0.0), (inf, 0.0, 0.0), (inf, 0.0, 0.0)],
             [0.0, nan, 1e-9, 0.0, 0.0, 0.0, 0.0, 0.0], [0, 1, 3, 4, 5, 6, 7]),
        ]
        for points, residuals, want in cases:
            assert eq._dedup(points, residuals) == want, points

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
        rng = np.random.default_rng([TOPOLOGIES.index(topo), 2])
        for i in range(15):
            p = apply_topology(draw_params(rng), topo)
            recs = find_all_equilibria(topo, p, seed=i)
            for rec in recs:
                assert rec.label in EQUILIBRIUM_LABELS
                assert rec.residual <= 1e-8

    def test_strongly_connected_set_is_origin_and_coex(self):
        rng = np.random.default_rng(21)
        for topo in STRONG:
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

    @pytest.mark.parametrize("feasible", [True, False])
    def test_catalog_point_the_oracle_misses(self, monkeypatch, feasible):
        # CHAIN's Jacobian is lower triangular, so at p1 = 0.25 (r1 = k1 = 1,
        # outflow 0.5) it is singular and polishing keeps the point as it
        # is; f1 = 0.0625 there, so no oracle start can land on it.
        m = np.zeros((3, 3))
        m[1, 0] = m[2, 1] = 0.5
        p = ModelParams(np.ones(3), np.ones(3), m)
        catalog = eq._CLOSED_FORMS["CHAIN"]
        monkeypatch.setitem(eq._CLOSED_FORMS, "CHAIN", lambda c: catalog(c) + [
            (np.array([0.25, 1.0, 1.0]), "BOGUS", feasible)])
        if feasible:
            with pytest.raises(ConsistencyError,
                               match="equilibrium BOGUS at .* not found"):
                find_all_equilibria("CHAIN", p)
        else:
            recs = find_all_equilibria("CHAIN", p)
            bogus = [r for r in recs if r.label == "BOGUS"]
            assert len(bogus) == 1 and not bogus[0].feasible
            assert bogus[0].residual == 0.5

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


    @pytest.mark.parametrize("seed, match", [
        (-1, "seed must be >= 0"),
        (1.0, "seed must be an integer"),
    ], ids=["negative", "float"])
    def test_rejects_a_seed_that_is_not_a_whole_number(self, seed, match):
        # seed=-1 used to raise NumPy's error, which did not name the argument.
        p = draw_params(np.random.default_rng(41))
        with pytest.raises(ValueError, match=match):
            find_all_equilibria("FULL", p, seed=seed)

    def test_numpy_integers_count_as_integers(self):
        p = draw_params(np.random.default_rng(41))
        got = find_all_equilibria("FULL", p, seed=np.uint8(3))
        want = find_all_equilibria("FULL", p, seed=3)
        assert [(r.label, r.point.tobytes()) for r in got] == \
            [(r.label, r.point.tobytes()) for r in want]


# ---------------------------------------------------------------------------
# The batched oracle against a one-start-at-a-time scalar reference.
# ---------------------------------------------------------------------------


def closed_faces(params):
    """The free coordinates of each face that no rate into its pinned patch
    opens; all three where a positive rate is at most 0.01."""
    m = params.m
    if any(0.0 < v and v * DEDUP_TOL <= eq.RESIDUAL_LIMIT for v in m.flat):
        return [(0, 1), (0, 2), (1, 2)]
    return [free for free in ((0, 1), (0, 2), (1, 2))
            if not any(m[3 - sum(free), j] > 0.0 for j in free)]


def positive_edges(params):
    """The edges ``(i,)`` whose logistic root, patch i alone, is positive."""
    c = _coeffs(params)
    return [(i,) for i in range(3)
            if eq._logistic_root(c[i], c[3 + i], c[12 + i]) > 0.0]


def reference_roots(params, n_starts=64, seed=0, tol=1e-8, all_faces=False):
    """The oracle's roots before dedup, one scalar Newton solve per start.

    Faces get starts where they are closed (see ``closed_faces``), or every
    face with ``all_faces``.  Roots below -1e-9 are dropped, near-zero
    components snapped to 0, and the rest sorted.
    """
    c = _coeffs(params)
    box = 2.0 * float(np.max(params.k))
    found = [(0.0, 0.0, 0.0)]
    for x0 in test_newton.starts(params, n_starts, seed):
        got = newton._newton_full(c, x0, tol, 60, streak=0)
        if got is not None:
            found.append(got[0])
    for fi, free in enumerate(((0, 1), (0, 2), (1, 2))):
        if not all_faces and free not in closed_faces(params):
            continue
        plane = eq._halton(2, 12, seed * 8 + fi + 1) * box
        starts = [tuple(row) for row in plane]
        starts += [(box, box), (box, 0.25 * box), (0.25 * box, box)]
        for s in starts:
            x0 = [0.0, 0.0, 0.0]
            x0[free[0]], x0[free[1]] = s[0], s[1]
            got = newton._newton_full(c, x0, tol, 60, free=free, streak=0)
            if got is not None:
                found.append(got[0])
    for i in range(3):
        root = eq._logistic_root(c[i], c[3 + i], c[12 + i])
        if root > 0.0:
            x0 = [0.0, 0.0, 0.0]
            x0[i] = root
            got = newton._newton_full(c, x0, tol, 60, free=(i,), streak=0)
            if got is not None:
                found.append(got[0])
    scale = max(1.0, box)
    return sorted(tuple(0.0 if abs(v) <= 1e-12 * scale else v for v in p)
                  for p in found if min(p) >= -1e-9)


def reference_oracle(params, n_starts=64, seed=0, tol=1e-8, all_faces=False):
    """brute_force_equilibria with one scalar Newton solve per start."""
    c = _coeffs(params)
    reps = []
    for p in reference_roots(params, n_starts, seed, tol, all_faces):
        for idx, q in enumerate(reps):
            if max(abs(p[0] - q[0]), abs(p[1] - q[1]),
                   abs(p[2] - q[2])) < DEDUP_TOL:
                if newton._residual(c, *p) < newton._residual(c, *q):
                    reps[idx] = p
                break
        else:
            reps.append(p)
    return [eq.EquilibriumRecord(point=np.array(p), label="NUMERICAL",
                                 feasible=bool(min(p) >= -eq.FEASIBLE_TOL),
                                 residual=newton._residual(c, *p)) for p in reps]


def batched_roots(monkeypatch, params_list, seed=0):
    """_oracle_many's records and, set by set, its sorted roots before dedup."""
    roots = []
    dedup = eq._dedup

    def capturing_dedup(points, residuals):
        roots.append([tuple(p) for p in points])
        return dedup(points, residuals)

    with monkeypatch.context() as m:
        m.setattr(eq, "_dedup", capturing_dedup)
        return _oracle_many([_coeffs(p) for p in params_list], seed=seed), roots


def assert_matches_reference(got, roots, params_list, seed=0):
    """The batch's roots and records (see batched_roots) equal the reference's."""
    assert len(got) == len(roots) == len(params_list)
    for j, p in enumerate(params_list):
        assert [tuple(v.hex() for v in x) for x in roots[j]] == \
            [tuple(v.hex() for v in x) for x in reference_roots(p, seed=seed)], \
            f"set {j}"
        assert bits(got[j]) == bits(reference_oracle(p, seed=seed)), f"set {j}"


def reference_find_all(monkeypatch, topo, params, seed=0, all_faces=False):
    """find_all_equilibria with the scalar reference as its oracle."""
    with monkeypatch.context() as m:
        m.setattr(eq, "brute_force_equilibria",
                  functools.partial(reference_oracle, all_faces=all_faces))
        return find_all_equilibria(topo, params, seed=seed)


def hexed(x):
    """A stability report as nested tuples, every float by its exact bits."""
    if dataclasses.is_dataclass(x):
        return tuple(hexed(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return hexed(x.tolist())
    if isinstance(x, (list, tuple)):
        return tuple(hexed(v) for v in x)
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    return float(x).hex() if isinstance(x, float) else x


def ulps(x: float, y: float) -> int:
    """The number of float steps between ``x`` and ``y``."""
    def key(v):
        i = int(np.float64(v).view(np.int64))
        return i if i >= 0 else -(i & (2**63 - 1))
    return abs(key(x) - key(y))


def assert_same_roots(got, want, max_ulps=2):
    """Each record of ``got`` is one of ``want``'s, in any order, with
    every coordinate within ``max_ulps``."""
    assert len(got) == len(want)
    left = [w.point.tolist() for w in want]
    for rec in got:
        p = rec.point.tolist()
        near = [q for q in left if _gap(p, q) < DEDUP_TOL]
        assert near, f"root {p} is not in the reference"
        assert max(ulps(a, b) for a, b in zip(p, near[0])) <= max_ulps, (p, near[0])
        left.remove(near[0])


def full_start_branches(monkeypatch, c, x0, tol=1e-8):
    """Branches ``_newton_full(c, x0, tol, 60)`` takes, seen via the solve
    and the trace of its reference copy ``test_newton.reference_newton_free``."""
    seen = set()
    solve3 = test_newton._solve3

    def counting_solve3(j, *f):
        step, cond = solve3(j, *f)
        if step is None:
            seen.add("zero determinant")
        elif cond > newton._COND_LIMIT:
            seen.add("condition estimate")
        return step, cond

    trace, why = [], []
    with monkeypatch.context() as m:
        m.setattr(test_newton, "_solve3", counting_solve3)
        got = test_newton.reference_newton_free(c, x0, tol, 60, streak=0,
                                                why=why, trace=trace)
    if any(halvings == 6 for halvings, _ in trace):
        seen.add("six halvings")
    if got is None and why[0] in ("iteration cap", "streak"):
        seen.add("negative streak" if why[0] == "streak" else why[0])
    return seen


class TestBatchedOracle:
    """The batched oracle equals the scalar reference, record for record."""

    def test_acceptance_03_draws_match_bit_for_bit(self, monkeypatch):
        # Every 8th draw of acceptance 03, all 13 topologies.
        rng = np.random.default_rng(3003)
        for topo in TOPOLOGIES:
            for i in range(200):
                p = apply_topology(draw_params(rng), topo)
                if i % 8 == 0:
                    assert_matches_reference(
                        *batched_roots(monkeypatch, [p], seed=i), [p], seed=i)

    def test_closed_faces_give_the_every_face_table(self, monkeypatch):
        # Every 8th draw of acceptance 03, all 13 topologies: an open face
        # holds no root but an edge's or the origin, so starting every face
        # changes no record or report, and moves a raw root by 2 ulp at most.
        rng = np.random.default_rng(3003)
        for topo in TOPOLOGIES:
            for i in range(200):
                p = apply_topology(draw_params(rng), topo)
                if i % 8:
                    continue
                want = reference_find_all(monkeypatch, topo, p, seed=i, all_faces=True)
                got = find_all_equilibria(topo, p, seed=i)
                assert bits(got) == bits(want), f"{topo} draw {i}"
                assert [hexed(classify(topo, r, p)) for r in got] == \
                    [hexed(classify(topo, r, p)) for r in want], f"{topo} draw {i}"
                assert_same_roots(brute_force_equilibria(p, seed=i),
                                  reference_oracle(p, seed=i, all_faces=True))

    @pytest.mark.parametrize("rate", [1e-9, 1e-12, 5e-324])
    def test_a_small_rate_gives_the_every_face_table(self, monkeypatch, rate):
        # Every 40th draw of acceptance 03, all 13 topologies, with the
        # rates into each face's pinned patch in turn set to ``rate``: the
        # absolute residual test lets points beside that face pass, so the
        # set starts every face and equals the every-face reference.
        rng = np.random.default_rng(3003)
        for topo in TOPOLOGIES:
            for i in range(200):
                p = apply_topology(draw_params(rng), topo)
                if i % 40:
                    continue
                for a, b in ((0, 1), (0, 2), (1, 2)):
                    pin = 3 - a - b
                    q = p
                    for j in (a, b):
                        if p.m[pin, j] > 0.0:
                            q = with_param(q, f"m{pin + 1}{j + 1}", rate)
                    if q is p:
                        continue
                    where = f"{topo} draw {i} face {a, b}"
                    want = reference_find_all(monkeypatch, topo, q, seed=i, all_faces=True)
                    got = find_all_equilibria(topo, q, seed=i)
                    assert bits(got) == bits(want), where
                    assert [hexed(classify(topo, r, q)) for r in got] == \
                        [hexed(classify(topo, r, q)) for r in want], where
                    assert bits(brute_force_equilibria(q, seed=i)) == \
                        bits(reference_oracle(q, seed=i, all_faces=True)), where

    @pytest.mark.parametrize("topo, token, label", [
        ("EX6", "m21", "I3"), ("CONVERGE", "m32", "X2"), ("CONVERGE", "m12", "Y3")])
    def test_one_rate_opens_a_face_in_a_mixed_batch(self, monkeypatch, topo, token, label):
        # The rate ``token`` flows into the patch pinned on the face of the
        # catalog point ``label``: at exactly 0.0 the face is closed, at 0.5
        # it is open, and at the least subnormal, 1e-12 and 1e-9 every face
        # is closed; each set of one batch runs its faces by its own rates.
        rng = np.random.default_rng([17, TOPOLOGIES.index(topo)])
        while True:
            p = apply_topology(draw_params(rng), topo)
            cf = next((r for r in closed_form_equilibria(topo, p) if r.label == label),
                      None)
            if cf is not None and cf.feasible:
                break
        sets = [with_param(p, token, v) for v in (0.0, 5e-324, 1e-12, 1e-9, 0.5)]
        lanes = []
        full_lanes = eq._full_lanes

        def counting(cs, sid, P, free):
            lanes.append((free, sid))
            return full_lanes(cs, sid, P, free)

        with monkeypatch.context() as m:
            m.setattr(eq, "_full_lanes", counting)
            got = _oracle_many([_coeffs(q) for q in sets])
        (free, sid), = lanes
        for j, q in enumerate(sets):
            on = free[:, sid == j]
            masks = {tuple(np.flatnonzero(col).tolist()) for col in on.T}
            faced = sorted(m for m in masks if len(m) == 2)
            edges = positive_edges(q)
            assert faced == closed_faces(q), f"set {j}"
            assert sorted(m for m in masks if len(m) == 1) == edges, f"set {j}"
            assert on.shape[1] == 72 + 15 * len(faced) + len(edges), f"set {j}"
            assert bits(got[j]) == bits(brute_force_equilibria(q)), f"set {j}"
            assert bits(got[j]) == bits(reference_oracle(q)), f"set {j}"
        face = tuple(sorted({0, 1, 2} - {int(token[1]) - 1}))
        assert face in closed_faces(sets[0]) and face not in closed_faces(sets[-1])
        for j in (1, 2, 3):
            assert closed_faces(sets[j]) == [(0, 1), (0, 2), (1, 2)]
            assert bits(got[j]) == bits(reference_oracle(sets[j], all_faces=True))
        # The closed face's equilibrium comes from the oracle itself.
        pinned = cf.point.tolist().index(0.0)
        hits = [r.point.tolist() for r in got[0]
                if _gap(r.point.tolist(), cf.point.tolist()) < DEDUP_TOL]
        assert len(hits) == 1 and hits[0][pinned] == 0.0

    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_batched_sets_match_find_all_per_set(self, monkeypatch, topo):
        rng = np.random.default_rng([45, TOPOLOGIES.index(topo)])
        params = [draw_params(rng) for _ in range(6)]
        many = _find_all_many(topo, [_coeffs(apply_topology(p, topo)) for p in params])
        for j, p in enumerate(params):
            ref = bits(reference_find_all(monkeypatch, topo, p))
            assert bits(find_all_equilibria(topo, p)) == ref, f"draw {j}"
            assert bits(many[j]) == ref, f"draw {j}"

    def test_more_sets_than_one_batch(self, monkeypatch):
        rng = np.random.default_rng(44)
        params = [draw_params(rng) for _ in range(_BATCH_SETS + 3)]
        monkeypatch.setattr(eq, "_N_STARTS", 16)  # a quarter of the work
        got = _oracle_many([_coeffs(p) for p in params], seed=3)
        assert len(got) == len(params)
        for j, p in enumerate(params):
            assert bits(got[j]) == \
                bits(reference_oracle(p, n_starts=16, seed=3)), f"draw {j}"

    @pytest.mark.parametrize("handoff", [0, 10**6])
    def test_all_batch_or_all_scalar(self, monkeypatch, handoff):
        # No handoff runs every lane to the end in the batch; a handoff
        # larger than the batch gives every start, full-space and face, to
        # the scalar Newton at once, with the whole iteration budget.
        budgets = set()
        newton_full = newton._newton_full

        def handed(c, x0, tol, max_iter, *args, free=(0, 1, 2), **kwargs):
            budgets.add(({3: "full", 2: "face", 1: "edge"}[len(free)], max_iter))
            return newton_full(c, x0, tol, max_iter, *args, free=free, **kwargs)

        rng = np.random.default_rng(3003)
        draws = [draw_params(rng) for _ in range(len(TOPOLOGIES) * 200)]
        # FULL, HUB0 and CONVERGE draw 0 of acceptance 03; of the three,
        # only CONVERGE has closed faces, and so face starts.
        for i in (0, 400, 200 * TOPOLOGIES.index("CONVERGE")):
            p = apply_topology(draws[i], TOPOLOGIES[i // 200])
            with monkeypatch.context() as m:
                m.setattr(newton, "_HANDOFF_LANES", handoff)
                m.setattr(newton, "_newton_full", handed)
                got = batched_roots(monkeypatch, [p])
            assert_matches_reference(*got, [p])
        assert budgets == (set() if handoff == 0 else
                           {("full", 60), ("face", 60)})

    @pytest.mark.parametrize("handoff", [0, 10**6])
    def test_edge_starts_that_need_iterations(self, monkeypatch, handoff):
        # With one r_i scaled by 1e9, the edge row's residual at the
        # logistic root, about r_i·k_i·2**-52, is above RESIDUAL_LIMIT, so
        # the edge lane iterates: to the end in the batch without a
        # handoff, in the scalar Newton with one larger than the batch.
        rng = np.random.default_rng(7)
        batch, iterating = [], 0
        for topo in ("EX6", "CHAIN", "CONVERGE", "DIVERGE"):
            for _ in range(2):
                p = apply_topology(draw_params(rng), topo)
                for i in range(3):
                    q = with_param(p, f"r{i + 1}", float(p.r[i]) * 1e9)
                    c = _coeffs(q)
                    x0 = [0.0, 0.0, 0.0]
                    x0[i] = eq._logistic_root(c[i], c[3 + i], c[12 + i])
                    iterating += x0[i] > 0.0 and abs(_rhs(c, *x0)[i]) > eq.RESIDUAL_LIMIT
                    batch.append(q)
        handed = []
        newton_full = newton._newton_full

        def counting(*args, free=(0, 1, 2), **kwargs):
            handed.append(len(free))
            return newton_full(*args, free=free, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(newton, "_HANDOFF_LANES", handoff)
            m.setattr(newton, "_newton_full", counting)
            got = batched_roots(monkeypatch, batch)
        assert_matches_reference(*got, batch)
        assert iterating >= 12
        assert (1 in handed) == (handoff > 0)

    def test_every_branch_is_reached_and_matches(self, monkeypatch):
        # CONVERGE at r1 = m21 has a zero Jacobian determinant at the box
        # corners with p1 = 0, and one ulp above it a condition estimate
        # past the limit.  FULL draws 2, 7, 23, 47 and 49 of acceptance 03
        # have starts that the negative streak stops.  Starts stall while
        # they stay feasible where the residual at a root misses the
        # tolerance: with every k times 1e9, more of them than the handoff
        # takes, so the batch itself runs them to the iteration cap.
        rng = np.random.default_rng(3003)
        draws = [apply_topology(draw_params(rng), "FULL") for _ in range(50)]
        conv = apply_topology(draws[0], "CONVERGE")
        batches = [[draws[i] for i in (2, 7, 23, 47, 49)],
                   [with_param(conv, "r1", float(conv.m[1, 0]))],
                   [with_param(conv, "r1", float(np.nextafter(conv.m[1, 0], 9)))],
                   [test_newton.wide_full()]]
        batches += [[p] for p in draws[:4]]
        seen = set()
        newton_full = newton._newton_full

        def handed(*args, free=(0, 1, 2), **kwargs):
            seen.add({3: "full-space handoff", 2: "face handoff"}[len(free)])
            return newton_full(*args, free=free, **kwargs)

        for batch in batches:
            capped = 0
            for p in batch:
                c = _coeffs(p)
                for x0 in test_newton.starts(p, n=64):
                    branches = full_start_branches(monkeypatch, c, x0)
                    capped += "iteration cap" in branches
                    seen |= branches
            if capped > newton._HANDOFF_LANES:
                seen.add("iteration cap in the batch")
            with monkeypatch.context() as m:
                m.setattr(newton, "_newton_full", handed)
                got = batched_roots(monkeypatch, batch)
            assert_matches_reference(*got, batch)
        assert seen == {"zero determinant", "condition estimate",
                        "six halvings", "iteration cap", "negative streak",
                        "iteration cap in the batch", "full-space handoff",
                        "face handoff"}



# ---------------------------------------------------------------------------
# The oracle's negative-streak rule against the path it replaces.
# ---------------------------------------------------------------------------


def table(topo, params, seed=0):
    """find_all_equilibria and classify of every record, every float by its
    bits, or the error they raise."""
    try:
        got = find_all_equilibria(topo, params, seed=seed)
    except (ConsistencyError, ConvergenceError) as exc:
        return type(exc).__name__, str(exc)
    return bits(got), [hexed(classify(topo, r, params)) for r in got]


def near_threshold_draws():
    """40 draws per pattern (rng 0), each with its first analytic threshold
    value times 1 - 1e-6 and 1 + 1e-6, where it has one."""
    rng = np.random.default_rng(0)
    cases = []
    for topo in TOPOLOGIES:
        for _ in range(40):
            p = apply_topology(draw_params(rng), topo)
            thresholds = transcritical_thresholds(topo, p)
            if thresholds:
                token, value = thresholds[0][:2]
                cases += [(topo, with_param(p, token, value * f))
                          for f in (1 - 1e-6, 1 + 1e-6)]
    return cases


def census(params):
    """The equilibrium count of the three facts (ROADMAP item 1): the origin,
    and each closed support whose leaking source components ``C`` all have
    ``s(A_C) > 0``, with ``A = diag(r - o) + M`` the Jacobian at the origin."""
    m, r = params.m, params.r
    A = m + np.diag(r - m.sum(axis=0))
    count = 1
    for size in (1, 2, 3):
        for S in itertools.combinations(range(3), size):
            if any(m[p, j] > 0.0 for j in S for p in range(3) if p not in S):
                continue  # an arc leaves S
            # i reaches j inside S: the transitive closure of the arcs j <- i.
            reach = {(i, j) for i in S for j in S if i == j or m[j, i] > 0.0}
            for k in S:
                reach |= {(i, j) for i in S for j in S
                          if (i, k) in reach and (k, j) in reach}
            components = {tuple(j for j in S if (i, j) in reach and (j, i) in reach)
                          for i in S}
            ok = True
            for C in components:
                fed = any((i, C[0]) in reach for i in S if i not in C)
                leaks = any(m[j, i] > 0.0 for i in C for j in S if j not in C)
                if not fed and leaks:
                    ok &= np.linalg.eigvals(A[np.ix_(C, C)]).real.max() > 0.0
            count += ok
    return count


class TestNegativeStreakTables:
    """With the rule on, the tables equal those of the rule off (a limit past
    the iteration budget), and the feasible records equal the census."""

    @staticmethod
    def assert_same_tables(monkeypatch, cases):
        for topo, params, seed in cases:
            with monkeypatch.context() as m:
                m.setattr(newton, "_NEGATIVE_STREAK", newton._ORACLE_ITER + 1)
                want = table(topo, params, seed)
            assert table(topo, params, seed) == want, (topo, params, seed)

    def test_acceptance_03_draws(self, monkeypatch):
        # Every 8th draw of acceptance 03, all 13 topologies.
        rng = np.random.default_rng(3003)
        cases = []
        for topo in TOPOLOGIES:
            for i in range(200):
                p = apply_topology(draw_params(rng), topo)
                if i % 8 == 0:
                    cases.append((topo, p, i))
        self.assert_same_tables(monkeypatch, cases)

    def test_near_threshold_draws(self, monkeypatch):
        cases = near_threshold_draws()
        assert len(cases) == 620
        self.assert_same_tables(monkeypatch, [(t, p, 0) for t, p in cases])

    @pytest.mark.parametrize("rate", [1e-9, 1e-12])
    def test_a_small_rate_into_a_pinned_patch(self, monkeypatch, rate):
        # Every 8th draw of acceptance 03 of HUB0 and EX2N, with the rates
        # into each face's pinned patch in turn set to ``rate``.
        rng = np.random.default_rng(3003)
        cases = []
        for topo in TOPOLOGIES:
            for i in range(200):
                p = apply_topology(draw_params(rng), topo)
                if i % 8 or topo not in ("HUB0", "EX2N"):
                    continue
                for a, b in ((0, 1), (0, 2), (1, 2)):
                    pin, q = 3 - a - b, p
                    for j in (a, b):
                        if p.m[pin, j] > 0.0:
                            q = with_param(q, f"m{pin + 1}{j + 1}", rate)
                    if q is not p:
                        cases.append((topo, q, i))
        assert len(cases) > 60
        self.assert_same_tables(monkeypatch, cases)

    def test_feasible_records_equal_the_census(self):
        # Unscaled draws, 40 per pattern (rng 99).
        rng = np.random.default_rng(99)
        for topo in TOPOLOGIES:
            for i in range(40):
                p = apply_topology(draw_params(rng), topo)
                got = find_all_equilibria(topo, p)
                assert sum(r.feasible for r in got) == census(p), (topo, i)

    def test_exact_thresholds_equal_the_census(self):
        # Each patch with positive outflow at r_i = o_i exactly, 40 draws per
        # pattern (rng 4040): a state of a support that patch leaks from lies
        # on a smaller support there and counts once.  CHAIN's W3 and
        # CONVERGE's X2 and Y3 used to count twice.
        rng = np.random.default_rng(4040)
        for topo in TOPOLOGIES:
            for i in range(40):
                p = apply_topology(draw_params(rng), topo)
                c = _coeffs(p)
                for n in range(3):
                    if c[12 + n] > 0.0:
                        q = with_param(p, f"r{n + 1}", c[12 + n])
                        got = find_all_equilibria(topo, q)
                        assert sum(r.feasible for r in got) == census(q), (topo, i, n)

    @pytest.mark.parametrize("topo, count", [
        ("FULL", 2), ("CHAIN", 4), ("CONVERGE", 5), ("EX2N", 3), ("EX8", 3)])
    def test_census_hand_cases(self, topo, count):
        # All rates 1 and r = 2: every closed support carries a state.
        p = apply_topology(ModelParams(np.full(3, 2.0), np.ones(3),
                                       np.ones((3, 3)) - np.eye(3)), topo)
        assert census(p) == count
