"""Closed-form equilibrium catalog, Newton solvers, and the merged set."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_newton
from tripatch import equilibria as eq
from tripatch import newton
from tripatch.equilibria import (
    _BATCH_SETS,
    ADMITTED_LABELS,
    DEDUP_TOL,
    ConsistencyError,
    EQUILIBRIUM_LABELS,
    _find_all_many,
    _oracle_many,
    brute_force_equilibria,
    closed_form_equilibria,
    coexistence_by_construction,
    find_all_equilibria,
    newton_coexistence,
)
from tripatch.model import ModelParams, _coeffs, rhs, with_param
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


def reference_roots(params, n_starts=64, seed=0, tol=1e-8):
    """The oracle's roots before dedup, one scalar Newton solve per start.

    Roots below -1e-9 are dropped, near-zero components snapped to 0, and
    the rest sorted.
    """
    c = _coeffs(params)
    box = 2.0 * float(np.max(params.k))
    found = [(0.0, 0.0, 0.0)]
    interior = eq._halton(3, n_starts, seed) * box
    corners = [(a, b, d) for a in (0.0, box) for b in (0.0, box)
               for d in (0.0, box)]
    for x0 in list(interior) + corners:
        got = newton._newton_full(c, tuple(x0), tol, 60)
        if got is not None:
            found.append(got[0])
    for fi, free in enumerate(((0, 1), (0, 2), (1, 2))):
        plane = eq._halton(2, 12, seed * 8 + fi + 1) * box
        starts = [tuple(row) for row in plane]
        starts += [(box, box), (box, 0.25 * box), (0.25 * box, box)]
        for s in starts:
            x0 = [0.0, 0.0, 0.0]
            x0[free[0]], x0[free[1]] = s[0], s[1]
            got = newton._newton_support(c, x0, free, tol)
            if got is not None:
                found.append(got)
    for i in range(3):
        root = eq._logistic_root(c[i], c[3 + i], c[12 + i])
        if root > 0.0:
            x0 = [0.0, 0.0, 0.0]
            x0[i] = root
            if newton._residual(c, *x0) <= tol:
                found.append(tuple(x0))
            else:
                got = newton._newton_support(c, x0, (i,), tol)
                if got is not None:
                    found.append(got)
    scale = max(1.0, box)
    return sorted(tuple(0.0 if abs(v) <= 1e-12 * scale else v for v in p)
                  for p in found if min(p) >= -1e-9)


def reference_oracle(params, n_starts=64, seed=0, tol=1e-8):
    """brute_force_equilibria with one scalar Newton solve per start."""
    c = _coeffs(params)
    reps = []
    for p in reference_roots(params, n_starts, seed, tol):
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


def bits(records):
    """Records as comparable tuples, every float by its exact bits."""
    return [(r.label, r.feasible, float(r.residual).hex(),
             [v.hex() for v in r.point.tolist()]) for r in records]


def batched_roots(monkeypatch, params_list, seed=0):
    """_oracle_many's records and, set by set, its sorted roots before dedup."""
    roots = []
    dedup = eq._dedup

    def capturing_dedup(points, residuals):
        roots.append([tuple(p) for p in points])
        return dedup(points, residuals)

    with monkeypatch.context() as m:
        m.setattr(eq, "_dedup", capturing_dedup)
        return _oracle_many(params_list, seed=seed), roots


def assert_matches_reference(got, roots, params_list, seed=0):
    """The batch's roots and records (see batched_roots) equal the reference's."""
    assert len(got) == len(roots) == len(params_list)
    for j, p in enumerate(params_list):
        assert [tuple(v.hex() for v in x) for x in roots[j]] == \
            [tuple(v.hex() for v in x) for x in reference_roots(p, seed=seed)], \
            f"set {j}"
        assert bits(got[j]) == bits(reference_oracle(p, seed=seed)), f"set {j}"


def reference_find_all(monkeypatch, topo, params, seed=0):
    """find_all_equilibria with the scalar reference as its oracle."""
    with monkeypatch.context() as m:
        m.setattr(eq, "brute_force_equilibria", reference_oracle)
        return find_all_equilibria(topo, params, seed=seed)


def full_start_branches(monkeypatch, c, x0, tol=1e-8):
    """Branches ``_newton_full(c, x0, tol, 60)`` takes, seen via the kernels
    of its reference copy ``test_newton.reference_newton_full``."""
    seen, residuals = set(), [0]
    solve3, rhs = test_newton._solve3, newton._rhs

    def counting_solve3(j, *f):
        step, cond = solve3(j, *f)
        if step is None:
            seen.add("zero determinant")
        elif cond > newton._COND_LIMIT:
            seen.add("condition estimate")
        residuals.append(0)
        return step, cond

    def counting_rhs(c, *p):
        residuals[-1] += 1
        return rhs(c, *p)

    with monkeypatch.context() as m:
        m.setattr(test_newton, "_solve3", counting_solve3)
        m.setattr(newton, "_rhs", counting_rhs)  # _residual's rhs
        got = test_newton.reference_newton_full(c, x0, tol, 60)
    if max(residuals) == 7:  # the full step and six halvings
        seen.add("six halvings")
    if got is None and not seen & {"zero determinant", "condition estimate"}:
        seen.add("iteration cap")
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

    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_batched_sets_match_find_all_per_set(self, monkeypatch, topo):
        rng = np.random.default_rng([45, TOPOLOGIES.index(topo)])
        params = [draw_params(rng) for _ in range(6)]
        many = _find_all_many(topo, params)
        for j, p in enumerate(params):
            ref = bits(reference_find_all(monkeypatch, topo, p))
            assert bits(find_all_equilibria(topo, p)) == ref, f"draw {j}"
            assert bits(many[j]) == ref, f"draw {j}"

    def test_more_sets_than_one_batch(self, monkeypatch):
        rng = np.random.default_rng(44)
        params = [draw_params(rng) for _ in range(_BATCH_SETS + 3)]
        monkeypatch.setattr(eq, "_N_STARTS", 16)  # a quarter of the work
        got = _oracle_many(params, seed=3)
        assert len(got) == len(params)
        for j, p in enumerate(params):
            assert bits(got[j]) == \
                bits(reference_oracle(p, n_starts=16, seed=3)), f"draw {j}"

    @pytest.mark.parametrize("handoff", [0, 10**6])
    def test_all_batch_or_all_scalar(self, monkeypatch, handoff):
        # No handoff runs every lane to the end in the batch; a handoff
        # larger than the batch gives every start to the scalar Newton at
        # once, with the whole iteration budget.
        budgets = set()
        newton_full, newton_support = newton._newton_full, newton._newton_support

        def handed_full(c, x0, tol, max_iter, *args, **kwargs):
            budgets.add(("full", max_iter))
            return newton_full(c, x0, tol, max_iter, *args, **kwargs)

        def handed_support(c, x0, free, tol, max_iter=60, *args, **kwargs):
            if len(free) == 2:
                budgets.add(("face", max_iter))
            return newton_support(c, x0, free, tol, max_iter, *args, **kwargs)

        rng = np.random.default_rng(3003)
        draws = [draw_params(rng) for _ in range(3 * 200)]
        for i in (0, 400):  # FULL draw 0 and HUB0 draw 0 of acceptance 03
            p = apply_topology(draws[i], TOPOLOGIES[i // 200])
            with monkeypatch.context() as m:
                m.setattr(newton, "_HANDOFF_LANES", handoff)
                m.setattr(newton, "_newton_full", handed_full)
                m.setattr(newton, "_newton_support", handed_support)
                got = batched_roots(monkeypatch, [p])
            assert_matches_reference(*got, [p])
        assert budgets == (set() if handoff == 0 else
                           {("full", 60), ("face", 60)})

    def test_every_branch_is_reached_and_matches(self, monkeypatch):
        # CONVERGE at r1 = m21 has a zero Jacobian determinant at the box
        # corners with p1 = 0, and one ulp above it a condition estimate
        # past the limit.  Together, FULL draws 2, 7, 23, 47 and 49 of
        # acceptance 03 have more non-converging starts than the handoff
        # takes, so the batch itself runs them to the iteration cap.
        rng = np.random.default_rng(3003)
        draws = [apply_topology(draw_params(rng), "FULL") for _ in range(50)]
        conv = apply_topology(draws[0], "CONVERGE")
        batches = [[draws[i] for i in (2, 7, 23, 47, 49)],
                   [with_param(conv, "r1", float(conv.m[1, 0]))],
                   [with_param(conv, "r1", float(np.nextafter(conv.m[1, 0], 9)))]]
        batches += [[p] for p in draws[:4]]
        seen = set()
        newton_full, newton_support = newton._newton_full, newton._newton_support

        def handed_full(*args, **kwargs):
            seen.add("full-space handoff")
            return newton_full(*args, **kwargs)

        def handed_support(c, x0, free, *args, **kwargs):
            if len(free) == 2:
                seen.add("face handoff")
            return newton_support(c, x0, free, *args, **kwargs)

        for batch in batches:
            capped = 0
            for p in batch:
                c = _coeffs(p)
                box = 2.0 * float(np.max(p.k))
                starts = [tuple(x) for x in eq._halton(3, 64, 0) * box]
                starts += [(a, b, d) for a in (0.0, box) for b in (0.0, box)
                           for d in (0.0, box)]
                for x0 in starts:
                    branches = full_start_branches(monkeypatch, c, x0)
                    capped += "iteration cap" in branches
                    seen |= branches
            if capped > newton._HANDOFF_LANES:
                seen.add("iteration cap in the batch")
            with monkeypatch.context() as m:
                m.setattr(newton, "_newton_full", handed_full)
                m.setattr(newton, "_newton_support", handed_support)
                got = batched_roots(monkeypatch, batch)
            assert_matches_reference(*got, batch)
        assert seen == {"zero determinant", "condition estimate",
                        "six halvings", "iteration cap",
                        "iteration cap in the batch", "full-space handoff",
                        "face handoff"}

