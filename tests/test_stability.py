"""Eigenvalue machinery, sign tests, and the condition catalog."""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np
import pytest

from helpers import symmetric_full
from tripatch import stability
from tripatch.equilibria import EquilibriumRecord, find_all_equilibria
from tripatch.model import ModelParams, ParameterError, _coeffs, _jac, with_param
from tripatch.stability import (
    CharacteristicCoefficients,
    ConditionRow,
    SpectrumOverflowError,
    StabilityReport,
    StaleEquilibriumError,
    characteristic,
    classify,
    classify_matrix,
    eigenvalues_3x3,
    origin_never_stable_scan,
    routh_hurwitz,
    sign_conditions,
)
from tripatch.topology import (TOPOLOGIES, apply_topology, arcs_of_topology,
                               is_strongly_connected)
from tripatch.verification import draw_params


def sorted_eigs(j):
    e = sorted(np.linalg.eigvals(j), key=lambda z: (-z.real, -z.imag))
    return np.array(e)


def reference_characteristic(j) -> CharacteristicCoefficients:
    """characteristic as it was, on NumPy scalars."""
    a = np.asarray(j, dtype=float)
    if a.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {a.shape}")
    tr = a[0, 0] + a[1, 1] + a[2, 2]
    m_j = (
        a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    )
    det = (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )
    return CharacteristicCoefficients(trace=float(tr), m_j=float(m_j), det=float(det))


def reference_cubic_roots(b: float, c: float, d: float) -> list[complex]:
    """The Cardano/trigonometric roots eigenvalues_3x3 polished, as they were."""
    shift = b / 3.0
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        s = math.sqrt(disc)
        u = math.copysign(abs(-q / 2.0 + s) ** (1.0 / 3.0), -q / 2.0 + s)
        v = math.copysign(abs(-q / 2.0 - s) ** (1.0 / 3.0), -q / 2.0 - s)
        t1 = u + v
        quad_disc = t1 * t1 - 4.0 * (t1 * t1 + p)
        rt = cmath.sqrt(quad_disc)
        roots = [complex(t1), (-t1 + rt) / 2.0, (-t1 - rt) / 2.0]
    elif p == 0.0:
        roots = [0j, 0j, 0j]
    else:
        rho = math.sqrt(-p / 3.0)
        arg = max(-1.0, min(1.0, 3.0 * q / (2.0 * p * rho)))
        theta = math.acos(arg)
        roots = [
            complex(2.0 * rho * math.cos((theta - 2.0 * math.pi * kk) / 3.0))
            for kk in range(3)
        ]
    return [t - shift for t in roots]


def reference_eigenvalues_3x3(j):
    """eigenvalues_3x3 as it was, on reference_characteristic."""
    co = reference_characteristic(j)
    b, c, d = -co.trace, co.m_j, -co.det
    roots = reference_cubic_roots(b, c, d)
    polished = []
    for z in roots:
        f = ((z + b) * z + c) * z + d
        fp = (3.0 * z + 2.0 * b) * z + c
        if abs(fp) > 0.0:
            zn = z - f / fp
            fn = ((zn + b) * zn + c) * zn + d
            if abs(fn) < abs(f):
                z = zn
        if abs(z.imag) < 1e-14 * (1.0 + abs(z.real)):
            z = complex(z.real, 0.0)
        polished.append(z)
    polished.sort(key=lambda z: (-z.real, -z.imag))
    return tuple(polished)


def reference_classify_matrix(j):
    """classify_matrix as it was: the characteristic computed twice."""
    eig = reference_eigenvalues_3x3(j)
    return stability._classification(eig), eig, reference_characteristic(j)


def reference_classify(topo, eq, params):
    """classify as it was, reading the point through NumPy scalars."""
    c = _coeffs(params)
    p = eq.point
    jac = np.array(_jac(c, float(p[0]), float(p[1]), float(p[2]))).reshape(3, 3)
    classification, eig, co = reference_classify_matrix(jac)
    rows = [
        ConditionRow("traceJ", co.trace < 0.0, co.trace, 0.0, "sign_test"),
        ConditionRow("MJ", co.m_j > 0.0, co.m_j, 0.0, "sign_test"),
        ConditionRow("detJ", co.det < 0.0, co.det, 0.0, "sign_test"),
    ]
    builder = stability._CONDITION_TABLE.get((topo, eq.label))
    if builder is not None:
        for cid, kind, (lhs, rhs, holds) in builder(c, p):
            rows.append(ConditionRow(cid, bool(holds), float(lhs), float(rhs), kind))
    return StabilityReport(eigenvalues=eig, coefficients=co,
                           classification=classification, conditions=tuple(rows))


def reference_outcome(fn, j):
    """repr of fn(j) (exact for floats and complex), or the error raised."""
    try:
        with np.errstate(all="ignore"):
            return repr(fn(j))
    except (ValueError, OverflowError) as exc:
        # A non-3x3 matrix raised a bare ValueError; it now raises
        # ParameterError, which is a ValueError.
        return "ValueError" if isinstance(exc, ParameterError) else type(exc).__name__


def spectrum_outcome(ref, j):
    """reference_outcome of a spectrum reference, with its overflows named.

    The reference raised a bare OverflowError where the cubic solver
    overflowed, and returned NaN or infinite eigenvalues where a
    characteristic coefficient was not finite; both now raise
    SpectrumOverflowError.
    """
    out = reference_outcome(ref, j)
    if out == "ValueError":
        return out
    with np.errstate(all="ignore"):
        co = reference_characteristic(j)
    if out == "OverflowError" or not all(map(math.isfinite,
                                             (co.trace, co.m_j, co.det))):
        return "SpectrumOverflowError"
    return out


def matrices():
    """Random, structured, degenerate, non-finite and list-valued 3x3 inputs."""
    rng = np.random.default_rng(7)
    out = [rng.normal(0.0, 3.0, (3, 3)) for _ in range(300)]
    out += [rng.integers(-3, 4, (3, 3)).astype(float) for _ in range(100)]
    out += [np.diag([-1.0, -2.0, -3.0]), np.zeros((3, 3)), np.eye(3),
            np.array([[-3.0, 1, 1], [1, -3.0, 1], [1, 1, -3.0]]),
            np.array([[0.0, 1, 0], [0, 0, 1], [0, 0, 0]]),
            np.array([[0.0, -1, 0], [1, 0, 0], [0, 0, -1]]),
            np.diag([-1.0, -2.0, 1e-12]), np.diag([-0.0, 0.0, -0.0]),
            np.full((3, 3), 1e200), np.array([[np.nan, 0, 0], [0, 1, 0], [0, 0, 1]]),
            np.array([[np.inf, 1, 0], [0, 1, 0], [0, 0, 1]]),
            [[1, 2, 3], [4, 5, 6], [7, 8, 10]], np.eye(2)]
    for topo in TOPOLOGIES:
        p = apply_topology(draw_params(rng), topo)
        for _ in range(5):
            x = rng.uniform(0.0, 2.0 * float(np.max(p.k)), 3)
            out.append(np.array(_jac(_coeffs(p), *x.tolist())).reshape(3, 3))
    return out


class TestAgainstReference:
    """The float-based characteristic and single-pass classify_matrix and
    classify equal their NumPy-scalar forms exactly."""

    def test_characteristic_and_classify_matrix(self):
        for j in matrices():
            assert reference_outcome(characteristic, j) == \
                reference_outcome(reference_characteristic, j), j
            for fn, ref in ((eigenvalues_3x3, reference_eigenvalues_3x3),
                            (classify_matrix, reference_classify_matrix)):
                assert reference_outcome(fn, j) == spectrum_outcome(ref, j), j

    def test_classify_on_every_record(self):
        rng = np.random.default_rng(8)
        for topo in TOPOLOGIES:
            for _ in range(4):
                p = apply_topology(draw_params(rng), topo)
                for rec in find_all_equilibria(topo, p):
                    assert repr(classify(topo, rec, p)) == \
                        repr(reference_classify(topo, rec, p))

    def test_classify_equals_classify_matrix_of_the_array(self):
        # classify takes the characteristic and the spectrum from _jac's
        # tuple; classify_matrix from the 3x3 array of the same entries.
        rng = np.random.default_rng(15)
        for topo in TOPOLOGIES:
            for _ in range(20):
                p = apply_topology(draw_params(rng), topo)
                c = _coeffs(p)
                for rec in find_all_equilibria(topo, p):
                    rep = classify(topo, rec, p)
                    jac = np.array(_jac(c, *rec.point.tolist())).reshape(3, 3)
                    assert repr((rep.classification, rep.eigenvalues,
                                 rep.coefficients)) == repr(classify_matrix(jac))


class TestCharacteristic:
    def test_known_matrix(self):
        j = np.array([[2.0, 0, 0], [0, 3.0, 0], [0, 0, 5.0]])
        co = characteristic(j)
        assert (co.trace, co.m_j, co.det) == (10.0, 31.0, 30.0)

    def test_shape_is_checked(self):
        with pytest.raises(ValueError, match="3x3"):
            characteristic(np.eye(2))


class TestEigenvalues:
    @pytest.mark.parametrize("j", [
        np.diag([1e103, 0.0, 0.0]),  # finite coefficients; b ** 3 overflows
        np.diag([1e200, 1e200, -1e200]),  # infinite minor sum
        np.array([[np.nan, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ])
    def test_overflow_is_a_named_error(self, j):
        for fn in (eigenvalues_3x3, classify_matrix):
            with pytest.raises(SpectrumOverflowError,
                               match="leave the float range"):
                fn(j)
        assert issubclass(SpectrumOverflowError, OverflowError)

    def test_tiny_matrices_are_solved_to_scale(self):
        # Entries below about 1e-108 used to underflow 2·p·rho in the cubic
        # solver to 0 and raise ZeroDivisionError; below about 1e-52 its
        # discriminant underflowed and a complex pair broke math.sqrt.
        assert eigenvalues_3x3(np.diag([1e-125, -1e-125, 0.0])) == \
            (1e-125, 0.0, -1e-125)
        rng = np.random.default_rng(43)
        for scale in (1e-60, 1e-110, 1e-200, 1e-300):
            for i in range(50):
                j = rng.normal(0.0, 3.0, (3, 3))
                ours = np.array(eigenvalues_3x3(j * scale)) / scale
                ref = sorted_eigs(j)
                scale_ref = 1.0 + float(np.max(np.abs(ref)))
                err = float(np.max(np.abs(ours - ref))) / scale_ref
                assert err < 1e-9, f"scale {scale}, matrix {i}: error {err:.2e}"

    def test_matches_numpy_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for i in range(300):
            j = rng.normal(0.0, 3.0, (3, 3))
            ours = np.array(eigenvalues_3x3(j))
            ref = sorted_eigs(j)
            scale = 1.0 + float(np.max(np.abs(ref)))
            err = float(np.max(np.abs(ours - ref))) / scale
            assert err < 1e-9, f"matrix {i}: eigenvalue error {err:.2e}"

    def test_double_root_is_not_split(self):
        # Symmetric coupling makes the Jacobian have spectrum (-1, -4, -4);
        # the repeated root must not be torn apart by the polish step.
        j = np.array([[-3.0, 1, 1], [1, -3.0, 1], [1, 1, -3.0]])
        eig = eigenvalues_3x3(j)
        assert eig[0] == pytest.approx(-1.0, abs=1e-12)
        assert eig[1] == pytest.approx(-4.0, abs=1e-7)
        assert eig[2] == pytest.approx(-4.0, abs=1e-7)
        assert sum(z.real for z in eig) == pytest.approx(-9.0, abs=1e-9)

    def test_complex_pair_detected(self):
        # Companion matrix of λ³ + λ² + λ + 1 = (λ + 1)(λ² + 1).
        j = np.array([[0.0, 1, 0], [0, 0, 1.0], [-1.0, -1, -1]])
        eig = eigenvalues_3x3(j)
        assert eig[0] == pytest.approx(1j, abs=1e-12)
        assert eig[1] == pytest.approx(-1j, abs=1e-12)
        assert eig[2] == pytest.approx(-1.0, abs=1e-12)

    def test_small_complex_pair_is_kept(self):
        # The imaginary floor scales with the spectrum: a pair of modulus
        # 1e-20 is not rounded onto the real axis.
        eig = eigenvalues_3x3([[0, -1e-20, 0], [1e-20, 0, 0], [0, 0, -1e-20]])
        assert eig[0] == pytest.approx(1e-20j, rel=1e-9, abs=0)
        assert eig[1] == pytest.approx(-1e-20j, rel=1e-9, abs=0)
        assert eig[2] == -1e-20
        for scale in (1e-10, 1.0, 1e10):
            j = np.array([[0.0, -scale, 0], [scale, 0, 0], [0, 0, -scale]])
            assert [z / scale for z in eigenvalues_3x3(j)] == \
                pytest.approx([1j, -1j, -1.0], abs=1e-12)

    def test_real_roots_have_zero_imaginary_part(self):
        j = np.diag([-1.0, -2.0, -3.0]) + 0.1
        for z in eigenvalues_3x3(j):
            assert z.imag == 0.0


class TestSignTests:
    def test_imaginary_pair_fools_sign_test_but_not_routh_hurwitz(self):
        # λ³ + λ² + λ + 1 has roots {-1, ±i}: every coefficient sign is
        # right, yet a1·a2 = a3 sits exactly on the oscillation boundary.
        co = CharacteristicCoefficients(trace=-1.0, m_j=1.0, det=-1.0)
        assert sign_conditions(co) == (True, True, True)
        assert not routh_hurwitz(co)

    def test_agreement_on_strictly_stable_spectrum(self):
        co = characteristic(np.diag([-1.0, -2.0, -3.0]))
        assert all(sign_conditions(co))
        assert routh_hurwitz(co)

    def test_routh_hurwitz_matches_spectrum(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            j = rng.normal(0.0, 2.0, (3, 3))
            ref = sorted_eigs(j)
            margin = 1e-9 * (1.0 + float(np.max(np.abs(ref))))
            if abs(float(np.max(ref.real))) < margin:
                continue  # too close to the boundary to call
            assert routh_hurwitz(characteristic(j)) == bool(
                np.max(ref.real) < 0.0
            )


class TestClassifyMatrix:
    def test_three_way_vocabulary(self):
        assert classify_matrix(np.diag([-1.0, -2, -3]))[0] == "STABLE"
        assert classify_matrix(np.diag([-1.0, -2, 3]))[0] == "UNSTABLE"
        assert classify_matrix(np.diag([-1.0, -2, 0]))[0] == "MARGINAL"

    def test_marginal_band_is_relative(self):
        # A real part at 1e-12 against eigenvalues of size ~1 is noise,
        # not instability.
        assert classify_matrix(np.diag([-1.0, -2.0, 1e-12]))[0] == "MARGINAL"


class TestClassify:
    def test_symmetric_coexistence_is_stable(self):
        p = symmetric_full()
        recs = {r.label: r for r in find_all_equilibria("FULL", p)}
        rep = classify("FULL", recs["COEX"], p)
        assert rep.classification == "STABLE"
        by_cid = {row.cid: row for row in rep.conditions}
        assert set(by_cid) >= {"traceJ", "MJ", "detJ"}
        assert all(by_cid[cid].holds for cid in ("traceJ", "MJ", "detJ"))
        assert rep.eigenvalues[0] == pytest.approx(-1.0, abs=1e-10)

    def test_symmetric_origin_is_unstable(self):
        p = symmetric_full()
        recs = {r.label: r for r in find_all_equilibria("FULL", p)}
        rep = classify("FULL", recs["ORIGIN"], p)
        assert rep.classification == "UNSTABLE"
        assert not all(row.holds for row in rep.conditions
                       if row.kind == "sign_test")

    def test_single_patch_landmark_conditions(self):
        # One-source parameters where the closed-form rows for the
        # boundary state (k1, 0, 0) are known to hold.
        p = ModelParams(
            np.array([3.0759202711002276, 1.1929939285255269,
                      0.7565369458169573]),
            np.array([1.713517945887594, 0.5709313242879205,
                      1.8926155818722006]),
            np.array([
                [0.0, 1.4520278555845525, 1.740698495204055],
                [0.0, 0.0, 1.4541977791699672],
                [0.0, 0.2816153631316659, 0.0],
            ]),
        )
        recs = {r.label: r for r in find_all_equilibria("EX8", p)}
        assert "M2_EX8" in recs
        assert np.allclose(recs["M2_EX8"].point, [p.k[0], 0.0, 0.0],
                           atol=1e-12)
        rep = classify("EX8", recs["M2_EX8"], p)
        assert rep.classification == "STABLE"
        by_cid = {row.cid: row for row in rep.conditions}
        for cid in ("stab_82_1", "stab_82_2"):
            assert by_cid[cid].holds, f"{cid} should hold for this draw"
            assert by_cid[cid].kind == "stability"

    def test_exact_threshold_gives_exact_zero_eigenvalue(self):
        # r2 = m12 + m32 makes one eigenvalue of the patch-2-free states
        # exactly zero in floating point, so the branch point is MARGINAL.
        rng = np.random.default_rng(606)
        p = apply_topology(draw_params(rng, m_lo=0.2), "EX6")
        p = with_param(p, "r2", float(p.m[0, 1] + p.m[2, 1]))
        partner = "I2" if p.r[2] < p.m[0, 2] else "I3"
        recs = {r.label: r for r in find_all_equilibria("EX6", p)}
        rep = classify("EX6", recs[partner], p)
        smallest = min(abs(z.real) for z in rep.eigenvalues)
        assert smallest <= 1e-12, f"expected an exact zero, got {smallest}"
        assert rep.classification != "STABLE"

    def test_unprojected_params_give_the_projected_report(self):
        # CHAIN draw 1: unprojected, ORIGIN's lead eigenvalue read 2.789
        # instead of 2.974.
        rng = np.random.default_rng(1)
        for topo in TOPOLOGIES:
            p = draw_params(rng)
            q = apply_topology(p, topo)
            for rec in find_all_equilibria(topo, p):
                assert repr(classify(topo, rec, p)) == \
                    repr(classify(topo, rec, q)), (topo, rec.label)

    def test_unknown_topology_is_refused(self):
        p = symmetric_full()
        rec = find_all_equilibria("FULL", p)[0]
        with pytest.raises(ParameterError, match="unknown topology"):
            classify("BOGUS", rec, p)

    def test_stale_record_is_rejected(self):
        p = symmetric_full()
        fake = EquilibriumRecord(point=np.array([0.5, 0.5, 0.5]),
                                 label="COEX", feasible=True,
                                 residual=1e-3)
        with pytest.raises(StaleEquilibriumError, match="residual 1.00e-03"):
            classify("FULL", fake, p)
        # A NaN residual is refused too, not classified.
        fake = EquilibriumRecord(point=np.array([0.3, 0.2, 0.1]),
                                 label="NUMERICAL", feasible=True,
                                 residual=math.nan)
        with pytest.raises(StaleEquilibriumError, match="residual nan"):
            classify("FULL", fake, p)

    def test_record_of_another_topology_is_rejected(self):
        # FULL's coexistence state (1, 1, 1) has residual 0, but under
        # EX6's projection of the same set its residual is 2.0: it is no
        # equilibrium there, and the stored residual cannot tell.
        p = symmetric_full()
        coex = {r.label: r for r in find_all_equilibria("FULL", p)}["COEX"]
        assert coex.residual == 0.0
        assert coex.point.tolist() == [1.0, 1.0, 1.0]
        assert classify("FULL", coex, p).classification == "STABLE"
        with pytest.raises(StaleEquilibriumError,
                           match=r"COEX has residual 2\.00e\+00 > 1e-08 under EX6"):
            classify("EX6", coex, p)
        # So is a record classified at another parameter set.
        with pytest.raises(StaleEquilibriumError, match=r"residual 5\.00e-01"):
            classify("FULL", coex, with_param(p, "k1", 2.0))

    def test_stability_rows_match_spectrum(self):
        # The conjunction of "stability" rows is the closed-form version
        # of "all eigenvalues in the left half-plane"; away from the
        # boundary the two must agree for every cataloged *feasible*
        # pair (the rows assume the state actually exists).
        rng = np.random.default_rng(99)
        checked = 0
        for topo in TOPOLOGIES:
            for _ in range(20):
                p = apply_topology(draw_params(rng), topo)
                for rec in find_all_equilibria(topo, p):
                    if not rec.feasible:
                        continue
                    rep = classify(topo, rec, p)
                    rows = [r for r in rep.conditions if r.kind == "stability"]
                    if not rows:
                        continue
                    margin = max(1e-9, 1e-6 * max(
                        abs(z) for z in rep.eigenvalues))
                    if min(abs(z.real) for z in rep.eigenvalues) <= margin:
                        continue
                    if any(abs(r.lhs - r.rhs) <= 1e-6 * (1 + abs(r.lhs))
                           for r in rows):
                        continue
                    checked += 1
                    assert all(r.holds for r in rows) == (
                        rep.classification == "STABLE"
                    ), f"{topo}/{rec.label}: rows disagree with spectrum"
        assert checked > 100, f"only {checked} interior cases exercised"


@functools.cache
def metzler_reports(topo: str, draws: int = 8):
    """(params, record, report) of every equilibrium of fixed draws of ``topo``."""
    rng = np.random.default_rng([77, TOPOLOGIES.index(topo)])
    out = []
    for _ in range(draws):
        p = apply_topology(draw_params(rng), topo)
        out += [(p, rec, classify(topo, rec, p))
                for rec in find_all_equilibria(topo, p)]
    return out


class TestMetzlerFacts:
    """Model Jacobians are Metzler: their off-diagonal entries are rates ≥ 0."""

    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_lead_eigenvalue_is_real(self, topo):
        # Perron–Frobenius: the spectral abscissa is an eigenvalue.
        for _, rec, rep in metzler_reports(topo):
            assert rep.eigenvalues[0].imag == 0.0, (rec.label, rep.eigenvalues)

    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_sign_test_is_routh_hurwitz(self, topo):
        for _, rec, rep in metzler_reports(topo):
            co = rep.coefficients
            assert all(sign_conditions(co)) == routh_hurwitz(co), (rec.label, co)

    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_origin_lead_eigenvalue_is_at_least_min_r(self, topo):
        # Column j of J(0) sums to r_j, so the abscissa is at least min r.
        origins = [(p, rep) for p, rec, rep in metzler_reports(topo)
                   if rec.label == "ORIGIN"]
        assert len(origins) == 8
        for p, rep in origins:
            lead, least = rep.eigenvalues[0].real, float(np.min(p.r))
            assert lead >= least * (1.0 - 1e-12), (lead, least)


    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_m_matrix_and_sign_tests_are_the_spectrum(self, topo):
        # (d) -J is a Z-matrix, so J is stable exactly when -J is a
        # nonsingular M-matrix: every leading principal minor of -J is > 0.
        # This covers the records without catalog rows too.
        checked = 0
        for p, rec, rep in metzler_reports(topo):
            if rep.classification == "MARGINAL":
                continue
            stable = rep.classification == "STABLE"
            neg = -np.array(_jac(_coeffs(p), *rec.point.tolist())).reshape(3, 3)
            minors = [float(np.linalg.det(neg[:n, :n])) for n in (1, 2, 3)]
            assert all(m > 0.0 for m in minors) == stable, (rec.label, minors)
            assert all(sign_conditions(rep.coefficients)) == stable, rec.label
            checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("topo", [t for t in TOPOLOGIES
                                      if is_strongly_connected(arcs_of_topology(t))])
    def test_strongly_connected_coex_is_stable(self, topo):
        # Smith 1986: with an irreducible Jacobian and concave per-capita
        # growth, the positive equilibrium is unique and stable.
        coex = [rep for _, rec, rep in metzler_reports(topo) if rec.label == "COEX"]
        assert len(coex) == 8
        assert all(rep.classification == "STABLE" for rep in coex)


class TestOriginScan:
    @pytest.mark.parametrize("topo", ("FULL", "EX6", "CHAIN", "DIVERGE"))
    def test_no_stabilizing_draw_exists(self, topo):
        assert origin_never_stable_scan(topo, 3000, seed=1) is None

    def test_rejects_empty_scan(self):
        with pytest.raises(ValueError, match="n_draws"):
            origin_never_stable_scan("FULL", 0, seed=0)

    def test_rejects_a_fractional_draw_count(self):
        # n_draws=2.5 used to raise NumPy's TypeError.
        with pytest.raises(ParameterError, match="n_draws must be an integer"):
            origin_never_stable_scan("FULL", 2.5, 0)
