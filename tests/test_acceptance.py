"""Acceptance gate: one test per shipped guarantee, one printed line each.

Each criterion prints ``ACCEPTANCE nn PASS/FAIL <name>`` directly to the
real stdout so the verdicts survive pytest's capture, then asserts at the
stated tolerance.  Criterion 10 records its measurement instead of
asserting; a fraction below 1.0 is flagged in the printed line as a
documented finding, not a failure.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tripatch.bifurcation import hopf_candidate, sweep
from tripatch.equilibria import (
    brute_force_equilibria,
    closed_form_equilibria,
    coexistence_by_construction,
    find_all_equilibria,
    newton_coexistence,
)
from tripatch.model import ModelParams, jacobian, rhs, with_param
from tripatch.simulate import basin_sample, integrate
from tripatch.stability import (
    CharacteristicCoefficients,
    classify,
    routh_hurwitz,
    sign_conditions,
)
from tripatch.topology import (
    TOPOLOGIES,
    apply_topology,
    canonical_form,
    enumerate_canonical,
    is_admissible,
    is_strongly_connected,
    iter_arc_sets,
)
from tripatch.verification import draw_params

STRONG = ("FULL", "EX2", "HUB0", "EX3", "EX1")

#: One verdict line per criterion; echoed by the terminal-summary hook.
VERDICTS: list[str] = []


def _verdict(line: str) -> None:
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)  # live under pytest -s


@contextmanager
def criterion(num: int, name: str):
    """Record one PASS/FAIL verdict line per criterion."""
    info: dict[str, str] = {}
    t0 = time.perf_counter()
    try:
        yield info
    except BaseException:
        _verdict(f"ACCEPTANCE {num:02d} FAIL {name} "
                 f"({time.perf_counter() - t0:.2f}s)")
        raise
    line = f"ACCEPTANCE {num:02d} PASS {name} ({time.perf_counter() - t0:.2f}s)"
    if info.get("detail"):
        line += f" — {info['detail']}"
    _verdict(line)


def test_01_topology_census():
    with criterion(1, "topology-census") as info:
        t0 = time.perf_counter()
        canon = enumerate_canonical()
        assert len(canon) == 13
        assert [name for name, _ in canon] == list(TOPOLOGIES)

        # Brute force: every one of the 64 labeled arc sets either is
        # inadmissible or falls into one of the 13 classes.
        seen: dict[str, int] = {}
        total = 0
        for arcs in iter_arc_sets():
            total += 1
            if not is_admissible(arcs):
                continue
            name, _ = canonical_form(arcs)
            seen[name] = seen.get(name, 0) + 1
        assert total == 64
        assert set(seen) == set(TOPOLOGIES), (
            f"brute force found classes {sorted(seen)}"
        )

        strong = {name for name, arcs in canon if is_strongly_connected(arcs)}
        assert strong == set(STRONG)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"census took {elapsed:.2f}s (limit 1s)"
        info["detail"] = (f"13 classes over {sum(seen.values())} admissible "
                          f"arc sets; strong = {sorted(strong)}")


def test_02_coexistence_existence():
    with criterion(2, "coexistence-existence") as info:
        t0 = time.perf_counter()
        rng = np.random.default_rng(2002)
        worst_gap = worst_res = 0.0
        for i in range(1000):
            p = draw_params(rng)
            a = newton_coexistence(p)
            b = coexistence_by_construction(p)
            assert float(np.min(a.point)) > 0.0, (
                f"draw {i}: interior point {a.point.tolist()} not positive"
            )
            assert a.residual <= 1e-10, (
                f"draw {i}: residual {a.residual:.2e} > 1e-10"
            )
            gap = float(np.max(np.abs(a.point - b.point)))
            assert gap <= 1e-6, f"draw {i}: solver gap {gap:.2e} > 1e-6"
            worst_gap = max(worst_gap, gap)
            worst_res = max(worst_res, a.residual)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s (limit 30s)"
        info["detail"] = (f"1000 draws; worst gap {worst_gap:.2e}, "
                          f"worst residual {worst_res:.2e}")


def test_03_closed_form_catalog():
    with criterion(3, "closed-form-catalog") as info:
        t0 = time.perf_counter()
        rng = np.random.default_rng(3003)
        worst_res = worst_dist = 0.0
        n_feasible = 0
        for topo in TOPOLOGIES:
            for i in range(200):
                p = apply_topology(draw_params(rng), topo)
                catalog = closed_form_equilibria(topo, p)
                oracle = brute_force_equilibria(p, seed=i)
                pts = np.array([rec.point for rec in oracle])
                for rec in catalog:
                    if not rec.feasible:
                        continue
                    n_feasible += 1
                    assert rec.residual <= 1e-8, (
                        f"{topo}/{rec.label} draw {i}: "
                        f"residual {rec.residual:.2e}"
                    )
                    dist = float(np.min(np.max(np.abs(pts - rec.point),
                                               axis=1)))
                    assert dist <= 1e-6, (
                        f"{topo}/{rec.label} draw {i}: nearest oracle point "
                        f"{dist:.2e} away"
                    )
                    worst_dist = max(worst_dist, dist)
                    worst_res = max(worst_res, rec.residual)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s (limit 2min)"
        info["detail"] = (f"{n_feasible} feasible closed forms; worst "
                          f"residual {worst_res:.2e}, worst oracle distance "
                          f"{worst_dist:.2e}")


def test_04_stability_condition_equivalence():
    with criterion(4, "stability-condition-equivalence") as info:
        rng = np.random.default_rng(4004)
        checked = 0
        for topo in TOPOLOGIES:
            for i in range(200):
                p = apply_topology(draw_params(rng), topo)
                for rec in find_all_equilibria(topo, p, seed=i):
                    if not rec.feasible:
                        continue
                    rep = classify(topo, rec, p)
                    rows = [c for c in rep.conditions
                            if c.kind == "stability"]
                    if not rows:
                        continue
                    if any(abs(c.lhs - c.rhs) <= 1e-6 for c in rows):
                        continue  # inside the stated margin band
                    checked += 1
                    verdict = all(c.holds for c in rows)
                    assert verdict == (rep.classification == "STABLE"), (
                        f"{topo}/{rec.label} draw {i}: conditions say "
                        f"{'stable' if verdict else 'unstable'}, spectrum "
                        f"says {rep.classification}; point "
                        f"{rec.point.tolist()}, rows "
                        f"{[(c.cid, c.holds, c.lhs, c.rhs) for c in rows]}"
                    )
        assert checked > 1000, f"only {checked} clear-margin cases"
        info["detail"] = f"{checked} clear-margin (topology, state) cases"


def test_05_strong_connectivity_equilibria():
    with criterion(5, "strong-connectivity-equilibria") as info:
        rng = np.random.default_rng(5005)
        for topo in STRONG:
            for i in range(200):
                p = apply_topology(draw_params(rng), topo)
                labels = sorted(r.label for r in
                                find_all_equilibria(topo, p, seed=i))
                assert labels == ["COEX", "ORIGIN"], (
                    f"{topo} draw {i}: equilibrium set {labels}"
                )
        info["detail"] = "5 topologies x 200 draws, always {ORIGIN, COEX}"


def test_06_transcritical_detection():
    with criterion(6, "transcritical-detection") as info:
        rng = np.random.default_rng(606)
        worst_thr = worst_coin = 0.0
        for i in range(20):
            p = apply_topology(draw_params(rng), "EX6")
            # Keep the two thresholds decoupled: a draw with r3 ~ m13
            # sits on the second threshold while sweeping the first.
            if abs(float(p.r[2] - p.m[0, 2])) < 1e-2:
                p = with_param(p, "r3", float(p.m[0, 2]) + 0.5)
            partner = "I2" if p.r[2] < p.m[0, 2] else "I3"
            for tok, thr, pair in (
                ("r2", float(p.m[0, 1] + p.m[2, 1]), (partner, "COEX")),
                ("r3", float(p.m[0, 2]), ("I2", "I3")),
            ):
                # Off-node window: 14 points over [0.52, 1.48]*thr never
                # land on the threshold, so refinement does the work.
                recs = sweep("EX6", p, tok, 0.52 * thr, 1.48 * thr, 14)
                cross = [c for r in recs for c in r.crossings]
                assert cross, f"draw {i}: no crossing on {tok}"
                err = min(abs(c.param_value - thr) for c in cross)
                assert err <= 1e-6, (
                    f"draw {i}: {tok} crossing off by {err:.2e}"
                )
                worst_thr = max(worst_thr, err)

                q = with_param(p, tok, thr)
                at = {r.label: r for r in find_all_equilibria("EX6", q)}
                assert set(pair) <= set(at), (
                    f"draw {i}: {pair} not both present at the threshold"
                )
                coin = float(np.max(np.abs(at[pair[0]].point
                                           - at[pair[1]].point)))
                assert coin <= 1e-5, (
                    f"draw {i}: exchanging pair {pair} apart by {coin:.2e}"
                )
                worst_coin = max(worst_coin, coin)
        info["detail"] = (f"20 draws x 2 thresholds; worst crossing error "
                          f"{worst_thr:.2e}, worst coincidence "
                          f"{worst_coin:.2e}")


def test_07_hopf_candidate():
    with criterion(7, "hopf-candidate") as info:
        # The trace-zero candidate is oscillatory only if the paired
        # condition holds at the candidate itself.  Substituting the
        # candidate turns that condition into -(r3-m13-m23)^2 - m23*m32,
        # which is negative for every positive-rate draw, so the
        # construction set is empty and the obligation is vacuous.  Both
        # facts are verified below, and the crossing detector the
        # criterion relies on is exercised on a case that does cross
        # with a complex pair.
        rng = np.random.default_rng(77)
        n = 100_000
        r = rng.uniform(0.1, 5.0, (n, 3))
        m12 = rng.uniform(0.0, 2.0, n)
        m13 = rng.uniform(0.0, 2.0, n)
        m23 = rng.uniform(0.0, 2.0, n)
        m32 = rng.uniform(0.0, 2.0, n)
        r2c = m13 + m23 + m32 + m12 - r[:, 2]
        det = (r2c - m12 - m32) * (r[:, 2] - m13 - m23) - m23 * m32
        genuine = (r2c > 0.0) & (det > 0.0)
        n_genuine = int(np.count_nonzero(genuine))
        assert n_genuine == 0, (
            f"{n_genuine} draws admit an oscillatory candidate; the "
            f"vacuity argument is wrong"
        )

        for i in range(20):
            p = apply_topology(draw_params(rng), "EX8")
            r2c_i, validity = hopf_candidate(p)
            assert validity == "DEGENERATE", (
                f"draw {i}: validity {validity} at candidate {r2c_i}"
            )

        # Detector sanity on a ring that genuinely crosses with ±i·√3.
        m = np.zeros((3, 3))
        m[1, 0] = m[2, 1] = m[0, 2] = 2.0
        ring = ModelParams(np.full(3, 3.0), np.ones(3), m)
        cross = [c for rec in sweep("EX1", ring, "m21", 1.5, 2.5, 11)
                 for c in rec.crossings if c.label == "ORIGIN"]
        assert len(cross) == 1 and cross[0].kind == "COMPLEX_PAIR"
        assert abs(cross[0].param_value - 2.0) <= 1e-6
        assert abs(abs(cross[0].eig_im) - math.sqrt(3.0)) <= 1e-6
        info["detail"] = (f"0/{n} draws satisfy the paired condition at the "
                          f"candidate (vacuous); detector confirmed on an "
                          f"oscillatory ring crossing")


def test_08_origin_conditions_unsatisfiable():
    with criterion(8, "origin-conditions-unsatisfiable") as info:
        t0 = time.perf_counter()
        rng = np.random.default_rng(8008)
        n = 100_000
        r = rng.uniform(0.1, 5.0, (n, 3))
        m12 = rng.uniform(0.0, 2.0, n)
        m13 = rng.uniform(0.0, 2.0, n)
        m31 = rng.uniform(0.0, 2.0, n)
        m32 = rng.uniform(0.0, 2.0, n)
        c1 = m12 + m32 > r[:, 1]
        c2 = m13 + m31 > r[:, 0] + r[:, 2]
        c3 = r[:, 0] * r[:, 2] > r[:, 0] * m13 + r[:, 2] * m31
        joint = int(np.count_nonzero(c1 & c2 & c3))
        assert joint == 0, f"{joint} draws stabilize total extinction"
        # Chain: c3 normalizes to m13/r3 + m31/r1 < 1, which caps
        # m13 + m31 below max(r1, r3) <= r1 + r3, contradicting c2 —
        # so c2 and c3 must never hold together, at any draw.
        both = int(np.count_nonzero(c2 & c3))
        assert both == 0, f"inequality chain violated on {both} draws"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s (limit 10s)"
        info["detail"] = (f"{n} draws: 0 joint hits, 0 chain violations "
                          f"({elapsed:.2f}s)")


def test_09_numerics_hygiene():
    with criterion(9, "numerics-hygiene") as info:
        rng = np.random.default_rng(9009)

        # Analytic Jacobian vs central differences, 1000 draws.
        worst_fd = 0.0
        for i in range(1000):
            p = draw_params(rng)
            x = rng.uniform(0.01, 10.0, 3)
            jac = jacobian(p, x)
            fd = np.empty((3, 3))
            h = 1e-6 * (1.0 + float(np.max(np.abs(x))))
            for j in range(3):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd[:, j] = (rhs(p, xp) - rhs(p, xm)) / (2.0 * h)
            scale = float(np.max(np.abs(jac))) + 1.0
            err = float(np.max(np.abs(jac - fd))) / scale
            assert err <= 1e-5, f"draw {i}: FD mismatch {err:.2e}"
            worst_fd = max(worst_fd, err)

        # Pure exchange conserves the total exactly (to roundoff).
        worst_drift = 0.0
        for i in range(1000):
            m = rng.uniform(0.0, 2.0, (3, 3))
            np.fill_diagonal(m, 0.0)
            p = ModelParams.unchecked(np.zeros(3), np.ones(3), m)
            x = rng.uniform(0.0, 5.0, 3)
            drift = abs(float(np.sum(rhs(p, x))))
            assert drift <= 1e-12, f"draw {i}: conservation drift {drift:.2e}"
            worst_drift = max(worst_drift, drift)

        # Integrator lands on known equilibria: coupled-symmetric and
        # fully decoupled.
        m = np.full((3, 3), 1.0) * (1 - np.eye(3))
        sym = ModelParams(np.ones(3), np.ones(3), m)
        traj = integrate(sym, [0.2, 1.7, 0.05], t_end=200.0)
        assert traj.terminal == "STEADY"
        assert float(np.max(np.abs(traj.states[-1] - 1.0))) <= 1e-6

        dec = ModelParams(np.array([0.7, 1.3, 2.1]),
                          np.array([2.0, 1.0, 3.5]), np.zeros((3, 3)))
        traj = integrate(dec, [0.1, 2.5, 1.0], t_end=200.0)
        assert traj.terminal == "STEADY"
        assert float(np.max(np.abs(traj.states[-1] - dec.k))) <= 1e-6

        # {-1, ±i}: the coarse sign test accepts, full Routh-Hurwitz
        # refuses (a1*a2 = a3, not >).
        co = CharacteristicCoefficients(trace=-1.0, m_j=1.0, det=-1.0)
        assert sign_conditions(co) == (True, True, True)
        assert not routh_hurwitz(co)

        info["detail"] = (f"worst FD error {worst_fd:.2e}; worst "
                          f"conservation drift {worst_drift:.2e}; both "
                          f"integrator landmarks within 1e-6; sign-test "
                          f"counterexample holds")


def test_10_global_stability_probe():
    with criterion(10, "global-stability-probe") as info:
        rng = np.random.default_rng(1010)
        fractions = []
        flagged = []
        for i in range(50):
            p = draw_params(rng)
            fr = basin_sample("FULL", p, n=200, seed=i)
            assert sum(fr.values()) == pytest.approx(1.0, abs=1e-12)
            coex = fr.get("COEX", 0.0)
            fractions.append(coex)
            if coex < 1.0:
                flagged.append((i, coex, dict(fr)))
        # Recorded, not asserted: the conjecture is that every positive
        # start reaches coexistence.  Any flagged run is a documented
        # finding for follow-up, not a defect in this package.
        detail = (f"50 draws x 200 starts; min COEX fraction "
                  f"{min(fractions):.4f}, mean {np.mean(fractions):.4f}")
        if flagged:
            detail += f"; FLAGGED {len(flagged)} runs below 1.0: "
            detail += ", ".join(f"draw {i} -> {dict(fr)}"
                                for i, _, fr in flagged[:5])
        else:
            detail += "; no run below 1.0"
        info["detail"] = detail
