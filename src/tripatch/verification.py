"""Self-check battery: randomized property scans over the whole library.

Each check returns a PropertyResult with a pass flag and a short detail
string (the first counterexample, when one exists).  A NumericalError on
a draw is a failed property that names the draw; any other exception is
a bug and propagates.  The battery is the engine behind ``tripatch
verify`` and deliberately routes through the public API — a sign error
injected into the rhs kernel, for example, must surface here as a failed
conservation law with a printed witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .equilibria import (
    POLISH_TOL,
    RESIDUAL_LIMIT,
    brute_force_equilibria,
    coexistence_by_construction,
    find_all_equilibria,
    newton_coexistence,
)
from .model import ModelParams, NumericalError
from .stability import classify
from .topology import (
    TOPOLOGIES,
    apply_topology,
    arcs_of_topology,
    canonical_form,
    enumerate_canonical,
    is_admissible,
    is_strongly_connected,
    iter_arc_sets,
)

__all__ = ["PropertyResult", "draw_params", "run_battery"]

STRONGLY_CONNECTED = ("FULL", "EX2", "HUB0", "EX3", "EX1")


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def draw_params(rng, m_lo: float = 0.0) -> ModelParams:
    """One random parameter set: r, k in [0.1, 5], rates in [m_lo, 2].

    Draws m, then r, then k from ``rng``; every seeded scan in the
    battery and the tests relies on that order.
    """
    m = rng.uniform(m_lo, 2.0, (3, 3))
    np.fill_diagonal(m, 0)
    return ModelParams(rng.uniform(0.1, 5.0, 3), rng.uniform(0.1, 5.0, 3), m)


def check_topology_census(seed: int, n: int) -> PropertyResult:
    """13 canonical classes; brute-force orbits agree; 5 strongly connected."""
    classes = enumerate_canonical()
    if len(classes) != 13:
        return PropertyResult("topology census", False,
                              f"expected 13 classes, got {len(classes)}")
    tokens = {canonical_form(a)[0] for a in iter_arc_sets() if is_admissible(a)}
    if tokens != {t for t, _ in classes}:
        return PropertyResult("topology census", False,
                              f"orbit scan found {sorted(tokens)}")
    strong = tuple(t for t, a in classes if is_strongly_connected(a))
    if set(strong) != set(STRONGLY_CONNECTED):
        return PropertyResult("topology census", False,
                              f"strongly connected set {strong}")
    return PropertyResult("topology census", True,
                          "13 classes, 5 strongly connected")


def check_existence_theorem(seed: int, n: int) -> PropertyResult:
    """Interior equilibrium exists for full coupling; two solvers agree."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(n):
        p = draw_params(rng)
        try:
            a = newton_coexistence(p)
            b = coexistence_by_construction(p)
        except NumericalError as exc:
            return PropertyResult("existence theorem", False, f"draw {i}: {exc}")
        gap = model._gap(a.point.tolist(), b.point.tolist())
        worst = max(worst, gap)
        # Written so that a NaN gap or residual fails.
        if not (gap <= 1e-6 and a.residual <= POLISH_TOL) \
                or float(np.min(a.point)) <= 0.0:
            return PropertyResult(
                "existence theorem", False,
                f"draw {i}: gap {gap:.2e}, residual {a.residual:.2e}, "
                f"point {a.point.tolist()}")
    return PropertyResult("existence theorem", True,
                          f"{n} draws, worst solver gap {worst:.1e}")


def check_oracle_equivalence(seed: int, n: int) -> PropertyResult:
    """Closed forms and the multistart oracle see the same equilibria."""
    rng = np.random.default_rng(seed)
    per = max(2, n // len(TOPOLOGIES))
    for topo in TOPOLOGIES:
        for i in range(per):
            p = draw_params(rng)
            try:
                recs = find_all_equilibria(topo, p, seed=i)
            except NumericalError as exc:
                return PropertyResult(
                    "oracle equivalence", False,
                    f"{topo} draw {i}: {exc}")
            bad = [x for x in recs if not x.residual <= RESIDUAL_LIMIT]
            if bad:
                return PropertyResult(
                    "oracle equivalence", False,
                    f"{topo} draw {i}: residual {bad[0].residual:.2e} "
                    f"on {bad[0].label}")
            if topo in STRONGLY_CONNECTED:
                labels = sorted(x.label for x in recs)
                if labels != ["COEX", "ORIGIN"]:
                    return PropertyResult(
                        "oracle equivalence", False,
                        f"{topo} draw {i}: labels {labels}")
    return PropertyResult("oracle equivalence", True,
                          f"{per} draws x {len(TOPOLOGIES)} topologies")


def check_classifier_consistency(seed: int, n: int) -> PropertyResult:
    """Eigenvalue verdict == conjunction of catalog rows (clear margins)."""
    rng = np.random.default_rng(seed)
    per = max(2, n // len(TOPOLOGIES))
    checked = 0
    for topo in TOPOLOGIES:
        for i in range(per):
            p = apply_topology(draw_params(rng), topo)
            try:
                found = [(rec, classify(topo, rec, p))
                         for rec in find_all_equilibria(topo, p, seed=i) if rec.feasible]
            except NumericalError as exc:
                return PropertyResult("classifier consistency", False,
                                      f"{topo} draw {i}: {exc}")
            for rec, rep in found:
                rows = [c for c in rep.conditions if c.kind == "stability"]
                if not rows or rep.classification == "MARGINAL":
                    continue
                if any(abs(c.lhs - c.rhs) <= 1e-6 for c in rows):
                    continue
                checked += 1
                verdict = all(c.holds for c in rows)
                if verdict != (rep.classification == "STABLE"):
                    return PropertyResult(
                        "classifier consistency", False,
                        f"{topo}/{rec.label} draw {i}: conditions say "
                        f"{'stable' if verdict else 'unstable'}, eigenvalues "
                        f"say {rep.classification}; point {rec.point.tolist()}")
    return PropertyResult("classifier consistency", True,
                          f"{checked} labeled equilibria checked")


def check_extinction_conditions(seed: int, n: int) -> PropertyResult:
    """The three total-extinction stability conditions exclude each other.

    Scanned jointly and confirmed through the inequality chain: whenever
    m13 + m31 > r1 + r3, convexity forces r1·r3 < r1·m13 + r3·m31.
    """
    rng = np.random.default_rng(seed)
    n = max(n, 1000)
    r1, r3 = rng.uniform(0.1, 5.0, (2, n))
    r2 = rng.uniform(0.1, 5.0, n)
    m12, m13, m31, m32 = rng.uniform(0.0, 2.0, (4, n))
    c1 = m12 + m32 > r2
    c2 = m13 + m31 > r1 + r3
    c3 = r1 * r3 > r1 * m13 + r3 * m31
    joint = c1 & c2 & c3
    if joint.any():
        i = int(np.flatnonzero(joint)[0])
        return PropertyResult(
            "extinction conditions exclusive", False,
            f"draw {i}: r=({r1[i]:.4f},{r2[i]:.4f},{r3[i]:.4f}), "
            f"m13={m13[i]:.4f}, m31={m31[i]:.4f} satisfies all three")
    chain_broken = c2 & c3
    if chain_broken.any():
        i = int(np.flatnonzero(chain_broken)[0])
        return PropertyResult(
            "extinction conditions exclusive", False,
            f"inequality chain violated at draw {i}")
    return PropertyResult("extinction conditions exclusive", True,
                          f"{n} draws, no joint solution")


def check_migration_conservation(seed: int, n: int) -> PropertyResult:
    """With growth off, migration only moves mass: sum(rhs) == 0."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        m = rng.uniform(0.0, 2.0, (3, 3))
        np.fill_diagonal(m, 0)
        p = ModelParams.unchecked(np.zeros(3), np.ones(3), m)
        x = rng.uniform(0.0, 10.0, 3)
        total = float(np.sum(model.rhs(p, x)))
        scale = max(1.0, float(np.max(np.abs(x))) * float(np.max(m)))
        if abs(total) > 1e-12 * scale:
            return PropertyResult(
                "migration conservation", False,
                f"draw {i}: sum(rhs) = {total:.3e} at state {x.tolist()} "
                f"with rates {m.tolist()}")
    return PropertyResult("migration conservation", True, f"{n} draws exact")


def check_jacobian_fd(seed: int, n: int) -> PropertyResult:
    """Analytic Jacobian against central finite differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(n):
        p = draw_params(rng)
        # Interior states only: the downward FD probe must stay >= 0.
        x = rng.uniform(0.01, 10.0, 3)
        jac = model.jacobian(p, x)
        fd = np.empty((3, 3))
        for j in range(3):
            h = 1e-6 * (1.0 + abs(x[j]))
            xp = x.copy(); xp[j] += h
            xm = x.copy(); xm[j] -= h
            fd[:, j] = (model.rhs(p, xp) - model.rhs(p, xm)) / (2 * h)
        rel = float(np.max(np.abs(jac - fd))) / max(1.0, float(np.max(np.abs(jac))))
        worst = max(worst, rel)
        if rel > 1e-5:
            return PropertyResult(
                "jacobian finite differences", False,
                f"draw {i}: relative gap {rel:.2e} at state {x.tolist()}")
    return PropertyResult("jacobian finite differences", True,
                          f"{n} draws, worst relative gap {worst:.1e}")


_CHECKS = (
    check_topology_census,
    check_existence_theorem,
    check_oracle_equivalence,
    check_classifier_consistency,
    check_extinction_conditions,
    check_migration_conservation,
    check_jacobian_fd,
)


def run_battery(seed: int = 0, n: int = 200) -> list[PropertyResult]:
    """Run every property check with ``n`` controlling draw counts; a
    ``seed`` that is no integer >= 0 or an ``n`` no integer >= 1 raises
    ParameterError."""
    seed, n = model._count("seed", seed, 0), model._count("n", n, 1)
    return [chk(seed, n) for chk in _CHECKS]
