"""Eigenvalue classification and the closed-form stability catalog.

Ground truth is always the spectrum of the 3×3 Jacobian, computed on
plain floats by an explicit Cardano/trigonometric cubic solver from the
characteristic coefficients, which a classification computes once and
also reports.  Alongside it, ``classify`` reports the literature's
algebraic tests evaluated numerically: the coarse
trace/minor-sum/determinant sign test as three rows, and the
per-topology closed-form inequalities keyed by stable condition-id
tokens.  The full cubic Routh–Hurwitz criterion is ``routh_hurwitz``,
which ``classify`` does not call: on model Jacobians, whose
off-diagonal entries are the rates ``m_ij ≥ 0``, it agrees with the
sign test.

On the one-way patterns (EX6, EX7/EX7N at Q1, CHAIN, CONVERGE,
DIVERGE) every row is one rule: a source patch's Jacobian block at
extinction is ``r_i − o_i``, with ``o_i`` its total outflow, so the row
compares ``r_i`` with ``o_i``.

Two of the transcribed inequalities are *corrected* relative to their
printed source: the patch-2-at-capacity conditions for the EX2N
topology use m23 where the print had m32 (which is identically zero in
that topology), and the X1 condition for CONVERGE compares r1 — not
r2 — with patch 1's outflow o1 = m21, as the rule does for every source
patch.  Both corrections are forced by the blocks the conditions
summarize, and the classifier-consistency tests would fail with the
printed versions.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, NumericalError, ParameterError, _coeffs, _count, _jac
from .equilibria import RESIDUAL_LIMIT, EquilibriumRecord
from .newton import _residual
from .topology import apply_topology, zeroed_rates

__all__ = [
    "CharacteristicCoefficients",
    "ConditionRow",
    "SpectrumOverflowError",
    "StabilityReport",
    "StaleEquilibriumError",
    "characteristic",
    "classify",
    "classify_matrix",
    "eigenvalues_3x3",
    "origin_never_stable_scan",
    "sign_conditions",
    "routh_hurwitz",
]

#: Relative half-width of the MARGINAL band around zero real part.
MARGINAL_BAND = 1e-9
MARGINAL_FLOOR = 1e-12

#: Root scale below which the cubic solver's products leave the normal range.
_TINY = 2.0 ** -160


class StaleEquilibriumError(NumericalError, ValueError):
    """classify() was handed a record whose residual exceeds RESIDUAL_LIMIT.

    Either the stored residual does, or the one recomputed at the record's
    point under the parameters and topology ``classify`` was given.
    """


class SpectrumOverflowError(NumericalError, OverflowError):
    """A Jacobian's characteristic cubic leaves the float range."""


@dataclass(frozen=True)
class CharacteristicCoefficients:
    """Invariants of a 3×3 matrix: char. poly is λ³ − trace·λ² + m_j·λ − det."""

    trace: float
    m_j: float
    det: float


@dataclass(frozen=True)
class ConditionRow:
    """One evaluated inequality: ``cid`` holds iff comparing lhs to rhs succeeds.

    ``kind`` is ``"stability"`` for rows whose conjunction is the
    closed-form stability criterion of the (topology, label) pair,
    ``"feasibility"`` for existence-range rows, and ``"sign_test"`` for
    the generic trace/minor/determinant rows computed everywhere.
    """

    cid: str
    holds: bool
    lhs: float
    rhs: float
    kind: str


@dataclass(frozen=True)
class StabilityReport:
    eigenvalues: tuple[complex, complex, complex]
    coefficients: CharacteristicCoefficients
    classification: str
    conditions: tuple[ConditionRow, ...]


def characteristic(j) -> CharacteristicCoefficients:
    """Trace, principal 2×2 minor sum, and determinant of a 3×3 matrix."""
    return _characteristic(_entries(j))


def _entries(j) -> tuple:
    """The nine entries of a 3×3 matrix, row-major, as floats."""
    a = np.asarray(j, dtype=float)
    if a.shape != (3, 3):
        raise ParameterError(f"expected a 3x3 matrix, got shape {a.shape}")
    return tuple(a.ravel().tolist())


def _characteristic(entries) -> CharacteristicCoefficients:
    """``characteristic`` of the row-major entries, as ``_jac`` returns them."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = entries
    tr = a00 + a11 + a22
    m_j = (
        a11 * a22 - a12 * a21
        + a00 * a22 - a02 * a20
        + a00 * a11 - a01 * a10
    )
    det = (
        a00 * (a11 * a22 - a12 * a21)
        - a01 * (a10 * a22 - a12 * a20)
        + a02 * (a10 * a21 - a11 * a20)
    )
    return CharacteristicCoefficients(trace=tr, m_j=m_j, det=det)


def eigenvalues_3x3(j) -> tuple[complex, complex, complex]:
    """Spectrum of a 3×3 matrix from its characteristic cubic.

    Closed-form (Cardano / trigonometric) roots, each polished by one
    Newton step on the polynomial, returned sorted by descending real
    part (ties broken by descending imaginary part).
    """
    entries = _entries(j)
    return _spectrum(entries, _characteristic(entries))


def _spectrum(entries, co: CharacteristicCoefficients
              ) -> tuple[complex, complex, complex]:
    """eigenvalues_3x3 of the matrix of row-major ``entries``, whose
    coefficients are ``co``.

    With every coefficient below its power of _TINY the solver's sixth powers
    and ``det`` underflow, so the roots of the matrix times ``2**-e`` (exact) are
    scaled back.
    SpectrumOverflowError if a coefficient is not finite or the solver overflows."""
    b, c, d = -co.trace, co.m_j, -co.det
    if all(map(math.isfinite, (b, c, d))):
        try:
            if not (abs(b) < _TINY and abs(c) < _TINY ** 2
                    and abs(d) < _TINY ** 3 and (b or c or d)):
                return _cubic_roots(b, c, d)
            e = max(math.frexp(v)[1] // n for n, v in ((1, b), (2, c), (3, d)) if v)
            small = _characteristic([math.ldexp(v, -e) for v in entries])
            roots = _cubic_roots(-small.trace, small.m_j, -small.det)
            return tuple(complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))
                         for z in roots)
        except OverflowError:
            pass
    raise SpectrumOverflowError(
        f"characteristic coefficients leave the float range: trace "
        f"{co.trace:.3e}, minor sum {co.m_j:.3e}, det {co.det:.3e}")


def _cubic_roots(b: float, c: float, d: float) -> tuple[complex, complex, complex]:
    """Roots of λ³ + bλ² + cλ + d via the depressed cubic in λ + b/3."""
    shift = b / 3.0
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        s = math.sqrt(disc)
        u = math.copysign(abs(-q / 2.0 + s) ** (1.0 / 3.0), -q / 2.0 + s)
        v = math.copysign(abs(-q / 2.0 - s) ** (1.0 / 3.0), -q / 2.0 - s)
        t1 = u + v
        # Remaining quadratic factor t² + t1·t + (t1² + p) = 0.
        quad_disc = t1 * t1 - 4.0 * (t1 * t1 + p)
        rt = cmath.sqrt(quad_disc)
        roots = [complex(t1), (-t1 + rt) / 2.0, (-t1 - rt) / 2.0]
    elif p == 0.0:
        roots = [0j, 0j, 0j]  # triple root (disc ≤ 0 with p = 0 forces q = 0)
    else:
        rho = math.sqrt(-p / 3.0)
        arg = max(-1.0, min(1.0, 3.0 * q / (2.0 * p * rho)))
        theta = math.acos(arg)
        roots = [
            complex(2.0 * rho * math.cos((theta - 2.0 * math.pi * kk) / 3.0))
            for kk in range(3)
        ]
    polished = []
    for t in roots:
        z = t - shift
        f = ((z + b) * z + c) * z + d
        fp = (3.0 * z + 2.0 * b) * z + c
        if abs(fp) > 0.0:
            zn = z - f / fp
            fn = ((zn + b) * zn + c) * zn + d
            # The step refines a simple root; at a repeated root fp is
            # roundoff noise and the step would fling the root away, so
            # keep it only when the residual actually shrinks.
            if abs(fn) < abs(f):
                z = zn
        polished.append(z)
    # An imaginary part at round-off level of the spectrum's scale is noise.
    floor = 1e-14 * max(map(abs, polished))
    polished = [complex(z.real, 0.0) if abs(z.imag) <= floor else z
                for z in polished]
    polished.sort(key=lambda z: (-z.real, -z.imag))
    return tuple(polished)


def sign_conditions(c: CharacteristicCoefficients) -> tuple[bool, bool, bool]:
    """The coarse sign test: trace < 0, minor sum > 0, determinant < 0.

    For a general matrix it is necessary for stability but not
    sufficient — it omits the Routh–Hurwitz product condition, so purely
    imaginary pairs can slip through (see :func:`routh_hurwitz`).  On
    model Jacobians the two tests agree: their off-diagonal entries are
    nonnegative, so the eigenvalue of largest real part is real, and
    positive coefficients leave the cubic no real root ≥ 0.
    """
    return (c.trace < 0.0, c.m_j > 0.0, c.det < 0.0)


def routh_hurwitz(c: CharacteristicCoefficients) -> bool:
    """Full cubic Routh–Hurwitz criterion: all roots in the open left half-plane."""
    a3, hurwitz = _axis_terms(c)
    return -c.trace > 0.0 and a3 > 0.0 and hurwitz > 0.0


def _axis_terms(c: CharacteristicCoefficients) -> tuple[float, float]:
    """``a3 = −det`` and ``a1·a2 − a3`` of λ³ + a1λ² + a2λ + a3: a root is on the
    imaginary axis iff a3 = 0 (at 0) or a1·a2 = a3 with a2 > 0 (at ±i√a2)."""
    a3 = -c.det
    return a3, -c.trace * c.m_j - a3


def _classification(eigenvalues) -> str:
    """Class of a spectrum sorted by descending real part, so the first
    eigenvalue decides; real parts within the MARGINAL band count as zero."""
    lead = eigenvalues[0].real
    margin = max(MARGINAL_FLOOR, MARGINAL_BAND * max(map(abs, eigenvalues)))
    if lead < -margin:
        return "STABLE"
    return "UNSTABLE" if lead > margin else "MARGINAL"


def classify_matrix(j) -> tuple[str, tuple[complex, ...], CharacteristicCoefficients]:
    """Classify an arbitrary Jacobian, as classify() does the model's."""
    return _classify_entries(_entries(j))


def _classify_entries(entries):
    """``classify_matrix`` of the matrix of row-major ``entries``."""
    co = _characteristic(entries)
    eig = _spectrum(entries, co)
    return _classification(eig), eig, co


# ---------------------------------------------------------------------------
# Closed-form condition catalog, keyed by (topology, equilibrium label).
#
# Each entry is a row builder: it takes the flat coefficient tuple and the
# equilibrium point and returns a list of (condition id, kind, (lhs, rhs,
# holds)).  The conjunction of the "stability" rows of a pair is equivalent
# to all eigenvalues having negative real part, which the
# classifier-consistency suite checks against the spectrum.
# ---------------------------------------------------------------------------


def _gt(lhs, rhs):
    return lhs, rhs, lhs > rhs


def _lt(lhs, rhs):
    return lhs, rhs, lhs < rhs


def _rows_ex2n_x(c, p):
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32 = c[:12]
    return [
        ("X_stab_mod7bis_1", "stability", _gt(m31 + m13 + m23, r1 + r3)),
        ("X_stab_mod7bis_2", "stability",
         _gt((m31 - r1) * (m13 + m23 - r3), m13 * m31)),
    ]


def _rows_ex7_origin(c, p):
    (r1, r2, r3), (o1, o2, o3) = c[:3], c[12:]
    return [
        ("stab_orig_mod7bis_1", "stability", _gt(o2, r2)),
        ("stab_orig_mod7bis_2", "stability", _gt(o3 + o1, r1 + r3)),
        ("stab_orig_mod7bis_3", "stability", _gt(r1 * r3, r1 * o3 + r3 * o1)),
    ]


def _rows_ex7_coex(c, p):
    r2, k2, o2 = c[1], c[4], c[13]
    return [("stab_1_mod7bis", "stability", _gt(o2 + 2.0 * r2 * p[1] / k2, r2))]


def _rows_ex8_coex(c, p):
    k1 = c[3]
    return [("Stab_8_coex", "stability", _lt(k1, 2.0 * p[0]))]


def _rows_ex8_m2(c, p):
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32 = c[:12]
    return [
        ("stab_82_1", "stability", _lt(r2 + r3, m12 + m32 + m13 + m23)),
        ("stab_82_2", "stability",
         _gt((r2 - m12) * (r3 - m13), (r2 - m12) * m23 + (r3 - m13) * m32)),
    ]


#: The one-way patterns' rows (module docstring), each (condition id, kind,
#: patch i, _lt or _gt).
_ONE_WAY_ROWS = {
    ("EX7", "Q1"): (("Q1_stab_mod7bis", "stability", 1, _lt),),
    ("EX7N", "Q1"): (("Q1_stab_mod7bis", "stability", 1, _lt),),
    ("EX6", "COEX"): (("ce4", "stability", 1, _gt),),
    ("EX6", "I2"): (("stab_I2_1", "stability", 1, _lt),
                    ("stab_I2_2", "stability", 2, _lt)),
    ("EX6", "I3"): (("stab_I2_1", "stability", 1, _lt),
                    ("feas_I3", "feasibility", 2, _gt)),
    ("CHAIN", "W2"): (("stab_Q2_1", "stability", 0, _lt),
                      ("stab_Q2_2", "stability", 1, _lt)),
    ("CHAIN", "W3"): (("stab_Q2_1", "stability", 0, _lt),),
    ("CONVERGE", "X1"): (("stab_X1_1", "stability", 0, _lt),
                         ("stab_X1_2", "stability", 2, _lt)),
    ("CONVERGE", "X2"): (("feas_X2", "stability", 2, _lt),),
    ("CONVERGE", "Y3"): (("feas_Y3", "stability", 0, _lt),),
    ("CONVERGE", "COEX"): (("feas_P*_n2_1", "stability", 0, _gt),
                           ("feas_P*_n2_2", "stability", 2, _gt)),
    ("DIVERGE", "Z3"): (("stab_Z3", "stability", 1, _lt),),
    ("DIVERGE", "COEX"): (("feas_P*_16", "stability", 1, _gt),),
}


def _one_way(rows, c, p):
    """The rows of one ``_ONE_WAY_ROWS`` entry, each comparing r_i = ``c[i]``
    with o_i = ``c[12 + i]``."""
    return [(cid, kind, op(c[i], c[12 + i])) for cid, kind, i, op in rows]


_CONDITION_TABLE = {
    ("EX2N", "X_EX2N"): _rows_ex2n_x,
    ("EX7", "ORIGIN"): _rows_ex7_origin,
    ("EX7N", "ORIGIN"): _rows_ex7_origin,
    ("EX7", "COEX"): _rows_ex7_coex,
    ("EX7N", "COEX"): _rows_ex7_coex,
    ("EX8", "COEX"): _rows_ex8_coex,
    ("EX8", "M2_EX8"): _rows_ex8_m2,
    **{key: functools.partial(_one_way, rows) for key, rows in _ONE_WAY_ROWS.items()},
}


def classify(topo: str, eq: EquilibriumRecord, params: ModelParams) -> StabilityReport:
    """Full stability report for one equilibrium of one topology.

    Classifies by the spectrum of the analytic Jacobian at ``eq.point``
    and evaluates every catalog inequality applicable to
    ``(topo, eq.label)``, plus the generic sign-test rows.  ``params``
    is projected onto ``topo`` first.  Raises
    :class:`StaleEquilibriumError` if the record's residual exceeds
    ``RESIDUAL_LIMIT`` or is NaN (the point is not actually an equilibrium),
    and likewise if the residual recomputed at ``eq.point`` under the
    projected parameters does (the record belongs to another parameter
    set or topology).
    """
    c = _coeffs(apply_topology(params, topo))
    if eq.residual <= RESIDUAL_LIMIT:  # else _classify refuses the record
        res = _residual(c, *np.asarray(eq.point, dtype=float).tolist())
        if not res <= RESIDUAL_LIMIT:
            raise StaleEquilibriumError(
                f"record {eq.label} has residual {res:.2e} > {RESIDUAL_LIMIT:.0e}"
                f" under {topo} at these parameters"
            )
    return _classify(topo, c, eq)


def _classify(topo: str, c: tuple, eq: EquilibriumRecord) -> StabilityReport:
    """``classify`` with the projected set's coefficient tuple ``c``.

    ``c`` must be projected onto ``topo``: the one-way rows read the
    outflows ``o_i``, which would otherwise count a rate the pattern zeroes.
    """
    if not eq.residual <= RESIDUAL_LIMIT:  # a NaN residual is refused too
        raise StaleEquilibriumError(
            f"record {eq.label} has residual {eq.residual:.2e} > {RESIDUAL_LIMIT:.0e}"
        )
    p = np.asarray(eq.point, dtype=float).tolist()
    classification, eig, co = _classify_entries(_jac(c, *p))
    signs = zip(("traceJ", "MJ", "detJ"), sign_conditions(co),
                (co.trace, co.m_j, co.det))
    rows = [ConditionRow(cid, holds, lhs, 0.0, "sign_test") for cid, holds, lhs in signs]
    builder = _CONDITION_TABLE.get((topo, eq.label))
    if builder is not None:
        for cid, kind, (lhs, rhs, holds) in builder(c, p):
            rows.append(ConditionRow(cid, bool(holds), float(lhs), float(rhs), kind))
    return StabilityReport(eigenvalues=eig, coefficients=co,
                           classification=classification, conditions=tuple(rows))


def origin_never_stable_scan(topo: str, n_draws: int, seed: int):
    """Random search for parameters that stabilize the origin under ``topo``.

    Draws r, k uniform in [0.1, 5] and rates uniform in [0, 2] (zeroed
    per topology), classifies the origin of each draw in turn with
    ``classify_matrix``, and returns the first stabilizing ModelParams —
    or None, which is the expected outcome: every admissible topology
    keeps some escape route from total extinction.
    """
    n_draws, seed = _count("n_draws", n_draws, 1), _count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.1, 5.0, (n_draws, 3))
    k = rng.uniform(0.1, 5.0, (n_draws, 3))
    m = rng.uniform(0.0, 2.0, (n_draws, 3, 3))
    m[:, range(3), range(3)] = 0.0
    for i, j in zeroed_rates(topo):
        m[:, i, j] = 0.0
    jac = m.copy()
    outflow = m.sum(axis=1)  # column sums: total outflow of each patch
    for i in range(3):
        jac[:, i, i] = r[:, i] - outflow[:, i]
    for i in range(n_draws):
        if classify_matrix(jac[i])[0] == "STABLE":
            return ModelParams(r[i], k[i], m[i])
    return None
