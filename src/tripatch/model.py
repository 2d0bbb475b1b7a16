"""Core vector field of a three-patch logistic metapopulation.

Each patch grows logistically and exchanges individuals with the other
two patches through linear migration.  The rate matrix follows the
*into* convention: ``m[i][j]`` is the per-capita rate at which
individuals move into patch ``i`` from patch ``j``.  Row ``i`` of ``m``
therefore collects the inflows of patch ``i`` and column ``j`` collects
the outflows of patch ``j``:

    dP_i/dt = r_i P_i (1 - P_i/k_i) + sum_j m[i][j] P_j
              - (sum_j m[j][i]) P_i

Rates are written ``m12, m13, ...`` in 1-based notation throughout the
package, so ``m12 == m[0][1]`` is the rate into patch 1 from patch 2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BOUNDARY_TOL",
    "PARAM_TOKENS",
    "ModelParams",
    "NumericalError",
    "ParameterError",
    "TripatchError",
    "as_state",
    "growth_terms",
    "jacobian",
    "rhs",
    "with_param",
]

#: States are admissible down to this much round-off below zero.
BOUNDARY_TOL = 1e-12


class TripatchError(Exception):
    """Root of every error the package raises on purpose."""


class ParameterError(TripatchError, ValueError):
    """An argument, parameter set, configuration or sweep target is out of
    domain: the caller's mistake, not a failed computation."""


class NumericalError(TripatchError, RuntimeError):
    """A computation on valid input failed: a solver did not converge, a
    bracket or a cross-check failed, or a value left the float range."""


def _count(name: str, value, least: int) -> int:
    """``value`` as an int of at least ``least``, or a ParameterError naming it.

    ``operator.index`` takes NumPy integers but not floats, even whole ones.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")
    return value


def _positive(name: str, *values: float) -> None:
    """Raise a ParameterError naming ``name`` unless every value is finite and > 0."""
    if not all(math.isfinite(v) and v > 0.0 for v in values):
        got = ", ".join(map(str, values))
        raise ParameterError(f"{name} must be finite and positive, got {got}")


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Immutable parameter set: growth rates, capacities, migration matrix.

    Parameters
    ----------
    r : array-like, shape (3,)
        Intrinsic growth rates, strictly positive.
    k : array-like, shape (3,)
        Carrying capacities, strictly positive.
    m : array-like, shape (3, 3)
        Migration rates in the into convention (``m[i][j]`` = rate into
        patch ``i`` from patch ``j``).  Off-diagonal entries must be
        nonnegative; the diagonal must be exactly zero.
    """

    r: np.ndarray
    k: np.ndarray
    m: np.ndarray

    def __post_init__(self) -> None:
        r = np.array(self.r, dtype=float)
        k = np.array(self.k, dtype=float)
        m = np.array(self.m, dtype=float)
        if r.shape != (3,):
            raise ParameterError(f"r must have shape (3,), got {r.shape}")
        if k.shape != (3,):
            raise ParameterError(f"k must have shape (3,), got {k.shape}")
        if m.shape != (3, 3):
            raise ParameterError(f"m must have shape (3, 3), got {m.shape}")
        rs, ks, ms = r.tolist(), k.tolist(), m.tolist()
        for name, vals in (("r", rs), ("k", ks), ("m", ms[0] + ms[1] + ms[2])):
            if not all(map(math.isfinite, vals)):
                raise ParameterError(f"{name} contains non-finite entries")
        for i in range(3):
            if rs[i] <= 0.0:
                raise ParameterError(f"r[{i}] must be strictly positive, got {rs[i]}")
            if ks[i] <= 0.0:
                raise ParameterError(f"k[{i}] must be strictly positive, got {ks[i]}")
            if ms[i][i] != 0.0:
                raise ParameterError(f"m[{i}][{i}] must be zero, got {ms[i][i]}")
            for j in range(3):
                if i != j and ms[i][j] < 0.0:
                    raise ParameterError(
                        f"m[{i}][{j}] must be nonnegative, got {ms[i][j]}")
        for name, arr in (("r", r), ("k", k), ("m", m)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelParams):
            return NotImplemented
        return (np.array_equal(self.r, other.r)
                and np.array_equal(self.k, other.k)
                and np.array_equal(self.m, other.m))

    def __hash__(self) -> int:
        return hash((self.r.tobytes(), self.k.tobytes(), self.m.tobytes()))

    @classmethod
    def unchecked(cls, r, k, m) -> "ModelParams":
        """Build a parameter set without invariant checks.

        Exists so tests can probe structural properties at the domain
        boundary (e.g. migration-only dynamics with ``r = 0``).  Regular
        code should use the validating constructor.
        """
        obj = object.__new__(cls)
        for name, arr in (("r", r), ("k", k), ("m", m)):
            a = np.array(arr, dtype=float)
            a.flags.writeable = False
            object.__setattr__(obj, name, a)
        return obj


#: Single-parameter tokens accepted by :func:`with_param` and the CLI.
PARAM_TOKENS = (
    "r1", "r2", "r3", "k1", "k2", "k3",
    "m12", "m13", "m21", "m23", "m31", "m32",
)

#: 0-based index of each token's entry in its array: ``r2`` → (1,), ``m13`` → (0, 2).
_ENTRY = {name: tuple(int(d) - 1 for d in name[1:]) for name in PARAM_TOKENS}


def with_param(params: ModelParams, name: str, value: float) -> ModelParams:
    """Return a copy of ``params`` with one named scalar replaced.

    ``name`` uses 1-based tokens: ``r1..r3``, ``k1..k3``, and ``mIJ``
    for the rate into patch I from patch J.  The replacement is fully
    revalidated, so driving ``r`` or ``k`` to zero raises
    :class:`ParameterError`.
    """
    if name not in PARAM_TOKENS:
        raise ParameterError(f"unknown parameter token {name!r}")
    arrays = {"r": np.array(params.r), "k": np.array(params.k),
              "m": np.array(params.m)}
    arrays[name[0]][_ENTRY[name]] = value
    return ModelParams(**arrays)


def as_state(state) -> np.ndarray:
    """Validate and coerce a population state to a float (3,) array.

    Components may undershoot zero by at most :data:`BOUNDARY_TOL`
    (round-off from integration); anything more negative is rejected.
    """
    p = np.asarray(state, dtype=float)
    if p.shape != (3,):
        raise ParameterError(f"state must have shape (3,), got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ParameterError("state contains non-finite entries")
    for i in range(3):
        if p[i] < -BOUNDARY_TOL:
            raise ParameterError(
                f"state component p{i + 1} = {p[i]} is negative beyond tolerance"
            )
    return p


# ---------------------------------------------------------------------------
# Scalar kernels.
#
# Equilibrium search and integration evaluate the vector field millions of
# times on 3-vectors, where numpy's per-call overhead dominates.  The public
# array API below delegates to these tuple-based kernels; both views share
# the same formulas through _coeffs.
# ---------------------------------------------------------------------------


def _coeffs(params: ModelParams) -> tuple:
    """Unpack params to flat floats: the PARAM_TOKENS values, then outflows."""
    (_, m12, m13), (m21, _, m23), (m31, m32, _) = params.m.tolist()
    return _with_outflows(*params.r.tolist(), *params.k.tolist(),
                          m12, m13, m21, m23, m31, m32)


def _with_outflows(r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32) -> tuple:
    o1 = m21 + m31   # total per-capita outflow of patch 1
    o2 = m12 + m32
    o3 = m13 + m23
    return (r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3)


def _with_coeff(c: tuple, name: str, value: float) -> tuple:
    """``c`` with ``name`` set to ``value`` and outflows recomputed, like an
    unvalidated :func:`with_param`."""
    v = list(c[:12])
    v[PARAM_TOKENS.index(name)] = value
    return _with_outflows(*v)


def _gap(a, b) -> float:
    """``float(np.max(np.abs(a - b)))`` of two 3-points on plain floats (NaN wins)."""
    d1, d2, d3 = abs(a[0] - b[0]), abs(a[1] - b[1]), abs(a[2] - b[2])
    return math.nan if math.isnan(d1 + d2 + d3) else max(d1, d2, d3)


def _rhs(c: tuple, p1: float, p2: float, p3: float) -> tuple:
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    f1 = r1 * p1 * (1.0 - p1 / k1) + m12 * p2 + m13 * p3 - o1 * p1
    f2 = r2 * p2 * (1.0 - p2 / k2) + m21 * p1 + m23 * p3 - o2 * p2
    f3 = r3 * p3 * (1.0 - p3 / k3) + m31 * p1 + m32 * p2 - o3 * p3
    return f1, f2, f3


def _jac(c: tuple, p1: float, p2: float, p3: float) -> tuple:
    """Jacobian entries row-major; off-diagonals are the m entries."""
    r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3 = c
    a11 = r1 - 2.0 * r1 * p1 / k1 - o1
    a22 = r2 - 2.0 * r2 * p2 / k2 - o2
    a33 = r3 - 2.0 * r3 * p3 / k3 - o3
    return (a11, m12, m13, m21, a22, m23, m31, m32, a33)


def rhs(params: ModelParams, state) -> np.ndarray:
    """Time derivative of the three patch populations.

    Parameters
    ----------
    params : ModelParams
    state : array-like, shape (3,)
        Nonnegative populations (validated to :data:`BOUNDARY_TOL`).

    Returns
    -------
    numpy.ndarray, shape (3,)
        Logistic growth plus net migration for each patch.
    """
    p = as_state(state)
    return np.array(_rhs(_coeffs(params), p[0], p[1], p[2]))


def jacobian(params: ModelParams, state) -> np.ndarray:
    """Jacobian of :func:`rhs` at ``state``.

    The off-diagonal part equals the migration matrix ``m`` and does not
    depend on the state; entry ``(i, i)`` is
    ``r_i (1 - 2 P_i/k_i) - sum_j m[j][i]``.
    """
    p = as_state(state)
    return np.array(_jac(_coeffs(params), p[0], p[1], p[2])).reshape(3, 3)


def growth_terms(params: ModelParams, state) -> np.ndarray:
    """Per-patch growth responses r_i (1 - 2 P_i/k_i).

    These are the migration-free diagonal contributions to the Jacobian:
    ``r_i`` at extinction, zero at half capacity, ``-r_i`` at carrying
    capacity.  Several closed-form stability criteria are written in
    terms of them.
    """
    p = as_state(state)
    r, k = params.r, params.k
    return r * (1.0 - 2.0 * p / k)
