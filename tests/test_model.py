"""Parameter validation, the vector field, and its analytic Jacobian."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build, hexes
from tripatch.model import (
    BOUNDARY_TOL,
    PARAM_TOKENS,
    ModelParams,
    ParameterError,
    _coeffs,
    _gap,
    _with_coeff,
    as_state,
    growth_terms,
    jacobian,
    rhs,
    with_param,
)
from tripatch.topology import TOPOLOGIES, apply_topology, permute_params, zeroed_rates
from tripatch.verification import draw_params

rates = st.floats(0.1, 5.0)
capacities = st.floats(0.1, 5.0)
migrations = st.floats(0.0, 2.0)
populations = st.floats(0.0, 10.0)


params_st = st.builds(
    build,
    st.tuples(rates, rates, rates),
    st.tuples(capacities, capacities, capacities),
    st.tuples(*(migrations,) * 6),
)
state_st = st.tuples(*(populations,) * 3).map(np.array)


def hollow(v):
    """3x3 rate matrix with constant off-diagonal value ``v``."""
    return np.full((3, 3), float(v)) * (1.0 - np.eye(3))


class TestModelParams:
    def test_rejects_nonpositive_growth(self):
        with pytest.raises(ParameterError, match="r\\[1\\]"):
            ModelParams(np.array([1.0, 0.0, 1.0]), np.ones(3), hollow(1))

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ParameterError, match="k\\[2\\]"):
            ModelParams(np.ones(3), np.array([1.0, 1.0, -2.0]), hollow(1))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ParameterError, match="shape"):
            ModelParams(np.ones(2), np.ones(3), hollow(1))
        with pytest.raises(ParameterError, match="shape"):
            ModelParams(np.ones(3), np.ones(3), np.zeros((2, 3)))

    def test_rejects_negative_rate(self):
        m = hollow(1)
        m[0, 2] = -0.5
        with pytest.raises(ParameterError, match="m\\[0\\]\\[2\\]"):
            ModelParams(np.ones(3), np.ones(3), m)

    def test_rejects_nonzero_diagonal(self):
        m = hollow(1)
        m[1, 1] = 1e-9
        with pytest.raises(ParameterError, match="m\\[1\\]\\[1\\]"):
            ModelParams(np.ones(3), np.ones(3), m)

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError, match="non-finite"):
            ModelParams(np.array([1.0, np.nan, 1.0]), np.ones(3), hollow(1))

    def test_arrays_are_frozen(self):
        p = ModelParams(np.ones(3), np.ones(3), hollow(1))
        with pytest.raises(ValueError):
            p.r[0] = 2.0
        with pytest.raises(ValueError):
            p.m[0, 1] = 2.0

    def test_equality_and_hash(self):
        a = ModelParams(np.ones(3), np.ones(3), hollow(1))
        b = ModelParams(np.ones(3), np.ones(3), hollow(1))
        c = ModelParams(np.ones(3), np.ones(3), hollow(2))
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not params"

    def test_unchecked_skips_validation(self):
        p = ModelParams.unchecked(np.zeros(3), np.ones(3), hollow(1))
        assert np.all(p.r == 0.0), "unchecked must allow r = 0"

    def test_with_param_replaces_each_token(self):
        p = ModelParams(np.ones(3), np.ones(3), hollow(1))
        for token in PARAM_TOKENS:
            q = with_param(p, token, 0.75)
            if token[0] == "r":
                assert q.r[int(token[1]) - 1] == 0.75
            elif token[0] == "k":
                assert q.k[int(token[1]) - 1] == 0.75
            else:
                assert q.m[int(token[1]) - 1, int(token[2]) - 1] == 0.75

    def test_with_param_rejects_unknown_token(self):
        p = ModelParams(np.ones(3), np.ones(3), hollow(1))
        with pytest.raises(ParameterError, match="m11"):
            with_param(p, "m11", 1.0)

    def test_with_param_revalidates(self):
        p = ModelParams(np.ones(3), np.ones(3), hollow(1))
        with pytest.raises(ParameterError):
            with_param(p, "r2", 0.0)


def reference_validate(r, k, m) -> None:
    """The per-entry checks ModelParams ran on every input before the
    whole-array test, as the reference for its error messages."""
    for name, arr in (("r", r), ("k", k), ("m", m)):
        if not np.all(np.isfinite(arr)):
            raise ParameterError(f"{name} contains non-finite entries")
    for i in range(3):
        if r[i] <= 0.0:
            raise ParameterError(f"r[{i}] must be strictly positive, got {r[i]}")
        if k[i] <= 0.0:
            raise ParameterError(f"k[{i}] must be strictly positive, got {k[i]}")
        if m[i, i] != 0.0:
            raise ParameterError(f"m[{i}][{i}] must be zero, got {m[i, i]}")
        for j in range(3):
            if i != j and m[i, j] < 0.0:
                raise ParameterError(
                    f"m[{i}][{j}] must be nonnegative, got {m[i, j]}"
                )


def reference_coeffs(params: ModelParams) -> tuple:
    """_coeffs as it read the arrays entry by entry through NumPy scalars."""
    r1, r2, r3 = (float(x) for x in params.r)
    k1, k2, k3 = (float(x) for x in params.k)
    m = params.m
    m12, m13 = float(m[0, 1]), float(m[0, 2])
    m21, m23 = float(m[1, 0]), float(m[1, 2])
    m31, m32 = float(m[2, 0]), float(m[2, 1])
    o1 = m21 + m31
    o2 = m12 + m32
    o3 = m13 + m23
    return (r1, r2, r3, k1, k2, k3, m12, m13, m21, m23, m31, m32, o1, o2, o3)


class TestValidationMessages:
    """The whole-array test passes valid input; faults keep their messages."""

    KINDS = ("non-finite", "r[", "k[", "must be zero", "nonnegative")

    def test_every_fault_combination_names_the_same_first_fault(self):
        rng = np.random.default_rng(0)
        values = [0.0, -0.0, -1.0, 1e-300, -1e-300, 2.5, np.nan, np.inf, -np.inf]
        seen = set()
        for _ in range(1500):
            r, k, m = np.ones(3), np.full(3, 2.0), hollow(0.5)
            for _ in range(int(rng.integers(1, 4))):
                v = values[int(rng.integers(len(values)))]
                which = int(rng.integers(3))
                if which == 0:
                    r[rng.integers(3)] = v
                elif which == 1:
                    k[rng.integers(3)] = v
                else:
                    m[rng.integers(3), rng.integers(3)] = v
            try:
                reference_validate(r, k, m)
                expected = None
            except ParameterError as exc:
                expected = str(exc)
            try:
                got = ModelParams(r, k, m)
            except ParameterError as exc:
                assert str(exc) == expected
            else:
                assert expected is None
                assert np.array_equal(got.m, m) and np.array_equal(got.r, r)
            seen.add(expected and next(
                kind for kind in self.KINDS if kind in expected))
        # Valid sets, and each message kind, were all drawn.
        assert seen == {None, *self.KINDS}

    def test_message_kinds_in_order(self):
        m = hollow(1.0)
        m[2, 1], m[1, 1] = -1.0, 3.0
        cases = [
            ((np.ones(3), np.ones(2), m), "k must have shape (3,), got (2,)"),
            ((np.array([1.0, -1.0, 1.0]), np.array([1.0, 1.0, np.inf]), m),
             "k contains non-finite entries"),
            ((np.array([1.0, -1.0, 1.0]), np.array([1.0, 0.0, 1.0]), m),
             "r[1] must be strictly positive, got -1.0"),
            ((np.ones(3), np.array([1.0, -0.0, 1.0]), m),
             "k[1] must be strictly positive, got -0.0"),
            ((np.ones(3), np.ones(3), m), "m[1][1] must be zero, got 3.0"),
            ((np.ones(3), np.ones(3), m * (1.0 - np.eye(3))),
             "m[2][1] must be nonnegative, got -1.0"),
        ]
        for args, message in cases:
            with pytest.raises(ParameterError) as info:
                ModelParams(*args)
            assert str(info.value) == message

    def test_signed_zero_rates_are_valid(self):
        m = hollow(1.0)
        m[0, 0], m[1, 2] = -0.0, -0.0
        ModelParams(np.ones(3), np.ones(3), m)


class TestCoefficientTuples:
    def test_coeffs_match_the_entrywise_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = draw_params(rng)
            assert hexes(_coeffs(p)) == hexes(reference_coeffs(p))
        q = ModelParams.unchecked(np.zeros(3), [1.0, -0.0, 2.0], hollow(-0.0))
        assert hexes(_coeffs(q)) == hexes(reference_coeffs(q))

    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_with_coeff_matches_rebuilt_params(self, topo):
        # Every token the topology keeps: sweep refuses the zeroed rates.
        rng = np.random.default_rng(TOPOLOGIES.index(topo))
        zeroed = {f"m{i + 1}{j + 1}" for i, j in zeroed_rates(topo)}
        for _ in range(4):
            p = draw_params(rng)
            c = _coeffs(apply_topology(p, topo))
            for tok in PARAM_TOKENS:
                if tok in zeroed:
                    continue
                if tok[0] == "m":
                    values = (0.0, float(rng.uniform(0.0, 2.0)))
                else:
                    values = (float(rng.uniform(0.1, 5.0)), 1e-300)
                for v in values:
                    want = _coeffs(apply_topology(with_param(p, tok, v), topo))
                    assert hexes(_with_coeff(c, tok, v)) == hexes(want), (topo, tok, v)


class TestGap:
    def test_matches_numpy_max_norm(self):
        rng = np.random.default_rng(0)
        values = [0.0, -0.0, 1.0, -2.5, 1e-300, math.inf, -math.inf, math.nan]
        pairs = [(rng.normal(size=3), rng.normal(size=3)) for _ in range(200)]
        pairs += [(np.array([values[i], values[j], values[k]]),
                   np.array([values[k], 1.0, values[i]]))
                  for i in range(8) for j in range(8) for k in range(8)]
        for a, b in pairs:
            with np.errstate(invalid="ignore"):
                want = float(np.max(np.abs(a - b)))
            assert repr(_gap(a.tolist(), b.tolist())) == repr(want), (a, b)

    def test_nan_anywhere_is_never_close(self):
        for i in range(3):
            a = [0.0, 0.0, 0.0]
            a[i] = math.nan
            assert math.isnan(_gap(a, [0.0, 0.0, 0.0]))
            assert not _gap([0.0, 0.0, 0.0], a) < 1e-6


class TestAsState:
    def test_rejects_negative_beyond_tolerance(self):
        with pytest.raises(ValueError, match="p2"):
            as_state([1.0, -1e-9, 1.0])

    def test_accepts_roundoff_negative(self):
        p = as_state([1.0, -0.5 * BOUNDARY_TOL, 1.0])
        assert p[1] == -0.5 * BOUNDARY_TOL

    def test_rejects_bad_shape_and_nan(self):
        with pytest.raises(ValueError, match="shape"):
            as_state([1.0, 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            as_state([1.0, np.inf, 1.0])


class TestRhs:
    def test_migration_direction_is_into_from(self):
        # Growth off; only the rate into patch 2 from patch 1 is set.
        m = np.zeros((3, 3))
        m[1, 0] = 1.0
        p = ModelParams.unchecked(np.zeros(3), np.ones(3), m)
        f = rhs(p, [2.0, 0.0, 0.0])
        assert np.allclose(f, [-2.0, 2.0, 0.0]), (
            f"m[1][0] must move mass from patch 1 into patch 2, got {f}"
        )

    def test_single_patch_logistic(self):
        p = ModelParams(np.array([2.0, 1.0, 1.0]), np.array([4.0, 1.0, 1.0]),
                        np.zeros((3, 3)))
        f = rhs(p, [1.0, 0.0, 0.0])
        assert f[0] == pytest.approx(2.0 * 1.0 * (1.0 - 0.25))
        assert f[1] == f[2] == 0.0

    @given(params_st, state_st)
    @settings(max_examples=200, deadline=None)
    def test_uncoupled_patches_grow_logistically(self, p, x):
        decoupled = ModelParams(p.r, p.k, np.zeros((3, 3)))
        expect = decoupled.r * x * (1.0 - x / decoupled.k)
        assert np.allclose(rhs(decoupled, x), expect, atol=1e-12)

    @given(params_st, state_st)
    @settings(max_examples=200, deadline=None)
    def test_migration_conserves_mass_when_growth_off(self, p, x):
        frozen = ModelParams.unchecked(np.zeros(3), p.k, p.m)
        total = float(np.sum(rhs(frozen, x)))
        scale = max(1.0, float(np.max(x)) * float(np.max(p.m)))
        assert abs(total) <= 1e-12 * scale, (
            f"sum(rhs) = {total} for rates {p.m.tolist()} at {x.tolist()}"
        )

    @given(params_st, state_st, st.permutations([0, 1, 2]))
    @settings(max_examples=200, deadline=None)
    def test_equivariant_under_patch_relabeling(self, p, x, perm):
        perm = tuple(perm)
        q = permute_params(p, perm)
        lhs = rhs(q, x[list(perm)])
        assert np.allclose(lhs, rhs(p, x)[list(perm)], atol=1e-12)


class TestJacobian:
    @given(params_st, state_st)
    @settings(max_examples=150, deadline=None)
    def test_matches_central_differences(self, p, x):
        x = x + 1e-3  # keep the downward probe inside the orthant
        jac = jacobian(p, x)
        fd = np.empty((3, 3))
        for j in range(3):
            h = 1e-6 * (1.0 + abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[:, j] = (rhs(p, xp) - rhs(p, xm)) / (2.0 * h)
        scale = max(1.0, float(np.max(np.abs(jac))))
        gap = float(np.max(np.abs(jac - fd))) / scale
        assert gap <= 1e-5, f"relative FD gap {gap} at state {x.tolist()}"

    @given(params_st, state_st)
    @settings(max_examples=100, deadline=None)
    def test_offdiagonal_equals_rate_matrix(self, p, x):
        jac = jacobian(p, x)
        off = jac - np.diag(np.diag(jac))
        m_off = p.m - np.diag(np.diag(p.m))
        assert np.array_equal(off, m_off), (
            "off-diagonal Jacobian entries must be the migration rates"
        )

    @given(params_st)
    @settings(max_examples=100, deadline=None)
    def test_growth_terms_landmarks(self, p):
        assert np.allclose(growth_terms(p, np.zeros(3)), p.r)
        assert np.allclose(growth_terms(p, p.k / 2.0), np.zeros(3), atol=1e-12)
        assert np.allclose(growth_terms(p, p.k), -p.r)
