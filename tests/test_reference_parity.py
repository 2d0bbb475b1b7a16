"""Differential tests: the in-house sampler and root finder against SciPy.

The package itself depends on NumPy only.  ``_halton`` and ``_brentq``
replace ``scipy.stats.qmc.Halton(scramble=True)`` and
``scipy.optimize.brentq``; these tests pin them to the library versions
bit for bit (skipped when SciPy is not installed), and check that
importing the CLI pulls in no SciPy module.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import tripatch
from tripatch import equilibria
from tripatch.equilibria import (
    BracketError,
    ConvergenceError,
    _brentq,
    _halton,
    closed_form_equilibria,
    coexistence_by_construction,
)
from tripatch.topology import apply_topology
from tripatch.verification import draw_params


@pytest.mark.parametrize("n", [1, 12, 64, 200, 2000])
@pytest.mark.parametrize("d", [2, 3])
def test_halton_matches_scipy(d, n):
    qmc = pytest.importorskip("scipy.stats.qmc")
    for seed in range(200):
        ref = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
        assert np.array_equal(_halton(d, n, seed), ref), (d, n, seed)


def test_brentq_matches_scipy_at_both_call_sites(monkeypatch):
    optimize = pytest.importorskip("scipy.optimize")
    calls = []

    def checked(f, a, b, xtol, rtol):
        got = _brentq(f, a, b, xtol, rtol)
        assert got == optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)
        calls.append(f.__name__)
        return got

    monkeypatch.setattr(equilibria, "_brentq", checked)
    rng = np.random.default_rng(2024)
    for _ in range(500):
        p = draw_params(rng)
        coexistence_by_construction(p)
        for topo in ("EX7", "EX7N"):
            closed_form_equilibria(topo, apply_topology(p, topo))
    # F: parabola intersections; g: the height fixed point.
    assert calls.count("g") == 500
    assert calls.count("F") > 10_000

    def ends_at_one(x):
        return x * (x - 1.0)

    # A root at either end of the bracket is returned as it is.
    assert checked(ends_at_one, 1.0, 2.0, 1e-12, 8.9e-16) == 1.0
    assert checked(ends_at_one, 0.5, 1.0, 1e-12, 8.9e-16) == 1.0


def test_brentq_errors():
    optimize = pytest.importorskip("scipy.optimize")

    def f(x):
        return x * x + 1.0

    with pytest.raises(ValueError, match="different signs"):
        optimize.brentq(f, -1.0, 1.0)
    with pytest.raises(BracketError):
        _brentq(f, -1.0, 1.0, 1e-12, 8.9e-16)
    with pytest.raises(ConvergenceError):
        _brentq(lambda x: x - 0.3, 0.0, 1.0, 1e-15, 8.9e-16, maxiter=1)


def test_cli_import_loads_no_scipy():
    src = str(pathlib.Path(tripatch.__file__).resolve().parents[1])
    code = ("import sys, tripatch.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
