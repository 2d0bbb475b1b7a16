"""The package boundary: its public names and its two error categories."""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import pkgutil

import numpy as np
import pytest

import tripatch
import tripatch.cli
from tripatch import (
    bifurcation,
    equilibria,
    model,
    simulate,
    stability,
    topology,
    verification,
)
from tripatch.cli import ConfigError, main
from tripatch.equilibria import (
    BracketError,
    ConsistencyError,
    ConvergenceError,
)
from tripatch.model import NumericalError, ParameterError, TripatchError
from tripatch.simulate import StepUnderflowError
from tripatch.stability import SpectrumOverflowError, StaleEquilibriumError
from tripatch.topology import InadmissibleArcsError

MODULES = (model, topology, equilibria, stability, bifurcation, simulate,
           verification)

#: ``tripatch.__all__`` of version 0.1.0 before it was built from the
#: modules, less the singular-Jacobian error that nothing raises any more.
EARLIER_NAMES = frozenset({
    "ADMITTED_LABELS", "BOUNDARY_TOL", "BracketError",
    "CharacteristicCoefficients", "ConditionRow", "ConsistencyError",
    "ConvergenceError", "Crossing", "EQUILIBRIUM_LABELS", "EquilibriumRecord",
    "InadmissibleArcsError", "ModelParams", "PARAM_TOKENS", "ParameterError",
    "PropertyResult", "SpectrumOverflowError",
    "StabilityReport", "StaleEquilibriumError", "StepUnderflowError",
    "SweepRecord", "TOPOLOGIES", "Trajectory", "__version__",
    "apply_topology", "arc_labels", "arcs_of_topology", "as_state",
    "basin_sample", "brute_force_equilibria", "canonical_form",
    "characteristic", "classify", "closed_form_equilibria",
    "coexistence_by_construction", "eigenvalues_3x3", "enumerate_canonical",
    "find_all_equilibria", "growth_terms", "hopf_candidate", "integrate",
    "is_admissible", "is_strongly_connected", "iter_arc_sets", "jacobian",
    "newton_coexistence", "origin_never_stable_scan", "permute_params", "rhs",
    "routh_hurwitz", "run_battery", "sign_conditions", "sweep",
    "transcritical_thresholds", "with_param", "zeroed_rates",
})

#: Each error class and the built-in base its callers may catch it by.
BUILTIN_BASE = {
    ParameterError: ValueError,
    ConfigError: ValueError,
    InadmissibleArcsError: ValueError,
    NumericalError: RuntimeError,
    ConvergenceError: RuntimeError,
    BracketError: RuntimeError,
    ConsistencyError: RuntimeError,
    StepUnderflowError: RuntimeError,
    StaleEquilibriumError: ValueError,
    SpectrumOverflowError: OverflowError,
}


def defined_errors() -> set[type]:
    """Every exception class defined in a tripatch module."""
    found = set()
    for info in pkgutil.iter_modules(tripatch.__path__):
        mod = importlib.import_module(f"tripatch.{info.name}")
        found.update(obj for obj in vars(mod).values()
                     if isinstance(obj, type) and issubclass(obj, BaseException)
                     and obj.__module__ == mod.__name__)
    return found


class TestNames:
    def test_namespace_is_the_union_of_the_module_lists(self):
        names = tripatch.__all__
        assert len(names) == len(set(names))
        union = set().union(*(mod.__all__ for mod in MODULES))
        assert set(names) == union | {"__version__"}

    def test_every_name_resolves_to_its_module_object(self):
        for mod in MODULES:
            for name in mod.__all__:
                assert getattr(tripatch, name) is getattr(mod, name), name
        assert tripatch.__version__ == "0.1.0"

    def test_no_earlier_name_is_lost(self):
        assert EARLIER_NAMES <= set(tripatch.__all__)
        assert set(tripatch.__all__) - EARLIER_NAMES == {
            "TripatchError", "NumericalError", "classify_matrix", "draw_params"}


class TestErrorCategories:
    def test_every_error_is_in_exactly_one_category(self):
        errors = defined_errors() - {TripatchError}
        assert errors == set(BUILTIN_BASE)
        for cls in errors:
            assert issubclass(cls, TripatchError), cls
            assert issubclass(cls, ParameterError) != \
                issubclass(cls, NumericalError), cls

    @pytest.mark.parametrize("cls, base", BUILTIN_BASE.items(),
                             ids=lambda x: x.__name__)
    def test_every_error_keeps_its_builtin_base(self, cls, base):
        assert issubclass(cls, base)

    def test_a_bug_in_a_verb_propagates_with_its_traceback(self, monkeypatch,
                                                           tmp_path):
        # A bare ValueError is a bug, not a usage error: cli.main used to
        # turn it into exit 2.
        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(tripatch.cli, "find_all_equilibria", boom)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": [1, 1, 1], "k": [1, 1, 1],
                                   "m": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}))
        with pytest.raises(ValueError, match="boom"):
            main(["analyze", "--config", str(cfg)])

    def test_a_bug_in_a_battery_check_propagates(self, monkeypatch):
        # check_oracle_equivalence used to report any exception, a bug's
        # included, as a failed property.
        def boom(*args, **kwargs):
            raise TypeError("boom")

        monkeypatch.setattr(verification, "find_all_equilibria", boom)
        monkeypatch.setattr(verification, "_CHECKS",
                            (verification.check_oracle_equivalence,))
        with pytest.raises(TypeError, match="boom"):
            verification.run_battery(seed=0, n=2)

    def test_a_numerical_failure_is_a_failed_property(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ConsistencyError("formula suspect")

        monkeypatch.setattr(verification, "find_all_equilibria", fail)
        res = verification.check_oracle_equivalence(0, 2)
        assert not res.passed
        assert res.detail == "FULL draw 0: formula suspect"

    @pytest.mark.parametrize("callee, check, detail", [
        ("newton_coexistence", "existence theorem", "draw 0: no root"),
        ("classify", "classifier consistency", "FULL draw 0: no root"),
    ])
    def test_every_check_reports_a_numerical_failure(self, monkeypatch, callee,
                                                     check, detail):
        # These two checks used to let the error escape run_battery, so
        # tripatch verify lost the other six results.
        def fail(*args, **kwargs):
            raise SpectrumOverflowError("no root")

        monkeypatch.setattr(verification, callee, fail)
        results = verification.run_battery(seed=0, n=2)
        assert len(results) == 7
        failed = [(r.name, r.detail) for r in results if not r.passed]
        assert failed == [(check, detail)]


class TestBatteryArguments:
    @pytest.mark.parametrize("kwargs, match", [
        ({"seed": -1}, "seed must be >= 0"),
        ({"seed": 0.5}, "seed must be an integer"),
        ({"n": -5}, "n must be >= 1"),
        ({"n": 0}, "n must be >= 1"),
    ])
    def test_a_bad_seed_or_count_is_a_parameter_error(self, kwargs, match):
        # seed=-1 used to raise NumPy's ValueError, seed=0.5 a TypeError,
        # and n=-5 to report "PASS existence theorem: -5 draws".
        with pytest.raises(ParameterError, match=match):
            verification.run_battery(**kwargs)


class TestBatteryGuards:
    """A battery check fails on a NaN gap or residual instead of passing it."""

    @staticmethod
    def with_nan(monkeypatch, name, **fields):
        real = getattr(verification, name)

        def patched(*args, **kwargs):
            got = real(*args, **kwargs)
            if isinstance(got, list):
                return [dataclasses.replace(got[0], **fields)] + got[1:]
            return dataclasses.replace(got, **fields)

        monkeypatch.setattr(verification, name, patched)

    def test_existence_theorem_gap(self, monkeypatch):
        self.with_nan(monkeypatch, "coexistence_by_construction",
                      point=np.full(3, math.nan))
        res = verification.check_existence_theorem(0, 2)
        assert not res.passed
        assert res.detail.startswith("draw 0: gap nan")

    def test_existence_theorem_residual(self, monkeypatch):
        self.with_nan(monkeypatch, "newton_coexistence", residual=math.nan)
        res = verification.check_existence_theorem(0, 2)
        assert not res.passed
        assert "residual nan" in res.detail

    def test_oracle_equivalence_residual(self, monkeypatch):
        self.with_nan(monkeypatch, "find_all_equilibria", residual=math.nan)
        res = verification.check_oracle_equivalence(0, 2)
        assert not res.passed
        assert res.detail.startswith("FULL draw 0: residual nan")
