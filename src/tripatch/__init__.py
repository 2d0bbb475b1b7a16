"""Three-patch logistic metapopulation model: equilibria, stability, bifurcations.

The package analyzes a system of three logistically growing populations
coupled by linear migration, across the thirteen essentially different
connection patterns three patches admit.  It provides exact closed-form
equilibria where they exist, independent numerical solvers to keep the
formulas honest, eigenvalue-based stability classification with the
literature's algebraic criteria evaluated alongside, parameter sweeps
with bifurcation detection, an adaptive integrator, and a CLI.
"""

from __future__ import annotations

from .model import (
    BOUNDARY_TOL,
    PARAM_TOKENS,
    ModelParams,
    ParameterError,
    as_state,
    growth_terms,
    jacobian,
    rhs,
    with_param,
)
from .topology import (
    TOPOLOGIES,
    InadmissibleArcsError,
    apply_topology,
    arc_labels,
    arcs_of_topology,
    canonical_form,
    enumerate_canonical,
    is_admissible,
    is_strongly_connected,
    iter_arc_sets,
    permute_params,
    zeroed_rates,
)
from .equilibria import (
    ADMITTED_LABELS,
    EQUILIBRIUM_LABELS,
    BracketError,
    ConsistencyError,
    ConvergenceError,
    EquilibriumRecord,
    SingularJacobianError,
    brute_force_equilibria,
    closed_form_equilibria,
    coexistence_by_construction,
    find_all_equilibria,
    newton_coexistence,
)
from .stability import (
    CharacteristicCoefficients,
    ConditionRow,
    SpectrumOverflowError,
    StabilityReport,
    StaleEquilibriumError,
    characteristic,
    classify,
    eigenvalues_3x3,
    origin_never_stable_scan,
    sign_conditions,
    routh_hurwitz,
)
from .bifurcation import (
    Crossing,
    SweepRecord,
    hopf_candidate,
    sweep,
    transcritical_thresholds,
)
from .simulate import (
    StepUnderflowError,
    Trajectory,
    basin_sample,
    integrate,
)
from .verification import PropertyResult, run_battery

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_TOL",
    "PARAM_TOKENS",
    "ModelParams",
    "ParameterError",
    "as_state",
    "growth_terms",
    "jacobian",
    "rhs",
    "with_param",
    "TOPOLOGIES",
    "InadmissibleArcsError",
    "apply_topology",
    "arc_labels",
    "arcs_of_topology",
    "canonical_form",
    "enumerate_canonical",
    "is_admissible",
    "is_strongly_connected",
    "iter_arc_sets",
    "permute_params",
    "zeroed_rates",
    "ADMITTED_LABELS",
    "EQUILIBRIUM_LABELS",
    "BracketError",
    "ConsistencyError",
    "ConvergenceError",
    "EquilibriumRecord",
    "SingularJacobianError",
    "brute_force_equilibria",
    "closed_form_equilibria",
    "coexistence_by_construction",
    "find_all_equilibria",
    "newton_coexistence",
    "CharacteristicCoefficients",
    "ConditionRow",
    "SpectrumOverflowError",
    "StabilityReport",
    "StaleEquilibriumError",
    "characteristic",
    "classify",
    "eigenvalues_3x3",
    "origin_never_stable_scan",
    "sign_conditions",
    "routh_hurwitz",
    "Crossing",
    "SweepRecord",
    "hopf_candidate",
    "sweep",
    "transcritical_thresholds",
    "StepUnderflowError",
    "Trajectory",
    "basin_sample",
    "integrate",
    "PropertyResult",
    "run_battery",
    "__version__",
]
