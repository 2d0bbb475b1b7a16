"""Three-patch logistic metapopulation model: equilibria, stability, bifurcations.

The package analyzes a system of three logistically growing populations
coupled by linear migration, across the thirteen essentially different
connection patterns three patches admit.  It provides exact closed-form
equilibria where they exist, independent numerical solvers to keep the
formulas honest, eigenvalue-based stability classification with the
literature's algebraic criteria evaluated alongside, parameter sweeps
with bifurcation detection, an adaptive integrator, and a CLI.

The public names are those in each module's ``__all__``.
"""

from __future__ import annotations

from . import bifurcation, equilibria, model, simulate, stability, topology, verification
from .bifurcation import *  # noqa: F403
from .equilibria import *  # noqa: F403
from .model import *  # noqa: F403
from .simulate import *  # noqa: F403
from .stability import *  # noqa: F403
from .topology import *  # noqa: F403
from .verification import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (model, topology, equilibria, stability, bifurcation,
                               simulate, verification)
           for name in module.__all__] + ["__version__"]
