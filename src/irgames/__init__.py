"""Imperfect-recall extensive-form games: recall refinements, equilibrium
concepts, and the value of recall with its structural bounds.

The game, recall and strategy names are imported with the package; none of
them needs numpy.  The solver names (``_SOLVER_NAMES``: ``optimal_strategy``,
``SolverConfig`` and the rest) are resolved from ``irgames.solvers`` on
first access (PEP 562), because that module loads numpy and the compiled
float table.  A process that only validates, refines or reads
coefficients, as the ``validate``, ``refine`` and ``coeffs`` CLI commands
do, then never loads them.  ``from irgames import optimal_strategy`` and
``irgames.SolverConfig`` work as before.
"""

import importlib as _importlib
from types import ModuleType as _ModuleType

from .game import (
    CHANCE,
    TERMINAL,
    Game,
    Infoset,
    Node,
    ObservationSequence,
    chance_nodes,
    first_visit_nodes,
    has_absentmindedness,
    make_game,
    obs,
    obs_i,
    seq,
    validate_game,
)
from .recall import (
    RefinementPlan,
    check_coarsest,
    dummy_node_transform,
    full_information_refinement,
    has_perfect_recall,
    perfect_recall_refinement,
    perfect_recall_refinement_all,
    refines,
)
from .strategies import (
    BehavioralStrategy,
    StrategyProfile,
    deviate,
    expected_utility,
    fix_opponents,
    infoset_frequency,
    infoset_reach,
    lift_strategy,
    profile_from,
    pure_strategy,
    reach_probability,
    realization_equivalent,
    uniform_profile,
    uniform_strategy,
    utility_gradient,
)

__version__ = "0.1.0"

_SOLVER_NAMES = (
    "SolveReport",
    "SolverConfig",
    "best_worst",
    "cdt_nash_check",
    "cdt_rational_check",
    "cdt_utility",
    "edt_check",
    "edt_incentive",
    "edt_nash_check",
    "edt_rational_check",
    "enumerate_equilibria",
    "kkt_check",
    "nash_check",
    "optimal_strategy",
)
# The submodules that importing the package loaded when the solver names
# were imported eagerly; ``irgames.solvers`` still resolves after a bare
# ``import irgames``.
_LAZY_MODULES = ("numeric", "solvers")

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
) + list(_SOLVER_NAMES)


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return _importlib.import_module(f"{__name__}.{name}")
    if name in _SOLVER_NAMES:
        return getattr(_importlib.import_module(f"{__name__}.solvers"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOLVER_NAMES, *_LAZY_MODULES})
