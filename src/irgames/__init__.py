"""Imperfect-recall extensive-form games: recall refinements, equilibrium
concepts, and the value of recall with its structural bounds.

The game, recall and strategy names are imported with the package; none of
them needs numpy.  ``optimal_strategy`` is one of them: it lives in
``irgames.recall`` and loads the solvers only where no exact path answers
(see its docstring).  The other solver names (``_SOLVER_NAMES``) are
resolved on first access (PEP 562): ``SolveReport`` and ``SolverConfig``
from the numpy-free ``irgames.config``, the rest from
``irgames.solvers``, because that module loads numpy and the compiled
float table.  A process that only validates, refines, reads coefficients
or bounds, or plays optimally where an exact path answers, as the
``validate``, ``refine``, ``coeffs``, ``bounds`` and ``solve --concept
opt`` CLI commands do, then never loads them.  ``from irgames import SolverConfig`` and ``irgames.best_worst``
work as before.
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
    optimal_strategy,
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
        config = _importlib.import_module(f"{__name__}.config")
        if hasattr(config, name):
            return getattr(config, name)
        return getattr(_importlib.import_module(f"{__name__}.solvers"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOLVER_NAMES, *_LAZY_MODULES})
