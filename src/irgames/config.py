"""Solver settings and the solver errors, without numpy.

The CLI builds its parser from ``SolverConfig``'s defaults and catches the
two errors for every command, including the ones that never solve, so
these live apart from ``irgames.solvers``, which loads numpy.
``irgames.solvers`` re-exports every name here: the objects, and with them
the ``Game.memo`` keys that hold a ``SolverConfig``, are the same whichever
module a caller imports them from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import numpy as np


class CapExceededError(ValueError):
    """Instance too large for the exhaustive path; shrink it."""


class EquilibriumNotFoundError(RuntimeError):
    """No profile passed the concept's residual test at this resolution."""


@dataclass(frozen=True)
class SolverConfig:
    """The solver settings a caller can change: the CLI's
    ``--grid-resolution``, ``--multistart``, ``--eps-eq`` and ``--seed``.
    The caps on exhaustive work are module constants of
    ``irgames.solvers`` (see its docstring)."""

    grid_resolution: int = 64
    multistart: int = 32
    eps_eq: float = 1e-6
    seed: int = 0

    def rng(self) -> np.random.Generator:
        import numpy as np

        return np.random.default_rng(self.seed)


DEFAULT_CONFIG = SolverConfig()


def _cfg(cfg: Optional[SolverConfig]) -> SolverConfig:
    return cfg if cfg is not None else DEFAULT_CONFIG
