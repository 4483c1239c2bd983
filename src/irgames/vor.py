"""Value of recall: the ratio of Player 1's utility under a solution
concept in the coarsest perfect-recall refinement to that in the original
game, together with the structural quantities that bound it.

Three utility-independent coefficients drive every bound; the two per-leaf
ones are read from the leaf's monomial in ``Game.leaves``, the one source of
leaf monomials:

* the absentmindedness coefficient of a leaf: the product of
  empirical-frequency powers over its repeat-visited infosets, which is
  exactly the reach probability the leaf's best stationary strategy
  achieves in a chance-free game;
* the chance coefficient of a leaf: the product of chance probabilities on
  its path;
* the branching factor of a chance node: a recursive count bounding how
  many leaves a pure strategy can reach with positive probability below it.

The coefficients and the exact bounds are tree walks in exact arithmetic;
only the functions that solve (``bound_chance``, and so
``structural_bounds`` on a game without absentmindedness, ``vor_compute``
and ``smoothness_check``) import numpy and ``irgames.solvers``, when
called, so ``irgames coeffs`` never loads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Union

from .config import SolverConfig, _cfg
from .game import Game, Leaf, Num, chance_nodes, has_absentmindedness, subtree_nodes
from .recall import perfect_recall_refinement
from .strategies import (
    BehavioralStrategy,
    StrategyProfile,
    profile_from,
    uniform_strategy,
)

if TYPE_CHECKING:
    from .solvers import SolveReport

VOR_CONCEPTS = (
    "OPT",
    "bEDT", "wEDT", "bCDT", "wCDT", "bNASH", "wNASH",
    "bEDT-NASH", "wEDT-NASH", "bCDT-NASH", "wCDT-NASH",
)


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------


def _leaf(game: Game, leaf: str) -> Leaf:
    if not game.nodes[leaf].is_terminal:
        raise ValueError(f"{leaf!r} is not a terminal node")
    return game.leaves[leaf]


def _player1_rows(game: Game, leaf: str) -> dict[str, dict[int, int]]:
    """Per infoset of Player 1 on the leaf's path: action-index -> count."""
    rows: dict[str, dict[int, int]] = {}
    for (player, iid, idx), n in _leaf(game, leaf).visits:
        if player == 1:
            rows.setdefault(iid, {})[idx] = n
    return rows


def am_coefficient(game: Game, leaf: str) -> Num:
    """Product over repeat-visited infosets of (n_a / n_I) ** n_a, one
    factor per action taken there; 1 when no infoset repeats."""
    out: Num = Fraction(1)
    for per_action in _player1_rows(game, leaf).values():
        n_total = sum(per_action.values())
        if n_total <= 1:
            continue
        for n_a in per_action.values():
            out = out * Fraction(n_a, n_total) ** n_a
    return out


def am_witness(game: Game, leaf: str) -> BehavioralStrategy:
    """The stationary strategy that reaches the leaf with probability
    exactly equal to its absentmindedness coefficient (chance-free games):
    play each path action with its empirical frequency, uniform off-path."""
    if chance_nodes(game):
        raise ValueError("am_witness requires a game without chance nodes")
    strategy = uniform_strategy(game, 1, rational=True)
    for iid, per_action in _player1_rows(game, leaf).items():
        n_total = sum(per_action.values())
        size = len(game.infosets[1][iid].actions)
        row = [Fraction(per_action.get(a, 0), n_total) for a in range(size)]
        strategy = strategy.replace_row(iid, tuple(row))
    return strategy


def chance_coefficient(game: Game, leaf: str) -> Num:
    """Product of chance probabilities along the leaf's path; 1 if none."""
    return _leaf(game, leaf).chance


def _branching_factors(game: Game, top: str) -> dict[str, int]:
    """Branching factor of every chance node below ``top``, in one
    bottom-up pass."""
    out: dict[str, int] = {}
    most: dict[str, int] = {}  # largest factor in the node's subtree; 0 if none
    for nid in reversed(subtree_nodes(game, top)):
        node = game.nodes[nid]
        below = [most[c] for c in node.children]
        if node.is_chance:
            out[nid] = sum(m or 1 for m in below)
            below.append(out[nid])
        most[nid] = max(below, default=0)
    return out


def branching_factor(game: Game, node_id: str) -> int:
    """Recursive chance branching: sum over actions of 1 when the action's
    subtree is chance-free, else the max branching factor inside it."""
    if not game.nodes[node_id].is_chance:
        raise ValueError(f"{node_id!r} is not a chance node")
    return _branching_factors(game, node_id)[node_id]


@dataclass(frozen=True)
class CoefficientTable:
    """Per-leaf absentmindedness and chance coefficients plus per-chance-
    node branching factors; all independent of the utility function."""

    am: dict[str, Num]
    chance: dict[str, Num]
    branching: dict[str, int]


def coefficient_table(game: Game) -> CoefficientTable:
    return CoefficientTable(
        am={z: am_coefficient(game, z) for z in game.terminals},
        chance={z: chance_coefficient(game, z) for z in game.terminals},
        branching=_branching_factors(game, game.root),
    )


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


def _argmax_leaf(game: Game, score) -> str:
    """Deterministic argmax over terminals: ties go to the smallest id."""
    best = None
    for z in sorted(game.terminals):
        s = score(z)
        if best is None or s > best[0]:
            best = (s, z)
    return best[1]


def bound_am(game: Game) -> tuple[Num, Num]:
    """The two chance-free bounds: max utility over best stationary value,
    and the inverse absentmindedness coefficient of the top leaf."""
    if chance_nodes(game):
        raise ValueError("bound_am requires a game without chance nodes")
    ams = {z: am_coefficient(game, z) for z in game.terminals}
    u = {z: game.utilities[z][0] for z in game.terminals}
    top = max(u.values())
    best_stationary = max(ams[z] * u[z] for z in game.terminals)
    if best_stationary == 0:
        raise ValueError("all utilities are zero; the bound is undefined")
    bound1 = top / best_stationary
    zstar = _argmax_leaf(game, lambda z: u[z])
    bound2 = 1 / ams[zstar]
    return bound1, bound2


def bound_am_entropy(game: Game, leaf: str) -> Num:
    """Support-size bound dominating 1/am(z): product over repeat-visited
    infosets of min(visits, actions) ** visits."""
    out: Num = Fraction(1)
    for iid, per_action in _player1_rows(game, leaf).items():
        n_total = sum(per_action.values())
        if n_total <= 1:
            continue
        size = len(game.infosets[1][iid].actions)
        out = out * Fraction(min(n_total, size)) ** n_total
    return out


def bound_chance(game: Game, cfg: Optional[SolverConfig] = None) -> tuple[Num, Num]:
    """The two absentmindedness-free bounds: refined optimum over the best
    single-leaf chance value, and the max branching factor."""
    if has_absentmindedness(game, 1):
        raise ValueError("bound_chance requires a game without absentmindedness")
    from .solvers import optimal_strategy

    cfg = _cfg(cfg)
    opt_refined = optimal_strategy(_refined(game), cfg).utilities[0]
    best_leaf_value = max(
        chance_coefficient(game, z) * game.utilities[z][0] for z in game.terminals
    )
    if best_leaf_value == 0:
        raise ValueError("all utilities are zero; the bound is undefined")
    bound1 = opt_refined / best_leaf_value
    bound2 = max(_branching_factors(game, game.root).values(), default=1)
    return bound1, Fraction(bound2)


def bound_composed(game: Game) -> Num:
    """Utility-independent bound for any game on this tree and infosets:
    the largest branching factor over the smallest absentmindedness
    coefficient (each factor 1 when its domain is empty)."""
    if game.players != 1:
        raise ValueError("bound_composed expects a single-player game")
    beta = max(_branching_factors(game, game.root).values(), default=1)
    min_am = min(am_coefficient(game, z) for z in game.terminals)
    return Fraction(beta) / min_am


def structural_bounds(game: Game, cfg: Optional[SolverConfig] = None) -> dict[str, Optional[Num]]:
    """Every bound that applies to this single-player game, exact, by name,
    in report order: the absentmindedness bounds on a game without chance
    nodes, the chance bounds on a game without absentmindedness, and the
    composed bound always.  An applicable bound that the utilities leave
    undefined (all zero) is None."""
    bounds: dict[str, Optional[Num]] = {}
    if not chance_nodes(game):
        try:
            bounds["am_utility"], bounds["am_zstar"] = bound_am(game)
        except ValueError:
            bounds["am_utility"] = bounds["am_zstar"] = None
        zstar = _argmax_leaf(game, lambda z: game.utilities[z][0])
        bounds["am_entropy"] = bound_am_entropy(game, zstar)
    if not has_absentmindedness(game, 1):
        try:
            bounds["chance_utility"], bounds["chance_beta"] = bound_chance(game, cfg)
        except ValueError:
            bounds["chance_utility"] = bounds["chance_beta"] = None
    bounds["composed"] = bound_composed(game)
    return bounds


# ---------------------------------------------------------------------------
# VoR computation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VorReport:
    concept: str
    numerator: Num          # Player 1 utility under the concept in pr_1
    denominator: Num        # same in the original game
    ratio: Optional[float]  # None when undefined (0/0)
    ratio_kind: str         # "finite" | "infinite" | "undefined"
    refined_report: SolveReport
    base_report: SolveReport
    bounds: dict[str, Optional[float]]
    bounds_satisfied: dict[str, Optional[bool]]  # all None unless concept is OPT


def _refined(game: Game) -> Game:
    """Player 1's coarsest perfect-recall refinement, built once per game
    and kept in ``game.memo``, so every concept solved on it shares its
    compiled table and its equilibrium classes."""
    key = ("perfect-recall refinement", 1)
    if key not in game.memo:
        game.memo[key] = perfect_recall_refinement(game, 1)[0]
    return game.memo[key]


def _solve_concept(game: Game, concept: str, cfg: SolverConfig) -> SolveReport:
    from .solvers import best_worst, optimal_strategy

    if concept == "OPT":
        return optimal_strategy(game, cfg)
    which = "best" if concept[0] == "b" else "worst"
    return best_worst(game, concept[1:], which, cfg)


def vor_compute(game: Game, concept: str, cfg: Optional[SolverConfig] = None) -> VorReport:
    """Solve the concept in the game and in its Player-1 perfect-recall
    refinement; report the utility ratio next to every applicable bound.

    The bounds are theorems about optimal play, so only an OPT report says
    whether its ratio satisfies them; for every other concept each entry of
    ``bounds_satisfied`` is None."""
    cfg = _cfg(cfg)
    if concept not in VOR_CONCEPTS:
        raise ValueError(f"unknown VoR concept {concept!r}; choose from {VOR_CONCEPTS}")
    base_report = _solve_concept(game, concept, cfg)
    refined_report = _solve_concept(_refined(game), concept, cfg)
    numerator = refined_report.utilities[0]
    denominator = base_report.utilities[0]

    if float(denominator) > 0:
        ratio: Optional[float] = float(numerator) / float(denominator)
        kind = "finite"
    elif float(numerator) > 0:
        ratio, kind = None, "infinite"
    else:
        ratio, kind = None, "undefined"

    bounds: dict[str, Optional[float]] = dict.fromkeys(
        ("am_utility", "am_zstar", "am_entropy", "chance_utility", "chance_beta", "composed"))
    if game.players == 1:
        bounds.update((name, None if b is None else float(b))
                      for name, b in structural_bounds(game, cfg).items())

    satisfied = {
        name: (None if b is None or ratio is None or concept != "OPT"
               else ratio <= b + 1e-9)
        for name, b in bounds.items()
    }
    return VorReport(
        concept=concept,
        numerator=numerator,
        denominator=denominator,
        ratio=ratio,
        ratio_kind=kind,
        refined_report=refined_report,
        base_report=base_report,
        bounds=bounds,
        bounds_satisfied=satisfied,
    )


# ---------------------------------------------------------------------------
# Smoothness
# ---------------------------------------------------------------------------


# Mixed profiles ``smoothness_check`` samples next to the pure ones.
_SMOOTHNESS_SAMPLES = 10_000


@dataclass(frozen=True)
class SmoothnessVerdict:
    kind: str  # "falsified" | "pure-verified" | "sampled-ok"
    counterexample: Optional[StrategyProfile]
    worst_margin: float
    opt_utility: float


def smoothness_check(
    game: Game,
    pistar: Union[BehavioralStrategy, StrategyProfile],
    lam: float,
    mu: float,
    cfg: Optional[SolverConfig] = None,
) -> SmoothnessVerdict:
    """Test the per-infoset substitution inequality: the average utility of
    swapping one infoset's row to the candidate strategy must cover
    lam * OPT - mu * U(pi) for every profile pi.

    Pure profiles are checked exhaustively under the cap, plus sampled
    mixed profiles; a passing verdict is a certificate only for the pure
    set ("pure-verified" vs "sampled-ok"), falsification is always one.
    """
    import numpy as np

    from .solvers import _pure_seed_vectors, _random_mixed, optimal_strategy

    cfg = _cfg(cfg)
    if game.players != 1:
        raise ValueError("smoothness_check expects a single-player game")
    if not (0 < lam < math.inf and 0 <= mu < math.inf):
        raise ValueError("require finite lam > 0 and mu >= 0")
    if isinstance(pistar, StrategyProfile):
        pistar = pistar[1]

    num = game.numeric
    rng = cfg.rng()
    xstar = num.index.vector(profile_from(pistar))
    opt = float(optimal_strategy(game, cfg).utilities[0])
    rows = num.index.rows
    if not rows:
        return SmoothnessVerdict("pure-verified", None, 0.0, opt)

    pure, pure_full = _pure_seed_vectors(num.index, rng)
    samples = _random_mixed(num.index, rng, _SMOOTHNESS_SAMPLES)
    X = np.concatenate([pure, samples])

    lhs = np.zeros(len(X))
    for row in rows:
        block = slice(row.offset, row.offset + row.size)
        Y = X.copy()
        Y[:, block] = xstar[block]
        lhs += num.utility(Y, 1)
    lhs /= len(rows)
    rhs = lam * opt - mu * num.utility(X, 1)
    margin = lhs - rhs
    worst = int(np.argmin(margin))
    if margin[worst] < -1e-9:
        return SmoothnessVerdict(
            "falsified", num.index.profile(X[worst]), float(margin[worst]), opt
        )
    kind = "pure-verified" if pure_full else "sampled-ok"
    return SmoothnessVerdict(kind, None, float(margin[worst]), opt)
