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

``coefficient_table`` builds them once per game, in exact arithmetic, and
every bound reads them there; only the branching factors walk the tree.
The chance bound reads the refinement's exact optimum from
``recall.pure_optimum``, one sequence-form pass under perfect recall.
Only ``vor_compute`` for a concept other than OPT, OPT where optimal play
needs the polish and ``smoothness_check`` import numpy and
``irgames.solvers``, when called, so ``irgames coeffs``, ``irgames
bounds`` and OPT VoR with an exact optimum (every game without
absentmindedness, one two-action row in closed form, a best pure strategy
at the refinement's optimum; see ``recall.optimal_strategy``) never load
them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Union

from .config import SolverConfig, _cfg
from .game import Game, Leaf, Num, has_absentmindedness, subtree_nodes
from .recall import optimal_strategy, perfect_recall_refinement, pure_optimum
from .strategies import (
    BehavioralStrategy,
    StrategyProfile,
    profile_from,
    uniform_strategy,
)

if TYPE_CHECKING:
    from .config import SolveReport

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


def am_coefficient(game: Game, leaf: str) -> Num:
    """Product over repeat-visited infosets of (n_a / n_I) ** n_a, one
    factor per action (0 ** 0 = 1); 1 when no infoset repeats."""
    out: Num = Fraction(1)
    for (player, _), counts in _leaf(game, leaf).visits:
        n_total = sum(counts)
        if player == 1 and n_total > 1:
            for n_a in counts:
                out = out * Fraction(n_a, n_total) ** n_a
    return out


def am_witness(game: Game, leaf: str) -> BehavioralStrategy:
    """The stationary strategy that reaches the leaf with probability
    exactly equal to its absentmindedness coefficient (chance-free games):
    play each path action with its empirical frequency, uniform off-path."""
    if coefficient_table(game).branching:
        raise ValueError("am_witness requires a game without chance nodes")
    strategy = uniform_strategy(game, 1, rational=True)
    for (player, iid), counts in _leaf(game, leaf).visits:
        if player == 1:
            strategy = strategy.replace_row(iid, tuple(Fraction(n, sum(counts)) for n in counts))
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
    """The game's coefficients, kept in ``game.memo``; a game has chance
    nodes exactly when ``branching`` is non-empty."""
    key = "coefficient table"
    if key not in game.memo:
        game.memo[key] = CoefficientTable(
            am={z: am_coefficient(game, z) for z in game.terminals},
            chance={z: chance_coefficient(game, z) for z in game.terminals},
            branching=_branching_factors(game, game.root),
        )
    return game.memo[key]


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


def _argmax_leaf(game: Game, score) -> str:
    """Deterministic argmax over terminals: ties go to the smallest id."""
    return max(sorted(game.terminals), key=score)


def bound_am(game: Game) -> tuple[Num, Num]:
    """The two chance-free bounds: max utility over best stationary value,
    and the inverse absentmindedness coefficient of the top leaf."""
    table = coefficient_table(game)
    if table.branching:
        raise ValueError("bound_am requires a game without chance nodes")
    u = {z: game.utilities[z][0] for z in game.terminals}
    best_stationary = max(table.am[z] * u[z] for z in game.terminals)
    if best_stationary == 0:
        raise ValueError("all utilities are zero; the bound is undefined")
    zstar = _argmax_leaf(game, u.get)
    return u[zstar] / best_stationary, 1 / table.am[zstar]


def bound_am_entropy(game: Game, leaf: str) -> Num:
    """Support-size bound dominating 1/am(z): product over repeat-visited
    infosets of min(visits, actions) ** visits."""
    out: Num = Fraction(1)
    for (player, _), counts in _leaf(game, leaf).visits:
        n_total = sum(counts)
        if player == 1 and n_total > 1:
            out = out * Fraction(min(n_total, len(counts))) ** n_total
    return out


def bound_chance(game: Game, cfg: Optional[SolverConfig] = None) -> tuple[Num, Num]:
    """The two absentmindedness-free bounds: refined optimum over the best
    single-leaf chance value, and the max branching factor (``cfg`` unread)."""
    if game.players != 1 or has_absentmindedness(game, 1):
        raise ValueError("bound_chance requires one player without absentmindedness")
    table = coefficient_table(game)
    opt_refined = pure_optimum(perfect_recall_refinement(game, 1)[0])[0]
    best_leaf_value = max(table.chance[z] * game.utilities[z][0] for z in game.terminals)
    if best_leaf_value == 0:
        raise ValueError("all utilities are zero; the bound is undefined")
    return opt_refined / best_leaf_value, Fraction(max(table.branching.values(), default=1))


def bound_composed(game: Game) -> Num:
    """Utility-independent bound for any game on this tree and infosets:
    the largest branching factor over the smallest absentmindedness
    coefficient (each factor 1 when its domain is empty)."""
    if game.players != 1:
        raise ValueError("bound_composed expects a single-player game")
    table = coefficient_table(game)
    beta = max(table.branching.values(), default=1)
    return Fraction(beta) / min(table.am.values())


def structural_bounds(game: Game) -> dict[str, Optional[Num]]:
    """Every bound that applies to this single-player game, exact, by name,
    in report order: the absentmindedness bounds on a game without chance
    nodes, the chance bounds on a game without absentmindedness, and the
    composed bound always.  An applicable bound that the utilities leave
    undefined (all zero) is None."""
    bounds: dict[str, Optional[Num]] = {}
    if not coefficient_table(game).branching:
        try:
            bounds["am_utility"], bounds["am_zstar"] = bound_am(game)
        except ValueError:
            bounds["am_utility"] = bounds["am_zstar"] = None
        zstar = _argmax_leaf(game, lambda z: game.utilities[z][0])
        bounds["am_entropy"] = bound_am_entropy(game, zstar)
    if not has_absentmindedness(game, 1):
        try:
            bounds["chance_utility"], bounds["chance_beta"] = bound_chance(game)
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
    bounds: dict[str, Optional[Num]]  # as structural_bounds returns them
    bounds_satisfied: dict[str, Optional[bool]]  # all None unless concept is OPT


def _solve_concept(game: Game, concept: str, cfg: SolverConfig) -> SolveReport:
    if concept == "OPT":
        return optimal_strategy(game, cfg)
    from .solvers import best_worst

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
    refined_report = _solve_concept(perfect_recall_refinement(game, 1)[0], concept, cfg)
    numerator = refined_report.utilities[0]
    denominator = base_report.utilities[0]

    # Exact division and comparison (float division rounds the same
    # quotient): a ratio or bound beyond the float range, as lenny(n)'s
    # past n = 1023, is decided right.  The bounds are kept exact; a ratio
    # beyond the float range is reported as math.inf.
    if denominator > 0:
        value: Optional[Fraction] = Fraction(numerator) / Fraction(denominator)
        ratio = float(value) if value <= sys.float_info.max else math.inf
        kind = "finite"
    elif numerator > 0:
        value, ratio, kind = None, None, "infinite"
    else:
        value, ratio, kind = None, None, "undefined"

    bounds: dict[str, Optional[Num]] = dict.fromkeys(
        ("am_utility", "am_zstar", "am_entropy", "chance_utility", "chance_beta", "composed"))
    if game.players == 1:
        bounds.update(structural_bounds(game))

    satisfied = {
        name: (None if b is None or value is None or concept != "OPT"
               else value <= b + Fraction(1, 10**9))
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

    from .solvers import _pure_seed_vectors, _random_mixed

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
