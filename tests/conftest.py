"""Shared fixtures and helpers for the test suite."""

import random
from fractions import Fraction

import numpy as np
import pytest

from irgames.game import Game, Infoset, Node, make_game
from irgames.numeric import SUPP_TOL, NumericGame
from irgames.strategies import (
    BehavioralStrategy,
    StrategyProfile,
    expected_utility,
    profile_from,
)


def strat(player: int, table: dict) -> BehavioralStrategy:
    """Shorthand: rows given as tuples of ints/Fractions/floats."""
    return BehavioralStrategy(
        player=player,
        table={iid: tuple(_num(p) for p in row) for iid, row in table.items()},
    )


def _num(p):
    if isinstance(p, float):
        return p
    return Fraction(p)


def single(table: dict) -> StrategyProfile:
    return profile_from(strat(1, table))


def finite_difference_gradient(game: Game, profile: StrategyProfile, player: int,
                               infoset_id: str, action_index: int,
                               step: float = 1e-6) -> float:
    """Central finite-difference oracle for ``utility_gradient``.

    Perturbs the single coordinate without renormalizing the row (the
    analytic gradient is likewise coordinate-wise).
    """
    strategy = profile[player]
    row = [float(p) for p in strategy.row(infoset_id)]

    def value(delta: float) -> float:
        bumped = list(row)
        bumped[action_index] += delta
        prof = profile.replace(strategy.replace_row(infoset_id, bumped))
        return float(expected_utility(game, prof, player))

    return (value(step) - value(-step)) / (2 * step)


def random_profile(game: Game, seed: int, exact: bool) -> StrategyProfile:
    """Every player's rows drawn with weights 1-9 from ``seed``: exact
    fractions or floats."""
    rng = random.Random(seed)
    strategies = []
    for p in range(1, game.players + 1):
        table = {}
        for iid, iset in game.infosets.get(p, {}).items():
            weights = [rng.randint(1, 9) for _ in iset.actions]
            total = sum(weights)
            table[iid] = tuple(
                Fraction(w, total) if exact else w / total for w in weights
            )
        strategies.append(BehavioralStrategy(p, table))
    return StrategyProfile(tuple(strategies))


def per_row_kkt_residuals(num: NumericGame, X: np.ndarray) -> np.ndarray:
    """The simplex-KKT residual row by row, each row's owner differentiated
    afresh: the reference for the batched ``NumericGame.kkt_residuals``."""
    out = np.zeros(X.shape[0])
    grads = {p: num.gradient(X, p)[1] for p in range(1, num.game.players + 1)}
    for row in num.index.rows:
        block = slice(row.offset, row.offset + row.size)
        v = grads[row.player][:, block]
        supp = X[:, block] > SUPP_TOL
        gap = v.max(axis=1) - np.where(supp, v, np.inf).min(axis=1)
        out = np.maximum(out, np.maximum(gap, 0.0))
    return out


@pytest.fixture
def tiny_game() -> Game:
    """One decision node, two leaves; the smallest valid game."""
    nodes = [
        Node(id="r", owner=1, actions=("a", "b"), children=("za", "zb")),
        Node(id="za", owner="terminal"),
        Node(id="zb", owner="terminal"),
    ]
    utilities = {"za": (Fraction(1),), "zb": (Fraction(0),)}
    infosets = [Infoset(id="I", player=1, nodes=("r",), actions=("a", "b"))]
    return make_game(1, "r", nodes, utilities, infosets, name="tiny")
