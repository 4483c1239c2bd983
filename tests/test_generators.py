"""Generators: structural checks, determinism, parameter validation."""

import math
from fractions import Fraction

import pytest

from irgames.fileio import dumps, game_to_jsonable
from irgames.game import chance_nodes, has_absentmindedness, validate_game
from irgames.generators import (
    coverage_function,
    default_valid_utility,
    gen_dory,
    gen_fig1,
    gen_fig2,
    gen_fig3,
    gen_fig5,
    gen_fig5_split,
    gen_lenny,
    gen_random,
    gen_sat_game,
    gen_valid_utility,
    gen_x3c_game,
)
from irgames.recall import has_perfect_recall


ALL_GAMES = [
    gen_fig1(Fraction(1, 100)),
    gen_fig2(),
    gen_fig3(Fraction(1, 10)),
    gen_fig5(),
    gen_fig5_split(),
    gen_lenny(4),
    gen_dory(3),
    gen_sat_game([(1, 2, 3), (-1, 2, 3)]),
    gen_x3c_game(6, [(1, 2, 3), (4, 5, 6)])[0],
    default_valid_utility(),
    gen_random(4, 2, 0.5, 0.3, True, 11),
]


@pytest.mark.parametrize("game", ALL_GAMES, ids=lambda g: g.name)
def test_every_generator_output_is_valid(game):
    assert validate_game(game) == []


@pytest.mark.parametrize("game", ALL_GAMES, ids=lambda g: g.name)
def test_generator_numbers_are_exact(game):
    assert game.is_rational


def test_fig1_structure_and_param_check():
    g = gen_fig1(Fraction(1, 100))
    assert g.players == 2
    assert g.utilities["zcc"] == (2, 1)
    assert g.utilities["zw"] == (0, Fraction(1, 100))
    with pytest.raises(ValueError):
        gen_fig1(0)
    with pytest.raises(ValueError):
        gen_fig1(1)


def test_fig2_chance_probabilities():
    g = gen_fig2()
    assert g.nodes["c0"].chance_dist == (Fraction(1, 2), Fraction(1, 2))
    assert len(g.infosets[1]["I"].nodes) == 3


def test_lenny_structure():
    g = gen_lenny(4)
    assert len(g.infosets[1]["I"].nodes) == 4
    assert len(g.terminals) == 5
    assert sum(u[0] for u in g.utilities.values()) == 1
    with pytest.raises(ValueError):
        gen_lenny(3)
    with pytest.raises(ValueError):
        gen_lenny(0)


def test_dory_structure():
    n = 3
    g = gen_dory(n)
    assert len(chance_nodes(g)) == 1
    singletons = [i for i in g.infosets[1].values() if len(i.nodes) == 1]
    assert len(singletons) == n
    assert len(g.infosets[1]["IS"].nodes) == n * n
    assert not has_absentmindedness(g, 1)


def test_sat_game_size_bound_and_validation():
    clauses = [(1, 2, 3), (-1, 2, 3), (1, -2, -3)]
    g = gen_sat_game(clauses)
    n = len(clauses)
    assert len(g.nodes) <= 3 + n * 16
    assert not has_absentmindedness(g, 1)
    with pytest.raises(ValueError, match="malformed clause"):
        gen_sat_game([(1, 2)])
    with pytest.raises(ValueError, match="malformed clause"):
        gen_sat_game([(1, 1, 2)])


def test_sat_game_payoffs():
    eta, M = Fraction(1), 1
    g = gen_sat_game([(1, 2, 3)], eta, M)
    mprime = 8 * M * eta * 1
    pays = {u[0] for u in g.utilities.values()}
    assert pays == {eta, mprime + eta}
    # exactly one violating leaf per clause subtree
    violating = [z for z in g.terminals if g.utilities[z][0] > eta]
    assert len(violating) == 1


def test_x3c_game_shape():
    g, k = gen_x3c_game(6, [(1, 2, 3), (4, 5, 6)])
    assert k == 1
    assert len(g.infosets[1]["IF"].nodes) == 6
    with pytest.raises(ValueError, match="malformed family"):
        gen_x3c_game(6, [(1, 2)])
    with pytest.raises(ValueError, match="malformed family"):
        gen_x3c_game(6, [(1, 2, 9)])
    assert gen_x3c_game(9, [(1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 4, 7)])[1] == 2
    for size in (0, 5, 7):
        with pytest.raises(ValueError, match="multiple of 3"):
            gen_x3c_game(size, [(1, 2, 3)])


def test_valid_utility_rejects_non_submodular():
    elements = ["e1", "e2"]

    def bad(selected: frozenset):
        return 4 if len(selected) == 2 else 1 if selected else 0

    with pytest.raises(ValueError, match="submodular"):
        gen_valid_utility(elements, bad, [[("e1",), ("e2",)]])


def test_coverage_function_is_accepted():
    V = coverage_function({"e1": ["i1"], "e2": ["i1", "i2"]}, {"i1": 2, "i2": 3})
    g = gen_valid_utility(["e1", "e2"], V, [[("e1",), ("e2",)], [("e1",), ("e2",)]])
    assert validate_game(g) == []
    assert max(u[0] for u in g.utilities.values()) == 5


def test_random_generator_modes():
    g_pr = gen_random(4, 2, 0.0, 0.2, False, 3)
    assert has_perfect_recall(g_pr, 1)
    for seed in range(30):
        g = gen_random(4, 2, 0.8, 0.2, False, seed)
        assert not has_absentmindedness(g, 1)
    found = any(
        has_absentmindedness(gen_random(5, 2, 0.9, 0.1, True, s), 1)
        for s in range(20)
    )
    assert found


def test_random_generator_is_deterministic():
    a = gen_random(4, 2, 0.6, 0.3, True, 42, players=2)
    b = gen_random(4, 2, 0.6, 0.3, True, 42, players=2)
    assert dumps(game_to_jsonable(a)) == dumps(game_to_jsonable(b))
    c = gen_random(4, 2, 0.6, 0.3, True, 43, players=2)
    assert dumps(game_to_jsonable(a)) != dumps(game_to_jsonable(c))


def test_random_generator_param_validation():
    with pytest.raises(ValueError):
        gen_random(0, 2, 0.5, 0.5, False, 1)
    with pytest.raises(ValueError):
        gen_random(3, 1, 0.5, 0.5, False, 1)
    with pytest.raises(ValueError):
        gen_random(3, 2, 1.5, 0.5, False, 1)
