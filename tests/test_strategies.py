"""Reach probabilities, expected utilities, exact gradients, deviations,
lifting, realization equivalence, and opponent folding."""

from fractions import Fraction

import pytest

from conftest import finite_difference_gradient, single, strat

from irgames.game import validate_game
from irgames.generators import gen_fig1, gen_fig2, gen_fig3, gen_lenny, gen_random
from irgames.recall import perfect_recall_refinement
from irgames.strategies import (
    deviate,
    expected_utility,
    fix_opponents,
    infoset_frequency,
    infoset_reach,
    lift_strategy,
    node_reach_map,
    profile_from,
    pure_strategy,
    reach_probability,
    realization_equivalent,
    uniform_profile,
    uniform_strategy,
    utility_gradient,
    validate_profile,
)

THIRD = Fraction(1, 3)


def fig2_profile(p=THIRD):
    return single({"I": (p, 1 - p)})


def test_reach_probability_hand_computed():
    g = gen_fig2()
    prof = fig2_profile()
    # chance 1/2, then L (1/3), then R (2/3)
    assert reach_probability(g, prof, "c0", "zb3") == Fraction(1, 9)
    assert reach_probability(g, prof, "a", "a") == 1
    assert reach_probability(g, prof, "w", "zb3") == 0


def test_reach_probabilities_sum_to_one_over_leaves():
    for seed in range(20):
        g = gen_random(depth=4, branching=2, merge_rate=0.6, chance_rate=0.3,
                       absentmindedness=bool(seed % 2), seed=seed)
        prof = uniform_profile(g)
        reach = node_reach_map(g, prof)
        assert sum(reach[z] for z in g.terminals) == 1


def test_infoset_reach_vs_frequency_on_lenny():
    g = gen_lenny(2)
    prof = single({"I": (Fraction(1, 2), Fraction(1, 2))})
    assert infoset_reach(g, prof, "I") == 1
    assert infoset_frequency(g, prof, "I") == Fraction(3, 2)


def test_unreached_infoset_has_zero_reach():
    g = gen_fig3(Fraction(1, 10))
    prof = single({"I1": (0, 1), "I2": (1, 0)})
    # going right leaves the left node unreached but the infoset reached
    assert infoset_reach(g, prof, "I2") == 1
    left_only = single({"I1": (1, 0), "I2": (1, 0)})
    assert infoset_reach(g, left_only, "I2") == 1


def test_expected_utility_examples():
    g = gen_fig2()
    assert expected_utility(g, fig2_profile(), 1) == Fraction(2, 3)
    pr, plan = perfect_recall_refinement(g, 1)
    first = [f for f in plan.mapping["I"] if len(pr.infosets[1][f].nodes) == 2][0]
    revisit = [f for f in plan.mapping["I"] if len(pr.infosets[1][f].nodes) == 1][0]
    prof = single({first: (1, 0), revisit: (0, 1)})
    assert expected_utility(pr, prof, 1) == Fraction(3, 2)


def test_zero_utility_game_has_zero_value(tiny_game):
    from dataclasses import replace
    from irgames.game import Game

    zeroed = Game(
        players=1, root=tiny_game.root, nodes=tiny_game.nodes,
        utilities={z: (Fraction(0),) for z in tiny_game.terminals},
        infosets=tiny_game.infosets,
    )
    prof = single({"I": (Fraction(1, 2), Fraction(1, 2))})
    assert expected_utility(zeroed, prof, 1) == 0


def test_gradient_vanishes_at_fig2_optimum():
    g = gen_fig2()
    prof = fig2_profile()
    gl = utility_gradient(g, prof, 1, "I", 0)
    gr = utility_gradient(g, prof, 1, "I", 1)
    # the simplex-direction derivative d/dp = grad_L - grad_R is zero
    assert gl - gr == 0


def test_gradient_is_multilinear_coefficient_without_absentmindedness():
    g = gen_fig3(Fraction(1, 10))
    prof = single({"I1": (Fraction(2, 5), Fraction(3, 5)),
                   "I2": (Fraction(1, 4), Fraction(3, 4))})
    for iid, a in [("I1", 0), ("I1", 1), ("I2", 0), ("I2", 1)]:
        n = 2
        unit = [Fraction(0)] * n
        unit[a] = Fraction(1)
        at_one = expected_utility(g, deviate(prof, iid, tuple(unit)), 1)
        at_zero = expected_utility(g, deviate(prof, iid, (Fraction(0),) * n), 1)
        assert utility_gradient(g, prof, 1, iid, a) == at_one - at_zero


def test_gradient_matches_finite_differences_on_random_games():
    for seed in range(12):
        g = gen_random(depth=4, branching=2, merge_rate=0.7, chance_rate=0.3,
                       absentmindedness=bool(seed % 2), seed=100 + seed)
        prof = uniform_profile(g, rational=False)
        for iid in list(g.infosets.get(1, {}))[:3]:
            for a in range(2):
                exact = float(utility_gradient(g, prof, 1, iid, a))
                fd = finite_difference_gradient(g, prof, 1, iid, a)
                assert abs(exact - fd) < 1e-6


def test_deviate_identity_and_dimension_check():
    g = gen_fig3(Fraction(1, 10))
    prof = single({"I1": (1, 0), "I2": (1, 0)})
    same = deviate(prof, "I1", (Fraction(1), Fraction(0)))
    assert expected_utility(g, same, 1) == expected_utility(g, prof, 1)
    flipped = deviate(prof, "I1", (Fraction(0), Fraction(1)))
    assert expected_utility(g, flipped, 1) == Fraction(1, 10)
    with pytest.raises(ValueError):
        deviate(prof, "I1", (1, 0, 0))
    with pytest.raises(KeyError):
        deviate(prof, "nope", (1, 0))


def test_lift_preserves_utility_exactly():
    g = gen_fig2()
    pr, plan = perfect_recall_refinement(g, 1)
    prof = fig2_profile()
    lifted = lift_strategy(g, pr, plan, prof)
    assert expected_utility(pr, lifted, 1) == Fraction(2, 3)
    # pure lifts stay pure
    pure = single({"I": (1, 0)})
    lifted_pure = lift_strategy(g, pr, plan, pure)
    assert all(
        set(row) <= {Fraction(0), Fraction(1)}
        for row in lifted_pure[1].table.values()
    )


def test_realization_equivalence():
    g = gen_fig3(Fraction(1, 10))
    a = single({"I1": (1, 0), "I2": (1, 0)})
    b = single({"I1": (1, 0), "I2": (1, 0)})
    assert realization_equivalent(g, a, b)
    c = single({"I1": (0, 1), "I2": (1, 0)})
    assert not realization_equivalent(g, a, c)


def test_realization_equivalence_ignores_unreached_subtrees():
    pr, plan = perfect_recall_refinement(gen_fig3(Fraction(1, 10)), 1)
    ids = sorted(pr.infosets[1])
    i21 = next(i for i in ids if pr.infosets[1][i].nodes == ("a",))
    i22 = next(i for i in ids if pr.infosets[1][i].nodes == ("b",))
    x = single({"I1": (0, 1), i21: (1, 0), i22: (1, 0)})
    y = single({"I1": (0, 1), i21: (0, 1), i22: (1, 0)})
    assert realization_equivalent(pr, x, y)


def test_fix_opponents_folds_player2_into_chance():
    g = gen_fig1(Fraction(1, 100))
    prof = profile_from(
        strat(1, {"I1": (1, 0)}),
        strat(2, {"I2": (1, 0)}),
    )
    sub = fix_opponents(g, prof, 1)
    assert validate_game(sub) == []
    assert sub.players == 1
    assert sub.nodes["v0"].is_chance
    assert sub.nodes["v0"].chance_dist == (Fraction(1), Fraction(0))
    # utility is preserved for the folded player
    assert expected_utility(sub, profile_from(strat(1, {"I1": (1, 0)})), 1) == \
        expected_utility(g, prof, 1)
    # and from player 2's perspective
    sub2 = fix_opponents(g, prof, 2)
    assert expected_utility(sub2, profile_from(strat(1, {"I2": (1, 0)})), 1) == \
        expected_utility(g, prof, 2)


def test_validate_profile_reports_problems():
    g = gen_fig3(Fraction(1, 10))
    ok = uniform_profile(g)
    assert validate_profile(g, ok) == []
    bad = single({"I1": (Fraction(1, 2), Fraction(1, 3)), "I2": (1, 0)})
    assert any("sums to" in p for p in validate_profile(g, bad))
    missing = single({"I1": (1, 0)})
    assert any("missing" in p for p in validate_profile(g, missing))
    # A NaN entry passes both the sign test and the sum test.
    for entry in (float("nan"), float("inf")):
        problems = validate_profile(g, single({"I1": (entry, 1.0), "I2": (1, 0)}))
        assert f"player 1: probability {entry} at 'I1' is not finite" in problems


def test_validate_profile_reports_rows_for_unknown_infosets():
    g = gen_fig2()
    extra = single({"I": (THIRD, 1 - THIRD), "ghost": (1, 0)})
    assert validate_profile(g, extra) == [
        "player 1: row for unknown infoset 'ghost'"
    ]
