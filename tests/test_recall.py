"""Refinement order, the coarsest perfect-recall refinement, and the
dummy-node transform."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_profile

from irgames.game import has_absentmindedness, obs_i, validate_game
from irgames.generators import gen_fig1, gen_fig2, gen_fig3, gen_lenny, gen_random
from irgames.recall import (
    NotComparableError,
    check_coarsest,
    dummy_node_transform,
    full_information_refinement,
    has_perfect_recall,
    own_histories,
    perfect_recall_refinement,
    perfect_recall_refinement_all,
    refines,
)
from irgames.solvers import optimal_strategy
from irgames.strategies import expected_utility, lift_strategy

PROPERTY = settings(derandomize=True, max_examples=50, deadline=None)

# Small gen_random games: absentminded or not, one or two players.
games = st.builds(
    lambda depth, branching, merge, chance, am, players, seed: gen_random(
        depth, branching, merge, chance, am, seed, players=players),
    depth=st.integers(2, 4),
    branching=st.integers(2, 3),
    merge=st.sampled_from([0.5, 0.9]),
    chance=st.sampled_from([0.0, 0.3]),
    am=st.booleans(),
    players=st.sampled_from([1, 2]),
    seed=st.integers(0, 10_000),
)


def partitions(game):
    return {p: {frozenset(i.nodes) for i in isets.values()}
            for p, isets in game.infosets.items()}


def test_refines_is_reflexive():
    g = gen_fig2()
    plan = refines(g, g, 1)
    assert plan is not None
    assert plan.mapping == {"I": ("I",)}


def test_pr_refines_the_original_but_not_conversely():
    g = gen_fig2()
    pr, _ = perfect_recall_refinement(g, 1)
    plan = refines(pr, g, 1)
    assert plan is not None
    sizes = sorted(len(pr.infosets[1][f].nodes) for f in plan.mapping["I"])
    assert sizes == [1, 2]
    assert refines(g, pr, 1) is None


def test_refines_requires_identical_trees():
    g = gen_fig2()
    other = gen_fig3(Fraction(1, 10))
    with pytest.raises(NotComparableError):
        refines(g, other, 1)


def test_fig2_pr_splits_first_visits_from_revisit():
    g = gen_fig2()
    pr, plan = perfect_recall_refinement(g, 1)
    parts = [set(pr.infosets[1][f].nodes) for f in plan.mapping["I"]]
    assert {frozenset(p) for p in parts} == {frozenset({"a", "w"}), frozenset({"b"})}
    assert has_perfect_recall(pr, 1)
    assert not has_perfect_recall(g, 1)
    assert not has_absentmindedness(pr, 1)


LENNY6_IDS = ("I.f9065fa7", "I.702781a8", "I.786c7bb5", "I.8ed80d84",
              "I.ce37ec62", "I.337c5d2e")


@pytest.mark.parametrize("make, split, classes", [
    (gen_fig2, "I", {"I.f9065fa7": ("a", "w"), "I.702781a8": ("b",)}),
    (lambda: gen_lenny(6), "I",
     {i: (f"d{k}",) for k, i in enumerate(LENNY6_IDS, start=1)}),
    (lambda: gen_fig3(Fraction(1, 10)), "I2",
     {"I2.5489c534": ("a",), "I2.cc73c109": ("b",)}),
])
def test_refined_infoset_ids_are_stable(make, split, classes):
    # Each class is named by a hash of its obs_i key and listed in key
    # order; pinned so that no new way of computing them renames the
    # infosets of saved games or reorders the plan.
    pr, plan = perfect_recall_refinement(make(), 1)
    assert plan.mapping[split] == tuple(classes)
    assert {i: pr.infosets[1][i].nodes for i in plan.mapping[split]} == classes


def test_refinement_is_fast_on_a_deep_chain():
    g = gen_lenny(2000)
    start = time.perf_counter()
    perfect_recall_refinement(g, 1)
    assert time.perf_counter() - start < 0.5


def test_own_histories_number_the_obs_i_keys():
    for seed in range(20):
        g = gen_random(depth=4, branching=2, merge_rate=0.7, chance_rate=0.3,
                       absentmindedness=seed % 2 == 1, seed=700 + seed, players=2)
        for player in (1, 2):
            history, _ = own_histories(g, player)
            keys = {nid: tuple((s[1], s[2]) for s in obs_i(g, nid, player).steps)
                    for nid in g.nodes}
            # One id per key and one key per id.
            pairs = {(history[n][0], keys[n]) for n in g.nodes}
            assert len(pairs) == len({i for i, _ in pairs}) == len({k for _, k in pairs})
            assert all(history[n][1] == len(keys[n]) for n in g.nodes)


def test_fig3_pr_splits_second_infoset_into_singletons():
    g = gen_fig3(Fraction(1, 10))
    pr, plan = perfect_recall_refinement(g, 1)
    assert plan.mapping["I1"] == ("I1",)
    assert len(plan.mapping["I2"]) == 2
    assert all(len(pr.infosets[1][f].nodes) == 1 for f in plan.mapping["I2"])


def test_pr_of_perfect_recall_game_is_identical():
    g = gen_fig3(Fraction(1, 10))
    pr, _ = perfect_recall_refinement(g, 1)
    again, plan = perfect_recall_refinement(pr, 1)
    assert again.infosets[1].keys() == pr.infosets[1].keys()
    assert all(v == (k,) for k, v in plan.mapping.items())


def test_pr_is_idempotent_on_partitions():
    for seed in range(10):
        g = gen_random(depth=4, branching=2, merge_rate=0.8, chance_rate=0.2,
                       absentmindedness=True, seed=seed)
        pr, _ = perfect_recall_refinement(g, 1)
        pr2, _ = perfect_recall_refinement(pr, 1)
        part1 = {frozenset(i.nodes) for i in pr.infosets[1].values()}
        part2 = {frozenset(i.nodes) for i in pr2.infosets[1].values()}
        assert part1 == part2


@PROPERTY
@given(game=games, player=st.sampled_from([1, 2]), seed=st.integers(0, 10_000))
def test_lifting_along_the_refinement_keeps_every_utility(game, player, seed):
    player = min(player, game.players)
    refined, plan = perfect_recall_refinement(game, player)
    profile = random_profile(game, seed, exact=True)
    lifted = lift_strategy(game, refined, plan, profile)
    for p in range(1, game.players + 1):
        assert expected_utility(refined, lifted, p) == expected_utility(game, profile, p)


@PROPERTY
@given(game=games)
def test_refinement_is_idempotent_and_coarsest(game):
    refined, _ = perfect_recall_refinement(game, 1)
    again, plan = perfect_recall_refinement(refined, 1)
    assert partitions(again) == partitions(refined)
    assert all(fine == (coarse,) for coarse, fine in plan.mapping.items())
    assert check_coarsest(game, 1, refined)


def test_all_player_refinement_on_fig1_touches_only_player1():
    g = gen_fig1(Fraction(1, 100))
    pr = perfect_recall_refinement_all(g)
    assert len(pr.infosets[1]) == 2   # the two-node infoset split
    assert len(pr.infosets[2]) == 1   # P2's singleton untouched
    assert has_perfect_recall(pr, 1) and has_perfect_recall(pr, 2)


def test_all_player_refinement_matches_single_player_case():
    g = gen_fig2()
    via_all = perfect_recall_refinement_all(g)
    via_one, _ = perfect_recall_refinement(g, 1)
    assert {frozenset(i.nodes) for i in via_all.infosets[1].values()} == {
        frozenset(i.nodes) for i in via_one.infosets[1].values()
    }


def test_check_coarsest_on_figure_refinements():
    g = gen_fig2()
    assert check_coarsest(g, 1, full_information_refinement(g, 1))
    pr, _ = perfect_recall_refinement(g, 1)
    assert check_coarsest(g, 1, pr)


def test_check_coarsest_rejects_bad_preconditions():
    g = gen_fig2()
    with pytest.raises(ValueError):
        check_coarsest(g, 1, g)  # g lacks perfect recall


def test_coarsest_property_on_random_refinement_chain():
    # pr of any refinement of g both refines g and has perfect recall, so
    # it must refine pr(g): the coarsest-refinement property.
    for seed in range(15):
        g = gen_random(depth=4, branching=2, merge_rate=0.8, chance_rate=0.2,
                       absentmindedness=bool(seed % 2), seed=seed)
        candidate = full_information_refinement(g, 1)
        assert check_coarsest(g, 1, candidate)
        finer, _ = perfect_recall_refinement(g, 1)
        assert check_coarsest(g, 1, finer)


def test_dummy_transform_gives_full_information_after_pr():
    g = gen_fig2()
    d = dummy_node_transform(g, 1)
    assert validate_game(d) == []
    added = [nid for nid in d.nodes if nid.startswith("d:")]
    assert len(added) == 3
    pr, _ = perfect_recall_refinement(d, 1)
    assert all(len(i.nodes) == 1 for i in pr.infosets[1].values())
    assert has_perfect_recall(pr, 1)


def test_dummy_transform_preserves_optimal_utility():
    g = gen_fig2()
    d = dummy_node_transform(g, 1)
    assert optimal_strategy(d).utilities[0] == Fraction(2, 3)


def test_dummy_transform_without_target_nodes_is_identity():
    g = gen_fig1(Fraction(1, 100))
    # player 2 owns one node; remove by transforming a player with none
    nodes_before = set(g.nodes)
    d2 = dummy_node_transform(g, 2)
    assert set(d2.nodes) == nodes_before | {"d:v0"}
    # a game where the player owns nothing stays identical
    single = gen_fig2()
    assert dummy_node_transform(single, 1) is not single  # has P1 nodes
