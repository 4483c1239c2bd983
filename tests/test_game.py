"""Core game representation: validation, path/observation queries, and
structural predicates."""

import time
from dataclasses import replace
from fractions import Fraction

import pytest

from irgames.game import (
    Game,
    Infoset,
    Node,
    first_visit_nodes,
    has_absentmindedness,
    make_game,
    obs,
    obs_i,
    seq,
    validate_game,
)
from irgames.generators import gen_dory, gen_fig2, gen_fig3, gen_lenny, gen_random


def test_fig2_is_valid():
    assert validate_game(gen_fig2()) == []


def test_chance_distribution_must_sum_to_one():
    g = gen_fig2()
    bad_nodes = dict(g.nodes)
    bad_nodes["c0"] = replace(g.nodes["c0"], chance_dist=(0.5, 0.6))
    bad = Game(players=1, root=g.root, nodes=bad_nodes,
               utilities=g.utilities, infosets=g.infosets)
    report = validate_game(bad)
    assert len(report) == 1
    assert "sums to 1.1" in report[0]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_chance_probabilities_and_utilities_are_flagged(bad):
    # NaN compares false with everything, so no sum or sign test sees it.
    g = gen_fig2()
    nodes = {**g.nodes, "c0": replace(g.nodes["c0"], chance_dist=(bad, 0.5))}
    broken = replace(g, nodes=nodes, utilities={**g.utilities, "zb3": (bad,)})
    report = validate_game(broken)
    assert f"chance node 'c0': probability {bad} is not finite" in report
    assert f"terminal 'zb3': utility {bad} is not finite" in report


def test_infoset_with_mismatched_action_lists_is_flagged():
    nodes = [
        Node(id="r", owner=1, actions=("a", "b"), children=("m", "z0")),
        Node(id="m", owner=1, actions=("a", "b", "c"), children=("z1", "z2", "z3")),
        Node(id="z0", owner="terminal"),
        Node(id="z1", owner="terminal"),
        Node(id="z2", owner="terminal"),
        Node(id="z3", owner="terminal"),
    ]
    utils = {z: (Fraction(0),) for z in ("z0", "z1", "z2", "z3")}
    infosets = [Infoset(id="I", player=1, nodes=("r", "m"), actions=("a", "b"))]
    g = make_game(1, "r", nodes, utils, infosets)
    report = validate_game(g)
    assert any("action list" in p and "'m'" in p for p in report)


def test_infoset_of_a_player_beyond_the_count_is_flagged():
    # The partition check once looped over players 1..players only, so a
    # one-player game with an infoset of player 2 was valid, and optimal
    # play then raised a KeyError on the infoset's missing row.
    nodes = [
        Node(id="r", owner=1, actions=("a", "b"), children=("z0", "z1")),
        Node(id="z0", owner="terminal"),
        Node(id="z1", owner="terminal"),
    ]
    utils = {z: (Fraction(1),) for z in ("z0", "z1")}
    infosets = [Infoset(id="I", player=1, nodes=("r",), actions=("a", "b")),
                Infoset(id="G", player=2, nodes=("r",), actions=("a", "b"))]
    report = validate_game(make_game(1, "r", nodes, utils, infosets))
    assert report == ["infoset 'G': player 2 out of range",
                      "infoset 'G': node 'r' owned by 1, not player 2"]


def test_dangling_child_and_duplicate_parent_are_flagged():
    nodes = [
        Node(id="r", owner=1, actions=("a",), children=("ghost",)),
    ]
    g = make_game(1, "r", nodes, {}, [
        Infoset(id="I", player=1, nodes=("r",), actions=("a",))
    ])
    report = validate_game(g)
    assert any("ghost" in p for p in report)


def test_seq_of_root_is_empty_and_depth_matches():
    g = gen_fig2()
    assert seq(g, "c0") == []
    # deepest decision node sits below the chance root and the first choice
    assert seq(g, "b") == ["c0", "a"]
    for z in g.terminals:
        assert len(seq(g, z)) >= 1


def test_obs_matches_seq_length_everywhere():
    g = gen_fig2()
    for nid in g.nodes:
        assert len(obs(g, nid)) == len(seq(g, nid))


def test_obs_i_of_first_layer_is_empty():
    g = gen_fig2()
    assert obs_i(g, "a", 1).steps == ()
    assert obs_i(g, "w", 1).steps == ()
    assert obs_i(g, "b", 1).steps == ((1, "I", "L"),)
    assert obs(g, "c0").steps == ()


def test_obs_rejects_unknown_node_and_player():
    g = gen_fig2()
    with pytest.raises(KeyError):
        seq(g, "nope")
    with pytest.raises(ValueError):
        obs_i(g, "a", 2)


def test_absentmindedness_detection():
    assert has_absentmindedness(gen_fig2(), 1)
    assert not has_absentmindedness(gen_fig3(Fraction(1, 10)), 1)
    for n in (2, 4, 6):
        assert has_absentmindedness(gen_lenny(n), 1)
    assert not has_absentmindedness(gen_dory(3), 1)


def test_first_visit_nodes():
    g3 = gen_fig3(Fraction(1, 10))
    assert first_visit_nodes(g3, "I2") == {"a", "b"}
    lenny = gen_lenny(4)
    assert first_visit_nodes(lenny, "I") == {"d1"}
    assert first_visit_nodes(g3, "I1") == {"r"}


def test_partition_property_on_random_games():
    for seed in range(25):
        g = gen_random(depth=4, branching=2, merge_rate=0.7, chance_rate=0.3,
                       absentmindedness=bool(seed % 2), seed=seed, players=2)
        assert validate_game(g) == []
        for player in (1, 2):
            covered = [
                nid
                for iset in g.infosets.get(player, {}).values()
                for nid in iset.nodes
            ]
            assert sorted(covered) == sorted(
                nid for nid, n in g.nodes.items() if n.owner == player
            )
            assert len(covered) == len(set(covered))


def test_absentmindedness_characterization_on_random_games():
    # no infoset may contain a node and one of its ancestors iff the
    # predicate is false
    for seed in range(25):
        g = gen_random(depth=5, branching=2, merge_rate=0.8, chance_rate=0.2,
                       absentmindedness=bool(seed % 2), seed=seed)
        pair_exists = False
        for iset in g.infosets.get(1, {}).values():
            members = set(iset.nodes)
            for nid in iset.nodes:
                if any(a in members for a in seq(g, nid)):
                    pair_exists = True
        assert has_absentmindedness(g, 1) == pair_exists


def test_first_visit_nodes_is_linear_on_deep_chains():
    g = gen_lenny(1000)
    start = time.perf_counter()
    assert first_visit_nodes(g, "I") == {"d1"}
    assert time.perf_counter() - start < 0.005


def test_first_visit_nodes_matches_observation_definition():
    # reference: members whose observation sequence never names the infoset
    cases = [gen_dory(3)] + [
        gen_random(depth=4, branching=2, merge_rate=0.8, chance_rate=0.2,
                   absentmindedness=bool(seed % 2), seed=seed, players=1 + seed % 3 // 2)
        for seed in range(29)
    ]
    for g in cases:
        for player, isets in g.infosets.items():
            for iid, iset in isets.items():
                want = {
                    nid for nid in iset.nodes
                    if all(step[1] != iid for step in obs(g, nid))
                }
                assert first_visit_nodes(g, iid, player) == want
