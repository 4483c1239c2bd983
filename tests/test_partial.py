"""Partial recall: splits, bounded-split enumeration, and the exhaustive
best-refinement search."""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import irgames.partial as partial
from irgames.game import validate_game
from irgames.generators import (
    gen_fig2,
    gen_fig5,
    gen_fig5_split,
    gen_lenny,
    gen_random,
    gen_x3c_game,
)
from irgames.partial import (
    SplitStep,
    apply_split,
    enumerate_k_refinements,
    is_partial_refinement,
    k_best_partial,
)
from irgames.recall import perfect_recall_refinement
from irgames.solvers import (
    CapExceededError,
    edt_nash_check,
    enumerate_equilibria,
    optimal_strategy,
)
from irgames.strategies import expected_utility, profile_from, pure_strategy


def test_is_partial_refinement_endpoints():
    g = gen_fig5()
    assert is_partial_refinement(g, g, 1)
    pr, _ = perfect_recall_refinement(g, 1)
    assert is_partial_refinement(pr, g, 1)
    assert is_partial_refinement(gen_fig5_split(), g, 1)


def test_split_crossing_observation_classes_is_rejected():
    # in fig2 the first-visit pair {a, w} may not be separated from the
    # revisit {b} arbitrarily: grouping a with b crosses obs classes
    g = gen_fig2()
    step = SplitStep(player=1, infoset_id="I", part_a=("a", "b"), part_b=("w",))
    with pytest.raises(ValueError, match="not recall-consistent"):
        apply_split(g, step)


def test_apply_split_fig5_reproduces_the_published_refinement():
    g = gen_fig5()
    step = SplitStep(player=1, infoset_id="I", part_a=("r",), part_b=("a", "b"))
    refined = apply_split(g, step)
    assert validate_game(refined) == []
    parts = {frozenset(i.nodes) for i in refined.infosets[1].values()}
    assert parts == {frozenset({"r"}), frozenset({"a", "b"})}
    assert is_partial_refinement(refined, g, 1)


def test_apply_split_rejects_bad_subsets():
    g = gen_fig5()
    with pytest.raises(ValueError, match="invalid split"):
        apply_split(g, SplitStep(1, "I", ("r",), ("a",)))
    singleton = gen_fig5_split()
    with pytest.raises(ValueError, match="invalid split"):
        apply_split(singleton, SplitStep(1, "I1", ("r",), ()))


def test_enumerate_k0_returns_the_game_itself():
    g = gen_fig5()
    assert enumerate_k_refinements(g, 1, 0) == [g]


def test_enumerate_k1_fig5_contains_the_split_variant():
    g = gen_fig5()
    games = enumerate_k_refinements(g, 1, 1)
    target = {frozenset({"r"}), frozenset({"a", "b"})}
    partitions = [
        {frozenset(i.nodes) for i in cand.infosets[1].values()} for cand in games
    ]
    assert target in partitions
    # atoms of fig5 are {r}, {a}, {b}: one split gives the trivial
    # partition plus the three two-block groupings
    assert len(games) == 4


def test_enumeration_counts_match_partition_combinatorics():
    # an X3C game's big infoset has one atom per universe element, so the
    # number of at-most-k-split refinements is the number of partitions of
    # the atom set into at most k+1 blocks (dummy infosets are singletons)
    g, _ = gen_x3c_game(6, [(1, 2, 3), (4, 5, 6)])
    # Stirling numbers S(6, 1) + S(6, 2) = 1 + 31
    assert len(enumerate_k_refinements(g, 1, 1)) == 32
    # + S(6, 3) = 90
    assert len(enumerate_k_refinements(g, 1, 2)) == 122


def test_every_enumerated_refinement_is_partial():
    g = gen_fig2()
    for cand in enumerate_k_refinements(g, 1, 1):
        assert is_partial_refinement(cand, g, 1)
        assert validate_game(cand) == []


def test_k_best_partial_x3c_yes_instance():
    g, k = gen_x3c_game(6, [(1, 2, 3), (4, 5, 6)])
    assert k == 1
    best, value = k_best_partial(g, k)
    assert value == 1
    parts = {frozenset(i.nodes) for i in best.infosets[1].values()
             if len(i.nodes) > 1 or not next(iter(i.nodes)).startswith("o")}
    assert frozenset({"p1", "p2", "p3"}) in parts
    assert frozenset({"p4", "p5", "p6"}) in parts


def test_k_best_partial_x3c_no_instance():
    g, k = gen_x3c_game(6, [(1, 2, 3), (3, 4, 5)])
    _, value = k_best_partial(g, k)
    assert value < 1
    assert value == Fraction(5, 6)


def has_exact_cover(universe, family):
    """Brute force: some |U|/3 of the sets are disjoint and cover U."""
    return any(set().union(*sets) == set(universe)
               for sets in itertools.combinations(family, len(universe) // 3))


TRIPLES = list(itertools.combinations(range(1, 7), 3))


# The reduction: with budget |U|/3 - 1 the best partial recall reaches
# value 1 exactly when the family holds an exact cover.  {246, 345, 146}
# has none, though some two of its sets cover all but one element.
@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(TRIPLES), min_size=2, max_size=4, unique=True))
@example([(2, 4, 6), (3, 4, 5), (1, 4, 6)])
@example([(1, 2, 3), (4, 5, 6), (1, 4, 5), (2, 3, 6)])
def test_k_best_partial_is_one_exactly_on_x3c_yes_instances(family):
    g, k = gen_x3c_game(6, family)
    assert k == 1
    _, value = k_best_partial(g, k)
    assert (value == 1) == has_exact_cover(range(1, 7), family)


def test_k_best_partial_k0_equals_optimal():
    g, _ = gen_x3c_game(6, [(1, 2, 3), (4, 5, 6)])
    refined, value = k_best_partial(g, 0)
    assert value == optimal_strategy(g).utilities[0] == Fraction(1, 2)
    assert refined is g


def test_k_best_partial_is_monotone_in_k():
    for seed in range(5):
        g = gen_random(depth=3, branching=2, merge_rate=0.8, chance_rate=0.3,
                       absentmindedness=False, seed=1100 + seed)
        values = [float(k_best_partial(g, k)[1]) for k in range(3)]
        assert values == sorted(values)


def test_enough_splits_recover_the_full_refinement_value():
    g = gen_fig2()
    pr, plan = perfect_recall_refinement(g, 1)
    splits_needed = sum(len(v) - 1 for v in plan.mapping.values())
    _, value = k_best_partial(g, splits_needed)
    assert value == optimal_strategy(pr).utilities[0]


def test_enumeration_cap(monkeypatch):
    g, _ = gen_x3c_game(9, [(1, 2, 3), (4, 5, 6), (7, 8, 9)])
    monkeypatch.setattr(partial, "_REFINEMENT_CAP", 50)
    with pytest.raises(CapExceededError):
        enumerate_k_refinements(g, 1, 8)


@pytest.mark.parametrize("cap", [3, 4])
def test_enumeration_cap_is_the_most_candidates_returned(monkeypatch, cap):
    # fig5 with k = 1 has 4 candidates; a cap of 3 once returned all 4.
    monkeypatch.setattr(partial, "_REFINEMENT_CAP", cap)
    if cap < 4:
        with pytest.raises(CapExceededError, match=f"more than {cap} candidate"):
            enumerate_k_refinements(gen_fig5(), 1, 1)
    else:
        assert len(enumerate_k_refinements(gen_fig5(), 1, 1)) == 4


def test_enumeration_cap_is_checked_before_the_groupings_are_built():
    # lenny20's infoset has 20 atoms, so 2**19 groupings into at most two
    # blocks; building them all before the cap check took 5 s.
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="more than 20000 candidate"):
        enumerate_k_refinements(gen_lenny(20), 1, 1)
    assert time.perf_counter() - start < 0.5


def test_enumeration_runs_over_a_long_chain_of_infosets():
    # 1,200 infosets, one atom each: the enumeration once recursed once per
    # infoset and raised RecursionError.
    g, _ = perfect_recall_refinement(gen_lenny(1200), 1)
    assert enumerate_k_refinements(g, 1, 1) == [g]


def test_fig5_regression_report():
    """The bad equilibrium from partial recall: in the merged game the sole
    surviving EDT-Nash class plays the first action (value 2); the split
    game also accepts always-second (value 1)."""
    merged, split = gen_fig5(), gen_fig5_split()
    merged_classes = [
        r for r in enumerate_equilibria(merged, "EDT")
        if edt_nash_check(merged, r.profile)
    ]
    iid = next(iter(merged.infosets[1]))
    assert [float(r.utilities[0]) for r in merged_classes] == [pytest.approx(2.0)]
    assert abs(float(merged_classes[0].profile[1].row(iid)[0]) - 1.0) <= 1e-6
    rr = profile_from(pure_strategy(split, 1, {i: 1 for i in split.infosets[1]}))
    assert edt_nash_check(split, rr)
    assert float(expected_utility(split, rr, 1)) == pytest.approx(1.0)
