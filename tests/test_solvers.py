"""Solution concepts: optimal strategies, equilibrium checks, rationality
refinements, best-response verification, and enumeration."""

import itertools
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import single, stall_chain, strat

import irgames.closed_form as closed_form
import irgames.recall as recall
import irgames.solvers as solvers
from irgames.game import Infoset, Node, has_absentmindedness, make_game, validate_game
from irgames.generators import (
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
)
from irgames.recall import has_perfect_recall, perfect_recall_refinement
from irgames.strategies import (
    deviate,
    expected_utility,
    fix_opponents,
    profile_from,
    pure_strategy,
    uniform_profile,
)
from irgames.solvers import (
    EquilibriumNotFoundError,
    SolverConfig,
    best_worst,
    cdt_nash_check,
    cdt_rational_check,
    cdt_utility,
    edt_check,
    edt_incentive,
    edt_nash_check,
    edt_rational_check,
    enumerate_equilibria,
    kkt_check,
    kkt_check_profile,
    nash_check,
    optimal_strategy,
)
from irgames.vor import vor_compute

EPS3 = Fraction(1, 10)
CFG = SolverConfig()


def fig3_pr_ids(pr):
    ids = sorted(pr.infosets[1])
    i21 = next(i for i in ids if pr.infosets[1][i].nodes == ("a",))
    i22 = next(i for i in ids if pr.infosets[1][i].nodes == ("b",))
    return i21, i22


# -- optimal strategies ------------------------------------------------------


def test_optimal_fig2_exact_value_and_mixing():
    report = optimal_strategy(gen_fig2())
    assert report.utilities[0] == Fraction(2, 3)
    assert report.profile[1].row("I")[0] == Fraction(1, 3)


def test_optimal_rejects_multiplayer():
    with pytest.raises(ValueError):
        optimal_strategy(gen_fig1(Fraction(1, 100)))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_optimal_lenny(n):
    report = optimal_strategy(gen_lenny(n))
    assert report.utilities[0] == Fraction(1, 2 ** n)
    pr, _ = perfect_recall_refinement(gen_lenny(n), 1)
    assert optimal_strategy(pr).utilities[0] == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_optimal_dory(n):
    g = gen_dory(n)
    report = optimal_strategy(g)
    assert report.certified == "exact"
    assert report.utilities[0] == Fraction(1, n)
    pr, _ = perfect_recall_refinement(g, 1)
    assert optimal_strategy(pr).utilities[0] == 1


def with_float_numbers(game):
    """The game with every chance probability and utility a float."""
    nodes = {nid: replace(node, chance_dist=node.chance_dist
                          and tuple(map(float, node.chance_dist)))
             for nid, node in game.nodes.items()}
    return replace(game, nodes=nodes,
                   utilities={z: tuple(map(float, u)) for z, u in game.utilities.items()})


@pytest.mark.parametrize("make, value, bound", [
    (lambda: gen_random(7, 3, 0.6, 0.2, False, 1), Fraction(78, 11), Fraction(78, 11)),
    (lambda: gen_random(6, 3, 0.6, 0.2, True, 1), Fraction(48, 5), Fraction(48, 5)),
    (gen_fig5, Fraction(2), Fraction(2)),
    (gen_fig2, Fraction(2, 3), Fraction(3, 2)),
    (lambda: gen_lenny(6), Fraction(1, 64), Fraction(1)),
    (lambda: with_float_numbers(gen_random(7, 3, 0.6, 0.2, False, 1)), 78 / 11, 78 / 11),
    (lambda: with_float_numbers(gen_fig5()), 2.0, 2.0),
], ids=["r7", "am6", "fig5", "fig2", "lenny6", "float r7", "float fig5"])
def test_an_exact_snap_at_the_refinements_optimum_is_certified(make, value, bound):
    # Lifting keeps utility, so the refinement's exact optimum bounds the
    # game's: am6's best pure strategy meets it, and r7 is not
    # absentminded, so its pure search is exact, in floats too.  fig2
    # (2/3 against 3/2), lenny6 (1/64 against 1) and fig5, in floats too,
    # have one two-action row, whose maximum is found in closed form.
    g = make()
    report = optimal_strategy(g)
    assert report.u1 == pytest.approx(value, rel=1e-12)
    assert isinstance(report.u1, Fraction) == isinstance(value, Fraction)
    assert (report.certified, report.notes) == ("exact", ())
    refined = perfect_recall_refinement(g, 1)[0]
    for exact, want in ((recall.pure_optimum(refined)[0], bound),
                        (expected_utility(g, report.profile, 1), report.u1)):
        assert exact == (want if isinstance(value, Fraction)
                         else pytest.approx(want, rel=1e-12))


def perfect_recall_games():
    """Perfect-recall games for the DP: random trees without merges, the
    refinements of random imperfect-recall trees (absentminded or not), and
    the refined dory2 and lenny6."""
    for seed in range(10):
        yield gen_random(depth=4, branching=2, merge_rate=0.0, chance_rate=0.3,
                         absentmindedness=False, seed=seed)
    for seed in range(10):
        g = gen_random(depth=4, branching=2, merge_rate=0.7, chance_rate=0.3,
                       absentmindedness=seed % 2 == 1, seed=500 + seed)
        yield perfect_recall_refinement(g, 1)[0]
    yield perfect_recall_refinement(gen_dory(2), 1)[0]
    yield perfect_recall_refinement(gen_lenny(6), 1)[0]


def test_pure_enumeration_agrees_with_dp_on_perfect_recall_games(monkeypatch):
    # Under perfect recall the root pass is the answer: a budget of one
    # step still lets the first pass run, and no second one.
    monkeypatch.setattr(recall, "_SEARCH_BUDGET", 1)
    for g in perfect_recall_games():
        assert has_perfect_recall(g, 1)
        value, strategy = recall.pure_optimum(g)
        assert value == brute_force_opt(g)[0] == expected_utility(g, profile_from(strategy), 1)


def test_one_own_history_walk_per_optimal_solve(monkeypatch):
    # The perfect-recall test and the sequence-form DP share one walk.
    walks = []
    walk = recall._walk_own_histories

    def counted(game, player):
        walks.append((id(game), player))
        return walk(game, player)

    refined = perfect_recall_refinement(gen_random(4, 2, 0.6, 0.3, False, 3), 1)[0]
    monkeypatch.setattr(recall, "_walk_own_histories", counted)
    assert optimal_strategy(refined).certified == "exact"
    assert has_perfect_recall(refined, 1)
    assert walks == [(id(refined), 1)]


def test_perfect_recall_dp_is_fast_on_a_deep_chain():
    g = perfect_recall_refinement(gen_lenny(2000), 1)[0]
    start = time.perf_counter()
    report = optimal_strategy(g)
    assert time.perf_counter() - start < 0.3
    assert report.utilities[0] == 1 and report.certified == "exact"


def test_optimal_play_runs_below_a_deep_chance_chain():
    # 3,000 chance nodes above one decision: the DP once recursed once per
    # node and raised RecursionError, in optimal_strategy and in OPT VoR.
    n, half = 3000, Fraction(1, 2)
    nodes = [Node(f"c{i}", "chance", ("on", "off"),
                  (f"c{i + 1}" if i + 1 < n else "d", f"t{i}"), (half, half))
             for i in range(n)]
    nodes += [Node(f"t{i}", "terminal") for i in range(n)]
    nodes += [Node("d", 1, ("l", "r"), ("zl", "zr")),
              Node("zl", "terminal"), Node("zr", "terminal")]
    utilities = {f"t{i}": (Fraction(1),) for i in range(n)}
    utilities.update(zl=(Fraction(0),), zr=(Fraction(2),))
    g = make_game(1, "c0", nodes, utilities, [Infoset("D", 1, ("d",), ("l", "r"))])
    report = optimal_strategy(g)
    assert report.utilities[0] == 1 + half ** n and report.certified == "exact"
    assert report.profile[1].row("D") == (0, 1)
    vor = vor_compute(g, "OPT")
    assert vor.numerator == vor.denominator == report.utilities[0]


def test_pure_enumeration_sees_leaves_below_float_underflow():
    # 1,100 chance nodes above a forgetful pair of decisions: every leaf
    # below them has chance 2**-1100, which is 0 as a float, so all four
    # pure strategies tie in float.  Each reached set is valued exactly,
    # and the best one wins; the first strategy (l, a) is worth only the
    # chain's own leaves.
    n, half = 1100, Fraction(1, 2)
    nodes = [Node(f"c{i}", "chance", ("on", "off"),
                  (f"c{i + 1}" if i + 1 < n else "d", f"t{i}"), (half, half))
             for i in range(n)]
    nodes += [Node(f"t{i}", "terminal") for i in range(n)]
    nodes += [Node("d", 1, ("l", "r"), ("e1", "e2")),
              Node("e1", 1, ("a", "b"), ("z1a", "z1b")),
              Node("e2", 1, ("a", "b"), ("z2a", "z2b"))]
    nodes += [Node(z, "terminal") for z in ("z1a", "z1b", "z2a", "z2b")]
    utilities = {f"t{i}": (Fraction(1),) for i in range(n)}
    utilities.update(z1a=(Fraction(0),), z1b=(Fraction(1),),
                     z2a=(Fraction(2),), z2b=(Fraction(0),))
    g = make_game(1, "c0", nodes, utilities, [Infoset("D", 1, ("d",), ("l", "r")),
                                              Infoset("E", 1, ("e1", "e2"), ("a", "b"))])
    assert validate_game(g) == [] and not has_perfect_recall(g, 1)
    assert not has_absentmindedness(g, 1) and float(g.leaves["z2a"].chance) == 0
    report = optimal_strategy(g)
    assert report.utilities[0] == 1 + half ** n and report.certified == "exact"
    assert report.profile[1].table == {"D": (0, 1), "E": (1, 0)}


@pytest.mark.parametrize("depth, seed, value", [
    (6, 18, Fraction(7)), (8, 2, Fraction(70, 11)), (7, 18, Fraction(599, 70)),
], ids=["g6_18", "g8_2", "g7_18"])
def test_pure_search_is_exact_where_the_polish_fell_short(depth, seed, value):
    # The polish once reported 33/5, 65/11 and 8.5238 here, and a CDT class
    # was worth more than that OPT: no class of either family may be now.
    g = gen_random(depth, 3, 0.6, 0.2, False, seed)
    report = optimal_strategy(g)
    assert (report.u1, report.certified) == (value, "exact")
    assert expected_utility(g, report.profile, 1) == value
    vor = vor_compute(g, "OPT")
    assert vor.denominator == value
    assert vor.numerator == recall.pure_optimum(perfect_recall_refinement(g, 1)[0])[0]
    assert vor.ratio == 1 or (depth, seed) == (7, 18)
    for family in ("EDT", "CDT"):
        classes = solvers._equilibrium_classes(g, family, CFG)
        assert classes.utilities[:, 0].max() <= float(value) * (1 + 1e-9)


def test_pure_search_past_its_budget_falls_back_to_the_polish(monkeypatch):
    # g7_18's search takes 13 passes over its 507 own-history steps; at a
    # budget of 2,000 steps it stops after four, and the polish answers.
    monkeypatch.setattr(recall, "_SEARCH_BUDGET", 2000)
    g = gen_random(7, 3, 0.6, 0.2, False, 18)
    report = optimal_strategy(g)
    assert recall.pure_optimum(g) is None
    assert report.certified == "heuristic"
    assert report.notes == ("search_budget=2000 own-history steps exceeded",)
    assert report.u1 <= Fraction(599, 70)


def test_the_polish_past_the_budget_starts_from_the_search_incumbent(monkeypatch):
    # 8 variables and 20 clauses: 302 own-history steps.  After 10 passes
    # the search holds an assignment worth 49 but has not proved it; the
    # optimum is 57.
    rng = np.random.default_rng(0)
    clauses = [[int(v) * int(rng.choice((1, -1))) for v in rng.choice(np.arange(1, 9), 3, False)]
               for _ in range(20)]
    monkeypatch.setattr(recall, "_SEARCH_BUDGET", 3020)
    g = gen_sat_game(clauses)
    (value, strategy), proved = recall.pure_search(g)
    assert not proved and value == 49 and recall.pure_optimum(g) is None
    seeds = []
    numeric_opt = solvers._numeric_opt

    def seeded(game, cfg, incumbent=None):
        seeds.append(incumbent)
        return numeric_opt(game, cfg, incumbent)

    monkeypatch.setattr(solvers, "_numeric_opt", seeded)
    report = optimal_strategy(g)
    assert seeds == [strategy]
    assert report.u1 >= value
    assert report.certified == "heuristic"
    assert report.notes == ("search_budget=3020 own-history steps exceeded",)


def no_polish(game, cfg, incumbent=None):
    raise AssertionError("optimal play reached the polish")


def one_row_game(tree):
    """A one-player game from a nested tuple: ("I", left, right) is a node
    of the one infoset I (actions L, R), ("c", left, right) a chance node
    with probabilities (1/3, 2/3), and an integer a leaf's utility."""
    nodes, utilities, members = [], {}, []
    stack = [("n", tree)]
    while stack:
        nid, t = stack.pop()
        if isinstance(t, int):
            nodes.append(Node(nid, "terminal"))
            utilities[nid] = (Fraction(t),)
            continue
        kind, *subtrees = t
        children = (nid + "0", nid + "1")
        if kind == "c":
            nodes.append(Node(nid, "chance", ("l", "r"), children,
                              (Fraction(1, 3), Fraction(2, 3))))
        else:
            nodes.append(Node(nid, 1, ("L", "R"), children))
            members.append(nid)
        stack.extend(zip(children, subtrees))
    infosets = [Infoset("I", 1, tuple(members), ("L", "R"))]
    return make_game(1, "n", nodes, utilities, infosets, name="one-row")


@pytest.mark.parametrize("make, value", [
    (lambda: stall_chain((10, 20)), Fraction(1, 3) ** 10 * Fraction(2, 3) ** 20),
    (lambda: stall_chain((30, 60)), Fraction(1, 3) ** 30 * Fraction(2, 3) ** 60),
    (lambda: stall_chain((100, 200)), Fraction(1, 3) ** 100 * Fraction(2, 3) ** 200),
    (lambda: gen_lenny(200), Fraction(1, 2 ** 200)),
    (lambda: with_float_numbers(gen_fig2()), 2 / 3),
], ids=["stall10_20", "stall30_60", "stall100_200", "lenny200", "float fig2"])
def test_one_two_action_row_is_maximised_in_closed_form(monkeypatch, make, value):
    # The polish stalled below the skew chains' maxima, at 5.0844e-9 on
    # the first, and called that grid-certified.
    monkeypatch.setattr(solvers, "_numeric_opt", no_polish)
    g = make()
    report = optimal_strategy(g)
    assert (report.u1, report.certified, report.notes) == (value, "exact", ())
    assert isinstance(report.u1, Fraction) == g.is_rational
    assert expected_utility(g, report.profile, 1) == value


def test_a_higher_degree_row_falls_through_to_the_polish():
    # (1 - x)(9 x^2 + 1): R stripped of its root at 0 is quadratic, with
    # the irrational root (9 + sqrt 54) / 27; every pure strategy is worth
    # at most 1, below the refinement's 9.
    g = one_row_game(("I", ("I", ("I", 0, 9), 0), 1))
    assert closed_form.two_action_optimum(g) is None
    report = optimal_strategy(g)
    x = (9 + math.sqrt(54)) / 27
    assert report.certified == "grid-certified(delta=1/64)"
    assert float(report.u1) == pytest.approx((1 - x) * (9 * x * x + 1), rel=1e-9)


def test_a_pure_optimum_at_the_refinements_optimum_skips_the_polish(monkeypatch):
    # am6's best pure strategy meets the refinement's exact optimum, which
    # bounds every mixed strategy too.  A float copy proves nothing by that
    # comparison and polishes.
    monkeypatch.setattr(solvers, "_numeric_opt", no_polish)
    g = gen_random(6, 3, 0.6, 0.2, True, 1)
    report = optimal_strategy(g)
    assert (report.u1, report.certified, report.notes) == (Fraction(48, 5), "exact", ())
    with pytest.raises(AssertionError, match="polish"):
        optimal_strategy(with_float_numbers(g))


def test_the_polish_starts_from_the_best_pure_strategy():
    # The best pure strategy, 299/35, falls short of the refinement's
    # optimum, so the polish runs; it reported 8.4594 before it was seeded
    # with that strategy.
    g = gen_random(7, 3, 0.6, 0.2, True, 18)
    report = optimal_strategy(g)
    assert recall.pure_optimum(g)[0] == Fraction(299, 35)
    assert report.certified == "heuristic" and report.u1 >= Fraction(299, 35)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(tree=st.recursive(st.integers(0, 9), lambda sub: st.tuples(
    st.sampled_from("IIc"), sub, sub), max_leaves=12).filter(lambda t: not isinstance(t, int)))
def test_one_two_action_row_is_worth_the_polish_and_every_pure_strategy(tree):
    g = one_row_game(("I", *tree[1:]))
    assert validate_game(g) == []
    assume(has_absentmindedness(g, 1))
    report = optimal_strategy(g)
    polished = float(solvers._numeric_opt(g, CFG).u1)
    assert float(report.u1) >= polished - 1e-9 * abs(polished)
    for row in ((1, 0), (0, 1)):
        assert report.u1 >= expected_utility(g, single({"I": row}), 1)
    if closed_form.two_action_optimum(g) is not None:
        assert report.certified == "exact"
        assert report.u1 == expected_utility(g, report.profile, 1)


def test_more_than_64_rows():
    # numpy allows at most 64 axes; the pure seeds and the full grid once
    # took one per row.  65 one-action rows lead to an absentminded row A
    # visited twice, worth x_a ** 2.
    nodes = [Node(f"p{k}", 1, ("go",), (f"p{k + 1}" if k < 64 else "d1",)) for k in range(65)]
    nodes += [Node("d1", 1, ("a", "b"), ("d2", "z0")), Node("d2", 1, ("a", "b"), ("z1", "z2"))]
    nodes += [Node(z, "terminal") for z in ("z0", "z1", "z2")]
    utilities = {"z0": (Fraction(0),), "z1": (Fraction(1),), "z2": (Fraction(0),)}
    infosets = [Infoset(f"P{k}", 1, (f"p{k}",), ("go",)) for k in range(65)]
    infosets.append(Infoset("A", 1, ("d1", "d2"), ("a", "b")))
    g = make_game(1, "p0", nodes, utilities, infosets)
    assert validate_game(g) == [] and has_absentmindedness(g, 1)
    assert len(g.numeric.index.rows) == 66
    assert optimal_strategy(g).u1 == 1
    assert best_worst(g, "EDT", "best").u1 == 1


def test_pure_search_solves_a_3sat_game_with_75_rows():
    # 14 variables, 60 clauses and the opt-out: 75 rows, where the pure
    # enumeration raised.  A pure strategy is an assignment, worth
    # eta + M' * (violated clauses) / n = 1 + 8 * violated.
    rng = np.random.default_rng(0)
    clauses = [[int(v) * int(rng.choice((1, -1))) for v in rng.choice(np.arange(1, 15), 3, False)]
               for _ in range(60)]
    g = gen_sat_game(clauses)
    assert len(g.infosets[1]) == 75
    report = optimal_strategy(g)
    bits = (np.arange(2 ** 14)[:, None] >> np.arange(14)) & 1 == 1
    violated = sum(np.all([bits[:, abs(l) - 1] != (l > 0) for l in c], axis=0) for c in clauses)
    assert report.certified == "exact" and report.u1 == 1 + 8 * int(violated.max())
    assert expected_utility(g, report.profile, 1) == report.u1


@settings(derandomize=True, max_examples=60, deadline=None)
@given(depth=st.integers(2, 4), merge=st.sampled_from([0.6, 0.9]),
       chance=st.sampled_from([0.3, 0.6]), absentminded=st.booleans(),
       seed=st.integers(0, 10_000))
def test_perfect_recall_dp_is_the_pure_optimum(depth, merge, chance, absentminded, seed):
    g, _ = perfect_recall_refinement(
        gen_random(depth, 2, merge, chance, absentminded, seed), 1)
    assume(math.prod(len(i.actions) for i in g.infosets.get(1, {}).values()) <= 512)
    value, strategy = recall.pure_optimum(g)
    assert value == brute_force_opt(g)[0]
    assert value == expected_utility(g, profile_from(strategy), 1)


# -- incentives and equilibrium checks --------------------------------------


def test_checks_read_the_compiled_table_fast():
    # The benchmark's r7 (841 nodes): an exact walk per infoset took over
    # 0.06 s per check; the batched kernels take about a millisecond.
    g = gen_random(7, 3, 0.6, 0.2, False, seed=1)
    profile = uniform_profile(g)
    g.numeric
    for check in (lambda: edt_check(g, profile), lambda: kkt_check(g, profile, 1)):
        start = time.perf_counter()
        check()
        assert time.perf_counter() - start < 0.05


def test_edt_incentive_at_optimum_is_nonpositive():
    g = gen_fig2()
    prof = single({"I": (Fraction(1, 3), Fraction(2, 3))})
    assert edt_incentive(g, prof, 1, "I") <= 1e-12


def test_edt_incentives_fig3_always_left():
    g = gen_fig3(EPS3)
    prof = single({"I1": (1, 0), "I2": (1, 0)})
    assert edt_incentive(g, prof, 1, "I1") <= 0
    assert edt_incentive(g, prof, 1, "I2") <= 0
    ok, residual = edt_check(g, prof)
    assert ok and residual == 0


def test_edt_check_rejects_always_right_in_fig3():
    g = gen_fig3(EPS3)
    prof = single({"I1": (0, 1), "I2": (0, 1)})
    ok, residual = edt_check(g, prof)
    assert not ok
    # deviating at I2 to L gains eps
    assert residual == pytest.approx(float(EPS3))
    # and from (R, L) the deviation at I1 to L gains 1 - eps
    rl = single({"I1": (0, 1), "I2": (1, 0)})
    assert edt_incentive(g, rl, 1, "I1") == pytest.approx(float(1 - EPS3))


def test_second_equilibrium_of_fig3_refinement():
    pr, _ = perfect_recall_refinement(gen_fig3(EPS3), 1)
    i21, i22 = fig3_pr_ids(pr)
    rrl = single({"I1": (0, 1), i21: (0, 1), i22: (1, 0)})
    ok, residual = edt_check(pr, rrl)
    assert ok and residual <= 1e-12
    assert expected_utility(pr, rrl, 1) == EPS3


def test_cdt_utility_reduces_to_exact_value_without_absentmindedness():
    g = gen_fig3(EPS3)
    prof = single({"I1": (Fraction(1, 2), Fraction(1, 2)),
                   "I2": (Fraction(1, 4), Fraction(3, 4))})
    sigma = (Fraction(2, 3), Fraction(1, 3))
    assert cdt_utility(g, prof, 1, "I2", sigma) == \
        expected_utility(g, deviate(prof, "I2", sigma), 1)
    # zero deviation returns the base utility
    row = prof[1].row("I2")
    assert cdt_utility(g, prof, 1, "I2", row) == expected_utility(g, prof, 1)


def test_kkt_check_fig2():
    g = gen_fig2()
    interior = single({"I": (Fraction(1, 3), Fraction(2, 3))})
    ok, residual = kkt_check(g, interior, 1)
    assert ok and residual <= 1e-12
    vertex = single({"I": (1, 0)})
    ok, residual = kkt_check(g, vertex, 1)
    assert not ok and residual > 1


def test_kkt_check_fig1_cooperative_profile():
    g = gen_fig1(Fraction(1, 100))
    ct = profile_from(strat(1, {"I1": (1, 0)}), strat(2, {"I2": (1, 0)}))
    ok, residual = kkt_check_profile(g, ct)
    assert ok and residual <= 1e-12


def test_checks_take_their_tolerance_from_the_config():
    d = Fraction(1, 10 ** 8)
    fig3 = gen_fig3(EPS3)
    near_left = single({"I1": (1 - d, d), "I2": (1, 0)})  # EDT gain 0.9 d
    fig2 = gen_fig2()
    near_opt = single({"I": (Fraction(1, 3) + d, Fraction(2, 3) - d)})  # KKT gap 3 d
    tight = SolverConfig(eps_eq=1e-9)
    for check in (lambda cfg: edt_check(fig3, near_left, cfg),
                  lambda cfg: kkt_check(fig2, near_opt, 1, cfg),
                  lambda cfg: kkt_check_profile(fig2, near_opt, cfg)):
        ok, residual = check(CFG)
        assert ok and residual > tight.eps_eq
        assert check(tight) == (False, residual)


# -- rationality refinements -------------------------------------------------


def test_edt_rational_fig5_examples():
    g5 = gen_fig5()
    always_left = strat(1, {"I": (1, 0)})
    assert edt_rational_check(g5, always_left)
    g5b = gen_fig5_split()
    rr = strat(1, {"I1": (0, 1), "I2": (0, 1)})
    assert edt_rational_check(g5b, rr)


def test_edt_rational_rejects_unreachable_bluff():
    pr, _ = perfect_recall_refinement(gen_fig3(EPS3), 1)
    i21, i22 = fig3_pr_ids(pr)
    rrl = strat(1, {"I1": (0, 1), i21: (0, 1), i22: (1, 0)})
    assert not edt_rational_check(pr, rrl)
    lll = strat(1, {"I1": (1, 0), i21: (1, 0), i22: (1, 0)})
    assert edt_rational_check(pr, lll)


def test_cdt_rational_agrees_with_edt_rational_without_absentmindedness():
    for seed in range(8):
        g = gen_random(depth=3, branching=2, merge_rate=0.5, chance_rate=0.3,
                       absentmindedness=False, seed=200 + seed)
        report = optimal_strategy(g)
        s = report.profile[1]
        assert edt_rational_check(g, s) == cdt_rational_check(g, s)


def test_cdt_rational_rejects_fig3_bluff():
    pr, _ = perfect_recall_refinement(gen_fig3(EPS3), 1)
    i21, i22 = fig3_pr_ids(pr)
    rrl = strat(1, {"I1": (0, 1), i21: (0, 1), i22: (1, 0)})
    assert not cdt_rational_check(pr, rrl)


def test_edt_nash_examples():
    pr, _ = perfect_recall_refinement(gen_fig3(EPS3), 1)
    i21, i22 = fig3_pr_ids(pr)
    rrl = single({"I1": (0, 1), i21: (0, 1), i22: (1, 0)})
    assert not edt_nash_check(pr, rrl)
    lll = single({"I1": (1, 0), i21: (1, 0), i22: (1, 0)})
    assert edt_nash_check(pr, lll)
    # the completion search accepts representatives with bad unreached rows
    llr = single({"I1": (1, 0), i21: (1, 0), i22: (0, 1)})
    assert edt_nash_check(pr, llr)


def test_edt_nash_on_perfect_recall_game_means_optimal():
    for seed in range(6):
        g = gen_random(depth=3, branching=2, merge_rate=0.0, chance_rate=0.3,
                       absentmindedness=False, seed=300 + seed)
        opt = optimal_strategy(g)
        assert edt_nash_check(g, opt.profile)


def test_cdt_nash_fig1():
    g = gen_fig1(Fraction(1, 100))
    ct = profile_from(strat(1, {"I1": (1, 0)}), strat(2, {"I2": (1, 0)}))
    assert cdt_nash_check(g, ct)


def test_nash_check_fig1_examples():
    g = gen_fig1(Fraction(1, 100))
    ct = profile_from(strat(1, {"I1": (1, 0)}), strat(2, {"I2": (1, 0)}))
    ok, residual, _ = nash_check(g, ct)
    assert ok and residual <= 1e-9
    pr, _ = perfect_recall_refinement(g, 1)
    first = next(i for i in pr.infosets[1] if pr.infosets[1][i].nodes == ("v1",))
    second = next(i for i in pr.infosets[1] if pr.infosets[1][i].nodes == ("v2",))
    cdw = profile_from(
        strat(1, {first: (1, 0), second: (0, 1)}),
        strat(2, {"I2": (0, 1)}),
    )
    ok, residual, _ = nash_check(pr, cdw)
    assert ok and residual <= 1e-9


def test_single_player_optimal_is_nash():
    g = gen_fig2()
    report = optimal_strategy(g)
    ok, _, _ = nash_check(g, report.profile)
    assert ok


# -- enumeration and selection ----------------------------------------------


def test_enumerate_fig1_cdt_single_class():
    g = gen_fig1(Fraction(1, 100))
    classes = enumerate_equilibria(g, "CDT")
    assert len(classes) == 1
    assert classes[0].utilities == (Fraction(2), Fraction(1))


def test_enumerate_fig3_edt_classes():
    g = gen_fig3(EPS3)
    assert [c.utilities[0] for c in enumerate_equilibria(g, "EDT")] == [Fraction(1)]
    pr, _ = perfect_recall_refinement(g, 1)
    utilities = [float(c.utilities[0]) for c in enumerate_equilibria(pr, "EDT")]
    assert utilities == [pytest.approx(0.1), pytest.approx(1.0)]


def test_best_worst_selectors():
    pr, _ = perfect_recall_refinement(gen_fig3(EPS3), 1)
    worst = best_worst(pr, "EDT", "worst")
    best = best_worst(pr, "EDT", "best")
    assert float(worst.utilities[0]) == pytest.approx(0.1)
    assert float(best.utilities[0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        best_worst(pr, "EDT", "median")


def test_best_edt_equals_optimal_for_single_player():
    for g in (gen_fig2(), gen_lenny(4), gen_fig5()):
        opt = optimal_strategy(g)
        best = best_worst(g, "EDT", "best")
        assert abs(float(best.utilities[0]) - float(opt.utilities[0])) < 1e-9


def test_hierarchy_on_random_games():
    # Nash passes imply EDT passes imply KKT passes at one tolerance;
    # EDT and KKT agree on games without absentmindedness.
    import numpy as np

    rng_profiles = 0
    for seed in range(12):
        absent = bool(seed % 2)
        g = gen_random(depth=3, branching=2, merge_rate=0.6, chance_rate=0.2,
                       absentmindedness=absent, seed=400 + seed, players=1)
        profiles = [uniform_profile(g, rational=False)]
        if g.infosets.get(1):
            profiles.append(optimal_strategy(g).profile)
        for prof in profiles:
            edt_ok, _ = edt_check(g, prof)
            kkt_ok, _ = kkt_check_profile(g, prof)
            nash_ok, _, _ = nash_check(g, prof)
            if nash_ok:
                assert edt_ok
            if edt_ok:
                assert kkt_ok
            if not absent and not has_absentmindedness(g, 1):
                rng_profiles += 1
                assert edt_ok == kkt_ok
    assert rng_profiles > 0


def test_enumeration_cap_errors(monkeypatch):
    from irgames.solvers import CapExceededError

    g = gen_random(depth=4, branching=2, merge_rate=0.0, chance_rate=0.0,
                   absentmindedness=False, seed=1)
    monkeypatch.setattr(solvers, "_ENUM_DIM_CAP", 2)
    with pytest.raises(CapExceededError):
        enumerate_equilibria(g, "EDT")


@pytest.mark.parametrize("game", [gen_fig1(Fraction(1, 100)),
                                  gen_random(3, 3, 0.9, 0.0, True, 0)],
                         ids=["fig1", "three-action row"])
def test_enumeration_maximises_each_distinct_row_polynomial_once(monkeypatch, game):
    # fig1's 4,262 seeds share about 100 row polynomials: _max_row
    # maximises each distinct row of C once.
    batches = []
    for name in ("_two_action_interior", "_max_row_ascent"):
        original = getattr(solvers, name)

        def counted(C, *args, original=original):
            batches.append(C)
            return original(C, *args)

        monkeypatch.setattr(solvers, name, counted)
    assert any(game.absentminded.values())
    assert enumerate_equilibria(game, "EDT")
    assert batches
    assert all(len(np.unique(C, axis=0)) == len(C) for C in batches)


def forgetful_stop_game():
    """Player 1 stops for 10 or goes left/right into a chain of three
    infosets A, B, C that forget the direction; every chain leaf pays less,
    so stopping with any of the 27 chain completions is optimal."""
    nodes = [Node("r", 1, ("go_l", "go_r", "stop"), ("l1", "r1", "zs")),
             Node("zs", "terminal")]
    utilities = {"zs": (Fraction(10),)}
    members = {"A": [], "B": [], "C": []}
    for side, pay in (("l", 1), ("r", 2)):
        for depth, iid in enumerate("ABC", start=1):
            nid = f"{side}{depth}"
            members[iid].append(nid)
            nxt = f"{side}{depth + 1}" if depth < 3 else f"z{side}{depth}c"
            leaves = (f"z{side}{depth}x", f"z{side}{depth}y")
            nodes.append(Node(nid, 1, ("c", "x", "y"), (nxt, *leaves)))
            for k, z in enumerate(leaves if depth < 3 else (nxt, *leaves)):
                nodes.append(Node(z, "terminal"))
                utilities[z] = (Fraction(pay + k + depth),)
    infosets = [Infoset("R", 1, ("r",), ("go_l", "go_r", "stop"))] + [
        Infoset(iid, 1, tuple(ns), ("c", "x", "y")) for iid, ns in members.items()
    ]
    return make_game(1, "r", nodes, utilities, infosets, name="forgetful-stop")


def test_pure_enumeration_values_tied_optima_once(monkeypatch):
    g = forgetful_stop_game()
    assert validate_game(g) == [] and not has_perfect_recall(g, 1)
    calls = []
    evaluate = solvers.expected_utility

    def counted(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(solvers, "expected_utility", counted)
    report = optimal_strategy(g)
    assert report.certified == "exact" and report.utilities == (Fraction(10),)
    # The search values histories, not strategies: no tree walk.
    assert calls == []
    assert evaluate(g, report.profile, 1) == 10


@pytest.mark.parametrize("make, walks", [
    (gen_fig2, 0), (lambda: gen_lenny(6), 0),
    (lambda: gen_random(6, 3, 0.6, 0.2, True, 1), 0),
    (lambda: stall_chain((2, 2, 4)), 1),
    (lambda: gen_dory(2), 0), (default_valid_utility, 0),
    (lambda: gen_fig3(Fraction(1, 10)), 0),
], ids=["fig2", "lenny6", "am6", "stall224", "dory2", "valid", "fig3"])
def test_optimal_play_values_its_answer_once(monkeypatch, make, walks):
    # The polish path values only its best snapped point exactly; the pure
    # search and the closed form of one two-action row read the leaf
    # table.
    calls = []
    evaluate = solvers.expected_utility
    monkeypatch.setattr(solvers, "expected_utility",
                        lambda *args: calls.append(args) or evaluate(*args))
    assert optimal_strategy(make()).u1 > 0
    assert len(calls) == walks


@settings(derandomize=True, max_examples=60, deadline=None)
@given(depth=st.integers(2, 4), branching=st.integers(2, 3),
       merge=st.sampled_from([0.6, 0.9]), chance=st.sampled_from([0.0, 0.3]),
       absentminded=st.booleans(), seed=st.integers(0, 10_000))
def test_an_exact_optimum_is_the_value_of_its_profile(depth, branching, merge, chance,
                                                      absentminded, seed):
    g = gen_random(depth, branching, merge, chance, absentminded, seed)
    report = optimal_strategy(g, SolverConfig(grid_resolution=4, multistart=4))
    if isinstance(report.u1, Fraction):
        assert report.u1 == expected_utility(g, report.profile, 1)


def brute_force_opt(game):
    """The first exact maximum of ``expected_utility`` over the pure
    strategies, in ``itertools.product`` order over the sorted infosets."""
    isets = game.infosets.get(1, {})
    ids = sorted(isets)
    best_val, best = None, None
    for actions in itertools.product(*(range(len(isets[i].actions)) for i in ids)):
        strategy = pure_strategy(game, 1, dict(zip(ids, actions)))
        v = expected_utility(game, profile_from(strategy), 1)
        if best_val is None or v > best_val:
            best_val, best = v, strategy
    return best_val, best


@settings(derandomize=True, max_examples=40, deadline=None)
@given(depth=st.integers(2, 4), branching=st.integers(2, 3),
       merge=st.sampled_from([0.6, 0.9]), chance=st.sampled_from([0.0, 0.3]),
       players=st.sampled_from([1, 2]), seed=st.integers(0, 10_000),
       mover=st.sampled_from([1, 2]))
def test_pure_enumeration_matches_a_brute_force_scan(depth, branching, merge, chance,
                                                     players, seed, mover):
    g = gen_random(depth, branching, merge, chance, False, seed, players=players)
    if players == 2:
        g = fix_opponents(g, uniform_profile(g), mover)
    sizes = [len(i.actions) for i in g.infosets.get(1, {}).values()]
    assume(not has_perfect_recall(g, 1) and math.prod(sizes) <= 243)
    value, strategy = recall.pure_optimum(g)
    assert value == brute_force_opt(g)[0] == expected_utility(g, profile_from(strategy), 1)


@pytest.mark.parametrize("seed", [0, 2])
def test_optimal_play_seeds_every_pure_profile(seed):
    # 81 pure strategies and two absentminded rows: the 16 random vertices
    # of these seeds miss the pure optimum 10, and OPT read 48/5.
    g = gen_random(4, 3, 0.7, 0.3, True, 0)
    assert has_absentmindedness(g, 1)
    assert optimal_strategy(g, SolverConfig(seed=seed)).utilities[0] == 10


@settings(derandomize=True, max_examples=40, deadline=None)
@given(depth=st.integers(2, 4), branching=st.integers(2, 3),
       merge=st.sampled_from([0.7, 0.9]), chance=st.sampled_from([0.0, 0.3]),
       seed=st.integers(0, 10_000))
def test_optimal_play_is_at_least_every_pure_profile(depth, branching, merge, chance, seed):
    g = gen_random(depth, branching, merge, chance, True, seed)
    sizes = [len(i.actions) for i in g.infosets.get(1, {}).values()]
    assume(has_absentmindedness(g, 1) and math.prod(sizes) <= 81)
    best_pure, _ = brute_force_opt(g)
    value = optimal_strategy(g).utilities[0]
    assert float(value) >= float(best_pure) - 1e-12 * max(1.0, abs(float(best_pure)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=st.integers(0, 12), width=st.integers(0, 300), seed=st.integers(0, 10_000))
@example(rows=1, width=5, seed=0)
@example(rows=4, width=0, seed=0)
def test_unique_rows_matches_numpy_unique(rows, width, seed):
    # Rows repeat, and repeated rows may differ in the sign of a zero,
    # which np.unique does not see.  Negative entries make the byte order
    # of the keys differ from the rows' lexicographic order.
    rng = np.random.default_rng(seed)
    values = np.array([0.0, -0.0, -1.5, 1e-300, 0.25, 1.0, 7.0])
    distinct = rng.choice(values, (max(1, rows // 2), width))
    C = distinct[rng.integers(0, len(distinct), rows)]
    C = np.where(C == 0.0, rng.choice([0.0, -0.0], C.shape), C)
    want, want_inverse = np.unique(C, axis=0, return_inverse=True)
    got, inverse = solvers._unique_rows(C)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(inverse, want_inverse.ravel())


def test_two_action_deviation_finds_an_interior_maximum_between_term_peaks():
    # Neither term's own maximizer (0.45, 0.5) nor the ends is optimal.
    values, sigmas = solvers._max_row(np.array([[1.0, 1.0]]),
                                      np.array([[90.0, 110.0], [100.0, 100.0]]))
    (value,), s = values, sigmas[0, 0]
    assert sigmas[0, 1] == 1.0 - s
    grid = np.linspace(0.44, 0.47, 300_001)
    logs = np.logaddexp(90 * np.log(grid) + 110 * np.log1p(-grid),
                        100 * np.log(grid) + 100 * np.log1p(-grid))
    assert value == pytest.approx(float(np.exp(logs.max())), rel=1e-9)
    assert s == pytest.approx(grid[logs.argmax()], abs=1e-6)
    at_peaks = [t ** 90 * (1 - t) ** 110 + t ** 100 * (1 - t) ** 100 for t in (0.45, 0.5)]
    assert value > 1.01 * max(at_peaks)  # s = 0.45 gave 1.8% less


def test_two_action_deviation_gain_far_below_one_is_found():
    # lenny200 at (1/3, 2/3): every vertex is worth 0, the base utility is
    # 3^-100 (2/3)^100 = 4.8e-66 and the maximum 2^-200 = 6.2e-61 is at
    # s = 1/2.  An absolute acceptance margin of 1e-15 returned a vertex.
    g = gen_lenny(200)
    profile = single({"I": (Fraction(1, 3), Fraction(2, 3))})
    value, sigma = solvers.best_deviation(g, profile, 1, "I")
    # abs=0: approx's default absolute margin of 1e-12 would pass anything.
    assert float(value) == pytest.approx(2.0 ** -200, rel=1e-9, abs=0)
    assert sigma == pytest.approx((0.5, 0.5))
    base = float(expected_utility(g, profile, 1))
    gain = edt_incentive(g, profile, 1, "I")
    assert gain == pytest.approx(2.0 ** -200 - base, rel=1e-9, abs=0)
    num = g.numeric
    x = num.index.vector(profile)[None]
    (row,) = num.index.rows
    assert solvers._row_gains(num, x, row)[0] == pytest.approx(gain, rel=1e-9, abs=0)


@pytest.mark.parametrize("end", [0, 1])
def test_two_action_maximum_inside_an_end_cell_is_found(end):
    # 0.99 (1-s) + s (1-s) = (1-s) (0.99+s) peaks at s = 0.005, worth
    # 0.995^2.  The live term maximizers are 0 and 1/2, so the grid's first
    # cell is [0, 1/128] and holds the maximum; f rises off the end 0.
    # Mirrored, the maximum lies in the last cell, at 0.995.
    E = np.array([[0.0, 1.0], [1.0, 1.0]])
    values, sigmas = solvers._max_row(np.array([[0.99, 1.0]]),
                                      E[:, ::-1] if end else E)
    assert values[0] == pytest.approx(0.995 ** 2, rel=1e-12, abs=0)
    assert sigmas[0, end] == pytest.approx(0.005, abs=1e-9)


def test_two_action_row_with_term_peaks_at_both_ends_opens_no_bracket(monkeypatch):
    # fig5's row: 2 s^2 + (1-s)^2, whose term maximizers are the ends, and
    # f falls into 0 and rises into 1.  Both ends are candidates already;
    # a bracket at either would send Newton chasing that end.
    brackets = []
    newton = solvers._newton_in_brackets

    def recorded(logc, P, Q, a, b, x):
        brackets.append(len(x))
        return newton(logc, P, Q, a, b, x)

    monkeypatch.setattr(solvers, "_newton_in_brackets", recorded)
    values, sigmas = solvers._max_row(np.array([[2.0, 1.0]]),
                                      np.array([[2.0, 0.0], [0.0, 2.0]]))
    assert values.tolist() == [2.0] and sigmas.tolist() == [[1.0, 0.0]]
    assert sum(brackets) == 0
    g = gen_fig5()
    (row,) = g.numeric.index.rows
    C, E = g.numeric.row_polynomial(g.numeric.index.uniform()[None], row)
    assert C.tolist() == [[2.0, 1.0]] and E.tolist() == [[2.0, 0.0], [0.0, 2.0]]


def test_three_action_deviation_far_below_one_is_found():
    # sA^20 sB^20 sC^40 peaks at (1/4, 1/4, 1/2), worth 2^-120; the uniform
    # start is worth 3^-80 = 6.8e-39.  Steps of step * gradient, absolute
    # in the value, never left that start.
    g = stall_chain((20, 20, 40))
    third = Fraction(1, 3)
    profile = single({"I": (third, third, third)})
    value, sigma = solvers.best_deviation(g, profile, 1, "I")
    assert float(value) == pytest.approx(2.0 ** -120, rel=1e-9, abs=0)
    assert sigma == pytest.approx((0.25, 0.25, 0.5), abs=1e-6)
    num = g.numeric
    (row,) = num.index.rows
    gain = solvers._row_gains(num, num.index.vector(profile)[None], row)[0]
    assert gain == pytest.approx(2.0 ** -120 - 3.0 ** -80, rel=1e-9, abs=0)


def ascent_to_the_floor(C, E):
    """``solvers._max_row_ascent`` without its standstill stop: every start
    halves its rejected steps until they fall below 1e-10."""
    n = E.shape[1]
    starts = np.vstack([np.full(n, 1.0 / n), np.eye(n)])
    s = np.tile(starts, (len(C), 1))
    c = np.repeat(C, n + 1, axis=0)
    f = solvers._row_values(c, E, s)
    lowered = np.maximum(E - np.eye(n)[:, None, :], 0.0)
    step = np.full(len(s), 0.25)
    active = np.ones(len(s), dtype=bool)
    for _ in range(200):
        k = np.nonzero(active)[0]
        if not len(k):
            break
        sk, fk = s[k], f[k, None]
        grad = np.einsum("bk,ak,bak->ba", c[k], E.T,
                         np.prod(sk[:, None, None, :] ** lowered, axis=3))
        np.divide(grad, fk, out=grad, where=fk > 0)
        cand = solvers._project_simplex(sk + step[k, None] * grad)
        fc = solvers._row_values(c[k], E, cand)
        up = fc > f[k] * (1 + 1e-14)
        s[k[up]], f[k[up]] = cand[up], fc[up]
        step[k] *= np.where(up, 1.3, 0.5)
        active[k[~up & (step[k] < 1e-10)]] = False
    top = f.reshape(len(C), n + 1).argmax(axis=1) + (n + 1) * np.arange(len(C))
    return f[top], s[top]


def assert_ascent_matches_the_floor(C, E):
    value, at = solvers._max_row_ascent(C, E)
    floor_value, floor_at = ascent_to_the_floor(C, E)
    assert np.array_equal(value, floor_value) and np.array_equal(at, floor_at)


@st.composite
def row_polynomials(draw):
    """(B, K) coefficients from 1e-200 to 1e3 and (K, n) exponents 0-5 of
    1-40 terms on n = 3 or 4 actions."""
    n = draw(st.integers(3, 4))
    terms = draw(st.integers(1, 40))
    rows = draw(st.integers(1, 3))
    E = draw(st.lists(st.lists(st.integers(0, 5), min_size=n, max_size=n),
                      min_size=terms, max_size=terms))
    C = draw(st.lists(st.lists(st.floats(1e-200, 1e3), min_size=terms, max_size=terms),
                      min_size=rows, max_size=rows))
    return np.array(C), np.array(E, dtype=float)


@given(poly=row_polynomials())
@settings(max_examples=150, deadline=None)
def test_a_start_that_stands_still_would_never_move_again(poly):
    # A rejected candidate equal to its start puts the step in the normal
    # cone there, so every smaller step projects back onto the start: the
    # ascent's values and maximisers are those of halving to the floor.
    assert_ascent_matches_the_floor(*poly)


def am6_row_polynomials():
    g = gen_random(6, 3, 0.6, 0.2, True, 1)
    num = g.numeric
    X = np.concatenate([num.index.uniform()[None],
                        solvers._random_mixed(num.index, np.random.default_rng(0), 8)])
    rows = [r for r in num.index.rows if r.infoset_id in g.absentminded[r.player]]
    assert [(r.infoset_id, r.size) for r in rows] == [
        ("P1G0", 3), ("P1G1", 3), ("P1G2", 3), ("P1G8", 3)]
    return [num.row_polynomial(X, r) for r in rows]


@pytest.mark.parametrize("j", range(4), ids=["P1G0", "P1G1", "P1G2", "P1G8"])
def test_am6_rows_ascend_as_they_did_to_the_floor(j):
    assert_ascent_matches_the_floor(*am6_row_polynomials()[j])


def test_an_interior_maximum_ascends_as_it_did_to_the_floor():
    # stall_chain((20, 20, 40)) peaks at (1/4, 1/4, 1/2), inside the simplex.
    num = stall_chain((20, 20, 40)).numeric
    (row,) = num.index.rows
    C, E = num.row_polynomial(num.index.uniform()[None], row)
    assert_ascent_matches_the_floor(C, E)
    assert solvers._max_row_ascent(C, E)[1][0] == pytest.approx((0.25, 0.25, 0.5), abs=1e-6)


def test_edt_check_on_am6_stops_the_starts_that_stand_still(monkeypatch):
    # All 16 starts of am6's four rows reach a KKT point by their 17th
    # step; halving each rejected step down to 1e-10 took 199 projections.
    calls = []
    project = solvers._project_simplex

    def counted(V):
        calls.append(len(V))
        return project(V)

    monkeypatch.setattr(solvers, "_project_simplex", counted)
    g = gen_random(6, 3, 0.6, 0.2, True, 1)
    ok, residual = edt_check(g, uniform_profile(g))
    assert not ok and residual == 1.2201167519349339
    assert len(calls) <= 60


def test_one_action_absentminded_row_is_its_one_point():
    # I's one action is taken twice on the way to S: its row polynomial
    # C s^2 lives on the one point s = 1.
    nodes = [Node("r", 1, ("go",), ("m",)), Node("m", 1, ("go",), ("s",)),
             Node("s", 1, ("a", "b"), ("za", "zb")),
             Node("za", "terminal"), Node("zb", "terminal")]
    g = make_game(1, "r", nodes, {"za": (Fraction(1),), "zb": (Fraction(2),)},
                  [Infoset("I", 1, ("r", "m"), ("go",)),
                   Infoset("S", 1, ("s",), ("a", "b"))], name="one-action")
    assert g.absentminded[1] == {"I"}
    assert edt_check(g, uniform_profile(g)) == (False, 0.5)
    (report,) = enumerate_equilibria(g, "EDT")
    assert report.utilities == (2,)


def scalar_br_polish(game, num, x):
    """Best-response sweeps for one seed on exact whole-tree walks: each
    sweep visits the rows in order and moves a row to its
    ``best_deviation`` where that gains more than 1e-11."""
    prof = num.index.profile(x)
    for _ in range(solvers._POLISH_ITERS):
        moved = False
        for row in num.index.rows:
            base = float(expected_utility(game, prof, row.player))
            val, sigma = solvers.best_deviation(game, prof, row.player, row.infoset_id)
            if float(val) - base > 1e-11:
                prof = deviate(prof, row.infoset_id, sigma, row.player)
                moved = True
        if not moved:
            break
    return num.index.vector(prof)


def row_reads(monkeypatch, num):
    """The batch size of every later ``num.row_polynomial`` call."""
    reads = []
    polynomial = num.row_polynomial

    def counted(Y, row):
        reads.append(len(Y))
        return polynomial(Y, row)

    monkeypatch.setattr(num, "row_polynomial", counted)
    return reads


def polish_seeds(num):
    """Every pure profile, six random mixed ones and the uniform profile."""
    rng = np.random.default_rng(0)
    pure, _ = solvers._pure_seed_vectors(num.index, rng)
    return np.concatenate([pure, solvers._random_mixed(num.index, rng, 6),
                           num.index.uniform()[None]])


# The random games mix absentminded rows, whose best deviation can be
# mixed, with rows that have none; the last one has two players.
@pytest.mark.parametrize("game", [gen_fig2(), gen_fig5(),
                                  gen_random(3, 2, 0.7, 0.0, True, 1),
                                  gen_random(2, 3, 0.7, 0.0, True, 13),
                                  gen_random(3, 2, 0.6, 0.0, True, 26, players=2)],
                         ids=["fig2", "fig5", "two-action rows", "three-action rows",
                              "two players"])
def test_batched_mixed_polish_equals_the_per_seed_polish(game):
    num = game.numeric
    X = polish_seeds(num)
    got = solvers._br_polish(num, X)
    one_by_one = np.vstack([solvers._br_polish(num, X[i : i + 1])
                            for i in range(len(X))])
    assert np.array_equal(got, one_by_one)
    want = np.vstack([scalar_br_polish(game, num, x) for x in X])
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    # Every polished seed is an EDT equilibrium.
    assert solvers._edt_residuals(num, got).max() <= 1e-12


@pytest.mark.parametrize("game", [gen_random(2, 3, 0.7, 0.0, True, 13),
                                  gen_random(3, 2, 0.6, 0.0, False, 1, players=2)],
                         ids=["absentminded random", "two-player random"])
def test_improving_deviation_sweeps_drop_settled_seeds(monkeypatch, game):
    num = game.numeric
    X = polish_seeds(num)
    one_by_one = np.vstack([solvers._br_polish(num, X[i : i + 1]) for i in range(len(X))])
    batches = row_reads(monkeypatch, num)
    got = solvers._br_polish(num, X)
    assert np.array_equal(got, one_by_one)
    # A sweep reads every row's polynomial on the same batch; a seed that
    # made no move in a sweep is not read again.
    rows = len(num.index.rows)
    sweeps = batches[::rows]
    assert batches == [b for b in sweeps for _ in range(rows)]
    assert sweeps[0] == len(X) and sweeps == sorted(sweeps, reverse=True)
    assert sweeps[-1] < len(X)


def test_best_response_cycles_leave_the_polish(monkeypatch):
    # The CI seed-13 game: about 1,300 of its seeds cycle between two
    # profiles; swept to the 200-sweep cap, they cost 1,407 row reads here.
    g = gen_random(3, 3, 0.5, 0.0, False, 13, players=2)
    num = g.numeric
    reads = row_reads(monkeypatch, num)
    report = best_worst(g, "NASH", "best")
    assert report.utilities == (8, 9)
    assert len(reads) <= 6 * len(num.index.rows)


def test_two_player_absentminded_edt_equilibrium_is_found():
    # Player 1's P1G0 is absentminded, and the equilibrium mixes on it:
    # pure moves alone stall every seed short of it.
    g = gen_random(3, 2, 0.6, 0.0, True, 26, players=2)
    assert g.absentminded[1] and not g.absentminded[2]
    reports = enumerate_equilibria(g, "EDT")
    assert reports
    for r in reports:
        assert edt_check(g, r.profile)[0]
        for p in (1, 2):
            base = float(expected_utility(g, r.profile, p))
            for iid in g.infosets[p]:
                value, _ = solvers.best_deviation(g, r.profile, p, iid)
                assert float(value) - base <= CFG.eps_eq
    best = best_worst(g, "EDT", "best")
    assert [float(u) for u in best.utilities] == pytest.approx([3.39220245868, 6.96181258162])


def test_sampled_grid_is_noted_in_optimal_strategy(monkeypatch):
    # Three actions, and every pure strategy is worth 0: optimal play
    # polishes.
    with monkeypatch.context() as m:
        m.setattr(solvers, "_GRID_CAP", 10)
        m.setattr(solvers, "_GRID_SAMPLES", 8)
        report = optimal_strategy(stall_chain((2, 2, 4)))
    assert report.certified == "heuristic"
    assert report.notes == ("grid_cap=10 exceeded: sampled 8 grid points",)
    full = optimal_strategy(stall_chain((2, 2, 4)))
    assert full.certified.startswith("grid-certified")
    assert not any("grid_cap" in n for n in full.notes)


def test_sampled_pure_seeds_are_noted_in_enumeration(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(solvers, "_ENUM_PURE_CAP", 1)
        m.setattr(solvers, "_ENUM_PURE_SAMPLES", 5)
        reports = enumerate_equilibria(gen_fig3(EPS3), "EDT")
    assert reports
    note = "enum_pure_cap=1 exceeded: sampled 5 pure seeds"
    assert all(r.certified == "heuristic" and note in r.notes for r in reports)
    # Seeding every pure profile and grid point certifies no extremum.
    full = enumerate_equilibria(gen_fig3(EPS3), "EDT")
    assert all(r.certified == "heuristic" and note not in r.notes for r in full)
