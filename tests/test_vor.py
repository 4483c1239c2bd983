"""Value-of-recall coefficients, bounds, ratio computation, pure-strategy
identities, and the smoothness framework."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import single

import irgames.recall as recall
import irgames.vor as vor
from irgames.game import chance_nodes, subtree_nodes
from irgames.generators import (
    default_valid_utility,
    gen_dory,
    gen_fig1,
    gen_fig2,
    gen_fig3,
    gen_lenny,
    gen_random,
    gen_sat_game,
)
from irgames.partial import k_best_partial
from irgames.recall import check_coarsest, perfect_recall_refinement
from irgames.solvers import enumerate_equilibria, optimal_strategy
from irgames.strategies import (
    expected_utility,
    node_reach_map,
    profile_from,
    pure_strategy,
    reach_probability,
)
from irgames.vor import (
    am_coefficient,
    am_witness,
    bound_am,
    bound_am_entropy,
    bound_chance,
    bound_composed,
    branching_factor,
    chance_coefficient,
    coefficient_table,
    smoothness_check,
    structural_bounds,
    vor_compute,
)


# -- coefficients ------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 6])
def test_lenny_am_coefficient(n):
    g = gen_lenny(n)
    zstar = f"z{n + 1}"
    assert am_coefficient(g, zstar) == Fraction(1, 2 ** n)


def test_am_is_one_without_revisits():
    g = gen_fig3(Fraction(1, 10))
    for z in g.terminals:
        assert am_coefficient(g, z) == 1


def test_fig2_coefficients():
    g = gen_fig2()
    assert am_coefficient(g, "zb3") == Fraction(1, 4)
    assert chance_coefficient(g, "zw1") == Fraction(1, 2)
    with pytest.raises(ValueError):
        am_coefficient(g, "a")


def test_am_witness_reaches_with_exactly_am():
    g = gen_lenny(4)
    w = am_witness(g, "z5")
    prof = profile_from(w)
    assert reach_probability(g, prof, "d1", "z5") == am_coefficient(g, "z5")
    assert w.row("I") == (Fraction(1, 2), Fraction(1, 2))


def test_am_witness_requires_chance_free():
    with pytest.raises(ValueError):
        am_witness(gen_fig2(), "zb3")


def test_am_witness_identity_on_random_chance_free_games():
    for seed in range(15):
        g = gen_random(depth=4, branching=2, merge_rate=0.8, chance_rate=0.0,
                       absentmindedness=True, seed=500 + seed)
        for z in g.terminals:
            w = am_witness(g, z)
            prof = profile_from(w)
            reach = node_reach_map(g, prof)[z]
            assert reach == am_coefficient(g, z)
            assert expected_utility(g, prof, 1) >= \
                am_coefficient(g, z) * g.utilities[z][0]


@pytest.mark.parametrize("n,beta", [(2, 2), (3, 3), (4, 4)])
def test_dory_branching(n, beta):
    g = gen_dory(n)
    assert branching_factor(g, "c") == beta


def test_nested_chance_branching():
    # two uniform binary chance nodes stacked: beta(root) = 4
    from irgames.game import Infoset, Node, make_game

    half = Fraction(1, 2)
    nodes = [
        Node(id="c1", owner="chance", actions=("a", "b"), children=("c2", "c3"),
             chance_dist=(half, half)),
        Node(id="c2", owner="chance", actions=("a", "b"), children=("z1", "z2"),
             chance_dist=(half, half)),
        Node(id="c3", owner="chance", actions=("a", "b"), children=("z3", "z4"),
             chance_dist=(half, half)),
    ] + [Node(id=f"z{i}", owner="terminal") for i in range(1, 5)]
    utils = {f"z{i}": (Fraction(1),) for i in range(1, 5)}
    g = make_game(1, "c1", nodes, utils, [])
    assert branching_factor(g, "c1") == 4
    assert branching_factor(g, "c2") == 2
    with pytest.raises(ValueError):
        branching_factor(g, "z1")


def test_coefficient_table_is_utility_independent():
    from irgames.game import Game

    g = gen_fig2()
    table = coefficient_table(g)
    bumped = Game(
        players=1, root=g.root, nodes=g.nodes,
        utilities={z: (u[0] + 7,) for z, u in g.utilities.items()},
        infosets=g.infosets,
    )
    assert coefficient_table(bumped) == table


# -- bounds ------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 6])
def test_lenny_bounds_are_tight(n):
    g = gen_lenny(n)
    b1, b2 = bound_am(g)
    assert b1 == b2 == 2 ** n
    assert bound_am_entropy(g, f"z{n + 1}") == 2 ** n
    assert bound_composed(g) == 2 ** n


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dory_bounds_are_tight(n):
    g = gen_dory(n)
    b1, b2 = bound_chance(g)
    assert b1 == b2 == n
    assert bound_composed(g) == n


def test_bound_domain_errors():
    with pytest.raises(ValueError):
        bound_am(gen_fig2())          # has chance nodes
    with pytest.raises(ValueError):
        bound_chance(gen_lenny(2))    # has absentmindedness


def test_entropy_bound_dominates_inverse_am_on_random_games():
    for seed in range(15):
        g = gen_random(depth=4, branching=2, merge_rate=0.8, chance_rate=0.0,
                       absentmindedness=True, seed=600 + seed)
        for z in g.terminals:
            assert 1 / am_coefficient(g, z) <= bound_am_entropy(g, z)


def test_bound_am_dominates_vor_on_random_chance_free_games():
    for seed in range(10):
        g = gen_random(depth=4, branching=2, merge_rate=0.9, chance_rate=0.0,
                       absentmindedness=True, seed=700 + seed)
        if all(u == (0,) for u in g.utilities.values()):
            continue
        report = vor_compute(g, "OPT")
        if report.ratio is None:
            continue
        b1, b2 = bound_am(g)
        assert report.ratio <= float(b1) + 1e-6
        assert float(b1) <= float(b2) + 1e-12


# -- VoR ratios ---------------------------------------------------------------


def test_vor_opt_fig2():
    report = vor_compute(gen_fig2(), "OPT")
    assert report.numerator == Fraction(3, 2)
    assert report.denominator == Fraction(2, 3)
    assert report.ratio == pytest.approx(2.25)
    assert report.bounds_satisfied["composed"]


def test_bounds_are_checked_for_opt_only():
    # The bounds are theorems about optimal play; the worst EDT ratio 16/13
    # is above them without breaking any.
    game = default_valid_utility()
    worst = vor_compute(game, "wEDT")
    assert worst.ratio == pytest.approx(16 / 13)
    assert all(b == 1 for b in worst.bounds.values())
    assert set(worst.bounds_satisfied.values()) == {None}
    assert all(vor_compute(game, "OPT").bounds_satisfied.values())


def test_vor_fig1_worst_cdt_is_zero():
    report = vor_compute(gen_fig1(Fraction(1, 100)), "wCDT")
    assert float(report.denominator) == pytest.approx(2.0)
    assert float(report.numerator) == pytest.approx(0.0, abs=1e-9)
    assert report.ratio == pytest.approx(0.0)


def test_vor_fig3_worst_edt():
    report = vor_compute(gen_fig3(Fraction(1, 10)), "wEDT")
    assert float(report.denominator) == pytest.approx(1.0)
    assert float(report.numerator) == pytest.approx(0.1)
    assert report.ratio == pytest.approx(0.1)


def test_vor_flags_undefined_and_infinite():
    from irgames.game import Game

    g = gen_fig3(Fraction(1, 10))
    zeroed = Game(players=1, root=g.root, nodes=g.nodes,
                  utilities={z: (Fraction(0),) for z in g.terminals},
                  infosets=g.infosets, name="zeroed")
    report = vor_compute(zeroed, "OPT")
    assert report.ratio_kind == "undefined"


def test_vor_opt_is_one_without_chance_and_absentmindedness():
    for seed in range(10):
        g = gen_random(depth=4, branching=2, merge_rate=0.7, chance_rate=0.0,
                       absentmindedness=False, seed=800 + seed)
        report = vor_compute(g, "OPT")
        if report.ratio_kind == "finite":
            assert report.ratio == pytest.approx(1.0, abs=1e-9)


# -- the paper's reductions as properties -------------------------------------


@st.composite
def formulas(draw):
    """1-4 clauses, each of three distinct variables out of 3 or 4, signed."""
    n_vars = draw(st.integers(3, 4))
    clause = st.tuples(st.permutations(range(1, n_vars + 1)),
                       st.tuples(st.booleans(), st.booleans(), st.booleans()))
    clauses = draw(st.lists(clause, min_size=1, max_size=4))
    return n_vars, [tuple(v if pos else -v for v, pos in zip(order, signs))
                    for order, signs in clauses]


# The SAT reduction: the refinement recalls the clause and violates it, for
# eta + M' whatever the clause; the game's best assignment violates v of the
# n clauses, for eta + M' v / n.
@settings(derandomize=True, max_examples=30, deadline=None)
@given(formula=formulas(), a=st.sampled_from([1, 2, 3]), b=st.sampled_from([1, 2]),
       M=st.sampled_from([1, 2]))
def test_sat_game_opt_vor_is_the_closed_form(formula, a, b, M):
    n_vars, clauses = formula
    eta, n = Fraction(a, b), len(clauses)
    v = max(sum(all((lit > 0) != bits[abs(lit) - 1] for lit in clause) for clause in clauses)
            for bits in itertools.product((True, False), repeat=n_vars))
    mprime = 8 * M * eta * n
    report = vor_compute(gen_sat_game(clauses, eta, M), "OPT")
    assert report.numerator / report.denominator == (eta + mprime) / (eta + mprime * v / n)


# Lifting a strategy to the refinement keeps its utility, so optimal play
# there is never worse.
@settings(derandomize=True, max_examples=80, deadline=None)
@given(seed=st.integers(0, 39), am=st.booleans())
def test_opt_vor_is_at_least_one(seed, am):
    report = vor_compute(gen_random(3, 2, 0.6, 0.3, am, seed), "OPT")
    assert report.ratio_kind == "finite"
    assert report.ratio >= 1


# The bound theorems hold for every game they apply to.  Each game of this
# family takes at least the composed bound, and the chance-free or
# absentmindedness-free ones the am or chance bounds as well.
@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 119), am=st.booleans(), chance=st.sampled_from([0.0, 0.3]))
def test_every_applicable_bound_is_at_least_opt_vor(seed, am, chance):
    game = gen_random(3, 2, 0.6, chance, am, seed)
    report = vor_compute(game, "OPT")
    if report.ratio is None:
        return
    for name, bound in structural_bounds(game).items():
        if bound is not None:
            assert report.ratio <= float(bound) + 1e-9, name


# Past n = 1023 the OPT VoR 2**n and the am bounds exceed the float range,
# and the original game's utility 1/2**n underflows it past n = 1074.
@pytest.mark.parametrize("n", [1030, 1100])
def test_opt_vor_beyond_the_float_range_is_decided_exactly(n):
    report = vor_compute(gen_lenny(n), "OPT")
    assert report.ratio_kind == "finite"
    assert report.numerator / report.denominator == 2 ** n
    assert report.ratio == math.inf
    applicable = {name for name, b in report.bounds.items() if b is not None}
    assert applicable == {"am_utility", "am_zstar", "am_entropy", "composed"}
    assert all(report.bounds[name] == 2 ** n for name in applicable)
    assert all(report.bounds_satisfied[name] is True for name in applicable)


# -- pure-strategy identities --------------------------------------------------


def _require_pure(profile):
    for s in profile.strategies:
        for row in s.table.values():
            if any(0 < float(p) < 1 for p in row):
                raise ValueError("expected a pure strategy profile")


def pure_chance_identity(game, profile):
    """Leaves a pure profile reaches with positive probability; their
    chance coefficients sum to one and weight the utility exactly.
    Returns the leaves and |sum chi - 1|."""
    _require_pure(profile)
    reach = node_reach_map(game, profile)
    leaves = [z for z in game.terminals if float(reach[z]) > 0]
    chi_sum = sum((chance_coefficient(game, z) for z in leaves), start=Fraction(0))
    checksum = abs(float(chi_sum) - 1.0)
    value = sum(
        (chance_coefficient(game, z) * game.utilities[z][0] for z in leaves),
        start=Fraction(0),
    )
    gap = abs(float(value) - float(expected_utility(game, profile, 1)))
    assert checksum <= 1e-9 and gap <= 1e-9, (checksum, gap)
    return leaves, checksum


def beta_leaf_bound(game, profile, node_id):
    """Whether the positively-reached leaves below a reached chance node
    number at most its branching factor."""
    _require_pure(profile)
    if not game.nodes[node_id].is_chance:
        raise ValueError(f"{node_id!r} is not a chance node")
    reach = node_reach_map(game, profile)
    if float(reach[node_id]) <= 0:
        raise ValueError(f"chance node {node_id!r} is not reached under the profile")
    below = set(subtree_nodes(game, node_id))
    count = sum(1 for z in game.terminals if z in below and float(reach[z]) > 0)
    return count <= branching_factor(game, node_id)


def test_pure_chance_identity_on_dory():
    g = gen_dory(2)
    choice = {iid: 0 for iid in g.infosets[1]}
    prof = profile_from(pure_strategy(g, 1, choice))
    leaves, checksum = pure_chance_identity(g, prof)
    assert len(leaves) == 2
    assert checksum == 0


def test_pure_chance_identity_rejects_mixed():
    g = gen_dory(2)
    mixed = single({iid: (Fraction(1, 2),) * 2 for iid in g.infosets[1]})
    with pytest.raises(ValueError):
        pure_chance_identity(g, mixed)


def test_beta_leaf_bound_on_random_games():
    import itertools

    for seed in range(10):
        g = gen_random(depth=4, branching=2, merge_rate=0.6, chance_rate=0.4,
                       absentmindedness=False, seed=900 + seed)
        hs = chance_nodes(g)
        if not hs:
            continue
        isets = sorted(g.infosets.get(1, {}))
        for combo in itertools.islice(
            itertools.product(range(2), repeat=len(isets)), 8
        ):
            prof = profile_from(
                pure_strategy(g, 1, dict(zip(isets, combo)))
            )
            reach = node_reach_map(g, prof)
            for h in hs:
                if float(reach[h]) > 0:
                    assert beta_leaf_bound(g, prof, h)


def test_beta_leaf_bound_requires_reached_node():
    g = gen_dory(2)
    prof = profile_from(pure_strategy(g, 1, {i: 0 for i in g.infosets[1]}))
    with pytest.raises(ValueError):
        beta_leaf_bound(g, prof, "f1")  # not a chance node


# -- composed bound and smoothness --------------------------------------------


def test_composed_bound_dominates_vor_on_random_games():
    for seed in range(10):
        g = gen_random(depth=4, branching=2, merge_rate=0.8, chance_rate=0.3,
                       absentmindedness=True, seed=1000 + seed)
        report = vor_compute(g, "OPT")
        if report.ratio is None:
            continue
        assert report.ratio <= float(bound_composed(g)) + 1e-6


def test_smoothness_valid_utility_instance(monkeypatch):
    g = default_valid_utility()
    pistar = profile_from(pure_strategy(g, 1, {"IS0": 0, "IS1": 1}))
    monkeypatch.setattr(vor, "_SMOOTHNESS_SAMPLES", 500)
    verdict = smoothness_check(g, pistar, 1.0, 1.0)
    assert verdict.kind == "pure-verified"
    falsified = smoothness_check(g, pistar, 10.0, 0.0)
    assert falsified.kind == "falsified"
    assert falsified.counterexample is not None


@pytest.mark.parametrize("lam, mu", [
    (float("nan"), 0.0), (1.0, float("nan")), (float("inf"), 0.0), (1.0, float("inf")),
    (0.0, 0.0), (1.0, -1.0),
])
def test_smoothness_check_rejects_non_finite_or_out_of_range_parameters(lam, mu):
    # NaN compares false with every bound, so it once passed the range test
    # and the check reported "pure-verified" with a NaN margin.
    g = default_valid_utility()
    pistar = profile_from(pure_strategy(g, 1, {"IS0": 0, "IS1": 1}))
    with pytest.raises(ValueError, match="finite lam > 0 and mu >= 0"):
        smoothness_check(g, pistar, lam, mu)


def test_every_edt_equilibrium_clears_the_smooth_floor():
    # The game is (1, 1)-smooth (the test above), so every EDT equilibrium
    # earns at least rho = lam/(1+mu) = 1/2 of optimal play.
    g = default_valid_utility()
    opt = float(optimal_strategy(g).utilities[0])
    for report in enumerate_equilibria(g, "EDT"):
        assert float(report.utilities[0]) >= 0.5 * opt - 1e-9


# -- coefficients against root-path walks -------------------------------------


def _chain_of_chance_nodes(depth: int):
    from irgames.game import Node, make_game

    half = Fraction(1, 2)
    nodes = [
        Node(id=f"c{k}", owner="chance", actions=("stop", "go"),
             children=(f"z{k}", f"c{k + 1}" if k < depth else f"z{depth + 1}"),
             chance_dist=(half, half))
        for k in range(1, depth + 1)
    ] + [Node(id=f"z{k}", owner="terminal") for k in range(1, depth + 2)]
    utils = {f"z{k}": (Fraction(1),) for k in range(1, depth + 2)}
    return make_game(1, "c1", nodes, utils, [])


def test_branching_factor_is_linear_on_a_chance_chain():
    import time

    g = _chain_of_chance_nodes(40)
    start = time.perf_counter()
    assert branching_factor(g, "c1") == 41
    assert time.perf_counter() - start < 0.05
    assert coefficient_table(g).branching == {f"c{k}": 42 - k for k in range(1, 41)}


def _path_steps(g, z):
    """(node, action index) along the leaf's root path, read from ``seq``."""
    from irgames.game import seq

    path = seq(g, z) + [z]
    for a, b in zip(path, path[1:]):
        yield g.nodes[a], g.nodes[a].children.index(b)


def _path_counts(g, z) -> dict:
    """Player 1's infoset -> {action index: times the leaf's path takes it}."""
    counts = {}
    for node, idx in _path_steps(g, z):
        if node.owner == 1:
            per = counts.setdefault(g.infoset_of_node[node.id], {})
            per[idx] = per.get(idx, 0) + 1
    return counts


def _reference_coefficients(g):
    """Coefficient table rebuilt by walking each leaf's root path and, for
    branching factors, by the recursive definition."""
    def am(z):
        out = Fraction(1)
        for per in _path_counts(g, z).values():
            total = sum(per.values())
            if total > 1:
                for n_a in per.values():
                    out *= Fraction(n_a, total) ** n_a
        return out

    def chance(z):
        out = Fraction(1)
        for node, idx in _path_steps(g, z):
            if node.is_chance:
                out *= node.chance_dist[idx]
        return out

    def beta(h):
        total = 0
        for child in g.nodes[h].children:
            below = [n for n in subtree_nodes(g, child) if g.nodes[n].is_chance]
            total += max((beta(b) for b in below), default=1)
        return total

    return {
        "am": {z: am(z) for z in g.terminals},
        "chance": {z: chance(z) for z in g.terminals},
        "branching": {h: beta(h) for h in chance_nodes(g)},
    }


# am3 and am4 each have a path that takes two different actions at one
# infoset, so an am coefficient there has more than one factor per infoset.
def am3():
    return gen_random(3, 3, 0.9, 0.0, True, 0)


def am4():
    return gen_random(4, 3, 0.7, 0.3, True, 0)


@pytest.mark.parametrize("make", [
    lambda: gen_fig1(Fraction(1, 100)), gen_fig2, lambda: gen_fig3(Fraction(1, 10)),
    lambda: gen_dory(3), lambda: gen_lenny(6), default_valid_utility,
    lambda: gen_random(4, 2, 0.8, 0.4, True, 3),
    lambda: gen_random(4, 3, 0.6, 0.3, False, 7, players=2),
    am3, am4,
])
def test_coefficient_table_matches_path_walks(make):
    g = make()
    table = coefficient_table(g)
    assert {"am": table.am, "chance": table.chance,
            "branching": table.branching} == _reference_coefficients(g)
    for z in g.terminals:
        entropy = Fraction(1)
        for iid, per in _path_counts(g, z).items():
            total = sum(per.values())
            if total > 1:
                size = len(g.infosets[1][iid].actions)
                entropy *= Fraction(min(total, size)) ** total
        assert bound_am_entropy(g, z) == entropy
        if chance_nodes(g):
            continue
        witness = am_witness(g, z)
        for iid, per in _path_counts(g, z).items():
            total = sum(per.values())
            size = len(g.infosets[1][iid].actions)
            assert witness.row(iid) == tuple(Fraction(per.get(a, 0), total)
                                             for a in range(size))


@pytest.mark.parametrize("make", [am3, am4])
def test_am_examples_take_two_actions_at_one_infoset(make):
    g = make()
    assert any(len(per) > 1 for z in g.terminals for per in _path_counts(g, z).values())


# A chance-free game and one with chance nodes but no absentmindedness, so
# between them every bound runs.
@pytest.mark.parametrize("make", [am3, lambda: gen_dory(3)], ids=["am3", "dory3"])
def test_coefficient_table_is_built_once_per_game(make, monkeypatch):
    g = make()
    coefficient_table(g)
    calls = []

    def counted(name):
        real = getattr(vor, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(vor, name, wrapper)

    counted("am_coefficient")
    counted("_branching_factors")
    bounds = structural_bounds(g)
    vor_compute(g, "OPT")
    assert calls == []
    assert "composed" in bounds and ("am_zstar" in bounds) != ("chance_beta" in bounds)


@pytest.mark.parametrize("make, search", [
    (lambda: gen_dory(2), True), (lambda: gen_random(7, 3, 0.6, 0.2, False, 1), False),
], ids=["dory2", "r7"])
def test_one_refinement_and_one_optimum_per_game(make, search, monkeypatch):
    # Optimal play, OPT VoR, the chance bound, the coarsest-refinement
    # oracle and the partial-recall search share the game's refinement,
    # and the pure search runs once per game: on the game for its optimal
    # play, and on the refinement for the bound and the OPT row.  The games
    # are kept in the lists, so no id repeats.
    partitions, optima = [], []
    partition, optimum = recall._perfect_recall_partition, recall._pure_search
    monkeypatch.setattr(recall, "_perfect_recall_partition",
                        lambda game, player: partitions.append((game, player))
                        or partition(game, player))
    monkeypatch.setattr(recall, "_pure_search",
                        lambda game: optima.append(game) or optimum(game))
    g = make()
    optimal_strategy(g)
    vor_compute(g, "OPT")
    structural_bounds(g)
    refined, plan = perfect_recall_refinement(g, 1)
    assert check_coarsest(g, 1, refined)
    if search:
        k_best_partial(g, 1)
    assert [(id(game), p) for game, p in partitions] == [(id(g), 1)]
    solved = [id(game) for game in optima]
    assert len(set(solved)) == len(solved)
    assert id(refined) in solved and id(g) in solved
    again = perfect_recall_refinement(g, 1)
    assert again[0] is refined and again[1] is plan
