"""The compiled leaf table (``Game.leaves``) against paths that do not read
it: finite differences, whole-tree evaluation of deviated profiles, exact
gradients, and a brute-force ancestor scan; plus deep chains that once hit
recursion limits."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import finite_difference_gradient, per_row_kkt_residuals, random_profile

from irgames.game import Infoset, Node, has_absentmindedness, make_game, seq
from irgames.generators import gen_lenny, gen_random
from irgames.numeric import SUPP_TOL, NumericGame, _project_simplex, project_rows
from irgames.recall import perfect_recall_refinement
from irgames.solvers import (
    best_deviation,
    edt_check,
    edt_incentive,
    kkt_check,
    kkt_check_profile,
)
from irgames.strategies import (
    BehavioralStrategy,
    StrategyProfile,
    deviate,
    expected_utility,
    infoset_gradient,
    infoset_terms,
    uniform_profile,
    utility_gradient,
)

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)

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


def terms_value(terms, sigma):
    total = 0
    for c, exps in terms:
        for s, e in zip(sigma, exps):
            c = c * s ** e
        total = total + c
    return total


@PROPERTY
@given(game=games, seed=st.integers(0, 10_000))
def test_utility_gradient_matches_finite_differences(game, seed):
    profile = random_profile(game, seed, exact=False)
    for p in range(1, game.players + 1):
        for iid, iset in game.infosets.get(p, {}).items():
            for a in range(len(iset.actions)):
                exact = float(utility_gradient(game, profile, p, iid, a))
                fd = finite_difference_gradient(game, profile, p, iid, a)
                assert exact == pytest.approx(fd, rel=1e-6, abs=1e-6)


@PROPERTY
@given(game=games, seed=st.integers(0, 10_000))
def test_infoset_terms_and_deviations_match_whole_tree_evaluation(game, seed):
    profile = random_profile(game, seed, exact=True)
    for p in range(1, game.players + 1):
        base = expected_utility(game, profile, p)
        for iid, iset in game.infosets.get(p, {}).items():
            n = len(iset.actions)
            terms = infoset_terms(game, profile, p, iid)
            at_row = terms_value(terms, profile[p].row(iid))
            vertices = [
                tuple(Fraction(int(j == a)) for j in range(n)) for a in range(n)
            ]
            walked = {
                sigma: expected_utility(game, deviate(profile, iid, sigma, p), p)
                for sigma in vertices + [random_profile(game, seed + 1, True)[p].row(iid)]
            }
            for sigma, value in walked.items():
                assert terms_value(terms, sigma) - at_row == value - base
            value, _ = best_deviation(game, profile, p, iid)
            best_vertex = max(walked[v] for v in vertices)
            if iid in game.absentminded[p]:
                assert value >= best_vertex - 1e-12  # ascent values are floats
            else:
                assert value == best_vertex


@PROPERTY
@given(game=games, seed=st.integers(0, 10_000))
def test_compiled_utility_matches_expected_utility(game, seed):
    profile = random_profile(game, seed, exact=False)
    num = NumericGame(game)
    x = num.index.vector(profile)[None, :]
    for p in range(1, game.players + 1):
        got = float(num.utility(x, p)[0])
        assert got == pytest.approx(float(expected_utility(game, profile, p)),
                                    rel=1e-12, abs=1e-12)


def pure_profile(game, seed: int) -> StrategyProfile:
    rng = random.Random(seed)
    return StrategyProfile(tuple(
        BehavioralStrategy(p, {
            iid: tuple(Fraction(int(a == k)) for a in range(len(iset.actions)))
            for iid, iset in game.infosets.get(p, {}).items()
            for k in [rng.randrange(len(iset.actions))]
        })
        for p in range(1, game.players + 1)
    ))


@PROPERTY
@given(game=st.one_of(games, st.sampled_from([2, 4, 6, 8]).map(gen_lenny)),
       seed=st.integers(0, 10_000))
def test_fused_gradient_matches_exact_utility_and_gradient(game, seed):
    # A batch of mixed and pure profiles; lenny chains add leaves of every
    # depth and entries visited many times.
    profiles = [random_profile(game, seed + k, exact=True) for k in range(3)]
    profiles.append(pure_profile(game, seed))
    num = NumericGame(game)
    X = np.array([num.index.vector(prof) for prof in profiles])
    for p in range(1, game.players + 1):
        values, grads = num.gradient(X, p)
        assert values.shape == (len(profiles),)
        assert grads.shape == (len(profiles), num.index.dim)
        for b, prof in enumerate(profiles):
            assert values[b] == pytest.approx(
                float(expected_utility(game, prof, p)), rel=1e-9, abs=0)
            for row in num.index.rows:
                if row.player != p:
                    continue
                for a in range(row.size):
                    exact = utility_gradient(game, prof, p, row.infoset_id, a)
                    assert grads[b, row.offset + a] == pytest.approx(
                        float(exact), rel=1e-9, abs=0)


def exact_edt_gains(game, profile) -> dict:
    """{(player, infoset): (gain, tolerance)} by the exact vertex scan of
    ``best_deviation``, one infoset at a time; the tolerance is 1e-9 times
    |value| + |base|."""
    out = {}
    for p in range(1, game.players + 1):
        base = expected_utility(game, profile, p)
        for iid in game.infosets.get(p, {}):
            value, _ = best_deviation(game, profile, p, iid)
            out[p, iid] = (float(value) - float(base),
                           1e-9 * (abs(float(value)) + abs(float(base))))
    return out


def exact_kkt_gaps(game, profile, player) -> list:
    """(gap, tolerance) of every infoset of the player from the exact
    ``infoset_gradient``, one infoset at a time; the tolerance is 1e-9
    times the row's largest |partial|."""
    out = []
    for iid in game.infosets.get(player, {}):
        v = [float(g) for g in infoset_gradient(game, profile, player, iid)]
        supp = [float(q) > SUPP_TOL for q in profile[player].row(iid)]
        gap = max(v) - min(g for g, s in zip(v, supp) if s)
        out.append((max(gap, 0.0), 1e-9 * max(abs(g) for g in v)))
    return out


def worst(entries) -> tuple[float, float]:
    """The largest value, clamped at 0, and the largest tolerance."""
    return max([0.0, *(v for v, _ in entries)]), max([0.0, *(t for _, t in entries)])


@PROPERTY
@given(game=games, seed=st.integers(0, 10_000), pure=st.booleans())
def test_public_checks_match_the_exact_per_infoset_walks(game, seed, pure):
    profile = pure_profile(game, seed) if pure else random_profile(game, seed, exact=True)
    gains = exact_edt_gains(game, profile)
    for (p, iid), (gain, tol) in gains.items():
        assert abs(edt_incentive(game, profile, p, iid) - gain) <= tol
    want, tol = worst(gains.values())
    assert abs(edt_check(game, profile)[1] - want) <= tol
    with pytest.raises(KeyError):
        edt_incentive(game, profile, 1, "not an infoset")

    per_player = []
    for p in range(1, game.players + 1):
        want, tol = worst(exact_kkt_gaps(game, profile, p))
        assert abs(kkt_check(game, profile, p)[1] - want) <= tol
        per_player.append((want, tol))
    want, tol = worst(per_player)
    assert abs(kkt_check_profile(game, profile)[1] - want) <= tol


def mixed_rows_game():
    """Player 1 picks one of three actions, then one of two."""
    nodes = [Node("r", 1, ("a", "b", "c"), ("m", "zb", "zc")),
             Node("m", 1, ("x", "y"), ("zx", "zy"))]
    nodes += [Node(z, "terminal") for z in ("zb", "zc", "zx", "zy")]
    utilities = {z: (Fraction(u),) for z, u in zip(("zb", "zc", "zx", "zy"), (1, 2, 3, 4))}
    infosets = [Infoset("R", 1, ("r",), ("a", "b", "c")),
                Infoset("M", 1, ("m",), ("x", "y"))]
    return make_game(1, "r", nodes, utilities, infosets, name="mixed-rows")


@PROPERTY
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 6))
def test_project_rows_matches_per_row_projection(seed, rows):
    # The sort path is the reference, so the closed forms of the two- and
    # three-action rows are checked through the row dispatch too.
    index = NumericGame(mixed_rows_game()).index
    assert sorted(r.size for r in index.rows) == [2, 3]
    X = np.random.default_rng(seed).normal(scale=2.0, size=(rows, index.dim))
    want = X.copy()
    for row in index.rows:
        block = slice(row.offset, row.offset + row.size)
        want[:, block] = sorted_projection(X[:, block])
    assert np.array_equal(project_rows(index, X), want)


@pytest.mark.parametrize("make, players, sizes", [
    (lambda: gen_random(7, 3, 0.6, 0.2, False, 1), (None,), 1),
    (lambda: gen_random(6, 3, 0.6, 0.2, True, 1), (None,), 1),
    (lambda: gen_random(6, 3, 0.5, 0.2, False, 1, players=2), (None, 1, 2), 1),
    (mixed_rows_game, (None,), 2),
], ids=["r7", "am6", "p2", "mixed-rows"])
def test_project_rows_keeps_the_gather_paths_bits(make, players, sizes):
    # Where every row projected has one size (three actions on the
    # benchmark's r7, am6 and p2), the rows' coordinates are projected as a
    # reshape; the reference gathers and scatters them by size.
    index = make().numeric.index
    X = np.random.default_rng(0).normal(scale=2.0, size=(64, index.dim))
    for player in players:
        groups = index.rows_by_size if player is None else index.player_rows_by_size[player]
        assert len(groups) == sizes
        want = X.copy()
        for coords in groups:
            want[:, coords] = _project_simplex(want[:, coords])
        assert project_rows(index, X, player).tobytes() == want.tobytes()


def sorted_projection(V: np.ndarray) -> np.ndarray:
    """The sort-based simplex projection, the reference for the closed
    forms of two- and three-action rows."""
    n = V.shape[-1]
    U = np.sort(V, axis=-1)[..., ::-1]
    css = np.cumsum(U, axis=-1) - 1.0
    cond = U - css / np.arange(1, n + 1, dtype=float) > 0
    rho = n - 1 - np.argmax(cond[..., ::-1], axis=-1)
    theta = np.take_along_axis(css, rho[..., None], axis=-1) / (rho[..., None] + 1.0)
    return np.maximum(V - theta, 0.0)


@PROPERTY
@given(seed=st.integers(0, 10_000), top=st.integers(-3, 300),
       lead=st.sampled_from([(256,), (16, 16)]))
@example(seed=0, top=300, lead=(256,))
def test_two_action_projection_takes_the_sort_paths_bits(seed, top, lead):
    # Two- and three-action rows.  Magnitudes 1e-3 to 10**top; each later
    # entry ties an earlier one, is one away, is one ulp from it or from
    # one away, or is drawn freely, so any two entries or all three may
    # tie.  Above 2**53, a - (a - 1) > 0 fails and the sort path keeps
    # both.  Near-simplex rows (a Dirichlet draw plus noise) are the rows
    # the polish projects.
    rng = np.random.default_rng(seed)

    def free():
        return rng.choice([-1.0, 1.0], lead) * 10.0 ** rng.uniform(-3, top, lead)

    def near(base):
        one = rng.choice([-1.0, 1.0], lead)
        ulp = rng.choice([-np.inf, np.inf], lead)
        return np.choose(rng.integers(0, 5, lead), [
            base, base + one, np.nextafter(base, ulp), np.nextafter(base + one, ulp), free()])

    a = free()
    b = near(a)
    c = near(np.where(rng.random(lead) < 0.5, a, b))
    noise = 10.0 ** rng.uniform(-17, -1, (*lead, 1))
    for V in (np.stack([a, b], axis=-1), np.stack([a, b, c], axis=-1),
              *(rng.dirichlet(np.ones(n), lead) + rng.normal(0.0, noise, (*lead, n))
                for n in (2, 3))):
        assert np.array_equal(_project_simplex(V), sorted_projection(V))


def two_player_mixed_rows_game():
    """Player 1 picks one of three actions; player 2 then picks one of two
    or one of three, and player 1 once more one of two."""
    nodes = [Node("r", 1, ("a", "b", "c"), ("s", "t", "m")),
             Node("s", 2, ("x", "y"), ("zsx", "zsy")),
             Node("t", 2, ("x", "y", "w"), ("ztx", "zty", "ztw")),
             Node("m", 1, ("u", "v"), ("zmu", "zmv"))]
    pays = {"zsx": (3, 0), "zsy": (0, 2), "ztx": (1, 1), "zty": (2, 0),
            "ztw": (0, 3), "zmu": (2, 2), "zmv": (1, 0)}
    nodes += [Node(z, "terminal") for z in pays]
    utilities = {z: tuple(map(Fraction, u)) for z, u in pays.items()}
    infosets = [Infoset("R", 1, ("r",), ("a", "b", "c")),
                Infoset("M", 1, ("m",), ("u", "v")),
                Infoset("S", 2, ("s",), ("x", "y")),
                Infoset("T", 2, ("t",), ("x", "y", "w"))]
    return make_game(2, "r", nodes, utilities, infosets, name="two-player-mixed-rows")


@PROPERTY
@given(seed=st.integers(0, 10_000))
def test_kkt_residuals_match_the_per_row_gaps(seed):
    num = NumericGame(two_player_mixed_rows_game())
    assert sorted((r.player, r.size) for r in num.index.rows) == [
        (1, 2), (1, 3), (2, 2), (2, 3)]
    # Mixed points, and the same points with entries cut off the support.
    rng = np.random.default_rng(seed)
    X = project_rows(num.index, rng.random((6, num.index.dim)))
    cut = X.copy()
    cut[rng.random(cut.shape) < 0.4] = 0.0
    X = np.concatenate([X, cut])
    assert np.array_equal(num.kkt_residuals(X), per_row_kkt_residuals(num, X))


@PROPERTY
@given(game=games)
def test_has_absentmindedness_matches_ancestor_scan(game):
    for p in range(1, game.players + 1):
        brute = False
        for iset in game.infosets.get(p, {}).values():
            members = set(iset.nodes)
            for nid in iset.nodes:
                anc = game.parent[nid]
                while anc is not None and not brute:
                    brute = anc in members
                    anc = game.parent[anc]
        assert has_absentmindedness(game, p) == brute


@PROPERTY
@example(game=gen_random(3, 3, 0.9, 0.0, True, 0))
@given(game=games)
def test_leaf_visits_are_the_counts_on_the_root_path(game):
    for z, leaf in game.leaves.items():
        path = seq(game, z) + [z]
        counts: dict = {}
        for parent, child in zip(path, path[1:]):
            node = game.nodes[parent]
            if not node.is_chance:
                row = counts.setdefault((node.owner, game.infoset_of_node[parent]),
                                        [0] * len(node.children))
                row[node.children.index(child)] += 1
        assert leaf.visits == tuple((key, tuple(row)) for key, row in counts.items())


def leaf_table_absentminded(game) -> dict:
    """The infosets some leaf's path visits at least twice, read from the
    leaf table."""
    out = {p: set() for p in range(1, game.players + 1)}
    for leaf in game.leaves.values():
        for (p, iid), counts in leaf.visits:
            if sum(counts) > 1:
                out[p].add(iid)
    return out


@PROPERTY
@example(game=gen_lenny(4))
@example(game=gen_random(2, 3, 0.9, 0.0, True, 3))
@given(game=games)
def test_absentminded_walk_matches_leaf_table(game):
    assert game.absentminded == leaf_table_absentminded(game)


def test_absentmindedness_of_a_deep_chain_skips_the_leaf_table():
    chain = gen_lenny(2000)
    refined = perfect_recall_refinement(chain, 1)[0]
    assert has_absentmindedness(chain, 1)
    assert not has_absentmindedness(refined, 1)
    assert "leaves" not in vars(chain) and "leaves" not in vars(refined)


@pytest.mark.parametrize("n", [200, 1000])
def test_deep_chain_evaluates_without_recursion(n):
    game = gen_lenny(n)
    profile = uniform_profile(game)
    assert expected_utility(game, profile, 1) == Fraction(1, 2 ** n)
    assert NumericGame(game).n_leaves == n + 1
    # Uniform play maximizes s^(n/2) (1-s)^(n/2), so no deviation gains.
    assert edt_check(game, profile) == (True, 0.0)
