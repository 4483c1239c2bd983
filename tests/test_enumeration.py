"""Equilibrium enumeration in two stages: the candidate classes of a polish
family are found once per game and ``SolverConfig`` and shared by every
concept of the family, and ``best_worst`` filters them lazily from the
requested end of Player 1's utility order.  Optimal play, which seeds the
single-player enumerations, is likewise solved once per game and config."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import per_row_kkt_residuals, single

import irgames.solvers as solvers
from irgames.generators import (
    default_valid_utility,
    gen_dory,
    gen_fig1,
    gen_fig2,
    gen_fig3,
    gen_fig5,
    gen_lenny,
    gen_random,
)
from irgames.numeric import project_rows, simplex_grid
from irgames.solvers import SolverConfig, best_worst, enumerate_equilibria
from irgames.strategies import node_reach_map, validate_profile
from irgames.vor import VOR_CONCEPTS, _refined, vor_compute

from test_rationality import LEAN, NOTE, bluff_game, lean

PAPER_GAMES = {
    "fig1": lambda: gen_fig1(Fraction(1, 100)),
    "fig2": gen_fig2,
    "fig3": lambda: gen_fig3(Fraction(1, 10)),
    "fig5": gen_fig5,
    "lenny6": lambda: gen_lenny(6),
    "dory2": lambda: gen_dory(2),
    "valid": default_valid_utility,
}
ENUM_CONCEPTS = ("EDT", "CDT", "NASH", "EDT-NASH", "CDT-NASH")


def count_calls(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(solvers, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(solvers, name, counted)
    return calls


@pytest.mark.parametrize("make", [gen_fig2, lambda: gen_dory(2)])
def test_one_candidate_stage_per_game_family_and_config(monkeypatch, make):
    # Optimal play polishes too, so the stages are counted, not the polishes.
    stages = []
    find = solvers._find_classes

    def counted(game, family, cfg):
        stages.append((id(game), family))
        return find(game, family, cfg)

    monkeypatch.setattr(solvers, "_find_classes", counted)
    game = make()
    for concept in VOR_CONCEPTS[1:]:
        vor_compute(game, concept)
    # Once per family in the game and once in its refinement.
    once = sorted((id(g), family) for g in (game, _refined(game))
                  for family in ("CDT", "EDT"))
    assert sorted(stages) == once

    enumerate_equilibria(game, "EDT-NASH")
    best_worst(game, "CDT", "worst")
    assert sorted(stages) == once
    best_worst(game, "NASH", "best", SolverConfig(seed=1))
    assert sorted(stages) == sorted(once + [(id(game), "EDT")])


@pytest.mark.parametrize("make", [gen_fig5, default_valid_utility])
def test_one_optimal_solve_per_game_and_config(monkeypatch, make):
    solves = [count_calls(monkeypatch, name) for name in (
        "_numeric_opt", "_pure_enumeration_opt", "_perfect_recall_dp")]
    game = make()
    report = solvers.optimal_strategy(game)
    vor_compute(game, "OPT")
    best_worst(game, "EDT", "best")
    best_worst(game, "CDT", "worst")
    # The enumeration seeds and the OPT row read the first report; the
    # refinement is solved once for the OPT row.
    assert sorted(id(g) for calls in solves for g in calls) == sorted(
        [id(game), id(_refined(game))])
    assert solvers.optimal_strategy(game) is report


def test_single_player_nash_check_solves_the_game_itself(monkeypatch):
    solves = count_calls(monkeypatch, "_solve_opt")
    game = gen_fig2()
    for row in ((1, 0), (Fraction(1, 3), Fraction(2, 3))):
        solvers.nash_check(game, single({"I": row}))
    assert [id(g) for g in solves] == [id(game)]


def test_shared_classes_give_the_answers_of_a_fresh_game():
    for name, make in PAPER_GAMES.items():
        shared = make()
        for concept in ENUM_CONCEPTS:
            for which in ("best", "worst"):
                got = best_worst(shared, concept, which)
                assert got == best_worst(make(), concept, which), (name, concept, which)


# Random games whose classes tie, or nearly tie, in Player 1's utility:
# all 286 CDT classes of the first are worth about 1.92449, and the worst
# EDT classes of the second 6 to within an ulp.
TIED_GAMES = {
    "seed9": lambda: gen_random(depth=3, branching=3, merge_rate=0.6, chance_rate=0.2,
                                absentmindedness=False, seed=9, players=2),
    "seed4-am": lambda: gen_random(3, 2, 0.6, 0.2, True, seed=4),
}


@pytest.fixture(scope="module")
def class_games() -> list:
    """The paper games, the tied games and their refinements, built once
    for the module, so that its tests share each candidate stage."""
    games = [make() for make in {**PAPER_GAMES, **TIED_GAMES}.values()]
    return [g for game in games for g in (game, _refined(game))]


def test_lazy_best_worst_is_an_end_of_the_enumeration(class_games):
    for g in class_games:
        for concept in ENUM_CONCEPTS:
            found = enumerate_equilibria(g, concept)
            for which, want in (("best", found[-1]), ("worst", found[0])):
                got = best_worst(g, concept, which)
                assert (got.u1, got.certified, got.residual, got.profile) == (
                    want.u1, want.certified, want.residual, want.profile
                ), (g.name, concept, which)


def test_class_representatives_pass_their_family_check_at_their_residual(class_games):
    # The EDT-NASH and CDT-NASH filters do not repeat the family's check,
    # so every representative must pass it with the residual it was
    # admitted at.
    checks = {"EDT": solvers.edt_check, "CDT": solvers.kkt_check_profile}
    for g in class_games:
        for family, check in checks.items():
            classes = solvers._equilibrium_classes(g, family, solvers.DEFAULT_CONFIG)
            for x, residual in zip(classes.X, classes.residual):
                assert check(g, g.numeric.index.profile(x)) == (True, float(residual)), (
                    g.name, family)


def test_lazy_walk_notes_only_the_cut_rejections_it_examined(monkeypatch):
    # Every class is worth 1.  The cut rejection is the out-profile's class,
    # first in utility order by its residual 0; only the walk from the worst
    # end meets it, and the enumeration, which filters every class.
    lean(monkeypatch)
    game = bluff_game(1)
    worst = best_worst(game, "CDT-NASH", "worst", LEAN)
    best = best_worst(game, "CDT-NASH", "best", LEAN)
    assert worst.certified == "heuristic" and NOTE in worst.notes
    assert NOTE not in best.notes
    assert all(NOTE in r.notes for r in enumerate_equilibria(game, "CDT-NASH", LEAN))


def test_classes_are_read_only_and_walked_in_kernel_utility_order():
    refined = _refined(gen_fig3(Fraction(1, 10)))
    classes = solvers._equilibrium_classes(refined, "EDT", solvers.DEFAULT_CONFIG)
    assert len(classes.X) == 2
    assert not classes.X.flags.writeable and not classes.residual.flags.writeable
    u1 = refined.numeric.utility(classes.X[classes.order], 1)
    assert list(u1) == sorted(u1)


def product_grid(index, m: int) -> list:
    """The full product grid, point by point in ``itertools.product``
    order: the reference for the vectorised ``_grid_points``."""
    per_row = [simplex_grid(row.size, m) for row in index.rows]
    pts = []
    for combo in itertools.product(*[range(len(g)) for g in per_row]):
        x = np.empty(index.dim)
        for row, g, i in zip(index.rows, per_row, combo):
            x[row.offset : row.offset + row.size] = g[i]
        pts.append(x)
    return pts


@pytest.mark.parametrize("make", [
    gen_fig2, lambda: gen_fig1(Fraction(1, 100)), lambda: gen_dory(2),
    lambda: gen_random(3, 3, 0.5, 0.0, False, 7, players=2),
])
def test_full_grid_is_the_product_of_the_row_grids(make):
    index = make().numeric.index
    for m in (1, 2):
        cfg = SolverConfig(grid_resolution=m)
        pts, full = solvers._grid_points(index, cfg, cfg.rng())
        want = product_grid(index, m)
        assert full and len(pts) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(pts, want))


def per_draw_seeds(index, rng, count: int, m: int) -> tuple:
    """Random vertices, flat Dirichlet profiles and sampled grid points of
    resolution ``m``, one draw per sample and row in flattened order: the
    reference for the array draws of ``_random_vertices``,
    ``_random_mixed`` and ``_grid_points``."""
    vertices = np.zeros((count, index.dim))
    mixed = np.empty((count, index.dim))
    grid = np.empty((count, index.dim))
    for x in vertices:
        for row in index.rows:
            x[row.offset + int(rng.integers(row.size))] = 1.0
    for x in mixed:
        for row in index.rows:
            x[row.offset : row.offset + row.size] = rng.dirichlet(np.ones(row.size))
    for x in grid:
        for row in index.rows:
            comp = rng.multinomial(m, np.full(row.size, 1.0 / row.size))
            x[row.offset : row.offset + row.size] = comp / m
    return vertices, mixed, grid


# bluff_game(1) has a three-action row before its two-action ones, so rows
# drawn grouped by size leave the stream's order.
@pytest.mark.parametrize("make", [
    lambda: _refined(gen_fig2()), lambda: bluff_game(1),
    lambda: gen_random(3, 3, 0.5, 0.0, False, 7, players=2),
], ids=["refined fig2", "bluff", "two-player random"])
def test_array_seeds_draw_the_per_draw_stream(monkeypatch, make):
    index = make().numeric.index
    monkeypatch.setattr(solvers, "_GRID_CAP", 1)
    monkeypatch.setattr(solvers, "_GRID_SAMPLES", 12)
    for seed in (0, 7):
        cfg = SolverConfig(grid_resolution=4, seed=seed)
        rng, ref = cfg.rng(), cfg.rng()
        vertices = solvers._random_vertices(index, rng, 12)
        mixed = solvers._random_mixed(index, rng, 12)
        grid, full = solvers._grid_points(index, cfg, rng)
        assert not full
        for got, want in zip((vertices, mixed, grid), per_draw_seeds(index, ref, 12, 4)):
            assert np.array_equal(got, want)
        assert rng.random() == ref.random()


def test_full_pure_seeds_are_the_product_of_the_row_vertices():
    index = bluff_game(1).numeric.index
    pure, full = solvers._pure_seed_vectors(index, None)
    per_row = [np.eye(row.size) for row in index.rows]
    want = [np.concatenate(combo) for combo in itertools.product(*per_row)]
    assert full and np.array_equal(pure, want)


def per_step_polish(num, X: np.ndarray) -> np.ndarray:
    """The gradient polish differentiating every player afresh at every
    step: the reference for the carried ``_gradient_polish``."""
    X = project_rows(num.index, X)
    B = X.shape[0]
    players = range(1, num.game.players + 1)
    step = {p: np.full(B, 0.25) for p in players}
    active = np.ones(B, dtype=bool)
    for _ in range(solvers._POLISH_ITERS):
        idx = np.nonzero(active)[0]
        if len(idx) == 0:
            break
        settled = per_row_kkt_residuals(num, X[idx]) < 1e-11
        stuck = np.ones(len(idx), dtype=bool)
        for p in players:
            stuck &= step[p][idx] < 1e-12
        active[idx[settled | stuck]] = False
        idx = idx[~(settled | stuck)]
        if len(idx) == 0:
            continue
        for p in players:
            block = num.index.block[p][1]
            if block.start == block.stop:
                continue
            A = X[idx]
            f, G = num.gradient(A, p)
            D = np.zeros_like(A)
            D[:, block] = G[:, block]
            Y = project_rows(num.index, A + step[p][idx, None] * D)
            improved = num.utility(Y, p) > f + 1e-14
            X[idx[improved]] = Y[improved]
            step[p][idx[improved]] *= 1.2
            step[p][idx[~improved]] *= 0.5
    return X


@pytest.mark.parametrize("make", [
    PAPER_GAMES["fig1"], PAPER_GAMES["dory2"], lambda: _refined(gen_lenny(6)),
], ids=["fig1", "dory2", "refined lenny6"])
def test_carried_polish_takes_the_per_step_iterates(make):
    num = make().numeric
    rng = np.random.default_rng(0)
    pure, _ = solvers._pure_seed_vectors(num.index, rng)
    X = np.concatenate([pure[:64], solvers._random_mixed(num.index, rng, 16),
                        num.index.uniform()[None]])
    got, _ = solvers._gradient_polish(num, X)
    assert np.allclose(got, per_step_polish(num, X), rtol=0, atol=1e-12)


@pytest.mark.parametrize("make", [
    PAPER_GAMES["fig2"], PAPER_GAMES["lenny6"], PAPER_GAMES["fig3"],
    lambda: _refined(gen_dory(2)),
], ids=["fig2", "lenny6", "fig3", "refined dory2"])
def test_one_player_polish_takes_the_per_step_bits(make):
    # With one player every step moves the whole vector, so projecting the
    # mover's rows alone projects what the reference projects.
    num = make().numeric
    assert num.game.players == 1
    rng = np.random.default_rng(0)
    pure, _ = solvers._pure_seed_vectors(num.index, rng)
    X = np.concatenate([pure[:64], solvers._random_mixed(num.index, rng, 16),
                        num.index.uniform()[None]])
    got, _ = solvers._gradient_polish(num, X)
    assert np.array_equal(got, per_step_polish(num, X))


def test_gradient_polish_keeps_every_seed_on_the_simplex():
    # An uncapped step grew until the projection lost rows to rounding:
    # seeds ran off the simplex to entries of 8.6e124, and the best CDT
    # class had utilities (inf, inf) with residual 0.
    game = gen_random(3, 3, 0.5, 0.0, False, 13, players=2)
    top = [max(u[p] for u in game.utilities.values()) for p in range(game.players)]
    with np.errstate(over="raise", invalid="raise"):
        reports = [best_worst(game, "CDT", which) for which in ("best", "worst")]
    for report in reports:
        assert validate_profile(game, report.profile) == []
        for u, most in zip(report.utilities, top):
            assert math.isfinite(u) and u <= most
    assert [r.utilities for r in reports] == [(10, 7), (3, 4)]


def test_gradient_polish_drops_stuck_seeds_when_a_player_owns_nothing(monkeypatch):
    # Player 2 owns no infoset, so only Player 1's step can collapse: a
    # stuck test over every player never fired, and the seeds that never
    # settled ran to the 200-step cap (201 gradient calls).
    game = gen_random(4, 2, 0.7, 0.2, True, 41, players=2)
    assert not game.infosets[2]
    calls = []
    gradient = game.numeric.gradient

    def counted(*args):
        calls.append(args)
        return gradient(*args)

    monkeypatch.setattr(game.numeric, "gradient", counted)
    solvers._equilibrium_classes(game, "CDT", solvers.DEFAULT_CONFIG)
    assert len(calls) < 200


def test_class_representatives_differ_in_some_node_reach():
    for make in (lambda: gen_fig1(Fraction(1, 100)), lambda: gen_dory(2)):
        game = make()
        for g in (game, _refined(game)):
            for concept in ("EDT", "CDT"):
                classes = solvers._equilibrium_classes(g, concept, solvers.DEFAULT_CONFIG)
                reach = [node_reach_map(g, g.numeric.index.profile(x)) for x in classes.X]
                for a, b in itertools.combinations(reach, 2):
                    assert max(abs(float(a[n]) - float(b[n])) for n in g.nodes) > 1e-6
