"""The EDT-/CDT-Nash rationality filters: they check every player and
witness in place on the game's one compiled table, agree with the
opponent-fixed single-player checks, and say when ``_WITNESS_CAP`` cut the
witness search behind a rejection."""

import itertools
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import irgames.solvers as solvers
from irgames.game import TERMINAL, Infoset, Node, make_game
from irgames.generators import gen_dory, gen_fig1, gen_random
from irgames.numeric import SUPP_TOL, NumericGame
from irgames.solvers import (
    EquilibriumNotFoundError,
    SolverConfig,
    _rational_per_player,
    _rationality_witnesses,
    _schedule_check,
    best_worst,
    cdt_nash_check,
    cdt_rational_check,
    edt_nash_check,
    edt_rational_check,
    enumerate_equilibria,
)
from irgames.strategies import (
    BehavioralStrategy,
    fix_opponents,
    infoset_reach,
    profile_from,
)
from irgames.vor import vor_compute

# A small cap makes both sides truncate their witness lists on most pure
# profiles, so the property covers the cut as well.
WITNESS_CAP = 4
CFG = SolverConfig()


def test_each_game_is_compiled_once(monkeypatch):
    built = []
    init = NumericGame.__init__

    def counted(self, game):
        built.append(game)
        init(self, game)

    monkeypatch.setattr(NumericGame, "__init__", counted)
    vor_compute(gen_dory(2), "wCDT-NASH")  # the game and its refinement
    assert len(built) == 2
    built.clear()
    enumerate_equilibria(gen_fig1(Fraction(1, 100)), "EDT-NASH")
    assert len(built) == 1


# -- in place against the opponent-fixed single-player checks ----------------


def make_profile(game, kind: str, seed: int):
    rng = np.random.default_rng(seed)
    strategies = []
    for player in range(1, game.players + 1):
        table = {}
        for iid, iset in game.infosets[player].items():
            n = len(iset.actions)
            if kind == "uniform":
                row = np.full(n, 1.0 / n)
            elif kind == "pure":
                row = np.eye(n)[rng.integers(n)]
            else:
                row = rng.dirichlet(np.ones(n))
            table[iid] = tuple(float(p) for p in row)
        strategies.append(BehavioralStrategy(player, table))
    return profile_from(*strategies)


def reference_rational(game, profile, player: int, check) -> bool:
    """The player's strategy in the opponent-fixed game, and its
    completions of unreached rows built as strategies, through the public
    single-player check."""
    sub = fix_opponents(game, profile, player)
    own = BehavioralStrategy(1, dict(profile[player].table))
    unreached = [
        iid for iid in sorted(sub.infosets[1])
        if float(infoset_reach(sub, profile_from(own), iid)) <= SUPP_TOL
    ]
    witnesses = [own]
    if unreached:
        table = dict(own.table)
        for iid in unreached:
            n = len(sub.infosets[1][iid].actions)
            table[iid] = (1.0 / n,) * n
        witnesses.append(BehavioralStrategy(1, table))
        sizes = [len(sub.infosets[1][iid].actions) for iid in unreached]
        combos = itertools.product(*[range(n) for n in sizes])
        for combo in itertools.islice(combos, WITNESS_CAP):
            table = dict(own.table)
            for iid, n, a in zip(unreached, sizes, combo):
                table[iid] = tuple(float(j == a) for j in range(n))
            witnesses.append(BehavioralStrategy(1, table))
    return any(check(sub, w, CFG) for w in witnesses)


@pytest.mark.parametrize("check, family", [
    (edt_rational_check, "EDT"),
    (cdt_rational_check, "CDT"),
])
@settings(derandomize=True, max_examples=25, deadline=None)
# Holding the opponent's pure rows fixed while the player's rows are mixed
# decides this example: mixing both gives another verdict.
@example(depth=3, branching=3, merge=0.5, chance=0.0, seed=5, kind="pure")
@given(depth=st.integers(2, 3), branching=st.integers(2, 3),
       merge=st.sampled_from([0.5, 0.9]), chance=st.sampled_from([0.0, 0.3]),
       seed=st.integers(0, 10_000),
       kind=st.sampled_from(["uniform", "pure", "dirichlet"]))
def test_in_place_verdicts_match_opponent_fixed_checks(check, family, depth,
                                                       branching, merge, chance,
                                                       seed, kind):
    game = gen_random(depth, branching, merge, chance, False, seed, players=2)
    profile = make_profile(game, kind, seed)
    num = game.numeric
    x = num.index.vector(profile)
    want = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_WITNESS_CAP", WITNESS_CAP)
        for player in (1, 2):
            got = any(_schedule_check(num, w, player, CFG, family)[0]
                      for w in _rationality_witnesses(num, x, player)[0])
            want.append(reference_rational(game, profile, player, check))
            assert got == want[-1]
        assert _rational_per_player(num, x, CFG, family)[0] == all(want)


# -- _WITNESS_CAP --------------------------------------------------------------


def bluff_game(out_utility: int, chain: int = 9):
    """Player 1 opts out for ``out_utility`` or goes in to the bluff
    infoset, where only the middle action pays (1, whatever the ``chain``
    of two-action infosets below it plays).  Playing out leaves "bluff"
    (first in row order) and the chain unreached, so the only rational
    completions play the middle action, and with ``chain`` >= 9 every one
    of them lies beyond the first 256 pure completions."""
    nodes = [Node("r", 1, ("in", "out"), ("b", "zo")),
             Node("b", 1, ("a0", "a1", "a2"), ("z0", "x0", "z2"))]
    utilities = {"zo": (Fraction(out_utility),), "z0": (Fraction(0),),
                 "z2": (Fraction(0),)}
    infosets = [Infoset("root", 1, ("r",), ("in", "out")),
                Infoset("bluff", 1, ("b",), ("a0", "a1", "a2"))]
    for k in range(chain):
        below = f"x{k + 1}" if k + 1 < chain else "zg"
        nodes.append(Node(f"x{k}", 1, ("stop", "go"), (f"zs{k}", below)))
        infosets.append(Infoset(f"x{k}", 1, (f"x{k}",), ("stop", "go")))
        utilities[f"zs{k}"] = (Fraction(1),)
    utilities["zg"] = (Fraction(1),)
    nodes += [Node(z, TERMINAL) for z in utilities]
    return make_game(1, "r", nodes, utilities, infosets, name="bluff")


# Fewer random seeds than the defaults: the crafted game needs none of them.
# ``lean`` cuts the grid samples and ``wide`` widens the witness cap.  The
# memo keys do not carry the caps, so each setting solves a fresh game.
LEAN = SolverConfig(multistart=4)
NOTE = "witness_cap=256 cut the witness search of 1 rejected class(es)"


def lean(monkeypatch) -> None:
    monkeypatch.setattr(solvers, "_GRID_SAMPLES", 16)


def wide(monkeypatch) -> None:
    monkeypatch.setattr(solvers, "_WITNESS_CAP", 1024)


def out_profile():
    """Plays out, leaving the bluff infoset and the chain unreached."""
    table = {"root": (0, 1), "bluff": (0, 0, 1),
             **{f"x{k}": (0, 1) for k in range(9)}}
    return profile_from(BehavioralStrategy(1, {
        iid: tuple(Fraction(p) for p in row) for iid, row in table.items()}))


# Each witness_cap test runs once per Nash refinement: the helper takes the
# concept, and the EDT-NASH twin follows the CDT-NASH test.


def stays_boolean(monkeypatch, check) -> None:
    game, profile = bluff_game(2), out_profile()
    assert check(game, profile) is False
    wide(monkeypatch)
    assert check(game, profile) is True


def test_nash_check_stays_boolean_when_the_cap_decides(monkeypatch):
    stays_boolean(monkeypatch, cdt_nash_check)


def test_edt_nash_check_stays_boolean_when_the_cap_decides(monkeypatch):
    stays_boolean(monkeypatch, edt_nash_check)


def raises_with_the_cap(monkeypatch, concept: str) -> None:
    lean(monkeypatch)
    with pytest.raises(EquilibriumNotFoundError, match=re.escape(NOTE)):
        enumerate_equilibria(bluff_game(2), concept, LEAN)
    wide(monkeypatch)
    [report] = enumerate_equilibria(bluff_game(2), concept, LEAN)
    assert report.u1 == 2
    assert report.notes == ("grid_cap=5000 exceeded: sampled 16 grid points",)


def test_cap_decided_rejection_without_survivors_raises_with_the_cap(monkeypatch):
    raises_with_the_cap(monkeypatch, "CDT-NASH")


def test_edt_nash_rejection_without_survivors_raises_with_the_cap(monkeypatch):
    raises_with_the_cap(monkeypatch, "EDT-NASH")


def marks_every_report(monkeypatch, concept: str) -> None:
    lean(monkeypatch)
    reports = enumerate_equilibria(bluff_game(1), concept, LEAN)
    assert reports
    assert all(r.certified == "heuristic" and NOTE in r.notes for r in reports)
    wide(monkeypatch)
    wide_reports = enumerate_equilibria(bluff_game(1), concept, LEAN)
    assert len(wide_reports) == len(reports) + 1
    assert not any(NOTE in r.notes for r in wide_reports)


def test_cap_decided_rejection_marks_every_report_heuristic(monkeypatch):
    marks_every_report(monkeypatch, "CDT-NASH")


def test_edt_nash_rejection_marks_every_report_heuristic(monkeypatch):
    marks_every_report(monkeypatch, "EDT-NASH")


def driver_game(chain: int = 9):
    """Player 1 opts out for 2 or goes in to an absentminded driver row
    (exit at the first visit 0, at the second 4, go on twice 1: going in
    is worth at most 4/3, continuing 2/3 of the time), and going on twice
    leads to Player 2's ``chain`` of two-action infosets.  Playing out
    leaves the driver and the chain unreached: no completion of the driver
    row that a witness tries (uniform, exit, continue) is rational, while
    Player 2's 2^9 pure completions exceed the witness cap."""
    nodes = [Node("r", 1, ("out", "in"), ("zo", "d1")),
             Node("d1", 1, ("exit", "cont"), ("ze1", "d2")),
             Node("d2", 1, ("exit", "cont"), ("ze2", "y0"))]
    utilities = {"zo": (Fraction(2), Fraction(0)), "ze1": (Fraction(0), Fraction(0)),
                 "ze2": (Fraction(4), Fraction(0))}
    infosets = [Infoset("root", 1, ("r",), ("out", "in")),
                Infoset("drive", 1, ("d1", "d2"), ("exit", "cont"))]
    for k in range(chain):
        below = f"y{k + 1}" if k + 1 < chain else "zg"
        nodes.append(Node(f"y{k}", 2, ("stop", "go"), (f"zs{k}", below)))
        infosets.append(Infoset(f"y{k}", 2, (f"y{k}",), ("stop", "go")))
        utilities[f"zs{k}"] = (Fraction(1), Fraction(0))
    utilities["zg"] = (Fraction(1), Fraction(0))
    nodes += [Node(z, TERMINAL) for z in utilities]
    return make_game(2, "r", nodes, utilities, infosets, name="driver")


def out_profile_of(game):
    """Player 1 plays out and exits; Player 2 stops everywhere."""
    return profile_from(*(BehavioralStrategy(p, {
        iid: (Fraction(1), Fraction(0)) for iid in game.infosets[p]
    }) for p in (1, 2)))


@pytest.mark.parametrize("concept", ["CDT-NASH", "EDT-NASH"])
def test_witness_cap_note_counts_only_the_failing_players_search(monkeypatch, concept):
    # Player 1 fails on a short witness list; Player 2's list is cut but
    # never decides, so the rejection is not the cap's.
    lean(monkeypatch)
    game = driver_game()
    num = game.numeric
    x = num.index.vector(out_profile_of(game))
    assert _rationality_witnesses(num, x, 1)[1] is False
    assert _rationality_witnesses(num, x, 2)[1] is True
    assert _rational_per_player(num, x, CFG, concept[:3]) == (False, False)
    assert enumerate_equilibria(game, concept, LEAN) == []
    with pytest.raises(EquilibriumNotFoundError) as err:
        best_worst(game, concept, "best", LEAN)
    assert "witness_cap" not in str(err.value)


# -- timing ----------------------------------------------------------------------


def test_edt_nash_check_is_fast_on_a_long_witness_list():
    # 258 witnesses of 20 schedule steps each: the rows have no
    # absentmindedness, so every witness takes one gradient call.
    game, profile = bluff_game(2), out_profile()
    start = time.perf_counter()
    assert edt_nash_check(game, profile) is False
    assert time.perf_counter() - start < 0.5


def test_edt_rational_check_is_fast_on_a_three_action_absentminded_row():
    # The game's only infoset is such a row: the batched ascent covers all
    # 20 schedule steps at once.
    game = gen_random(2, 3, 0.9, 0.0, True, 3)
    [(iid, iset)] = game.infosets[1].items()
    assert iid in game.absentminded[1] and len(iset.actions) == 3
    strategy = BehavioralStrategy(1, {iid: (Fraction(1, 3),) * 3})
    start = time.perf_counter()
    edt_rational_check(game, strategy)
    assert time.perf_counter() - start < 0.1
