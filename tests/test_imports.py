"""The package's import graph: which commands load numpy and the solvers,
and the names ``import irgames`` offers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import stall_chain

import irgames
from irgames import solvers
from irgames.fileio import write_game
from irgames.generators import gen_dory, gen_fig2, gen_random, gen_x3c_game

SRC = str(Path(irgames.__file__).resolve().parent.parent)

# dir(irgames) after a bare ``import irgames``, as it was when every solver
# name was imported eagerly.
PUBLIC_NAMES = [
    "BehavioralStrategy", "CHANCE", "Game", "Infoset", "Node",
    "ObservationSequence", "RefinementPlan", "SolveReport", "SolverConfig",
    "StrategyProfile", "TERMINAL", "best_worst", "cdt_nash_check",
    "cdt_rational_check", "cdt_utility", "chance_nodes", "check_coarsest",
    "deviate", "dummy_node_transform", "edt_check", "edt_incentive",
    "edt_nash_check", "edt_rational_check", "enumerate_equilibria",
    "expected_utility", "first_visit_nodes", "fix_opponents",
    "full_information_refinement", "game", "has_absentmindedness",
    "has_perfect_recall", "infoset_frequency", "infoset_reach", "kkt_check",
    "lift_strategy", "make_game", "nash_check", "numeric", "obs", "obs_i",
    "optimal_strategy", "perfect_recall_refinement",
    "perfect_recall_refinement_all", "profile_from", "pure_strategy",
    "reach_probability", "realization_equivalent", "recall", "refines", "seq",
    "solvers", "strategies", "uniform_profile", "uniform_strategy",
    "utility_gradient", "validate_game",
]


def fresh_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)


def r7():
    """The benchmark's r7: 97 infosets, no absentmindedness."""
    return gen_random(7, 3, 0.6, 0.2, False, seed=1)


def x3c():
    """CI's X3C no-instance; its best partial recall at k = 1 is 5/6."""
    return gen_x3c_game(6, [(2, 4, 6), (3, 4, 5), (1, 4, 6)])[0]


def dory3():
    return gen_dory(3)


def am6():
    """The benchmark's am6: absentminded three-action rows, whose best pure
    strategy meets the refinement's optimum 48/5."""
    return gen_random(6, 3, 0.6, 0.2, True, seed=1)


# (command and flags, game, id).  dory3 has chance nodes and no
# absentmindedness, so its chance bound reads the refinement's exact
# optimum; optimal play without absentmindedness is the pure search, on the
# game and on every partial-recall candidate.  With absentmindedness it is
# exact without the polish on fig2 (one two-action row, in closed form) and
# on am6 (the pure search, certified by the refinement's optimum).
OPT_COMMANDS = [
    pytest.param(argv, make, id=f"{argv[0]}-opt-{name}")
    for argv in (("solve", "--concept", "opt"), ("vor", "--concept", "opt"))
    for make, name in ((dory3, "dory3"), (r7, "r7"), (gen_fig2, "fig2"), (am6, "am6"))
] + [pytest.param(("partial-best", "--k", "1"), x3c, id="partial-best-x3c")]


def write(tmp_path, make) -> str:
    path = tmp_path / "game.json"
    write_game(make(), str(path))
    return str(path)


@pytest.mark.parametrize("argv, make", [
    pytest.param((command,), make, id=command + suffix)
    for make, suffix in ((gen_fig2, ""), (dory3, "-dory3"))
    for command in ("validate", "refine", "coeffs", "bounds")
] + OPT_COMMANDS)
def test_exact_commands_load_neither_numpy_nor_the_solvers(tmp_path, argv, make):
    argv = [argv[0], write(tmp_path, make), *argv[1:]]
    code = (
        "import contextlib, io, json, sys\n"
        "import irgames\n"
        "from irgames.cli import cli_main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli_main({argv!r})\n"
        "loaded = [m for m in ('numpy', 'irgames.solvers') if m in sys.modules]\n"
        "print(json.dumps([code, loaded]))\n"
    )
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]


@pytest.mark.parametrize("argv, make", OPT_COMMANDS + [
    pytest.param(("partial-best", "--k", "1"), dory3, id="partial-best-dory3")])
def test_optimal_play_prints_the_same_where_numpy_cannot_be_imported(tmp_path, argv, make):
    argv = [argv[0], write(tmp_path, make), *argv[1:]]
    blocked = fresh_python(
        "import sys; sys.modules['numpy'] = None\n"
        f"sys.argv[1:] = {argv!r}\n"
        "from irgames.cli import main; main()\n")
    normal = fresh_python(f"import sys; sys.argv[1:] = {argv!r}\n"
                          "from irgames.cli import main; main()\n")
    assert blocked.returncode == normal.returncode == 0, blocked.stderr
    assert blocked.stdout == normal.stdout


def test_absentminded_optimal_play_loads_the_solvers(tmp_path):
    # One absentminded three-action row whose every pure strategy is worth
    # 0, below the refinement's 1: OPT is the grid-seeded polish.
    argv = ["solve", write(tmp_path, lambda: stall_chain((2, 2, 4))), "--concept", "opt"]
    proc = fresh_python(
        "import sys\n"
        f"sys.argv[1:] = {argv!r}\n"
        "from irgames.cli import main\n"
        "try:\n"
        "    main()\n"
        "finally:\n"
        "    print('irgames.solvers' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "concept: OPT (any)",
        "u1: 0.000244140625 (= 1/4096)",
        "residual: 0",
        "certified: grid-certified(delta=1/64)",
        "note: grid gap bound 0.125",
        "P1 I: [0.25 (= 1/4), 0.25 (= 1/4), 0.5 (= 1/2)]",
        "True",
    ]


def test_pure_search_past_its_budget_loads_the_polish():
    # This game's search takes a second pass, so a budget of one step
    # returns None and optimal play imports the solvers' polish.
    proc = fresh_python(
        "import json, sys\n"
        "from irgames import optimal_strategy, recall\n"
        "from irgames.generators import gen_random\n"
        "recall._SEARCH_BUDGET = 1\n"
        "make = lambda: gen_random(4, 2, 0.6, 0.3, False, 1)\n"
        "before = 'irgames.solvers' in sys.modules\n"
        "report = optimal_strategy(make())\n"
        "from irgames import solvers\n"
        "want = solvers._numeric_opt(make(), solvers.DEFAULT_CONFIG)\n"
        "print(json.dumps([before, report == want, report.certified, report.notes]))\n")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        False, True, "heuristic", ["search_budget=1 own-history steps exceeded"]]


def test_dir_lists_the_same_public_names():
    proc = fresh_python("import json, irgames; print(json.dumps(dir(irgames)))")
    assert proc.returncode == 0, proc.stderr
    assert [n for n in json.loads(proc.stdout) if not n.startswith("_")] == PUBLIC_NAMES


def test_solver_names_resolve_from_the_package():
    from irgames import SolverConfig, optimal_strategy

    assert SolverConfig is solvers.SolverConfig is irgames.config.SolverConfig
    assert optimal_strategy is solvers.optimal_strategy
    assert irgames.SolverConfig is SolverConfig
    assert set(irgames.__all__) <= set(PUBLIC_NAMES)
    with pytest.raises(AttributeError):
        irgames.no_such_name
