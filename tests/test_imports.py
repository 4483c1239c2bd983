"""The package's import graph: which commands load numpy and the solvers,
and the names ``import irgames`` offers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import irgames
from irgames import solvers
from irgames.fileio import write_game
from irgames.generators import gen_dory, gen_fig2

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


# dory3 has chance nodes and no absentmindedness, so its chance bound reads
# the refinement's exact optimum.
@pytest.mark.parametrize("command, make", [
    pytest.param(command, make, id=command + suffix)
    for make, suffix in ((gen_fig2, ""), (lambda: gen_dory(3), "-dory3"))
    for command in ("validate", "refine", "coeffs", "bounds")
])
def test_exact_commands_load_neither_numpy_nor_the_solvers(tmp_path, command, make):
    game = tmp_path / "game.json"
    write_game(make(), str(game))
    code = (
        "import contextlib, io, json, sys\n"
        "import irgames\n"
        "from irgames.cli import cli_main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli_main([{command!r}, {str(game)!r}])\n"
        "loaded = [m for m in ('numpy', 'irgames.solvers') if m in sys.modules]\n"
        "print(json.dumps([code, loaded]))\n"
    )
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]


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
