"""File round-trips, DOT export, and the command-line surface."""

import json
import os
import subprocess
import sys
import time
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

import irgames

from conftest import single

from irgames import solvers
from irgames.cli import _config_from, build_parser, cli_main, fmt
from irgames.dot import export_dot
from irgames.fileio import (
    GameParseError,
    dumps,
    game_from_jsonable,
    game_to_jsonable,
    loads,
    profile_from_jsonable,
    profile_to_jsonable,
    read_game,
    write_game,
    write_profile,
)
from irgames.game import validate_game
from irgames.generators import gen_fig1, gen_fig2, gen_lenny, gen_random
from irgames.partial import enumerate_k_refinements
from irgames.recall import same_tree
from irgames.solvers import SolverConfig
from irgames.strategies import profile_from, pure_strategy, uniform_profile


def test_game_round_trip(tmp_path):
    g = gen_fig2()
    path = tmp_path / "fig2.json"
    write_game(g, str(path))
    back = read_game(str(path))
    assert same_tree(g, back)
    assert back.infosets == g.infosets
    assert back.is_rational


def test_round_trip_preserves_rationals_exactly(tmp_path):
    g = gen_fig1(Fraction(1, 3))
    path = tmp_path / "g.json"
    write_game(g, str(path))
    back = read_game(str(path))
    assert back.utilities["zw"] == (0, Fraction(1, 3))


def test_write_is_deterministic(tmp_path):
    g = gen_random(4, 2, 0.6, 0.3, True, 5)
    a = dumps(game_to_jsonable(g))
    b = dumps(game_to_jsonable(read_game_str(a)))
    assert a == b


def test_game_writer_is_fast_on_a_deep_chain():
    # 8,001 nodes: a set of the ordered ids rebuilt per node made the
    # writer quadratic (seconds); with one set it takes milliseconds.
    g = gen_lenny(4000)
    start = time.perf_counter()
    game_to_jsonable(g)
    assert time.perf_counter() - start < 0.5


def read_game_str(text: str):
    return game_from_jsonable(loads(text))


def test_malformed_probability_is_a_parse_error():
    doc = game_to_jsonable(gen_fig2())
    doc["nodes"][0]["chance_probs"] = ["1/0", "1/2"]
    with pytest.raises(GameParseError, match="1/0"):
        game_from_jsonable(doc)


def test_json_syntax_error_reports_position():
    with pytest.raises(GameParseError, match="line"):
        loads("{ not json")


def test_dangling_child_surfaces_in_validation():
    doc = game_to_jsonable(gen_fig2())
    doc["nodes"][1]["children"] = ["b", "missing"]
    g = game_from_jsonable(doc)
    assert any("missing" in p for p in validate_game(g))


def test_profile_round_trip():
    prof = single({"I": (Fraction(1, 3), Fraction(2, 3))})
    back = profile_from_jsonable(profile_to_jsonable(prof))
    assert back[1].row("I") == (Fraction(1, 3), Fraction(2, 3))


def test_export_dot_styles_fig2():
    text = export_dot(gen_fig2())
    assert text.count("shape=box") == 1
    assert text.count("style=dashed") == 2  # chain over the 3-node infoset
    assert export_dot(gen_fig2()) == text   # byte-deterministic
    # strategy annotation adds probabilities on player edges
    annotated = export_dot(gen_fig2(), single({"I": (0.25, 0.75)}))
    assert "L (0.25)" in annotated
    assert "(0.25)" not in text


def test_fmt_shows_exact_rationals():
    assert fmt(Fraction(2, 3)) == "0.666666666667 (= 2/3)"
    assert fmt(Fraction(4, 2)) == "2"
    assert fmt(0.5) == "0.5"


# -- CLI ----------------------------------------------------------------------


def run(args):
    return cli_main(args)


def test_cli_validate_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    write_game(gen_fig2(), str(good))
    assert run(["validate", str(good)]) == 0
    doc = game_to_jsonable(gen_fig2())
    doc["nodes"][0]["chance_probs"] = ["1/2", "3/5"]
    bad = tmp_path / "bad.json"
    bad.write_text(dumps(doc))
    assert run(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "sums to" in out


def test_cli_gen_solve_vor(tmp_path, capsys):
    game = tmp_path / "fig1.json"
    assert run(["gen", "fig1", "--eps", "1/100", "--out", str(game)]) == 0
    assert run(["solve", str(game), "--concept", "cdt", "--worst"]) == 0
    out = capsys.readouterr().out
    assert "u1: 2" in out
    fig2 = tmp_path / "fig2.json"
    run(["gen", "fig2", "--out", str(fig2)])
    assert run(["vor", str(fig2), "--concept", "opt"]) == 0
    out = capsys.readouterr().out
    assert "2.25 (= 9/4)" in out


def test_cli_vor_prints_bounds_as_na_off_opt(tmp_path, capsys):
    game = tmp_path / "valid.json"
    assert run(["gen", "valid-utility", "--out", str(game)]) == 0
    assert run(["vor", str(game), "--concept", "wEDT"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("bound ")]
    assert len(lines) == 6 and all(line.endswith(" (n/a)") for line in lines)


def test_cli_refine_round_trips(tmp_path):
    src = tmp_path / "fig2.json"
    dst = tmp_path / "pr.json"
    run(["gen", "fig2", "--out", str(src)])
    assert run(["refine", str(src), "--player", "1", "--out", str(dst)]) == 0
    refined = read_game(str(dst))
    assert len(refined.infosets[1]) == 2


def test_cli_partial_best(tmp_path, capsys):
    game = tmp_path / "x3c.json"
    out = tmp_path / "best.json"
    run(["gen", "x3c", "--universe", "6", "--family", "1,2,3;4,5,6",
         "--out", str(game)])
    assert run(["partial-best", str(game), "--k", "1", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "best: 1" in stdout
    assert validate_game(read_game(str(out))) == []


@pytest.mark.parametrize("flags, message", [
    (["--k", "-1"], "argument --k: need an integer >= 0, got '-1'"),
    (["--k", "1", "--table-cap", "-3"], "argument --table-cap: need an integer >= 0, got '-3'"),
], ids=["k", "table-cap"])
def test_cli_partial_best_negative_flags_are_usage_errors(tmp_path, capsys, flags, message):
    # A negative --k once exited 1, a negative --table-cap printed a row.
    game = tmp_path / "fig2.json"
    write_game(gen_fig2(), str(game))
    assert run(["partial-best", str(game), *flags]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_cli_partial_best_table_cap_zero_prints_no_candidate(tmp_path, capsys):
    game = tmp_path / "x3c.json"
    run(["gen", "x3c", "--universe", "6", "--family", "1,2,3;4,5,6",
         "--out", str(game)])
    capsys.readouterr()
    n = len(enumerate_k_refinements(read_game(str(game)), 1, 1))
    assert run(["partial-best", str(game), "--k", "1", "--table-cap", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"... ({n} more)", "best: 1"]


def test_cli_partial_best_solves_each_candidate_once(tmp_path, monkeypatch, capsys):
    # The listing once solved every printed candidate a second time.
    game = tmp_path / "lenny6.json"
    write_game(gen_lenny(6), str(game))
    calls = []
    solve = solvers._solve_opt
    monkeypatch.setattr(solvers, "_solve_opt", lambda g, cfg: calls.append(g) or solve(g, cfg))
    # The count does not depend on the solver flags; these keep it fast.
    assert run(["partial-best", str(game), "--k", "1",
                "--grid-resolution", "2", "--multistart", "0"]) == 0
    assert len(calls) == len(enumerate_k_refinements(gen_lenny(6), 1, 1)) == 32


def test_cli_smooth_check(tmp_path, capsys):
    game = tmp_path / "vu.json"
    strat_path = tmp_path / "pistar.json"
    run(["gen", "valid-utility", "--out", str(game)])
    g = read_game(str(game))
    write_profile(
        profile_from(pure_strategy(g, 1, {"IS0": 0, "IS1": 1})), str(strat_path)
    )
    assert run(["smooth-check", str(game), "--lambda", "1", "--mu", "1",
                "--pistar", str(strat_path), "--multistart", "4"]) == 0
    out = capsys.readouterr().out
    assert "verdict:" in out


@pytest.mark.parametrize("flags, message", [
    (["--lambda", "nan", "--mu", "1"], "argument --lambda: need a finite number > 0, got 'nan'"),
    (["--lambda", "0", "--mu", "1"], "argument --lambda: need a finite number > 0, got '0'"),
    (["--lambda", "1", "--mu", "nan"], "argument --mu: need a finite number >= 0, got 'nan'"),
    (["--lambda", "1", "--mu", "inf"], "argument --mu: need a finite number >= 0, got 'inf'"),
], ids=["lambda-nan", "lambda-zero", "mu-nan", "mu-inf"])
def test_cli_smooth_check_bad_parameters_are_usage_errors(tmp_path, capsys, flags, message):
    # --lambda nan once printed "verdict: pure-verified" with a NaN margin.
    game = tmp_path / "fig2.json"
    strat_path = tmp_path / "pistar.json"
    write_game(gen_fig2(), str(game))
    write_profile(profile_from(pure_strategy(gen_fig2(), 1, {"I": 0})), str(strat_path))
    assert run(["smooth-check", str(game), *flags, "--pistar", str(strat_path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_cli_coeffs_and_bounds(tmp_path, capsys):
    lenny = tmp_path / "lenny.json"
    run(["gen", "lenny", "--n", "4", "--out", str(lenny)])
    assert run(["coeffs", str(lenny)]) == 0
    assert run(["bounds", str(lenny)]) == 0
    out = capsys.readouterr().out
    assert "am zstar bound: 16" in out


def test_cli_export_dot(tmp_path, capsys):
    game = tmp_path / "fig2.json"
    run(["gen", "fig2", "--out", str(game)])
    assert run(["export-dot", str(game)]) == 0
    assert "digraph" in capsys.readouterr().out


def test_cli_error_codes(tmp_path, capsys):
    assert run(["nonsense"]) == 2
    assert run(["validate", str(tmp_path / "absent.json")]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert run(["validate", str(broken)]) == 2
    # domain error: nonexistent equilibrium resolution is not triggered here,
    # but multi-player optimal is a domain error
    fig1 = tmp_path / "fig1.json"
    run(["gen", "fig1", "--out", str(fig1)])
    assert run(["solve", str(fig1), "--concept", "opt"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("make, command, message", [
    (lambda: gen_fig1(Fraction(1, 100)), ["vor", "--concept", "opt"],
     "optimal_strategy expects a single-player game; use fix_opponents first"),
    (lambda: gen_lenny(16), ["partial-best", "--k", "1"],
     "more than 20000 candidate refinements; lower k"),
    (lambda: gen_fig1(Fraction(1, 100)), ["smooth-check", "--lambda", "1", "--mu", "1",
                                          "--pistar"],
     "smoothness_check expects a single-player game"),
], ids=["vor", "partial-best", "smooth-check"])
def test_cli_solver_errors_exit_1(tmp_path, capsys, make, command, message):
    # Solver and cap errors reach the one handler in cli_main.
    game = tmp_path / "game.json"
    write_game(make(), str(game))
    if command[-1] == "--pistar":
        pistar = tmp_path / "pistar.json"
        write_profile(uniform_profile(read_game(str(game))), str(pistar))
        command = [*command, str(pistar)]
    assert run([command[0], str(game), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("command", [
    ["solve", "--concept", "opt"], ["vor", "--concept", "opt"], ["coeffs"],
])
def test_cli_rejects_invalid_game_with_exit_1(tmp_path, capsys, command):
    doc = game_to_jsonable(gen_fig2())
    doc["nodes"][1]["children"][-1] = "ghost"
    bad = tmp_path / "bad.json"
    bad.write_text(dumps(doc))
    assert run([command[0], str(bad), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid game") and "'ghost'" in err


@pytest.mark.parametrize("command", [["validate"], ["solve", "--concept", "opt"]])
def test_cli_rejects_infosets_of_absent_players_with_exit_1(tmp_path, capsys, command):
    # validate once printed "ok" here, and solve ended in a KeyError.
    doc = game_to_jsonable(gen_fig2())
    doc["infosets"].append({**doc["infosets"][0], "id": "G", "player": 2})
    bad = tmp_path / "ghost.json"
    bad.write_text(dumps(doc))
    assert run([command[0], str(bad), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert "infoset 'G': player 2 out of range" in captured.out + captured.err
    assert "Traceback" not in captured.err


def _node_field(doc: dict, nid: str, key: str, value) -> dict:
    nodes = [{**n, key: value} if n["id"] == nid else n for n in doc["nodes"]]
    return {**doc, "nodes": nodes}


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("command", [
    ["validate"], ["solve", "--concept", "opt"], ["vor", "--concept", "opt"],
])
def test_cli_rejects_non_finite_numbers_with_exit_1(tmp_path, capsys, command, literal):
    doc = _node_field(game_to_jsonable(gen_fig2()), "c0", "chance_probs", ["BAD", "1/2"])
    doc = _node_field(doc, "za", "utils", ["BAD"])
    bad = tmp_path / "bad.json"
    bad.write_text(dumps(doc).replace('"BAD"', literal))
    assert run([command[0], str(bad), *command[1:]]) == 1
    captured = capsys.readouterr()
    text = captured.out + captured.err
    assert "chance node 'c0': probability" in text and "terminal 'za': utility" in text
    assert "is not finite" in text and "Traceback" not in captured.err


MALFORMED = {
    "node-not-an-object": (lambda d: {**d, "nodes": [5]}, "node entry 5 is not an object"),
    "nodes-not-a-list": (lambda d: {**d, "nodes": 5}, "'nodes' must be a list"),
    "utils-not-a-list": (lambda d: _node_field(d, "za", "utils", 1),
                         "'utils' at node 'za' must be a list"),
    "root-not-a-string": (lambda d: {**d, "root": [d["root"]]}, "'root' must be a string"),
    "players-not-an-integer": (lambda d: {**d, "players": "x"},
                               "'players' must be an integer"),
    "actions-a-string": (lambda d: _node_field(d, "a", "actions", "LR"),
                         "'actions' at node 'a' must be a list of strings"),
    "infoset-twice": (lambda d: {**d, "infosets": d["infosets"] * 2},
                      "infoset id 'I' of player 1 appears twice"),
    "node-twice": (lambda d: {**d, "nodes": d["nodes"] + d["nodes"][-1:]},
                   "node id 'zw1' appears twice"),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_cli_malformed_documents_are_parse_errors(tmp_path, capsys, name):
    edit, message = MALFORMED[name]
    bad = tmp_path / "bad.json"
    bad.write_text(dumps(edit(game_to_jsonable(gen_fig2()))))
    assert run(["validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_solver_config_holds_exactly_the_cli_flags():
    args = build_parser().parse_args([
        "solve", "g.json", "--concept", "edt", "--grid-resolution", "3",
        "--multistart", "5", "--eps-eq", "0.5", "--seed", "9"])
    cfg = _config_from(args)
    assert {f.name: getattr(cfg, f.name) for f in fields(SolverConfig)} == {
        "grid_resolution": 3, "multistart": 5, "eps_eq": 0.5, "seed": 9}


def test_cli_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["gen", "random", "--depth", "4", "--seed", "9", "--out", str(a)])
    run(["gen", "random", "--depth", "4", "--seed", "9", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_cli_env_seed_override(tmp_path, monkeypatch):
    monkeypatch.setenv("IRGAMES_SEED", "123")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["gen", "random", "--depth", "4", "--out", str(a)])
    run(["gen", "random", "--depth", "4", "--seed", "123", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_cli_bad_env_seed_is_a_usage_error(tmp_path):
    game = tmp_path / "fig2.json"
    write_game(gen_fig2(), str(game))
    env = dict(os.environ, IRGAMES_SEED="abc",
               PYTHONPATH=str(Path(irgames.__file__).resolve().parent.parent))

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "irgames.cli", *args],
                              capture_output=True, text=True, env=env, timeout=120)

    solve = cli("solve", str(game), "--concept", "opt")
    assert solve.returncode == 2
    assert "invalid int value: 'abc'" in solve.stderr
    assert "Traceback" not in solve.stderr
    # validate takes no --seed, so the variable does not concern it.
    validate = cli("validate", str(game))
    assert (validate.returncode, validate.stdout, validate.stderr) == (0, "ok\n", "")


@pytest.mark.parametrize("flags, env, message", [
    (["--grid-resolution", "0"], None, "argument --grid-resolution: need an integer >= 1, got '0'"),
    (["--multistart", "-1"], None, "argument --multistart: need an integer >= 0, got '-1'"),
    (["--eps-eq", "-1"], None, "argument --eps-eq: need a finite number >= 0, got '-1'"),
    (["--eps-eq", "nan"], None, "argument --eps-eq: need a finite number >= 0, got 'nan'"),
    (["--seed", "-5"], None, "argument --seed: need an integer >= 0, got '-5'"),
    ([], "-1", "argument --seed: need an integer >= 0, got '-1'"),
], ids=["grid-resolution", "multistart", "eps-eq", "eps-eq-nan", "seed", "env-seed"])
def test_cli_bad_solver_flags_are_usage_errors(tmp_path, capsys, monkeypatch, flags, env, message):
    # Each once ended in a traceback, a numpy error (exit 1) or, for nan,
    # a solve reported as passed.
    game = tmp_path / "fig2.json"
    write_game(gen_fig2(), str(game))
    if env is not None:
        monkeypatch.setenv("IRGAMES_SEED", env)
    assert run(["solve", str(game), "--concept", "edt", *flags]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_closed_stdout_exits_1_without_a_traceback(tmp_path):
    game = tmp_path / "lenny300.json"
    write_game(gen_lenny(300), str(game))  # about 200 kB of coefficients
    env = dict(os.environ, PYTHONPATH=str(Path(irgames.__file__).resolve().parent.parent))
    proc = subprocess.Popen([sys.executable, "-m", "irgames.cli", "coeffs", str(game)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"am ")
    proc.stdout.close()  # as `| head -1` does
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_cli_help_shows_the_solver_config_defaults(capsys):
    defaults = SolverConfig()
    assert (defaults.grid_resolution, defaults.multistart, defaults.eps_eq) == (64, 32, 1e-06)
    assert run(["solve", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    assert "GRID_RESOLUTION mixed-seed grid resolution (delta = 1/this) (default: 64)" in out
    assert "MULTISTART random restarts for local search (default: 32)" in out
    assert "EPS_EQ equilibrium residual tolerance (default: 1e-06)" in out


@pytest.mark.parametrize("problem", ["unknown infoset", "row sums to 2", "NaN entry"])
@pytest.mark.parametrize("command", [
    ["smooth-check", "--lambda", "1", "--mu", "1", "--pistar"],
    ["export-dot", "--strategy"],
])
def test_cli_rejects_invalid_strategy_with_exit_1(tmp_path, capsys, command, problem):
    # A NaN entry passes both the sign and the sum test of a row;
    # smooth-check once printed "verdict: pure-verified" for it.
    game = tmp_path / "fig2.json"
    write_game(gen_fig2(), str(game))
    doc = [{"player": 1, "entries": [{"infoset": "I", "probs": ["1/2", "1/2"]}]}]
    if problem == "unknown infoset":
        doc[0]["entries"][0]["infoset"] = "ghost"
    elif problem == "row sums to 2":
        doc[0]["entries"][0]["probs"] = ["1", "1"]
    else:
        doc[0]["entries"][0]["probs"] = [float("nan"), 1]
    bad = tmp_path / "bad_strategy.json"
    bad.write_text(json.dumps(doc))
    assert run([command[0], str(game), *command[1:], str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid strategy")
    assert {"unknown infoset": "missing row for 'I'", "row sums to 2": "sums to 2",
            "NaN entry": "probability nan at 'I' is not finite"}[problem] in err


@pytest.mark.parametrize("command", [
    ["smooth-check", "--lambda", "1", "--mu", "1", "--pistar"],
    ["export-dot", "--strategy"],
])
def test_cli_rejects_strategy_row_for_unknown_infoset(tmp_path, capsys, command):
    game = tmp_path / "fig2.json"
    write_game(gen_fig2(), str(game))
    doc = [{"player": 1, "entries": [
        {"infoset": "I", "probs": ["1/2", "1/2"]},
        {"infoset": "ghost", "probs": ["1", "0"]},
    ]}]
    bad = tmp_path / "extra_row.json"
    bad.write_text(json.dumps(doc))
    assert run([command[0], str(game), *command[1:], str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid strategy")
    assert "row for unknown infoset 'ghost'" in err


def _strategy(player=1, entries=({"infoset": "I", "probs": ["1/2", "1/2"]},)) -> list:
    return [{"player": player, "entries": list(entries)}]


MALFORMED_STRATEGIES = {
    "probs-a-string": (_strategy(entries=[{"infoset": "I", "probs": "10"}]),
                       "'probs' at infoset 'I' must be a list"),
    "row-twice": (_strategy(entries=[{"infoset": "I", "probs": [1, 0]},
                                     {"infoset": "I", "probs": [0, 1]}]),
                  "infoset 'I' of player 1 has two rows"),
    "player-a-boolean": (_strategy(player=True), "'player' must be an integer, got True"),
    "player-a-string": (_strategy(player="x"), "'player' must be an integer, got 'x'"),
}


@pytest.mark.parametrize("name", MALFORMED_STRATEGIES)
def test_cli_malformed_strategy_documents_are_parse_errors(tmp_path, capsys, name):
    doc, message = MALFORMED_STRATEGIES[name]
    game = tmp_path / "fig2.json"
    write_game(gen_fig2(), str(game))
    bad = tmp_path / "bad_strategy.json"
    bad.write_text(json.dumps(doc))
    assert run(["smooth-check", str(game), "--lambda", "1", "--mu", "0",
                "--pistar", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
