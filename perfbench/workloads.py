"""The three workloads: inputs, task lists and the checks on every answer.

A workload builds fresh inputs for each pass (so lazily cached game views
are paid on every pass, as a user solving a new game pays them) and turns
them into a list of tasks.  Each task is one call into the public
``irgames`` API or one CLI process; its check returns the problems it
found in the answer, and every problem counts as one wrong answer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import irgames
from irgames import fileio, generators, numeric, recall, solvers, strategies, vor
from irgames.solvers import SolverConfig

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TOL = 1e-6       # closed forms, and float CLI answers against exact ones
EXACT_TOL = 1e-9  # exact scalar paths against the batched float kernels
# Non-OPT values of recall come from equilibria accepted at residual
# SolverConfig.eps_eq = 1e-6, and the solver seed moves their utilities by
# about that much (lenny6 wNASH's 1/64 by 3e-7 at seed 43, which moves the
# ratio 64 by 2e-5 of itself), so the check compares the two utilities.
UTILITY_TOL = 10 * SolverConfig().eps_eq


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def close(a: float, b: float, tol: float) -> bool:
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


# ---------------------------------------------------------------------------
# paper-vor: vor_compute for every concept on the paper's example games
# ---------------------------------------------------------------------------

PAPER_GAMES: dict[str, Callable[[], irgames.Game]] = {
    "fig1": lambda: generators.gen_fig1(Fraction(1, 100)),
    "fig2": generators.gen_fig2,
    "fig3": lambda: generators.gen_fig3(Fraction(1, 10)),
    "fig5": generators.gen_fig5,
    "lenny6": lambda: generators.gen_lenny(6),
    "dory2": lambda: generators.gen_dory(2),
    "valid": generators.default_valid_utility,
}

# OPT value of recall in closed form (the paper's worked examples).
OPT_CLOSED_FORM = {
    "fig2": Fraction(9, 4), "lenny6": Fraction(2 ** 6), "dory2": Fraction(2),
    "fig3": Fraction(1), "fig5": Fraction(1), "valid": Fraction(1),
}

# Every other value of recall, with its two utilities, as recorded (solver
# seed 0) when the benchmark was introduced; see record_expected.py.
EXPECTED_PATH = HERE / "paper_vor_expected.json"


def _vor_summary(report) -> dict:
    return {"kind": report.ratio_kind, "ratio": report.ratio,
            "numerator": float(report.numerator),
            "denominator": float(report.denominator)}


def _bound_problems(report) -> list[str]:
    # Only OPT rows: the structural bounds are theorems about optimal play,
    # and vor_compute flags them VIOLATED for worst-equilibrium concepts.
    return [
        f"OPT ratio {report.ratio} violates bound {name}={report.bounds[name]}"
        for name, ok in report.bounds_satisfied.items() if ok is False
    ]


class PaperVor:
    name = "paper-vor"

    def __init__(self, seed: int):
        self.cfg = SolverConfig(seed=seed)
        self.expected = json.loads(EXPECTED_PATH.read_text())

    def setup(self) -> dict:
        return {name: make() for name, make in PAPER_GAMES.items()}

    def tasks(self, games: dict) -> list[Task]:
        # Concept-major order spreads each game's slow concepts over the
        # pass, so no single stretch of host time decides the tail.
        out = []
        for concept in vor.VOR_CONCEPTS:
            for name, game in games.items():
                if concept == "OPT" and game.players != 1:
                    continue
                out.append(Task(
                    f"{name}/{concept}",
                    lambda g=game, c=concept: vor.vor_compute(g, c, self.cfg),
                    lambda r, key=f"{name}/{concept}": self._check(key, r),
                ))
        return out

    def _check(self, key: str, report) -> list[str]:
        game, concept = key.split("/")
        if concept == "OPT":
            problems = _bound_problems(report)
            want = OPT_CLOSED_FORM[game]
            if report.ratio is None or not close(report.ratio, want, TOL):
                problems.append(f"{key}: VoR {report.ratio}, closed form {want}")
            return problems
        got, want = _vor_summary(report), self.expected[key]
        if got["kind"] != want["kind"] or any(
            abs(got[k] - want[k]) > UTILITY_TOL for k in ("numerator", "denominator")
        ):
            return [f"{key}: VoR {got}, recorded {want}"]
        return []


# ---------------------------------------------------------------------------
# random-exact: exact scalar checks and OPT on large or deep trees
# ---------------------------------------------------------------------------

# The random games are the seed-1 games the ROADMAP measured, whatever
# --seed is; --seed goes to SolverConfig.seed.  Across gen_random seeds one
# shape ranges from 4 to over 1000 nodes, and OPT on some absentminded seeds
# runs for minutes (a reference row), so per-seed games would measure the
# seed rather than the code.
GAME_SEED = 1
RANDOM_SHAPES = {
    # name: (depth, branching, merge_rate, chance_rate, absentminded, players)
    "r7": (7, 3, 0.6, 0.2, False, 1),
    "am6": (6, 3, 0.6, 0.2, True, 1),
    "p2": (6, 3, 0.5, 0.2, False, 2),
}


def random_games() -> dict[str, irgames.Game]:
    games = {
        name: generators.gen_random(depth, branching, merge, chance, am,
                                    seed=GAME_SEED, players=players)
        for name, (depth, branching, merge, chance, am, players) in RANDOM_SHAPES.items()
    }
    games["lenny200"] = generators.gen_lenny(200)
    return games


class RandomExact:
    name = "random-exact"

    def __init__(self, seed: int):
        self.cfg = SolverConfig(seed=seed)

    def setup(self) -> dict:
        return random_games()

    def tasks(self, games: dict) -> list[Task]:
        cfg = self.cfg
        # (operation, players it applies to or None for all, call, check);
        # operation-major order, as in paper-vor.
        operations = (
            ("validate", None, lambda g, p: irgames.validate_game(g),
             lambda ref, r: [f"invalid game: {r}"] if r else []),
            ("refine", None, lambda g, p: recall.perfect_recall_refinement(g, 1),
             lambda ref, r: _check_refinement(ref.game, r[0])),
            ("coeffs", None, lambda g, p: vor.coefficient_table(g),
             lambda ref, r: _check_coefficients(ref.game, r)),
            ("compile", None, lambda g, p: numeric.NumericGame(g),
             lambda ref, r: _check_compiled(ref.game, r)),
            ("expected_utility", None, lambda g, p: strategies.expected_utility(g, p, 1),
             lambda ref, r: ref.same("expected_utility", r, ref.utility())),
            ("edt_check", None, lambda g, p: solvers.edt_check(g, p, cfg=cfg),
             lambda ref, r: ref.check_edt(r[1])),
            ("kkt_check", None,
             lambda g, p: max(solvers.kkt_check(g, p, i, cfg=cfg)[1]
                              for i in range(1, g.players + 1)),
             lambda ref, r: ref.same("kkt_check", r, ref.kkt())),
            ("nash_check", 2, lambda g, p: solvers.nash_check(g, p, cfg),
             lambda ref, r: ref.check_nash(r[1])),
            ("optimal_strategy", 1, lambda g, p: solvers.optimal_strategy(g, cfg),
             lambda ref, r: ref.check_opt(r)),
            ("vor_opt", 1, lambda g, p: vor.vor_compute(g, "OPT", cfg),
             lambda ref, r: _check_vor_opt(r)),
        )
        refs = {name: _Reference(game) for name, game in games.items()}
        profiles = {name: strategies.uniform_profile(game) for name, game in games.items()}
        return [
            Task(f"{name}/{op}",
                 lambda call=call, g=game, p=profiles[name]: call(g, p),
                 lambda r, check=check, ref=refs[name]: check(ref, r))
            for op, players, call, check in operations
            for name, game in games.items()
            if players in (None, game.players)
        ]


class _Reference:
    """Batched float answers for one game, computed on first use."""

    def __init__(self, game: irgames.Game):
        self.game = game

    @cached_property
    def num(self) -> numeric.NumericGame:
        return numeric.NumericGame(self.game)

    @cached_property
    def x(self) -> np.ndarray:
        """The uniform profile as a batch of one."""
        return self.num.index.uniform()[None, :]

    def utility(self) -> float:
        return float(self.num.utility(self.x, 1)[0])

    def kkt(self) -> float:
        return float(self.num.kkt_residuals(self.x)[0])

    def same(self, what: str, got, want: float) -> list[str]:
        if close(got, want, EXACT_TOL):
            return []
        return [f"{self.game.name} {what}: exact {float(got)!r}, batched {want!r}"]

    def check_edt(self, residual: float) -> list[str]:
        pure = float(self.num.edt_pure_residuals(self.x)[0])
        if residual < pure - EXACT_TOL:
            return [f"{self.game.name} edt_check {residual} below pure {pure}"]
        absentminded = any(
            irgames.has_absentmindedness(self.game, p)
            for p in range(1, self.game.players + 1)
        )
        return [] if absentminded else self.same("edt_check", residual, pure)

    def check_nash(self, residual: float) -> list[str]:
        # A Nash deviation may change every infoset, so it gains at least
        # as much as the best single-infoset pure deviation.
        pure = float(self.num.edt_pure_residuals(self.x)[0])
        if residual < pure - EXACT_TOL:
            return [f"{self.game.name} nash residual {residual} below {pure}"]
        return []

    def check_opt(self, report) -> list[str]:
        x = self.num.index.vector(report.profile)[None, :]
        problems = self.same("optimal_strategy", report.utilities[0],
                             float(self.num.utility(x, 1)[0]))
        if float(report.utilities[0]) < self.utility() - EXACT_TOL:
            problems.append(f"{self.game.name} OPT below the uniform profile")
        return problems


def _check_refinement(game: irgames.Game, refined: irgames.Game) -> list[str]:
    if not recall.has_perfect_recall(refined, 1):
        return [f"{game.name}: refinement lacks perfect recall"]
    if not recall.check_coarsest(game, 1, refined):
        return [f"{game.name}: refinement is not the coarsest"]
    return []


def _check_coefficients(game: irgames.Game, table) -> list[str]:
    problems = []
    absentminded = irgames.has_absentmindedness(game, 1)
    for z in game.terminals:
        if not (0 < table.chance[z] <= 1 and 0 < table.am[z] <= 1):
            problems.append(f"{game.name} leaf {z}: coefficient out of (0, 1]")
        if not absentminded and table.am[z] != 1:
            problems.append(f"{game.name} leaf {z}: am coefficient without "
                            "absentmindedness")
    if set(table.branching) != set(irgames.chance_nodes(game)):
        problems.append(f"{game.name}: branching factors miss chance nodes")
    return problems


def _check_compiled(game: irgames.Game, num) -> list[str]:
    dim = sum(len(i.actions) for per in game.infosets.values() for i in per.values())
    if num.n_leaves != len(game.terminals) or num.index.dim != dim:
        return [f"{game.name}: compiled sizes {num.n_leaves}/{num.index.dim}"]
    return []


def _check_vor_opt(report) -> list[str]:
    # The refinement has perfect recall, so its OPT is exact; the original
    # game's OPT is attained by a real profile and cannot exceed it.
    problems = _bound_problems(report)
    if report.ratio_kind != "finite" or report.ratio < 1 - EXACT_TOL:
        problems.append(f"OPT VoR {report.ratio} ({report.ratio_kind}) below 1")
    return problems


# ---------------------------------------------------------------------------
# cli-float: one `python -m irgames.cli` process per command on float files
# ---------------------------------------------------------------------------


class CliFailed(RuntimeError):
    """A CLI process exited with a non-zero code."""


def float_document(game: irgames.Game) -> dict:
    """The game's JSON document with every number written as a float."""
    doc = fileio.game_to_jsonable(game)
    for node in doc["nodes"]:
        for key in ("chance_probs", "utils"):
            if key in node:
                node[key] = [float(Fraction(v)) for v in node[key]]
    return doc


CLI_GAMES = ("r7", "am6", "p2", "lenny200", "fig2", "dory3")
# (command, extra flags, games); solve and vor take --seed as well.
CLI_COMMANDS = (
    ("validate", (), CLI_GAMES),
    ("refine", (), CLI_GAMES),
    ("coeffs", (), ("r7", "lenny200", "fig2", "dory3")),
    ("bounds", (), ("r7", "fig2", "dory3")),
    ("solve", ("--concept", "opt"), ("r7", "fig2", "dory3")),
    ("solve", ("--concept", "edt"), ("fig2", "dory3")),
    ("solve", ("--concept", "cdt"), ("fig2", "dory3")),
    ("solve", ("--concept", "nash"), ("fig2", "dory3")),
    ("vor", ("--concept", "opt"), ("r7", "fig2", "dory3")),
    ("vor", ("--concept", "bedt"), ("fig2", "dory3")),
    ("vor", ("--concept", "wcdt"), ("fig2", "dory3")),
)


def _values(stdout: str) -> dict[str, str]:
    """'key: value' report lines -> {key: first token of value}."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and value:
            out[key] = value.split()[0]
    return out


class CliFloat:
    name = "cli-float"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cfg = SolverConfig(seed=seed)
        self.workdir = workdir
        # While a tracer is set and enabled, each CLI process runs under
        # cli_child.py and its layer stats are appended to child_stats.
        self.tracer = None
        self.child_stats: list[dict] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        games = self.exact_games()
        self.expected = {
            (command, flags, name): self._exact(command, flags, games[name])
            for command, flags, names in CLI_COMMANDS for name in names
        }

    def exact_games(self) -> dict[str, irgames.Game]:
        games = random_games()
        games["fig2"] = generators.gen_fig2()
        games["dory3"] = generators.gen_dory(3)
        return {name: games[name] for name in CLI_GAMES}

    def setup(self) -> dict[str, Path]:
        self.workdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, game in self.exact_games().items():
            path = self.workdir / f"{name}.json"
            path.write_text(fileio.dumps(float_document(game)))
            paths[name] = path
        return paths

    def tasks(self, paths: dict[str, Path]) -> list[Task]:
        out = []
        for command, flags, names in CLI_COMMANDS:
            for name in names:
                argv = [command, str(paths[name]), *flags]
                if command in ("solve", "vor", "bounds"):
                    argv += ["--seed", str(self.seed)]
                key = (command, flags, name)
                out.append(Task(
                    f"{name}/{command}{''.join(' ' + f for f in flags[1:])}",
                    lambda argv=argv: self._call(argv),
                    lambda stdout, key=key: self._check(key, stdout),
                ))
        return out

    def _call(self, argv: list[str]) -> str:
        traced = self.tracer is not None and self.tracer.enabled
        if traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "irgames.cli", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              timeout=120)
        if traced:
            marker, _, stats = proc.stderr.rstrip().rpartition("\n")[2].partition(" ")
            if marker == "PERFBENCH_LAYERS":
                self.child_stats.append(json.loads(stats))
        if proc.returncode != 0:
            raise CliFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    # -- checks against exact in-process answers ---------------------------

    def _exact(self, command: str, flags: tuple, game: irgames.Game) -> object:
        """The exact in-process answer to one command on the exact game."""
        if command == "validate":
            return irgames.validate_game(game)
        if command == "refine":
            return _partition(recall.perfect_recall_refinement(game, 1)[0])
        if command == "coeffs":
            return vor.coefficient_table(game)
        if command == "bounds":
            return _bounds(game, self.cfg)
        if command == "solve":
            concept = flags[1].upper()
            report = (solvers.optimal_strategy(game, self.cfg) if concept == "OPT"
                      else solvers.best_worst(game, concept, "best", self.cfg))
            return [float(u) for u in report.utilities]
        concept = {c.lower(): c for c in vor.VOR_CONCEPTS}[flags[1]]
        report = vor.vor_compute(game, concept, self.cfg)
        return report.ratio if report.ratio_kind == "finite" else report.ratio_kind

    def _check(self, key: tuple, stdout: str) -> list[str]:
        command, flags, name = key
        want = self.expected[key]
        where = f"{name} {command} {' '.join(flags)}".strip()
        if command == "validate":
            return [] if stdout.strip() == "ok" and not want else [f"{where}: {stdout!r}"]
        if command == "refine":
            got = _partition(fileio.game_from_jsonable(json.loads(stdout)))
            return [] if got == want else [f"{where}: partition differs"]
        values = _values(stdout)
        if command == "coeffs":
            expected = {f"am {z}": v for z, v in want.am.items()}
            expected |= {f"chance {z}": v for z, v in want.chance.items()}
            expected |= {f"branching {h}": v for h, v in want.branching.items()}
        elif command == "bounds":
            expected = want
        elif command == "solve":
            expected = {f"u{i}": u for i, u in enumerate(want, start=1)}
        else:
            if isinstance(want, str):
                return [] if values.get("vor") == want else [f"{where}: {values.get('vor')}"]
            expected = {"vor": want}
        return _compare(where, values, expected)


def _compare(where: str, values: dict[str, str], expected: dict) -> list[str]:
    problems = []
    for key, want in expected.items():
        got = values.get(key)
        try:
            ok = got is not None and close(float(got), float(want), TOL)
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"{where} {key}: float {got}, exact {float(want)!r}")
    return problems


def _partition(game: irgames.Game) -> set:
    return {frozenset(i.nodes) for i in game.infosets.get(1, {}).values()}


def _bounds(game: irgames.Game, cfg: SolverConfig) -> dict[str, object]:
    """The numbers `irgames bounds` prints, computed in-process."""
    out = {}
    if not irgames.chance_nodes(game):
        out["am utility bound"], out["am zstar bound"] = vor.bound_am(game)
        zstar = vor._argmax_leaf(game, lambda z: game.utilities[z][0])
        out["am entropy bound"] = vor.bound_am_entropy(game, zstar)
    if not irgames.has_absentmindedness(game, 1):
        out["chance utility bound"], out["chance beta bound"] = vor.bound_chance(game, cfg)
    out["composed bound"] = vor.bound_composed(game)
    return out


WORKLOADS = {w.name: w for w in (PaperVor, RandomExact, CliFloat)}
