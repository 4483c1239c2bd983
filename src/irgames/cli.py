"""Command-line interface tying the toolkit together.

Every command is a pure function of its input files, flags, and seed; all
numeric output is printed with 12 significant digits, plus the exact
rational in parentheses when one is available.

Exit codes: 0 success, 1 domain errors (no equilibrium, caps, invalid
game, among them a NaN or infinite chance probability or utility) and a
standard output closed by its reader (``irgames ... | head``, without a
traceback), 2 usage or parse errors: malformed documents (bad JSON, a
field of the wrong JSON type, a node entry that is not an object, a
repeated node id, a repeated infoset id of one player) and flags out of
range (a grid resolution below 1, a negative multistart, seed,
``partial-best --k`` or ``--table-cap``, an ``--eps-eq`` that is negative
or not finite).

Each command imports the modules it uses inside its function, so a process
loads only what its command needs.  ``validate``, ``refine`` and
``coeffs`` walk the game tree in exact arithmetic and never load numpy or
``irgames.solvers``, whose import would be more than half of such a
command's time.  ``solve``, ``vor``, ``smooth-check``, ``partial-best``,
and ``bounds`` on a game without absentmindedness (its chance bound solves
the refinement) load the solver stack, numpy and the compiled float table,
when they run.  The parser reads its defaults from the numpy-free
``irgames.config``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

from . import fileio
from .config import CapExceededError, EquilibriumNotFoundError, SolverConfig
from .game import Game, validate_game
from .recall import perfect_recall_refinement, perfect_recall_refinement_all
from .strategies import StrategyProfile, validate_profile


class DomainError(RuntimeError):
    pass


def fmt(value) -> str:
    """12 significant digits, with the exact rational when available."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{float(value):.12g} (= {value})"
    return f"{float(value):.12g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_game(path: str) -> Game:
    game = fileio.read_game(path)
    problems = validate_game(game)
    if problems:
        raise DomainError(f"invalid game {path}: " + "; ".join(problems))
    return game


def _load_profile(path: str, game: Game) -> StrategyProfile:
    profile = fileio.read_profile(path)
    problems = validate_profile(game, profile)
    if problems:
        raise DomainError(f"invalid strategy {path}: " + "; ".join(problems))
    return profile


def _config_from(args) -> SolverConfig:
    return SolverConfig(
        grid_resolution=args.grid_resolution,
        multistart=args.multistart,
        eps_eq=args.eps_eq,
        seed=args.seed,
    )


def _checked(convert, ok, need: str):
    """An argparse ``type``: ``convert`` the text, then require ``ok`` of
    the value, so a bad flag is a usage error, not a solver failure."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")
        return value
    return parse


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    defaults = SolverConfig()
    p.add_argument("--grid-resolution", type=_checked(int, lambda v: v >= 1, "an integer >= 1"),
                   default=defaults.grid_resolution,
                   help="mixed-seed grid resolution (delta = 1/this)")
    p.add_argument("--multistart", type=_checked(int, lambda v: v >= 0, "an integer >= 0"),
                   default=defaults.multistart,
                   help="random restarts for local search")
    p.add_argument("--eps-eq",
                   type=_checked(float, lambda v: math.isfinite(v) and v >= 0,
                                 "a finite number >= 0"),
                   default=defaults.eps_eq,
                   help="equilibrium residual tolerance")
    # argparse converts a string default with ``type``, so a bad
    # IRGAMES_SEED is a usage error of the commands that take --seed.
    p.add_argument("--seed", type=_checked(int, lambda v: v >= 0, "an integer >= 0"),
                   default=os.environ.get("IRGAMES_SEED", defaults.seed),
                   help="solver RNG seed (env IRGAMES_SEED overrides the default)")


def _print_report(report) -> None:
    print(f"concept: {report.concept} ({report.which})")
    for i, u in enumerate(report.utilities, start=1):
        print(f"u{i}: {fmt(u)}")
    print(f"residual: {fmt(report.residual)}")
    print(f"certified: {report.certified}")
    for note in report.notes:
        print(f"note: {note}")
    for s in report.profile.strategies:
        for iid, row in sorted(s.table.items()):
            probs = ", ".join(fmt(p) for p in row)
            print(f"P{s.player} {iid}: [{probs}]")


def cmd_validate(args) -> int:
    game = fileio.read_game(args.game)
    problems = validate_game(game)
    for p in problems:
        print(p)
    if problems:
        return 1
    print("ok")
    return 0


def cmd_refine(args) -> int:
    game = _load_game(args.game)
    if args.all:
        refined = perfect_recall_refinement_all(game)
    else:
        refined, _ = perfect_recall_refinement(game, args.player)
    _emit(fileio.dumps(fileio.game_to_jsonable(refined)), args.out)
    return 0


_SOLVE_CONCEPTS = ("opt", "edt", "cdt", "nash", "edt-nash", "cdt-nash")


def cmd_solve(args) -> int:
    from .solvers import best_worst, optimal_strategy

    game = _load_game(args.game)
    cfg = _config_from(args)
    which = "best" if args.best else "worst" if args.worst else "best"
    if args.concept == "opt":
        report = optimal_strategy(game, cfg)
    else:
        report = best_worst(game, args.concept.upper(), which, cfg)
    _print_report(report)
    return 0


def cmd_vor(args) -> int:
    from .vor import VOR_CONCEPTS, vor_compute

    game = _load_game(args.game)
    cfg = _config_from(args)
    concept = args.concept
    canon = {c.lower(): c for c in VOR_CONCEPTS}
    if concept.lower() not in canon:
        raise DomainError(f"unknown VoR concept {concept!r}")
    report = vor_compute(game, canon[concept.lower()], cfg)
    print(f"concept: {report.concept}")
    print(f"u1 refined: {fmt(report.numerator)}")
    print(f"u1 original: {fmt(report.denominator)}")
    if report.ratio_kind == "finite":
        num, den = report.numerator, report.denominator
        if isinstance(num, Fraction) and isinstance(den, Fraction):
            print(f"vor: {fmt(num / den)}")
        else:
            print(f"vor: {fmt(report.ratio)}")
    else:
        print(f"vor: {report.ratio_kind}")
    for name, value in report.bounds.items():
        if value is not None:
            flag = report.bounds_satisfied[name]
            print(f"bound {name}: {fmt(value)} "
                  f"({'satisfied' if flag else 'VIOLATED' if flag is False else 'n/a'})")
    return 0


def cmd_coeffs(args) -> int:
    from .vor import coefficient_table

    game = _load_game(args.game)
    table = coefficient_table(game)
    for z in sorted(table.am):
        print(f"am {z}: {fmt(table.am[z])}")
    for z in sorted(table.chance):
        print(f"chance {z}: {fmt(table.chance[z])}")
    for h in sorted(table.branching):
        print(f"branching {h}: {table.branching[h]}")
    return 0


def cmd_bounds(args) -> int:
    from .vor import structural_bounds

    game = _load_game(args.game)
    cfg = _config_from(args)
    if game.players != 1:
        raise DomainError("bounds apply to single-player games")
    bounds = structural_bounds(game, cfg)
    if None in bounds.values():
        raise DomainError("all utilities are zero; the bound is undefined")
    for name, value in bounds.items():
        print(f"{name.replace('_', ' ')} bound: {fmt(value)}")
    return 0


def cmd_smooth_check(args) -> int:
    from .vor import smoothness_check

    game = _load_game(args.game)
    cfg = _config_from(args)
    pistar = _load_profile(args.pistar, game)
    verdict = smoothness_check(game, pistar, args.lam, args.mu, cfg)
    print(f"verdict: {verdict.kind}")
    print(f"worst margin: {fmt(verdict.worst_margin)}")
    print(f"opt: {fmt(verdict.opt_utility)}")
    if verdict.counterexample is not None:
        for s in verdict.counterexample.strategies:
            for iid, row in sorted(s.table.items()):
                print(f"counterexample P{s.player} {iid}: "
                      f"[{', '.join(fmt(p) for p in row)}]")
        return 1
    return 0


def cmd_partial_best(args) -> int:
    from .partial import _scored_refinements

    game = _load_game(args.game)
    cfg = _config_from(args)
    scored, (best_game, value) = _scored_refinements(game, args.k, cfg)
    for cand, score in scored[:args.table_cap]:
        print(f"candidate infosets={len(cand.infosets.get(1, {}))}: {fmt(score)}")
    if len(scored) > args.table_cap:
        print(f"... ({len(scored) - args.table_cap} more)")
    print(f"best: {fmt(value)}")
    if args.out:
        fileio.write_game(best_game, args.out)
    return 0


def cmd_gen(args) -> int:
    from .generators import (
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
        gen_x3c_game,
    )

    name = args.name
    if name == "fig1":
        game = gen_fig1(Fraction(args.eps))
    elif name == "fig2":
        game = gen_fig2()
    elif name == "fig3":
        game = gen_fig3(Fraction(args.eps))
    elif name == "fig5":
        game = gen_fig5_split() if args.split else gen_fig5()
    elif name == "lenny":
        game = gen_lenny(args.n)
    elif name == "dory":
        game = gen_dory(args.n)
    elif name == "sat":
        clauses = _parse_int_groups(args.clauses)
        game = gen_sat_game(clauses, Fraction(args.eta), args.M)
    elif name == "x3c":
        family = _parse_int_groups(args.family)
        game, k = gen_x3c_game(args.universe, family)
        print(f"k: {k}", file=sys.stderr)
    elif name == "valid-utility":
        game = default_valid_utility()
    elif name == "random":
        game = gen_random(
            depth=args.depth, branching=args.branching,
            merge_rate=args.merge_rate, chance_rate=args.chance_rate,
            absentmindedness=args.absentminded, seed=args.seed,
            players=args.players,
        )
    else:  # unreachable; argparse restricts choices
        raise DomainError(f"unknown generator {name!r}")
    _emit(fileio.dumps(fileio.game_to_jsonable(game)), args.out)
    return 0


def _parse_int_groups(text: str) -> list[tuple[int, ...]]:
    try:
        return [
            tuple(int(tok) for tok in group.split(",") if tok.strip())
            for group in text.split(";")
            if group.strip()
        ]
    except ValueError as exc:
        raise DomainError(f"bad group list {text!r}: {exc}") from exc


def cmd_export_dot(args) -> int:
    from .dot import export_dot

    game = _load_game(args.game)
    profile = _load_profile(args.strategy, game) if args.strategy else None
    _emit(export_dot(game, profile), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irgames",
        description="Imperfect-recall games: refinements, equilibria, value of recall.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt_cls = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("validate", help="check game invariants",
                       formatter_class=fmt_cls)
    p.add_argument("game")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("refine", help="perfect-recall refinement",
                       formatter_class=fmt_cls)
    p.add_argument("game")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--player", type=int, default=1)
    group.add_argument("--all", action="store_true",
                       help="refine every player at once")
    p.add_argument("--out")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("solve", help="solve for a solution concept",
                       formatter_class=fmt_cls)
    p.add_argument("game")
    p.add_argument("--concept", choices=_SOLVE_CONCEPTS, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--best", action="store_true")
    group.add_argument("--worst", action="store_true")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("vor", help="value of recall for a concept",
                       formatter_class=fmt_cls)
    p.add_argument("game")
    p.add_argument("--concept", required=True,
                   help="opt, bedt, wedt, bcdt, wcdt, bnash, wnash, "
                        "bedt-nash, wedt-nash, bcdt-nash, wcdt-nash")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_vor)

    p = sub.add_parser("coeffs", help="per-leaf and per-chance-node coefficients",
                       formatter_class=fmt_cls)
    p.add_argument("game")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("bounds", help="structural bounds on the value of recall",
                       formatter_class=fmt_cls)
    p.add_argument("game")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("smooth-check", help="test the smoothness inequality",
                       formatter_class=fmt_cls)
    p.add_argument("game")
    p.add_argument("--lambda", dest="lam", required=True,
                   type=_checked(float, lambda v: math.isfinite(v) and v > 0,
                                 "a finite number > 0"))
    p.add_argument("--mu", required=True,
                   type=_checked(float, lambda v: math.isfinite(v) and v >= 0,
                                 "a finite number >= 0"))
    p.add_argument("--pistar", required=True,
                   help="strategy file with the substitution strategy")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_smooth_check)

    p = sub.add_parser("partial-best", help="best k-split partial refinement",
                       formatter_class=fmt_cls)
    p.add_argument("game")
    p.add_argument("--k", type=_checked(int, lambda v: v >= 0, "an integer >= 0"),
                   required=True)
    p.add_argument("--out", help="write the winning game here")
    p.add_argument("--table-cap", type=_checked(int, lambda v: v >= 0, "an integer >= 0"),
                   default=50,
                   help="max candidate scores to print")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_partial_best)

    p = sub.add_parser("gen", help="write a generated game",
                       formatter_class=fmt_cls)
    p.add_argument("name", choices=(
        "fig1", "fig2", "fig3", "fig5", "lenny", "dory", "sat", "x3c",
        "valid-utility", "random",
    ))
    p.add_argument("--eps", default="1/100", help="fig1/fig3 epsilon")
    p.add_argument("--split", action="store_true", help="fig5: split variant")
    p.add_argument("--n", type=int, default=4, help="lenny/dory size")
    p.add_argument("--clauses", default="1,2,3;-1,2,3",
                   help="sat: semicolon-separated literal triples")
    p.add_argument("--eta", default="1", help="sat: base utility")
    p.add_argument("--M", type=int, default=1, help="sat: separation factor")
    p.add_argument("--universe", type=int, default=6, help="x3c: universe size, a multiple of 3")
    p.add_argument("--family", default="1,2,3;4,5,6",
                   help="x3c: semicolon-separated element triples")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--branching", type=int, default=2)
    p.add_argument("--merge-rate", type=float, default=0.5)
    p.add_argument("--chance-rate", type=float, default=0.2)
    p.add_argument("--players", type=int, default=1)
    p.add_argument("--absentminded", action="store_true")
    p.add_argument("--seed", type=int, default=os.environ.get("IRGAMES_SEED", 0))
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("export-dot", help="Graphviz rendering of a game",
                       formatter_class=fmt_cls)
    p.add_argument("game")
    p.add_argument("--strategy", help="profile file for edge annotations")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export_dot)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except fileio.GameParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, EquilibriumNotFoundError, CapExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = cli_main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``irgames ... | head``).  Point stdout
        # at devnull, so that the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
