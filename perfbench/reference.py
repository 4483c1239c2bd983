"""Reference rows: one-off timings of the ROADMAP baseline and of the rows
too slow for the gated workloads.  They gate nothing; they are the
"before" numbers for the open items that target them.

Usage: python3 perfbench/reference.py

Each row runs once in its own process, killed after CAP_S seconds, and its
time includes building its game.  The rows are written as JSON to
perfbench/reference_rows.json with the environment they were measured in;
"before" is the earlier figure: the ROADMAP's baseline table, or the
estimate that kept the row out of the gated workloads.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "reference_rows.json"
CAP_S = 90


def _chance_chain(depth: int):
    """Chance nodes c0..c{d-1}, each leading to the next and to a leaf."""
    from irgames.game import CHANCE, TERMINAL, Node, make_game

    half = (Fraction(1, 2), Fraction(1, 2))
    nodes, utilities = [], {}
    for k in range(depth):
        nxt = f"c{k + 1}" if k + 1 < depth else "zend"
        nodes.append(Node(id=f"c{k}", owner=CHANCE, actions=("on", "off"),
                          children=(nxt, f"z{k}"), chance_dist=half))
        nodes.append(Node(id=f"z{k}", owner=TERMINAL))
        utilities[f"z{k}"] = (Fraction(1),)
    nodes.append(Node(id="zend", owner=TERMINAL))
    utilities["zend"] = (Fraction(1),)
    return make_game(1, "c0", nodes, utilities, [], name=f"chain{depth}")


def _rows() -> dict:
    """name -> (earlier figure, thunk).  Imports happen in the row's own
    process."""
    from irgames import generators as gen, solvers, strategies, vor

    def vor_row(make, concept):
        return lambda: vor.vor_compute(make(), concept)

    def random7():
        return gen.gen_random(7, 3, 0.6, 0.2, False, seed=1)

    def on_uniform(make, call):
        def run():
            game = make()
            return call(game, strategies.uniform_profile(game))
        return run

    sat2 = lambda: gen.gen_sat_game([(1, 2, 3), (-1, 2, 3)])  # noqa: E731
    x3c6 = lambda: gen.gen_x3c_game(6, [(1, 2, 3), (4, 5, 6)])[0]  # noqa: E731
    rows = {
        "dory3 wCDT-NASH vor_compute": ("758 s", vor_row(lambda: gen.gen_dory(3), "wCDT-NASH")),
        "lenny8 wCDT-NASH vor_compute": ("2.7 s", vor_row(lambda: gen.gen_lenny(8), "wCDT-NASH")),
        "fig1(1/100) EDT enumerate_equilibria": ("1.06 s", lambda: solvers.enumerate_equilibria(
            gen.gen_fig1(Fraction(1, 100)), "EDT")),
        "random(7,3,seed=1) uniform edt_check": ("1.85 s", on_uniform(random7, solvers.edt_check)),
        "random(7,3,seed=1) uniform kkt_check": ("1.68 s", on_uniform(
            random7, lambda g, p: solvers.kkt_check(g, p, 1))),
        "random(7,3,seed=1) optimal_strategy": ("1.29 s", lambda: solvers.optimal_strategy(random7())),
        "sat2 bEDT-NASH vor_compute": ("958 s", vor_row(sat2, "bEDT-NASH")),
        "x3c6 wEDT-NASH vor_compute": ("over 60 s", vor_row(x3c6, "wEDT-NASH")),
        "x3c6 wCDT-NASH vor_compute": ("over 60 s", vor_row(x3c6, "wCDT-NASH")),
        "dory3 wEDT-NASH vor_compute": ("over 60 s", vor_row(lambda: gen.gen_dory(3), "wEDT-NASH")),
        "lenny12 wEDT-NASH vor_compute": ("over 60 s", vor_row(lambda: gen.gen_lenny(12), "wEDT-NASH")),
        "lenny12 wCDT-NASH vor_compute": ("over 60 s", vor_row(lambda: gen.gen_lenny(12), "wCDT-NASH")),
        "lenny8 bEDT-NASH vor_compute": ("about 10 s", vor_row(lambda: gen.gen_lenny(8), "bEDT-NASH")),
        "lenny8 wEDT-NASH vor_compute": ("about 10 s", vor_row(lambda: gen.gen_lenny(8), "wEDT-NASH")),
        "random(6,3,am,seed=3) optimal_strategy": ("over 100 s", lambda: solvers.optimal_strategy(
            gen.gen_random(6, 3, 0.6, 0.2, True, seed=3))),
    }
    for depth in (14, 16, 18):
        rows[f"chance chain d={depth} branching_factor"] = (
            {14: "0.05 s", 16: "0.19 s", 18: "0.80 s"}[depth],
            lambda d=depth: vor.branching_factor(_chance_chain(d), "c0"))
    return rows


def run_row(name: str) -> None:
    sys.path.insert(0, str(SRC))
    _, thunk = _rows()[name]
    start = time.perf_counter()
    try:
        thunk()
        outcome = "ok"
    except Exception as exc:
        outcome = type(exc).__name__
    print(json.dumps({"seconds": time.perf_counter() - start, "outcome": outcome}))


def main(argv: list[str]) -> None:
    if argv[:1] == ["--row"]:  # one row, in a child process
        run_row(argv[1])
        return

    sys.path.insert(0, str(SRC))
    import numpy

    rows = []
    for name, (figure, _) in _rows().items():
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--row", name], capture_output=True,
                text=True, timeout=CAP_S)
            row = (json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0
                   else {"seconds": None, "outcome": f"exit {proc.returncode}"})
        except subprocess.TimeoutExpired:
            row = {"seconds": None, "outcome": f"capped at {CAP_S} s"}
        row = {"row": name, **row, "before": figure}
        print(json.dumps(row), flush=True)
        rows.append(row)
    doc = {
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
                "threads": os.environ["OMP_NUM_THREADS"], "cap_s": CAP_S},
        "rows": rows,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
