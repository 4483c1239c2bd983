"""Deep-tree probe: evaluate, EDT-check and solve ``gen_lenny(1000)``.

Usage: python3 perfbench/probe.py

Prints one JSON object mapping each call to "ok", "wrong" or the name of
the exception it raised.  The benchmark runs it in its own process, untimed,
so a call that fails fast adds nothing to the timed task list and a crash
or hang cannot take the benchmark with it.
"""

import json
import sys
from fractions import Fraction

from irgames import generators, solvers, strategies

N = 1000


def main() -> None:
    game = generators.gen_lenny(N)
    profile = strategies.uniform_profile(game)
    # Uniform play reaches the single paying leaf with probability 2**-N.
    calls = {
        "expected_utility": (
            lambda: strategies.expected_utility(game, profile, 1),
            lambda value: value == Fraction(1, 2 ** N),
        ),
        "edt_check": (
            lambda: solvers.edt_check(game, profile),
            lambda result: result[1] >= 0.0,
        ),
        "optimal_strategy": (
            lambda: solvers.optimal_strategy(game),
            lambda report: float(report.utilities[0]) >= 0.0,
        ),
    }
    out = {}
    for name, (call, check) in calls.items():
        try:
            out[name] = "ok" if check(call()) else "wrong"
        except Exception as exc:  # every failure is data for fail_share
            out[name] = type(exc).__name__
    print(json.dumps(out))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
