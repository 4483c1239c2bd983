"""Record every non-OPT paper-vor value of recall, with the utilities it is
the ratio of, to paper_vor_expected.json.

Usage: python3 perfbench/record_expected.py

The values are recorded at solver seed 0; other seeds agree with them
within the tolerance the workload checks them to.

The file is the reference the paper-vor workload checks against.  Rewrite
it only when a change to irgames is meant to change these values.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from irgames import vor  # noqa: E402
from irgames.solvers import SolverConfig  # noqa: E402

from workloads import EXPECTED_PATH, PAPER_GAMES, _vor_summary  # noqa: E402


def main() -> None:
    cfg = SolverConfig(seed=0)
    out = {}
    for name, make in PAPER_GAMES.items():
        game = make()
        for concept in vor.VOR_CONCEPTS[1:]:
            out[f"{name}/{concept}"] = _vor_summary(vor.vor_compute(game, concept, cfg))
    lines = (f" {json.dumps(key)}: {json.dumps(value)}" for key, value in out.items())
    EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
