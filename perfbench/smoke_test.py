"""Smoke test of the benchmark itself: a short pass per workload, untraced
and traced, must print a contract-shaped result with every metric named in
BENCHMARK.json.

Usage: python3 perfbench/smoke_test.py      (or: python3 -m pytest perfbench/smoke_test.py)

The passes are cut to the first few tasks of each workload, so the whole
test takes well under a minute; it checks names and shape, not speed.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

KEEP_TASKS = 3
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def short_result(workload: str, trace: int) -> dict:
    cls = workloads.WORKLOADS[workload]
    full = cls.tasks
    cls.tasks = lambda self, inputs: full(self, inputs)[:KEEP_TASKS]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "3",
                             "--seconds", "0", "--trace", str(trace)])
    finally:
        cls.tasks = full
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (sorted(set(want) ^ set(got)), want, got)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_declared_workloads_exist():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_every_workload_emits_every_metric():
    for workload in workloads.WORKLOADS:
        check_result(short_result(workload, 0), BENCHMARK["end_to_end"])
        check_result(short_result(workload, 1), BENCHMARK["per_layer"])


if __name__ == "__main__":
    test_declared_workloads_exist()
    test_every_workload_emits_every_metric()
    print("smoke test passed")
