"""Benchmark for irgames: end-to-end metrics per workload, or per-layer
metrics from a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-vor --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``paper-vor``    vor_compute for all 11 concepts on the paper's games;
* ``random-exact`` exact scalar checks, OPT and OPT VoR on big random trees
  and the lenny200 chain, plus an untimed gen_lenny(1000) probe;
* ``cli-float``    one ``python -m irgames.cli`` process per command on
  game files whose numbers are floats.

A run sets up the workload SETUP_REPEATS times (``setup_s`` is the median
of importing irgames in a fresh interpreter plus building or writing the
inputs), then runs full passes over the task list, each on freshly built
inputs, while another one still fits in ``--seconds`` (at least one).  The
time left goes to passes over the light tasks alone (first call under
LIGHT_S), each on fresh inputs too: a light task's time is then the median
of several calls instead of one call's jitter, which on random-exact had
moved ``task_s_tail`` by more than its bound.  Every answer is checked; a
wrong one makes ``correct`` false.

Every time below is in reference seconds (``refclock.py``): real time
rescaled by the host's speed, measured all through the run by a fixed
calibration kernel, so a slow or fast phase of the shared host does not
move the figures.  Only the ``--seconds`` budget is real time.

* ``setup_s``: the import time the child measures, scaled by the clock's
  rate while it ran, plus building the inputs (median of SETUP_REPEATS);
* ``wall_s``: time of one full pass, the sum of its task times (median
  over full passes);
* ``task_s_tail``: the highest whole percentile with at least ten tasks
  above it, over each task's median time (the percentile and the task
  count are logged);
* ``peak_rss_mb``: peak resident memory of the benchmark process; on
  cli-float, that of the largest child process instead, so the exact
  in-process answers the CLI output is checked against do not count.  The
  only other children there import irgames and nothing else, which every
  CLI child does too, so they cannot set the peak.

``attempted`` and ``failed`` count the timed calls.  With ``--trace 1`` the
first half of the time runs untraced and the second half traced; the
metrics are the per-layer calls, self times and counters per traced pass,
``trace.overhead_s``, ``wrong_answers``, ``fail_share`` (which also counts
the probe's calls) and ``task_s_p50``, the median of the per-task medians
of the untraced half; the traced half runs full passes only.  The median
task of random-exact is a 10 ms Fraction walk whose time swings with the
host's memory contention (a quartile spread of 0.3 of its median over ten
seeds, with or without the light passes), so it is reported ungated.
Human-readable lines come first; the last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Pin BLAS/OpenMP pools before numpy loads; children inherit the setting.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
LIGHT_S = 0.5  # tasks under this get more samples in the time a run has left
PROBE_TIMEOUT_S = 60
PROBE_CALLS = ("expected_utility", "edt_check", "optimal_strategy")

# Workload names and metric name -> unit, as declared in BENCHMARK.json.
# "<layer>.calls" and "<layer>.s" come straight from the tracer; the other
# per-layer metrics are derived in layer_metrics() and benchmark().
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


def log(*parts) -> None:
    print(*parts, flush=True)


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples above it
    (0 when there are ten samples or fewer)."""
    return max(0, math.floor(100 * (1 - 10 / n))) if n > 10 else 0


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def time_import(clock) -> float:
    """Reference seconds to import irgames in a fresh interpreter: the time
    the child measures, scaled by the clock's rate while it ran."""
    code = ("import time; t = time.perf_counter(); import irgames; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, ref = time.perf_counter(), clock.now()
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True, timeout=120)
    rate = (clock.now() - ref) / (time.perf_counter() - raw)
    return float(out.stdout) * rate


class Run:
    """Counts and times of one benchmark run."""

    def __init__(self, workload, tracer, clock):
        self.workload = workload
        self.tracer = tracer
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, task) -> float | None:
        """Time one call of the task and check its answer (untimed); None
        when the call raised."""
        self.attempted += 1
        gc.collect()  # start every call from the same collector state
        if self.tracer is not None:
            self.tracer.enabled = True
        start = self.clock.now()
        try:
            result = task.run()
        except Exception:
            self.failed += 1
            log(f"FAILED {task.name}: {traceback.format_exc(limit=3)}")
            return None
        took = self.clock.now() - start
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            problems = task.check(result)
        except Exception:
            problems = [f"{task.name}: check raised {traceback.format_exc(limit=3)}"]
        for problem in problems:
            log(f"WRONG {task.name}: {problem}")
        self.problems += problems
        return took

    def run_pass(self, tasks) -> dict[str, float]:
        """The reference time of each task that ran, called once each in
        order."""
        times = {}
        for task in tasks:
            took = self.call(task)
            if took is not None:
                times[task.name] = took
        return times

    def passes(self, inputs, seconds: float, fill: bool
               ) -> tuple[list[float], dict[str, list[float]]]:
        """(time of each full pass, every time of each task), in reference
        seconds; ``seconds`` is real time.

        Full passes run while another one still fits in ``seconds`` (at
        least one).  With ``fill``, passes over the tasks whose first call
        took under LIGHT_S then use the time left, each on fresh inputs."""
        walls: list[float] = []
        samples: dict[str, list[float]] = {}
        light = None
        start = time.perf_counter()
        while True:
            tasks = self.workload.tasks(inputs)
            if light is not None:
                tasks = [task for task in tasks if task.name in light]
            before = time.perf_counter()
            times = self.run_pass(tasks)
            took = time.perf_counter() - before
            for name, value in times.items():
                samples.setdefault(name, []).append(value)
            if light is None:
                walls.append(sum(times.values()))
                log(f"full pass: {walls[-1]:.3f} reference s, {took:.3f} real s")
            if time.perf_counter() - start + took > seconds:
                if light is not None or not fill:
                    return walls, samples
                light = {name for name, v in samples.items() if v[0] < LIGHT_S}
                took = sum(samples[name][0] for name in light)
                if not light or time.perf_counter() - start + took > seconds:
                    return walls, samples
            inputs = self.workload.setup()


def run_probe() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "probe.py")],
                              capture_output=True, text=True, env=env,
                              timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return dict.fromkeys(PROBE_CALLS, "timeout")
    if proc.returncode != 0:
        return dict.fromkeys(PROBE_CALLS, f"exit {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def layer_metrics(totals: dict[str, dict], passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass from summed tracer stats."""
    out: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if layer in totals and field in ("calls", "s", "entries", "rows", "classes"):
            out[name] = totals[layer].get(field, 0) / passes
    rational, nash = totals["solvers.checks.rational"], totals["solvers.checks.nash"]
    out["solvers.checks.rational.pass_ratio"] = (
        rational.get("passed", 0) / rational["calls"] if rational["calls"] else 0.0)
    out["solvers.checks.nash.reject_ratio"] = (
        1 - nash.get("passed", 0) / nash["calls"] if nash["calls"] else 0.0)
    enum, opt = totals["solvers.search.enum"], totals["solvers.search.opt"]
    results = enum.get("classes", 0) + opt.get("results", 0)
    heuristic = enum.get("heuristic", 0) + opt.get("heuristic", 0)
    out["solvers.search.heuristic_share"] = heuristic / results if results else 0.0
    return out


def sum_stats(target: dict[str, dict], layers: dict[str, dict]) -> None:
    for layer, stats in layers.items():
        into = target.setdefault(layer, {})
        for key, value in stats.items():
            into[key] = into.get(key, 0) + value


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
              workdir: Path) -> dict:
    import numpy

    import workloads
    from refclock import RefClock
    from tracing import Tracer

    log(f"env: python {platform.python_version()}, numpy {numpy.__version__}, "
        f"nproc {os.cpu_count()}, loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}, "
        f"BLAS/OpenMP threads {os.environ['OMP_NUM_THREADS']}")
    cls = workloads.WORKLOADS[workload_name]
    workload = cls(seed, workdir) if workload_name == "cli-float" else cls(seed)

    tracer = Tracer() if trace else None
    with RefClock() as clock:
        setups = []
        for _ in range(SETUP_REPEATS):
            import_s = time_import(clock)
            start = clock.now()
            inputs = workload.setup()
            setups.append(import_s + clock.now() - start)
        run = Run(workload, tracer, clock)

        budget = seconds / 2 if trace else seconds
        walls, samples = run.passes(inputs, budget, fill=True)
        traced_walls = []
        if trace:
            if workload_name == "cli-float":
                workload.tracer = tracer
            tracer.install()
            try:
                traced_walls, _ = run.passes(workload.setup(), budget, fill=False)
            finally:
                tracer.uninstall()

    probe = run_probe() if workload_name == "random-exact" else {}
    probe_failed = sum(v not in ("ok", "wrong") for v in probe.values())
    run.problems += [f"probe {k}: wrong answer" for k, v in probe.items() if v == "wrong"]

    names = list(samples)
    per_task = [statistics.median(samples[n]) for n in names]
    pct = tail_percentile(len(per_task))
    attempted = run.attempted + len(probe)
    fail_share = (run.failed + probe_failed) / attempted

    log(f"workload {workload_name} seed {seed}: {len(walls)} untraced pass(es) "
        f"of {len(names)} tasks, walls {' '.join(f'{w:.3f}' for w in walls)} s")
    if workload_name == "random-exact":
        games = workloads.random_games()
        log("games: " + ", ".join(
            f"{k} {g.name} {len(g.nodes)} nodes" for k, g in games.items()))
        log(f"probe gen_lenny(1000): {probe}")
    for name, value in sorted(zip(names, per_task), key=lambda item: -item[1]):
        log(f"  task {name:36s} {value:10.4f} s, median of {len(samples[name])}")
    log(f"task_s_tail is p{pct} of {len(per_task)} per-task medians")
    log(f"fail_share {run.failed + probe_failed}/{attempted} = {fail_share:.4f}; "
        f"wrong_answers {len(run.problems)}")

    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "task_s_tail": nearest_rank(per_task, pct),
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN
                                       if workload_name == "cli-float"
                                       else resource.RUSAGE_SELF),
        }
        units = END_TO_END
    else:
        totals = {layer: s.as_dict() for layer, s in tracer.stats.items()}
        totals["cli.import"] = {"s": 0.0}
        for child in getattr(workload, "child_stats", ()):
            sum_stats(totals, child["layers"])
            totals["cli.import"]["s"] += child["import_s"]
        metrics = layer_metrics(totals, len(traced_walls))
        metrics["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls))
        metrics["fail_share"] = fail_share
        metrics["wrong_answers"] = len(run.problems)
        metrics["task_s_p50"] = statistics.median(per_task)
        units = PER_LAYER
        log(f"traced passes: {len(traced_walls)}, walls "
            f"{' '.join(f'{w:.3f}' for w in traced_walls)} s")
    for name, value in metrics.items():
        log(f"  {name:38s} {value:14.6f} {units[name]}")
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in _DECLARED["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "irgames" / "__init__.py").is_file():
        print(f"error: no irgames package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        result = benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
