"""Layer tracing from outside the program.

The tracer replaces the public functions of each ``irgames`` layer with
wrappers that count calls and accumulate self time: a span's duration minus
the part its child spans (calls into any traced layer) cover.  Spans are
aggregated per layer as they close instead of being stored one by one,
because the hot view helpers (``seq``, ``obs``) run hundreds of thousands of
times per pass and a span list would distort both time and memory.

Nothing in ``irgames`` is edited: every module binding that refers to a
traced function (``from .game import seq`` creates one per importing
module) is swapped on ``install`` and restored on ``uninstall``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections.abc import Callable

# layer -> (module, function or Class.method) pairs.  Layer names follow the
# program's modules; the per-layer metric of each layer is "<layer>.calls"
# and "<layer>.s" plus the extra counters named in EXTRA below.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "game.validate": (("irgames.game", "validate_game"),),
    "game.views": tuple(
        ("irgames.game", name)
        for name in ("seq", "obs", "obs_i", "first_visit_nodes",
                     "has_absentmindedness", "subtree_nodes")
    ),
    "recall.refine": (
        ("irgames.recall", "perfect_recall_refinement"),
        ("irgames.recall", "perfect_recall_refinement_all"),
    ),
    "numeric.compile": (("irgames.numeric", "NumericGame.__init__"),),
    "numeric.kernel": tuple(
        ("irgames.numeric", f"NumericGame.{name}")
        for name in ("leaf_probs", "utilities", "utility", "gradient",
                     "deviation_values_pure", "edt_pure_residuals",
                     "kkt_residuals")
    ),
    "strategies.eval": tuple(
        ("irgames.strategies", name)
        for name in ("expected_utility", "utility_gradient", "node_reach_map",
                     "infoset_reach", "infoset_frequency")
    ),
    "solvers.checks.edt": (("irgames.solvers", "edt_check"),),
    "solvers.checks.deviation": (
        ("irgames.solvers", "best_deviation"),
        ("irgames.solvers", "edt_incentive"),
    ),
    "solvers.checks.kkt": (("irgames.solvers", "kkt_check"),),
    "solvers.checks.rational": (
        ("irgames.solvers", "edt_rational_check"),
        ("irgames.solvers", "cdt_rational_check"),
    ),
    "solvers.checks.nash": (
        ("irgames.solvers", "nash_check"),
        ("irgames.solvers", "edt_nash_check"),
        ("irgames.solvers", "cdt_nash_check"),
    ),
    "solvers.search.enum": (("irgames.solvers", "enumerate_equilibria"),),
    "solvers.search.opt": (("irgames.solvers", "optimal_strategy"),),
    "vor.compute": (("irgames.vor", "vor_compute"),),
    "vor.coeffs": tuple(
        ("irgames.vor", name)
        for name in ("coefficient_table", "am_coefficient",
                     "chance_coefficient", "branching_factor")
    ),
    "vor.bounds": tuple(
        ("irgames.vor", name)
        for name in ("bound_am", "bound_am_entropy", "bound_chance",
                     "bound_composed")
    ),
    "fileio.read": (("irgames.fileio", "read_game"),),
    "cli.command": (("irgames.cli", "cli_main"),),
}


def _batch_rows(args, result) -> int:
    x = args[1] if len(args) > 1 else None  # args[0] is the NumericGame
    return int(x.shape[0]) if getattr(x, "ndim", 0) == 2 else 0


def _passed(args, result) -> int:
    ok = result[0] if isinstance(result, tuple) else result
    return int(bool(ok))


def _heuristic(args, result) -> int:
    reports = result if isinstance(result, list) else [result]
    return sum(r.certified == "heuristic" for r in reports)


# layer -> {counter: fn(args, result) -> int}, added up per call.
EXTRA: dict[str, dict[str, Callable]] = {
    "numeric.compile": {"entries": lambda args, result: args[0].n_entries},
    "numeric.kernel": {"rows": _batch_rows},
    "solvers.checks.rational": {"passed": _passed},
    "solvers.checks.nash": {"passed": _passed},
    "solvers.search.enum": {"classes": lambda args, result: len(result),
                            "heuristic": _heuristic},
    "solvers.search.opt": {"results": lambda args, result: 1,
                           "heuristic": _heuristic},
}


class LayerStats:
    __slots__ = ("calls", "self_s", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.counters: dict[str, int] = {}

    def as_dict(self) -> dict:
        return {"calls": self.calls, "s": self.self_s, **self.counters}


class Tracer:
    """Wraps the functions in LAYERS while installed; ``stats`` holds the
    per-layer totals of the calls made while ``enabled``."""

    def __init__(self) -> None:
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.enabled = True  # off while the benchmark checks answers
        self._open: list[float] = []  # child time accumulated per open span
        self._swaps: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        extra = EXTRA.get(layer, {})
        open_spans = self._open
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            start = clock()
            open_spans.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stats = tracer.stats[layer]
                stats.calls += 1
                stats.self_s += elapsed - child
            for name, count in extra.items():
                stats.counters[name] = stats.counters.get(name, 0) + count(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        if self._swaps:
            raise RuntimeError("tracer already installed")
        for targets in LAYERS.values():
            for module_name, _ in targets:
                importlib.import_module(module_name)
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "irgames" or name.startswith("irgames.")
        ]
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                module = sys.modules[module_name]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._swap(owner, attr, original, self._wrap(layer, original))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(layer, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._swap(m, attr, original, wrapper)

    def _swap(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._swaps.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._swaps:
            owner, attr, original = self._swaps.pop()
            setattr(owner, attr, original)
