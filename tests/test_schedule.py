"""The batched schedule check behind ``edt_rational_check`` and
``cdt_rational_check`` against a scalar reference: one profile per
schedule step, infoset reach/frequency by tree walks, exact gradients and
best deviations per infoset.  The best deviations and the batched EDT row
gains are also checked against whole-tree walks at the maximiser and on a
simplex grid."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import irgames.solvers as solvers
from irgames.generators import gen_random
from irgames.solvers import (
    _SCHEDULE,
    _SCHEDULE_SAFETY,
    SolverConfig,
    _edt_gains,
    _schedule_check,
    best_deviation,
)
from irgames.numeric import simplex_grid
from irgames.strategies import (
    BehavioralStrategy,
    deviate,
    expected_utility,
    infoset_frequency,
    infoset_gradient,
    infoset_reach,
    profile_from,
)

PROPERTY = settings(derandomize=True, max_examples=20, deadline=None)
CFG = SolverConfig()

# Absentminded rows with three actions take the row ascent, about 5 ms a
# best_deviation call on the reference side; random draws keep two actions
# there, and one explicit example below covers three.
games = st.builds(
    lambda depth, branching, merge, chance, am, seed: gen_random(
        depth, 2 if am else branching, merge, chance, am, seed),
    depth=st.integers(2, 3),
    branching=st.integers(2, 3),
    merge=st.sampled_from([0.5, 0.9]),
    chance=st.sampled_from([0.0, 0.3]),
    am=st.booleans(),
    seed=st.integers(0, 10_000),
)


def make_strategy(game, kind: str, seed: int) -> BehavioralStrategy:
    rng = np.random.default_rng(seed)
    table = {}
    for iid, iset in game.infosets[1].items():
        n = len(iset.actions)
        if kind == "uniform":
            row = np.full(n, 1.0 / n)
        elif kind == "pure":
            row = np.eye(n)[rng.integers(n)]
        else:
            row = rng.dirichlet(np.ones(n))
        table[iid] = tuple(float(p) for p in row)
    return BehavioralStrategy(1, table)


def reference_trace(game, strategy, concept: str) -> tuple[list, list]:
    """Worst normalized incentive per schedule step, and a bound on its
    rounding error: the EDT gain is a difference of two utilities, so its
    error scales with the utility, not with the gain, before the division
    by a reach that may be tiny."""
    trace, slack = [], []
    for delta in _SCHEDULE:
        table = {
            iid: tuple((1.0 - delta) * p + delta / len(row) for p in row)
            for iid, row in strategy.table.items()
        }
        prof = profile_from(BehavioralStrategy(1, table))
        worst, err = 0.0, 0.0
        for iid in game.infosets[1]:
            if concept == "EDT":
                norm = float(infoset_reach(game, prof, iid))
                val, _ = best_deviation(game, prof, 1, iid)
                base = float(expected_utility(game, prof, 1))
                gain, scale = float(val) - base, abs(base) + abs(float(val))
            else:
                norm = float(infoset_frequency(game, prof, iid))
                v = [float(g) for g in infoset_gradient(game, prof, 1, iid)]
                gain = max(v) - sum(p * g for p, g in zip(table[iid], v))
                scale = len(v) * max(abs(g) for g in v)
            if norm > 0.0:
                worst = max(worst, gain / norm)
                err = max(err, 16 * np.finfo(float).eps * scale / norm)
        trace.append(worst)
        slack.append(err)
    return trace, slack


def reference_accepts(trace: list[float]) -> bool:
    head = [e / d for e, d in zip(trace[:5], _SCHEDULE[:5])]
    slope = _SCHEDULE_SAFETY * max(head, default=0.0)
    return all(e <= max(CFG.eps_eq, slope * d) for e, d in zip(trace, _SCHEDULE))


@pytest.mark.parametrize("concept", ["EDT", "CDT"])
@PROPERTY
@example(game=gen_random(2, 3, 0.9, 0.0, True, 3), kind="pure", seed=0)
@given(game=games, kind=st.sampled_from(["uniform", "pure", "dirichlet"]),
       seed=st.integers(0, 10_000))
def test_schedule_check_matches_scalar_reference(concept, game, kind, seed):
    strategy = make_strategy(game, kind, seed)
    ok, trace = _schedule_check(
        game.numeric, game.numeric.index.vector(profile_from(strategy)), 1,
        CFG, concept)
    want, slack = reference_trace(game, strategy, concept)
    assert np.all(np.abs(trace - want) <= 1e-9 * np.abs(want) + slack)
    assert ok == reference_accepts(want)


# Every row kind (no absentmindedness, absentminded with two and with three
# actions) occurs among the draws and the examples; three-action games stay
# at depth 2, where the simplex grid's whole-tree walks are cheap.
row_games = st.builds(
    lambda branching, merge, chance, am, seed: gen_random(
        3 if branching == 2 else 2, branching, merge, chance, am, seed),
    branching=st.integers(2, 3),
    merge=st.sampled_from([0.5, 0.9]),
    chance=st.sampled_from([0.0, 0.3]),
    am=st.booleans(),
    seed=st.integers(0, 10_000),
)


@PROPERTY
@example(game=gen_random(2, 3, 0.9, 0.0, True, 3), seed=0)
@example(game=gen_random(2, 3, 0.5, 0.3, True, 0), seed=0)  # interior maximum
@example(game=gen_random(3, 2, 0.9, 0.0, True, 1), seed=0)
@example(game=gen_random(3, 3, 0.5, 0.3, False, 2), seed=0)
@given(game=row_games, seed=st.integers(0, 10_000))
def test_best_deviations_are_attained_and_beat_the_simplex_grid(game, seed):
    strategies = [make_strategy(game, kind, seed)
                  for kind in ("uniform", "pure", "dirichlet")]
    num = game.numeric
    X = np.array([num.index.vector(profile_from(s)) for s in strategies])
    live = np.ones((len(X), len(num.index.rows)), dtype=bool)
    got = _edt_gains(num, X, 1, live)
    # Blocks of the batch are independent: one profile per block agrees.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_ROW_BLOCK_FLOATS", 1)
        assert np.array_equal(_edt_gains(num, X, 1, live), got)
    for b, strategy in enumerate(strategies):
        prof = profile_from(strategy)
        base = float(expected_utility(game, prof, 1))
        for j, row in enumerate(num.index.rows):
            value, sigma = best_deviation(game, prof, 1, row.infoset_id)
            value = float(value)
            # Values are sums of non-negative terms: rounding is relative.
            tol = 1e-9 * (value + base)
            # The value is attained: a whole-tree walk at sigma gives it.
            walked = float(expected_utility(game, deviate(prof, row.infoset_id, sigma), 1))
            assert abs(walked - value) <= tol
            # It is a maximum: no vertex and no grid point does better.
            for point in simplex_grid(row.size, 16):
                other = deviate(prof, row.infoset_id, tuple(point.tolist()))
                assert float(expected_utility(game, other, 1)) <= value + tol
            # The batched gain reads the same maximum.
            assert abs(got[b, j] - (value - base)) <= tol
