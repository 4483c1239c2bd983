"""Solution concepts for imperfect-recall games.

Covers optimal strategies in single-player games, single-infoset-deviation
(EDT) and stationarity (CDT/KKT) equilibrium checks, the limit-based
rationality refinements and the Nash-style equilibrium refinements built on
them, best-response verification against exact solves, and small-game
equilibrium enumeration with best/worst selection.

Computation policy, in one place:

* games without absentmindedness admit pure optima, so optimal play is
  found in sequence form when the player has perfect recall (one
  bottom-up pass over the player's own histories), and otherwise
  by exhaustive pure enumeration: every pure value at once, as one matrix
  product of a front and a back half-table of the compiled leaf table
  (each half's pure assignments against the leaves), then each distinct
  reached-leaf set of the near-optimal slab is valued from ``Game.leaves``;
* with absentmindedness the utility is a polynomial over a product of
  simplices, whose maximiser is a KKT point, so optimal play seeds the
  uniform profile, random vertices and mixed profiles, a grid and, where
  they are few, every pure profile, polishes them all by the projected
  gradient dynamics of the CDT candidate stage (``_gradient_polish``, one
  moving player), then snaps the best polished point to exact fractions
  when that does not lose value.  Above ``_PURE_CAP`` pure strategies, a
  game without absentmindedness takes this path without the grid;
* equilibrium enumeration runs in two stages.  The candidate stage seeds
  pure/grid/random profiles, polishes them, keeps the profiles whose
  residual clears the tolerance, and dedups them by realization
  equivalence, comparing leaf reaches.  It depends only on the concept's
  polish family: EDT, NASH and EDT-NASH polish by best-response dynamics
  (``_br_polish``) and keep EDT residuals, CDT and CDT-NASH polish by
  gradient dynamics and keep KKT residuals.  Its classes are kept in
  ``Game.memo`` under the key (family, ``SolverConfig``), so every
  concept of a family in one game shares one run.  The filter stage
  reads each class's utilities, place in Player 1's utility order and
  admission residual from the candidate stage; the EDT-NASH and CDT-NASH
  filters test only rationality.  It filters every class when
  enumerating, and lazily for best/worst selection, which walks the same
  order from the requested end and stops at the first that passes: an end
  of the enumeration.  Flags on every report say how much certainty was
  earned;
* every solver and every EDT and KKT check reads the game's one compiled
  float table, ``Game.numeric``, through the batched residual kernels
  (``_edt_residuals``, ``numeric.kkt_gaps``); only ``best_deviation``
  keeps an exact vertex scan.  The rationality checks name a polish
  family, which ``_schedule_check`` alone pairs with its gains and
  normaliser (EDT gains over first-visit reach, CDT gains over visits).
  The Nash-refinement filters check each player in place on the table:
  the other players' rows stay fixed, each witness overwrites the
  player's unreached rows, one batch holds the whole mixing schedule,
  and reach, visit frequency and the CDT and EDT gains are read from its
  kernels: an EDT gain from the gradient on rows without
  absentmindedness, and from the maximum of the row polynomial on
  absentminded rows.  Only the witness builder reads ``_WITNESS_CAP``,
  and a rejection is the cap's only when the failing player's search was
  cut;
* one maximiser of a row polynomial over the simplex, ``_max_row`` (the
  best vertex on an affine row, bracketed Newton for two actions, a
  scale-free projected ascent for three or more), serves the batched EDT
  gains, the best-response polish, which moves every row of every seed to
  its maximiser, pure or mixed, for any number of players, and, on a batch
  of one, ``best_deviation``;
* the parts of the verification policy with one value in use are module
  constants, not options: the polish iteration cap (``_POLISH_ITERS``),
  the rationality schedule and its slope safety factor (``_SCHEDULE``,
  ``_SCHEDULE_SAFETY``), the realization-dedup tolerance (``_DEDUP_TOL``),
  the pure-enumeration cap of optimal play (``_PURE_CAP``), the snapping
  denominator (``_SNAP_DENOMINATOR``), the support tolerance
  ``numeric.SUPP_TOL``, and the caps on exhaustive work: the pure and grid
  seeds of enumeration and optimal play
  (``_ENUM_PURE_CAP``/``_ENUM_PURE_SAMPLES``,
  ``_GRID_CAP``/``_GRID_SAMPLES``), the enumerable strategy dimension
  (``_ENUM_DIM_CAP``) and the rationality witness search
  (``_WITNESS_CAP``); every report a cap cut says so.  No caller but a
  test sets another value, and an option would still have to be tested
  and would join every ``Game.memo`` key.  Functions read the constants
  when called, so a test can patch them; the memo keys do not carry them,
  so a patched run needs a fresh game.  ``SolverConfig`` holds only the
  CLI's flags; it and the two solver errors live in the numpy-free
  ``irgames.config``, so that the CLI can build its parser and handle
  errors without loading this module, and are re-exported here;
* enumeration certifies nothing: seeding every grid point bounds no
  extremum, so every enumeration report is ``heuristic``.  Optimal play
  on a full grid is ``grid-certified``, with a Lipschitz gap bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .config import (
    DEFAULT_CONFIG,
    CapExceededError,
    EquilibriumNotFoundError,
    SolverConfig,
    _cfg,
)
from .game import Game, Num, has_absentmindedness
from .numeric import (
    SUPP_TOL,
    FlatIndex,
    NumericGame,
    Row,
    _project_simplex,
    kkt_gaps,
    project_rows,
    simplex_grid,
)
from .recall import has_perfect_recall, own_histories
from .strategies import (
    BehavioralStrategy,
    StrategyProfile,
    expected_utility,
    fix_opponents,
    node_reach_map,
    profile_from,
    pure_strategy,
    infoset_gradient,
    infoset_terms,
)

# The fixed verification policy (see the module docstring).
_POLISH_ITERS = 200
_SCHEDULE = tuple(2.0 ** -k for k in range(1, 21))
_SCHEDULE_SAFETY = 2.0
_DEDUP_TOL = 1e-6
_PURE_CAP = 200_000
_SNAP_DENOMINATOR = 4096
_ENUM_PURE_CAP = 4096
_ENUM_PURE_SAMPLES = 200
_GRID_CAP = 5_000
_GRID_SAMPLES = 256
_ENUM_DIM_CAP = 512
_WITNESS_CAP = 256


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve: profile, utilities, residual, and an honest
    certification flag (exact / grid-certified(...) / heuristic)."""

    concept: str
    which: str
    profile: StrategyProfile
    utilities: tuple
    residual: float
    certified: str
    notes: tuple[str, ...] = ()

    @property
    def u1(self) -> Num:
        return self.utilities[0]


# ---------------------------------------------------------------------------
# Optimal strategies (single-player)
# ---------------------------------------------------------------------------


def optimal_strategy(game: Game, cfg: Optional[SolverConfig] = None) -> SolveReport:
    """Best achievable play in a single-player game.

    Without absentmindedness a pure optimum exists, so the answer is exact:
    in sequence form under perfect recall, otherwise by vectorized pure
    enumeration, whose reached-leaf sets are valued from ``Game.leaves``.
    With absentmindedness the polynomial utility is attacked by a seeded
    grid scan plus multistart projected ascent; the best polished point is
    snapped to exact fractions when doing so loses nothing.
    The report is solved once per game and ``SolverConfig`` and kept in
    ``game.memo``.
    """
    cfg = _cfg(cfg)
    if game.players != 1:
        raise ValueError("optimal_strategy expects a single-player game; "
                         "use fix_opponents first")
    key = ("optimal strategy", cfg)
    if key not in game.memo:
        game.memo[key] = _solve_opt(game, cfg)
    return game.memo[key]


def _solve_opt(game: Game, cfg: SolverConfig) -> SolveReport:
    # Perfect recall rules out absentmindedness: a member's own history
    # strictly extends that of every member above it.
    if has_perfect_recall(game, 1):
        value, strategy = _perfect_recall_dp(game)
    elif not has_absentmindedness(game, 1) and math.prod(
            len(i.actions) for i in game.infosets.get(1, {}).values()) <= _PURE_CAP:
        value, strategy = _pure_enumeration_opt(game)
    else:
        return _numeric_opt(game, cfg)
    return SolveReport(
        concept="OPT", which="any", profile=profile_from(strategy),
        utilities=(value,), residual=0.0, certified="exact",
    )


def _perfect_recall_dp(game: Game) -> tuple[Num, BehavioralStrategy]:
    """Exact optimal value in sequence form: one bottom-up pass over the
    player's own histories.

    Under perfect recall the members of an infoset share one own history,
    the one it is decided at.  A history's value is the chance reach times
    utility of its terminals plus, for each infoset decided there, the
    best value among the histories its actions extend it to.  A step is
    numbered after its parent history, so one pass from the last history
    down to the empty one (-1) decides every infoset below a history
    before the history itself; ties take the first action.
    """
    history, steps = own_histories(game, 1)
    step_id = {step: h for h, step in enumerate(steps)}
    decided: dict[int, list] = {}
    for iset in game.infosets.get(1, {}).values():
        decided.setdefault(history[iset.nodes[0]][0], []).append(iset)
    # Chance-only reach of every node: every player action weighs 1.
    weights = node_reach_map(game, StrategyProfile(strategies=tuple(
        BehavioralStrategy(p, {i: (1,) * len(iset.actions) for i, iset in own.items()})
        for p, own in game.infosets.items()
    )))
    value: dict[int, Num] = dict.fromkeys(range(-1, len(steps)), Fraction(0))
    for nid, (h, _) in history.items():
        if game.nodes[nid].is_terminal:
            value[h] += weights[nid] * game.utilities[nid][0]
    choice: dict[str, int] = {}
    for h in range(len(steps) - 1, -2, -1):
        for iset in decided.get(h, ()):
            row = [value[step_id[h, iset.id, a]] for a in iset.actions]
            choice[iset.id] = row.index(max(row))
            value[h] += row[choice[iset.id]]
    return value[-1], pure_strategy(game, 1, choice)


# Slab members whose reached-leaf masks are built at a time, so the exact
# valuation holds (block, leaves) arrays, never a (slab, leaves) mask.
_PURE_BLOCK = 4096


def _pure_enumeration_opt(game: Game) -> tuple[Num, BehavioralStrategy]:
    """Exhaustive exact maximum over pure strategies.

    The rows, in flattened order, are cut into a front and a back part
    (``_front_rows``), so the ``itertools.product`` index of a strategy is
    ``i_front * n_back + i_back``.  A leaf is reached iff both halves take
    its entries' actions, so every pure value, in index order, is one
    product of the front's (T_front, Z) chance-weighted reach and the
    back's (T_back, Z) reach mask.  Each distinct reached-leaf set of the
    near-optimal slab is then valued exactly from ``Game.leaves``, as the
    sum of chance times utility over its leaves, and one pure strategy is
    built, for the winner.
    """
    num = game.numeric
    rows = num.index.rows
    k = _front_rows([r.size for r in rows])
    front = _part_reach(num, rows[:k])
    back = _part_reach(num, rows[k:])
    values = ((front * (num.coef * num.utils[:, 0])) @ back.T).ravel()
    top = values.max()
    slab = np.nonzero(values >= top - 1e-9 - 1e-9 * abs(top))[0]

    # Pure strategies that reach the same leaves have the same exact value,
    # so each reached set is valued once, at its first index.  Indices are
    # in lexicographic order: the first exact maximum wins ties, and so
    # each block's ``np.unique`` first places are taken in index order.
    first: dict[bytes, int] = {}
    for lo in range(0, len(slab), _PURE_BLOCK):
        ids = slab[lo : lo + _PURE_BLOCK]
        packed = np.packbits(front[ids // len(back)] & back[ids % len(back)], axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]
        for j in np.sort(np.unique(keys, return_index=True)[1]):
            first.setdefault(keys[j].tobytes(), ids[j])
    terms = [leaf.chance * game.utilities[z][0] for z, leaf in game.leaves.items()]
    best_val, best = None, None
    for key, i in first.items():
        reached = np.unpackbits(np.frombuffer(key, np.uint8), count=len(terms))
        v = sum((terms[z] for z in np.flatnonzero(reached)), start=Fraction(0))
        if best_val is None or v > best_val:
            best_val, best = v, i
    actions = _pure_assignments(num.index, [best])[0]
    return best_val, pure_strategy(game, 1, {r.infoset_id: int(a) for r, a in zip(rows, actions)})


def _front_rows(sizes: Sequence[int]) -> int:
    """The number of leading rows in the front part: the cut that keeps
    the larger part's strategy count smallest."""
    return min(range(len(sizes) + 1),
               key=lambda k: max(math.prod(sizes[:k]), math.prod(sizes[k:])))


def _part_reach(num: NumericGame, rows: Sequence[Row]) -> np.ndarray:
    """(T, Z) reach masks of the T pure assignments of ``rows``, in
    ``itertools.product`` order: a leaf is reached iff each of its entries
    on these rows takes the assignment's action.  Chance plays no part, so
    a leaf whose float chance coefficient underflows to 0 keeps its mask."""
    X = np.ones((1, num.index.dim))
    for r in rows:
        X = np.repeat(X, r.size, axis=0)
        X[:, r.offset : r.offset + r.size] = np.tile(np.eye(r.size), (len(X) // r.size, 1))
    # A leaf is reached iff none of its entries is missed.
    missed = np.zeros((num.n_leaves, len(X)), dtype=bool)
    np.logical_or.at(missed, num.ent_leaf, X[:, num.ent_coord].T == 0)
    return ~missed.T


def _pure_assignments(index: FlatIndex, ids) -> np.ndarray:
    """(T, rows) actions of the pure strategies with the given indices, in
    the lexicographic order of ``itertools.product`` over the rows."""
    sizes = [r.size for r in index.rows]
    if not sizes:
        return np.zeros((len(ids), 0), dtype=np.intp)
    return np.stack(np.unravel_index(ids, sizes), axis=1)


def _numeric_opt(game: Game, cfg: SolverConfig) -> SolveReport:
    """Multistart gradient polish for absentminded games, seeded with a
    grid, and for games with too many pure strategies to enumerate.  The
    best polished point is snapped to small fractions and valued exactly
    once; the snap is kept when that loses nothing."""
    num = game.numeric
    rng = cfg.rng()
    seeds = [num.index.uniform()[None],
             _random_vertices(num.index, rng, min(cfg.multistart, 16)),
             _random_mixed(num.index, rng, cfg.multistart)]

    certified, notes = "heuristic", ("pure enumeration cap exceeded",)
    if has_absentmindedness(game, 1):
        grid_pts, grid_full = _grid_points(num.index, cfg, rng)
        seeds.append(grid_pts)
        if grid_full:
            certified = f"grid-certified(delta=1/{cfg.grid_resolution})"
            # Utility times own-path length, summed over the leaves: a sound
            # bound on the utility change per unit sup-norm strategy change.
            steps = np.bincount(num.ent_leaf, num.ent_count, minlength=num.n_leaves)
            lip = float((num.coef * num.utils[:, 0] * steps).sum())
            notes = (f"grid gap bound {lip / cfg.grid_resolution:.6g}",)
        else:
            notes = (_sampled_note("grid_cap", _GRID_CAP, len(grid_pts), "grid points"),)

    # Every pure profile, where they are few: the random vertices can miss a
    # pure optimum.
    total = math.prod(r.size for r in num.index.rows)
    if total <= _ENUM_PURE_CAP:
        seeds.append(_one_hot(num.index, _pure_assignments(num.index, np.arange(total))))

    X, gaps = _gradient_polish(num, np.concatenate(seeds))
    vals = num.utility(X, 1)
    best = np.argsort(-vals)[0]
    value = float(vals[best])
    snapped = _snap_vector(num.index, X[best]) if game.is_rational else None
    exact = None if snapped is None else expected_utility(game, snapped, 1)
    if exact is not None and float(exact) >= value - 1e-11:
        value, profile = exact, snapped
        residual = float(num.kkt_residuals(num.index.vector(profile)[None])[0])
    else:
        profile, residual = num.index.profile(X[best]), float(gaps[best])

    return SolveReport(
        concept="OPT", which="any", profile=profile,
        utilities=(value,), residual=residual, certified=certified, notes=notes,
    )


def _sampled_note(cap: str, value: int, count: int, what: str) -> str:
    return f"{cap}={value} exceeded: sampled {count} {what}"


def _one_hot(index: FlatIndex, actions: np.ndarray) -> np.ndarray:
    """(T, R) pure profiles from their (T, rows) action indices."""
    X = np.zeros((len(actions), index.dim))
    offsets = np.array([r.offset for r in index.rows], dtype=np.intp)
    X[np.arange(len(actions))[:, None], offsets + actions] = 1.0
    return X


def _random_vertices(index: FlatIndex, rng, count: int) -> np.ndarray:
    """(count, R) uniformly random pure profiles, one draw per row in
    flattened order."""
    sizes = [r.size for r in index.rows]
    return _one_hot(index, rng.integers(sizes, size=(count, len(sizes))))


def _random_mixed(index: FlatIndex, rng, count: int) -> np.ndarray:
    """(count, R) uniformly random mixed profiles, every row a flat
    Dirichlet draw.  Per row, ``rng.dirichlet(ones)`` draws standard
    exponentials and multiplies each by one over their sum, added left to
    right; this draws every row at once and normalises the same way (a
    ``cumsum`` adds in that order, a pairwise ``sum`` need not)."""
    X = rng.standard_exponential((count, index.dim))
    for coords in index.rows_by_size:
        V = X[:, coords]
        X[:, coords] = V * (1.0 / V.cumsum(axis=-1)[..., -1:])
    return X


def _grid_points(index: FlatIndex, cfg: SolverConfig, rng) -> tuple[np.ndarray, bool]:
    """Full product simplex grid when affordable, else a seeded sample.
    The full grid lists its points in ``itertools.product`` order over the
    rows' grids."""
    m = cfg.grid_resolution
    sizes = np.array([row.size for row in index.rows], dtype=np.intp)
    counts = [math.comb(m + size - 1, size - 1) for size in sizes]
    total = math.prod(counts) if counts else 1
    if total <= _GRID_CAP:
        combos = np.indices(counts).reshape(len(counts), total)
        pts = np.empty((total, index.dim))
        for row, i in zip(index.rows, combos):
            pts[:, row.offset : row.offset + row.size] = simplex_grid(row.size, m)[i]
        return pts, True
    # One multinomial draw per sample and row, in flattened order.  Each
    # row's uniform probabilities end a zero-padded row of P: a part of
    # probability zero draws no random number, so the draws are those of a
    # multinomial over the row alone.
    width = int(sizes.max())
    P = np.zeros((len(sizes), width))
    for j, size in enumerate(sizes):
        P[j, width - size :] = 1.0 / size
    comps = rng.multinomial(m, P, size=(_GRID_SAMPLES, len(sizes)))
    pts = np.empty((_GRID_SAMPLES, index.dim))
    for coords in index.rows_by_size:
        size = coords.shape[1]
        pts[:, coords] = comps[:, sizes == size, width - size :] / m
    return pts, False


def _snap_vector(index: FlatIndex, x: np.ndarray) -> Optional[StrategyProfile]:
    """Player 1's profile with each row of ``x`` rounded to nearby small
    fractions summing exactly to one, or None when a row moves too far."""
    table = {}
    for row in index.rows:
        block = x[row.offset : row.offset + row.size]
        snapped = [Fraction(float(v)).limit_denominator(_SNAP_DENOMINATOR) for v in block]
        snapped[-1] = 1 - sum(snapped[:-1])
        if any(p < 0 or p > 1 or abs(float(p) - float(v)) > 1e-4
               for p, v in zip(snapped, block)):
            return None
        table[row.infoset_id] = tuple(snapped)
    return profile_from(BehavioralStrategy(1, table))


# ---------------------------------------------------------------------------
# EDT incentives and checks
# ---------------------------------------------------------------------------


def best_deviation(game: Game, profile: StrategyProfile, player: int,
                   infoset_id: str) -> tuple[Union[Num, float], tuple]:
    """Value and maximizer of sigma -> U(profile deviated to sigma at the
    infoset).  An exact vertex scan; on an absentminded infoset, the float
    maximum of the row polynomial (:func:`_max_row`) where it beats the
    best vertex."""
    # U(sigma) = const + sum_k c_k prod_a sigma_a ** e_k[a]: ``const`` is
    # what the leaves that do not visit the infoset contribute.
    terms = infoset_terms(game, profile, player, infoset_id)
    row = profile[player].row(infoset_id)
    const = expected_utility(game, profile, player)
    for c, exps in terms:
        for q, e in zip(row, exps):
            c = c * q ** e
        const = const - c
    n = len(row)

    # At a vertex, a term survives iff its leaf only takes that action here.
    vertex = [const] * n
    for c, exps in terms:
        taken = [a for a, e in enumerate(exps) if e]
        if len(taken) == 1:
            vertex[taken[0]] = vertex[taken[0]] + c
    a = max(range(n), key=vertex.__getitem__)
    best_val, best_sigma = vertex[a], tuple(Fraction(int(j == a)) for j in range(n))
    if not terms or infoset_id not in game.absentminded[player]:
        return best_val, best_sigma

    # The float optimum must beat the exact vertex by more than rounding.
    # Every value here is a sum of non-negative terms, so its rounding error
    # is relative to the value: an absolute margin hides the gains of rows
    # whose values are far below 1 (2^-200 on gen_lenny(200)).
    C = np.array([[float(c) for c, _ in terms]])
    E = np.array([exps for _, exps in terms], dtype=float)
    vals, sigmas = _max_row(C, E)
    val = float(const) + float(vals[0])
    if val > float(best_val) * (1 + 1e-15):
        return val, tuple(sigmas[0].tolist())
    return best_val, best_sigma


# Profiles per block of a row-polynomial batch: the maximisers' largest
# temporaries hold about K (K + 64) floats per profile for two actions
# (phi on the grid) and K (n + 1) n^2 for n actions (the ascent's partials),
# K the row's visiting leaves; a block keeps them near this many floats.
_ROW_BLOCK_FLOATS = 2 ** 20


def _row_gains(num: NumericGame, X: np.ndarray, row: Row) -> np.ndarray:
    """(B,) best gain from replacing the absentminded ``row`` of every
    profile of the batch by a randomized action: the maximum of its row
    polynomial on the simplex minus its value at the batch."""
    C, E = num.row_polynomial(X, row)
    return _max_row(C, E)[0] - _row_values(C, E, X[:, row.offset : row.offset + row.size])


def _blockwise(fn: Callable, C: np.ndarray, floats_per_profile: int,
               *args) -> tuple[np.ndarray, ...]:
    """The arrays ``fn(C[block], *args)`` returns, over blocks of the
    batch's profiles, so that a block's temporaries hold about
    ``_ROW_BLOCK_FLOATS`` floats."""
    block = max(1, _ROW_BLOCK_FLOATS // max(1, floats_per_profile))
    parts = [fn(C[lo : lo + block], *args) for lo in range(0, len(C), block)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _row_values(C: np.ndarray, E: np.ndarray, S: np.ndarray) -> np.ndarray:
    """(B,) values sum_k C[b, k] prod_a S[b, a] ** E[k, a]."""
    return (C * np.prod(S[:, None, :] ** E, axis=2)).sum(axis=1)


def _max_row(C: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B,) maxima and (B, n) maximisers over the simplex of the row
    polynomials sum_k C[b, k] prod_a s_a ** E[k, a], C >= 0: the one
    maximiser behind ``best_deviation``, the batched EDT gains and the
    best-response polish.

    A row every term visits once is affine, so its maximum is the best
    vertex of C @ E (the first, on ties); so is a one-action row's, its
    one point, where every term is worth C_k.  Otherwise each distinct row
    of C is maximised once, since the polish's seeds share few row
    polynomials; three or more actions take :func:`_max_row_ascent`.

    Two actions, s -> sum_k C_k s^P_k (1-s)^Q_k: each term rises up to its
    maximizer P_k/(P_k+Q_k) and falls after it, so the sum rises below the
    smallest live maximizer and falls above the largest.  The candidates
    are the ends, the term maximizers and, where the live maximizers
    differ, the interior maxima between them (:func:`_two_action_interior`).
    """
    K, n = E.shape
    if n == 1 or (E.sum(axis=1) == 1).all():
        values = C @ np.minimum(E, 1.0)
        pick = values.argmax(axis=1)
        return values[np.arange(len(C)), pick], np.eye(n)[pick]
    C, inverse = np.unique(C, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    if n > 2:
        best, s = _blockwise(_max_row_ascent, C, K * (n + 1) * n * n, E)
        return best[inverse], s[inverse]
    P, Q = E.T
    peaks = P / (P + Q)
    ends = np.concatenate([[0.0, 1.0], peaks])
    values = C @ np.prod(np.stack([ends, 1.0 - ends], axis=1)[:, None, :] ** E, axis=2).T
    pick = values.argmax(axis=1)
    best, s = values[np.arange(len(C)), pick], ends[pick]
    live = C > 0
    spread = np.nonzero(np.where(live, peaks, 0.0).max(axis=1, initial=0.0)
                        > np.where(live, peaks, 1.0).min(axis=1, initial=1.0))[0]
    if len(spread):
        inner, at = _blockwise(_two_action_interior, C[spread], K * (K + 64), P, Q)
        better = inner > best[spread]
        best[spread[better]], s[spread[better]] = inner[better], at[better]
    return best[inverse], np.stack([s, 1.0 - s], axis=1)[inverse]


def _two_action_interior(C: np.ndarray, P: np.ndarray, Q: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """(B,) largest value at an interior maximum and its s, for profiles
    whose live term maximizers differ (0 and 1/2 where there is none).

    phi(s) = s (1-s) f'(s) / f(s) has the sign of f'; with w_k the terms
    scaled by the largest, it is the w-weighted mean of P_k - (P_k+Q_k) s,
    which is read term by term: expanded coefficients cancel
    catastrophically at high degree.  Every + to - sign change of phi on a
    grid through the live maximizers is refined by Newton inside its
    bracket, the brackets of the whole batch at once.
    """
    E = np.stack([P, Q], axis=1)
    peaks = P / (P + Q)
    live = C > 0
    lo = np.where(live, peaks, 1.0).min(axis=1, keepdims=True)
    hi = np.where(live, peaks, 0.0).max(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        logc = np.log(C)  # dead terms weigh exp(-inf) = 0
    # Live maximizers strictly inside (lo, hi) join the grid; the others
    # are replaced by the midpoint, any point inside serving as well.
    between = live & (peaks > lo) & (peaks < hi)
    t = np.sort(np.concatenate([lo + (hi - lo) * np.linspace(0.0, 1.0, 65)[1:-1],
                                np.where(between, peaks, 0.5 * (lo + hi))],
                               axis=1), axis=1)
    logs = logc[:, None, :] + P * np.log(t)[..., None] + Q * np.log1p(-t)[..., None]
    w = np.exp(logs - logs.max(axis=2, keepdims=True))
    phi = (w * (P - (P + Q) * t[..., None])).sum(axis=2) / w.sum(axis=2)
    ones = np.ones((len(C), 1))
    phis = np.concatenate([ones, phi, -ones], axis=1)
    grid = np.concatenate([lo, t, hi], axis=1)
    change = (phis[:, :-1] > 0) & (phis[:, 1:] <= 0)
    # f rises at lo and falls at hi, but an end at 0 or 1 is a candidate
    # already and phi is 0 there: its cell brackets a maximum only where f
    # rises off 0 (f'(0) > 0) or falls into 1 (f'(1) < 0).  Otherwise
    # Newton would spend its whole budget chasing the end.
    change[:, 0] &= (lo[:, 0] > 0) | (C @ ((P == 1) - Q * (P == 0)) > 0)
    change[:, -1] &= (hi[:, 0] < 1) | (C @ ((Q == 1) - P * (Q == 0)) > 0)
    m, i = np.nonzero(change)
    a, b = grid[m, i], grid[m, i + 1]
    x = a + (b - a) * (phis[m, i] / (phis[m, i] - phis[m, i + 1]))
    x = _newton_in_brackets(logc[m], P, Q, a, b, x)
    # Newton stops within an ulp or two: let the values decide.
    s = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)])
    m = np.tile(m, 3)
    v = _row_values(C[m], E, np.stack([s, 1.0 - s], axis=1))
    best, at = np.zeros(len(C)), np.full(len(C), 0.5)
    np.maximum.at(best, m, v)
    hit = v == best[m]
    at[m[hit]] = s[hit]
    return best, at


def _newton_in_brackets(logc: np.ndarray, P: np.ndarray, Q: np.ndarray,
                        a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Roots of phi, one per bracket (phi(a) > 0 >= phi(b)), from the
    starts ``x``, all brackets at once.  A step that would leave the
    bracket, or go uphill, halves it instead; a bracket stops when its
    step no longer moves it."""
    a, b, x = a.copy(), b.copy(), x.copy()
    active = np.ones(len(x), dtype=bool)
    for _ in range(100):
        k = np.nonzero(active)[0]
        if not len(k):
            break
        xk = x[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = logc[k] + P * np.log(xk)[:, None] + Q * np.log1p(-xk)[:, None]
            w = np.exp(logs - logs.max(axis=1, keepdims=True))
            tot = w.sum(axis=1)
            slope = P - (P + Q) * xk[:, None]
            phi = (w * slope).sum(axis=1) / tot
            dphi = (((w * slope * slope).sum(axis=1) / tot - phi * phi)
                    / (xk * (1.0 - xk)) - (w * (P + Q)).sum(axis=1) / tot)
            up = phi > 0
            a[k] = ak = np.where(up, xk, a[k])
            b[k] = bk = np.where(up, b[k], xk)
            mid = 0.5 * (ak + bk)
            new = np.where(dphi < 0, xk - phi / dphi, mid)
        stop = new == xk
        outside = ~((ak < new) & (new < bk))
        new = np.where(outside, mid, new)
        stop |= outside & ~((ak < mid) & (mid < bk))
        x[k] = np.where(stop, xk, new)
        active[k[stop]] = False
    return x


def _max_row_ascent(C: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B,) maxima and (B, n) maximisers of sum_k C[b, k] prod_a s_a ** E[k, a]
    over the simplex, by projected ascent from the uniform point and every
    vertex, up to 200 steps each.  Steps follow grad f / f, the gradient
    of log f, where f > 0, and the raw gradient where f = 0, and a step is
    kept when it gains relative to f: a row's scale (2^-120 on a chain of
    80 visits) then moves neither the steps nor the acceptance."""
    n = E.shape[1]
    starts = np.vstack([np.full(n, 1.0 / n), np.eye(n)])
    s = np.tile(starts, (len(C), 1))
    c = np.repeat(C, n + 1, axis=0)
    f = _row_values(c, E, s)
    # Exponents of each partial: one less in its own action, never below 0.
    lowered = np.maximum(E - np.eye(n)[:, None, :], 0.0)
    step = np.full(len(s), 0.25)
    active = np.ones(len(s), dtype=bool)
    for _ in range(200):
        k = np.nonzero(active)[0]
        if not len(k):
            break
        sk, fk = s[k], f[k, None]
        grad = np.einsum("bk,ak,bak->ba", c[k], E.T,
                         np.prod(sk[:, None, None, :] ** lowered, axis=3))
        np.divide(grad, fk, out=grad, where=fk > 0)
        cand = _project_simplex(sk + step[k, None] * grad)
        fc = _row_values(c[k], E, cand)
        up = fc > f[k] * (1 + 1e-14)
        s[k[up]], f[k[up]] = cand[up], fc[up]
        step[k] *= np.where(up, 1.3, 0.5)
        active[k[~up & (step[k] < 1e-10)]] = False
    top = f.reshape(len(C), n + 1).argmax(axis=1) + (n + 1) * np.arange(len(C))
    return f[top], s[top]


def edt_incentive(game: Game, profile: StrategyProfile, player: int,
                  infoset_id: str) -> float:
    """Best gain from replacing the whole randomized action at one infoset
    (applied at every visit), holding everything else fixed: the row's
    gain in :func:`_edt_gains`."""
    num = game.numeric
    rows = num.index.block[player][0]
    j = num.index.rows.index(num.index.row_of[(player, infoset_id)]) - rows.start
    live = np.arange(rows.stop - rows.start)[None] == j
    x = num.index.vector(profile)[None]
    return float(_edt_gains(num, x, player, live)[0, j])


def edt_check(game: Game, profile: StrategyProfile,
              cfg: Optional[SolverConfig] = None) -> tuple[bool, float]:
    """No single-infoset deviation may gain more than ``cfg.eps_eq``."""
    num = game.numeric
    residual = float(_edt_residuals(num, num.index.vector(profile)[None])[0])
    return residual <= _cfg(cfg).eps_eq, residual


def cdt_utility(game: Game, profile: StrategyProfile, player: int,
                infoset_id: str, sigma: Sequence[Num]) -> Num:
    """First-order (gradient-based) value a causal reasoner assigns to
    deviating to ``sigma`` at the infoset."""
    total = expected_utility(game, profile, player)
    row = profile[player].row(infoset_id)
    for s, q, g in zip(sigma, row, infoset_gradient(game, profile, player, infoset_id)):
        if s != q:
            total = total + (s - q) * g
    return total


def kkt_check(game: Game, profile: StrategyProfile, player: int,
              cfg: Optional[SolverConfig] = None) -> tuple[bool, float]:
    """Stationarity over the product of simplices: at every infoset the
    largest gradient entry must be attained on the support, up to
    ``cfg.eps_eq``.  Read by ``kkt_gaps`` from the player's partials; the
    other players' rows get zero partials, so gap zero."""
    num = game.numeric
    x = num.index.vector(profile)[None]
    block = num.index.block[player][1]
    G = np.zeros_like(x)
    G[:, block] = num.gradient(x, player)[1][:, block]
    residual = float(kkt_gaps(num.index, x, G)[0])
    return residual <= _cfg(cfg).eps_eq, residual


def kkt_check_profile(game: Game, profile: StrategyProfile,
                      cfg: Optional[SolverConfig] = None) -> tuple[bool, float]:
    """:func:`kkt_check` for every player."""
    num = game.numeric
    residual = float(num.kkt_residuals(num.index.vector(profile)[None])[0])
    return residual <= _cfg(cfg).eps_eq, residual


# ---------------------------------------------------------------------------
# Limit-based rationality (schedule verification) and Nash-style refinements
# ---------------------------------------------------------------------------


def _schedule_check(num: NumericGame, x: np.ndarray, player: int,
                    cfg: SolverConfig, family: str) -> tuple[bool, np.ndarray]:
    """Limit-based rationality of the player's rows of ``x`` in the polish
    ``family`` ("EDT" or "CDT"), verified along ``_SCHEDULE`` with the
    other rows fixed: mix them toward uniform at every rate delta at once,
    divide each of the player's incentives by its normaliser (an EDT gain
    by the infoset's first-visit reach, a CDT gain by its expected visit
    count), and accept when the worst quotient decays linearly in delta:
    fit the slope on the first points and demand the rest stay under it
    (or under the equilibrium tolerance).

    Returns the verdict and the (S,) worst-quotient trace it read.
    """
    gains, first_visit = (_edt_gains, True) if family == "EDT" else (_cdt_gains, False)
    rows, block = num.index.block[player]
    deltas = np.array(_SCHEDULE, dtype=float)
    X = np.tile(x, (len(deltas), 1))
    X[:, block] = ((1.0 - deltas[:, None]) * x[block]
                   + deltas[:, None] * num.index.uniform()[block])
    # Every row of X sums to one, so these are the reach and the frequency.
    visits = num.visits[:, rows]
    norm = num.leaf_probs(X) @ (visits > 0 if first_visit else visits)
    live = norm > 0.0
    ratios = np.divide(gains(num, X, player, live), norm,
                       out=np.zeros_like(norm), where=live)
    trace = ratios.max(axis=1, initial=0.0)
    slope = _SCHEDULE_SAFETY * (trace[:5] / deltas[:5]).max(initial=0.0)
    return bool(np.all(trace <= np.maximum(cfg.eps_eq, slope * deltas))), trace


def _edt_gains(num: NumericGame, X: np.ndarray, player: int,
               live: np.ndarray) -> np.ndarray:
    """(B, rows) best gain from replacing each of the player's rows, for a
    batch of profiles.  Each is computed as a gain, not as a difference of
    two utilities, which would lose its digits at infosets of tiny reach.

    A row without absentmindedness enters every leaf product at most once,
    so the utility is affine in the row and its best deviation is a pure
    action: the gain is the first-order gain of :func:`_cdt_gains`, every
    such row from one gradient call.  An absentminded row's gain, read
    where ``live``, is the maximum of its row polynomial on the simplex
    minus its value at the batch (:func:`_row_gains`).
    """
    out = _cdt_gains(num, X, player, live)
    absentminded = num.game.absentminded[player]
    for j, row in enumerate(num.index.rows[num.index.block[player][0]]):
        if row.infoset_id in absentminded and live[:, j].any():
            out[live[:, j], j] = _row_gains(num, X[live[:, j]], row)
    return out


def _edt_residuals(num: NumericGame, X: np.ndarray) -> np.ndarray:
    """(B,) largest gain from replacing any one row of any player, clamped
    at 0: ``edt_check``'s residual for a whole batch."""
    out = np.zeros(len(X))
    for player in range(1, num.game.players + 1):
        rows = num.index.block[player][0]
        if rows.start < rows.stop:
            live = np.ones((len(X), rows.stop - rows.start), dtype=bool)
            out = np.maximum(out, _edt_gains(num, X, player, live).max(axis=1))
    return out


def _cdt_gains(num: NumericGame, X: np.ndarray, player: int,
               live: np.ndarray) -> np.ndarray:
    """First-order gain at every infoset of the player: its largest
    gradient entry minus the row's average gradient entry."""
    rows, block = num.index.block[player]
    G = num.gradient(X, player)[1][:, block]
    starts = [r.offset - block.start for r in num.index.rows[rows]]
    return (np.maximum.reduceat(G, starts, axis=1)
            - np.add.reduceat(X[:, block] * G, starts, axis=1))


def edt_rational_check(game: Game, strategy: BehavioralStrategy,
                       cfg: Optional[SolverConfig] = None) -> bool:
    """Finite verification of the limit condition behind EDT rationality:
    the reach-normalized deviation gains must vanish linearly along the
    schedule."""
    return _schedule_check(game.numeric, game.numeric.index.vector(profile_from(strategy)),
                           1, _cfg(cfg), "EDT")[0]


def cdt_rational_check(game: Game, strategy: BehavioralStrategy,
                       cfg: Optional[SolverConfig] = None) -> bool:
    """Schedule verification of the frequency-normalized, first-order
    (CDT-utility) rationality condition."""
    return _schedule_check(game.numeric, game.numeric.index.vector(profile_from(strategy)),
                           1, _cfg(cfg), "CDT")[0]


def _rationality_witnesses(num: NumericGame, x: np.ndarray,
                           player: int) -> tuple[list[np.ndarray], bool]:
    """``x`` itself plus copies that overwrite the player's unreached rows
    (reach at most ``SUPP_TOL``) with uniform play or with every
    pure-action combination, the first ``_WITNESS_CAP`` of them; and
    whether the cap cut that list.

    All are realization-equivalent to ``x`` by construction, since only
    unreached infosets change.
    """
    rows = num.index.block[player][0]
    reach = num.leaf_probs(x[None])[0] @ (num.visits[:, rows] > 0)
    unreached = [row for row, r in zip(num.index.rows[rows], reach) if r <= SUPP_TOL]
    if not unreached:
        return [x], False

    def completion(rows) -> np.ndarray:
        w = x.copy()
        for row, probs in zip(unreached, rows):
            w[row.offset : row.offset + row.size] = probs
        return w

    pure = itertools.product(*[np.eye(row.size) for row in unreached])
    return ([x, completion([1.0 / row.size for row in unreached]),
             *map(completion, itertools.islice(pure, _WITNESS_CAP))],
            math.prod(row.size for row in unreached) > _WITNESS_CAP)


def _rational_per_player(num: NumericGame, x: np.ndarray, cfg: SolverConfig,
                         family: str) -> tuple[bool, bool]:
    """Whether, per player, with the opponents' rows held fixed, some
    witness for the player's rows passes the ``family``'s schedule check;
    and whether ``_WITNESS_CAP`` cut the witness search of the player who
    failed."""
    for p in range(1, num.game.players + 1):
        witnesses, cut = _rationality_witnesses(num, x, p)
        if not any(_schedule_check(num, w, p, cfg, family)[0] for w in witnesses):
            return False, cut
    return True, False


def edt_nash_check(game: Game, profile: StrategyProfile,
                   cfg: Optional[SolverConfig] = None) -> bool:
    """EDT equilibrium plus, per player, realization equivalence to an
    EDT-rational strategy in the opponent-fixed single-player view.

    The witness search covers the strategy itself and canonical rewrites
    of unreached infosets; it is sound but not complete.
    """
    return _nash_refinement_check(game, profile, _cfg(cfg), "EDT")


def cdt_nash_check(game: Game, profile: StrategyProfile,
                   cfg: Optional[SolverConfig] = None) -> bool:
    """KKT everywhere plus realization equivalence to a CDT-rational
    strategy per player (same canonical witness search)."""
    return _nash_refinement_check(game, profile, _cfg(cfg), "CDT")


def _nash_refinement_check(game: Game, profile: StrategyProfile, cfg: SolverConfig,
                           family: str) -> bool:
    """The family's equilibrium check, then its rationality per player."""
    check = edt_check if family == "EDT" else kkt_check_profile
    return (check(game, profile, cfg)[0] and _rational_per_player(
        game.numeric, game.numeric.index.vector(profile), cfg, family)[0])


def nash_check(game: Game, profile: StrategyProfile,
               cfg: Optional[SolverConfig] = None) -> tuple[bool, float, str]:
    """Compare each player's payoff with an exact best response computed by
    solving the opponent-fixed single-player game.  A single-player game
    is its own such game, so every call reads its one memoized
    ``optimal_strategy`` report."""
    cfg = _cfg(cfg)
    residual = 0.0
    certified = "exact"
    for player in range(1, game.players + 1):
        sub = game if game.players == 1 else fix_opponents(game, profile, player)
        report = optimal_strategy(sub, cfg)
        if report.certified != "exact":
            certified = report.certified
        mine = float(expected_utility(game, profile, player))
        residual = max(residual, float(report.utilities[0]) - mine)
    residual = max(residual, 0.0)
    return residual <= cfg.eps_eq, residual, certified


# ---------------------------------------------------------------------------
# Equilibrium enumeration and best/worst selection
# ---------------------------------------------------------------------------


def _pure_seed_vectors(index: FlatIndex, rng) -> tuple[np.ndarray, bool]:
    """Every pure profile, in ``itertools.product`` order over the rows, or
    a random sample of them above ``_ENUM_PURE_CAP``."""
    total = math.prod(r.size for r in index.rows)
    if total <= _ENUM_PURE_CAP:
        return _one_hot(index, _pure_assignments(index, np.arange(total))), True
    return _random_vertices(index, rng, _ENUM_PURE_SAMPLES), False


def _br_polish(num: NumericGame, X: np.ndarray) -> np.ndarray:
    """Best-response dynamics of the EDT family, batched over seeds: sweep
    the infoset rows, replacing a row by the maximiser of its row
    polynomial (:func:`_max_row`) whenever that gains more than 1e-11.
    The best action is pure on a row no paying leaf visits twice, and can
    be mixed on an absentminded row (a deviation replaces the row at every
    visit).  Monotone in single-player games; capped sweeps otherwise.

    A seed's sweep reads that seed alone, so a seed that made no move in a
    whole sweep never moves again and leaves the batch.  So does a seed
    that ends a sweep, from the third on, at a profile it held at the end
    of an earlier one: it is on a cycle, which later sweeps only repeat."""
    X = project_rows(num.index, X)
    idx = np.arange(len(X))
    held: set[tuple[int, bytes]] = set()
    for sweep in range(_POLISH_ITERS):
        if not len(idx):
            break
        Y = X[idx]
        moved = np.zeros(len(idx), dtype=bool)
        for row in num.index.rows:
            C, E = num.row_polynomial(Y, row)
            block = slice(row.offset, row.offset + row.size)
            best, s = _max_row(C, E)
            upd = best - _row_values(C, E, Y[:, block]) > 1e-11
            Y[upd, block] = s[upd]
            moved |= upd
        X[idx] = Y
        idx = idx[moved]
        if sweep >= 2:
            keys = [(i, X[i].tobytes()) for i in idx.tolist()]
            idx = idx[np.array([k not in held for k in keys], dtype=bool)]
            held.update(keys)
    return X


def _gradient_polish(num: NumericGame, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-player projected gradient dynamics toward KKT points: the
    polished seeds and their (B,) KKT residuals.

    On a single-player game this is optimal play's multistart ascent, the
    KKT conditions being necessary for a maximum.  Each seed carries every
    player's value and own-block partials, so a player-step makes one
    kernel call, on its candidate points: an accepted seed takes the
    candidate's value and partials and a rejected one keeps its own.  A
    move changes the other players' values too, so theirs are recomputed
    for the seeds that moved.  The settle test and the residuals read the
    KKT gap from the carried partials.  A player-step moves only that
    player's block, so it projects only that player's rows: the others are
    on the simplex already.  The step grows by 1.2 per accepted move, up
    to 1e6: uncapped, it outgrew the projection's rounding and seeds left
    the simplex.
    """
    X = project_rows(num.index, X)
    B = X.shape[0]
    movers = [p for p in range(1, num.game.players + 1)
              if num.index.block[p][1].start < num.index.block[p][1].stop]
    F = np.zeros((B, num.game.players))
    G = np.zeros_like(X)

    def carry(at, p):
        F[at, p - 1], grad = num.gradient(X[at], p)
        block = num.index.block[p][1]
        G[at, block] = grad[:, block]

    for p in movers:
        carry(np.arange(B), p)
    step = {p: np.full(B, 0.25) for p in movers}
    active = np.ones(B, dtype=bool)
    for _ in range(_POLISH_ITERS):
        idx = np.nonzero(active)[0]
        if len(idx) == 0:
            break
        settled = kkt_gaps(num.index, X[idx], G[idx]) < 1e-11
        stuck = np.ones(len(idx), dtype=bool)
        for p in movers:
            stuck &= step[p][idx] < 1e-12
        active[idx[settled | stuck]] = False
        idx = idx[~(settled | stuck)]
        if len(idx) == 0:
            continue
        for p in movers:
            block = num.index.block[p][1]
            Y = X[idx]
            Y[:, block] += step[p][idx, None] * G[idx, block]
            Y = project_rows(num.index, Y, p)
            fY, GY = num.gradient(Y, p)
            improved = fY > F[idx, p - 1] + 1e-14
            moved = idx[improved]
            X[moved], F[moved, p - 1] = Y[improved], fY[improved]
            G[moved, block] = GY[improved][:, block]
            for q in movers:
                if q != p and len(moved):
                    carry(moved, q)
            step[p][moved] = np.minimum(1.2 * step[p][moved], 1e6)
            step[p][idx[~improved]] *= 0.5
    return X, kkt_gaps(num.index, X, G)


# Polish family of each enumeration concept.  A family's concepts share
# their seeds, polish and residuals, and so their equilibrium classes; only
# the filter that follows differs.
_FAMILY = {"EDT": "EDT", "NASH": "EDT", "EDT-NASH": "EDT",
           "CDT": "CDT", "CDT-NASH": "CDT"}


@dataclass(frozen=True)
class _Classes:
    """A polish family's equilibrium classes in one game, before any
    concept's filter: one representative per realization-equivalence class
    of the polished seeds whose residual clears ``cfg.eps_eq``.  The filter
    stage reads each class's utilities, order and residual from here."""

    X: np.ndarray          # (K, R) representatives, read-only, clustering order
    residual: np.ndarray   # (K,) their admission residuals, read-only
    utilities: np.ndarray  # (K, N) every player's kernel utility, read-only
    order: np.ndarray      # X's rows by Player 1's kernel utility, then residual
    notes: tuple[str, ...]


def _equilibrium_classes(game: Game, concept: str, cfg: SolverConfig) -> _Classes:
    """The classes of ``concept``'s polish family, found once per game and
    ``SolverConfig`` and kept in ``game.memo``."""
    family = _FAMILY.get(concept)
    if family is None:
        raise ValueError(f"unknown enumeration concept {concept!r}")
    dim = game.numeric.index.dim
    if dim > _ENUM_DIM_CAP:
        raise CapExceededError(
            f"flattened strategy dimension {dim} exceeds cap "
            f"{_ENUM_DIM_CAP}; shrink the instance"
        )
    key = ("equilibrium classes", family, cfg)
    if key not in game.memo:
        game.memo[key] = _find_classes(game, family, cfg)
    return game.memo[key]


def _find_classes(game: Game, family: str, cfg: SolverConfig) -> _Classes:
    """Seed, polish, keep the profiles whose residual clears the tolerance,
    and dedup them by realization equivalence."""
    num = game.numeric
    rng = cfg.rng()

    pure_seeds, pure_full = _pure_seed_vectors(num.index, rng)
    grid_seeds, grid_full = _grid_points(num.index, cfg, rng)
    notes = []
    if not pure_full:
        notes.append(_sampled_note("enum_pure_cap", _ENUM_PURE_CAP,
                                   len(pure_seeds), "pure seeds"))
    if not grid_full:
        notes.append(_sampled_note("grid_cap", _GRID_CAP, len(grid_seeds),
                                   "grid points"))
    seeds = [pure_seeds, grid_seeds, _random_mixed(num.index, rng, cfg.multistart),
             num.index.uniform()[None]]
    if game.players == 1:
        seeds.append(num.index.vector(optimal_strategy(game, cfg).profile)[None])
    X = np.concatenate(seeds)

    if family == "CDT":
        X, res = _gradient_polish(num, X)
    else:
        X = _br_polish(num, X)
        res = _edt_residuals(num, X)

    keep = np.nonzero(res <= cfg.eps_eq)[0]
    if len(keep):
        # Drop candidates that polished to numerically identical vectors.
        rounded = np.round(X[keep], 10)
        _, first = np.unique(rounded, axis=0, return_index=True)
        keep = keep[np.sort(first)]

    # Dedup by realization equivalence: greedy clustering of leaf-reach
    # vectors against class representatives, lowest residual first.  Every
    # node's reach is the sum of its subtree's leaf reaches, so equal leaf
    # reaches mean equal node reaches.
    reach = num.leaf_probs(X[keep])
    order = sorted(
        range(len(keep)),
        key=lambda j: (res[keep[j]], tuple(np.round(X[keep[j]], 9))),
    )
    reps = np.empty_like(reach)
    chosen: list[int] = []
    for j in order:
        n = len(chosen)
        if n and np.abs(reps[:n] - reach[j]).max(axis=1).min() <= _DEDUP_TOL:
            continue
        reps[n] = reach[j]
        chosen.append(j)

    X, res = X[keep[chosen]], res[keep[chosen]]
    # One matrix-vector product per player: a single (K, Z) @ (Z, N)
    # product may round differently and so break ties in another order.
    utilities = np.stack([reps[: len(chosen)] @ num.utils[:, p]
                          for p in range(game.players)], axis=1)
    for a in (X, res, utilities):
        a.setflags(write=False)
    return _Classes(X=X, residual=res, utilities=utilities,
                    order=np.lexsort((res, utilities[:, 0])), notes=tuple(notes))


def _class_report(game: Game, concept: str, cfg: SolverConfig,
                  classes: _Classes, k: int) -> tuple[Optional[SolveReport], bool]:
    """The concept's report on class ``k``, or None if its filter rejects
    the class; and whether ``_WITNESS_CAP`` cut the witness search of that
    rejection.  It reports the candidate stage's utilities and residual;
    the class cleared its family's residual test there, so the EDT-NASH
    and CDT-NASH filters test only rationality."""
    num = game.numeric
    prof = num.index.profile(classes.X[k])
    residual = float(classes.residual[k])
    if concept == "NASH":
        ok, nres, _ = nash_check(game, prof, cfg)
        if not ok:
            return None, False
        residual = max(residual, nres)
    elif concept in ("EDT-NASH", "CDT-NASH"):
        # A writable vector: ``classes.X`` is read-only, and on a game where
        # no player has an infoset the schedule's ``np.tile`` is a view.
        passed, cut = _rational_per_player(num, num.index.vector(prof), cfg,
                                           _FAMILY[concept])
        if not passed:
            return None, cut
    return SolveReport(
        concept=concept, which="any", profile=prof,
        utilities=tuple(classes.utilities[k].tolist()), residual=residual,
        certified="heuristic", notes=classes.notes,
    ), False


def _walk_classes(game: Game, concept: str, cfg: SolverConfig,
                  which: str) -> list[SolveReport]:
    """The concept's reports on its family's classes, walked in
    ``_Classes.order``: every class that passes for ``which`` "any", else
    the first from the requested end.  When ``_WITNESS_CAP`` cut the
    witness search of rejected classes the walk examined, every report
    says how many, and if none passed, EquilibriumNotFoundError does."""
    classes = _equilibrium_classes(game, concept, cfg)
    reports, capped = [], 0
    for k in (classes.order[::-1] if which == "best" else classes.order):
        report, cut = _class_report(game, concept, cfg, classes, k)
        if report is None:
            capped += cut
            continue
        reports.append(report)
        if which != "any":
            break
    if capped:
        note = (f"witness_cap={_WITNESS_CAP} cut the witness search of "
                f"{capped} rejected class(es)")
        if not reports:
            raise EquilibriumNotFoundError(f"no {concept} equilibrium found; {note}")
        reports = [replace(r, notes=r.notes + (note,)) for r in reports]
    return reports


def enumerate_equilibria(game: Game, concept: str,
                         cfg: Optional[SolverConfig] = None) -> list[SolveReport]:
    """Seed, polish, dedup, filter: return one report per equilibrium class
    found, sorted by Player 1's utility, then admission residual.

    Two stages.  The candidate stage (seeds, polish, residuals, dedup)
    depends only on the concept's polish family: EDT, NASH and EDT-NASH
    polish by best responses and keep EDT residuals, CDT and CDT-NASH
    polish by gradients and keep KKT residuals.  It runs once per game,
    family and ``SolverConfig``, and ``game.memo`` keeps its classes for
    every later call.  The filter stage walks the classes in their order,
    filters each, and reports the utilities (kernel values) and admission
    residual they carry: the list's ends are :func:`best_worst`'s answers.

    Classes are realization-equivalence classes; the representative is the
    member with the smallest residual.  Only profiles that individually
    pass the concept's residual/filters are ever admitted, so every report
    is sound; completeness is only as good as the seeding, so every report
    is ``heuristic``.  When ``_WITNESS_CAP`` cut the witness search of a
    rejected EDT-/CDT-NASH class, every report says so; if no class is
    left, EquilibriumNotFoundError says so.
    """
    return _walk_classes(game, concept.upper(), _cfg(cfg), "any")


def best_worst(game: Game, concept: str, which: str,
               cfg: Optional[SolverConfig] = None) -> SolveReport:
    """Extremal Player-1 utility over the found equilibrium classes.

    Reads the classes of :func:`enumerate_equilibria`'s candidate stage,
    shared through ``game.memo``, and walks them lazily from the requested
    end of the same order (Player 1's kernel utility, then residual).  The
    first class the concept's filter passes is the answer, with the
    utilities and residual the candidate stage computed.  A
    ``witness_cap`` note counts the rejected classes the walk examined:
    every one is more extreme than the answer, and no less extreme class
    can change it.
    """
    cfg = _cfg(cfg)
    concept = concept.upper()
    if which not in ("best", "worst"):
        raise ValueError(f"selector must be 'best' or 'worst', got {which!r}")
    if concept == "OPT":
        return replace(optimal_strategy(game, cfg), which=which)
    reports = _walk_classes(game, concept, cfg, which)
    if not reports:
        raise EquilibriumNotFoundError(
            f"no {concept} equilibrium found at resolution "
            f"delta=1/{cfg.grid_resolution}")
    return replace(reports[0], which=which)
