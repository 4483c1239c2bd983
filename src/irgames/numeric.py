"""Vectorized float kernels behind the solvers.

Behavioral strategies are flattened into one vector (each player's infoset
rows one contiguous block, in a fixed order), so batches of profiles are
plain (B, R) arrays.  Leaf reach probabilities are monomials in the
coordinates, compiled here from ``Game.leaves`` once per game, as
``Game.numeric``, which every solver reads; the kernels evaluate utilities,
exact polynomial gradients, and pure single-row deviation values for whole
batches at once, which is what makes grid scans and multistart ascent
affordable in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .game import Game
from .strategies import BehavioralStrategy, StrategyProfile


@dataclass(frozen=True)
class Row:
    player: int
    infoset_id: str
    offset: int
    size: int


class FlatIndex:
    """Fixed flattening of all players' infoset rows into one vector."""

    def __init__(self, game: Game):
        self.game = game
        self.rows: list[Row] = []
        # player -> (its slice of ``rows``, its slice of the coordinates)
        self.block: dict[int, tuple[slice, slice]] = {}
        offset = 0
        for player in range(1, game.players + 1):
            first_row, first_coord = len(self.rows), offset
            for iset_id in sorted(game.infosets.get(player, {})):
                size = len(game.infosets[player][iset_id].actions)
                self.rows.append(Row(player, iset_id, offset, size))
                offset += size
            self.block[player] = (slice(first_row, len(self.rows)),
                                  slice(first_coord, offset))
        self.dim = offset
        self.row_of = {(r.player, r.infoset_id): r for r in self.rows}

    def vector(self, profile: StrategyProfile) -> np.ndarray:
        x = np.empty(self.dim)
        for row in self.rows:
            probs = profile[row.player].row(row.infoset_id)
            x[row.offset : row.offset + row.size] = [float(p) for p in probs]
        return x

    def profile(self, x: np.ndarray) -> StrategyProfile:
        tables: dict[int, dict[str, tuple]] = {
            p: {} for p in range(1, self.game.players + 1)
        }
        for row in self.rows:
            tables[row.player][row.infoset_id] = tuple(
                float(v) for v in x[row.offset : row.offset + row.size]
            )
        return StrategyProfile(
            strategies=tuple(
                BehavioralStrategy(player=p, table=tables[p])
                for p in range(1, self.game.players + 1)
            )
        )

    def uniform(self) -> np.ndarray:
        x = np.empty(self.dim)
        for row in self.rows:
            x[row.offset : row.offset + row.size] = 1.0 / row.size
        return x


def project_rows(index: FlatIndex, X: np.ndarray) -> np.ndarray:
    """Euclidean projection of every infoset row onto its simplex."""
    out = np.array(X, dtype=float, copy=True)
    for row in index.rows:
        block = out[..., row.offset : row.offset + row.size]
        out[..., row.offset : row.offset + row.size] = _project_simplex(block)
    return out


def _project_simplex(V: np.ndarray) -> np.ndarray:
    """Sort-based Euclidean projection onto the probability simplex,
    batched over leading axes."""
    n = V.shape[-1]
    U = np.sort(V, axis=-1)[..., ::-1]
    css = np.cumsum(U, axis=-1) - 1.0
    ks = np.arange(1, n + 1, dtype=float)
    cond = U - css / ks > 0
    rho = n - 1 - np.argmax(cond[..., ::-1], axis=-1)
    theta = np.take_along_axis(css, rho[..., None], axis=-1) / (
        rho[..., None] + 1.0
    )
    return np.maximum(V - theta, 0.0)


class NumericGame:
    """Per-game arrays for batched utility/gradient/deviation evaluation."""

    def __init__(self, game: Game):
        self.game = game
        self.index = FlatIndex(game)
        Z = len(game.terminals)
        self.n_leaves = Z
        self.coef = np.ones(Z)  # chance coefficient per leaf
        self.utils = np.zeros((Z, game.players))

        # Distinct (leaf, flat coordinate, multiplicity) entries of every
        # leaf's reach monomial, with per-leaf ranks so products can be
        # taken division-free via prefix/suffix sweeps.
        ent_leaf: list[int] = []
        ent_coord: list[int] = []
        ent_count: list[int] = []
        ent_rank: list[int] = []
        for zi, (z, leaf) in enumerate(game.leaves.items()):
            self.utils[zi] = [float(u) for u in game.utilities[z]]
            self.coef[zi] = float(leaf.chance)
            counts = {
                self.index.row_of[(p, iid)].offset + idx: n
                for (p, iid, idx), n in leaf.visits
            }
            for rank, coord in enumerate(sorted(counts)):
                ent_leaf.append(zi)
                ent_coord.append(coord)
                ent_count.append(counts[coord])
                ent_rank.append(rank)

        self.ent_leaf = np.array(ent_leaf, dtype=np.intp)
        self.ent_coord = np.array(ent_coord, dtype=np.intp)
        self.ent_count = np.array(ent_count, dtype=np.float64)
        self.ent_rank = np.array(ent_rank, dtype=np.intp)
        self.n_entries = len(ent_leaf)
        self.max_rank = int(self.ent_rank.max()) + 1 if ent_leaf else 0

        # (Z, max_rank) entry-index grid, -1 where a leaf has fewer entries.
        self.rank_grid = -np.ones((Z, self.max_rank), dtype=np.intp)
        self.rank_grid[self.ent_leaf, self.ent_rank] = np.arange(self.n_entries)

        self._row_cache: dict[int, tuple] = {}

    @cached_property
    def visits(self) -> np.ndarray:
        """(Z, rows): times each leaf's path passes each infoset row."""
        rows = self.index.rows
        out = np.zeros((self.n_leaves, len(rows)))
        row_at = np.repeat(np.arange(len(rows)), [r.size for r in rows])
        np.add.at(out, (self.ent_leaf, row_at[self.ent_coord]), self.ent_count)
        return out

    # -- core monomial machinery -------------------------------------------

    def _entry_factors(self, X: np.ndarray) -> np.ndarray:
        """(B, E) powers X[:, coord] ** count for every monomial entry."""
        return X[:, self.ent_coord] ** self.ent_count

    def _accumulate(self, probs: np.ndarray, factors: np.ndarray, skip=None):
        """Multiply per-leaf entry factors into ``probs`` (B, Z), skipping
        entries flagged in the boolean array ``skip``."""
        for rank in range(self.max_rank):
            sel = self.rank_grid[:, rank]
            mask = sel >= 0
            if skip is not None:
                mask[mask] = ~skip[sel[mask]]
            probs[:, mask] *= factors[:, sel[mask]]

    def leaf_probs(self, X: np.ndarray, factors=None) -> np.ndarray:
        """(B, Z) reach probabilities including chance coefficients."""
        if factors is None:
            factors = self._entry_factors(X)
        probs = np.tile(self.coef, (X.shape[0], 1))
        self._accumulate(probs, factors)
        return probs

    def utilities(self, X: np.ndarray) -> np.ndarray:
        """(B, N) expected utility per player."""
        return self.leaf_probs(X) @ self.utils

    def utility(self, X: np.ndarray, player: int) -> np.ndarray:
        return self.leaf_probs(X) @ self.utils[:, player - 1]

    def gradient(self, X: np.ndarray, player: int, factors=None) -> np.ndarray:
        """(B, R) partials of the player's utility in every coordinate."""
        B = X.shape[0]
        G = np.zeros((B, self.index.dim))
        E = self.n_entries
        if factors is None:
            factors = self._entry_factors(X)
        prefix = np.ones((B, E))
        suffix = np.ones((B, E))
        for rank in range(1, self.max_rank):
            cur = self.rank_grid[:, rank]
            prev = self.rank_grid[:, rank - 1]
            mask = cur >= 0
            prefix[:, cur[mask]] = prefix[:, prev[mask]] * factors[:, prev[mask]]
        for rank in range(self.max_rank - 2, -1, -1):
            cur = self.rank_grid[:, rank]
            nxt = self.rank_grid[:, rank + 1]
            mask = (cur >= 0) & (nxt >= 0)
            suffix[:, cur[mask]] = suffix[:, nxt[mask]] * factors[:, nxt[mask]]
        base = X[:, self.ent_coord] ** (self.ent_count - 1.0)
        weight = self.coef[self.ent_leaf] * self.utils[self.ent_leaf, player - 1]
        vals = weight * self.ent_count * base * prefix * suffix
        np.add.at(G.T, self.ent_coord, vals.T)
        return G

    # -- pure single-row deviations -----------------------------------------

    def _row_info(self, row: Row):
        cached = self._row_cache.get(row.offset)
        if cached is not None:
            return cached
        in_row = ((self.ent_coord >= row.offset)
                  & (self.ent_coord < row.offset + row.size))
        # alive[a, z]: leaf z still reachable when the row deviates to pure a.
        alive = np.ones((row.size, self.n_leaves), dtype=bool)
        action = self.ent_coord[in_row] - row.offset
        for a in range(row.size):
            alive[a, self.ent_leaf[in_row][action != a]] = False
        cached = (in_row, alive)
        self._row_cache[row.offset] = cached
        return cached

    def deviation_values_pure(self, X: np.ndarray, row: Row, factors=None) -> np.ndarray:
        """(B, A) utilities of ``row.player`` after replacing the whole row
        with each pure action (applied at every visit of the infoset)."""
        if factors is None:
            factors = self._entry_factors(X)
        in_row, alive = self._row_info(row)
        probs = np.tile(self.coef, (X.shape[0], 1))
        self._accumulate(probs, factors, skip=in_row)
        u = self.utils[:, row.player - 1]
        out = np.empty((X.shape[0], row.size))
        for a in range(row.size):
            mask = alive[a]
            out[:, a] = probs[:, mask] @ u[mask]
        return out

    def edt_pure_residuals(self, X: np.ndarray) -> np.ndarray:
        """(B,) best gain from any pure single-row deviation, clamped at 0.
        Exact EDT residual when the game has no absentmindedness; a lower
        bound otherwise."""
        B = X.shape[0]
        factors = self._entry_factors(X)
        base = self.leaf_probs(X, factors) @ self.utils
        best = np.full(B, 0.0)
        for row in self.index.rows:
            vals = self.deviation_values_pure(X, row, factors)
            gain = vals.max(axis=1) - base[:, row.player - 1]
            best = np.maximum(best, gain)
        return best

    def kkt_residuals(self, X: np.ndarray, supp_tol: float = 1e-9) -> np.ndarray:
        """(B,) max over players and infosets of the simplex-KKT gap: best
        gradient entry minus the worst on-support gradient entry."""
        B = X.shape[0]
        out = np.zeros(B)
        grads = {p: self.gradient(X, p) for p in range(1, self.game.players + 1)}
        for row in self.index.rows:
            block = slice(row.offset, row.offset + row.size)
            v = grads[row.player][:, block]
            supp = X[:, block] > supp_tol
            vmax = v.max(axis=1)
            vmin_supp = np.where(supp, v, np.inf).min(axis=1)
            out = np.maximum(out, np.maximum(vmax - vmin_supp, 0.0))
        return out


def compositions(total: int, parts: int):
    """Integer compositions of ``total`` into ``parts`` nonnegative parts,
    lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def simplex_grid(parts: int, resolution: int) -> np.ndarray:
    """All simplex points with entries k/resolution."""
    pts = np.array(list(compositions(resolution, parts)), dtype=float)
    return pts / resolution
