"""Vectorized float kernels behind the solvers.

Behavioral strategies are flattened into one vector (each player's infoset
rows one contiguous block, in a fixed order), so batches of profiles are
plain (B, R) arrays.  Leaf reach probabilities are monomials in the
coordinates, compiled here from ``Game.leaves`` once per game, as
``Game.numeric``, which every solver reads; the kernels evaluate utilities,
exact polynomial gradients, and single-row deviations for whole batches at
once, which is what makes grid scans and multistart ascent affordable in
pure Python.  ``NumericGame.row_polynomial`` is the kernel behind every
single-row deviation the solvers make: for a batch and one row it gives
the row player's utility as a polynomial in that row's entries, the
coefficients read from the leaf products with the row's factors set to
one and the exponents from the row's visit counts.  The pure-deviation
kernels (``deviation_values_pure``, ``edt_pure_residuals``) have no caller
in the package; the benchmark's workloads and tracer read them.

Every kernel builds the leaf products rank by rank (the r-th entry of every
leaf's monomial in one vectorized step).  ``NumericGame.gradient`` is one
fused pass: a forward sweep of running products gives the utilities, and a
backward sweep of running suffixes gives every partial.  The one
projected-gradient polish, which both optimal play and the CDT candidate
stage run, calls it once per step, on its candidate points, and carries
each point's value and gradient forward; ``kkt_gaps`` reads the KKT
residual from gradients a caller already holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .game import Game
from .strategies import BehavioralStrategy, StrategyProfile

# Probabilities at or below this count as off the support, and reaches at or
# below it as unreached, in every KKT and witness test.
SUPP_TOL = 1e-9


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
        # One (rows, size) coordinate array per row size, of all rows and of
        # each player's.
        self.rows_by_size = _coords_by_size(self.rows)
        self.player_rows_by_size = {
            p: _coords_by_size(self.rows[self.block[p][0]]) for p in self.block}

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


def _coords_by_size(rows: list[Row]) -> list[np.ndarray]:
    return [
        np.array([np.arange(r.offset, r.offset + size)
                  for r in rows if r.size == size], dtype=np.intp)
        for size in sorted({r.size for r in rows})
    ]


def project_rows(index: FlatIndex, X: np.ndarray,
                 player: int | None = None) -> np.ndarray:
    """Euclidean projection of every infoset row, or of the given player's
    rows alone, onto its simplex, one batched projection per row size."""
    out = np.array(X, dtype=float, copy=True)
    groups = index.rows_by_size if player is None else index.player_rows_by_size[player]
    for coords in groups:
        out[..., coords] = _project_simplex(out[..., coords])
    return out


def kkt_gaps(index: FlatIndex, X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """(B,) max over infoset rows of the simplex-KKT gap at the points
    ``X``: the row's best partial minus its worst on-support partial, read
    from ``G``, which holds each row's partials in its own player's
    utility.  One batched step per row size."""
    out = np.zeros(X.shape[0])
    for coords in index.rows_by_size:
        v = G[:, coords]
        vmin_supp = np.where(X[:, coords] > SUPP_TOL, v, np.inf).min(axis=-1)
        out = np.maximum(out, (v.max(axis=-1) - vmin_supp).max(axis=-1))
    return out


def _project_simplex(V: np.ndarray) -> np.ndarray:
    """Sort-based Euclidean projection onto the probability simplex,
    batched over leading axes.  Two-action rows take a closed form that
    writes out the sort path's own arithmetic, so it gives the same bits:
    the sorted pair is (hi, lo), the threshold is (hi + lo - 1) / 2 when
    both entries stay on the support and hi - 1 otherwise, and the second
    test repeats the sort path's first-entry test, hi - (hi - 1) > 0,
    which fails only above 2**53."""
    n = V.shape[-1]
    if n == 2:
        hi = np.maximum(V[..., 0], V[..., 1])
        lo = np.minimum(V[..., 0], V[..., 1])
        both, top = (hi + lo - 1.0) / 2.0, hi - 1.0
        theta = np.where((lo - both > 0) | ~(hi - top > 0), both, top)
        return np.maximum(V - theta[..., None], 0.0)
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
        # leaf's reach monomial, leaf by leaf; an entry's rank is its place
        # among its leaf's entries, so products are taken division-free by
        # prefix/suffix sweeps over the ranks.
        ent_leaf: list[int] = []
        ent_coord: list[int] = []
        ent_count: list[int] = []
        for zi, (z, leaf) in enumerate(game.leaves.items()):
            self.utils[zi] = [float(u) for u in game.utilities[z]]
            self.coef[zi] = float(leaf.chance)
            counts = {
                self.index.row_of[(p, iid)].offset + idx: n
                for (p, iid, idx), n in leaf.visits
            }
            for coord in sorted(counts):
                ent_leaf.append(zi)
                ent_coord.append(coord)
                ent_count.append(counts[coord])

        self.ent_leaf = np.array(ent_leaf, dtype=np.intp)
        self.ent_coord = np.array(ent_coord, dtype=np.intp)
        self.ent_count = np.array(ent_count, dtype=np.float64)
        self.n_entries = len(ent_leaf)

        # Rank steps of the leaf products: step r holds the entries of rank
        # r.  Leaves are taken longest first, so the leaves with an entry of
        # rank r are the first n_r of ``_order`` and each step works on a
        # block of rows of a leaf-major (Z, B) array.  Per step: n_r, the
        # entries' coordinates, and the positions and (column) counts of the
        # entries visited more than once.
        lengths = np.bincount(self.ent_leaf, minlength=Z)
        self._order = np.argsort(-lengths, kind="stable")
        self._unorder = np.argsort(self._order)
        first = np.cumsum(lengths) - lengths
        self._steps = []
        for rank in range(int(lengths.max(initial=0))):
            leaves = self._order[lengths[self._order] > rank]
            ents = first[leaves] + rank
            count = self.ent_count[ents]
            many = np.nonzero(count > 1)[0]
            self._steps.append(
                (len(ents), self.ent_coord[ents], many, count[many, None]))

        # row offset -> (visiting leaves, their (K, size) exponents, alive)
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

    @staticmethod
    def _entry_factors(XT: np.ndarray, coords, many, count) -> np.ndarray:
        """(n, B) factors x[coord] ** count of one rank step's entries, from
        the (R, B) transposed batch; only the entries visited more than once
        take a power."""
        factors = XT[coords]
        if len(many):
            factors[many] **= count
        return factors

    def _products(self, XT: np.ndarray, prefixes=None) -> np.ndarray:
        """(B, Z) leaf products of chance coefficient and entry factors,
        multiplied in rank order.  With a list ``prefixes``, also appends
        each step's (n, B) product before the step and its factors."""
        probs = np.empty((self.n_leaves, XT.shape[1]))
        probs[:] = self.coef[self._order, None]
        for n, *entries in self._steps:
            factors = self._entry_factors(XT, *entries)
            if prefixes is not None:
                prefixes.append((probs[:n].copy(), factors))
            probs[:n] *= factors
        # C order, so that every sum over the leaves is taken in one order.
        return np.ascontiguousarray(probs[self._unorder].T)

    def leaf_probs(self, X: np.ndarray) -> np.ndarray:
        """(B, Z) reach probabilities including chance coefficients."""
        return self._products(np.ascontiguousarray(X.T))

    def utilities(self, X: np.ndarray) -> np.ndarray:
        """(B, N) expected utility per player."""
        return self.leaf_probs(X) @ self.utils

    def utility(self, X: np.ndarray, player: int) -> np.ndarray:
        return self.leaf_probs(X) @ self.utils[:, player - 1]

    def gradient(self, X: np.ndarray, player: int) -> tuple[np.ndarray, np.ndarray]:
        """The player's (B,) utilities and (B, R) partials in every
        coordinate, from one forward and one backward pass over the leaves.

        Forward, rank by rank: a running product of chance coefficients and
        entry factors per leaf, keeping the product before each rank; the
        utilities are the final products times the leaf utilities, the same
        sums as ``utility``.  Backward: a running suffix, the leaf utility
        times the factors of the later ranks.  At each rank, prefix times
        suffix is the partial of the leaf product in that rank's factor,
        times n x^(n-1) for an entry visited n > 1 times, and one
        ``bincount`` adds it into the entry's coordinate.
        """
        B, R = X.shape[0], self.index.dim
        XT = np.ascontiguousarray(X.T)
        prefixes: list = []
        values = self._products(XT, prefixes) @ self.utils[:, player - 1]

        suffix = np.empty((self.n_leaves, B))
        suffix[:] = self.utils[self._order, player - 1, None]
        grad = np.zeros(R * B)
        columns = np.arange(B)
        for (n, coords, many, count), (prefix, factors) in zip(
                self._steps[::-1], prefixes[::-1]):
            partial = prefix * suffix[:n]
            if len(many):
                partial[many] *= count * XT[coords[many]] ** (count - 1.0)
            grad += np.bincount((coords[:, None] * B + columns).ravel(),
                                partial.ravel(), R * B)
            suffix[:n] *= factors
        return values, np.ascontiguousarray(grad.reshape(R, B).T)

    # -- single-row deviations ----------------------------------------------

    def _row_table(self, row: Row) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The leaves whose path visits the row, their (K, size) visit counts
        per action, and alive[a, z]: leaf z still reachable when the row
        deviates to pure action a."""
        table = self._row_cache.get(row.offset)
        if table is None:
            in_row = ((self.ent_coord >= row.offset)
                      & (self.ent_coord < row.offset + row.size))
            leaves, at = np.unique(self.ent_leaf[in_row], return_inverse=True)
            exps = np.zeros((len(leaves), row.size))
            exps[at, self.ent_coord[in_row] - row.offset] = self.ent_count[in_row]
            alive = np.ones((row.size, self.n_leaves), dtype=bool)
            alive[:, leaves] = (exps == exps.sum(axis=1, keepdims=True)).T
            table = self._row_cache[row.offset] = (leaves, exps, alive)
        return table

    def _products_without(self, X: np.ndarray, row: Row) -> np.ndarray:
        """(B, Z) leaf products with the row's factors set to one."""
        XT = np.array(X.T, order="C")
        XT[row.offset : row.offset + row.size] = 1.0
        return self._products(XT)

    def row_polynomial(self, X: np.ndarray, row: Row) -> tuple[np.ndarray, np.ndarray]:
        """The row player's utility as a polynomial in the row's entries,
        ``const + sum_k C[:, k] * prod_a sigma_a ** E[k, a]``, for a (B, R)
        batch.  One term per leaf whose path visits the row: the (B, K)
        coefficients ``C`` are those leaves' products with the row's
        factors set to one, times their utilities, and the (K, size)
        exponents ``E`` their visit counts of the row's actions.  Leaves
        that pay the player nothing carry no term, and ``const``, the
        leaves that never visit the row, is left out."""
        leaves, exps, _ = self._row_table(row)
        u = self.utils[leaves, row.player - 1]
        pays = u != 0
        probs = self._products_without(X, row)
        return probs[:, leaves[pays]] * u[pays], exps[pays]

    def deviation_values_pure(self, X: np.ndarray, row: Row) -> np.ndarray:
        """(B, A) utilities of ``row.player`` after replacing the whole row
        with each pure action (applied at every visit of the infoset)."""
        alive = self._row_table(row)[2]
        probs = self._products_without(X, row)
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
        base = self.utilities(X)
        best = np.full(B, 0.0)
        for row in self.index.rows:
            vals = self.deviation_values_pure(X, row)
            gain = vals.max(axis=1) - base[:, row.player - 1]
            best = np.maximum(best, gain)
        return best

    def kkt_residuals(self, X: np.ndarray) -> np.ndarray:
        """(B,) max over players and infosets of the simplex-KKT gap: best
        gradient entry minus the worst on-support gradient entry."""
        G = np.empty_like(X, dtype=float)
        for player in range(1, self.game.players + 1):
            block = self.index.block[player][1]
            if block.start < block.stop:
                G[:, block] = self.gradient(X, player)[1][:, block]
        return kkt_gaps(self.index, X, G)


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
