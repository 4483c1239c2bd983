"""Partial recall: single-infoset splits, the bounded-split refinement
order, exhaustive enumeration of k-split refinements, and the exhaustive
best-refinement search scored by optimal play.

A split is admissible only when it stays below the player's coarsest
perfect-recall refinement of the chain's root game: splitting finer than
that would grant new information, not recall.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Optional

from .game import Game, Infoset, Num
from .recall import refines, perfect_recall_refinement
from .solvers import CapExceededError, SolverConfig, _cfg, optimal_strategy


@dataclass(frozen=True)
class SplitStep:
    """Split one infoset into two nonempty node subsets."""

    player: int
    infoset_id: str
    part_a: tuple[str, ...]
    part_b: tuple[str, ...]


def is_partial_refinement(g_mid: Game, game: Game, player: int) -> bool:
    """True iff the candidate sits between the game and its coarsest
    perfect-recall refinement for the player."""
    pr_game, _ = perfect_recall_refinement(game, player)
    if refines(g_mid, game, player) is None:
        return False
    return refines(pr_game, g_mid, player) is not None


def _block_id(infoset_id: str, nodes: tuple[str, ...]) -> str:
    digest = hashlib.sha1(repr(nodes).encode()).hexdigest()[:8]
    return f"{infoset_id}.{digest}"


def _with_partition(game: Game, player: int, infoset_id: str,
                    blocks: list[tuple[str, ...]]) -> Game:
    """Replace one infoset by the given blocks of its nodes."""
    old = game.infosets[player][infoset_id]
    per = dict(game.infosets[player])
    del per[infoset_id]
    for block in blocks:
        if len(blocks) == 1:
            per[infoset_id] = old
            break
        bid = _block_id(infoset_id, block)
        per[bid] = Infoset(id=bid, player=player, nodes=block, actions=old.actions)
    return replace(game, infosets={**game.infosets, player: per})


def apply_split(game: Game, step: SplitStep, root_game: Optional[Game] = None) -> Game:
    """Execute a split; reject invalid subsets and splits finer than the
    perfect-recall ceiling of ``root_game`` (default: the game itself)."""
    iset = game.infoset(step.infoset_id, step.player)
    a, b = set(step.part_a), set(step.part_b)
    if not a or not b or (a & b) or (a | b) != set(iset.nodes):
        raise ValueError(
            f"invalid split of {step.infoset_id!r}: parts must be nonempty, "
            "disjoint, and cover the infoset"
        )
    blocks = [
        tuple(n for n in iset.nodes if n in a),
        tuple(n for n in iset.nodes if n in b),
    ]
    result = _with_partition(game, step.player, step.infoset_id, blocks)
    anchor = root_game if root_game is not None else game
    if not is_partial_refinement(result, anchor, step.player):
        raise ValueError("not recall-consistent: split exceeds the perfect-recall ceiling")
    return result


def _set_partitions(items: list, max_blocks: int):
    """All partitions of ``items`` into at most ``max_blocks`` blocks,
    emitted deterministically (restricted-growth order)."""

    def rec(idx: int, blocks: list[list]):
        if idx == len(items):
            yield [tuple(b) for b in blocks]
            return
        item = items[idx]
        for b in blocks:
            b.append(item)
            yield from rec(idx + 1, blocks)
            b.pop()
        if len(blocks) < max_blocks:
            blocks.append([item])
            yield from rec(idx + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def _partition_key(game: Game, player: int) -> tuple:
    """Canonical representation of the player's infoset partition."""
    return tuple(
        sorted(
            tuple(sorted(i.nodes)) for i in game.infosets.get(player, {}).values()
        )
    )


# More candidate refinements than this raise CapExceededError.
_REFINEMENT_CAP = 20_000


def enumerate_k_refinements(game: Game, player: int, k: int) -> list[Game]:
    """Every game reachable from this one by at most ``k`` admissible
    splits, deduplicated by the resulting partition.

    Refinements are exactly the per-infoset groupings of the perfect-recall
    atoms, so enumeration walks atom-set partitions with a shared split
    budget instead of replaying split sequences.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    game._check_player(player)
    if k == 0:
        return [game]
    pr_game, plan = perfect_recall_refinement(game, player)
    per_infoset: list[tuple[str, list[tuple[str, ...]]]] = []
    for iid in sorted(game.infosets.get(player, {})):
        atoms = [tuple(pr_game.infosets[player][f].nodes) for f in plan.mapping[iid]]
        per_infoset.append((iid, atoms))

    # Partition choices per infoset grouped by extra-split cost.
    options: list[list[tuple[int, list[tuple[str, ...]]]]] = []
    for iid, atoms in per_infoset:
        opts = []
        for part in _set_partitions(atoms, min(len(atoms), k + 1)):
            blocks = [tuple(sorted(n for a in block for n in a)) for block in part]
            opts.append((len(blocks) - 1, blocks))
        options.append(opts)

    results: dict[tuple, Game] = {}

    def rec(idx: int, budget: int, current: Game):
        if len(results) > _REFINEMENT_CAP:
            raise CapExceededError(
                f"more than {_REFINEMENT_CAP} candidate refinements; lower k"
            )
        if idx == len(per_infoset):
            key = _partition_key(current, player)
            if key not in results:
                results[key] = current
            return
        iid = per_infoset[idx][0]
        for cost, blocks in options[idx]:
            if cost > budget:
                continue
            rec(idx + 1, budget - cost, _with_partition(current, player, iid, blocks))

    rec(0, k, game)
    return [results[key] for key in sorted(results)]


def _scored_refinements(game: Game, k: int, cfg: SolverConfig
                        ) -> tuple[list[tuple[Game, Num]], tuple[Game, Num]]:
    """Every at-most-k-split refinement of the single player, in
    ``enumerate_k_refinements`` order, with its ``optimal_strategy``
    utility, and the best of them: ties prefer fewer splits, then the
    smallest canonical partition."""
    if game.players != 1:
        raise ValueError("k_best_partial expects a single-player game")
    scored = [(cand, optimal_strategy(cand, cfg).utilities[0])
              for cand in enumerate_k_refinements(game, 1, k)]
    base = len(game.infosets.get(1, {}))
    best = min(scored, key=lambda cs: (
        -float(cs[1]), len(cs[0].infosets.get(1, {})) - base, _partition_key(cs[0], 1)))
    return scored, best


def k_best_partial(
    game: Game,
    k: int,
    cfg: Optional[SolverConfig] = None,
) -> tuple[Game, Num]:
    """Exhaustively score every at-most-k-split refinement by its
    ``optimal_strategy`` utility; ties prefer fewer splits, then the
    smallest canonical partition."""
    return _scored_refinements(game, k, _cfg(cfg))[1]
