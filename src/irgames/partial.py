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

from .config import CapExceededError, SolverConfig, _cfg
from .game import Game, Infoset, Num
from .recall import optimal_strategy, refines, perfect_recall_refinement


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


def _cut(old: Infoset, blocks: list[tuple[str, ...]]) -> dict[str, Infoset]:
    """The infosets that replace ``old`` once it is cut into the given
    blocks of its nodes: ``old`` itself for one block."""
    if len(blocks) == 1:
        return {old.id: old}
    ids = [_block_id(old.id, block) for block in blocks]
    return {bid: Infoset(id=bid, player=old.player, nodes=block, actions=old.actions)
            for bid, block in zip(ids, blocks)}


def _with_partition(game: Game, player: int, infoset_id: str,
                    blocks: list[tuple[str, ...]]) -> Game:
    """Replace one infoset by the given blocks of its nodes."""
    per = dict(game.infosets[player])
    per.update(_cut(per.pop(infoset_id), blocks))
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


def _grouping_count(m: int, most: int) -> int:
    """Partitions of ``m`` atoms into at most ``most`` blocks: the sum of
    the Stirling numbers S(m, j), j <= most.  The count never falls as
    ``m`` grows, so it stops at the first row past the cap."""
    row = [1]  # row[j] = S(i, j) for j <= min(i, most)
    for i in range(1, m + 1):
        prev = row + [0]
        row = [0] + [j * prev[j] + prev[j - 1] for j in range(1, min(i, most) + 1)]
        if sum(row) > _REFINEMENT_CAP:
            break
    return sum(row)


def enumerate_k_refinements(game: Game, player: int, k: int) -> list[Game]:
    """Every game reachable from this one by at most ``k`` admissible
    splits, one per partition, in order of the canonical partition.

    Refinements are exactly the per-infoset groupings of the perfect-recall
    atoms, so enumeration extends the choices one infoset at a time, in
    sorted id order, under a shared split budget.  Every partial choice
    completes to a refinement (the rest left whole), so more than
    ``_REFINEMENT_CAP`` partial choices, or groupings of one infoset
    (counted before any is built), raise ``CapExceededError``.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    game._check_player(player)
    if k == 0:
        return [game]
    over = CapExceededError(f"more than {_REFINEMENT_CAP} candidate refinements; lower k")
    pr_game, plan = perfect_recall_refinement(game, player)
    isets = game.infosets.get(player, {})
    # Choices: (splits left, the chosen infosets as a list linked last
    # first), so extending one is constant work.
    choices: list[tuple[int, Optional[tuple]]] = [(k, None)]
    for iid in sorted(isets):
        atoms = [tuple(pr_game.infosets[player][f].nodes) for f in plan.mapping[iid]]
        if _grouping_count(len(atoms), k + 1) > _REFINEMENT_CAP:
            raise over
        options = [
            (len(part) - 1, _cut(isets[iid], [
                tuple(sorted(n for atom in block for n in atom)) for block in part]))
            for part in _set_partitions(atoms, min(len(atoms), k + 1))
        ]
        grown = []
        for budget, chain in choices:
            grown.extend((budget - cost, (cut, chain))
                         for cost, cut in options if cost <= budget)
            if len(grown) > _REFINEMENT_CAP:
                raise over
        choices = grown

    candidates = []
    for _, chain in choices:
        cuts = []
        while chain is not None:
            cut, chain = chain
            cuts.append(cut)
        per = {iid: iset for cut in reversed(cuts) for iid, iset in cut.items()}
        candidates.append(replace(game, infosets={**game.infosets, player: per}))
    return sorted(candidates, key=lambda cand: _partition_key(cand, player))


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
