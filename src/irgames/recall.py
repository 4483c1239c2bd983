"""Recall refinements: the partial order on infoset partitions, the
coarsest perfect-recall refinement, and the dummy-node transform.

Two games are comparable only when they share the exact same tree (node
ids, ownership, actions, chance, utilities); refinements differ solely in
how one player's decision nodes are grouped into infosets.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Optional

from .game import Game, Infoset, Node


@dataclass(frozen=True)
class RefinementPlan:
    """Witness that one game refines another for a given player.

    ``mapping`` sends each coarse infoset id to the fine infoset ids whose
    node sets disjointly partition it.
    """

    player: int
    mapping: dict[str, tuple[str, ...]]


class NotComparableError(ValueError):
    """The two games do not share the same game tree."""


def same_tree(a: Game, b: Game) -> bool:
    """Node-identifier-based tree equality: ids, owners, actions, children,
    chance distributions, and utilities all identical."""
    if a.players != b.players or a.root != b.root:
        return False
    if set(a.nodes) != set(b.nodes):
        return False
    for nid, node in a.nodes.items():
        other = b.nodes[nid]
        if (
            node.owner != other.owner
            or node.actions != other.actions
            or node.children != other.children
            or node.chance_dist != other.chance_dist
        ):
            return False
    return a.utilities == b.utilities


def refines(g_fine: Game, g_coarse: Game, player: int) -> Optional[RefinementPlan]:
    """Return the plan witnessing ``g_fine >= g_coarse`` for ``player``,
    or None when the relation does not hold.

    Raises NotComparableError when the trees differ.
    """
    if not same_tree(g_fine, g_coarse):
        raise NotComparableError("not comparable: games have different trees")
    g_fine._check_player(player)

    fine_by_node: dict[str, str] = {}
    for iset in g_fine.infosets.get(player, {}).values():
        for nid in iset.nodes:
            fine_by_node[nid] = iset.id

    mapping: dict[str, tuple[str, ...]] = {}
    for iset in g_coarse.infosets.get(player, {}).values():
        coarse_nodes = set(iset.nodes)
        fine_ids = sorted({fine_by_node[n] for n in iset.nodes})
        union: set[str] = set()
        for fid in fine_ids:
            members = set(g_fine.infosets[player][fid].nodes)
            if not members <= coarse_nodes:
                return None  # a fine infoset crosses the coarse boundary
            union |= members
        if union != coarse_nodes:
            return None
        mapping[iset.id] = tuple(fine_ids)
    return RefinementPlan(player=player, mapping=mapping)


def own_histories(game: Game, player: int
                  ) -> tuple[dict[str, tuple[int, int]], list[tuple[int, str, str]]]:
    """node id -> (id, length) of the player's own history there: the
    (infoset, action) steps of its ``obs_i``.  One root walk extends each
    parent's history by at most one step and numbers every distinct
    (history, step) pair once, so two nodes share an id exactly when their
    ``obs_i`` keys are equal.  Also returns the step table: entry ``h`` is
    history ``h``'s (parent id, infoset, action); the empty history is -1.

    The walk runs once per game and player and is kept in ``game.memo``,
    so the perfect-recall test, the refinement and the sequence-form DP of
    optimal play share it.  Callers must not mutate the result."""
    key = ("own histories", player)
    if key not in game.memo:
        game.memo[key] = _walk_own_histories(game, player)
    return game.memo[key]


def _walk_own_histories(game: Game, player: int
                        ) -> tuple[dict[str, tuple[int, int]], list[tuple[int, str, str]]]:
    ids: dict[tuple, int] = {}
    out = {game.root: (-1, 0)}
    stack = [game.root]
    while stack:
        nid = stack.pop()
        node = game.nodes[nid]
        history, length = out[nid]
        for child in node.children:
            if node.owner == player:
                step = (history, game.infoset_of_node[nid], game.incoming_action[child])
                out[child] = (ids.setdefault(step, len(ids)), length + 1)
            else:
                out[child] = (history, length)
            stack.append(child)
    return out, list(ids)


def has_perfect_recall(game: Game, player: int) -> bool:
    """True iff all nodes of each infoset of ``player`` share obs_i."""
    game._check_player(player)
    history, _ = own_histories(game, player)
    return all(
        len({history[nid] for nid in iset.nodes}) <= 1
        for iset in game.infosets.get(player, {}).values()
    )


def _history_names(steps: list[tuple[int, str, str]]
                   ) -> tuple[dict[int, int], dict[int, str]]:
    """Rank of every own history in the sorted order of its ``obs_i`` key
    (the tuple of its (infoset, action) steps), and the first 8 hex digits
    of the SHA-1 of the key's ``repr``.  A preorder walk of the history
    trie, children in step order, meets the keys in sorted order; each
    history's hash state extends a copy of its parent's by one step of the
    ``repr``, so no key is ever built."""
    children: dict[int, list[int]] = {}
    for h, (parent, _, _) in enumerate(steps):
        children.setdefault(parent, []).append(h)
    rank: dict[int, int] = {}
    digest: dict[int, str] = {}
    stack = [(-1, 0, hashlib.sha1(b"("))]
    while stack:
        h, length, state = stack.pop()
        rank[h] = len(rank)
        done = state.copy()
        done.update(b",)" if length == 1 else b")")  # as repr closes a 1-tuple
        digest[h] = done.hexdigest()[:8]
        for c in sorted(children.get(h, ()), key=lambda c: steps[c][1:], reverse=True):
            child = state.copy()
            child.update(((", " if length else "") + repr(steps[c][1:])).encode("utf-8"))
            stack.append((c, length + 1, child))
    return rank, digest


def _perfect_recall_partition(game: Game, player: int
                              ) -> tuple[dict[str, Infoset], dict[str, tuple[str, ...]]]:
    """The player's infosets split by observed-history equivalence, and
    the map from each old infoset id to its parts' ids."""
    game._check_player(player)
    history, steps = own_histories(game, player)
    rank, digest = _history_names(steps)
    new_isets: dict[str, Infoset] = {}
    mapping: dict[str, tuple[str, ...]] = {}
    for iset in game.infosets.get(player, {}).values():
        classes: dict[int, list[str]] = {}
        for nid in iset.nodes:
            classes.setdefault(history[nid][0], []).append(nid)
        if len(classes) == 1:
            new_isets[iset.id] = iset
            mapping[iset.id] = (iset.id,)
            continue
        ids = []
        for h in sorted(classes, key=rank.__getitem__):
            cid = f"{iset.id}.{digest[h]}"
            new_isets[cid] = Infoset(
                id=cid,
                player=player,
                nodes=tuple(classes[h]),
                actions=iset.actions,
            )
            ids.append(cid)
        mapping[iset.id] = tuple(ids)
    return new_isets, mapping


def perfect_recall_refinement(game: Game, player: int) -> tuple[Game, RefinementPlan]:
    """Split each infoset of ``player`` by observed-history equivalence.

    Nodes stay together exactly when their obs_i sequences agree; every
    other player's partition is untouched.  New infoset ids are derived
    from the old id and a content hash of the shared observation, so
    repeated runs are bit-identical.  Infosets that do not split keep
    their id.
    """
    new_isets, mapping = _perfect_recall_partition(game, player)
    refined = replace(game, infosets={**game.infosets, player: new_isets},
                      name=f"pr_{player}({game.name})" if game.name else "")
    return refined, RefinementPlan(player=player, mapping=mapping)


def perfect_recall_refinement_all(game: Game) -> Game:
    """Apply the perfect-recall split to every strategic player at once.

    Each player's split uses the original game's observations, mirroring
    the simultaneous all-player definition.
    """
    infosets = {**game.infosets, **{
        player: _perfect_recall_partition(game, player)[0]
        for player in range(1, game.players + 1)
    }}
    return replace(game, infosets=infosets,
                   name=f"pr({game.name})" if game.name else "")


def check_coarsest(game: Game, player: int, candidate: Game) -> bool:
    """Oracle for the coarsest-refinement property.

    Preconditions (checked, reported as ValueError): ``candidate`` shares
    the tree, refines ``game`` for ``player``, and gives that player
    perfect recall.  Under those, the coarsest perfect-recall refinement
    must itself be refined by the candidate; returns that truth value.
    """
    if not same_tree(game, candidate):
        raise NotComparableError("not comparable: games have different trees")
    if refines(candidate, game, player) is None:
        raise ValueError("precondition failed: candidate does not refine game")
    if not has_perfect_recall(candidate, player):
        raise ValueError("precondition failed: candidate lacks perfect recall")
    pr_game, _ = perfect_recall_refinement(game, player)
    return refines(candidate, pr_game, player) is not None


def full_information_refinement(game: Game, player: int) -> Game:
    """Put every decision node of ``player`` in its own singleton infoset
    (perfect information for that player; the finest refinement)."""
    game._check_player(player)
    new_isets = {}
    for iset in game.infosets.get(player, {}).values():
        if len(iset.nodes) == 1:
            new_isets[iset.id] = iset
            continue
        for nid in iset.nodes:
            cid = f"{iset.id}#{nid}"
            new_isets[cid] = Infoset(
                id=cid, player=player, nodes=(nid,), actions=iset.actions
            )
    return replace(game, infosets={**game.infosets, player: new_isets},
                   name=f"perfect_info_{player}({game.name})" if game.name else "")


def dummy_node_transform(game: Game, player: int) -> Game:
    """Insert a single-action node of ``player`` before each of its
    decision nodes, each in its own singleton infoset.

    The added observations make the player's perfect-recall refinement
    fully informative (all-singleton infosets) while preserving utilities
    and every other player's infosets.
    """
    game._check_player(player)
    targets = [nid for nid, n in game.nodes.items() if n.owner == player]
    if not targets:
        return game

    dummy_of = {nid: f"d:{nid}" for nid in targets}
    nodes = {nid: replace(node, children=tuple(dummy_of.get(c, c) for c in node.children))
             for nid, node in game.nodes.items()}
    for nid, did in dummy_of.items():
        nodes[did] = Node(id=did, owner=player, actions=("pass",), children=(nid,))

    per = dict(game.infosets.get(player, {}))
    for nid, did in sorted(dummy_of.items()):
        iset_id = f"Id:{nid}"
        per[iset_id] = Infoset(
            id=iset_id, player=player, nodes=(did,), actions=("pass",)
        )
    return replace(game, root=dummy_of.get(game.root, game.root), nodes=nodes,
                   infosets={**game.infosets, player: per},
                   name=f"dummy_{player}({game.name})" if game.name else "")
