"""Recall refinements: the partial order on infoset partitions, the
coarsest perfect-recall refinement, and the dummy-node transform; and
Player 1's pure optimum, a search bounded by that refinement's
sequence-form optimum, with the optimal-play dispatch that reads it.
Only optimal play that no exact path answers (an absentminded game whose
best pure strategy falls short of the refinement's optimum, a float
absentminded game, or a search past its budget) imports
``irgames.solvers`` and numpy, when it runs.

Two games are comparable only when they share the exact same tree (node
ids, ownership, actions, chance, utilities); refinements differ solely in
how one player's decision nodes are grouped into infosets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .game import Game, Infoset, Node, Num, has_absentmindedness
from .strategies import BehavioralStrategy, profile_from, pure_strategy

if TYPE_CHECKING:
    from .config import SolveReport, SolverConfig


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
    so the perfect-recall test, the refinement and the pure optimum share
    it.  Callers must not mutate the result."""
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


# Own-history steps that ``pure_optimum``'s search may visit before it
# gives up: each pass visits every step once, and the first always runs.
_SEARCH_BUDGET = 5_000_000


def pure_optimum(game: Game) -> Optional[tuple[Num, BehavioralStrategy]]:
    """Exact value and strategy of Player 1's best pure strategy in a
    single-player game, or None when the search runs past
    ``_SEARCH_BUDGET`` own-history steps; kept in ``game.memo``.  Without
    absentmindedness a pure optimum exists, so this is optimal play.

    A branch-and-bound (Land & Doig, 1960) over the infosets' actions.  An
    atom is an infoset's members that share one own history: an infoset of
    the coarsest perfect-recall refinement.  A node's bound is the
    refinement's optimum with every decided infoset forced to its action at
    all of its atoms, one sequence-form pass (Koller & Megiddo, GEB 1992):
    an atom is decided at its members' own history, whose value is its
    terminals' chance reach times utility plus, per atom decided there, the
    best value of the histories its actions lead to.  Steps are numbered
    after their parent, so one pass from the last history down to the empty
    one (-1) decides the atoms below a history first; ties take the first
    action.  By lifting the bound is at least every completion's value, and
    it is attained, so the node solved, when the atoms on the path the
    pass chose agree within every infoset.  Otherwise the search branches,
    depth first on an explicit stack, on the infoset whose on-path atoms
    disagree most, its majority action first, and prunes nodes bounded by
    the incumbent.  Under perfect recall the root pass is the answer."""
    found, proved = pure_search(game)
    return found if proved else None


def pure_search(game: Game) -> tuple[Optional[tuple[Num, BehavioralStrategy]], bool]:
    """The search's best pure strategy, with its exact value, and whether
    the search proved it optimal; kept in ``game.memo``.  Past
    ``_SEARCH_BUDGET`` it is the incumbent, a lower bound on optimal play
    (None if the search had found none), and False."""
    key = "pure optimum"
    if key not in game.memo:
        game.memo[key] = _pure_search(game)
    return game.memo[key]


def _pure_search(game: Game) -> tuple[Optional[tuple[Num, BehavioralStrategy]], bool]:
    history, steps = own_histories(game, 1)
    step_id = {step: h for h, step in enumerate(steps)}
    isets = list(game.infosets.get(1, {}).values())
    # Atoms as (own history, infoset index, step of each action), the last
    # history first and in infoset order within one; every step is one
    # atom's.  ``at`` lists each history's atoms, ``first`` each infoset's.
    atoms = sorted(((h, i, [step_id[h, iset.id, a] for a in iset.actions])
                    for i, iset in enumerate(isets)
                    for h in dict.fromkeys(history[nid][0] for nid in iset.nodes)),
                   key=lambda atom: -atom[0])
    at: dict[int, list[int]] = {}
    first: dict[int, int] = {}
    for j, (h, i, _) in enumerate(atoms):
        at.setdefault(h, []).append(j)
        first.setdefault(i, j)
    # ``history`` lists each node after its parent: one pass carries reach.
    # Values are indexed by history, the empty one (-1) last.
    reach = {game.root: Fraction(1)}
    base: list[Num] = [Fraction(0)] * (len(steps) + 1)
    for nid, (h, _) in history.items():
        node = game.nodes[nid]
        if node.is_terminal:
            base[h] += reach[nid] * game.utilities[nid][0]
        for idx, child in enumerate(node.children):
            reach[child] = reach[nid] * node.chance_dist[idx] if node.is_chance else reach[nid]
    # Integers and floats add far faster than fractions.  Over one common
    # denominator exact values stay exact; a float game's exact zeros
    # become 0.0, which leaves every float sum and comparison as it was.
    exact = all(isinstance(v, Fraction) for v in base)
    scale = math.lcm(*(v.denominator for v in base)) if exact else 1
    base = [v.numerator * (scale // v.denominator) if exact else float(v) for v in base]

    best: Optional[tuple[Num, dict[str, int]]] = None
    stack: list[dict[int, int]] = [{}]
    choice = [0] * len(atoms)
    visited = 0
    while stack:
        if visited and visited >= _SEARCH_BUDGET:  # past the root pass
            break
        forced = stack.pop()
        visited += len(steps)
        value = list(base)
        for j, (h, i, kids) in enumerate(atoms):
            a = forced.get(i)
            if a is None:
                row = [value[k] for k in kids]
                a = row.index(max(row))
            choice[j] = a
            value[h] += value[kids[a]]
        if best is not None and value[-1] <= best[0]:
            continue
        # The actions of the atoms on the chosen path, per infoset.
        taken: dict[int, list[int]] = {}
        path = [-1]
        while path:
            for j in at.get(path.pop(), ()):
                taken.setdefault(atoms[j][1], []).append(choice[j])
                path.append(atoms[j][2][choice[j]])
        split, worst = None, 0
        for i, actions in taken.items():
            counts = [actions.count(a) for a in range(len(isets[i].actions))]
            if len(actions) - max(counts) > worst:
                split, worst = (i, counts.index(max(counts))), len(actions) - max(counts)
        if split is None:
            best = value[-1], {iset.id: taken[i][0] if i in taken else choice[first[i]]
                               for i, iset in enumerate(isets)}
            continue
        i, majority = split
        for a in sorted(range(len(isets[i].actions)), key=lambda a: (a == majority, -a)):
            stack.append({**forced, i: a})
    if best is None:
        return None, False
    value, plan = best
    # The stack is empty only when the search ran to its end.
    return ((Fraction(value, scale) if exact else value),
            pure_strategy(game, 1, plan)), not stack


def optimal_strategy(game: Game, cfg: Optional[SolverConfig] = None) -> SolveReport:
    """Best achievable play in a single-player game.

    Without absentmindedness a pure optimum exists, so the answer is exact:
    ``pure_optimum``, the branch-and-bound whose bounds are the
    perfect-recall refinement's sequence-form optimum, unless it runs past
    its budget.  With absentmindedness two exact answers come first: one
    two-action row is maximised in closed form
    (``closed_form.two_action_optimum``) where its derivative allows, and
    in an exact game the best pure strategy is optimal when it meets the
    refinement's exact optimum, which by lifting bounds every strategy,
    mixed ones too.  What remains, and a search past its budget, is
    attacked by multistart projected ascent, with a seeded grid scan
    under absentmindedness (``solvers._numeric_opt``), seeded also with
    the best pure strategy the search found, also past its budget (the
    polish only ascends, so it answers no less); the best polished
    point is snapped to exact fractions when doing so loses nothing.
    The report is solved once per game and ``SolverConfig`` and kept in
    ``game.memo``.
    """
    # Imported here: a module-level import would bind ``irgames.config``
    # on ``import irgames``, which loads this module.
    from .config import _cfg

    cfg = _cfg(cfg)
    if game.players != 1:
        raise ValueError("optimal_strategy expects a single-player game; "
                         "use fix_opponents first")
    key = ("optimal strategy", cfg)
    if key not in game.memo:
        game.memo[key] = _solve_opt(game, cfg)
    return game.memo[key]


def _solve_opt(game: Game, cfg: SolverConfig) -> SolveReport:
    if not has_absentmindedness(game, 1):
        incumbent, proved = pure_search(game)
        found = incumbent if proved else None
    else:
        found = incumbent = None
        rows = list(game.infosets[1].values())
        if len(rows) == 1 and len(rows[0].actions) == 2:
            from .closed_form import two_action_optimum

            found = two_action_optimum(game)
        # Lifting keeps utility, so the refinement's exact optimum bounds
        # every strategy's value: a pure optimum that meets it is optimal.
        # Two float sums added in different orders prove nothing.
        if found is None and game.is_rational:
            incumbent = pure_search(game)[0]
            refined = perfect_recall_refinement(game, 1)[0]
            if incumbent is not None and incumbent[0] == pure_optimum(refined)[0]:
                found = incumbent
    if found is None:
        from .solvers import _numeric_opt

        return _numeric_opt(game, cfg, incumbent[1] if incumbent else None)
    from .config import SolveReport

    value, strategy = found
    return SolveReport(
        concept="OPT", which="any", profile=profile_from(strategy),
        utilities=(value,), residual=0.0, certified="exact",
    )


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
    import hashlib  # only here: ``import irgames`` need not load it

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
    their id.  Kept in ``game.memo``, so solves on the refinement share it.
    """
    key = ("perfect-recall refinement", player)
    if key not in game.memo:
        new_isets, mapping = _perfect_recall_partition(game, player)
        refined = replace(game, infosets={**game.infosets, player: new_isets},
                          name=f"pr_{player}({game.name})" if game.name else "")
        game.memo[key] = refined, RefinementPlan(player=player, mapping=mapping)
    return game.memo[key]


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
    perfect recall.  Under those, returns whether it refines the coarsest
    perfect-recall refinement: whether each of its infosets keeps to one
    ``obs_i`` of ``game``, read off ``own_histories``, not the split.
    """
    if not same_tree(game, candidate):
        raise NotComparableError("not comparable: games have different trees")
    if refines(candidate, game, player) is None:
        raise ValueError("precondition failed: candidate does not refine game")
    if not has_perfect_recall(candidate, player):
        raise ValueError("precondition failed: candidate lacks perfect recall")
    history, _ = own_histories(game, player)
    return all(len({history[nid][0] for nid in iset.nodes}) <= 1
               for iset in candidate.infosets.get(player, {}).values())


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
