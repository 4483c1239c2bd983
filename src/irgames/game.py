"""Immutable extensive-form game trees with information sets.

A game couples a rooted tree (nodes owned by strategic players, chance, or
marked terminal) with one infoset partition per strategic player.  Numbers
(chance probabilities, utilities) are either ``fractions.Fraction`` or
``float``; a game whose numbers are all Fractions supports exact arithmetic
end to end ("rational mode").

Every expected utility here is a sum over leaves of the player's utility
times the leaf's reach monomial: its chance coefficient times each strategy
entry on its path, raised to the number of times the path takes it.
``Game.leaves`` compiles these monomials once per game; gradients,
deviations, the compiled arrays and the coefficients read them from there,
and ``Game.numeric`` is their float table, also built once.  The exact
reach and value evaluators (``expected_utility``, ``infoset_reach``,
``infoset_frequency``, ``realization_equivalent``, and the perfect-recall
DP of optimal play) walk the tree instead: one top-down pass of
``node_reach_map``, which the DP follows with one bottom-up pass over the
player's own histories.  They stay walks because the leaf table holds quadratically many visits on a chain of
distinct infosets (about n**2 / 2 on lenny(n)'s perfect-recall refinement),
where a walk is linear.  ``Game.memo`` keeps what solvers derive from the
game once per input.

Nothing here mutates: refinements and transforms build new ``Game`` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

Num = Union[Fraction, float]

CHANCE = "chance"
TERMINAL = "terminal"

#: Prefix for the reserved per-node infoset identifiers of chance nodes.
CHANCE_INFOSET_PREFIX = "chance:"


def chance_infoset_id(node_id: str) -> str:
    """Reserved singleton infoset identifier for a chance node."""
    return CHANCE_INFOSET_PREFIX + node_id


@dataclass(frozen=True)
class Node:
    """One tree node: an owner plus an ordered action -> child mapping.

    ``owner`` is a 1-based player index, ``"chance"``, or ``"terminal"``.
    ``chance_dist`` is only present on chance nodes and aligns with
    ``actions``/``children``.
    """

    id: str
    owner: Union[int, str]
    actions: tuple[str, ...] = ()
    children: tuple[str, ...] = ()
    chance_dist: Optional[tuple[Num, ...]] = None

    @property
    def is_terminal(self) -> bool:
        return self.owner == TERMINAL

    @property
    def is_chance(self) -> bool:
        return self.owner == CHANCE


@dataclass(frozen=True)
class Infoset:
    """A set of decision nodes one player cannot tell apart.

    All member nodes must share the owner and the ordered action list, so a
    behavioral strategy can assign a single distribution to the whole set.
    """

    id: str
    player: int
    nodes: tuple[str, ...]
    actions: tuple[str, ...]


@dataclass(frozen=True)
class ObservationSequence:
    """Ordered (owner, infoset, action) triples along a root-to-node path."""

    steps: tuple[tuple[Union[int, str], str, str], ...]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


class Leaf(NamedTuple):
    """A terminal's reach monomial.

    ``chance`` is the product of the chance probabilities on the path (exact
    in rational mode); ``visits`` pairs every ``(player, infoset_id,
    action_index)`` the path takes with the number of times it takes it, in
    order of first visit.
    """

    chance: Num
    visits: tuple[tuple[tuple[int, str, int], int], ...]


@dataclass(frozen=True)
class Game:
    """An extensive-form game, immutable after construction.

    Construction is permissive: invalid data (bad chance sums, ragged
    infosets, ...) is representable so that :func:`validate_game` can report
    it.  Everything downstream assumes a validated game.
    """

    players: int
    root: str
    nodes: Mapping[str, Node]
    utilities: Mapping[str, tuple[Num, ...]]
    infosets: Mapping[int, Mapping[str, Infoset]]
    name: str = ""

    # -- derived, cached views -------------------------------------------

    @cached_property
    def parent(self) -> dict[str, Optional[str]]:
        out: dict[str, Optional[str]] = {self.root: None}
        for node in self.nodes.values():
            for child in node.children:
                out[child] = node.id
        return out

    @cached_property
    def incoming_action(self) -> dict[str, str]:
        """Action label on the edge entering each non-root node."""
        out: dict[str, str] = {}
        for node in self.nodes.values():
            for action, child in zip(node.actions, node.children):
                out[child] = action
        return out

    @cached_property
    def terminals(self) -> tuple[str, ...]:
        return tuple(
            nid for nid in self._ordered_ids() if self.nodes[nid].is_terminal
        )

    @cached_property
    def infoset_of_node(self) -> dict[str, str]:
        """node id -> infoset id, including reserved chance infosets."""
        out: dict[str, str] = {}
        for per_player in self.infosets.values():
            for infoset in per_player.values():
                for nid in infoset.nodes:
                    out[nid] = infoset.id
        for node in self.nodes.values():
            if node.is_chance:
                out[node.id] = chance_infoset_id(node.id)
        return out

    @cached_property
    def is_rational(self) -> bool:
        """True when every number in the game is an exact Fraction."""
        for node in self.nodes.values():
            if node.chance_dist is not None:
                if not all(isinstance(p, Fraction) for p in node.chance_dist):
                    return False
        for utils in self.utilities.values():
            if not all(isinstance(u, Fraction) for u in utils):
                return False
        return True

    @cached_property
    def leaves(self) -> dict[str, Leaf]:
        """terminal id -> its :class:`Leaf`, in ``terminals`` order; built
        by one iterative root-to-leaf pass."""
        out: dict[str, Leaf] = {}
        stack: list = [(self.root, Fraction(1), {})]
        while stack:
            nid, chance, counts = stack.pop()
            node = self.nodes[nid]
            if node.is_terminal:
                out[nid] = Leaf(chance, tuple(counts.items()))
            for idx in reversed(range(len(node.children))):
                child = node.children[idx]
                if node.is_chance:
                    stack.append((child, chance * node.chance_dist[idx], counts))
                else:
                    key = (node.owner, self.infoset_of_node[nid], idx)
                    visited = {**counts, key: counts.get(key, 0) + 1}
                    stack.append((child, chance, visited))
        return out

    @cached_property
    def leaves_visiting(self) -> dict[tuple[int, str], tuple[str, ...]]:
        """(player, infoset id) -> the leaves whose path visits the infoset,
        in ``terminals`` order."""
        out: dict[tuple[int, str], list[str]] = {}
        for z, leaf in self.leaves.items():
            for key in dict.fromkeys((p, iid) for (p, iid, _), _ in leaf.visits):
                out.setdefault(key, []).append(z)
        return {key: tuple(zs) for key, zs in out.items()}

    @cached_property
    def absentminded(self) -> dict[int, frozenset[str]]:
        """player -> the infosets some leaf's path visits at least twice.

        One iterative root walk: it counts each (player, infoset) on the
        current path, pushed on entering a decision node and popped on
        leaving it, so a node whose infoset is already on the path marks
        it.  Linear in the nodes, unlike the leaf table, which holds
        quadratically many visits on deep chains."""
        out: dict[int, set[str]] = {p: set() for p in range(1, self.players + 1)}
        on_path: dict[tuple[int, str], int] = {}
        stack: list = [(self.root, True)]
        while stack:
            nid, entering = stack.pop()
            node = self.nodes[nid]
            if node.is_terminal or node.is_chance:
                stack.extend((c, True) for c in node.children)
                continue
            key = (node.owner, self.infoset_of_node[nid])
            if not entering:
                on_path[key] -= 1
                continue
            if on_path.get(key):
                out[node.owner].add(key[1])
            on_path[key] = on_path.get(key, 0) + 1
            stack.append((nid, False))
            stack.extend((c, True) for c in node.children)
        return {p: frozenset(isets) for p, isets in out.items()}

    @cached_property
    def numeric(self):
        """The game's compiled float table, a ``numeric.NumericGame``."""
        from .numeric import NumericGame

        return NumericGame(self)

    @cached_property
    def memo(self) -> dict:
        """Results derived from this game that are computed once and shared,
        keyed by everything they depend on that a caller can set: its
        perfect-recall refinements, each player's own histories
        (``recall.own_histories``), and its optimal play and a polish
        family's equilibrium classes under one ``SolverConfig``.  The
        solvers' module constants are not in the keys.  Stored results are
        never mutated."""
        return {}

    def _ordered_ids(self) -> list[str]:
        """Node ids in deterministic depth-first order from the root."""
        order: list[str] = []
        stack = [self.root]
        seen = set()
        while stack:
            nid = stack.pop()
            if nid in seen or nid not in self.nodes:
                continue
            seen.add(nid)
            order.append(nid)
            stack.extend(reversed(self.nodes[nid].children))
        return order

    # -- small conveniences ----------------------------------------------

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown node identifier: {node_id!r}") from None

    def infoset(self, infoset_id: str, player: Optional[int] = None) -> Infoset:
        candidates = (
            [player] if player is not None else list(self.infosets.keys())
        )
        for p in candidates:
            found = self.infosets.get(p, {}).get(infoset_id)
            if found is not None:
                return found
        raise KeyError(f"unknown infoset identifier: {infoset_id!r}")

    def _check_player(self, player: int) -> None:
        if not (isinstance(player, int) and 1 <= player <= self.players):
            raise ValueError(
                f"unknown player {player!r} (game has players 1..{self.players})"
            )


def make_game(
    players: int,
    root: str,
    nodes: Iterable[Node],
    utilities: Mapping[str, Sequence[Num]],
    infosets: Iterable[Infoset],
    name: str = "",
) -> Game:
    """Assemble a Game from flat node/infoset collections."""
    node_map = {n.id: n for n in nodes}
    iset_map: dict[int, dict[str, Infoset]] = {p: {} for p in range(1, players + 1)}
    for iset in infosets:
        iset_map.setdefault(iset.player, {})[iset.id] = iset
    util_map = {z: tuple(us) for z, us in utilities.items()}
    return Game(
        players=players,
        root=root,
        nodes=node_map,
        utilities=util_map,
        infosets=iset_map,
        name=name,
    )


# ---------------------------------------------------------------------------
# Path and observation queries
# ---------------------------------------------------------------------------


def seq(game: Game, node_id: str) -> list[str]:
    """Nodes on the path from the root to ``node_id``, excluding it."""
    game.node(node_id)
    path: list[str] = []
    cur = game.parent.get(node_id)
    while cur is not None:
        path.append(cur)
        cur = game.parent.get(cur)
    path.reverse()
    return path


def obs(game: Game, node_id: str) -> ObservationSequence:
    """(owner, infoset, action) for every ancestor of ``node_id``, in order.

    Chance ancestors carry their reserved singleton infoset identifier.
    """
    steps = []
    path = seq(game, node_id)
    path_with_target = path + [node_id]
    for ancestor, successor in zip(path, path_with_target[1:]):
        node = game.nodes[ancestor]
        action = game.incoming_action[successor]
        steps.append((node.owner, game.infoset_of_node[ancestor], action))
    return ObservationSequence(steps=tuple(steps))


def obs_i(game: Game, node_id: str, player: int) -> ObservationSequence:
    """The subsequence of :func:`obs` owned by ``player``."""
    game._check_player(player)
    full = obs(game, node_id)
    return ObservationSequence(
        steps=tuple(s for s in full.steps if s[0] == player)
    )


def first_visit_nodes(game: Game, infoset_id: str, player: Optional[int] = None) -> set[str]:
    """Members of the infoset whose path does not already visit it: the
    members a walk from the root meets first, not descending past them."""
    members = set(game.infoset(infoset_id, player).nodes)
    out = set()
    stack = [game.root]
    while stack:
        nid = stack.pop()
        if nid in members:
            out.add(nid)
        else:
            stack.extend(game.nodes[nid].children)
    return out


def has_absentmindedness(game: Game, player: int) -> bool:
    """True iff some infoset of ``player`` contains a node and a proper
    ancestor of it (equivalently: appears twice along one path of play)."""
    game._check_player(player)
    return bool(game.absentminded[player])


def chance_nodes(game: Game) -> tuple[str, ...]:
    return tuple(
        nid for nid in game._ordered_ids() if game.nodes[nid].is_chance
    )


def subtree_nodes(game: Game, node_id: str) -> list[str]:
    """All nodes of the subtree rooted at ``node_id`` (depth-first order)."""
    game.node(node_id)
    out: list[str] = []
    stack = [node_id]
    while stack:
        nid = stack.pop()
        out.append(nid)
        stack.extend(reversed(game.nodes[nid].children))
    return out


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

_CHANCE_SUM_TOL = Fraction(1, 10**12)


def _non_finite(values: Iterable[Num]) -> list[float]:
    """The NaN and infinite entries of ``values``; a Fraction is finite."""
    return [v for v in values if isinstance(v, float) and not math.isfinite(v)]


def validate_game(game: Game) -> list[str]:
    """Return every invariant violation; an empty list means valid.

    Violations are data, not exceptions: intentionally broken games are
    representable so callers can inspect what is wrong.
    """
    problems: list[str] = []

    if game.players < 1:
        problems.append(f"player count must be >= 1, got {game.players}")
    if game.root not in game.nodes:
        problems.append(f"root {game.root!r} is not a node")
        return problems

    # Tree shape: single parent, no cycles, all reachable.
    parent_count: dict[str, int] = {nid: 0 for nid in game.nodes}
    for node in game.nodes.values():
        if len(node.actions) != len(node.children):
            problems.append(
                f"node {node.id!r}: {len(node.actions)} actions vs "
                f"{len(node.children)} children"
            )
        if len(set(node.actions)) != len(node.actions):
            problems.append(f"node {node.id!r}: duplicate action labels")
        for child in node.children:
            if child not in game.nodes:
                problems.append(f"node {node.id!r}: unknown child {child!r}")
            else:
                parent_count[child] += 1
    if parent_count.get(game.root, 0) != 0:
        problems.append(f"root {game.root!r} has a parent edge")
    for nid, count in parent_count.items():
        if nid != game.root and count != 1:
            problems.append(f"node {nid!r} has {count} parents (expected 1)")
    reachable = set(game._ordered_ids())
    for nid in game.nodes:
        if nid not in reachable:
            problems.append(f"node {nid!r} unreachable from root")

    for node in game.nodes.values():
        if node.is_terminal:
            if node.children:
                problems.append(f"terminal node {node.id!r} has children")
        else:
            if not node.children:
                problems.append(f"non-terminal node {node.id!r} has no children")
        if node.is_chance:
            dist = node.chance_dist
            if dist is None or len(dist) != len(node.actions):
                problems.append(
                    f"chance node {node.id!r}: distribution missing or misaligned"
                )
            else:
                for p in _non_finite(dist):
                    problems.append(f"chance node {node.id!r}: probability {p} is not finite")
                if any(p < 0 for p in dist):
                    problems.append(f"chance node {node.id!r}: negative probability")
                total = sum(dist)
                exact = all(isinstance(p, Fraction) for p in dist)
                bad = (total != 1) if exact else (abs(total - 1) > _CHANCE_SUM_TOL)
                if bad:
                    problems.append(
                        f"chance node {node.id!r}: chance distribution sums to "
                        f"{float(total):.12g}"
                    )
        elif node.chance_dist is not None:
            problems.append(f"non-chance node {node.id!r} carries a distribution")
        if isinstance(node.owner, int) and not (1 <= node.owner <= game.players):
            problems.append(f"node {node.id!r}: owner {node.owner} out of range")
        elif not isinstance(node.owner, int) and node.owner not in (CHANCE, TERMINAL):
            problems.append(f"node {node.id!r}: bad owner {node.owner!r}")

    # Infoset partitions: one pass over the infosets the game holds, so an
    # infoset of a player beyond the count is seen, and one over its nodes,
    # not one per player.
    covered: dict[tuple[int, str], str] = {}
    for player, isets in game.infosets.items():
        for iset in isets.values():
            if not (isinstance(player, int) and 1 <= player <= game.players):
                problems.append(f"infoset {iset.id!r}: player {player!r} out of range")
            if not iset.nodes:
                problems.append(f"infoset {iset.id!r}: empty")
            for nid in iset.nodes:
                if (player, nid) in covered:
                    problems.append(
                        f"node {nid!r} in two infosets of player {player}: "
                        f"{covered[player, nid]!r} and {iset.id!r}"
                    )
                covered[player, nid] = iset.id
                node = game.nodes.get(nid)
                if node is None:
                    problems.append(f"infoset {iset.id!r}: unknown node {nid!r}")
                    continue
                if node.owner != player:
                    problems.append(
                        f"infoset {iset.id!r}: node {nid!r} owned by "
                        f"{node.owner!r}, not player {player}"
                    )
                elif node.actions != iset.actions:
                    problems.append(
                        f"infoset {iset.id!r}: node {nid!r} action list "
                        f"{list(node.actions)} differs from infoset's "
                        f"{list(iset.actions)}"
                    )
    for nid, node in game.nodes.items():
        if (isinstance(node.owner, int) and 1 <= node.owner <= game.players
                and (node.owner, nid) not in covered):
            problems.append(
                f"decision node {nid!r} of player {node.owner} not in any infoset"
            )

    # Utilities.
    for node in game.nodes.values():
        if not node.is_terminal:
            continue
        utils = game.utilities.get(node.id)
        if utils is None or len(utils) != game.players:
            problems.append(f"terminal {node.id!r}: missing or short utilities")
        else:
            for u in _non_finite(utils):
                problems.append(f"terminal {node.id!r}: utility {u} is not finite")
            if any(u < 0 for u in utils):
                problems.append(f"terminal {node.id!r}: negative utility")

    return problems
