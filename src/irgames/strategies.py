"""Behavioral strategies and everything evaluated from them: reach
probabilities, expected utilities, exact utility gradients, deviations,
strategy lifting across refinements, and realization equivalence.

Expected utilities of absentminded games are polynomials (not multilinear)
in the strategy entries, so gradients are computed by exact monomial
differentiation of the leaf monomials in ``Game.leaves``, the one source of
them, rather than by resampling or finite differences; the latter stay
available as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .game import CHANCE, Game, Infoset, Node, Num, _non_finite, first_visit_nodes, seq

# Float tolerance of a row's sum and of realization equivalence.
_TOL = 1e-9


@dataclass(frozen=True)
class BehavioralStrategy:
    """Per-infoset distributions over the infoset's ordered actions."""

    player: int
    table: Mapping[str, tuple[Num, ...]]

    def row(self, infoset_id: str) -> tuple[Num, ...]:
        try:
            return self.table[infoset_id]
        except KeyError:
            raise KeyError(
                f"strategy of player {self.player} has no row for infoset "
                f"{infoset_id!r}"
            ) from None

    def replace_row(self, infoset_id: str, probs: Sequence[Num]) -> "BehavioralStrategy":
        table = dict(self.table)
        table[infoset_id] = tuple(probs)
        return BehavioralStrategy(player=self.player, table=table)


@dataclass(frozen=True)
class StrategyProfile:
    """One behavioral strategy per strategic player, indexed 1..N."""

    strategies: tuple[BehavioralStrategy, ...]

    def __getitem__(self, player: int) -> BehavioralStrategy:
        for s in self.strategies:
            if s.player == player:
                return s
        raise KeyError(f"profile has no strategy for player {player}")

    def replace(self, strategy: BehavioralStrategy) -> "StrategyProfile":
        return StrategyProfile(
            strategies=tuple(
                strategy if s.player == strategy.player else s
                for s in self.strategies
            )
        )


def profile_from(*strategies: BehavioralStrategy) -> StrategyProfile:
    return StrategyProfile(strategies=tuple(strategies))


def uniform_strategy(game: Game, player: int, rational: Optional[bool] = None) -> BehavioralStrategy:
    """Uniform play at every infoset; Fractions in rational mode."""
    game._check_player(player)
    if rational is None:
        rational = game.is_rational
    table = {}
    for iset in game.infosets.get(player, {}).values():
        n = len(iset.actions)
        p = Fraction(1, n) if rational else 1.0 / n
        table[iset.id] = (p,) * n
    return BehavioralStrategy(player=player, table=table)


def pure_strategy(game: Game, player: int, choice: Mapping[str, int]) -> BehavioralStrategy:
    """Deterministic strategy given an action index per infoset."""
    table = {}
    for iset in game.infosets.get(player, {}).values():
        idx = choice[iset.id]
        row = [Fraction(0)] * len(iset.actions)
        row[idx] = Fraction(1)
        table[iset.id] = tuple(row)
    return BehavioralStrategy(player=player, table=table)


def uniform_profile(game: Game, rational: Optional[bool] = None) -> StrategyProfile:
    return StrategyProfile(
        strategies=tuple(
            uniform_strategy(game, p, rational) for p in range(1, game.players + 1)
        )
    )


def validate_profile(game: Game, profile: StrategyProfile) -> list[str]:
    """Report missing rows, rows for infosets the player does not have, and
    rows that are not distributions: a NaN or infinite entry, a negative
    one, or a sum other than one (a float row's may miss one by ``_TOL``)."""
    problems = []
    players_seen = sorted(s.player for s in profile.strategies)
    if players_seen != list(range(1, game.players + 1)):
        problems.append(f"profile covers players {players_seen}, game has {game.players}")
    for s in profile.strategies:
        own = game.infosets.get(s.player, {})
        for iid in s.table:
            if iid not in own:
                problems.append(f"player {s.player}: row for unknown infoset {iid!r}")
        for iset in own.values():
            row = s.table.get(iset.id)
            if row is None:
                problems.append(f"player {s.player}: missing row for {iset.id!r}")
                continue
            if len(row) != len(iset.actions):
                problems.append(f"player {s.player}: row {iset.id!r} has wrong length")
                continue
            for p in _non_finite(row):
                problems.append(
                    f"player {s.player}: probability {p} at {iset.id!r} is not finite")
            if any(p < 0 for p in row):
                problems.append(f"player {s.player}: negative probability at {iset.id!r}")
            total = sum(row)
            exact = all(isinstance(p, Fraction) for p in row)
            if (total != 1) if exact else (abs(float(total) - 1.0) > _TOL):
                problems.append(
                    f"player {s.player}: row {iset.id!r} sums to {float(total):.12g}"
                )
    return problems


# ---------------------------------------------------------------------------
# Reach probabilities and expected utility
# ---------------------------------------------------------------------------


def _step_probability(game: Game, profile: StrategyProfile, node: Node, child: str) -> Num:
    idx = node.children.index(child)
    if node.is_chance:
        return node.chance_dist[idx]
    iset_id = game.infoset_of_node[node.id]
    return profile[node.owner].row(iset_id)[idx]


def reach_probability(game: Game, profile: StrategyProfile, h_from: str, h_to: str) -> Num:
    """Product of strategy/chance probabilities along the path from
    ``h_from`` to ``h_to``; zero when ``h_from`` is not an ancestor."""
    game.node(h_from)
    game.node(h_to)
    if h_from == h_to:
        return Fraction(1) if game.is_rational else 1.0
    path = seq(game, h_to) + [h_to]
    if h_from not in path[:-1]:
        return Fraction(0) if game.is_rational else 0.0
    start = path.index(h_from)
    prob: Num = Fraction(1)
    for a, b in zip(path[start:-1], path[start + 1 :]):
        prob = prob * _step_probability(game, profile, game.nodes[a], b)
    return prob


def node_reach_map(game: Game, profile: StrategyProfile) -> dict[str, Num]:
    """Reach probability from the root for every node, in one top-down pass
    that skips subtrees entered with probability zero (pure profiles reach
    few nodes)."""
    zero, one = (Fraction(0), Fraction(1)) if game.is_rational else (0.0, 1.0)
    out: dict[str, Num] = dict.fromkeys(game.nodes, zero)
    out[game.root] = one
    stack = [game.root]
    while stack:
        nid = stack.pop()
        node = game.nodes[nid]
        if node.is_terminal:
            continue
        if node.is_chance:
            probs = node.chance_dist
        else:
            probs = profile[node.owner].row(game.infoset_of_node[nid])
        for child, p in zip(node.children, probs):
            if p:
                out[child] = out[nid] * p
                stack.append(child)
    return out


def infoset_reach(game: Game, profile: StrategyProfile, infoset_id: str) -> Num:
    """Probability of entering the infoset for the first time: sums node
    reach over first-visit members only."""
    reach = node_reach_map(game, profile)
    first = first_visit_nodes(game, infoset_id)
    return sum((reach[n] for n in sorted(first)), start=Fraction(0))


def infoset_frequency(game: Game, profile: StrategyProfile, infoset_id: str) -> Num:
    """Expected number of visits: sums node reach over all members, so the
    value may exceed 1 under absentmindedness."""
    iset = game.infoset(infoset_id)
    reach = node_reach_map(game, profile)
    return sum((reach[n] for n in iset.nodes), start=Fraction(0))


def expected_utility(game: Game, profile: StrategyProfile, player: int) -> Num:
    """Sum over terminals of reach from the root times the player's
    utility."""
    game._check_player(player)
    reach = node_reach_map(game, profile)
    return sum(
        (reach[z] * game.utilities[z][player - 1] for z in game.terminals if reach[z]),
        start=Fraction(0),
    )


# ---------------------------------------------------------------------------
# Exact gradients (monomial differentiation)
# ---------------------------------------------------------------------------


def infoset_terms(
    game: Game, profile: StrategyProfile, player: int, infoset_id: str
) -> list[tuple[Num, tuple[int, ...]]]:
    """The part of the player's expected utility that depends on one
    infoset's row, as ``sum_k c_k * prod_a row_a ** e_k[a]``.

    One term (c_k, e_k) per leaf whose path visits the infoset and pays the
    player: c_k is the utility times the leaf's chance coefficient and its
    entries at other infosets, e_k the leaf's visit counts of the row.
    """
    game.infoset(infoset_id, player)  # KeyError for an unknown infoset
    rows = {s.player: s.table for s in profile.strategies}
    terms = []
    for z in game.leaves_visiting.get((player, infoset_id), ()):
        u = game.utilities[z][player - 1]
        if not u:
            continue
        c = u * game.leaves[z].chance
        for (p, iid), counts in game.leaves[z].visits:
            if p == player and iid == infoset_id:
                exps = counts
            else:
                for entry, m in zip(rows[p][iid], counts):
                    if m:
                        c = c * entry ** m
        terms.append((c, exps))
    return terms


def infoset_gradient(
    game: Game, profile: StrategyProfile, player: int, infoset_id: str
) -> list[Num]:
    """Exact partial derivatives of the player's expected utility in every
    entry of the infoset's row: within each leaf monomial the entry appears
    with its visit count as exponent, so d/dp p^m = m p^(m-1) leafwise."""
    row = profile[player].row(infoset_id)
    out: list[Num] = [Fraction(0)] * len(row)
    for c, exps in infoset_terms(game, profile, player, infoset_id):
        for a, m in enumerate(exps):
            if m:
                term = c * m
                for b, e in enumerate(exps):
                    term = term * row[b] ** (e - (a == b))
                out[a] = out[a] + term
    return out


def utility_gradient(
    game: Game,
    profile: StrategyProfile,
    player: int,
    infoset_id: str,
    action: Union[int, str],
) -> Num:
    """Exact partial derivative of the player's expected utility with
    respect to the probability of ``action`` at ``infoset_id``."""
    iset = game.infoset(infoset_id, player)
    aidx = action if isinstance(action, int) else iset.actions.index(action)
    if not (0 <= aidx < len(iset.actions)):
        raise KeyError(f"unknown action {action!r} at infoset {infoset_id!r}")
    return infoset_gradient(game, profile, player, infoset_id)[aidx]


# ---------------------------------------------------------------------------
# Deviations, lifting, equivalence, opponent folding
# ---------------------------------------------------------------------------


def deviate(
    profile: StrategyProfile, infoset_id: str, sigma: Sequence[Num], player: Optional[int] = None
) -> StrategyProfile:
    """The profile that plays ``sigma`` at the given infoset and is
    unchanged elsewhere."""
    owners = [
        s for s in profile.strategies
        if infoset_id in s.table and (player is None or s.player == player)
    ]
    if not owners:
        raise KeyError(f"no strategy in the profile covers infoset {infoset_id!r}")
    strategy = owners[0]
    if len(sigma) != len(strategy.row(infoset_id)):
        raise ValueError(
            f"deviation at {infoset_id!r} has dimension {len(sigma)}, "
            f"row has {len(strategy.row(infoset_id))}"
        )
    return profile.replace(strategy.replace_row(infoset_id, tuple(sigma)))


def lift_strategy(
    g_coarse: Game,
    g_fine: Game,
    plan,
    profile_coarse: StrategyProfile,
) -> StrategyProfile:
    """Transport a profile along a refinement plan: every fine infoset
    plays exactly as its coarse parent did, preserving all reach
    probabilities and hence utilities."""
    player = plan.player
    coarse = profile_coarse[player]
    table: dict[str, tuple[Num, ...]] = {}
    for coarse_id, fine_ids in plan.mapping.items():
        row = coarse.row(coarse_id)
        for fid in fine_ids:
            fine_iset = g_fine.infosets[player][fid]
            if len(fine_iset.actions) != len(row):
                raise ValueError(f"plan mismatch at fine infoset {fid!r}")
            table[fid] = row
    for iset in g_fine.infosets.get(player, {}).values():
        if iset.id not in table:
            raise ValueError(f"plan does not cover fine infoset {iset.id!r}")
    return profile_coarse.replace(BehavioralStrategy(player=player, table=table))


def realization_equivalent(
    game: Game, profile_a: StrategyProfile, profile_b: StrategyProfile
) -> bool:
    """True when both profiles induce the same reach probability at every
    node, up to ``_TOL``."""
    ra = node_reach_map(game, profile_a)
    rb = node_reach_map(game, profile_b)
    return all(abs(float(ra[n] - rb[n])) <= _TOL for n in game.nodes)


def fix_opponents(game: Game, profile: StrategyProfile, player: int) -> Game:
    """The single-player view: every other strategic player's node becomes
    a chance node playing that player's strategy row; ``player`` keeps its
    infosets (re-labelled as player 1) and its utility column."""
    game._check_player(player)
    nodes = {}
    for nid, node in game.nodes.items():
        if node.owner == player:
            nodes[nid] = Node(
                id=nid, owner=1, actions=node.actions, children=node.children
            )
        elif isinstance(node.owner, int):
            row = profile[node.owner].row(game.infoset_of_node[nid])
            nodes[nid] = Node(
                id=nid,
                owner=CHANCE,
                actions=node.actions,
                children=node.children,
                chance_dist=tuple(row),
            )
        else:
            nodes[nid] = node

    utilities = {z: (us[player - 1],) for z, us in game.utilities.items()}
    infosets = {
        1: {
            iset.id: Infoset(
                id=iset.id, player=1, nodes=iset.nodes, actions=iset.actions
            )
            for iset in game.infosets.get(player, {}).values()
        }
    }
    return Game(
        players=1,
        root=game.root,
        nodes=nodes,
        utilities=utilities,
        infosets=infosets,
        name=f"fixed_{player}({game.name})" if game.name else "",
    )
