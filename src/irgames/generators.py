"""Deterministic game constructors: the worked examples used throughout the
test suite, the two hardness-reduction families (3SAT and exact-cover), the
submodular valid-utility family, and seeded random games.

Every generator emits exact rational numbers, so downstream computations
can stay in rational mode; identical inputs produce identical games.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .game import CHANCE, TERMINAL, Game, Infoset, Node, Num, make_game


def _as_num(value) -> Num:
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    return float(value)


def _terminal(nid: str) -> Node:
    return Node(id=nid, owner=TERMINAL)


# ---------------------------------------------------------------------------
# Figure games
# ---------------------------------------------------------------------------


def gen_fig1(eps) -> Game:
    """Two-player trust game where giving Player 1 recall hurts everyone.

    Player 2 moves first (trust ``t`` or walk ``w``); Player 1 then acts
    twice at one infoset (cooperate ``c`` / defect ``d``).  Walking pays
    (0, eps); the cooperative path pays (2, 1).
    """
    eps = _as_num(eps)
    if not (0 < eps < 1):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    nodes = [
        Node(id="v0", owner=2, actions=("t", "w"), children=("v1", "zw")),
        Node(id="v1", owner=1, actions=("c", "d"), children=("v2", "zd1")),
        Node(id="v2", owner=1, actions=("c", "d"), children=("zcc", "zcd")),
        _terminal("zw"),
        _terminal("zd1"),
        _terminal("zcc"),
        _terminal("zcd"),
    ]
    utilities = {
        "zw": (Fraction(0), eps),
        "zd1": (Fraction(0), 2 * eps),
        "zcc": (Fraction(2), Fraction(1)),
        "zcd": (Fraction(3), Fraction(0)),
    }
    infosets = [
        Infoset(id="I1", player=1, nodes=("v1", "v2"), actions=("c", "d")),
        Infoset(id="I2", player=2, nodes=("v0",), actions=("t", "w")),
    ]
    return make_game(2, "v0", nodes, utilities, infosets, name="fig1")


def gen_fig2() -> Game:
    """Single-player game with one thrice-entered infoset behind a fair
    chance node; optimal play mixes (utility 2/3) while its perfect-recall
    refinement reaches 3/2."""
    half = Fraction(1, 2)
    nodes = [
        Node(
            id="c0",
            owner=CHANCE,
            actions=("l", "r"),
            children=("a", "w"),
            chance_dist=(half, half),
        ),
        Node(id="a", owner=1, actions=("L", "R"), children=("b", "za")),
        Node(id="b", owner=1, actions=("L", "R"), children=("zb0", "zb3")),
        Node(id="w", owner=1, actions=("L", "R"), children=("zw0", "zw1")),
        _terminal("za"),
        _terminal("zb0"),
        _terminal("zb3"),
        _terminal("zw0"),
        _terminal("zw1"),
    ]
    utilities = {
        "za": (Fraction(0),),
        "zb0": (Fraction(0),),
        "zb3": (Fraction(3),),
        "zw0": (Fraction(0),),
        "zw1": (Fraction(1),),
    }
    infosets = [
        Infoset(id="I", player=1, nodes=("a", "b", "w"), actions=("L", "R")),
    ]
    return make_game(1, "c0", nodes, utilities, infosets, name="fig2")


def gen_fig3(eps) -> Game:
    """Single-player game whose perfect-recall refinement gains a bad
    equilibrium: two sequential binary choices, second infoset shared."""
    eps = _as_num(eps)
    if not (0 < eps < 1):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    nodes = [
        Node(id="r", owner=1, actions=("L", "R"), children=("a", "b")),
        Node(id="a", owner=1, actions=("L", "R"), children=("zal", "zar")),
        Node(id="b", owner=1, actions=("L", "R"), children=("zbl", "zbr")),
        _terminal("zal"),
        _terminal("zar"),
        _terminal("zbl"),
        _terminal("zbr"),
    ]
    utilities = {
        "zal": (Fraction(1),),
        "zar": (Fraction(0),),
        "zbl": (eps,),
        "zbr": (Fraction(0),),
    }
    infosets = [
        Infoset(id="I1", player=1, nodes=("r",), actions=("L", "R")),
        Infoset(id="I2", player=1, nodes=("a", "b"), actions=("L", "R")),
    ]
    return make_game(1, "r", nodes, utilities, infosets, name="fig3")


def _fig5_nodes():
    nodes = [
        Node(id="r", owner=1, actions=("L", "R"), children=("a", "b")),
        Node(id="a", owner=1, actions=("L", "R"), children=("zal", "zar")),
        Node(id="b", owner=1, actions=("L", "R"), children=("zbl", "zbr")),
        _terminal("zal"),
        _terminal("zar"),
        _terminal("zbl"),
        _terminal("zbr"),
    ]
    utilities = {
        "zal": (Fraction(2),),
        "zar": (Fraction(0),),
        "zbl": (Fraction(0),),
        "zbr": (Fraction(1),),
    }
    return nodes, utilities


def gen_fig5() -> Game:
    """All three decision nodes in one (absentminded) infoset."""
    nodes, utilities = _fig5_nodes()
    infosets = [
        Infoset(id="I", player=1, nodes=("r", "a", "b"), actions=("L", "R")),
    ]
    return make_game(1, "r", nodes, utilities, infosets, name="fig5a")


def gen_fig5_split() -> Game:
    """The partial recall refinement splitting the root off the infoset."""
    nodes, utilities = _fig5_nodes()
    infosets = [
        Infoset(id="I1", player=1, nodes=("r",), actions=("L", "R")),
        Infoset(id="I2", player=1, nodes=("a", "b"), actions=("L", "R")),
    ]
    return make_game(1, "r", nodes, utilities, infosets, name="fig5b")


# ---------------------------------------------------------------------------
# Tightness families
# ---------------------------------------------------------------------------


def gen_lenny(n: int) -> Game:
    """One infoset entered ``n`` times; utility 1 only on the path that
    plays the first action n/2 times then the second n/2 times."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be an even integer >= 2, got {n}")
    nodes = []
    utilities = {}
    decision_ids = [f"d{k}" for k in range(1, n + 1)]
    for k in range(1, n + 1):
        nid = decision_ids[k - 1]
        stop = f"z{k}"
        nxt = decision_ids[k] if k < n else f"z{n + 1}"
        if k <= n // 2:
            children = (nxt, stop)  # L continues, R stops
        else:
            children = (stop, nxt)  # R continues, L stops
        nodes.append(Node(id=nid, owner=1, actions=("L", "R"), children=children))
        nodes.append(_terminal(stop))
        utilities[stop] = (Fraction(0),)
    nodes.append(_terminal(f"z{n + 1}"))
    utilities[f"z{n + 1}"] = (Fraction(1),)
    infosets = [
        Infoset(id="I", player=1, nodes=tuple(decision_ids), actions=("L", "R")),
    ]
    return make_game(1, "d1", nodes, utilities, infosets, name=f"lenny{n}")


def gen_dory(n: int) -> Game:
    """Uniform n-ary chance root; the player must echo the chance action
    twice, remembering it only the first time."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    acts = tuple(f"a{j}" for j in range(1, n + 1))
    p = Fraction(1, n)
    nodes = [
        Node(
            id="c",
            owner=CHANCE,
            actions=acts,
            children=tuple(f"f{j}" for j in range(1, n + 1)),
            chance_dist=(p,) * n,
        )
    ]
    utilities = {}
    infosets = []
    second_layer = []
    for j in range(1, n + 1):
        first = f"f{j}"
        seconds = tuple(f"s{j}:{a}" for a in acts)
        nodes.append(Node(id=first, owner=1, actions=acts, children=seconds))
        infosets.append(
            Infoset(id=f"IF{j}", player=1, nodes=(first,), actions=acts)
        )
        for a, sid in zip(acts, seconds):
            leaves = tuple(f"z{j}:{a}:{b}" for b in acts)
            nodes.append(Node(id=sid, owner=1, actions=acts, children=leaves))
            second_layer.append(sid)
            for b, z in zip(acts, leaves):
                nodes.append(_terminal(z))
                win = a == f"a{j}" and b == f"a{j}"
                utilities[z] = (Fraction(1) if win else Fraction(0),)
    infosets.append(
        Infoset(id="IS", player=1, nodes=tuple(second_layer), actions=acts)
    )
    return make_game(1, "c", nodes, utilities, infosets, name=f"dory{n}")


# ---------------------------------------------------------------------------
# Hardness-reduction families
# ---------------------------------------------------------------------------


def gen_sat_game(clauses: Sequence[Sequence[int]], eta=1, M=1) -> Game:
    """3SAT game: an opt-out action, then chance picks a clause subtree in
    which three variable layers assign truth values.

    Satisfying-assignment leaves pay ``eta``; violating leaves pay
    ``M' + eta`` with ``M' = 8 * M * eta * n``, so the player is drawn to
    violating some clause whenever possible.  Variables are shared across
    subtrees through common infosets; a dummy observed node per subtree
    makes the clause identity recallable in the refinement.
    """
    eta = _as_num(eta)
    if eta <= 0 or M < 1:
        raise ValueError("require eta > 0 and M >= 1")
    n = len(clauses)
    if n == 0:
        raise ValueError("formula needs at least one clause")
    for clause in clauses:
        if len(clause) != 3 or any(l == 0 for l in clause):
            raise ValueError(f"malformed clause {clause!r}: need 3 nonzero literals")
        if len({abs(l) for l in clause}) != 3:
            raise ValueError(f"malformed clause {clause!r}: variables must be distinct")
    mprime = 8 * M * eta * n

    nodes = [
        Node(id="h0", owner=1, actions=("Y", "N"), children=("hc", "zN")),
        _terminal("zN"),
        Node(
            id="hc",
            owner=CHANCE,
            actions=tuple(f"c{j}" for j in range(n)),
            children=tuple(f"C{j}" for j in range(n)),
            chance_dist=(Fraction(1, n),) * n,
        ),
    ]
    utilities = {"zN": (eta,)}
    var_nodes: dict[int, list[str]] = {}

    for j, clause in enumerate(clauses):
        dummy = f"C{j}"
        top = f"C{j}:"
        nodes.append(Node(id=dummy, owner=1, actions=("go",), children=(top,)))
        for bits in itertools.chain.from_iterable(
            itertools.product("TF", repeat=d) for d in range(3)
        ):
            nid = f"C{j}:{''.join(bits)}"
            depth = len(bits)
            kids = tuple(f"C{j}:{''.join(bits)}{b}" for b in "TF")
            nodes.append(Node(id=nid, owner=1, actions=("T", "F"), children=kids))
            var_nodes.setdefault(abs(clause[depth]), []).append(nid)
        for bits in itertools.product("TF", repeat=3):
            z = f"C{j}:{''.join(bits)}"
            nodes.append(_terminal(z))
            satisfied = any(
                (bit == "T") == (lit > 0) for bit, lit in zip(bits, clause)
            )
            utilities[z] = (eta if satisfied else mprime + eta,)

    infosets = [
        Infoset(id="I0", player=1, nodes=("h0",), actions=("Y", "N")),
    ]
    for j in range(n):
        infosets.append(
            Infoset(id=f"ID{j}", player=1, nodes=(f"C{j}",), actions=("go",))
        )
    for var in sorted(var_nodes):
        infosets.append(
            Infoset(
                id=f"IX{var}",
                player=1,
                nodes=tuple(var_nodes[var]),
                actions=("T", "F"),
            )
        )
    return make_game(1, "h0", nodes, utilities, infosets, name=f"sat{n}")


def gen_x3c_game(universe_size: int, family: Sequence[Iterable[int]]) -> tuple[Game, int]:
    """Exact-cover game: chance draws an element, the player observes it,
    forgets it, and then commits to one family set; utility 1 iff the set
    contains the drawn element.  Returns the game and the split budget
    ``k = |U|/3 - 1`` of the reduction.

    With k splits the forgetful infoset falls into k + 1 blocks of
    elements, and value 1 needs every block inside one family set, so
    k + 1 sets covering U.  That is an exact cover iff k + 1 = |U|/3.  A
    universe size that is not a multiple of 3 has no exact cover and is
    rejected."""
    n = universe_size
    if n < 3 or n % 3:
        raise ValueError(f"universe size {n} is not a positive multiple of 3")
    sets = [tuple(sorted(set(f))) for f in family]
    for f in sets:
        if len(f) != 3 or any(not (1 <= u <= n) for u in f):
            raise ValueError(f"malformed family set {f!r}: need 3 distinct elements of U")
    if not sets:
        raise ValueError("family must be nonempty")

    nodes = [
        Node(
            id="c",
            owner=CHANCE,
            actions=tuple(f"u{u}" for u in range(1, n + 1)),
            children=tuple(f"o{u}" for u in range(1, n + 1)),
            chance_dist=(Fraction(1, n),) * n,
        )
    ]
    utilities = {}
    set_actions = tuple(f"F{j}" for j in range(1, len(sets) + 1))
    infosets = []
    pick_nodes = []
    for u in range(1, n + 1):
        obs_id, pick_id = f"o{u}", f"p{u}"
        nodes.append(Node(id=obs_id, owner=1, actions=("go",), children=(pick_id,)))
        infosets.append(
            Infoset(id=f"IU{u}", player=1, nodes=(obs_id,), actions=("go",))
        )
        leaves = tuple(f"z{u}:{j}" for j in range(1, len(sets) + 1))
        nodes.append(Node(id=pick_id, owner=1, actions=set_actions, children=leaves))
        pick_nodes.append(pick_id)
        for j, z in enumerate(leaves, start=1):
            nodes.append(_terminal(z))
            utilities[z] = (Fraction(1) if u in sets[j - 1] else Fraction(0),)
    infosets.append(
        Infoset(id="IF", player=1, nodes=tuple(pick_nodes), actions=set_actions)
    )
    game = make_game(1, "c", nodes, utilities, infosets, name=f"x3c{n}")
    return game, n // 3 - 1


# ---------------------------------------------------------------------------
# Valid-utility (submodular) family
# ---------------------------------------------------------------------------


def coverage_function(
    covers: Mapping[str, Iterable[str]], weights: Mapping[str, Num]
) -> Callable[[frozenset], Fraction]:
    """Weighted-coverage set function: V(X) = total weight of items covered
    by any element of X.  Always nonnegative, nondecreasing, submodular."""

    cov = {e: frozenset(items) for e, items in covers.items()}
    wts = {i: _as_num(w) for i, w in weights.items()}

    def V(selected: frozenset) -> Num:
        hit = frozenset().union(*(cov[e] for e in selected)) if selected else frozenset()
        return sum((wts[i] for i in sorted(hit)), start=Fraction(0))

    return V


def _check_submodular(elements: Sequence[str], V) -> None:
    if len(elements) > 10:
        raise ValueError("submodularity check limited to |E| <= 10")
    subsets = [
        frozenset(c)
        for r in range(len(elements) + 1)
        for c in itertools.combinations(elements, r)
    ]
    if any(V(s) < 0 for s in subsets):
        raise ValueError("submodularity check failure: V takes negative values")
    for x in subsets:
        for y in subsets:
            if x < y and V(x) > V(y):
                raise ValueError("submodularity check failure: V is decreasing")
            if V(x & y) + V(x | y) > V(x) + V(y):
                raise ValueError("submodularity check failure: V is not submodular")


def gen_valid_utility(
    elements: Sequence[str],
    V: Callable[[frozenset], Num],
    menus: Sequence[Sequence[Sequence[str]]],
) -> Game:
    """Forgetful subset-selection game: a chain of infosets, each picking
    one subset of the ground set from its menu while past picks are
    forgotten; terminal payoff is V applied to the union of all picks."""
    _check_submodular(elements, V)
    element_set = set(elements)
    norm_menus = []
    for menu in menus:
        options = [tuple(sorted(set(o))) for o in menu]
        for o in options:
            if not set(o) <= element_set:
                raise ValueError(f"menu option {o!r} uses unknown elements")
        if not options:
            raise ValueError("menus must be nonempty")
        norm_menus.append(options)

    def label(option: tuple[str, ...]) -> str:
        return "+".join(option) if option else "none"

    nodes = []
    utilities = {}
    layers: list[list[str]] = []
    frontier = [("s", ())]  # (node id, choices so far)
    for depth, menu in enumerate(norm_menus):
        layer_ids = []
        next_frontier = []
        acts = tuple(label(o) for o in menu)
        for nid, picks in frontier:
            children = tuple(f"{nid}/{i}" for i in range(len(menu)))
            nodes.append(Node(id=nid, owner=1, actions=acts, children=children))
            layer_ids.append(nid)
            for i, child in enumerate(children):
                next_frontier.append((child, picks + (menu[i],)))
        layers.append(layer_ids)
        frontier = next_frontier
    for nid, picks in frontier:
        nodes.append(_terminal(nid))
        union = frozenset(e for option in picks for e in option)
        utilities[nid] = (_as_num(V(union)),)

    infosets = [
        Infoset(
            id=f"IS{d}",
            player=1,
            nodes=tuple(layers[d]),
            actions=tuple(label(o) for o in norm_menus[d]),
        )
        for d in range(len(norm_menus))
    ]
    return make_game(1, "s", nodes, utilities, infosets, name="valid_utility")


def default_valid_utility() -> Game:
    """The stock coverage instance: four ground elements with overlapping
    item coverage, two forgetful infosets choosing between the same two
    element pairs.  Strictly submodular, with an inefficient interior
    equilibrium, so the efficiency bound is non-trivial."""
    covers = {
        "e1": ["i1", "i2"],
        "e2": ["i2", "i3"],
        "e3": ["i3", "i4"],
        "e4": ["i4", "i5"],
    }
    weights = {"i1": 2, "i2": 1, "i3": 2, "i4": 1, "i5": 2}
    V = coverage_function(covers, weights)
    menus = [
        [("e1", "e2"), ("e3", "e4")],
        [("e1", "e2"), ("e3", "e4")],
    ]
    return gen_valid_utility(["e1", "e2", "e3", "e4"], V, menus)


# ---------------------------------------------------------------------------
# Seeded random games
# ---------------------------------------------------------------------------

# Chance that a node below the root is a leaf before the depth limit, and
# the largest leaf utility (utilities are drawn from 0..this).
_STOP_RATE = 0.25
_MAX_UTILITY = 10


def gen_random(
    depth: int,
    branching: int,
    merge_rate: float,
    chance_rate: float,
    absentmindedness: bool,
    seed: int,
    players: int = 1,
) -> Game:
    """Seeded random game satisfying every structural invariant.

    ``merge_rate`` is the probability a fresh decision node joins an
    existing compatible infoset of its owner; with ``absentmindedness``
    False a node never joins an infoset containing one of its ancestors or
    descendants, which provably keeps every path free of repeat visits.
    """
    if depth < 1 or branching < 2 or players < 1:
        raise ValueError("require depth >= 1, branching >= 2, players >= 1")
    if not (0 <= merge_rate <= 1 and 0 <= chance_rate <= 1):
        raise ValueError("rates must lie in [0, 1]")
    rng = random.Random(seed)
    actions = tuple(f"a{i}" for i in range(branching))

    nodes: list[Node] = []
    utilities: dict[str, tuple[Num, ...]] = {}
    ancestors: dict[str, frozenset[str]] = {}
    owners: dict[str, int] = {}
    counter = itertools.count()

    def build(level: int, anc: frozenset[str]) -> str:
        nid = f"n{next(counter)}"
        terminal = level >= depth or (level > 0 and rng.random() < _STOP_RATE)
        if terminal:
            nodes.append(_terminal(nid))
            utilities[nid] = tuple(
                Fraction(rng.randint(0, _MAX_UTILITY)) for _ in range(players)
            )
            return nid
        is_chance = rng.random() < chance_rate
        child_anc = anc | {nid}
        children = tuple(build(level + 1, child_anc) for _ in range(branching))
        if is_chance:
            weights = [rng.randint(1, 5) for _ in range(branching)]
            total = sum(weights)
            dist = tuple(Fraction(w, total) for w in weights)
            nodes.append(
                Node(id=nid, owner=CHANCE, actions=actions, children=children,
                     chance_dist=dist)
            )
        else:
            owner = rng.randint(1, players)
            owners[nid] = owner
            ancestors[nid] = anc
            nodes.append(
                Node(id=nid, owner=owner, actions=actions, children=children)
            )
        return nid

    root = build(0, frozenset())

    # Group decision nodes into infosets, shallow nodes first so the
    # ancestor test sees settled groups.
    infosets: list[Infoset] = []
    groups: dict[int, list[list[str]]] = {p: [] for p in range(1, players + 1)}
    order = sorted(owners, key=lambda nid: (len(ancestors[nid]), nid))
    for nid in order:
        owner = owners[nid]
        candidates = []
        if rng.random() < merge_rate:
            for idx, members in enumerate(groups[owner]):
                if absentmindedness:
                    candidates.append(idx)
                    continue
                related = any(
                    m in ancestors[nid] or nid in ancestors[m] for m in members
                )
                if not related:
                    candidates.append(idx)
        if candidates:
            groups[owner][rng.choice(candidates)].append(nid)
        else:
            groups[owner].append([nid])
    for player in range(1, players + 1):
        for idx, members in enumerate(groups[player]):
            infosets.append(
                Infoset(
                    id=f"P{player}G{idx}",
                    player=player,
                    nodes=tuple(members),
                    actions=actions,
                )
            )

    return make_game(
        players, root, nodes, utilities, infosets,
        name=f"random(seed={seed})",
    )
