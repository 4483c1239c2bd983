"""Self-describing JSON files for games and strategies.

One format serves the whole toolkit so that golden tests can diff entire
files.  Rational numbers round-trip exactly: integers stay JSON integers,
non-integer fractions are written as "a/b" strings, floats stay floats.
Writing is canonical (fixed key order, nodes in depth-first order), so the
same game always produces identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Union

from .game import CHANCE, TERMINAL, Game, Infoset, Node, Num, make_game
from .strategies import BehavioralStrategy, StrategyProfile


class GameParseError(ValueError):
    """Input file is not a well-formed game/strategy document."""


def format_number(value: Num) -> Union[int, float, str]:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return float(value)


def parse_number(raw, where: str = "") -> Num:
    if isinstance(raw, bool):
        raise GameParseError(f"expected a number{where}, got a boolean")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        return raw
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise GameParseError(f"bad rational literal {raw!r}{where}: {exc}") from None
    raise GameParseError(f"expected a number{where}, got {type(raw).__name__}")


def _owner_to_str(owner) -> str:
    if isinstance(owner, int):
        return f"P{owner}"
    return owner


def _owner_from_str(raw: str, where: str):
    if raw == CHANCE or raw == TERMINAL:
        return raw
    if isinstance(raw, str) and raw.startswith("P") and raw[1:].isdigit():
        return int(raw[1:])
    raise GameParseError(f"bad owner {raw!r}{where}")


def game_to_jsonable(game: Game) -> dict:
    nodes = []
    order = game._ordered_ids()
    placed = set(order)
    order += [nid for nid in sorted(game.nodes) if nid not in placed]
    for nid in order:
        node = game.nodes[nid]
        entry: dict = {"id": node.id, "owner": _owner_to_str(node.owner)}
        if node.actions:
            entry["actions"] = list(node.actions)
            entry["children"] = list(node.children)
        if node.chance_dist is not None:
            entry["chance_probs"] = [format_number(p) for p in node.chance_dist]
        if node.is_terminal:
            utils = game.utilities.get(nid, ())
            entry["utils"] = [format_number(u) for u in utils]
        nodes.append(entry)
    infosets = []
    for player in sorted(game.infosets):
        for iid in sorted(game.infosets[player]):
            iset = game.infosets[player][iid]
            infosets.append(
                {
                    "player": player,
                    "id": iset.id,
                    "nodes": list(iset.nodes),
                    "actions": list(iset.actions),
                }
            )
    out = {
        "players": game.players,
        "root": game.root,
        "nodes": nodes,
        "infosets": infosets,
    }
    if game.name:
        out["name"] = game.name
    return out


def _list(raw, what: str, strings: bool = False) -> tuple:
    """``raw``, which must be a JSON list (of strings, if ``strings``), as
    a tuple."""
    if not isinstance(raw, list) or (strings and not all(isinstance(v, str) for v in raw)):
        raise GameParseError(f"{what} must be a list{' of strings' if strings else ''}, "
                             f"got {raw!r}")
    return tuple(raw)


def _objects(raw, what: str, kind: str, key: str):
    """(``entry[key]``, entry) for each entry of ``raw``, which must be a
    JSON list of objects with a string ``key``."""
    for entry in _list(raw, what):
        if not isinstance(entry, dict):
            raise GameParseError(f"{kind} entry {entry!r} is not an object")
        if not isinstance(entry.get(key), str):
            raise GameParseError(f"every {kind} needs a string {key!r}")
        yield entry[key], entry


def _integer(raw, what: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise GameParseError(f"{what} must be an integer, got {raw!r}")
    return raw


def game_from_jsonable(doc) -> Game:
    """The game a document describes.  A document that is not a game's
    shape (a field of the wrong JSON type, a repeated node id, a repeated
    infoset id of one player) raises :class:`GameParseError`; a
    well-formed document may still describe an invalid game, which
    ``validate_game`` reports."""
    if not isinstance(doc, dict):
        raise GameParseError("top-level game document must be an object")
    for key in ("players", "root", "nodes", "infosets"):
        if key not in doc:
            raise GameParseError(f"game document is missing the {key!r} field")
    players = _integer(doc["players"], "'players'")
    if not isinstance(doc["root"], str):
        raise GameParseError(f"'root' must be a string, got {doc['root']!r}")
    nodes: dict[str, Node] = {}
    utilities = {}
    for nid, entry in _objects(doc["nodes"], "'nodes'", "node", "id"):
        if nid in nodes:
            raise GameParseError(f"node id {nid!r} appears twice")
        where = f" at node {nid!r}"
        owner = _owner_from_str(entry.get("owner"), where)
        actions = _list(entry.get("actions", []), f"'actions'{where}", strings=True)
        children = _list(entry.get("children", []), f"'children'{where}", strings=True)
        dist = entry.get("chance_probs")
        chance_dist = (
            tuple(parse_number(p, where) for p in _list(dist, f"'chance_probs'{where}"))
            if dist is not None else None
        )
        nodes[nid] = Node(id=nid, owner=owner, actions=actions, children=children,
                          chance_dist=chance_dist)
        if "utils" in entry:
            utilities[nid] = tuple(parse_number(u, where)
                                   for u in _list(entry["utils"], f"'utils'{where}"))
    infosets: dict[tuple[int, str], Infoset] = {}
    for iid, entry in _objects(doc["infosets"], "'infosets'", "infoset", "id"):
        where = f" at infoset {iid!r}"
        player = _integer(entry.get("player"), f"'player'{where}")
        if (player, iid) in infosets:
            raise GameParseError(f"infoset id {iid!r} of player {player} appears twice")
        infosets[player, iid] = Infoset(
            id=iid,
            player=player,
            nodes=_list(entry.get("nodes"), f"'nodes'{where}", strings=True),
            actions=_list(entry.get("actions"), f"'actions'{where}", strings=True),
        )
    return make_game(
        players=players,
        root=doc["root"],
        nodes=nodes.values(),
        utilities=utilities,
        infosets=infosets.values(),
        name=doc.get("name", ""),
    )


def dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameParseError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def write_game(game: Game, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(game_to_jsonable(game)))


def read_game(path: str) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        return game_from_jsonable(loads(fh.read()))


# -- strategies --------------------------------------------------------------


def strategy_to_jsonable(strategy: BehavioralStrategy) -> dict:
    return {
        "player": strategy.player,
        "entries": [
            {"infoset": iid, "probs": [format_number(p) for p in row]}
            for iid, row in sorted(strategy.table.items())
        ],
    }


def strategy_from_jsonable(doc) -> BehavioralStrategy:
    """The strategy a document describes.  A document that is not a
    strategy's shape (a field of the wrong JSON type, a repeated infoset
    row) raises :class:`GameParseError`; ``validate_profile`` checks a
    well-formed one against its game."""
    if not isinstance(doc, dict):
        raise GameParseError(f"strategy document {doc!r} is not an object")
    for key in ("player", "entries"):
        if key not in doc:
            raise GameParseError(f"strategy document is missing the {key!r} field")
    player = _integer(doc["player"], "'player'")
    table: dict[str, tuple] = {}
    for iid, entry in _objects(doc["entries"], "'entries'", "row", "infoset"):
        if iid in table:
            raise GameParseError(f"infoset {iid!r} of player {player} has two rows")
        where = f" at infoset {iid!r}"
        table[iid] = tuple(parse_number(p, where)
                           for p in _list(entry.get("probs"), f"'probs'{where}"))
    return BehavioralStrategy(player=player, table=table)


def profile_to_jsonable(profile: StrategyProfile) -> list:
    return [strategy_to_jsonable(s) for s in profile.strategies]


def profile_from_jsonable(doc) -> StrategyProfile:
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list):
        raise GameParseError("a profile document must be a list of strategies")
    return StrategyProfile(
        strategies=tuple(strategy_from_jsonable(d) for d in doc)
    )


def write_profile(profile: StrategyProfile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(profile_to_jsonable(profile)))


def read_profile(path: str) -> StrategyProfile:
    with open(path, "r", encoding="utf-8") as fh:
        return profile_from_jsonable(loads(fh.read()))
